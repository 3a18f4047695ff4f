//! Byte-level trace goldens: every application's smoke-configuration
//! trace, regenerated and written in the binary SAMRTRC2 format, must
//! equal the checked-in file byte for byte. A solver, regrid or format
//! change that moves a single bit of any hierarchy fails here.
//!
//! The goldens were written by
//! `samr generate <app> --config smoke --binary --out <app>_smoke.samrtrc2`;
//! regenerate them that way only for a deliberate output change.

use samr_apps::{trace_source_any, AppKind, TraceGenConfig};
use samr_trace::io::write_binary_source;
use samr_trace::AnySnapshotSource;
use std::io::Cursor;
use std::path::Path;

fn smoke_trace_bytes(kind: AppKind) -> Vec<u8> {
    let mut out = Cursor::new(Vec::new());
    let written = match trace_source_any(kind, &TraceGenConfig::smoke()) {
        AnySnapshotSource::D2(mut s) => write_binary_source::<2, _>(&mut s, &mut out),
        AnySnapshotSource::D3(mut s) => write_binary_source::<3, _>(&mut s, &mut out),
    }
    .expect("in-memory write");
    assert_eq!(written, TraceGenConfig::smoke().steps);
    out.into_inner()
}

#[test]
fn every_app_smoke_trace_matches_its_golden_bytes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for kind in AppKind::EVERY {
        let path = dir.join(format!("{}_smoke.samrtrc2", kind.name().to_lowercase()));
        let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let fresh = smoke_trace_bytes(kind);
        assert!(
            fresh == golden,
            "{}: regenerated smoke trace ({} bytes) differs from {} ({} bytes)",
            kind.name(),
            fresh.len(),
            path.display(),
            golden.len()
        );
    }
}
