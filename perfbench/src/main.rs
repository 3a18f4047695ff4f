//! Helpers for the end-to-end campaign benchmark driven by `run.py`.
//!
//! ```text
//! perfbench spec  --apps A,B --partitioners P,Q [--policies S,T] --nprocs N,M
//!                 [--ghost-widths G,H] [--machines M,N] --config reduced|smoke
//!                 [--base-cells N] --seed SEED --out FILE
//! perfbench exec  --report FILE -- PROGRAM ARGS...
//! perfbench warm  --spec FILE --threads N
//! perfbench trace --spec FILE --threads N --out DIR [--cold]
//! perfbench calibrate --threads N
//! ```
//!
//! - `spec` writes the campaign spec a workload runs with
//!   `samr campaign --spec`, built from registry names, so the seed
//!   reaches the program only as `trace.seed`, and prints the planned
//!   artifact slugs;
//! - `exec` runs one process and reports its start time (Unix seconds),
//!   wall time, CPU time and peak resident memory. The launcher itself
//!   stays small, so the peak RSS it reports is the child's, not that of
//!   the Python script that forked it;
//! - `warm` times warming the trace/model store for the spec's
//!   applications, the way the campaign executor warms it before its
//!   sweep;
//! - `trace` runs the same campaign through the engine's public entry
//!   points with timing adapters around each layer (see [`traced`]);
//! - `calibrate` times a fixed reference computation, which measures the
//!   host's current speed (see [`calibrate`]).

mod calibrate;
mod rusage;
mod traced;

use rayon::prelude::*;
use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{
    build_thread_pool, cached_model, configs, CampaignPlan, CampaignSpec, PartitionerSpec,
    PolicySpec, ShardStrategy,
};
use samr_sim::MachineModel;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn required(args: &[String], flag: &str) -> Result<String, String> {
    flag_value(args, flag).ok_or_else(|| format!("missing {flag}"))
}

fn parse_list<T>(
    args: &[String],
    flag: &str,
    default: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    flag_value(args, flag)
        .unwrap_or_else(|| default.to_string())
        .split(',')
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect()
}

fn parse_number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("bad {flag} value '{v}': not a number"))
}

fn cmd_spec(args: &[String]) -> Result<(), String> {
    let apps = parse_list(args, "--apps", "", |a| {
        AppKind::parse(a).ok_or_else(|| format!("unknown app '{a}'"))
    })?;
    let dims: Vec<usize> = apps.iter().map(|a| a.dim()).collect();
    let mut trace = match required(args, "--config")?.as_str() {
        "reduced" => configs::reduced(),
        "smoke" => TraceGenConfig::smoke(),
        other => return Err(format!("unknown config '{other}'")),
    };
    trace.seed = parse_number("--seed", &required(args, "--seed")?)?;
    if let Some(cells) = flag_value(args, "--base-cells") {
        trace.base_cells = parse_number("--base-cells", &cells)?;
    }
    let spec = CampaignSpec::new(trace)
        .apps(apps)
        .dims(dims)
        .partitioners(parse_list(
            args,
            "--partitioners",
            "",
            PartitionerSpec::parse,
        )?)
        .policies(parse_list(args, "--policies", "static", PolicySpec::parse)?)
        .nprocs(parse_list(args, "--nprocs", "", |v| {
            parse_number("--nprocs", v)
        })?)
        .ghost_widths(parse_list(args, "--ghost-widths", "1", |v| {
            parse_number("--ghost-widths", v)
        })?)
        .machines(parse_list(
            args,
            "--machines",
            "uniform",
            MachineModel::parse,
        )?);
    if spec.is_empty() {
        return Err("spec expands to zero scenarios".into());
    }
    let out = required(args, "--out")?;
    let json = serde_json::to_string_pretty(&spec).expect("CampaignSpec serializes");
    std::fs::write(&out, json).map_err(|e| format!("write {out}: {e}"))?;
    // The planned artifact slugs, one per line, in plan order.
    for planned in CampaignPlan::new(&spec, 1, ShardStrategy::default()).scenarios {
        println!("{}", planned.slug);
    }
    Ok(())
}

fn cmd_exec(args: &[String]) -> Result<(), String> {
    let sep = args
        .iter()
        .position(|a| a == "--")
        .ok_or("exec needs -- PROGRAM ARGS")?;
    let report = required(&args[..sep], "--report")?;
    let (program, rest) = args[sep + 1..]
        .split_first()
        .ok_or("exec needs a program after --")?;
    let start_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("system clock before 1970: {e}"))?
        .as_secs_f64();
    let start = Instant::now();
    let status = Command::new(program)
        .args(rest)
        .status()
        .map_err(|e| format!("spawn {program}: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    let usage = rusage::children().map_err(|e| format!("getrusage: {e}"))?;
    let body = format!(
        "{{\"start_unix_s\": {start_unix}, \"wall_s\": {wall}, \"user_s\": {}, \"sys_s\": {}, \"peak_rss_mb\": {}, \"status\": {}}}\n",
        usage.user_s(),
        usage.sys_s(),
        usage.peak_rss_mb(),
        status.code().unwrap_or(-1),
    );
    std::fs::write(&report, body).map_err(|e| format!("write {report}: {e}"))
}

/// The campaign spec named by `--spec`.
fn read_spec(args: &[String]) -> Result<CampaignSpec, String> {
    let path = required(args, "--spec")?;
    let json = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))
}

/// The applications a spec expands, in plan order — the set the
/// executor warms before its sweep.
fn spec_apps(spec: &CampaignSpec) -> Vec<AppKind> {
    spec.apps
        .iter()
        .copied()
        .filter(|a| spec.dims.contains(&a.dim()))
        .collect()
}

fn threads_flag(args: &[String]) -> Result<usize, String> {
    let threads: usize = parse_number("--threads", &required(args, "--threads")?)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(threads)
}

fn cmd_warm(args: &[String]) -> Result<(), String> {
    let spec = read_spec(args)?;
    let apps = spec_apps(&spec);
    let pool = build_thread_pool(threads_flag(args)?)?;
    let start = Instant::now();
    pool.install(|| {
        apps.par_iter().for_each(|&app| {
            cached_model(app, &spec.trace);
        })
    });
    let setup = start.elapsed().as_secs_f64();
    println!("{{\"setup_s\": {setup}, \"apps\": {}}}", apps.len());
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let spec = read_spec(args)?;
    let threads = threads_flag(args)?;
    let out = PathBuf::from(required(args, "--out")?);
    let cold = args.iter().any(|a| a == "--cold");
    let pool = build_thread_pool(threads)?;
    let report = pool.install(|| traced::run(&spec, threads, cold, &out))?;
    println!("{report}");
    Ok(())
}

fn cmd_calibrate(args: &[String]) -> Result<(), String> {
    println!("{}", calibrate::run(threads_flag(args)?)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perfbench spec|exec|warm|trace|calibrate ...");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "spec" => cmd_spec(rest),
        "exec" => cmd_exec(rest),
        "warm" => cmd_warm(rest),
        "trace" => cmd_trace(rest),
        "calibrate" => cmd_calibrate(rest),
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
