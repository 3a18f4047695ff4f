//! Retained per-cell reference stencils of the 2-D solvers.
//!
//! The production `advance_coarse_step` sweeps compute each face flux
//! once per substep, in row bands that index row slices directly. The
//! per-cell stencils they replaced — four `rusanov` calls
//! per RM2D cell, the `flux_x`/`flux_y` closures of BL2D, the clamped
//! upwind stencil of TP2D and the Dirichlet leapfrog of SC2D — are kept
//! behind [`ReferenceKernel`] as bit-identity oracles: the in-crate tests
//! compare every field by `to_bits` at several band counts, and the
//! `solver` bench suite times them as the `_naive` twins. Not part of the
//! documented API.

use crate::bl2d::Bl2d;
use crate::kernel::Kernel;
use crate::rm2d::Rm2d;
use crate::sc2d::Sc2d;
use crate::tp2d::Tp2d;
use crate::tracegen::{AppKind, TraceGenConfig};
use samr_geom::Grid2;

/// A 2-D solver that can also advance through its retained per-cell
/// reference stencil.
pub trait ReferenceKernel: Kernel + Send {
    /// Advance one coarse step (all substeps plus the indicator refresh)
    /// through the per-cell reference stencil, serially.
    fn advance_coarse_step_reference(&mut self);

    /// Run the production sweep in `bands` row bands (at least one).
    /// The result must not depend on it.
    fn set_sweep_bands(&mut self, bands: usize);

    /// Every field the solver evolves, plus the indicator: the state a
    /// bit-identity comparison covers.
    fn state_fields(&self) -> Vec<&Grid2<f64>>;
}

/// Construct one of the [`AppKind::ALL`] solvers with its reference
/// stencil. Panics for applications without a PDE solver (PC2D is
/// analytic, SP3D is 3-D).
pub fn make_reference_kernel(kind: AppKind, cfg: &TraceGenConfig) -> Box<dyn ReferenceKernel> {
    let (n, steps, seed) = (cfg.ref_resolution, cfg.steps, cfg.seed);
    match kind {
        AppKind::Tp2d => Box::new(Tp2d::new(n, steps, seed)),
        AppKind::Bl2d => Box::new(Bl2d::new(n, steps, seed)),
        AppKind::Sc2d => Box::new(Sc2d::new(n, steps, seed)),
        AppKind::Rm2d => Box::new(Rm2d::new(n, steps, seed)),
        AppKind::Pc2d | AppKind::Sp3d => panic!("{} has no PDE solver", kind.name()),
    }
}

/// Assert two solvers' fields are equal bit for bit.
pub fn assert_bit_identical(a: &dyn ReferenceKernel, b: &dyn ReferenceKernel, what: &str) {
    let (fa, fb) = (a.state_fields(), b.state_fields());
    assert_eq!(fa.len(), fb.len());
    for (f, (ga, gb)) in fa.iter().zip(&fb).enumerate() {
        assert_eq!(ga.domain(), gb.domain());
        for (i, (x, y)) in ga.data().iter().zip(gb.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: field {f} differs at cell {i}: {x} vs {y}"
            );
        }
    }
}

/// Build a reference copy and one production copy per band count with
/// `make`, advance all of them `steps` coarse steps, and assert every
/// production copy bit-identical to the reference after each step.
#[cfg(test)]
pub(crate) fn assert_sweeps_match(
    make: impl Fn() -> Box<dyn ReferenceKernel>,
    bands: &[usize],
    steps: usize,
    what: &str,
) {
    let mut reference = make();
    let mut banded: Vec<_> = bands
        .iter()
        .map(|&b| {
            let mut k = make();
            k.set_sweep_bands(b);
            (b, k)
        })
        .collect();
    for step in 0..steps {
        reference.advance_coarse_step_reference();
        for (b, k) in &mut banded {
            k.advance_coarse_step();
            let what = format!("{what}: step {step}, {b} bands");
            assert_bit_identical(k.as_ref(), reference.as_ref(), &what);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The natural trajectories of all four solvers on the smoke grids:
    /// the production sweep at 1, 2 and 3 bands equals the reference
    /// stencil bit for bit after every coarse step.
    #[test]
    fn production_sweeps_match_the_reference_on_smoke_trajectories() {
        let cfg = TraceGenConfig {
            ref_resolution: 32,
            ..TraceGenConfig::smoke()
        };
        for kind in AppKind::ALL {
            let make = || make_reference_kernel(kind, &cfg);
            assert_sweeps_match(make, &[1, 2, 3], 3, kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "no PDE solver")]
    fn analytic_workloads_have_no_reference() {
        make_reference_kernel(AppKind::Pc2d, &TraceGenConfig::smoke());
    }
}
