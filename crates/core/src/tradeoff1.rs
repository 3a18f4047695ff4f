//! Trade-off 1: load balance vs. communication (reconstructed from
//! Part I).
//!
//! Part II references two penalties from Part I — `β_L` (load imbalance)
//! and `β_C` (communication) — and uses `β_c` in its validation ("the new
//! metric", Figures 4–7 left panels). Part I's text is not available, so
//! the penalties are reconstructed here from everything Part II says
//! about them:
//!
//! - **β_c is ab initio and aggressive**: "β_C reflects a worst-case
//!   scenario" and "jumps at potentially communication-heavy grids"
//!   (§5.2), and it is comparable to the §4.1 grid-relative communication
//!   metric (normalized by the workload). Two surfaces bound the
//!   ghost-exchange volume of level `l` per local step: the patch
//!   boundary (`boundary_l` cells — patch seams are always potential
//!   processor seams), and the *unavoidable cut surface* of distributing
//!   `N_l` cells over `P` processors — `≈ 4·√(N_l·P)` cells for
//!   near-square chunks (this is why relative communication rises when
//!   the grid shrinks at fixed `P`). `P` is a system parameter, which the
//!   model explicitly takes as input ("system parameters (such as CPU
//!   speed and communication bandwidth)", §1).
//!   `β_c = min(1, Σ_l (boundary_l + 4√(N_l·P))·r^l / W)`.
//! - **β_l is ab initio** and must capture the imbalance *potential* of
//!   the hierarchy. §3.1 names the failure mode precisely: "a small
//!   base-grid, many processors, and many levels of refinement cause
//!   domain-based techniques to generate intractable amounts of load
//!   imbalance". The quantitative form: domain-based cuts assign whole
//!   atomic columns of the composite workload, so once the heaviest
//!   column `w_max` approaches the ideal per-processor share `W/P`, no
//!   domain cut can balance — the imbalance floor is `w_max·P/W`. We set
//!   `β_l = min(1, w_max·P / (2W))`: 0.5 exactly when one column fills a
//!   whole processor, saturating at 1 when it fills two.
//!
//! The dimension-1 coordinate of the classification space is then the
//! relative weight of the two penalties: `d1 = β_l / (β_l + β_c)`
//! (0 → optimize communication, 1 → optimize load balance).

use crate::sampling::unit_workloads;
use samr_grid::GridHierarchy;

/// Worst-case ab-initio communication penalty `β_c ∈ [0, 1]` for a run on
/// `p_ref` processors.
///
/// Ghost width is fixed at 1 (the paper's kernels are all
/// nearest-neighbour stencils); boundary rings wider than the patch count
/// every cell.
pub fn beta_c<const D: usize>(h: &GridHierarchy<D>, p_ref: usize) -> f64 {
    let workload = h.workload().max(1) as f64;
    let mut worst = 0.0f64;
    for (l, level) in h.levels.iter().enumerate() {
        let cells = level.cells();
        if cells == 0 {
            continue;
        }
        let mult = (h.ratio as u64).pow(l as u32) as f64;
        let boundary = level.boundary_cells() as f64;
        // Unavoidable cut surface of distributing `cells` over `p_ref`
        // near-cubic chunks: `2D * N^((D-1)/D) * P^(1/D)` — `4 * sqrt(N*P)`
        // in 2-D (kept as the original expression so 2-D results stay
        // bit-identical), `6 * cbrt(N^2 * P)` in 3-D.
        let n = cells as f64;
        let p = p_ref as f64;
        let cut_surface = match D {
            2 => 4.0 * (n * p).sqrt(),
            3 => 6.0 * (n * n * p).cbrt(),
            _ => 2.0 * D as f64 * n.powf((D as f64 - 1.0) / D as f64) * p.powf(1.0 / D as f64),
        };
        // Neither bound can exceed the level itself.
        worst += (boundary + cut_surface).min(cells as f64) * mult;
    }
    (worst / workload).clamp(0.0, 1.0)
}

/// Ab-initio load-imbalance penalty `β_l ∈ [0, 1]` for a run on `p_ref`
/// processors: how close the heaviest `unit`-sized workload column comes
/// to (twice) the ideal per-processor share.
pub fn beta_l<const D: usize>(h: &GridHierarchy<D>, unit: i64, p_ref: usize) -> f64 {
    let weights = unit_workloads(h, unit);
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let w_max = *weights.iter().max().unwrap() as f64;
    let ideal = total as f64 / p_ref as f64;
    (w_max / (2.0 * ideal)).clamp(0.0, 1.0)
}

/// Dimension-1 coordinate: 0 → all pressure on communication, 1 → all
/// pressure on load balance, 0.5 → neither dominates.
pub fn dimension1(beta_l: f64, beta_c: f64) -> f64 {
    let s = beta_l + beta_c;
    if s <= 0.0 {
        0.5
    } else {
        (beta_l / s).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn beta_c_unrefined_grid_matches_closed_form() {
        // 64x64 base: boundary 252, cut surface 4·√(4096·16) = 1024.
        let h = GridHierarchy::base_only(Rect2::from_extents(64, 64), 2);
        let v = beta_c(&h, 16);
        let expected = (252.0 + 4.0 * (4096.0f64 * 16.0).sqrt()) / 4096.0;
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn beta_c_rises_when_grid_shrinks_at_fixed_p() {
        // The √(N·P)/N cut-surface scaling: smaller grids cost relatively
        // more communication on the same processor count.
        let big = GridHierarchy::base_only(Rect2::from_extents(128, 128), 2);
        let small = GridHierarchy::base_only(Rect2::from_extents(32, 32), 2);
        assert!(beta_c(&small, 16) > beta_c(&big, 16) + 0.05);
    }

    #[test]
    fn beta_c_grows_with_processor_count() {
        let h = GridHierarchy::base_only(Rect2::from_extents(64, 64), 2);
        assert!(beta_c(&h, 64) > beta_c(&h, 16));
        assert!(beta_c(&h, 16) > beta_c(&h, 4));
    }

    #[test]
    fn beta_c_jumps_for_fragmented_refinement() {
        // Many small patches => high surface/volume => aggressive β_c.
        let compact = GridHierarchy::from_level_rects(
            Rect2::from_extents(32, 32),
            2,
            &[vec![], vec![r(0, 0, 31, 31)]],
        );
        let mut tiles = Vec::new();
        for ty in 0..8 {
            for tx in 0..8 {
                if (tx + ty) % 2 == 0 {
                    tiles.push(r(tx * 8, ty * 8, tx * 8 + 3, ty * 8 + 3));
                }
            }
        }
        let fragmented =
            GridHierarchy::from_level_rects(Rect2::from_extents(32, 32), 2, &[vec![], tiles]);
        assert!(beta_c(&fragmented, 16) > beta_c(&compact, 16) + 0.1);
    }

    #[test]
    fn beta_c_thin_patches_saturate_their_level() {
        // 2-wide patches are all boundary: the level contributes its whole
        // workload (the min(., cells) clamp).
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(32, 32),
            2,
            &[vec![], vec![r(0, 0, 63, 1)]],
        );
        let w = h.workload() as f64;
        // Base 32x32: boundary 124 + cut 4·√(1024·16) = 512, capped at
        // 1024? 124+512=636 < 1024. Level 1: 128 cells, all boundary,
        // clamped at 128, twice per coarse step.
        let expected = ((636 + 128 * 2) as f64 / w).min(1.0);
        assert!((beta_c(&h, 16) - expected).abs() < 1e-9);
    }

    #[test]
    fn beta_l_flat_grid_is_small() {
        // Uniform 32x32 base over 16 procs: one 2x2 unit carries 4 of
        // 1024 cells; ideal share is 64 => β_l = 4/(2·64) = 1/32.
        let flat = GridHierarchy::base_only(Rect2::from_extents(32, 32), 2);
        let v = beta_l(&flat, 2, 16);
        assert!((v - 4.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn beta_l_detects_intractable_deep_pyramids() {
        // §3.1: small base grid + many processors + deep localized
        // refinement. The heaviest 2x2 column carries the whole pyramid.
        let pyramid = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[
                vec![],
                vec![r(0, 0, 7, 7)],
                vec![r(0, 0, 15, 15)],
                vec![r(0, 0, 31, 31)],
            ],
        );
        let v = beta_l(&pyramid, 2, 32);
        assert!(v > 0.5, "deep pyramid on 32 procs: β_l = {v}");
        // The same hierarchy on 2 processors is unproblematic.
        let easy = beta_l(&pyramid, 2, 2);
        assert!(easy < v / 4.0, "2 procs: β_l = {easy}");
    }

    #[test]
    fn beta_l_grows_with_processor_count() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(32, 32),
            2,
            &[vec![], vec![r(0, 0, 15, 15)], vec![r(0, 0, 15, 15)]],
        );
        assert!(beta_l(&h, 2, 64) > beta_l(&h, 2, 16));
        assert!(beta_l(&h, 2, 16) > beta_l(&h, 2, 4));
    }

    #[test]
    fn dimension1_weighs_the_pair() {
        assert_eq!(dimension1(0.0, 0.0), 0.5);
        assert!(dimension1(0.8, 0.1) > 0.8);
        assert!(dimension1(0.1, 0.8) < 0.2);
        assert!((dimension1(0.3, 0.3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn penalties_stay_in_range_for_deep_hierarchies() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[
                vec![],
                vec![r(0, 0, 31, 31)],
                vec![r(0, 0, 63, 63)],
                vec![r(0, 0, 127, 127)],
                vec![r(0, 0, 255, 255)],
            ],
        );
        let c = beta_c(&h, 16);
        let l = beta_l(&h, 2, 16);
        assert!((0.0..=1.0).contains(&c));
        assert!((0.0..=1.0).contains(&l));
    }
}
