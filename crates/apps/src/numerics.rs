//! Shared numerics for the reference solvers: clamped stencil access,
//! gradient indicators, bilinear sampling and deterministic data-parallel
//! row and row-band sweeps.

use samr_geom::{Grid2, Point2, Rect2};
use std::sync::OnceLock;

/// Hardware thread count, probed once per process. The row sweeps run
/// once per field per time step, and `available_parallelism` is a
/// syscall on most platforms — not something to pay in a hot loop.
fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Read a cell with coordinates clamped to the domain (zero-gradient /
/// outflow extrapolation at walls).
#[inline]
pub fn clamped(g: &Grid2<f64>, x: i64, y: i64) -> f64 {
    let d = g.domain();
    let cx = x.clamp(d.lo().x, d.hi().x);
    let cy = y.clamp(d.lo().y, d.hi().y);
    *g.get(Point2::new(cx, cy))
}

/// Read a cell with the y coordinate wrapped periodically and x clamped
/// (channel topology used by RM2D).
#[inline]
pub fn periodic_y(g: &Grid2<f64>, x: i64, y: i64) -> f64 {
    let d = g.domain();
    let ny = d.extent().y;
    let cy = d.lo().y + (y - d.lo().y).rem_euclid(ny);
    let cx = x.clamp(d.lo().x, d.hi().x);
    *g.get(Point2::new(cx, cy))
}

/// Central-difference gradient magnitude of `g`, written into `out`
/// (both over the same domain). Units: per cell width.
///
/// One row-slice pass: the three stencil rows (y-1, y, y+1, clamped)
/// are fetched once per row and every cell is a handful of slice reads
/// instead of four `clamped` point lookups — same cells, same
/// operations, bit-identical results.
pub fn gradient_magnitude(g: &Grid2<f64>, out: &mut Grid2<f64>) {
    let d = g.domain();
    assert_eq!(d, out.domain());
    let nx = d.extent().x as usize;
    for y in d.lo().y..=d.hi().y {
        let cur = g.row(y);
        let up = g.row((y + 1).min(d.hi().y));
        let down = g.row((y - 1).max(d.lo().y));
        let row_out = out.row_mut(y);
        for i in 0..nx {
            let gx = 0.5 * (cur[(i + 1).min(nx - 1)] - cur[i.saturating_sub(1)]);
            let gy = 0.5 * (up[i] - down[i]);
            row_out[i] = (gx * gx + gy * gy).sqrt();
        }
    }
}

/// Normalize `g` in place to `[0, 1]` by its maximum absolute value; an
/// all-zero field stays zero. Returns the maximum used.
pub fn normalize_max(g: &mut Grid2<f64>) -> f64 {
    let m = g.max_abs();
    if m > 0.0 {
        let inv = 1.0 / m;
        for v in g.data_mut() {
            *v *= inv;
        }
    }
    m
}

/// Bilinear sample of a cell-centered grid at *unit-square* coordinates
/// `(u, v) ∈ [0,1]²` mapped over the grid's domain. Values outside are
/// clamped.
pub fn sample_unit(g: &Grid2<f64>, u: f64, v: f64) -> f64 {
    let d = g.domain();
    let nx = d.extent().x as f64;
    let ny = d.extent().y as f64;
    // Cell centers sit at (i + 0.5) / n in unit coordinates.
    let fx = (u * nx - 0.5).clamp(0.0, nx - 1.0);
    let fy = (v * ny - 0.5).clamp(0.0, ny - 1.0);
    let x0 = fx.floor();
    let y0 = fy.floor();
    let tx = fx - x0;
    let ty = fy - y0;
    let (x0, y0) = (d.lo().x + x0 as i64, d.lo().y + y0 as i64);
    let s00 = clamped(g, x0, y0);
    let s10 = clamped(g, x0 + 1, y0);
    let s01 = clamped(g, x0, y0 + 1);
    let s11 = clamped(g, x0 + 1, y0 + 1);
    s00 * (1.0 - tx) * (1.0 - ty) + s10 * tx * (1.0 - ty) + s01 * (1.0 - tx) * ty + s11 * tx * ty
}

/// Deterministic data-parallel row sweep: compute `f(x, y)` for every cell
/// of `domain` into `out`, with rows distributed over threads in
/// contiguous bands (`par_bands` with `sweep_bands` bands). The
/// result is identical for any thread count because `f` is a pure
/// per-cell function and each thread writes a disjoint band.
pub fn par_rows(out: &mut Grid2<f64>, f: impl Fn(i64, i64) -> f64 + Sync) {
    let domain = out.domain();
    let (lo, nx) = (domain.lo(), domain.extent().x as usize);
    let mut bands = vec![(); sweep_bands(domain.extent().y)];
    par_bands([out.data_mut()], nx, &mut bands, |y0, [band], ()| {
        for (r, row) in band.chunks_mut(nx).enumerate() {
            let y = lo.y + (y0 + r) as i64;
            for (i, v) in row.iter_mut().enumerate() {
                *v = f(lo.x + i as i64, y);
            }
        }
    });
}

/// Allocate a zero field over `[0,nx-1] x [0,ny-1]`.
pub fn zeros(nx: i64, ny: i64) -> Grid2<f64> {
    Grid2::new(Rect2::from_extents(nx, ny), 0.0)
}

/// Number of row bands a solver sweep over `ny` rows is split into: one
/// per hardware thread (at most 8), or a single band on one-CPU hosts and
/// for grids too small to be worth a thread spawn. Kernels size their
/// per-band scratch with it once, at construction.
pub(crate) fn sweep_bands(ny: i64) -> usize {
    let ny = ny.max(1) as usize;
    let threads = hardware_threads().min(ny).min(8);
    if threads <= 1 || ny < 32 {
        1
    } else {
        threads
    }
}

/// Deterministic banded row sweep for the solvers: the rows of the `N`
/// output fields (each `nx` wide, row-major from row 0) are split into
/// `scratch.len()` contiguous bands of `ceil(ny / bands)` rows, and
/// `f(first_row, band_rows, scratch)` fills one band. With more than one
/// band, the bands run on scoped threads (one scope per call). Each band
/// writes only its own rows and owns its scratch, so the result is
/// identical for any band count as long as `f` computes every row from
/// read-only inputs — a band recomputes whatever it needs at its edges.
pub(crate) fn par_bands<const N: usize, S: Send>(
    outs: [&mut [f64]; N],
    nx: usize,
    scratch: &mut [S],
    f: impl Fn(usize, [&mut [f64]; N], &mut S) + Sync,
) {
    assert!(N >= 1 && nx >= 1 && !scratch.is_empty());
    let ny = outs[0].len() / nx;
    for o in &outs {
        assert_eq!(o.len(), ny * nx, "all output fields must share a shape");
    }
    let rows_per = ny.div_ceil(scratch.len()).max(1);
    let used = ny.div_ceil(rows_per);
    let mut chunks = outs.map(|o| o.chunks_mut(rows_per * nx));
    let mut bands = scratch.iter_mut().take(used).enumerate().map(|(b, s)| {
        let rows = chunks
            .each_mut()
            .map(|c| c.next().expect("fields share a shape"));
        (b * rows_per, rows, s)
    });
    if used <= 1 {
        if let Some((y0, rows, s)) = bands.next() {
            f(y0, rows, s);
        }
        return;
    }
    let f = &f;
    std::thread::scope(|sc| {
        let first = bands.next();
        for (y0, rows, s) in bands {
            sc.spawn(move || f(y0, rows, s));
        }
        if let Some((y0, rows, s)) = first {
            f(y0, rows, s);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamped_extends_edges() {
        let g = Grid2::from_fn(Rect2::from_extents(3, 3), |p| (p.x + 10 * p.y) as f64);
        assert_eq!(clamped(&g, -5, 0), 0.0);
        assert_eq!(clamped(&g, 5, 2), 22.0);
        assert_eq!(clamped(&g, 1, -1), 1.0);
    }

    #[test]
    fn periodic_y_wraps() {
        let g = Grid2::from_fn(Rect2::from_extents(2, 4), |p| p.y as f64);
        assert_eq!(periodic_y(&g, 0, 4), 0.0);
        assert_eq!(periodic_y(&g, 0, -1), 3.0);
        assert_eq!(periodic_y(&g, 0, 7), 3.0);
        assert_eq!(periodic_y(&g, -3, 2), 2.0); // x clamps
    }

    #[test]
    fn gradient_of_linear_ramp_is_constant() {
        let g = Grid2::from_fn(Rect2::from_extents(8, 8), |p| 3.0 * p.x as f64);
        let mut out = zeros(8, 8);
        gradient_magnitude(&g, &mut out);
        // Interior cells see the exact slope 3; edges see half (clamped).
        assert!((out.get(Point2::new(4, 4)) - 3.0).abs() < 1e-12);
        assert!((out.get(Point2::new(0, 4)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_max_scales_to_unit() {
        let mut g = Grid2::from_fn(Rect2::from_extents(4, 4), |p| -(p.x as f64));
        let m = normalize_max(&mut g);
        assert_eq!(m, 3.0);
        assert_eq!(g.max_abs(), 1.0);
        let mut z = zeros(4, 4);
        assert_eq!(normalize_max(&mut z), 0.0);
    }

    #[test]
    fn sample_unit_reproduces_cell_centers() {
        let g = Grid2::from_fn(Rect2::from_extents(4, 4), |p| p.x as f64);
        // Center of cell (2, y) is at u = 2.5/4.
        let v = sample_unit(&g, 2.5 / 4.0, 0.5);
        assert!((v - 2.0).abs() < 1e-12);
        // Halfway between cells 1 and 2.
        let v = sample_unit(&g, 2.0 / 4.0, 0.5);
        assert!((v - 1.5).abs() < 1e-12);
        // Clamped outside.
        assert!((sample_unit(&g, -1.0, 0.5) - 0.0).abs() < 1e-12);
        assert!((sample_unit(&g, 2.0, 0.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn par_rows_matches_serial() {
        let mut par = zeros(64, 64);
        par_rows(&mut par, |x, y| (x * 31 + y * 17) as f64 * 0.25);
        let ser = Grid2::from_fn(Rect2::from_extents(64, 64), |p| {
            (p.x * 31 + p.y * 17) as f64 * 0.25
        });
        assert_eq!(par, ser);
    }

    #[test]
    fn par_rows_small_grid_serial_path() {
        let mut g = zeros(4, 4);
        par_rows(&mut g, |x, y| (x + y) as f64);
        assert_eq!(*g.get(Point2::new(3, 3)), 6.0);
    }

    #[test]
    fn par_bands_is_identical_for_any_band_count() {
        // Each cell is a pure function of its coordinates; every band
        // count (including uneven splits and more bands than rows) must
        // fill every cell exactly once.
        let (nx, ny) = (7usize, 11usize);
        let fill = |bands: usize| {
            let mut a = vec![0.0; nx * ny];
            let mut b = vec![0.0; nx * ny];
            let mut scratch = vec![0usize; bands];
            par_bands([&mut a, &mut b], nx, &mut scratch, |y0, [ra, rb], seen| {
                for (r, (row_a, row_b)) in ra.chunks_mut(nx).zip(rb.chunks_mut(nx)).enumerate() {
                    *seen += 1;
                    for (i, (va, vb)) in row_a.iter_mut().zip(row_b.iter_mut()).enumerate() {
                        *va = ((y0 + r) * 100 + i) as f64;
                        *vb = -*va;
                    }
                }
            });
            assert_eq!(scratch.iter().sum::<usize>(), ny, "every row swept once");
            (a, b)
        };
        let serial = fill(1);
        for bands in [2, 3, 4, 11, 16] {
            assert_eq!(fill(bands), serial, "{bands} bands");
        }
        assert_eq!(serial.0[3 * nx + 5], 305.0);
    }

    #[test]
    fn sweep_bands_is_serial_for_small_grids() {
        assert_eq!(sweep_bands(8), 1);
        assert!((1..=8).contains(&sweep_bands(4096)));
    }
}
