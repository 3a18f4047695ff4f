//! BL2D: the Buckley–Leverett oil–water flow kernel.
//!
//! The paper's BL2D comes from IPARS and models oil–water mixture flow in
//! confined aquifers with discharge/recharge cycles. We solve the
//! Buckley–Leverett saturation equation `s_t + ∇·(v f(s)) = 0` with the
//! classic fractional-flow function `f(s) = s²/(s² + M(1−s)²)` on a
//! quarter five-spot: water is injected at the (0,0) corner well and
//! produced at the (1,1) corner well, with the injection rate *pulsed*
//! periodically (the paper's "discharge/recharge" dynamics). The
//! saturation shock front expands from the injector; the pulsing makes the
//! front alternately steepen and relax, which is what gives BL2D its
//! strongly oscillatory refinement behaviour (Figures 1 and 5).
//!
//! Discretization: conservative dimension-split upwinding. `f` is monotone
//! increasing on `[0,1]`, so upwinding on the sign of the face velocity is
//! the exact Godunov flux.

use crate::kernel::{geometric_threshold, Kernel};
use crate::numerics::{self, clamped};
use crate::oracle::ReferenceKernel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use samr_geom::{Grid2, Point2};

/// Pulsed quarter-five-spot Buckley–Leverett kernel (see module docs).
pub struct Bl2d {
    s: Grid2<f64>,
    s_next: Grid2<f64>,
    vx: Grid2<f64>,
    vy: Grid2<f64>,
    indicator: Grid2<f64>,
    scratch: Grid2<f64>,
    /// One face-flux scratch per band of the substep sweep.
    bands: Vec<FaceScratch>,
    n: i64,
    dt: f64,
    substeps: u32,
    time: f64,
    steps: u32,
    pulse_phase: f64,
    running_max: f64,
}

/// Water/oil mobility ratio in the fractional-flow function.
const MOBILITY: f64 = 0.5;
/// Base injection strength (velocity scale).
const Q0: f64 = 0.16;
/// Relative amplitude of the injection pulsing.
const PULSE_AMP: f64 = 0.6;
/// Pulse period, measured in *coarse steps* (≈10-step oscillation, the
/// cadence visible in the paper's BL2D figures).
const PULSE_PERIOD_STEPS: f64 = 10.0;
/// Total simulated time for a full run of `steps` coarse steps.
const T_FINAL: f64 = 1.1;
/// Radius of the forced-saturation injector region.
const WELL_RADIUS: f64 = 0.07;
/// Velocity cap (regularizes the 1/r well singularity).
const V_CAP: f64 = 1.1;
/// CFL number; the wave speed is `|v|·max f'`.
const CFL: f64 = 0.35;

/// The Buckley–Leverett fractional-flow function.
#[inline]
pub fn fractional_flow(s: f64) -> f64 {
    let s = s.clamp(0.0, 1.0);
    let a = s * s;
    let b = MOBILITY * (1.0 - s) * (1.0 - s);
    a / (a + b)
}

/// Godunov upwind flux across a face with cell velocities `vl`, `vr`
/// and fractional flows `fl`, `fr` on either side: the face velocity is
/// their average, and its sign picks the upwind side.
#[inline]
fn upwind_flux(vl: f64, vr: f64, fl: f64, fr: f64) -> f64 {
    let v = 0.5 * (vl + vr);
    if v >= 0.0 {
        v * fl
    } else {
        v * fr
    }
}

/// One band's scratch for the face-flux row sweep, all `O(nx)`: the
/// fractional flow of the current row and the row above, the `nx + 1`
/// x faces of the current row, and its y faces below and above.
struct FaceScratch {
    ff_cur: Vec<f64>,
    ff_above: Vec<f64>,
    xf: Vec<f64>,
    yf_below: Vec<f64>,
    yf_above: Vec<f64>,
}

impl FaceScratch {
    fn new(nx: usize) -> Self {
        Self {
            ff_cur: vec![0.0; nx],
            ff_above: vec![0.0; nx],
            xf: vec![0.0; nx + 1],
            yf_below: vec![0.0; nx],
            yf_above: vec![0.0; nx],
        }
    }
}

/// Upper bound of `f'(s)` on [0,1] for the CFL estimate (numerically
/// scanned once; conservative).
fn max_flux_derivative() -> f64 {
    let mut m: f64 = 0.0;
    for i in 0..512 {
        let s = i as f64 / 511.0;
        let h = 1e-5;
        let d = (fractional_flow(s + h) - fractional_flow(s - h)) / (2.0 * h);
        m = m.max(d.abs());
    }
    m
}

impl Bl2d {
    /// Create the kernel on an `n x n` reference grid sized for `steps`
    /// coarse steps; `seed` perturbs the pulse phase.
    pub fn new(n: i64, steps: u32, seed: u64) -> Self {
        assert!(n >= 8 && steps >= 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb12d_0000);
        let pulse_phase: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let dx = 1.0 / n as f64;

        // Quarter-five-spot potential flow: source at (0,0), sink at
        // (1,1), with image symmetry ignored (the near-well radial field
        // dominates the front dynamics). Velocities capped near wells.
        let well = |ux: f64, uy: f64, wx: f64, wy: f64, sign: f64| -> (f64, f64) {
            let (rx, ry) = (ux - wx, uy - wy);
            let r2 = (rx * rx + ry * ry).max(1e-9);
            let mag = (1.0 / (2.0 * std::f64::consts::PI * r2.sqrt())).min(V_CAP / Q0);
            (sign * mag * rx / r2.sqrt(), sign * mag * ry / r2.sqrt())
        };
        let mut vx = numerics::zeros(n, n);
        let mut vy = numerics::zeros(n, n);
        numerics::par_rows(&mut vx, |x, y| {
            let (ux, uy) = ((x as f64 + 0.5) * dx, (y as f64 + 0.5) * dx);
            let (sx, _) = well(ux, uy, 0.0, 0.0, 1.0);
            let (kx, _) = well(ux, uy, 1.0, 1.0, -1.0);
            Q0 * (sx + kx)
        });
        numerics::par_rows(&mut vy, |x, y| {
            let (ux, uy) = ((x as f64 + 0.5) * dx, (y as f64 + 0.5) * dx);
            let (_, sy) = well(ux, uy, 0.0, 0.0, 1.0);
            let (_, ky) = well(ux, uy, 1.0, 1.0, -1.0);
            Q0 * (sy + ky)
        });

        let coarse_dt = T_FINAL / steps as f64;
        let vmax = V_CAP * (1.0 + PULSE_AMP);
        let dt_max = CFL * dx / (vmax * max_flux_derivative());
        let substeps = (coarse_dt / dt_max).ceil().max(1.0) as u32;
        let dt = coarse_dt / substeps as f64;

        let s = numerics::zeros(n, n);
        let mut k = Self {
            s_next: s.clone(),
            scratch: s.clone(),
            indicator: numerics::zeros(n, n),
            s,
            vx,
            vy,
            bands: Vec::new(),
            n,
            dt,
            substeps,
            time: 0.0,
            steps,
            pulse_phase,
            running_max: 0.0,
        };
        k.set_bands(numerics::sweep_bands(n));
        k.force_injector();
        k.refresh_indicator();
        k
    }

    /// Split the substep sweep into `bands` row bands (any count gives
    /// the same result; allocates the per-band face scratch).
    fn set_bands(&mut self, bands: usize) {
        let nx = self.n as usize;
        self.bands = (0..bands.max(1)).map(|_| FaceScratch::new(nx)).collect();
    }

    /// One substep as a face-flux row sweep: each cell's fractional flow
    /// and each face's upwind flux are computed once. Faces on the walls
    /// use the clamped (zero-gradient) neighbour, as
    /// [`numerics::clamped`] does; a band recomputes the y face below
    /// its first row.
    fn sweep(&mut self, lam: f64) {
        let (s, vx, vy) = (&self.s, &self.vx, &self.vy);
        let nx = self.n as usize;
        let last = self.n - 1;
        let ff_row = |y: i64, out: &mut [f64]| {
            for (f, &v) in out.iter_mut().zip(s.row(y)) {
                *f = fractional_flow(v);
            }
        };
        // y faces between rows `a` and `b` (clamped indices).
        let y_faces = |a: i64, b: i64, fa: &[f64], fb: &[f64], out: &mut [f64]| {
            let (va, vb) = (vy.row(a), vy.row(b));
            for i in 0..out.len() {
                out[i] = upwind_flux(va[i], vb[i], fa[i], fb[i]);
            }
        };
        numerics::par_bands(
            [self.s_next.data_mut()],
            nx,
            &mut self.bands,
            |y0, [out], sc| {
                let y0 = y0 as i64;
                let below = (y0 - 1).max(0);
                ff_row(below, &mut sc.ff_above);
                ff_row(y0, &mut sc.ff_cur);
                y_faces(below, y0, &sc.ff_above, &sc.ff_cur, &mut sc.yf_below);
                for (r, orow) in out.chunks_mut(nx).enumerate() {
                    let y = y0 + r as i64;
                    let above = (y + 1).min(last);
                    ff_row(above, &mut sc.ff_above);
                    y_faces(y, above, &sc.ff_cur, &sc.ff_above, &mut sc.yf_above);

                    let (v, f) = (vx.row(y), &sc.ff_cur);
                    sc.xf[0] = upwind_flux(v[0], v[0], f[0], f[0]);
                    for i in 1..nx {
                        sc.xf[i] = upwind_flux(v[i - 1], v[i], f[i - 1], f[i]);
                    }
                    sc.xf[nx] = upwind_flux(v[nx - 1], v[nx - 1], f[nx - 1], f[nx - 1]);

                    let srow = s.row(y);
                    for i in 0..nx {
                        let div = (sc.xf[i + 1] - sc.xf[i]) + (sc.yf_above[i] - sc.yf_below[i]);
                        orow[i] = (srow[i] - lam * div).clamp(0.0, 1.0);
                    }
                    std::mem::swap(&mut sc.ff_cur, &mut sc.ff_above);
                    std::mem::swap(&mut sc.yf_below, &mut sc.yf_above);
                }
            },
        );
    }

    /// The retained per-cell stencil: both faces of each axis through
    /// clamped point reads per cell. The bit-identity oracle of
    /// [`Bl2d::sweep`].
    fn sweep_reference(&mut self, lam: f64) {
        let (s, vx, vy) = (&self.s, &self.vx, &self.vy);
        let d = s.domain();
        for y in d.lo().y..=d.hi().y {
            for x in d.lo().x..=d.hi().x {
                // Face velocities (averaged), Godunov upwind on sign.
                let flux_x = |i: i64| -> f64 {
                    let v = 0.5 * (clamped(vx, i, y) + clamped(vx, i + 1, y));
                    if v >= 0.0 {
                        v * fractional_flow(clamped(s, i, y))
                    } else {
                        v * fractional_flow(clamped(s, i + 1, y))
                    }
                };
                let flux_y = |j: i64| -> f64 {
                    let v = 0.5 * (clamped(vy, x, j) + clamped(vy, x, j + 1));
                    if v >= 0.0 {
                        v * fractional_flow(clamped(s, x, j))
                    } else {
                        v * fractional_flow(clamped(s, x, j + 1))
                    }
                };
                let div = (flux_x(x) - flux_x(x - 1)) + (flux_y(y) - flux_y(y - 1));
                self.s_next.set(
                    Point2::new(x, y),
                    (clamped(s, x, y) - lam * div).clamp(0.0, 1.0),
                );
            }
        }
    }

    /// Advance one coarse step, running each substep through `sweep`.
    fn advance_with(&mut self, sweep: fn(&mut Self, f64)) {
        let dx = 1.0 / self.n as f64;
        for _ in 0..self.substeps {
            let lam = self.dt / dx * self.pulse();
            sweep(self, lam);
            std::mem::swap(&mut self.s, &mut self.s_next);
            self.force_injector();
            self.time += self.dt;
        }
        self.refresh_indicator();
    }

    /// Injection pulse factor at the current time.
    fn pulse(&self) -> f64 {
        let coarse_dt = T_FINAL / self.steps as f64;
        let period = PULSE_PERIOD_STEPS * coarse_dt;
        1.0 + PULSE_AMP * (std::f64::consts::TAU * self.time / period + self.pulse_phase).sin()
    }

    /// Force s = 1 inside the injector well.
    fn force_injector(&mut self) {
        let dx = 1.0 / self.n as f64;
        let d = self.s.domain();
        let rad_cells = (WELL_RADIUS / dx).ceil() as i64;
        for y in d.lo().y..=(d.lo().y + rad_cells).min(d.hi().y) {
            for x in d.lo().x..=(d.lo().x + rad_cells).min(d.hi().x) {
                let (ux, uy) = ((x as f64 + 0.5) * dx, (y as f64 + 0.5) * dx);
                if ux * ux + uy * uy <= WELL_RADIUS * WELL_RADIUS {
                    self.s.set(Point2::new(x, y), 1.0);
                }
            }
        }
    }

    fn refresh_indicator(&mut self) {
        numerics::gradient_magnitude(&self.s, &mut self.scratch);
        std::mem::swap(&mut self.indicator, &mut self.scratch);
        numerics::normalize_max(&mut self.indicator);
        self.running_max = self.indicator.max_abs();
    }

    /// Saturation field (for tests and demos).
    pub fn saturation(&self) -> &Grid2<f64> {
        &self.s
    }
}

impl Kernel for Bl2d {
    fn name(&self) -> &'static str {
        "BL2D"
    }

    fn description(&self) -> String {
        format!(
            "Buckley-Leverett oil-water flow, pulsed quarter five-spot, {}x{} reference grid",
            self.n, self.n
        )
    }

    fn advance_coarse_step(&mut self) {
        self.advance_with(Self::sweep);
    }

    fn time(&self) -> f64 {
        self.time
    }

    fn indicator_field(&self) -> &Grid2<f64> {
        &self.indicator
    }

    fn threshold(&self, level: usize) -> f64 {
        geometric_threshold(0.10, 1.8, level)
    }
}

impl ReferenceKernel for Bl2d {
    fn advance_coarse_step_reference(&mut self) {
        self.advance_with(Self::sweep_reference);
    }

    fn set_sweep_bands(&mut self, bands: usize) {
        self.set_bands(bands);
    }

    fn state_fields(&self) -> Vec<&Grid2<f64>> {
        vec![&self.s, &self.indicator]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Bl2d {
        Bl2d::new(48, 20, 11)
    }

    #[test]
    fn fractional_flow_is_monotone_s_shaped() {
        assert_eq!(fractional_flow(0.0), 0.0);
        assert_eq!(fractional_flow(1.0), 1.0);
        let mut prev = 0.0;
        for i in 1..=100 {
            let v = fractional_flow(i as f64 / 100.0);
            assert!(v >= prev, "f must be monotone");
            prev = v;
        }
        // Convex-concave: f(0.5) computed directly.
        let expected = 0.25 / (0.25 + MOBILITY * 0.25);
        assert!((fractional_flow(0.5) - expected).abs() < 1e-12);
    }

    #[test]
    fn saturation_stays_in_unit_interval() {
        let mut k = kernel();
        for _ in 0..4 {
            k.advance_coarse_step();
        }
        for &v in k.s.data() {
            assert!((0.0..=1.0).contains(&v), "saturation {v} out of range");
        }
    }

    #[test]
    fn front_expands_from_injector() {
        let mut k = kernel();
        let mass0 = k.s.sum();
        let wet0 = k.s.data().iter().filter(|&&v| v > 0.01).count();
        for _ in 0..5 {
            k.advance_coarse_step();
        }
        let mass1 = k.s.sum();
        let wet1 = k.s.data().iter().filter(|&&v| v > 0.01).count();
        assert!(
            mass1 > mass0 * 1.2,
            "injected water must spread: {mass0} -> {mass1}"
        );
        // The wetted area (cells reached by water) must grow well beyond
        // the forced injector disk.
        assert!(wet1 > wet0 * 2, "front did not expand: {wet0} -> {wet1}");
    }

    #[test]
    fn pulse_oscillates_around_unity() {
        let mut k = kernel();
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..20 {
            lo = lo.min(k.pulse());
            hi = hi.max(k.pulse());
            k.advance_coarse_step();
        }
        assert!(hi > 1.2 && lo < 0.8, "pulse range [{lo}, {hi}] too flat");
    }

    #[test]
    fn indicator_tracks_the_front() {
        let mut k = kernel();
        for _ in 0..4 {
            k.advance_coarse_step();
        }
        // The strongest gradient must lie outside the well (on the front).
        let ind = k.indicator_field();
        assert!(ind.max_abs() > 0.99);
        // Indicator at the far corner (undisturbed oil) is ~0.
        assert!(k.indicator(0.95, 0.95) < 0.05);
    }

    /// A 20x20 grid with a wavy saturation field and a velocity field
    /// whose face averages take both signs on both axes, so every face
    /// picks each upwind side somewhere; the injector corner is forced
    /// after every substep.
    fn seeded() -> Bl2d {
        let mut k = Bl2d::new(20, 40, 4);
        let d = k.s.domain();
        k.vx = Grid2::from_fn(d, |p| 0.8 * (0.7 * p.x as f64 + 1.3 * p.y as f64).sin());
        k.vy = Grid2::from_fn(d, |p| 0.8 * (0.9 * p.x as f64 - 0.5 * p.y as f64).cos());
        k.s = Grid2::from_fn(d, |p| 0.5 + 0.5 * (0.4 * p.x as f64 * p.y as f64).sin());
        k.force_injector();
        k
    }

    #[test]
    fn face_flux_sweep_matches_the_per_cell_reference_bit_for_bit() {
        let k = seeded();
        for v in [&k.vx, &k.vy] {
            assert!(v.data().iter().any(|&a| a > 0.0) && v.data().iter().any(|&a| a < 0.0));
        }
        assert_eq!(*k.s.get(Point2::new(0, 0)), 1.0, "injector forced");
        let make = || Box::new(seeded()) as Box<dyn ReferenceKernel>;
        crate::oracle::assert_sweeps_match(make, &[1, 2, 3], 3, "BL2D");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Bl2d::new(32, 10, 5);
        let mut b = Bl2d::new(32, 10, 5);
        a.advance_coarse_step();
        b.advance_coarse_step();
        assert_eq!(a.s.data(), b.s.data());
    }
}
