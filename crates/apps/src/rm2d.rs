//! RM2D: the Richtmyer–Meshkov compressible-turbulence kernel.
//!
//! The paper's RM2D comes from the Caltech VTF and solves the
//! Richtmyer–Meshkov instability: "a fingering instability which occurs at
//! a material interface accelerated by a shock wave". We solve the 2-D
//! compressible Euler equations with a first-order Rusanov (local
//! Lax–Friedrichs) finite-volume scheme in a 2:1 shock tube: a Mach-1.5
//! shock travels through light fluid into a sinusoidally perturbed
//! interface with a 3× heavier fluid, deposits vorticity (the RM
//! mechanism), reflects off the right wall and *reshocks* the interface.
//! The growing fingers and the reshock produce irregular, random-looking
//! refinement dynamics — the behaviour the paper reports for RM2D
//! (Figure 4).

use crate::kernel::{geometric_threshold, Kernel};
use crate::numerics;
use crate::oracle::ReferenceKernel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use samr_geom::{Grid2, Point2};

/// Ratio of specific heats.
const GAMMA: f64 = 1.4;
/// Incident shock Mach number.
const MACH: f64 = 1.5;
/// Heavy/light density ratio across the interface.
const DENSITY_RATIO: f64 = 3.0;
/// Initial shock position.
const X_SHOCK: f64 = 0.4;
/// Mean initial interface position.
const X_INTERFACE: f64 = 0.9;
/// Physical domain: `[0, 2] x [0, 1]`.
const LX: f64 = 2.0;
/// Total simulated time (incident shock + reshock + mixing).
const T_FINAL: f64 = 2.0;
/// Assumed bound on `|u| + c` for the fixed time step.
const SMAX_BOUND: f64 = 4.0;
/// CFL number.
const CFL: f64 = 0.4;
/// Density floor.
const RHO_FLOOR: f64 = 1e-6;
/// Pressure floor.
const P_FLOOR: f64 = 1e-8;

/// Conserved state vector: `(ρ, ρu, ρv, E)`.
type State = [f64; 4];

#[inline]
fn pressure(s: &State) -> f64 {
    let [rho, mx, my, e] = *s;
    ((GAMMA - 1.0) * (e - 0.5 * (mx * mx + my * my) / rho)).max(P_FLOOR)
}

#[inline]
fn sound_speed(s: &State) -> f64 {
    (GAMMA * pressure(s) / s[0]).sqrt()
}

/// Physical flux along axis 0 (x) or 1 (y).
#[inline]
fn flux(s: &State, axis: usize) -> State {
    let [rho, mx, my, e] = *s;
    let p = pressure(s);
    match axis {
        0 => {
            let u = mx / rho;
            [mx, mx * u + p, my * u, (e + p) * u]
        }
        _ => {
            let v = my / rho;
            [my, mx * v, my * v + p, (e + p) * v]
        }
    }
}

/// Rusanov numerical flux between `l` and `r` along `axis`.
#[inline]
fn rusanov(l: &State, r: &State, axis: usize) -> State {
    let fl = flux(l, axis);
    let fr = flux(r, axis);
    let vl = (l[1 + axis] / l[0]).abs() + sound_speed(l);
    let vr = (r[1 + axis] / r[0]).abs() + sound_speed(r);
    let smax = vl.max(vr);
    [
        0.5 * (fl[0] + fr[0]) - 0.5 * smax * (r[0] - l[0]),
        0.5 * (fl[1] + fr[1]) - 0.5 * smax * (r[1] - l[1]),
        0.5 * (fl[2] + fr[2]) - 0.5 * smax * (r[2] - l[2]),
        0.5 * (fl[3] + fr[3]) - 0.5 * smax * (r[3] - l[3]),
    ]
}

/// Everything one cell contributes to its faces: its state, its physical
/// x and y fluxes, and its wave speeds `|u|+c` and `|v|+c`. Computed once
/// per cell per substep with exactly the operations `flux` and
/// `rusanov` apply, so faces built from it are bit-identical to
/// [`rusanov`] on the same two states.
#[derive(Clone, Copy, Default)]
struct CellTerms {
    s: State,
    fx: State,
    fy: State,
    ax: f64,
    ay: f64,
}

impl CellTerms {
    #[inline]
    fn new(s: State) -> Self {
        let [rho, mx, my, e] = s;
        let p = pressure(&s);
        let u = mx / rho;
        let v = my / rho;
        let c = (GAMMA * p / rho).sqrt();
        Self {
            s,
            fx: [mx, mx * u + p, my * u, (e + p) * u],
            fy: [my, mx * v, my * v + p, (e + p) * v],
            ax: u.abs() + c,
            ay: v.abs() + c,
        }
    }

    /// The reflective-wall ghost of this cell (x momentum flipped).
    #[inline]
    fn mirror_x(&self) -> Self {
        let [rho, mx, my, e] = self.s;
        Self::new([rho, -mx, my, e])
    }
}

/// Rusanov flux across the face from `l` to `r` along `axis`, from the
/// two cells' terms — the exact expression of [`rusanov`].
#[inline]
fn face_flux(l: &CellTerms, r: &CellTerms, axis: usize) -> State {
    let (fl, fr, smax) = match axis {
        0 => (&l.fx, &r.fx, l.ax.max(r.ax)),
        _ => (&l.fy, &r.fy, l.ay.max(r.ay)),
    };
    let (l, r) = (&l.s, &r.s);
    [
        0.5 * (fl[0] + fr[0]) - 0.5 * smax * (r[0] - l[0]),
        0.5 * (fl[1] + fr[1]) - 0.5 * smax * (r[1] - l[1]),
        0.5 * (fl[2] + fr[2]) - 0.5 * smax * (r[2] - l[2]),
        0.5 * (fl[3] + fr[3]) - 0.5 * smax * (r[3] - l[3]),
    ]
}

/// Conservative update of one cell from its four face fluxes, then the
/// positivity floors.
#[inline]
fn update_cell(c: &State, lam: f64, fxp: &State, fxm: &State, fyp: &State, fym: &State) -> State {
    let mut out = [0.0; 4];
    for k in 0..4 {
        out[k] = c[k] - lam * (fxp[k] - fxm[k] + fyp[k] - fym[k]);
    }
    // Positivity floors.
    out[0] = out[0].max(RHO_FLOOR);
    let ke = 0.5 * (out[1] * out[1] + out[2] * out[2]) / out[0];
    let p = (GAMMA - 1.0) * (out[3] - ke);
    if p < P_FLOOR {
        out[3] = ke + P_FLOOR / (GAMMA - 1.0);
    }
    out
}

/// One band's scratch for the face-flux row sweep, all `O(nx)`: the
/// per-cell terms of the current row and the row above, the y faces
/// below the current row (overwritten in place by the faces above it as
/// the row is swept), and the periodic wrap face kept by a band that
/// spans the whole grid.
struct RowScratch {
    cur: Vec<CellTerms>,
    above: Vec<CellTerms>,
    yf: Vec<State>,
    yf_wrap: Vec<State>,
}

impl RowScratch {
    fn new(nx: usize) -> Self {
        Self {
            cur: vec![CellTerms::default(); nx],
            above: vec![CellTerms::default(); nx],
            yf: vec![[0.0; 4]; nx],
            yf_wrap: vec![[0.0; 4]; nx],
        }
    }
}

/// The four conserved fields of one time level.
struct Conserved {
    rho: Grid2<f64>,
    mx: Grid2<f64>,
    my: Grid2<f64>,
    en: Grid2<f64>,
}

impl Conserved {
    fn zeros(nx: i64, ny: i64) -> Self {
        Self {
            rho: numerics::zeros(nx, ny),
            mx: numerics::zeros(nx, ny),
            my: numerics::zeros(nx, ny),
            en: numerics::zeros(nx, ny),
        }
    }

    /// Fill `out` with the per-cell terms of row `y` (in-domain).
    #[inline]
    fn load_row(&self, y: i64, out: &mut [CellTerms]) {
        let (rho, mx, my, en) = (
            self.rho.row(y),
            self.mx.row(y),
            self.my.row(y),
            self.en.row(y),
        );
        for (i, t) in out.iter_mut().enumerate() {
            *t = CellTerms::new([rho[i], mx[i], my[i], en[i]]);
        }
    }

    /// Face-flux row sweep of one substep over the band of output rows
    /// starting at row `y0` (`outs` holds the band's rows of ρ, ρu, ρv,
    /// E). Every face flux is computed once from the per-cell terms:
    /// the x faces as the row is walked (east face of one cell, west
    /// face of the next), the y faces row by row. The band recomputes
    /// the y face below its first row and above its last, wrapping
    /// periodically, so bands are independent.
    fn sweep_band(&self, lam: f64, y0: usize, outs: [&mut [f64]; 4], sc: &mut RowScratch) {
        let nx = sc.cur.len();
        let ny = self.rho.domain().extent().y;
        let [o_rho, o_mx, o_my, o_en] = outs;
        let rows = o_rho.len() / nx;
        let y0 = y0 as i64;
        let wrap = |y: i64| y.rem_euclid(ny);

        self.load_row(wrap(y0 - 1), &mut sc.above);
        self.load_row(y0, &mut sc.cur);
        for ((f, l), r) in sc.yf.iter_mut().zip(&sc.above).zip(&sc.cur) {
            *f = face_flux(l, r, 1);
        }
        // With one band covering the whole grid, the periodic face below
        // row 0 is also the face above row ny-1: keep it for the end.
        let full = y0 == 0 && rows as i64 == ny;
        if full {
            sc.yf_wrap.copy_from_slice(&sc.yf);
        }
        for r in 0..rows {
            let y = y0 + r as i64;
            let top_wraps = full && y + 1 == ny;
            if !top_wraps {
                self.load_row(wrap(y + 1), &mut sc.above);
            }
            let span = r * nx..(r + 1) * nx;
            let (orho, omx, omy, oen) = (
                &mut o_rho[span.clone()],
                &mut o_mx[span.clone()],
                &mut o_my[span.clone()],
                &mut o_en[span],
            );
            let cur = &sc.cur;
            // Reflective ghosts close both walls.
            let mut west = face_flux(&cur[0].mirror_x(), &cur[0], 0);
            for i in 0..nx {
                let east = match cur.get(i + 1) {
                    Some(next) => face_flux(&cur[i], next, 0),
                    None => face_flux(&cur[i], &cur[i].mirror_x(), 0),
                };
                let north = if top_wraps {
                    sc.yf_wrap[i]
                } else {
                    face_flux(&cur[i], &sc.above[i], 1)
                };
                let out = update_cell(&cur[i].s, lam, &east, &west, &north, &sc.yf[i]);
                orho[i] = out[0];
                omx[i] = out[1];
                omy[i] = out[2];
                oen[i] = out[3];
                sc.yf[i] = north;
                west = east;
            }
            std::mem::swap(&mut sc.cur, &mut sc.above);
        }
    }

    /// Conserved state at `(x, y)` with reflective-x / periodic-y ghost
    /// handling.
    #[inline]
    fn state(&self, nx: i64, ny: i64, x: i64, y: i64) -> State {
        let yy = y.rem_euclid(ny);
        let (xx, flip) = if x < 0 {
            (-1 - x, true)
        } else if x >= nx {
            (2 * nx - 1 - x, true)
        } else {
            (x, false)
        };
        let p = Point2::new(xx, yy);
        let mut s = [
            *self.rho.get(p),
            *self.mx.get(p),
            *self.my.get(p),
            *self.en.get(p),
        ];
        if flip {
            s[1] = -s[1];
        }
        s
    }
}

/// Shock-tube Euler kernel with a perturbed heavy-fluid interface
/// (see module docs).
pub struct Rm2d {
    cur: Conserved,
    next: Conserved,
    indicator: Grid2<f64>,
    scratch: Grid2<f64>,
    /// One row-sweep scratch per band of the substep sweep.
    bands: Vec<RowScratch>,
    nx: i64,
    ny: i64,
    dt: f64,
    substeps: u32,
    time: f64,
}

impl Rm2d {
    /// Create the kernel on a `2n x n` reference grid sized for `steps`
    /// coarse steps; `seed` randomizes the interface perturbation phases.
    pub fn new(ny: i64, steps: u32, seed: u64) -> Self {
        assert!(ny >= 8 && steps >= 1);
        let nx = 2 * ny;
        let dx = LX / nx as f64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2d2d_0000);
        let phi1: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let phi2: f64 = rng.random_range(0.0..std::f64::consts::TAU);

        // Rankine-Hugoniot post-shock state for a Mach-`MACH` shock in the
        // light fluid (rho=1, p=1, u=0).
        let m2 = MACH * MACH;
        let p_post = (2.0 * GAMMA * m2 - (GAMMA - 1.0)) / (GAMMA + 1.0);
        let rho_post = (GAMMA + 1.0) * m2 / ((GAMMA - 1.0) * m2 + 2.0);
        let shock_speed = MACH * GAMMA.sqrt(); // c1 = sqrt(γ·p1/ρ1) = sqrt(γ)
        let u_post = shock_speed * (1.0 - 1.0 / rho_post);

        let interface = move |y: f64| -> f64 {
            X_INTERFACE
                + 0.035 * (std::f64::consts::TAU * 2.0 * y + phi1).sin()
                + 0.018 * (std::f64::consts::TAU * 5.0 * y + phi2).sin()
        };

        let prim_init = move |ux: f64, uy: f64| -> (f64, f64, f64) {
            // (rho, u, p)
            if ux < X_SHOCK {
                (rho_post, u_post, p_post)
            } else {
                // Smooth heavy/light transition over ~1.5 cells.
                let t = 0.5 * (1.0 + ((ux - interface(uy)) / (1.5 * dx)).tanh());
                (1.0 + (DENSITY_RATIO - 1.0) * t, 0.0, 1.0)
            }
        };

        let mut cur = Conserved::zeros(nx, ny);
        for y in 0..ny {
            for x in 0..nx {
                let ux = (x as f64 + 0.5) * dx;
                let uy = (y as f64 + 0.5) * dx;
                let (r, u, p) = prim_init(ux, uy);
                let at = Point2::new(x, y);
                cur.rho.set(at, r);
                cur.mx.set(at, r * u);
                cur.my.set(at, 0.0);
                cur.en.set(at, p / (GAMMA - 1.0) + 0.5 * r * u * u);
            }
        }

        let coarse_dt = T_FINAL / steps as f64;
        let dt_max = CFL * dx / SMAX_BOUND;
        let substeps = (coarse_dt / dt_max).ceil().max(1.0) as u32;
        let dt = coarse_dt / substeps as f64;

        let mut k = Self {
            next: Conserved::zeros(nx, ny),
            indicator: numerics::zeros(nx, ny),
            scratch: numerics::zeros(nx, ny),
            bands: Vec::new(),
            cur,
            nx,
            ny,
            dt,
            substeps,
            time: 0.0,
        };
        k.set_bands(numerics::sweep_bands(ny));
        k.refresh_indicator();
        k
    }

    /// Split the substep sweep into `bands` row bands (any count gives
    /// the same result; allocates the per-band row scratch).
    fn set_bands(&mut self, bands: usize) {
        let nx = self.nx as usize;
        self.bands = (0..bands.max(1)).map(|_| RowScratch::new(nx)).collect();
    }

    /// One substep with the face-flux row sweep.
    fn sweep(&mut self, lam: f64) {
        let (cur, next) = (&self.cur, &mut self.next);
        numerics::par_bands(
            [
                next.rho.data_mut(),
                next.mx.data_mut(),
                next.my.data_mut(),
                next.en.data_mut(),
            ],
            self.nx as usize,
            &mut self.bands,
            |y0, outs, sc| cur.sweep_band(lam, y0, outs, sc),
        );
    }

    /// The retained per-cell stencil: four [`rusanov`] calls per cell
    /// through the ghost-handling [`Conserved::state`] reads. The
    /// bit-identity oracle of [`Rm2d::sweep`].
    fn sweep_reference(&mut self, lam: f64) {
        let (nx, ny) = (self.nx, self.ny);
        let cur = &self.cur;
        for y in 0..ny {
            for x in 0..nx {
                let c = cur.state(nx, ny, x, y);
                let w = cur.state(nx, ny, x - 1, y);
                let e = cur.state(nx, ny, x + 1, y);
                let s = cur.state(nx, ny, x, y - 1);
                let n = cur.state(nx, ny, x, y + 1);
                let fxp = rusanov(&c, &e, 0);
                let fxm = rusanov(&w, &c, 0);
                let fyp = rusanov(&c, &n, 1);
                let fym = rusanov(&s, &c, 1);
                let out = update_cell(&c, lam, &fxp, &fxm, &fyp, &fym);
                let at = Point2::new(x, y);
                self.next.rho.set(at, out[0]);
                self.next.mx.set(at, out[1]);
                self.next.my.set(at, out[2]);
                self.next.en.set(at, out[3]);
            }
        }
    }

    /// Advance one coarse step, running each substep through `sweep`.
    fn advance_with(&mut self, sweep: fn(&mut Self, f64)) {
        let dx = LX / self.nx as f64;
        let lam = self.dt / dx;
        for _ in 0..self.substeps {
            sweep(self, lam);
            std::mem::swap(&mut self.cur, &mut self.next);
            self.time += self.dt;
        }
        self.refresh_indicator();
    }

    fn refresh_indicator(&mut self) {
        numerics::gradient_magnitude(&self.cur.rho, &mut self.scratch);
        std::mem::swap(&mut self.indicator, &mut self.scratch);
        numerics::normalize_max(&mut self.indicator);
    }

    /// Total mass (for conservation tests).
    pub fn total_mass(&self) -> f64 {
        self.cur.rho.sum()
    }

    /// Total energy (for conservation tests).
    pub fn total_energy(&self) -> f64 {
        self.cur.en.sum()
    }

    /// Density field (for tests and demos).
    pub fn density(&self) -> &Grid2<f64> {
        &self.cur.rho
    }

    /// Absolute transverse momentum (vorticity-deposition proxy, tests).
    pub fn transverse_momentum(&self) -> f64 {
        self.cur.my.data().iter().map(|v| v.abs()).sum()
    }

    /// Minimum density and pressure over the grid (positivity checks).
    pub fn min_rho_p(&self) -> (f64, f64) {
        let d = self.cur.rho.domain();
        let mut mr = f64::MAX;
        let mut mp = f64::MAX;
        for y in d.lo().y..=d.hi().y {
            for x in d.lo().x..=d.hi().x {
                let s = self.cur.state(self.nx, self.ny, x, y);
                mr = mr.min(s[0]);
                mp = mp.min(pressure(&s));
            }
        }
        (mr, mp)
    }

    #[cfg(test)]
    fn state(&self, x: i64, y: i64) -> State {
        self.cur.state(self.nx, self.ny, x, y)
    }
}

impl Kernel for Rm2d {
    fn name(&self) -> &'static str {
        "RM2D"
    }

    fn description(&self) -> String {
        format!(
            "Richtmyer-Meshkov instability: Mach-{MACH} shock over a perturbed interface, {}x{} reference grid",
            self.nx, self.ny
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
        geometric_threshold(0.09, 1.8, level)
    }

    fn aspect(&self) -> (i64, i64) {
        (2, 1)
    }
}

impl ReferenceKernel for Rm2d {
    fn advance_coarse_step_reference(&mut self) {
        self.advance_with(Self::sweep_reference);
    }

    fn set_sweep_bands(&mut self, bands: usize) {
        self.set_bands(bands);
    }

    fn state_fields(&self) -> Vec<&Grid2<f64>> {
        let c = &self.cur;
        vec![&c.rho, &c.mx, &c.my, &c.en, &self.indicator]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Rm2d {
        Rm2d::new(24, 20, 5)
    }

    #[test]
    fn rankine_hugoniot_state_is_supersonic_push() {
        // Sanity of the closed-form post-shock state used in `new`.
        let m2 = MACH * MACH;
        let p_post = (2.0 * GAMMA * m2 - (GAMMA - 1.0)) / (GAMMA + 1.0);
        let rho_post = (GAMMA + 1.0) * m2 / ((GAMMA - 1.0) * m2 + 2.0);
        assert!(p_post > 2.0 && p_post < 3.0);
        assert!(rho_post > 1.5 && rho_post < 2.5);
    }

    #[test]
    fn mass_is_conserved_exactly() {
        let mut k = kernel();
        let m0 = k.total_mass();
        for _ in 0..3 {
            k.advance_coarse_step();
        }
        let m1 = k.total_mass();
        assert!(((m1 - m0) / m0).abs() < 1e-10, "mass drifted: {m0} -> {m1}");
    }

    #[test]
    fn energy_is_conserved_exactly() {
        let mut k = kernel();
        let e0 = k.total_energy();
        for _ in 0..3 {
            k.advance_coarse_step();
        }
        let e1 = k.total_energy();
        assert!(
            ((e1 - e0) / e0).abs() < 1e-10,
            "energy drifted: {e0} -> {e1}"
        );
    }

    #[test]
    fn positivity_is_maintained() {
        let mut k = kernel();
        for _ in 0..5 {
            k.advance_coarse_step();
        }
        let (mr, mp) = k.min_rho_p();
        assert!(mr > 0.0 && mp > 0.0, "rho={mr} p={mp}");
    }

    #[test]
    fn shock_propagates_right() {
        let mut k = kernel();
        let before = k.density().clone();
        for _ in 0..2 {
            k.advance_coarse_step();
        }
        assert!(k.cur.mx.sum() > 0.0);
        let diff: f64 = before
            .data()
            .iter()
            .zip(k.density().data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1.0, "density field frozen: {diff}");
    }

    #[test]
    fn interface_fingers_grow_transverse_motion() {
        let mut k = kernel();
        // Before the shock reaches the interface there is no transverse
        // momentum; after passage, baroclinic deposition creates it.
        let my0 = k.transverse_momentum();
        for _ in 0..8 {
            k.advance_coarse_step();
        }
        let my1 = k.transverse_momentum();
        assert!(my0 < 1e-12);
        assert!(my1 > 1e-3, "no vorticity deposited: {my1}");
    }

    #[test]
    fn reflective_and_periodic_ghosts() {
        let k = kernel();
        // Reflective x: ghost mirrors with flipped u.
        let inside = k.state(0, 3);
        let ghost = k.state(-1, 3);
        assert_eq!(inside[0], ghost[0]);
        assert_eq!(inside[1], -ghost[1]);
        // Periodic y.
        assert_eq!(k.state(5, -1), k.state(5, k.ny - 1));
        assert_eq!(k.state(5, k.ny), k.state(5, 0));
    }

    /// A 32x16 tube with one substep per coarse step, seeded so every
    /// special case of the sweep fires: normal momentum at both
    /// reflective walls, transverse momentum across the periodic seam, a
    /// vacuum block (density floor) and a cell whose kinetic energy
    /// exceeds its total energy (pressure floor).
    fn seeded() -> Rm2d {
        let mut k = Rm2d::new(16, 400, 9);
        assert_eq!(k.substeps, 1);
        let (nx, ny) = (k.nx, k.ny);
        for y in 0..ny {
            for x in 0..nx {
                let p = Point2::new(x, y);
                let (fx, fy) = (x as f64, y as f64);
                let rho = *k.cur.rho.get(p) * (1.0 + 0.2 * (0.7 * fx + 1.1 * fy).sin());
                let mx = 0.4 * rho * (0.5 * fx - 0.9 * fy).cos();
                let my = 0.3 * rho * (0.8 * fx + 0.6 * fy).sin();
                let ke = 0.5 * (mx * mx + my * my) / rho;
                k.cur.rho.set(p, rho);
                k.cur.mx.set(p, mx);
                k.cur.my.set(p, my);
                k.cur.en.set(p, ke + 2.0 / (GAMMA - 1.0));
            }
        }
        for y in 6..11 {
            for x in 12..17 {
                let p = Point2::new(x, y);
                k.cur.rho.set(p, 1e-9);
                k.cur.mx.set(p, 0.0);
                k.cur.my.set(p, 0.0);
                k.cur.en.set(p, 1e-12);
            }
        }
        // A uniform block moving at u = 1 with half its kinetic energy
        // as total energy: the inner cells see no net flux, so their
        // update keeps a negative pressure and the floor resets it. It
        // straddles the periodic seam.
        for y in [ny - 2, ny - 1, 0, 1, 2] {
            for x in 3..8 {
                let p = Point2::new(x, y);
                k.cur.rho.set(p, 1.0);
                k.cur.mx.set(p, 1.0);
                k.cur.my.set(p, 0.0);
                k.cur.en.set(p, 0.25);
            }
        }
        k
    }

    #[test]
    fn face_flux_sweep_matches_the_per_cell_reference_bit_for_bit() {
        let make = || Box::new(seeded()) as Box<dyn ReferenceKernel>;
        crate::oracle::assert_sweeps_match(make, &[1, 2, 3, 5], 6, "RM2D");

        // The seeding reaches every branch: the walls carry normal
        // momentum, and after one substep both floors have bound.
        let mut k = seeded();
        let (nx, ny) = (k.nx, k.ny);
        assert!((0..ny).any(|y| k.state(0, y)[1] != 0.0 && k.state(nx - 1, y)[1] != 0.0));
        k.advance_coarse_step();
        assert_eq!(*k.cur.rho.get(Point2::new(14, 8)), RHO_FLOOR);
        let s = k.state(5, 0);
        let p = (GAMMA - 1.0) * (s[3] - 0.5 * (s[1] * s[1] + s[2] * s[2]) / s[0]);
        assert!(p < 2.0 * P_FLOOR, "pressure floor did not bind: p = {p}");
    }

    #[test]
    fn indicator_tracks_density_gradients() {
        let mut k = kernel();
        k.advance_coarse_step();
        assert!(k.indicator_field().max_abs() > 0.99);
        // After one step (t = 0.1) the incident shock is near x ≈ 0.58 and
        // nothing has disturbed the far-right heavy fluid yet: the
        // indicator must be quiescent there.
        assert!(k.indicator(0.95, 0.5) < 0.05);
    }

    #[test]
    fn aspect_is_two_to_one() {
        assert_eq!(kernel().aspect(), (2, 1));
    }
}
