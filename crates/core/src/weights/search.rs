//! Zero-crossing search (the paper's Equation (9) binary search).
//!
//! For a fixed probe position, a filter's non-zero output count is a
//! piecewise-constant function of the probe value `x`; it steps exactly
//! where some output pixel's pre-activation crosses the pruning threshold
//! (`Σ w·x + b = 0` for plain ReLU). The search samples a sign-symmetric
//! geometric grid and bisects every step to locate the crossing points.
//!
//! [`find_crossings`] probes every grid point; a pair of crossings that
//! cancel exactly between two neighbouring grid points stays invisible to
//! it (the geometric grid keeps that unlikely). [`find_monotone_crossings`]
//! fills the same grid with far fewer probes when the count is known to be
//! monotone on each side of zero; such a count has no cancelling pairs, so
//! it finds exactly what the full grid finds. Both search a [`ProbeGrid`],
//! built once from a [`SearchConfig`] and shared by every search over it.

/// One located step of the count function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Probe value at the step (midpoint of the final bracket).
    pub x: f64,
    /// Count change when moving from below `x` to above (can be negative).
    pub delta: i64,
}

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Largest probe magnitude searched.
    pub x_max: f32,
    /// Smallest probe magnitude on the geometric grid.
    pub x_min: f32,
    /// Grid points per sign (geometric between `x_min` and `x_max`).
    pub grid: usize,
    /// Bisection iteration cap per step.
    pub max_iters: u32,
    /// Stop when the bracket is narrower than this absolutely ...
    pub x_tol: f64,
    /// ... or narrower than this relative width (with `1/x` also localized
    /// to within `inv_tol`, which drives the paper's `< 2^-10` accuracy on
    /// `w/b = -1/x`).
    pub x_rel_tol: f64,
    /// Required `1/x` localization.
    pub inv_tol: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            x_max: 4096.0,
            x_min: 1e-4,
            grid: 48,
            max_iters: 96,
            x_tol: 1e-7,
            x_rel_tol: 1e-6,
            inv_tol: 2f64.powi(-13),
        }
    }
}

impl SearchConfig {
    fn bracket_converged(&self, lo: f64, hi: f64) -> bool {
        let width = hi - lo;
        if width < self.x_tol {
            return true;
        }
        // lint:allow(float-eq): guards a division by the exact bracket
        // endpoints; any nonzero value, however small, is safe to divide by.
        if lo != 0.0 && hi != 0.0 && lo.signum() == hi.signum() {
            width < self.x_rel_tol * lo.abs().max(hi.abs())
                && (1.0 / lo - 1.0 / hi).abs() < self.inv_tol
        } else {
            false
        }
    }
}

/// The sign-symmetric geometric probe grid of a [`SearchConfig`]: `grid`
/// points per sign from `x_min` to `x_max`, plus `0` at index `grid`.
///
/// Every search over one configuration probes the same grid, so a caller
/// that runs many searches builds it once and passes it to each
/// [`find_crossings`] or [`find_monotone_crossings`] call; the grid also
/// carries the configuration the refinement reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeGrid {
    cfg: SearchConfig,
    xs: Vec<f64>,
}

impl ProbeGrid {
    /// Builds the grid of `cfg`.
    #[must_use]
    pub fn new(cfg: &SearchConfig) -> Self {
        let mut xs: Vec<f64> = Vec::with_capacity(2 * cfg.grid + 1);
        let ratio = (f64::from(cfg.x_max) / f64::from(cfg.x_min)).powf(1.0 / (cfg.grid - 1) as f64);
        for i in (0..cfg.grid).rev() {
            xs.push(-f64::from(cfg.x_min) * ratio.powi(i as i32));
        }
        xs.push(0.0);
        for i in 0..cfg.grid {
            xs.push(f64::from(cfg.x_min) * ratio.powi(i as i32));
        }
        Self { cfg: *cfg, xs }
    }
}

/// Finds all steps of `count(x)` for `x` over both signs of the grid's
/// range. `count` must be deterministic.
pub fn find_crossings(mut count: impl FnMut(f32) -> u64, grid: &ProbeGrid) -> Vec<Crossing> {
    let xs = &grid.xs;
    let counts: Vec<u64> = xs.iter().map(|&x| count(x as f32)).collect();
    refine_grid(&mut count, grid, &counts, xs.len() as u64)
}

/// [`find_crossings`] for a count that is monotone on each side of `x = 0`:
/// the same grid, but filled by bisecting over grid *indices* from the
/// three probes at `-x_max`, `0` and `x_max`. An index range whose two end
/// counts are equal takes that count without a probe, since a monotone
/// count cannot leave a value and return to it. Every inferred count is
/// the one a probe would have returned, so the unchanged refinement sees
/// identical inputs and the result is bit-identical to [`find_crossings`]
/// — same brackets, same refinement steps — with far fewer grid probes
/// when the count has few steps.
///
/// Why a single-probe count of one filter is monotone: a probe of value
/// `x` makes every conv tap it reaches `fl(b + fl(w_k·x))`, monotone in
/// `x`, and all taps of the filter share the bias `b` and the threshold
/// `t`. On either side
/// of zero, with `b <= t` every tap is off at `x = 0` and either stays off
/// or switches on once; with `b > t` every tap starts on and either stays
/// on or switches off once. All taps that change on one side thus move
/// the same way and their sum is monotone. A max-pool output is on iff any
/// tap in its window is on — an OR of same-direction steps, monotone too.
/// The argument needs `t >= 0` (so "on" is exactly `v > t`), and it breaks
/// for:
///
/// * extra pinned pixels, which give taps different offsets `b + pin` so
///   their steps can point in opposite directions and cancel in count;
/// * average pooling, whose f32 window sum is affine in `x` only up to
///   rounding.
///
/// Those searches must keep [`find_crossings`]. A count that is not
/// monotone can make this search miss crossing pairs that cancel between
/// its probes.
pub fn find_monotone_crossings(
    mut count: impl FnMut(f32) -> u64,
    grid: &ProbeGrid,
) -> Vec<Crossing> {
    let xs = &grid.xs;
    let (zero, last) = (grid.cfg.grid, xs.len() - 1);
    let mut counts = vec![0u64; xs.len()];
    for k in [0, zero, last] {
        counts[k] = count(xs[k] as f32);
    }
    let mut probes = 3u64;
    let mut open = vec![(0, zero), (zero, last)];
    while let Some((lo, hi)) = open.pop() {
        if counts[lo] == counts[hi] {
            let c = counts[lo];
            counts[lo + 1..hi].fill(c);
        } else if hi - lo > 1 {
            let mid = (lo + hi) / 2;
            counts[mid] = count(xs[mid] as f32);
            probes += 1;
            open.extend([(lo, mid), (mid, hi)]);
        }
    }
    refine_grid(&mut count, grid, &counts, probes)
}

/// Refines every grid cell whose end counts differ and records the search
/// counters; `grid_probes` is the number of grid probes actually sent.
fn refine_grid(
    count: &mut impl FnMut(f32) -> u64,
    grid: &ProbeGrid,
    counts: &[u64],
    grid_probes: u64,
) -> Vec<Crossing> {
    let (xs, cfg) = (&grid.xs, &grid.cfg);
    // No span here: crossing searches run on parallel workers during the
    // parallel weights attack, and per-search span events would interleave
    // nondeterministically in the profile stream. The `weights.search.*`
    // counters below are atomic sums, so they stay schedule-independent;
    // the enclosing `attack.weights` span carries the wall-clock story.
    let mut crossings = Vec::new();
    let mut steps = 0u64;
    for w in 0..xs.len() - 1 {
        refine(
            count,
            xs[w],
            xs[w + 1],
            counts[w],
            counts[w + 1],
            cfg,
            cfg.max_iters,
            &mut crossings,
            &mut steps,
        );
    }
    if cnnre_obs::enabled() {
        let reg = cnnre_obs::global();
        reg.counter("weights.search.grid_probes").add(grid_probes);
        reg.counter("weights.search.refine_steps").add(steps);
        reg.counter("weights.search.crossings")
            .add(crossings.len() as u64);
    }
    crossings
}

/// Recursively splits `[lo, hi]` until every step is bracketed to
/// tolerance, so a cell hiding several crossings yields them all. (Pairs
/// that cancel exactly between two probe points remain invisible; see the
/// module doc.)
#[allow(clippy::too_many_arguments)]
fn refine(
    count: &mut impl FnMut(f32) -> u64,
    lo: f64,
    hi: f64,
    c_lo: u64,
    c_hi: u64,
    cfg: &SearchConfig,
    depth: u32,
    out: &mut Vec<Crossing>,
    steps: &mut u64,
) {
    if c_lo == c_hi {
        return;
    }
    *steps += 1;
    if depth == 0 || cfg.bracket_converged(lo, hi) {
        out.push(Crossing {
            x: 0.5 * (lo + hi),
            delta: c_hi as i64 - c_lo as i64,
        });
        return;
    }
    let mid = 0.5 * (lo + hi);
    let c_mid = count(mid as f32);
    refine(count, lo, mid, c_lo, c_mid, cfg, depth - 1, out, steps);
    refine(count, mid, hi, c_mid, c_hi, cfg, depth - 1, out, steps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};
    use std::cell::Cell;

    #[test]
    fn locates_single_step() {
        // count = 1 when 2x + 1 > 0 (crossing at x = -0.5).
        let grid = ProbeGrid::new(&SearchConfig::default());
        let crossings = find_crossings(|x| u64::from(2.0 * x + 1.0 > 0.0), &grid);
        assert_eq!(crossings.len(), 1);
        assert!((crossings[0].x + 0.5).abs() < 1e-4, "{crossings:?}");
        assert_eq!(crossings[0].delta, 1);
    }

    #[test]
    fn locates_steps_on_both_signs() {
        // Two pixels: w=+2 (crossing at -0.5) and w=-0.25 (crossing at +4).
        let grid = ProbeGrid::new(&SearchConfig::default());
        let f = |x: f32| u64::from(2.0 * x + 1.0 > 0.0) + u64::from(-0.25 * x + 1.0 > 0.0);
        let crossings = find_crossings(f, &grid);
        assert_eq!(crossings.len(), 2, "{crossings:?}");
        assert!((crossings[0].x + 0.5).abs() < 1e-4);
        assert!((crossings[1].x - 4.0).abs() < 1e-3);
        assert_eq!(crossings[0].delta, 1);
        assert_eq!(crossings[1].delta, -1);
    }

    #[test]
    fn zero_weight_has_no_crossing() {
        let grid = ProbeGrid::new(&SearchConfig::default());
        let crossings = find_crossings(|_| 5u64, &grid);
        assert!(crossings.is_empty());
    }

    #[test]
    fn inverse_precision_meets_paper_bound() {
        // w/b = -1/x*: for a strong weight (|x*| small), the located
        // crossing must give w/b to < 2^-10 as the paper reports.
        let grid = ProbeGrid::new(&SearchConfig::default());
        for &wb in &[1000.0f64, -37.5, 3.0, 0.01] {
            let x_true = -1.0 / wb;
            let crossings = find_crossings(|x| u64::from(f64::from(x) * wb + 1.0 > 0.0), &grid);
            assert_eq!(crossings.len(), 1, "w/b = {wb}");
            let wb_est = -1.0 / crossings[0].x;
            assert!(
                (wb_est - wb).abs() < 2f64.powi(-10) * wb.abs().max(1.0),
                "w/b {wb}: est {wb_est} (x_true {x_true}, x_est {})",
                crossings[0].x
            );
        }
    }

    #[test]
    fn magnitude_range_is_covered() {
        // Crossings just inside both ends of the range are found.
        let grid = ProbeGrid::new(&SearchConfig::default());
        for &x_true in &[-4000.0f64, -2e-4, 2e-4, 4000.0] {
            let crossings = find_crossings(|x| u64::from(f64::from(x) > x_true), &grid);
            assert_eq!(crossings.len(), 1, "x_true {x_true}: {crossings:?}");
            let rel = (crossings[0].x - x_true).abs() / x_true.abs().max(1e-6);
            assert!(rel < 1e-2 || (crossings[0].x - x_true).abs() < 1e-4);
        }
    }

    /// A count that is monotone on each side of zero: `base` at `x = 0`,
    /// then every step `(p, m)` with `p > 0` adds `sign_pos·m` once
    /// `x > p`, and every step with `p <= 0` adds `sign_neg·m` once
    /// `x < p`.
    struct StepCount {
        base: i64,
        sign_pos: i64,
        sign_neg: i64,
        steps: Vec<(f64, i64)>,
    }

    impl StepCount {
        fn at(&self, x: f32) -> u64 {
            let x = f64::from(x);
            let mut c = self.base;
            for &(p, m) in &self.steps {
                if p > 0.0 && x > p {
                    c += self.sign_pos * m;
                } else if p <= 0.0 && x < p {
                    c += self.sign_neg * m;
                }
            }
            c as u64
        }
    }

    /// Random steps of both signs: some coincident, some exactly on grid
    /// points (including `0`), some beyond `±x_max`; zero steps gives a
    /// constant function.
    fn random_step_count(rng: &mut SmallRng, probe_grid: &ProbeGrid) -> StepCount {
        let grid: Vec<f64> = probe_grid.xs.iter().map(|&x| f64::from(x as f32)).collect();
        let x_max = f64::from(probe_grid.cfg.x_max);
        let mut steps: Vec<(f64, i64)> = Vec::new();
        for _ in 0..rng.gen_range(0..9usize) {
            let p = match rng.gen_range(0..4u32) {
                0 => grid[rng.gen_range(0..grid.len())],
                1 if !steps.is_empty() => steps[rng.gen_range(0..steps.len())].0,
                2 => rng.gen_range(1.0..4.0) * x_max * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
                _ => {
                    let mag = 10f64.powf(rng.gen_range(-4.5..3.7f64));
                    if rng.gen_bool(0.5) {
                        mag
                    } else {
                        -mag
                    }
                }
            };
            steps.push((p, rng.gen_range(1..4i64)));
        }
        let sign = |rng: &mut SmallRng| if rng.gen_bool(0.5) { 1 } else { -1 };
        StepCount {
            base: 100,
            sign_pos: sign(rng),
            sign_neg: sign(rng),
            steps,
        }
    }

    #[test]
    fn monotone_search_equals_full_grid_on_random_step_functions() {
        let grid = ProbeGrid::new(&SearchConfig::default());
        let mut rng = SmallRng::seed_from_u64(0x5eed_0015);
        let (mut full_total, mut mono_total) = (0u64, 0u64);
        for case in 0..400 {
            let f = random_step_count(&mut rng, &grid);
            let full_probes = Cell::new(0u64);
            let full = find_crossings(
                |x| {
                    full_probes.set(full_probes.get() + 1);
                    f.at(x)
                },
                &grid,
            );
            let mono_probes = Cell::new(0u64);
            let mono = find_monotone_crossings(
                |x| {
                    mono_probes.set(mono_probes.get() + 1);
                    f.at(x)
                },
                &grid,
            );
            assert_eq!(mono, full, "case {case}: steps {:?}", f.steps);
            assert!(
                mono_probes.get() < full_probes.get(),
                "case {case}: {} probes vs {}",
                mono_probes.get(),
                full_probes.get()
            );
            full_total += full_probes.get();
            mono_total += mono_probes.get();
        }
        assert!(2 * mono_total < full_total, "{mono_total} vs {full_total}");
    }

    #[test]
    fn monotone_search_probes_three_points_for_a_constant() {
        let grid = ProbeGrid::new(&SearchConfig::default());
        let probes = Cell::new(0u64);
        let crossings = find_monotone_crossings(
            |_| {
                probes.set(probes.get() + 1);
                7
            },
            &grid,
        );
        assert!(crossings.is_empty());
        assert_eq!(probes.get(), 3);
    }

    #[test]
    fn monotone_search_misses_a_cancelling_pair() {
        // Up at 1, down at 2: not monotone on x > 0, so the end counts
        // agree and the monotone search infers a flat side. This is why
        // only provably monotone counts may use it.
        let grid = ProbeGrid::new(&SearchConfig::default());
        let f = |x: f32| u64::from(x > 1.0) + u64::from(x < 2.0);
        assert_eq!(find_crossings(f, &grid).len(), 2);
        assert!(find_monotone_crossings(f, &grid).is_empty());
    }
}
