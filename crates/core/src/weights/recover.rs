//! Weight-ratio recovery — the paper's Algorithm 2, generalized.
//!
//! For every weight `w` of every filter the attack finds the probe value at
//! which an output pixel crosses the pruning boundary (`w·x + b = 0`),
//! giving the ratio `w/b`; zero weights are identified by the absence of a
//! crossing (§4.1). Two refinements over the paper's description make the
//! procedure robust for arbitrary strides and merged pooling:
//!
//! * **Isolation probes.** The probe pixel for weight `(i, j)` is placed at
//!   `(i + S·m − P, j + S·n − P)` where `(m, n)` is chosen so that one
//!   pooling window starts exactly at conv output `(m, n)`: that window
//!   then contains exactly one probe-affected tap — the target's — so its
//!   crossing is never masked by a stronger weight (the situation the
//!   paper's Equation (10) pin method handles for the 2×2 case).
//! * **Descending iteration.** Weights are visited in descending raster
//!   order; the other taps stimulated by an isolation probe belong to
//!   *larger* weight indices, which are then already recovered, so every
//!   other observable crossing is predictable.
//!
//! The adversary predicts the known-weight crossings with a *virtual
//! model*: the same pruned-layer pipeline evaluated over the recovered
//! `w/b` values with a unit-magnitude bias (crossing positions only depend
//! on the ratios). Any unpredicted crossing belongs to the target weight.
//! The virtual model is the attacker's own arithmetic, not a query: each
//! search plans its footprint with the same `ProbePlan` the victim's
//! [`crate::weights::FunctionalOracle`] counts through, built from the
//! ratios. Its counts, and so its crossings, are bit-identical to those of
//! a whole-layer model built from the ratios, and it spends no victim
//! queries.

use cnnre_model::sync::Arc;
use cnnre_nn::layer::PoolKind;
use cnnre_tensor::{Shape3, Tensor4};
use core::ops::Range;

use crate::exec::map_ordered;

use crate::weights::oracle::{
    keyable, probe_key, window_cells, LayerGeometry, MergedOrder, Probe, ProbePlan, ZeroCountOracle,
};
use crate::weights::search::{
    find_crossings, find_monotone_crossings, Crossing, ProbeGrid, SearchConfig,
};

/// Recovery configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Crossing search settings.
    pub search: SearchConfig,
    /// Relative tolerance for matching an observed crossing to a predicted
    /// one.
    pub match_rel_tol: f64,
    /// Absolute matching tolerance (for crossings near zero).
    pub match_abs_tol: f64,
    /// Worker count for [`recover_ratios_parallel`] (filters are recovered
    /// as independent worker tasks via [`crate::exec::map_ordered`]).
    /// Defaults to [`crate::exec::default_threads`]; the sequential
    /// [`recover_ratios`] entry point ignores it. Nothing returned or
    /// streamed depends on it (the parallel entry streams after the join).
    pub threads: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            search: SearchConfig::default(),
            match_rel_tol: 1e-5,
            match_abs_tol: 1e-8,
            threads: crate::exec::default_threads(),
        }
    }
}

/// The recovered `w/b` ratios of one filter, indexed `(c, i, j)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredFilter {
    d_ifm: usize,
    f: usize,
    /// `w/b` per weight; `Some(0.0)` marks an identified zero weight,
    /// `None` a weight the attack could not recover.
    ratios: Vec<Option<f64>>,
}

impl RecoveredFilter {
    fn new(d_ifm: usize, f: usize) -> Self {
        Self {
            d_ifm,
            f,
            ratios: vec![None; d_ifm * f * f],
        }
    }

    fn idx(&self, c: usize, i: usize, j: usize) -> usize {
        (c * self.f + i) * self.f + j
    }

    /// The recovered `w/b` for weight `(c, i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of range.
    #[must_use]
    pub fn ratio(&self, c: usize, i: usize, j: usize) -> Option<f64> {
        self.ratios[self.idx(c, i, j)]
    }

    fn set(&mut self, c: usize, i: usize, j: usize, value: Option<f64>) {
        let k = self.idx(c, i, j);
        self.ratios[k] = value;
    }

    /// All ratios in `(c, i, j)` raster order.
    #[must_use]
    pub fn as_slice(&self) -> &[Option<f64>] {
        &self.ratios
    }

    /// Number of weights recovered (including identified zeros).
    #[must_use]
    pub fn recovered_count(&self) -> usize {
        self.ratios.iter().filter(|r| r.is_some()).count()
    }
}

/// The outcome of the whole-layer attack.
///
/// Ratios are relative to the *effective* bias `b' = b − t` where `t` is the
/// oracle's activation threshold: for plain ReLU (`t = 0`) that is the
/// paper's `w/b`; with a raised threshold (the §4 trick that makes
/// positive-bias pooled layers attackable) multiply by the known `b − t` to
/// obtain absolute weights.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRecovery {
    /// One recovery per filter.
    pub filters: Vec<RecoveredFilter>,
    /// Sign of each filter's bias as observed from the baseline leak
    /// (`true` = positive).
    pub bias_positive: Vec<bool>,
    /// Victim inference queries consumed.
    pub queries: u64,
}

impl RatioRecovery {
    /// Largest absolute error of the recovered `w/b` against ground truth
    /// weights/biases, over all recovered weights (the paper's Figure-7
    /// metric: `< 2^-10`).
    ///
    /// # Panics
    ///
    /// Panics when shapes disagree.
    #[must_use]
    pub fn max_ratio_error(&self, weights: &Tensor4, bias: &[f32]) -> f64 {
        let shape = weights.shape();
        assert_eq!(shape.n, self.filters.len(), "filter count");
        let mut worst = 0.0f64;
        for (d, filter) in self.filters.iter().enumerate() {
            for c in 0..shape.c {
                for i in 0..shape.h {
                    for j in 0..shape.w {
                        if let Some(est) = filter.ratio(c, i, j) {
                            let truth = f64::from(weights[(d, c, i, j)]) / f64::from(bias[d]);
                            worst = worst.max((est - truth).abs());
                        }
                    }
                }
            }
        }
        worst
    }

    /// Fraction of weights recovered across all filters.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total: usize = self.filters.iter().map(|f| f.as_slice().len()).sum();
        let got: usize = self
            .filters
            .iter()
            .map(RecoveredFilter::recovered_count)
            .sum();
        got as f64 / total.max(1) as f64
    }
}

fn crossings_match(a: f64, b: f64, cfg: &RecoveryConfig) -> bool {
    (a - b).abs() <= cfg.match_abs_tol + cfg.match_rel_tol * a.abs().max(b.abs())
}

/// One weight-recovery work item: the target weight, its probe pixel, the
/// conv-output tap the target lands on, and the surrounding tap region.
#[derive(Debug, Clone)]
struct Target {
    c: usize,
    i: usize,
    j: usize,
    /// Probe pixel position.
    y: usize,
    x: usize,
    /// The target's conv-output tap.
    tap: (usize, usize),
    /// Conv-output taps sharing a pooling window with the target (target
    /// excluded), i.e. the taps that can mask it under max pooling.
    corner: Vec<(usize, usize)>,
}

impl Target {
    /// Whether the probe pixel reaches conv-output tap `(vy, vx)` — and
    /// through which weight index.
    fn probe_weight_at(
        &self,
        geom: &LayerGeometry,
        (vy, vx): (usize, usize),
    ) -> Option<(usize, usize)> {
        let fy = (self.y + geom.p) as isize - (vy * geom.s) as isize;
        let fx = (self.x + geom.p) as isize - (vx * geom.s) as isize;
        (fy >= 0 && fx >= 0 && (fy as usize) < geom.f && (fx as usize) < geom.f)
            .then_some((fy as usize, fx as usize))
    }
}

/// Builds a target anchored at conv-output tap `(t_r, t_c)`.
fn make_target_at(
    geom: &LayerGeometry,
    c: usize,
    i: usize,
    j: usize,
    (t_r, t_c): (usize, usize),
) -> Option<Target> {
    let conv_w = geom.conv_out_w()?;
    let y = (t_r * geom.s + i).checked_sub(geom.p)?;
    let x = (t_c * geom.s + j).checked_sub(geom.p)?;
    if y >= geom.input.h || x >= geom.input.w {
        return None;
    }
    let mut corner = Vec::new();
    if let Some((_, f_p, _, _)) = geom.pool {
        let row_range = |t: usize| (t.saturating_sub(f_p - 1), (t + f_p - 1).min(conv_w - 1));
        let (r_lo, r_hi) = row_range(t_r);
        let (c_lo, c_hi) = row_range(t_c);
        for r in r_lo..=r_hi {
            for cc in c_lo..=c_hi {
                if (r, cc) != (t_r, t_c) {
                    corner.push((r, cc));
                }
            }
        }
    }
    Some(Target {
        c,
        i,
        j,
        y,
        x,
        tap: (t_r, t_c),
        corner,
    })
}

/// Fallback anchor for weights whose bottom-corner probe falls outside the
/// input (padding makes the last window hang over the edge): the smallest
/// per-dimension tap whose probe coordinate is in range. The co-stimulated
/// taps then carry *smaller* weight indices, so this anchor is used in a
/// second, ascending pass after the main sweep.
fn make_target_near_origin(geom: &LayerGeometry, c: usize, i: usize, j: usize) -> Option<Target> {
    make_target_at(geom, c, i, j, (first_tap(geom, i)?, first_tap(geom, j)?))
}

/// The first conv output row (or column) whose probe for filter row (or
/// column) `t_idx` lies inside the input's leading edge.
fn first_tap(geom: &LayerGeometry, t_idx: usize) -> Option<usize> {
    (0..geom.conv_out_w()?).find(|&t| (t * geom.s + t_idx).checked_sub(geom.p).is_some())
}

/// All anchor strategies for one weight, in preference order: bottom-right
/// corner, near-origin, and the two mixed row/column combinations (plus
/// off-by-one variants for pooled layers, which shuffle the window-mate
/// sets).
fn candidate_targets(geom: &LayerGeometry, c: usize, i: usize, j: usize) -> Vec<Option<Target>> {
    let Some(conv_w) = geom.conv_out_w() else {
        return Vec::new();
    };
    let th = conv_w - 1;
    let mut anchors: Vec<(Option<usize>, Option<usize>)> = vec![
        (Some(th), Some(th)),
        (first_tap(geom, i), first_tap(geom, j)),
        (Some(th), first_tap(geom, j)),
        (first_tap(geom, i), Some(th)),
    ];
    if geom.pool.is_some() && th >= 1 {
        anchors.extend_from_slice(&[
            (Some(th - 1), Some(th - 1)),
            (Some(th), Some(th - 1)),
            (Some(th - 1), Some(th)),
        ]);
    }
    anchors
        .into_iter()
        .map(|(r, cc)| match (r, cc) {
            (Some(r), Some(cc)) => make_target_at(geom, c, i, j, (r, cc)),
            _ => None,
        })
        .collect()
}

/// Conv-output taps the probe pixel reaches (target tap excluded).
fn affected_taps(geom: &LayerGeometry, t: &Target) -> Vec<(usize, usize)> {
    let Some(conv_w) = geom.conv_out_w() else {
        return Vec::new();
    };
    let reach = |pos: usize| -> (usize, usize) {
        let lo = (pos + geom.p).saturating_sub(geom.f - 1).div_ceil(geom.s);
        let hi = ((pos + geom.p) / geom.s).min(conv_w - 1);
        (lo.min(conv_w - 1), hi)
    };
    let (ry0, ry1) = reach(t.y);
    let (rx0, rx1) = reach(t.x);
    let mut out = Vec::new();
    for vy in ry0..=ry1 {
        for vx in rx0..=rx1 {
            if t.probe_weight_at(geom, (vy, vx)).is_some() && (vy, vx) != t.tap {
                out.push((vy, vx));
            }
        }
    }
    out
}

const PIN_STRENGTH: f64 = 1e9;

/// A pin pixel `(channel, py, px, a, b2, tap)`: it reaches pinned tap
/// `tap` through weight `(channel, a, b2)`.
type Pin = (usize, usize, usize, usize, usize, (usize, usize));

/// The taps one pinned attempt must drive down, and what a pin pixel must
/// satisfy to take part.
struct PinSearch<'a> {
    geom: &'a LayerGeometry,
    filter: &'a RecoveredFilter,
    t: &'a Target,
    /// Taps to pin, in pin order.
    pin_taps: Vec<(usize, usize)>,
    /// Taps at which every pin's contribution must be known: the pinned
    /// taps (the linear system), the target's window-mates (an
    /// uncontrolled huge contribution there could light the target's
    /// window permanently) and the target tap (the crossing formula). Taps
    /// reached outside the target's windows only gain constant offsets,
    /// which shift no crossing the analysis depends on.
    must_be_known: Vec<(usize, usize)>,
}

impl<'a> PinSearch<'a> {
    fn new(
        geom: &'a LayerGeometry,
        filter: &'a RecoveredFilter,
        bias_positive: bool,
        t: &'a Target,
    ) -> Self {
        let affected = affected_taps(geom, t);
        // Taps to pin:
        //  * affected taps whose weight is not yet recovered (their crossings
        //    would be indistinguishable from the target's);
        //  * taps sharing a pooling window with the target that are either
        //    affected (max-pool masking) or alive at baseline (positive bias).
        let is_unknown = |v: (usize, usize)| {
            t.probe_weight_at(geom, v)
                .is_some_and(|(fy, fx)| filter.ratio(t.c, fy, fx).is_none())
        };
        let mut pin_taps: Vec<(usize, usize)> = affected
            .iter()
            .copied()
            .filter(|&v| is_unknown(v))
            .collect();
        for &v in &t.corner {
            if (bias_positive || affected.contains(&v)) && !pin_taps.contains(&v) {
                pin_taps.push(v);
            }
        }
        let must_be_known = pin_taps
            .iter()
            .copied()
            .chain(t.corner.iter().copied())
            .chain(core::iter::once(t.tap))
            .collect();
        Self {
            geom,
            filter,
            t,
            pin_taps,
            must_be_known,
        }
    }

    /// The recovered ratio of weight `(ch, fy, fx)`: `Some(0.0)` outside
    /// the filter, `None` for the target and for unrecovered weights.
    fn known(&self, ch: usize, fy: isize, fx: isize) -> Option<f64> {
        let f = self.geom.f;
        if fy < 0 || fx < 0 || fy as usize >= f || fx as usize >= f {
            return Some(0.0); // outside the filter: zero contribution
        }
        if ch == self.t.c && (fy as usize, fx as usize) == (self.t.i, self.t.j) {
            return None; // the unknown target weight
        }
        self.filter.ratio(ch, fy as usize, fx as usize)
    }

    /// The ratio through which a pixel reaching tap `u` via weight
    /// `(ch, a, b2)` reaches tap `v`.
    fn contribution_via(
        &self,
        ch: usize,
        (a, b2): (usize, usize),
        (uy, ux): (usize, usize),
        (vy, vx): (usize, usize),
    ) -> Option<f64> {
        let s = self.geom.s as isize;
        let fy = a as isize + s * (uy as isize - vy as isize);
        let fx = b2 as isize + s * (ux as isize - vx as isize);
        self.known(ch, fy, fx)
    }

    /// The first admissible pin for tap `u`, scanning the target's channel
    /// first, then the others in order, and weights in descending raster
    /// order. A pin is admissible when it reaches `u` through a known
    /// non-zero weight, lies inside the input, is neither the target pixel
    /// nor an already `taken` pixel, reaches every `must_be_known` tap
    /// through a known weight, and leaves the target tap structurally
    /// untouched (its weight there falls outside the filter or is a known
    /// zero): pin magnitudes are enormous, and an f32 compensation of a
    /// huge contribution at the target tap would destroy the crossing
    /// position entirely. The cheap target-tap test runs first.
    fn first_pin(&self, u: (usize, usize), taken: &[Pin]) -> Option<Pin> {
        let (geom, t) = (self.geom, self.t);
        let others = (0..geom.input.c).filter(|&ch| ch != t.c);
        let channels = core::iter::once(t.c).chain(others);
        let weights = (0..geom.f)
            .rev()
            .flat_map(|a| (0..geom.f).rev().map(move |b2| (a, b2)));
        channels
            .flat_map(|ch| weights.clone().map(move |ab| (ch, ab)))
            .find_map(|(ch, (a, b2))| {
                if self.contribution_via(ch, (a, b2), u, t.tap) != Some(0.0) {
                    return None;
                }
                let r = self.known(ch, a as isize, b2 as isize)?;
                // lint:allow(float-eq): recovered weights use exact 0.0 as
                // the "known pruned" sentinel.
                if r == 0.0 {
                    return None;
                }
                let py = (u.0 * geom.s + a).checked_sub(geom.p)?;
                let px = (u.1 * geom.s + b2).checked_sub(geom.p)?;
                let admissible = py < geom.input.h
                    && px < geom.input.w
                    && !(ch == t.c && (py, px) == (t.y, t.x))
                    && !taken
                        .iter()
                        .any(|&(qc, qy, qx, ..)| (qc, qy, qx) == (ch, py, px))
                    && self
                        .must_be_known
                        .iter()
                        .all(|&v| self.contribution_via(ch, (a, b2), u, v).is_some());
                admissible.then_some((ch, py, px, a, b2, u))
            })
    }

    /// One pin per pinned tap, in pin order; `None` when a tap has no
    /// admissible pin.
    fn select(&self) -> Option<Vec<Pin>> {
        let mut pins: Vec<Pin> = Vec::with_capacity(self.pin_taps.len());
        for &u in &self.pin_taps {
            let pin = self.first_pin(u, &pins)?;
            pins.push(pin);
        }
        Some(pins)
    }
}

/// Pin pixels driving the corner taps to a large constant so the target's
/// crossing is unmasked (the paper's Equation (10) generalized): one pixel
/// per corner tap, each placed so that every contribution to any corner tap
/// (and to the target tap) goes through an already-recovered weight; the
/// pixel values solve a small linear system that sets each corner tap to
/// `-PIN_STRENGTH` (in `|b|` units). Pins may use any input channel whose
/// weights are recovered where the pin reaches the constrained taps —
/// other channels' filters give an independent pin vocabulary.
fn build_pins(
    geom: &LayerGeometry,
    filter: &RecoveredFilter,
    bias_positive: bool,
    t: &Target,
) -> Option<Vec<Probe>> {
    #[cfg(test)]
    tests::record_pin_attempt(geom, filter, bias_positive, t);
    let search = PinSearch::new(geom, filter, bias_positive, t);
    let pin_pos = search.select()?;
    let contribution = |(ch, py, px): (usize, usize, usize), (vy, vx): (usize, usize)| -> f64 {
        let fy = (py + geom.p) as isize - (vy * geom.s) as isize;
        let fx = (px + geom.p) as isize - (vx * geom.s) as isize;
        search.known(ch, fy, fx).unwrap_or(0.0)
    };
    // Solve M·v = rhs: each pinned tap forced to -PIN_STRENGTH (in b units;
    // the bias sign converts "far below the pruning threshold" into the
    // b-normalized value).
    let sign = if bias_positive { 1.0 } else { -1.0 };
    let n = pin_pos.len();
    let mut m = vec![vec![0.0f64; n]; n];
    let rhs = vec![-PIN_STRENGTH * sign; n];
    for (row, &u) in search.pin_taps.iter().enumerate() {
        for (col, &(ch, py, px, ..)) in pin_pos.iter().enumerate() {
            m[row][col] = contribution((ch, py, px), u);
        }
    }
    let v = solve_linear(m, rhs)?;
    Some(
        pin_pos
            .iter()
            .zip(&v)
            .map(|(&(ch, py, px, ..), &val)| Probe {
                c: ch,
                y: py,
                x: px,
                value: val as f32,
            })
            .collect(),
    )
}

/// Gaussian elimination with partial pivoting; `None` when singular.
fn solve_linear(mut m: Vec<Vec<f64>>, mut rhs: Vec<f64>) -> Option<Vec<f64>> {
    let n = rhs.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        rhs.swap(col, pivot);
        for row in col + 1..n {
            let factor = m[row][col] / m[col][col];
            let (pivot_row, rest) = m.split_at_mut(col + 1);
            let pivot_row = &pivot_row[col];
            for (dst, src) in rest[row - col - 1][col..].iter_mut().zip(&pivot_row[col..]) {
                *dst -= factor * src;
            }
            rhs[row] -= factor * rhs[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for k in row + 1..n {
            acc -= m[row][k] * x[k];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

/// `w/b` from the target-tap crossing at probe value `x`, given the pin
/// contribution to the relevant window (in `b` units) and, for sum-based
/// average pooling, the known ratios of the other probe-affected taps in
/// the target's window (they contribute `ratio·x` each to the window sum).
fn ratio_from_crossing(
    geom: &LayerGeometry,
    t: &Target,
    filter: &RecoveredFilter,
    x: f64,
    pin_over_b: f64,
) -> f64 {
    match (geom.pool, geom.order) {
        (Some((PoolKind::Avg, f_p, _, _)), MergedOrder::PoolThenAct) => {
            // Window sum: x·(w_t/b + Σ known affected ratios) + K + pins = 0.
            // lint:allow(panic): `start_recovery` checks the geometry up front
            let conv_w = geom.conv_out_w().expect("valid geometry");
            let window_tap =
                |v: usize, t_v: usize| v >= t_v.saturating_sub(f_p - 1) && v <= t_v && v < conv_w;
            let mut k = 0usize;
            let mut known_sum = 0.0f64;
            for r in t.tap.0.saturating_sub(f_p - 1)..=t.tap.0 {
                for c in t.tap.1.saturating_sub(f_p - 1)..=t.tap.1 {
                    if !(window_tap(r, t.tap.0) && window_tap(c, t.tap.1)) {
                        continue;
                    }
                    k += 1;
                    if (r, c) != t.tap {
                        if let Some((fy, fx)) = t.probe_weight_at(geom, (r, c)) {
                            known_sum += filter.ratio(t.c, fy, fx).unwrap_or(0.0);
                        }
                    }
                }
            }
            -(k as f64 + pin_over_b) / x - known_sum
        }
        _ => -(1.0 + pin_over_b) / x,
    }
}

/// Pin contribution relevant to the crossing formula: for max pooling (and
/// no pooling) only the target tap matters, and pins leave it untouched;
/// for sum-based average pooling the whole last window contributes.
fn formula_pin_term(
    geom: &LayerGeometry,
    t: &Target,
    pins: &[Probe],
    filter: &RecoveredFilter,
) -> f64 {
    match (geom.pool, geom.order) {
        (Some((PoolKind::Avg, _, _, _)), MergedOrder::PoolThenAct) => {
            // Sum of pin contributions over the last window's taps.
            let mut total = 0.0;
            for &(vy, vx) in &t.corner {
                for probe in pins {
                    let fy = (probe.y + geom.p) as isize - (vy * geom.s) as isize;
                    let fx = (probe.x + geom.p) as isize - (vx * geom.s) as isize;
                    if fy >= 0
                        && fx >= 0
                        && (fy as usize) < geom.f
                        && (fx as usize) < geom.f
                        && !(probe.c == t.c && (fy as usize, fx as usize) == (t.i, t.j))
                    {
                        total += filter
                            .ratio(probe.c, fy as usize, fx as usize)
                            .unwrap_or(0.0)
                            * f64::from(probe.value);
                    }
                }
            }
            total
        }
        _ => 0.0,
    }
}

/// Runs the full-layer ratio recovery on the calling thread, streaming
/// each filter's frames as soon as the filter is done.
///
/// # Example
///
/// ```
/// use cnnre_attacks::weights::{
///     recover_ratios, FunctionalOracle, LayerGeometry, MergedOrder, RecoveryConfig,
/// };
/// use cnnre_nn::layer::Conv2d;
/// use cnnre_tensor::{init, Shape3, Shape4};
/// use cnnre_tensor::rng::SmallRng;
/// use cnnre_tensor::rng::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let geom = LayerGeometry {
///     input: Shape3::new(1, 17, 17),
///     d_ofm: 1, f: 3, s: 1, p: 0,
///     pool: None,
///     order: MergedOrder::ActThenPool,
///     threshold: 0.0,
/// };
/// let weights = init::he_conv(&mut rng, Shape4::new(1, 1, 3, 3));
/// let victim = Conv2d::from_parts(weights, vec![-0.2], 1, 0)?;
/// let mut oracle = FunctionalOracle::new(victim.clone(), geom);
/// let rec = recover_ratios(&mut oracle, &RecoveryConfig::default());
/// assert!(rec.max_ratio_error(victim.weights(), victim.bias()) < 2f64.powi(-10));
/// # Ok::<(), cnnre_tensor::TensorError>(())
/// ```
///
/// # Panics
///
/// Panics when the layer geometry is degenerate (no conv output).
pub fn recover_ratios(oracle: &mut dyn ZeroCountOracle, cfg: &RecoveryConfig) -> RatioRecovery {
    let (_span, geom, bias_positive) = start_recovery(oracle);
    let mut spent = 1;
    let recoveries: Vec<FilterRecovery> = (0..geom.d_ofm)
        .map(|d| {
            let rec = recover_filter(oracle, &geom, d, bias_positive[d], cfg);
            spent = emit_filter(spent, &rec);
            rec
        })
        .collect();
    finish_recovery(recoveries, bias_positive)
}

/// The parallel whole-layer attack: every filter is recovered as an
/// independent worker task against its own clone of `oracle` (filter `d`'s
/// probes, pins, and virtual model depend only on filter `d`'s state, so
/// the decomposition is exact). After the join the coordinator streams
/// each filter's frames in filter order, so recovered ratios, counters and
/// streamed events are byte-identical to [`recover_ratios`] at any
/// `cfg.threads` value (DESIGN.md §13).
///
/// The oracle must be cheaply cloneable with an independent query counter
/// per clone (e.g. [`crate::weights::FunctionalOracle`]); stateful hardware-backed oracles
/// stay on the sequential `&mut dyn` entry point.
///
/// # Panics
///
/// Panics when the layer geometry is degenerate (no conv output).
pub fn recover_ratios_parallel<O>(mut oracle: O, cfg: &RecoveryConfig) -> RatioRecovery
where
    O: ZeroCountOracle + Clone + Send + Sync + 'static,
{
    let (_span, geom, bias_positive) = start_recovery(&mut oracle);
    let proto = Arc::new(oracle);
    let run_cfg = *cfg;
    let items: Vec<(usize, bool)> = bias_positive.iter().copied().enumerate().collect();
    let recoveries = map_ordered(cfg.threads, items, move |_, (d, positive)| {
        // Each task works a private clone; `recover_filter` tallies
        // relative to the clone's starting count, so the shared prefix
        // (the baseline query) is not double-counted.
        let mut worker_oracle = (*proto).clone();
        recover_filter(&mut worker_oracle, &geom, d, positive, &run_cfg)
    });
    recoveries.iter().fold(1, emit_filter);
    finish_recovery(recoveries, bias_positive)
}

/// The prologue of both entry points: opens the `attack.weights` span and
/// run, checks the geometry, and reads each filter's bias sign from one
/// baseline query (every output of a positive-bias filter is on).
fn start_recovery(
    oracle: &mut dyn ZeroCountOracle,
) -> (cnnre_obs::SpanGuard, LayerGeometry, Vec<bool>) {
    let span = cnnre_obs::span("attack.weights");
    cnnre_obs::stream::start_run("attack.weights");
    let geom = oracle.geometry();
    // lint:allow(panic): the documented `# Panics` of both entry points
    let full = (geom.final_out_w().expect("degenerate geometry") as u64).pow(2);
    let bias_positive = oracle.query(&[]).iter().map(|&c| c == full).collect();
    (span, geom, bias_positive)
}

/// One weight-recovery work item: a `(channel, row, col)` weight position.
type WeightPos = (usize, usize, usize);

/// One filter's recovery outcome.
struct FilterRecovery {
    filter: RecoveredFilter,
    /// Each settled weight with the victim queries the filter had sent when
    /// it settled, in settle order; kept only while the event stream, its
    /// one reader, is on (a 96-filter layer's logs cost ≈1 MiB of RSS).
    settled: Vec<(WeightPos, u64)>,
    /// Total victim queries this filter sent.
    queries: u64,
    /// Victim searches answered from [`VictimSearches`]'s memo.
    memo_hits: u64,
    /// Virtual-model searches run.
    virtual_searches: u64,
}

/// Recovers every weight of filter `d` — the independent unit of work both
/// entry points are built on. Emits no telemetry itself: the entry points
/// stream the returned settle log with [`emit_filter`].
fn recover_filter(
    oracle: &mut dyn ZeroCountOracle,
    geom: &LayerGeometry,
    d: usize,
    bias_positive: bool,
    cfg: &RecoveryConfig,
) -> FilterRecovery {
    let start = oracle.query_count();
    let mut run = FilterRun {
        geom,
        bias_positive,
        cfg,
        victim: VictimSearches::new(oracle, geom, d),
        grid: ProbeGrid::new(&cfg.search),
        filter: RecoveredFilter::new(geom.input.c, geom.f),
        start,
        settled: Vec::new(),
        virtual_searches: 0,
    };
    // Pass 1, descending raster order: a probe anchored so the target lands
    // on the last conv output stimulates only larger (already recovered)
    // weight indices alongside the target. Weights whose bottom probe hangs
    // over the padded edge are deferred.
    // lint:allow(panic): `start_recovery` checks the geometry up front
    let last = geom.conv_out_w().expect("valid geometry") - 1;
    let mut deferred = Vec::new();
    for c in 0..geom.input.c {
        for i in (0..geom.f).rev() {
            for j in (0..geom.f).rev() {
                if make_target_at(geom, c, i, j, (last, last)).is_none() {
                    deferred.push((c, i, j));
                    continue;
                }
                if let Some(r) = run.recover_with_retries((c, i, j)) {
                    run.settle((c, i, j), r);
                }
            }
        }
    }
    // Pass 2, ascending: the deferred weights are anchored near the origin
    // instead; their co-stimulated taps carry smaller weight indices,
    // recovered in pass 1.
    deferred.sort_unstable();
    for (c, i, j) in deferred {
        let Some(t) = make_target_near_origin(geom, c, i, j) else {
            continue;
        };
        if let Some(r) = run.recover_one(&t, true) {
            run.settle((c, i, j), r);
        }
    }
    // Fixpoint rounds: weights masked beyond the reach of the first sweep
    // become recoverable once their neighbours are known — each round the
    // pin vocabulary grows (origin-anchored probes pin through *smaller*
    // recovered weights, bottom-anchored ones through larger), so alternate
    // both anchors until no further weight resolves. An attempt depends
    // only on this filter's own state, so a round that makes no progress
    // here cannot succeed later either.
    for _round in 0..6 {
        if !run.sweep(false) {
            break;
        }
    }
    // Whatever remains unresolved after the fixpoint: if a final pinned
    // attempt sees no crossing at all, conclude a zero weight.
    run.sweep(true);
    FilterRecovery {
        queries: run.victim.oracle.query_count() - start,
        memo_hits: run.victim.hits,
        virtual_searches: run.virtual_searches,
        filter: run.filter,
        settled: run.settled,
    }
}

/// Streams filter `rec`'s `WeightRecovered` frames, the run having sent
/// `spent` victim queries before the filter began, and returns the run's
/// count once the filter is done. Frames go out in settle order, each
/// stamped with the run's cumulative victim count when its weight
/// settled; a weight that never settled gets a frame at the filter's
/// total, so every weight has exactly one frame.
fn emit_filter(spent: u64, rec: &FilterRecovery) -> u64 {
    if cnnre_obs::stream::enabled() {
        let (ratios, f) = (&rec.filter.ratios, rec.filter.f);
        let unsettled = (0..ratios.len()).filter(|&k| ratios[k].is_none());
        let unsettled = unsettled.map(|k| ((k / (f * f), k / f % f, k % f), rec.queries));
        for ((c, i, j), queries) in rec.settled.iter().copied().chain(unsettled) {
            // The weight run's "cycle" domain is the cumulative victim
            // query count — monotone by construction.
            let queries = spent + queries;
            cnnre_obs::stream::emit_at(
                queries,
                cnnre_obs::stream::EventPayload::WeightRecovered {
                    channel: c as u64,
                    row: i as u64,
                    col: j as u64,
                    queries,
                },
            );
        }
    }
    spent + rec.queries
}

/// Coordinator epilogue shared by both entry points: flushes the
/// whole-layer counters and assembles the result (the baseline query
/// counts towards the total).
fn finish_recovery(recoveries: Vec<FilterRecovery>, bias_positive: Vec<bool>) -> RatioRecovery {
    let total_queries: u64 = 1 + recoveries.iter().map(|r| r.queries).sum::<u64>();
    let memo_hits: u64 = recoveries.iter().map(|r| r.memo_hits).sum();
    let virtual_searches: u64 = recoveries.iter().map(|r| r.virtual_searches).sum();
    let filters: Vec<RecoveredFilter> = recoveries.into_iter().map(|r| r.filter).collect();
    let (mut recovered, mut zeros, mut unrecovered) = (0u64, 0u64, 0u64);
    for f in &filters {
        for r in f.as_slice() {
            match r {
                // lint:allow(float-eq): exact-zero sentinel, see above.
                Some(v) if *v == 0.0 => zeros += 1,
                Some(_) => recovered += 1,
                None => unrecovered += 1,
            }
        }
    }
    if cnnre_obs::enabled() {
        let reg = cnnre_obs::global();
        reg.counter("weights.recovered").add(recovered);
        reg.counter("weights.zero_identified").add(zeros);
        reg.counter("weights.unrecovered").add(unrecovered);
        // `oracle.queries` counts every ZeroCountOracle query in the
        // process; this is the share of this attack (the paper's cost
        // metric). The virtual model is not an oracle and sends none.
        reg.counter("oracle.victim_queries").add(total_queries);
        reg.counter("weights.search.memo_hits").add(memo_hits);
        reg.counter("weights.virtual.searches")
            .add(virtual_searches);
    }
    cnnre_obs::log_info!(
        "weights",
        "ratio recovery: {} non-zero, {} zeros, {} unrecovered ({} oracle queries)",
        recovered,
        zeros,
        unrecovered,
        total_queries
    );
    RatioRecovery {
        filters,
        bias_positive,
        queries: total_queries,
    }
}

/// Whether a query of one probe value plus `pins` has a count that is
/// monotone on each side of zero, so [`find_monotone_crossings`] returns
/// exactly what [`find_crossings`] would (the argument is on that
/// function): no pins, no pooling or max pooling, and a non-negative
/// threshold.
fn count_is_monotone(geom: &LayerGeometry, pins: &[Probe]) -> bool {
    matches!(geom.pool, None | Some((PoolKind::Max, ..)))
        && geom.threshold >= 0.0
        && pins.is_empty()
}

/// The crossing search of `count(x)` for one probe position plus `pins`:
/// the monotone search where [`count_is_monotone`] holds, the full grid
/// otherwise.
fn search(
    geom: &LayerGeometry,
    pins: &[Probe],
    count: impl FnMut(f32) -> u64,
    grid: &ProbeGrid,
) -> Vec<Crossing> {
    if count_is_monotone(geom, pins) {
        find_monotone_crossings(count, grid)
    } else {
        find_crossings(count, grid)
    }
}

/// The crossing search of a probe-set count: the target pixel at the
/// searched value, followed by `pins`.
fn search_crossings(
    geom: &LayerGeometry,
    t: &Target,
    pins: &[Probe],
    mut count: impl FnMut(&[Probe]) -> u64,
    grid: &ProbeGrid,
) -> Vec<Crossing> {
    let mut probes = Vec::with_capacity(pins.len() + 1);
    probes.push(Probe {
        c: t.c,
        y: t.y,
        x: t.x,
        value: 0.0,
    });
    probes.extend_from_slice(pins);
    let query = |v: f32| {
        probes[0].value = v;
        count(&probes)
    };
    search(geom, pins, query, grid)
}

/// One filter's victim crossing searches, each answer kept while the
/// weight it serves is unresolved.
///
/// The victim's answer to a search is a pure function of the target pixel
/// and the pins (the [`ZeroCountOracle`] contract): the geometry, the
/// filter and the search settings are fixed for the filter's recovery, and
/// the pins decide which search runs ([`count_is_monotone`]). A search
/// whose key was seen before is answered from the memo with the victim's
/// own crossings, so a memo hit changes no result, only the query count.
/// The fixpoint rounds and the final zero pass retry unresolved weights,
/// and a retry repeats a search whenever the weights learned since are not
/// among its pins.
///
/// Keys and answers sit in two flat arenas, entry after entry. A key
/// packs each probe into one word with [`probe_key`]: the target pixel
/// first (value bits zero), then the pins in pin order, which fixes the
/// victim's f32 summation order. An index of the entries in key order
/// finds a key by binary search. Only unresolved weights are retried, so
/// [`Self::forget`] drops a weight's entries once it resolves, and the
/// live arenas stay small.
struct VictimSearches<'a> {
    oracle: &'a mut dyn ZeroCountOracle,
    /// The attacked filter.
    d: usize,
    /// The input shape, for packing pixel indices.
    input: Shape3,
    /// Filter width, for weight indices.
    f: usize,
    /// The packed keys of the live entries, in entry order.
    keys: Vec<u64>,
    /// The victim's crossings of the live entries, in entry order.
    answers: Vec<Crossing>,
    entries: Vec<MemoEntry>,
    /// The live entries' indices in `entries`, in key order.
    by_key: Vec<u32>,
    /// The key under construction, reused across lookups.
    scratch: Vec<u64>,
    /// Searches answered from the memo.
    hits: u64,
}

/// One remembered search: the weight it served, as its `(c, i, j)` raster
/// index, and where its key and answer sit in the arenas. Narrow fields
/// keep the entry at 20 bytes; the live memo holds thousands.
struct MemoEntry {
    weight: u32,
    key_at: u32,
    key_len: u32,
    answer_at: u32,
    answer_len: u32,
}

impl MemoEntry {
    fn key(&self) -> Range<usize> {
        let at = self.key_at as usize;
        at..at + self.key_len as usize
    }

    fn answer(&self) -> Range<usize> {
        let at = self.answer_at as usize;
        at..at + self.answer_len as usize
    }
}

impl<'a> VictimSearches<'a> {
    fn new(oracle: &'a mut dyn ZeroCountOracle, geom: &LayerGeometry, d: usize) -> Self {
        let input = geom.input;
        assert!(keyable(input), "input too large to key: {input:?}");
        Self {
            oracle,
            d,
            input,
            f: geom.f,
            keys: Vec::new(),
            answers: Vec::new(),
            entries: Vec::new(),
            by_key: Vec::new(),
            scratch: Vec::new(),
            hits: 0,
        }
    }

    fn weight_index(&self, (c, i, j): WeightPos) -> u32 {
        narrow((c * self.f + i) * self.f + j)
    }

    /// The victim's crossings for target `t` plus `pins`: remembered, or
    /// searched and remembered for `t`'s weight.
    fn crossings(
        &mut self,
        geom: &LayerGeometry,
        t: &Target,
        pins: &[Probe],
        grid: &ProbeGrid,
    ) -> Vec<Crossing> {
        let input = self.input;
        let mut key = core::mem::take(&mut self.scratch);
        key.clear();
        key.push(probe_key(input, t.c, t.y, t.x, 0.0));
        key.extend(
            pins.iter()
                .map(|q| probe_key(input, q.c, q.y, q.x, q.value)),
        );
        let entry = |e: u32| &self.entries[e as usize];
        let answer = match self
            .by_key
            .binary_search_by(|&e| self.keys[entry(e).key()].cmp(&key))
        {
            Ok(i) => {
                self.hits += 1;
                self.answers[entry(self.by_key[i]).answer()].to_vec()
            }
            Err(i) => {
                let (oracle, d) = (&mut *self.oracle, self.d);
                let found =
                    search_crossings(geom, t, pins, |probes| oracle.query_filter(d, probes), grid);
                self.by_key.insert(i, narrow(self.entries.len()));
                self.entries.push(MemoEntry {
                    weight: self.weight_index((t.c, t.i, t.j)),
                    key_at: narrow(self.keys.len()),
                    key_len: narrow(key.len()),
                    answer_at: narrow(self.answers.len()),
                    answer_len: narrow(found.len()),
                });
                self.keys.extend_from_slice(&key);
                self.answers.extend_from_slice(&found);
                found
            }
        };
        self.scratch = key;
        answer
    }

    /// Drops the entries of a resolved weight, compacting the arenas in
    /// place and renumbering the index.
    fn forget(&mut self, weight: WeightPos) {
        let weight = self.weight_index(weight);
        // Each entry's new index, `u32::MAX` for a dropped one.
        let mut renumber = Vec::with_capacity(self.entries.len());
        let (mut kept, mut k_to, mut a_to) = (0, 0, 0);
        self.entries.retain_mut(|e| {
            if e.weight == weight {
                renumber.push(u32::MAX);
                return false;
            }
            self.keys.copy_within(e.key(), k_to);
            self.answers.copy_within(e.answer(), a_to);
            (e.key_at, e.answer_at) = (narrow(k_to), narrow(a_to));
            k_to += e.key_len as usize;
            a_to += e.answer_len as usize;
            renumber.push(kept);
            kept += 1;
            true
        });
        self.keys.truncate(k_to);
        self.answers.truncate(a_to);
        self.by_key.retain_mut(|e| {
            *e = renumber[*e as usize];
            *e != u32::MAX
        });
    }
}

/// A [`MemoEntry`] field.
fn narrow(n: usize) -> u32 {
    // lint:allow(panic): bounded by the filter's weight count, its pin
    // count, the search grid and its searches, each far below 2^32
    u32::try_from(n).expect("memo entry field fits 32 bits")
}

/// The adversary's virtual model of one filter for target `t` plus
/// `pins`, planned as the victim's model is.
///
/// Virtual weights are the recovered `w/|b|` values (unknowns are 0) and
/// the bias is `±1`, so every virtual pre-activation is the true one
/// divided by `|b|` — sign-faithful, hence crossing positions coincide. A
/// non-zero pruning threshold `t` is equivalent to the bias `b' = b − t`
/// compared against zero, and the ratios are already in `b'` units, so the
/// virtual model runs at threshold 0 ([`virtual_geometry`]). Its baseline
/// is known in closed form: every window with a tap is on when the bias is
/// positive, and none otherwise.
fn virtual_plan(
    geom: &LayerGeometry,
    filter: &RecoveredFilter,
    bias_positive: bool,
    t: &Target,
    pins: &[Probe],
) -> ProbePlan {
    let geom = virtual_geometry(geom);
    let bias = if bias_positive { 1.0f32 } else { -1.0 };
    // lint:allow(panic): `start_recovery` checks the geometry up front
    let conv_w = geom.conv_out_w().expect("valid geometry");
    let windows = match geom.pool {
        None => conv_w * conv_w,
        Some((_, f_p, s_p, p_p)) => {
            // lint:allow(panic): `start_recovery` checks the geometry up front
            let out_w = geom.final_out_w().expect("valid geometry");
            let cells = |pw: usize| window_cells(pw, f_p, s_p, p_p, conv_w);
            let rows = (0..out_w).filter(|&pw| !cells(pw).is_empty()).count();
            rows * rows
        }
    };
    ProbePlan::new(
        &geom,
        |c, fy, fx| bias * filter.ratio(c, fy, fx).unwrap_or(0.0) as f32,
        bias,
        (t.c, t.y, t.x),
        pins,
        |_, _| bias_positive,
        if bias_positive { windows as u64 } else { 0 },
    )
}

/// The virtual model's geometry: one filter at threshold 0.
fn virtual_geometry(geom: &LayerGeometry) -> LayerGeometry {
    LayerGeometry {
        d_ofm: 1,
        threshold: 0.0,
        ..*geom
    }
}

/// Crossings of the virtual model for the given probe set.
fn virtual_crossings(
    geom: &LayerGeometry,
    filter: &RecoveredFilter,
    bias_positive: bool,
    t: &Target,
    pins: &[Probe],
    grid: &ProbeGrid,
) -> Vec<Crossing> {
    let plan = virtual_plan(geom, filter, bias_positive, t, pins);
    search(&virtual_geometry(geom), pins, |x| plan.count(x), grid)
}

/// Whether the observed and predicted crossing sets coincide one-to-one,
/// including the count-step magnitudes (a coincident extra crossing at the
/// same position shows up as a delta mismatch).
fn sets_match(observed: &[Crossing], predicted: &[Crossing], cfg: &RecoveryConfig) -> bool {
    let covered = |a: &[Crossing], b: &[Crossing]| {
        a.iter().all(|x| {
            b.iter()
                .any(|y| crossings_match(x.x, y.x, cfg) && x.delta == y.delta)
        })
    };
    covered(observed, predicted) && covered(predicted, observed)
}

/// Observed crossings that coincide in position with a predicted one but
/// exceed its step magnitude — the signature of the target's crossing
/// hiding behind a known weight's.
fn excess_coincidences(
    observed: &[Crossing],
    predicted: &[Crossing],
    cfg: &RecoveryConfig,
) -> Vec<Crossing> {
    observed
        .iter()
        .copied()
        .filter(|o| {
            predicted
                .iter()
                .any(|p| crossings_match(o.x, p.x, cfg) && o.delta.abs() > p.delta.abs())
        })
        .collect()
}

/// One filter's recovery in progress.
struct FilterRun<'a> {
    geom: &'a LayerGeometry,
    bias_positive: bool,
    cfg: &'a RecoveryConfig,
    victim: VictimSearches<'a>,
    /// The probe grid of `cfg.search`, shared by every search.
    grid: ProbeGrid,
    filter: RecoveredFilter,
    /// The oracle's query count when the filter's recovery began.
    start: u64,
    /// See [`FilterRecovery::settled`].
    settled: Vec<(WeightPos, u64)>,
    /// Virtual-model searches run so far.
    virtual_searches: u64,
}

impl FilterRun<'_> {
    /// Commits a resolved weight: records its ratio, drops its remembered
    /// searches and, while the event stream is on, logs the victim queries
    /// sent so far.
    fn settle(&mut self, (c, i, j): WeightPos, ratio: f64) {
        self.filter.set(c, i, j, Some(ratio));
        self.victim.forget((c, i, j));
        if cnnre_obs::stream::enabled() {
            let queries = self.victim.oracle.query_count() - self.start;
            self.settled.push(((c, i, j), queries));
        }
    }

    /// One raster sweep over the unresolved weights, trying every candidate
    /// anchor of each until one settles it; `allow_zero` lets an attempt
    /// that sees no crossing conclude a zero weight. Returns whether any
    /// weight settled.
    fn sweep(&mut self, allow_zero: bool) -> bool {
        let geom = self.geom;
        let mut progressed = false;
        for c in 0..geom.input.c {
            for i in 0..geom.f {
                for j in 0..geom.f {
                    if self.filter.ratio(c, i, j).is_some() {
                        continue;
                    }
                    for t in candidate_targets(geom, c, i, j).into_iter().flatten() {
                        if let Some(r) = self.recover_one(&t, allow_zero) {
                            self.settle((c, i, j), r);
                            progressed = true;
                            break;
                        }
                    }
                }
            }
        }
        progressed
    }

    /// Tries the bottom-corner anchor first, then nearby window-aligned
    /// anchors; commits the first attempt that produces a definitive result.
    /// Intermediate attempts may only return a value with verification, so an
    /// inconclusive anchor never poisons the recovery.
    fn recover_with_retries(&mut self, (c, i, j): WeightPos) -> Option<f64> {
        let geom = self.geom;
        let conv_w = geom.conv_out_w()?;
        let th = conv_w - 1;
        let mut anchors = vec![(th, th)];
        if geom.pool.is_some() && th >= 1 {
            anchors.extend_from_slice(&[(th - 1, th - 1), (th, th - 1), (th - 1, th)]);
        }
        let mut inconclusive_zero = false;
        for (n, anchor) in anchors.iter().enumerate() {
            let Some(t) = make_target_at(geom, c, i, j, *anchor) else {
                continue;
            };
            let last = n + 1 == anchors.len();
            match self.recover_one(&t, last) {
                // lint:allow(float-eq): exact 0.0 is the masked/pruned sentinel.
                Some(r) if r != 0.0 => return Some(r),
                Some(_) => {
                    // "Zero" can also mean "masked and unpinnable" — only trust
                    // it once the final anchor agrees.
                    inconclusive_zero = true;
                }
                None => {}
            }
        }
        inconclusive_zero.then_some(0.0)
    }

    /// One attempt at the target weight from anchor `t`; `allow_zero` lets
    /// a pinned attempt that sees no crossing conclude a zero weight.
    fn recover_one(&mut self, t: &Target, allow_zero: bool) -> Option<f64> {
        let (geom, filter, cfg, grid) = (self.geom, &self.filter, self.cfg, &self.grid);
        let bias_positive = self.bias_positive;
        let searches = &mut self.virtual_searches;
        let mut predict = |filter: &RecoveredFilter, pins: &[Probe]| {
            *searches += 1;
            virtual_crossings(geom, filter, bias_positive, t, pins, grid)
        };
        // The fast (unpinned) path is sound only when every co-stimulated tap
        // carries an already-recovered weight: otherwise an unknown weight's
        // crossing is indistinguishable from the target's.
        let all_cotaps_known = affected_taps(geom, t).iter().all(|&v| {
            t.probe_weight_at(geom, v)
                .is_none_or(|(fy, fx)| filter.ratio(t.c, fy, fx).is_some())
        });
        if all_cotaps_known {
            let observed = self.victim.crossings(geom, t, &[], grid);
            let predicted = predict(filter, &[]);
            let mut unmatched: Vec<Crossing> = observed
                .iter()
                .copied()
                .filter(|o| !predicted.iter().any(|p| crossings_match(o.x, p.x, cfg)))
                .collect();
            if unmatched.is_empty() {
                // The target's crossing may coincide with a known weight's: the
                // step magnitude then exceeds the prediction.
                unmatched = excess_coincidences(&observed, &predicted, cfg);
            }
            if let [single] = unmatched[..] {
                let ratio = ratio_from_crossing(geom, t, filter, single.x, 0.0);
                // Verify: the completed virtual model must reproduce the
                // observation exactly (positions and step magnitudes).
                let mut trial = filter.clone();
                trial.set(t.c, t.i, t.j, Some(ratio));
                let verify = predict(&trial, &[]);
                if sets_match(&observed, &verify, cfg) {
                    return Some(ratio);
                }
            }
            if geom.pool.is_none() && unmatched.is_empty() {
                // Without pooling nothing can mask the target, and the
                // coincidence check found no hidden step: no crossing means a
                // zero weight (or one outside the searchable ratio range).
                return Some(0.0);
            }
            geom.pool?;
        }

        // Pinned path: drive every other corner tap far negative so the
        // target's crossing is exposed (Equation (10), generalized).
        let pins = build_pins(geom, filter, bias_positive, t)?;
        let observed2 = self.victim.crossings(geom, t, &pins, grid);
        let predicted2 = predict(filter, &pins);
        let unmatched2: Vec<Crossing> = observed2
            .iter()
            .copied()
            .filter(|o| !predicted2.iter().any(|p| crossings_match(o.x, p.x, cfg)))
            .collect();
        let pin_term = formula_pin_term(geom, t, &pins, filter);
        let unmatched2 = if unmatched2.is_empty() {
            // A coincident crossing hides behind a known weight's step.
            excess_coincidences(&observed2, &predicted2, cfg)
        } else {
            unmatched2
        };
        if unmatched2.is_empty() {
            if !allow_zero {
                return None;
            }
            // Positive control: a zero conclusion is only sound if a weight of
            // either sign *would* have produced a visible crossing under these
            // pins. Inject sentinel ratios into the virtual model and demand
            // new predicted crossings.
            for sentinel in [1.0, -1.0, 0.05, -0.05] {
                let mut trial = filter.clone();
                trial.set(t.c, t.i, t.j, Some(sentinel));
                let control = predict(&trial, &pins);
                let visible = control
                    .iter()
                    .any(|p| !predicted2.iter().any(|q| crossings_match(p.x, q.x, cfg)));
                if !visible {
                    return None; // the setup is blind: do not conclude zero
                }
            }
            return Some(0.0);
        }
        // Commit a candidate only when the completed virtual model reproduces
        // the pinned observation exactly.
        for cand in &unmatched2 {
            let ratio = ratio_from_crossing(geom, t, filter, cand.x, pin_term);
            let mut trial = filter.clone();
            trial.set(t.c, t.i, t.j, Some(ratio));
            let verify = predict(&trial, &pins);
            if sets_match(&observed2, &verify, cfg) {
                return Some(ratio);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::oracle::reference::ReferenceOracle;
    use crate::weights::oracle::FunctionalOracle;
    use cnnre_nn::layer::Conv2d;
    use cnnre_tensor::rng::SmallRng;
    use cnnre_tensor::rng::{Rng, SeedableRng};
    use cnnre_tensor::{Shape3, Shape4};
    use std::cell::RefCell;

    /// One pinned attempt: the inputs of a `build_pins` call.
    type PinAttempt = (LayerGeometry, RecoveredFilter, bool, Target);

    thread_local! {
        /// `build_pins` calls on this thread while recording is on.
        static PIN_ATTEMPTS: RefCell<Option<Vec<PinAttempt>>> = const { RefCell::new(None) };
    }

    pub(super) fn record_pin_attempt(
        geom: &LayerGeometry,
        filter: &RecoveredFilter,
        bias_positive: bool,
        t: &Target,
    ) {
        PIN_ATTEMPTS.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                log.push((*geom, filter.clone(), bias_positive, t.clone()));
            }
        });
    }

    /// The reference virtual model: a whole-layer model over the recovered
    /// ratios, evaluated position by position without a [`ProbePlan`].
    fn virtual_oracle(
        geom: &LayerGeometry,
        filter: &RecoveredFilter,
        bias_positive: bool,
    ) -> ReferenceOracle {
        let (d_ifm, f) = (geom.input.c, geom.f);
        let sign = if bias_positive { 1.0f32 } else { -1.0 };
        let mut w = Tensor4::zeros(Shape4::new(1, d_ifm, f, f));
        for c in 0..d_ifm {
            for i in 0..f {
                for j in 0..f {
                    w[(0, c, i, j)] = sign * filter.ratio(c, i, j).unwrap_or(0.0) as f32;
                }
            }
        }
        let conv = Conv2d::from_parts(w, vec![sign], geom.s, geom.p).expect("virtual filter");
        ReferenceOracle::new(conv, virtual_geometry(geom))
    }

    /// Asserts that [`virtual_plan`] gives the whole-layer model's counts
    /// at `values` and its crossings, for target `t` plus `pins`.
    fn assert_virtual_probe_exact(
        geom: &LayerGeometry,
        filter: &RecoveredFilter,
        bias_positive: bool,
        t: &Target,
        pins: &[Probe],
        values: &[f32],
    ) {
        let reference = virtual_oracle(geom, filter, bias_positive);
        let probe = virtual_plan(geom, filter, bias_positive, t, pins);
        let mut probes = vec![Probe {
            c: t.c,
            y: t.y,
            x: t.x,
            value: 0.0,
        }];
        probes.extend_from_slice(pins);
        for &x in values {
            probes[0].value = x;
            assert_eq!(
                probe.count(x),
                reference.count(0, &probes),
                "x = {x}, target {t:?}, pins {pins:?}, {geom:?}"
            );
        }
        let grid = ProbeGrid::new(&SearchConfig::default());
        let expected = search_crossings(
            &virtual_geometry(geom),
            t,
            pins,
            |probes| reference.count(0, probes),
            &grid,
        );
        assert_eq!(
            virtual_crossings(geom, filter, bias_positive, t, pins, &grid),
            expected,
            "target {t:?}, pins {pins:?}, {geom:?}"
        );
    }

    fn make_geom(
        input: Shape3,
        d: usize,
        f: usize,
        s: usize,
        p: usize,
        pool: Option<(PoolKind, usize, usize, usize)>,
    ) -> LayerGeometry {
        LayerGeometry {
            input,
            d_ofm: d,
            f,
            s,
            p,
            pool,
            order: MergedOrder::ActThenPool,
            threshold: 0.0,
        }
    }

    fn victim(
        geom: &LayerGeometry,
        rng: &mut SmallRng,
        zero_fraction: f64,
        negative_bias: bool,
    ) -> Conv2d {
        let shape = Shape4::new(geom.d_ofm, geom.input.c, geom.f, geom.f);
        let weights = if zero_fraction > 0.0 {
            cnnre_tensor::init::compressed_conv(rng, shape, zero_fraction, 8)
        } else {
            cnnre_tensor::init::he_conv(rng, shape)
        };
        let bias: Vec<f32> = (0..geom.d_ofm)
            .map(|_| {
                let b = rng.gen_range(0.05..0.5f32);
                if negative_bias {
                    -b
                } else {
                    b
                }
            })
            .collect();
        Conv2d::from_parts(weights, bias, geom.s, geom.p).expect("victim conv")
    }

    fn check_recovery(geom: LayerGeometry, seed: u64, zero_fraction: f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let conv = victim(&geom, &mut rng, zero_fraction, true);
        let mut oracle = FunctionalOracle::new(conv.clone(), geom);
        let recovery = recover_ratios(&mut oracle, &RecoveryConfig::default());
        assert!(
            recovery.coverage() > 0.999,
            "coverage {} for {geom:?}",
            recovery.coverage()
        );
        let err = recovery.max_ratio_error(conv.weights(), conv.bias());
        assert!(err < 2f64.powi(-10), "max w/b error {err:.3e} for {geom:?}");
        // Identified zeros are really zero.
        for (d, f) in recovery.filters.iter().enumerate() {
            for c in 0..geom.input.c {
                for i in 0..geom.f {
                    for j in 0..geom.f {
                        if f.ratio(c, i, j) == Some(0.0) {
                            assert_eq!(conv.weights()[(d, c, i, j)], 0.0, "({d},{c},{i},{j})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn recovers_1x1_conv_ratios() {
        // The paper's Figure-6a case.
        check_recovery(make_geom(Shape3::new(1, 6, 6), 3, 1, 1, 0, None), 1, 0.0);
    }

    #[test]
    fn recovers_3x3_conv_ratios() {
        // The paper's Figure-6b general case, no pooling.
        check_recovery(make_geom(Shape3::new(2, 10, 10), 2, 3, 1, 0, None), 2, 0.0);
    }

    #[test]
    fn recovers_strided_conv_with_padding() {
        check_recovery(make_geom(Shape3::new(1, 11, 11), 2, 3, 2, 1, None), 3, 0.0);
    }

    #[test]
    fn recovers_through_max_pooling() {
        // Merged 2x2/s2 max pooling (the paper's Equation (10) scenario).
        check_recovery(
            make_geom(
                Shape3::new(1, 12, 12),
                2,
                3,
                1,
                0,
                Some((PoolKind::Max, 2, 2, 0)),
            ),
            4,
            0.0,
        );
    }

    #[test]
    fn recovers_through_overlapping_max_pooling() {
        // AlexNet-style 3x3/s2 overlapped pooling with a strided conv.
        check_recovery(
            make_geom(
                Shape3::new(1, 23, 23),
                2,
                5,
                2,
                0,
                Some((PoolKind::Max, 3, 2, 0)),
            ),
            5,
            0.0,
        );
    }

    #[test]
    fn recovers_through_average_pooling() {
        // The paper's Equation (11): average pooling over pre-activation.
        let mut geom = make_geom(
            Shape3::new(1, 12, 12),
            2,
            3,
            1,
            0,
            Some((PoolKind::Avg, 2, 2, 0)),
        );
        geom.order = MergedOrder::PoolThenAct;
        check_recovery(geom, 6, 0.0);
    }

    #[test]
    fn detects_zero_weights_from_missing_crossings() {
        let geom = make_geom(Shape3::new(1, 10, 10), 2, 3, 1, 0, None);
        let mut rng = SmallRng::seed_from_u64(7);
        let conv = victim(&geom, &mut rng, 0.4, true);
        let zero_count = conv
            .weights()
            .as_slice()
            .iter()
            .filter(|&&w| w == 0.0)
            .count();
        assert!(zero_count > 0, "victim has zero weights");
        let mut oracle = FunctionalOracle::new(conv.clone(), geom);
        let recovery = recover_ratios(&mut oracle, &RecoveryConfig::default());
        let mut zeros_found = 0;
        for (d, f) in recovery.filters.iter().enumerate() {
            for c in 0..1 {
                for i in 0..3 {
                    for j in 0..3 {
                        if conv.weights()[(d, c, i, j)] == 0.0 {
                            assert_eq!(f.ratio(c, i, j), Some(0.0), "({d},{c},{i},{j})");
                            zeros_found += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(zeros_found, zero_count);
        assert!(recovery.max_ratio_error(conv.weights(), conv.bias()) < 2f64.powi(-10));
    }

    #[test]
    fn positive_bias_works_without_pooling() {
        // Without pooling the isolated output is a single tap, so crossings
        // exist for either bias sign.
        let geom = make_geom(Shape3::new(1, 10, 10), 2, 3, 1, 0, None);
        let mut rng = SmallRng::seed_from_u64(8);
        let conv = victim(&geom, &mut rng, 0.0, false);
        let mut oracle = FunctionalOracle::new(conv.clone(), geom);
        let recovery = recover_ratios(&mut oracle, &RecoveryConfig::default());
        assert!(recovery.bias_positive.iter().all(|&b| b));
        assert!(recovery.coverage() > 0.999);
        assert!(recovery.max_ratio_error(conv.weights(), conv.bias()) < 2f64.powi(-10));
    }

    #[test]
    fn end_to_end_against_the_accelerator_oracle() {
        // The same attack, consuming the real pruned-trace leak.
        let geom = make_geom(Shape3::new(1, 8, 8), 2, 3, 1, 0, None);
        let mut rng = SmallRng::seed_from_u64(9);
        let conv = victim(&geom, &mut rng, 0.3, true);
        let mut oracle = crate::weights::oracle::AcceleratorOracle::new(conv.clone(), geom);
        let recovery = recover_ratios(&mut oracle, &RecoveryConfig::default());
        assert!(recovery.coverage() > 0.999);
        assert!(
            recovery.max_ratio_error(conv.weights(), conv.bias()) < 2f64.powi(-10),
            "err {}",
            recovery.max_ratio_error(conv.weights(), conv.bias())
        );
    }

    /// Runs both searches for a single probe at every input pixel of every
    /// filter; they must agree exactly, and the monotone one must send
    /// fewer queries in total.
    fn assert_monotone_search_is_exact(oracle: &mut dyn ZeroCountOracle) {
        let geom = oracle.geometry();
        assert!(count_is_monotone(&geom, &[]), "{geom:?}");
        let grid = ProbeGrid::new(&SearchConfig::default());
        let (mut full_queries, mut mono_queries) = (0u64, 0u64);
        for d in 0..geom.d_ofm {
            for c in 0..geom.input.c {
                for y in 0..geom.input.h {
                    for x in 0..geom.input.w {
                        let mut search = |monotone: bool| {
                            let start = oracle.query_count();
                            let count = |value| oracle.query_filter(d, &[Probe { c, y, x, value }]);
                            let crossings = if monotone {
                                find_monotone_crossings(count, &grid)
                            } else {
                                find_crossings(count, &grid)
                            };
                            (crossings, oracle.query_count() - start)
                        };
                        let (full, nf) = search(false);
                        let (mono, nm) = search(true);
                        assert_eq!(mono, full, "filter {d} pixel ({c},{y},{x}) of {geom:?}");
                        full_queries += nf;
                        mono_queries += nm;
                    }
                }
            }
        }
        assert!(
            2 * mono_queries < full_queries,
            "{mono_queries} vs {full_queries} queries for {geom:?}"
        );
    }

    #[test]
    fn monotone_search_is_exact_on_functional_oracles() {
        let layers = [
            make_geom(Shape3::new(2, 7, 7), 2, 3, 1, 0, None),
            make_geom(
                Shape3::new(1, 9, 9),
                2,
                3,
                1,
                0,
                Some((PoolKind::Max, 2, 2, 0)),
            ),
            make_geom(
                Shape3::new(1, 11, 11),
                2,
                3,
                2,
                0,
                Some((PoolKind::Max, 3, 2, 0)),
            ),
        ];
        let mut rng = SmallRng::seed_from_u64(0x15);
        for base in layers {
            for (negative_bias, threshold) in [(true, 0.0), (false, 0.0), (false, 0.25)] {
                let geom = LayerGeometry { threshold, ..base };
                let conv = victim(&geom, &mut rng, 0.3, negative_bias);
                assert_monotone_search_is_exact(&mut FunctionalOracle::new(conv, geom));
            }
        }
    }

    #[test]
    fn monotone_search_is_exact_on_the_accelerator_oracle() {
        let geom = make_geom(Shape3::new(1, 6, 6), 2, 3, 1, 0, None);
        let mut rng = SmallRng::seed_from_u64(0x16);
        let conv = victim(&geom, &mut rng, 0.3, true);
        assert_monotone_search_is_exact(&mut crate::weights::oracle::AcceleratorOracle::new(
            conv, geom,
        ));
    }

    #[test]
    fn pinned_and_average_pooled_searches_keep_the_full_grid() {
        // Probe at (1, 1) of a 3×3 input under a 2×2 filter: tap (0, 0)
        // sees weight -1, tap (1, 1) weight +1. A pin of 3 at (0, 0) lifts
        // only tap (0, 0) to offset +2, so on x > 0 one tap switches on
        // at 1 and the other off at 2: the count goes 1, 2, 1.
        let geom = make_geom(Shape3::new(1, 3, 3), 1, 2, 1, 0, None);
        let weights = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 0.0, 0.0, -1.0])
            .expect("2x2 filter");
        let conv = Conv2d::from_parts(weights, vec![-1.0], 1, 0).expect("victim conv");
        let mut oracle = FunctionalOracle::new(conv, geom);
        let pins = [Probe {
            c: 0,
            y: 0,
            x: 0,
            value: 3.0,
        }];
        let t = Target {
            c: 0,
            i: 0,
            j: 0,
            y: 1,
            x: 1,
            tap: (1, 1),
            corner: Vec::new(),
        };
        let grid = ProbeGrid::new(&SearchConfig::default());
        let mut pinned_count = |v: f32| {
            oracle.query_filter(
                0,
                &[
                    Probe {
                        c: 0,
                        y: 1,
                        x: 1,
                        value: v,
                    },
                    pins[0],
                ],
            )
        };
        let full = find_crossings(&mut pinned_count, &grid);
        assert_eq!(full.len(), 2, "{full:?}");
        assert!(find_monotone_crossings(&mut pinned_count, &grid).is_empty());
        assert!(!count_is_monotone(&geom, &pins));
        let searched = search_crossings(
            &geom,
            &t,
            &pins,
            |probes| oracle.query_filter(0, probes),
            &grid,
        );
        assert_eq!(searched, full);

        let mut avg = make_geom(
            Shape3::new(1, 12, 12),
            1,
            3,
            1,
            0,
            Some((PoolKind::Avg, 2, 2, 0)),
        );
        assert!(!count_is_monotone(&avg, &[]));
        avg.order = MergedOrder::PoolThenAct;
        assert!(!count_is_monotone(&avg, &[]));
        let negative_threshold = LayerGeometry {
            threshold: -0.5,
            ..geom
        };
        assert!(!count_is_monotone(&negative_threshold, &[]));
        assert!(count_is_monotone(&geom, &[]));
    }

    #[test]
    fn virtual_probe_matches_the_whole_layer_model() {
        let pooled = |input, f, s, p, pool, order| LayerGeometry {
            order,
            ..make_geom(input, 1, f, s, p, Some(pool))
        };
        let max22 = (PoolKind::Max, 2, 2, 0);
        let avg22 = (PoolKind::Avg, 2, 2, 0);
        let (act_pool, pool_act) = (MergedOrder::ActThenPool, MergedOrder::PoolThenAct);
        // (geometry, positive bias)
        let layers = [
            (make_geom(Shape3::new(2, 10, 10), 1, 3, 1, 0, None), false),
            (make_geom(Shape3::new(1, 11, 11), 1, 3, 2, 1, None), false),
            (
                pooled(Shape3::new(2, 12, 12), 3, 1, 0, max22, act_pool),
                false,
            ),
            (
                pooled(
                    Shape3::new(1, 23, 23),
                    5,
                    2,
                    0,
                    (PoolKind::Max, 3, 2, 0),
                    act_pool,
                ),
                false,
            ),
            (
                pooled(Shape3::new(1, 12, 12), 3, 1, 0, avg22, act_pool),
                false,
            ),
            (
                pooled(Shape3::new(2, 12, 12), 3, 1, 0, avg22, pool_act),
                false,
            ),
            (
                pooled(Shape3::new(1, 12, 12), 3, 1, 0, max22, act_pool),
                true,
            ),
            (
                LayerGeometry {
                    threshold: 0.25,
                    ..pooled(Shape3::new(1, 13, 13), 3, 1, 1, max22, act_pool)
                },
                true,
            ),
        ];
        let values = [
            -4096.0, -3.5, -0.75, -1e-4, 0.0, 2e-3, 0.5, 1.25, 9.0, 4096.0,
        ];
        let mut rng = SmallRng::seed_from_u64(0x17);
        let mut pinned = 0;
        for (geom, positive) in layers {
            let conv = victim(&geom, &mut rng, 0.3, !positive);
            let b = f64::from(conv.bias()[0]) - f64::from(geom.threshold);
            let truth = |c, i, j| f64::from(conv.weights()[(0, c, i, j)]) / b;
            for c in 0..geom.input.c {
                for i in 0..geom.f {
                    for j in 0..geom.f {
                        // Mid-attack state: the target and every third weight
                        // unknown, the rest recovered; then the verification
                        // state, with the target filled in.
                        let mut filter = RecoveredFilter::new(geom.input.c, geom.f);
                        for (k, r) in filter.ratios.iter_mut().enumerate() {
                            let (kc, ki, kj) =
                                (k / (geom.f * geom.f), k / geom.f % geom.f, k % geom.f);
                            if k % 3 != 0 {
                                *r = Some(truth(kc, ki, kj));
                            }
                        }
                        filter.set(c, i, j, None);
                        let mut trial = filter.clone();
                        trial.set(c, i, j, Some(truth(c, i, j)));
                        for t in candidate_targets(&geom, c, i, j).into_iter().flatten() {
                            for state in [&filter, &trial] {
                                assert_virtual_probe_exact(
                                    &geom,
                                    state,
                                    positive,
                                    &t,
                                    &[],
                                    &values,
                                );
                            }
                            // Two moderate pins near the target pixel (one may
                            // land on it): their terms are the size of the
                            // target's, so the f32 summation order shows.
                            let near = |rng: &mut SmallRng, v: usize, len: usize| {
                                (v + rng.gen_range(0..2 * geom.f))
                                    .saturating_sub(geom.f)
                                    .min(len - 1)
                            };
                            let moderate: Vec<Probe> = (0..2)
                                .map(|_| Probe {
                                    c: rng.gen_range(0..geom.input.c),
                                    y: near(&mut rng, t.y, geom.input.h),
                                    x: near(&mut rng, t.x, geom.input.w),
                                    value: rng.gen_range(-3.0..3.0),
                                })
                                .collect();
                            assert_virtual_probe_exact(
                                &geom, &trial, positive, &t, &moderate, &values,
                            );
                            let Some(pins) = build_pins(&geom, &filter, positive, &t) else {
                                continue;
                            };
                            pinned += usize::from(!pins.is_empty());
                            for state in [&filter, &trial] {
                                assert_virtual_probe_exact(
                                    &geom, state, positive, &t, &pins, &values,
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(pinned > 100, "only {pinned} pinned probe sets");
    }

    /// The reference pin selection: every admissible candidate collected,
    /// then the first with a zero target-tap contribution kept.
    fn reference_pins(
        geom: &LayerGeometry,
        filter: &RecoveredFilter,
        bias_positive: bool,
        t: &Target,
    ) -> Option<Vec<Pin>> {
        let affected = affected_taps(geom, t);
        let is_unknown = |v: (usize, usize)| {
            t.probe_weight_at(geom, v)
                .is_some_and(|(fy, fx)| filter.ratio(t.c, fy, fx).is_none())
        };
        let mut pin_taps: Vec<(usize, usize)> = Vec::new();
        for &v in &affected {
            if is_unknown(v) {
                pin_taps.push(v);
            }
        }
        for &v in &t.corner {
            if (bias_positive || affected.contains(&v)) && !pin_taps.contains(&v) {
                pin_taps.push(v);
            }
        }
        let known = |ch: usize, fy: isize, fx: isize| -> Option<f64> {
            if fy < 0 || fx < 0 || fy as usize >= geom.f || fx as usize >= geom.f {
                return Some(0.0);
            }
            if ch == t.c && (fy as usize, fx as usize) == (t.i, t.j) {
                return None;
            }
            filter.ratio(ch, fy as usize, fx as usize)
        };
        let must_be_known: Vec<(usize, usize)> = pin_taps
            .iter()
            .copied()
            .chain(t.corner.iter().copied())
            .chain(core::iter::once(t.tap))
            .collect();
        let contribution_via = |ch: usize,
                                a: usize,
                                b2: usize,
                                (uy, ux): (usize, usize),
                                (vy, vx): (usize, usize)|
         -> Option<f64> {
            let fy = a as isize + geom.s as isize * (uy as isize - vy as isize);
            let fx = b2 as isize + geom.s as isize * (ux as isize - vx as isize);
            known(ch, fy, fx)
        };
        let candidates_for = |u: (usize, usize), taken: &[Pin]| -> Vec<Pin> {
            let mut out = Vec::new();
            let mut channels: Vec<usize> = (0..geom.input.c).collect();
            channels.sort_by_key(|&ch| if ch == t.c { 0 } else { 1 });
            for ch in channels {
                for a in (0..geom.f).rev() {
                    for b2 in (0..geom.f).rev() {
                        let Some(r) = known(ch, a as isize, b2 as isize) else {
                            continue;
                        };
                        if r == 0.0 {
                            continue;
                        }
                        let py = (u.0 * geom.s + a).checked_sub(geom.p);
                        let px = (u.1 * geom.s + b2).checked_sub(geom.p);
                        let (Some(py), Some(px)) = (py, px) else {
                            continue;
                        };
                        if py >= geom.input.h || px >= geom.input.w {
                            continue;
                        }
                        if ch == t.c && (py, px) == (t.y, t.x) {
                            continue;
                        }
                        if taken
                            .iter()
                            .any(|&(qc, qy, qx, ..)| (qc, qy, qx) == (ch, py, px))
                        {
                            continue;
                        }
                        if must_be_known
                            .iter()
                            .all(|&v| contribution_via(ch, a, b2, u, v).is_some())
                        {
                            out.push((ch, py, px, a, b2, u));
                        }
                    }
                }
            }
            out
        };
        let mut pin_pos: Vec<Pin> = Vec::new();
        for &u in &pin_taps {
            let zero_target = candidates_for(u, &pin_pos)
                .into_iter()
                .find(|&(ch, _, _, a, b2, _)| contribution_via(ch, a, b2, u, t.tap) == Some(0.0))?;
            pin_pos.push(zero_target);
        }
        Some(pin_pos)
    }

    #[test]
    fn pin_scan_selects_the_reference_pin() {
        let max = |f_p| Some((PoolKind::Max, f_p, 2, 0));
        let mut avg = make_geom(
            Shape3::new(1, 12, 12),
            2,
            3,
            1,
            0,
            Some((PoolKind::Avg, 2, 2, 0)),
        );
        avg.order = MergedOrder::PoolThenAct;
        // The pooled recovery fixtures above, a two-channel layer (pins
        // from other channels) and a positive bias under a raised
        // threshold: (geometry, seed, negative bias).
        let fixtures = [
            (
                make_geom(Shape3::new(1, 12, 12), 2, 3, 1, 0, max(2)),
                4,
                true,
            ),
            (
                make_geom(Shape3::new(1, 23, 23), 2, 5, 2, 0, max(3)),
                5,
                true,
            ),
            (avg, 6, true),
            (
                make_geom(Shape3::new(2, 12, 12), 2, 3, 1, 0, max(2)),
                10,
                true,
            ),
            (
                LayerGeometry {
                    threshold: 0.25,
                    ..make_geom(Shape3::new(1, 12, 12), 2, 3, 1, 0, max(2))
                },
                11,
                false,
            ),
        ];
        PIN_ATTEMPTS.with(|log| *log.borrow_mut() = Some(Vec::new()));
        for (geom, seed, negative_bias) in fixtures {
            let mut rng = SmallRng::seed_from_u64(seed);
            let conv = victim(&geom, &mut rng, 0.0, negative_bias);
            let mut oracle = FunctionalOracle::new(conv, geom);
            let _ = recover_ratios(&mut oracle, &RecoveryConfig::default());
        }
        let attempts = PIN_ATTEMPTS
            .with(|log| log.borrow_mut().take())
            .expect("recording");
        let mut pins_placed = 0;
        for (geom, filter, bias_positive, t) in &attempts {
            let expected = reference_pins(geom, filter, *bias_positive, t);
            let selected = PinSearch::new(geom, filter, *bias_positive, t).select();
            assert_eq!(selected, expected, "target {t:?} of {geom:?}");
            pins_placed += selected.map_or(0, |pins| pins.len());
        }
        assert!(
            attempts.len() > 100 && pins_placed > 100,
            "{} attempts, {pins_placed} pins",
            attempts.len()
        );
    }

    /// A [`FunctionalOracle`] that records every single-filter query.
    struct RecordingOracle {
        inner: FunctionalOracle,
        queries: Vec<(usize, Vec<Probe>)>,
    }

    impl ZeroCountOracle for RecordingOracle {
        fn geometry(&self) -> LayerGeometry {
            self.inner.geometry()
        }

        fn query(&mut self, probes: &[Probe]) -> Vec<u64> {
            self.inner.query(probes)
        }

        fn query_filter(&mut self, filter: usize, probes: &[Probe]) -> u64 {
            self.queries.push((filter, probes.to_vec()));
            self.inner.query_filter(filter, probes)
        }

        fn query_count(&self) -> u64 {
            self.inner.query_count()
        }
    }

    #[test]
    fn no_victim_search_is_sent_twice() {
        // The overlapping max-pooling layer, 45% pruned: zeros leave
        // weights masked past pass 2, so the fixpoint rounds and the final
        // zero pass run and retry their unresolved weights.
        let geom = make_geom(
            Shape3::new(1, 23, 23),
            2,
            5,
            2,
            0,
            Some((PoolKind::Max, 3, 2, 0)),
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let conv = victim(&geom, &mut rng, 0.45, true);
        let mut oracle = RecordingOracle {
            inner: FunctionalOracle::new(conv, geom),
            queries: Vec::new(),
        };
        let recovery = recover_ratios(&mut oracle, &RecoveryConfig::default());
        // A search is a maximal run of queries of one filter with the same
        // target pixel and pins; its key is what the victim's answer
        // depends on.
        type Key = (
            usize,
            (usize, usize, usize),
            Vec<(usize, usize, usize, u32)>,
        );
        let key = |(d, probes): &(usize, Vec<Probe>)| -> Key {
            let pixel = (probes[0].c, probes[0].y, probes[0].x);
            let pins = probes[1..]
                .iter()
                .map(|q| (q.c, q.y, q.x, q.value.to_bits()))
                .collect();
            (*d, pixel, pins)
        };
        let mut searches: Vec<Key> = Vec::new();
        for query in &oracle.queries {
            let k = key(query);
            if searches.last() != Some(&k) {
                searches.push(k);
            }
        }
        let pinned = searches.iter().filter(|(_, _, pins)| !pins.is_empty());
        assert!(pinned.count() > 50, "{} searches", searches.len());
        let mut sorted = searches.clone();
        sorted.sort_unstable();
        let repeats = sorted.windows(2).filter(|w| w[0] == w[1]).count();
        assert_eq!(repeats, 0, "of {} victim searches", searches.len());
        // The ratios, bit for bit, as recovered before searches were
        // remembered.
        let bits: Vec<Option<u64>> = recovery
            .filters
            .iter()
            .flat_map(|f| f.as_slice().iter().map(|r| r.map(f64::to_bits)))
            .collect();
        let expected = [
            Some(0x0),
            Some(0x0),
            Some(0x0),
            Some(0x3ff7e75036ad55d9),
            Some(0x3ff2aae3e518dacf),
            Some(0x0),
            Some(0xbffd23bbbda41b5c),
            Some(0x0),
            Some(0x0),
            Some(0x0),
            Some(0x0),
            Some(0x3ff5a0852c2e5b2c),
            Some(0xbff64f5b3e5f4388),
            Some(0x0),
            Some(0xbffb1739273d6311),
            Some(0xbffa2e1a52b59c7a),
            Some(0xbff3ce49982b928c),
            Some(0x0),
            Some(0x3ff47d1fa039087f),
            Some(0x0),
            Some(0x3ff6fe32809cb198),
            Some(0xbffd23bbbda41b5c),
            Some(0x3ff31f7389d4c501),
            Some(0xbff689a309236e86),
            Some(0x3ff47d1fa039087f),
            Some(0x0),
            Some(0xc015f688f7d5849e),
            Some(0x40130584cdfb7700),
            Some(0x0),
            Some(0xc01141b48fc32d0c),
            Some(0x400723be3ab6319d),
            Some(0x400e9763a75e8cd7),
            Some(0xc0181ebffa604e4d),
            Some(0x0),
            Some(0xc017ba58b8944db3),
            None,
            None,
            None,
            Some(0x40130584cdfb7700),
            Some(0x401919c1918ed1ba),
            Some(0x0),
            Some(0x0),
            Some(0x0),
            Some(0x4005f689037924a5),
            Some(0x0),
            Some(0xc00a46f671e90d32),
            Some(0x400ca160cb4d3c77),
            Some(0xc0181ebffa604e4d),
            Some(0x40120a82d767c8cc),
            Some(0x0),
        ];
        assert_eq!(bits, expected);
    }
}
