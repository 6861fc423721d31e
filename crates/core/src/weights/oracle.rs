//! The zero-count oracle: what dynamic zero pruning leaks.
//!
//! With zero pruning, the accelerator writes only non-zero output pixels
//! back to DRAM, so the number of OFM write transactions reveals the
//! non-zero count (§4: "the dynamic zero pruning reveals the number of
//! zeros in OFM"). Because the engine compresses and writes the output
//! per output channel (one weight-load/compute/store burst per filter when
//! the weight buffer holds one filter), the transaction stream additionally
//! attributes the count to individual filters — the adversary just counts
//! writes between consecutive weight-fetch bursts.
//!
//! Two implementations:
//!
//! * [`FunctionalOracle`] — a fast functional model exploiting probe
//!   sparsity. The queries of one crossing search differ only in the
//!   target pixel's value, so it plans the search's footprint once (a
//!   `ProbePlan`, the planner the attacker's virtual model uses too) and
//!   each query counts only the windows the target reaches, from where
//!   each switches when it can. Used by the search loops (millions of
//!   queries).
//! * [`AcceleratorOracle`] — runs the full accelerator simulator with zero
//!   pruning and counts each filter's writes from the engine's DRAM
//!   transactions as they are issued, exactly as a bus-snooping adversary
//!   would. It is the real leak path: `cnnre attack-weights --via-trace`
//!   and the `lenet-e2e` benchmark run the attack through it, and tests
//!   check that it agrees with the functional model.

use cnnre_accel::{AccelConfig, Accelerator, Region, RegionKind, Schedule};
use cnnre_nn::layer::{Conv2d, PoolKind};
use cnnre_nn::{Network, NetworkBuilder};
use cnnre_tensor::{Shape3, Tensor3};
use cnnre_trace::{EventSink, MemoryEvent};
use core::ops::Range;

/// One non-zero input pixel of a crafted probe input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Input channel.
    pub c: usize,
    /// Input row.
    pub y: usize,
    /// Input column.
    pub x: usize,
    /// Pixel value.
    pub value: f32,
}

/// How a merged pooling stage composes with the activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergedOrder {
    /// `pool(relu(conv))` — the usual order; for max pooling the two
    /// compositions are identical.
    ActThenPool,
    /// `relu(pool(conv))` — the composition of the paper's Equation (11)
    /// (average pooling over pre-activation values).
    PoolThenAct,
}

/// The target layer's geometry, known to the adversary (Table 1: the
/// weights attack assumes the structure is known — e.g. recovered by the
/// structure attack first).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerGeometry {
    /// Input feature-map shape.
    pub input: Shape3,
    /// Number of filters.
    pub d_ofm: usize,
    /// Filter width.
    pub f: usize,
    /// Convolution stride.
    pub s: usize,
    /// Convolution per-side padding.
    pub p: usize,
    /// Merged pooling, if any: `(kind, F_pool, S_pool, P_pool)`.
    pub pool: Option<(PoolKind, usize, usize, usize)>,
    /// Order of activation vs pooling.
    pub order: MergedOrder,
    /// Activation threshold (0 for plain ReLU).
    pub threshold: f32,
}

impl LayerGeometry {
    /// The convolution output width.
    #[must_use]
    pub fn conv_out_w(&self) -> Option<usize> {
        cnnre_nn::geometry::conv_out(self.input.w, self.f, self.s, self.p)
    }

    /// The final (post-pool) output width.
    #[must_use]
    pub fn final_out_w(&self) -> Option<usize> {
        let c = self.conv_out_w()?;
        match self.pool {
            None => Some(c),
            Some((_, f, s, p)) => cnnre_nn::geometry::pool_out(c, f, s, p),
        }
    }
}

/// The adversary's interface to the victim: feed a crafted input, observe
/// per-filter non-zero output counts through the pruning side channel.
///
/// Answers must be a pure function of `(filter, probes)`: the same probes,
/// in the same order with the same value bits, give the same count every
/// time. The functional model, the accelerator simulator and the paper's
/// hardware all behave so. The weight attack relies on it: it remembers the
/// victim's crossings for each search of a filter and does not send a
/// search it has already sent.
pub trait ZeroCountOracle {
    /// The known target-layer geometry.
    fn geometry(&self) -> LayerGeometry;

    /// Feeds an input that is zero except at `probes`; returns the non-zero
    /// pixel count of each filter's final output plane.
    fn query(&mut self, probes: &[Probe]) -> Vec<u64>;

    /// Single-filter variant (implementations may specialize for speed).
    fn query_filter(&mut self, filter: usize, probes: &[Probe]) -> u64 {
        self.query(probes)[filter]
    }

    /// Number of inference queries issued so far.
    fn query_count(&self) -> u64;
}

/// The outputs `lo..=hi` (`hi` clamped to `last`) whose `k`-wide window,
/// at stride `s` and per-side padding `pad`, covers input position `pos`;
/// none when `lo > hi`.
pub(crate) fn covering(pos: usize, k: usize, s: usize, pad: usize, last: usize) -> (usize, usize) {
    (
        (pos + pad).saturating_sub(k - 1).div_ceil(s),
        ((pos + pad) / s).min(last),
    )
}

/// The input rows (or columns) inside `0..n` of the `k`-wide window of
/// output `out`, at stride `s` and per-side padding `pad`.
pub(crate) fn window_cells(out: usize, k: usize, s: usize, pad: usize, n: usize) -> Range<usize> {
    let start = out * s;
    start.saturating_sub(pad)..(start + k).min(n + pad).saturating_sub(pad)
}

/// The pruned layer's output at one final position: `tap(cy, cx)` gives
/// the conv value of each tap of the position's pool window that exists,
/// visited row-major over `rows × cols` (one tap when the layer has no
/// merged pool). Activation and pooling follow `geom.pool`, `geom.order`
/// and `geom.threshold`. Every [`ProbePlan`] count and the victim's
/// baseline evaluate windows here, so the f32 arithmetic of the victim's
/// [`FunctionalOracle`] and of the weight attack's virtual model cannot
/// drift apart.
pub(crate) fn window_output(
    geom: &LayerGeometry,
    rows: Range<usize>,
    cols: Range<usize>,
    mut tap: impl FnMut(usize, usize) -> f32,
) -> f32 {
    let act = |v: f32| if v > geom.threshold { v } else { 0.0 };
    let Some((kind, f_p, ..)) = geom.pool else {
        return act(tap(rows.start, cols.start));
    };
    let mut m = f32::NEG_INFINITY;
    let mut sum = 0.0f32;
    let mut any = false;
    for cy in rows {
        for cx in cols.clone() {
            let mut v = tap(cy, cx);
            if geom.order == MergedOrder::ActThenPool {
                v = act(v);
            }
            m = m.max(v);
            sum += v;
            any = true;
        }
    }
    let pooled = match kind {
        PoolKind::Max => {
            if any {
                m
            } else {
                0.0
            }
        }
        PoolKind::Avg => sum / (f_p * f_p) as f32,
    };
    match geom.order {
        MergedOrder::ActThenPool => pooled.max(0.0),
        MergedOrder::PoolThenAct => act(pooled),
    }
}

/// Packs probe pixel `(c, y, x)` of an `input`-shaped layer and a value
/// into one key word, the pixel index above the value's bits. Pixel
/// indices must fit 32 bits ([`keyable`]).
pub(crate) fn probe_key(input: Shape3, c: usize, y: usize, x: usize, value: f32) -> u64 {
    ((((c * input.h + y) * input.w + x) as u64) << 32) | u64::from(value.to_bits())
}

/// Whether every pixel index of `input` fits the 32 bits [`probe_key`]
/// keeps for it.
pub(crate) fn keyable(input: Shape3) -> bool {
    u32::try_from(input.len()).is_ok()
}

/// One conv tap of a [`ProbePlan`] window.
#[derive(Debug, Clone, Copy)]
enum Tap {
    /// A tap the target pixel does not reach: its value is fixed.
    Const(f32),
    /// A tap the target pixel reaches through weight `w`, plus the pin
    /// terms `terms` (a range of [`ProbePlan::terms`]).
    Live { w: f32, terms: (usize, usize) },
}

/// One filter's output count over one crossing search, planned once: the
/// target pixel at a variable value `x` plus fixed pins (the paper's
/// Eq. (9)).
///
/// It is the one footprint planner of the weight attack. The victim's
/// [`FunctionalOracle`] plans from the true weights, bias, threshold and
/// its baseline plane; the attacker's virtual model plans from recovered
/// ratios (`weights/recover.rs`). Only the windows the probes reach are
/// held, in window order. A conv tap the target reaches evaluates as
/// `((b + w·x) + term₁) + …`, with the pin terms `fl(w_k·v_k)` in pin
/// order: the f32 order of adding the probes one by one, target first.
/// Every other tap is a constant folded in the same order, and a tap no
/// probe reaches is `b`. Windows go through [`window_output`]. A reached
/// window with no live tap is evaluated once, and a window no probe
/// reaches keeps its baseline. So a count equals that of recomputing
/// every reached output from the probes, and it allocates nothing.
///
/// Where every window is an OR of its taps, the plan also holds where
/// each window switches ([`Switches`]), and a count compares `x` with
/// those keys instead of evaluating the windows.
#[derive(Debug, Clone)]
pub(crate) struct ProbePlan {
    geom: LayerGeometry,
    bias: f32,
    /// Pin terms `fl(w_k·v_k)` of the live taps, in pin order.
    terms: Vec<f32>,
    /// The taps of every window holding a live tap, in window order, each
    /// window's taps row-major.
    taps: Vec<Tap>,
    /// Each window holding a live tap: its first tap in `taps`, and its
    /// rows and columns of taps.
    windows: Vec<(usize, usize, usize)>,
    /// Non-zero outputs that do not depend on `x`.
    base: u64,
    /// Where the windows switch, if each is an OR of its taps.
    switches: Option<Switches>,
}

/// Where the windows of a [`ProbePlan`] switch, as [`order_key`]s of the
/// target value `x`: a window is on at every finite `x`, or iff
/// `key(x) ≥ up` or `key(x) ≤ dn`, with `dn < up` when it has both.
#[derive(Debug, Clone, Default)]
struct Switches {
    /// Windows on at every finite `x`.
    always: u64,
    /// Each other window's least key at which a rising tap is on, sorted.
    ups: Vec<u32>,
    /// Each other window's greatest key at which a falling tap is on,
    /// sorted.
    dns: Vec<u32>,
}

impl Switches {
    /// The windows on at key `k`; `dn < up` keeps a window from counting
    /// twice.
    fn count(&self, k: u32) -> u64 {
        let up = self.ups.partition_point(|&u| u <= k);
        let dn = self.dns.len() - self.dns.partition_point(|&d| d < k);
        self.always + (up + dn) as u64
    }
}

/// A key of the non-NaN `f32`s that orders them as `<` does, with `-0.0`
/// just below `+0.0`.
const fn order_key(x: f32) -> u32 {
    let bits = x.to_bits();
    if bits >> 31 == 0 {
        bits | 1 << 31
    } else {
        !bits
    }
}

/// The `f32` of an [`order_key`].
const fn from_order_key(k: u32) -> f32 {
    f32::from_bits(if k >> 31 == 1 { k & !(1 << 31) } else { !k })
}

/// The keys of the least and the greatest finite `f32`.
const LOWEST: u32 = order_key(f32::MIN);
const HIGHEST: u32 = order_key(f32::MAX);
/// The `up` and `dn` of a side on which a tap or window is never on.
const NEVER_UP: u32 = HIGHEST + 1;
const NEVER_DN: u32 = LOWEST - 1;

/// The least key in `LOWEST..=HIGHEST` at which `on` holds, or
/// [`NEVER_UP`] if none does, for an `on` that never turns off again
/// once on. Gallops from `guess` away from its side of the switch until
/// the switch is bracketed, then bisects; `on` sees finite keys only.
fn first_on(guess: u32, on: impl Fn(u32) -> bool) -> u32 {
    let guess = guess.clamp(LOWEST, HIGHEST);
    // Off at `lo` and on at `hi`, as if off below `LOWEST` and on above
    // `HIGHEST`.
    let (mut lo, mut hi) = (NEVER_DN, NEVER_UP);
    let above = on(guess);
    if above {
        hi = guess;
    } else {
        lo = guess;
    }
    let mut step = 1u32;
    loop {
        let k = if above {
            guess.saturating_sub(step)
        } else {
            guess.saturating_add(step)
        };
        if k <= lo || k >= hi {
            break;
        }
        let on_k = on(k);
        if on_k {
            hi = k;
        } else {
            lo = k;
        }
        if on_k != above {
            break;
        }
        step = step.saturating_mul(2);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if on(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

impl ProbePlan {
    /// Plans filter `weight(c, fy, fx)` with bias `bias` under `geom` (its
    /// pooling, order and threshold; `d_ofm` is ignored) for the target
    /// pixel `(tc, ty, tx)` plus `pins`. `was(py, px)` is the all-zero
    /// input's output at final position `(py, px)`, and `baseline` counts
    /// the positions where it is on.
    ///
    /// # Panics
    ///
    /// Panics when `geom` has no output.
    pub(crate) fn new(
        geom: &LayerGeometry,
        weight: impl Fn(usize, usize, usize) -> f32,
        bias: f32,
        (tc, ty, tx): (usize, usize, usize),
        pins: &[Probe],
        was: impl Fn(usize, usize) -> bool,
        baseline: u64,
    ) -> Self {
        // lint:allow(panic): documented `# Panics`; both models check the
        // geometry before they plan
        let conv_w = geom.conv_out_w().expect("valid geometry");
        let (f, s, p) = (geom.f, geom.s, geom.p);
        // The weight through which pixel (c, y, x) reaches tap (vy, vx), if
        // it does.
        let weight_at = |c: usize, y: usize, x: usize, (vy, vx): (usize, usize)| {
            let fy = (y + p).checked_sub(vy * s).filter(|&fy| fy < f)?;
            let fx = (x + p).checked_sub(vx * s).filter(|&fx| fx < f)?;
            Some(weight(c, fy, fx))
        };
        // Every reached conv tap, sorted, with its value.
        let mut reached: Vec<(usize, usize)> = Vec::new();
        for (y, x) in core::iter::once((ty, tx)).chain(pins.iter().map(|q| (q.y, q.x))) {
            let (y0, y1) = covering(y, f, s, p, conv_w - 1);
            let (x0, x1) = covering(x, f, s, p, conv_w - 1);
            reached.extend((y0..=y1).flat_map(|vy| (x0..=x1).map(move |vx| (vy, vx))));
        }
        reached.sort_unstable();
        reached.dedup();
        let mut terms = Vec::new();
        let values: Vec<Tap> = reached
            .iter()
            .map(|&v| {
                let pin_terms = pins
                    .iter()
                    .filter_map(|q| Some(weight_at(q.c, q.y, q.x, v)? * q.value));
                match weight_at(tc, ty, tx, v) {
                    Some(w) => {
                        let lo = terms.len();
                        terms.extend(pin_terms);
                        Tap::Live {
                            w,
                            terms: (lo, terms.len()),
                        }
                    }
                    None => Tap::Const(pin_terms.fold(bias, |acc, term| acc + term)),
                }
            })
            .collect();
        let tap_at = |cy: usize, cx: usize| match reached.binary_search(&(cy, cx)) {
            Ok(k) => values[k],
            Err(_) => Tap::Const(bias),
        };
        let mut plan = Self {
            geom: *geom,
            bias,
            terms,
            taps: Vec::new(),
            windows: Vec::new(),
            base: baseline,
            switches: None,
        };
        match geom.pool {
            None => {
                for &(cy, cx) in &reached {
                    plan.add_window(cy..cy + 1, cx..cx + 1, tap_at, was(cy, cx));
                }
            }
            Some((_, f_p, s_p, p_p)) => {
                // lint:allow(panic): `conv_out_w` above checked the geometry
                let out_w = geom.final_out_w().expect("valid geometry");
                let cells = |pw: usize| window_cells(pw, f_p, s_p, p_p, conv_w);
                let mut pooled: Vec<(usize, usize)> = Vec::new();
                for &(cy, cx) in &reached {
                    let (y0, y1) = covering(cy, f_p, s_p, p_p, out_w - 1);
                    let (x0, x1) = covering(cx, f_p, s_p, p_p, out_w - 1);
                    pooled.extend((y0..=y1).flat_map(|py| (x0..=x1).map(move |px| (py, px))));
                }
                pooled.sort_unstable();
                pooled.dedup();
                for &(py, px) in &pooled {
                    plan.add_window(cells(py), cells(px), tap_at, was(py, px));
                }
            }
        }
        plan.switches = plan.switch_points();
        plan
    }

    /// Adds the reached window over conv `rows × cols`, whose baseline
    /// output `was` on: kept when a tap is live, otherwise evaluated once
    /// into `base`.
    fn add_window(
        &mut self,
        rows: Range<usize>,
        cols: Range<usize>,
        tap_at: impl Fn(usize, usize) -> Tap,
        was: bool,
    ) {
        self.base -= u64::from(was);
        let lo = self.taps.len();
        let window = (lo, rows.len(), cols.len());
        self.taps.extend(
            rows.flat_map(|cy| cols.clone().map(move |cx| (cy, cx)))
                .map(|(cy, cx)| tap_at(cy, cx)),
        );
        if self.taps[lo..]
            .iter()
            .any(|tap| matches!(tap, Tap::Live { .. }))
        {
            self.windows.push(window);
        } else {
            self.base += u64::from(self.is_on(window, 0.0));
            self.taps.truncate(lo);
        }
    }

    /// The value of live tap `w`, `terms` with the target pixel at `x`.
    fn live(&self, w: f32, (t0, t1): (usize, usize), x: f32) -> f32 {
        self.terms[t0..t1]
            .iter()
            .fold(self.bias + w * x, |acc, &term| acc + term)
    }

    /// Whether `window` is non-zero with the target pixel at `x`.
    fn is_on(&self, (lo, rows, cols): (usize, usize, usize), x: f32) -> bool {
        let value = |r: usize, c: usize| match self.taps[lo + r * cols + c] {
            Tap::Const(v) => v,
            Tap::Live { w, terms } => self.live(w, terms, x),
        };
        // lint:allow(float-eq): models the pruning hardware, which keys on
        // bit-exact post-ReLU zeros.
        window_output(&self.geom, 0..rows, 0..cols, value) != 0.0
    }

    /// Where each window switches, when every window is on iff one of its
    /// taps is `> t`: with no pool or a max pool, and `t ≥ 0`. With a
    /// finite bias, pin terms and weights, each live tap
    /// `((b + w·x) + term₁) + …` is weakly monotone in `x`, because every
    /// f32 rounding is, so the finite `x` at which it is on form a
    /// half-line of keys. Each switch is found with the tap's own f32
    /// arithmetic, from a guess at the real root `(t − b − Σterms)/w`.
    fn switch_points(&self) -> Option<Switches> {
        let t = self.geom.threshold;
        let or_of_taps = matches!(self.geom.pool, None | Some((PoolKind::Max, ..))) && t >= 0.0;
        let finite = self.bias.is_finite()
            && self.terms.iter().all(|term| term.is_finite())
            && self.taps.iter().all(|tap| match tap {
                Tap::Live { w, .. } => w.is_finite(),
                Tap::Const(_) => true,
            });
        if !(or_of_taps && finite) {
            return None;
        }
        let mut switches = Switches::default();
        for &(lo, rows, cols) in &self.windows {
            let (mut up, mut dn) = (NEVER_UP, NEVER_DN);
            for &tap in &self.taps[lo..lo + rows * cols] {
                let (u, d) = match tap {
                    Tap::Const(v) if v > t => (LOWEST, NEVER_DN),
                    Tap::Const(_) => (NEVER_UP, NEVER_DN),
                    Tap::Live { w, terms } => self.live_switch(w, terms),
                };
                up = up.min(u);
                dn = dn.max(d);
                if dn + 1 >= up {
                    break;
                }
            }
            if dn + 1 >= up {
                switches.always += 1;
            } else {
                switches.ups.extend(Some(up).filter(|&u| u != NEVER_UP));
                switches.dns.extend(Some(dn).filter(|&d| d != NEVER_DN));
            }
        }
        switches.ups.sort_unstable();
        switches.dns.sort_unstable();
        Some(switches)
    }

    /// The keys at which live tap `w`, `terms` is on: `key ≥ up` (a
    /// rising tap, `w > 0`) or `key ≤ dn` (a falling one, `w < 0`), the
    /// other side [`NEVER_UP`] or [`NEVER_DN`]. A zero weight of either
    /// sign leaves the tap constant at finite `x`.
    fn live_switch(&self, w: f32, terms: (usize, usize)) -> (u32, u32) {
        let t = self.geom.threshold;
        let on = |k: u32| self.live(w, terms, from_order_key(k)) > t;
        let guess = || {
            let rest: f64 = self.terms[terms.0..terms.1]
                .iter()
                .map(|&v| f64::from(v))
                .sum();
            let root = (f64::from(t) - f64::from(self.bias) - rest) / f64::from(w);
            order_key(root.clamp(f64::from(f32::MIN), f64::from(f32::MAX)) as f32)
        };
        if w > 0.0 {
            (first_on(guess(), on), NEVER_DN)
        } else if w < 0.0 {
            (NEVER_UP, first_on(guess(), |k| !on(k)) - 1)
        } else if on(LOWEST) {
            (LOWEST, NEVER_DN)
        } else {
            (NEVER_UP, NEVER_DN)
        }
    }

    /// The filter's non-zero output count with the target pixel at `x`.
    pub(crate) fn count(&self, x: f32) -> u64 {
        match &self.switches {
            Some(switches) if x.is_finite() => self.base + switches.count(order_key(x)),
            _ => self.evaluate(x),
        }
    }

    /// [`Self::count`], evaluating every window.
    fn evaluate(&self, x: f32) -> u64 {
        let on = self
            .windows
            .iter()
            .filter(|&&window| self.is_on(window, x))
            .count();
        self.base + on as u64
    }
}

/// Fast functional model of the pruned layer.
///
/// A query plans its search's footprint with a [`ProbePlan`] and keeps
/// the plan while the queries that follow differ from it only in the
/// target pixel's value, as the queries of one crossing search do.
#[derive(Debug, Clone)]
pub struct FunctionalOracle {
    conv: Conv2d,
    geom: LayerGeometry,
    /// Convolution output width, validated and cached at construction.
    conv_w: usize,
    /// Final (post-pool) output width, validated and cached at construction.
    out_w: usize,
    /// Per-filter baseline output plane (all-zero input), as non-zero flags.
    baseline: Vec<Vec<bool>>,
    baseline_counts: Vec<u64>,
    /// The plan of the last query's search.
    plan: Option<KeyedPlan>,
    queries: u64,
}

/// A [`ProbePlan`] with what it was planned for: the filter, and the
/// [`probe_key`]s of the target pixel (value bits zero) and of each pin.
/// The key is that of `VictimSearches` in `weights/recover.rs`.
#[derive(Debug, Clone)]
struct KeyedPlan {
    filter: usize,
    key: Vec<u64>,
    plan: ProbePlan,
}

impl FunctionalOracle {
    /// Builds the oracle around the victim layer's real parameters.
    ///
    /// # Panics
    ///
    /// Panics when `conv` does not fit `geom`, the geometry is invalid, or
    /// the input has 2³² pixels or more.
    #[must_use]
    pub fn new(conv: Conv2d, geom: LayerGeometry) -> Self {
        assert_eq!(conv.d_ifm(), geom.input.c, "channel mismatch");
        assert_eq!(conv.d_ofm(), geom.d_ofm, "filter count mismatch");
        assert_eq!(conv.window().f, geom.f, "filter width mismatch");
        assert!(geom.final_out_w().is_some(), "invalid geometry");
        assert!(keyable(geom.input), "input too large to key");
        // The asserts above make these infallible; caching them also keeps
        // the width arithmetic out of the per-query hot path.
        let conv_w = geom.conv_out_w().unwrap_or_default();
        let out_w = geom.final_out_w().unwrap_or_default();
        let mut oracle = Self {
            conv,
            geom,
            conv_w,
            out_w,
            baseline: Vec::new(),
            baseline_counts: Vec::new(),
            plan: None,
            queries: 0,
        };
        oracle.rebuild_baseline();
        oracle
    }

    /// Replaces the activation threshold (models the Minerva-style tunable
    /// knob of §4), recomputes the baseline and drops the kept plan.
    pub fn set_threshold(&mut self, threshold: f32) {
        self.geom.threshold = threshold;
        self.rebuild_baseline();
        self.plan = None;
    }

    fn rebuild_baseline(&mut self) {
        let (conv_w, out_w) = (self.conv_w, self.out_w);
        let cells = |o: usize| match self.geom.pool {
            None => o..o + 1,
            Some((_, f_p, s_p, p_p)) => window_cells(o, f_p, s_p, p_p, conv_w),
        };
        // With an all-zero input every conv tap is the bias.
        self.baseline = self
            .conv
            .bias()
            .iter()
            .map(|&b| {
                (0..out_w * out_w)
                    .map(|i| {
                        let (rows, cols) = (cells(i / out_w), cells(i % out_w));
                        // lint:allow(float-eq): models the pruning hardware,
                        // which keys on bit-exact post-ReLU zeros.
                        window_output(&self.geom, rows, cols, |_, _| b) != 0.0
                    })
                    .collect()
            })
            .collect();
        self.baseline_counts = self
            .baseline
            .iter()
            .map(|plane| plane.iter().filter(|&&nz| nz).count() as u64)
            .collect();
    }

    /// Filter `d`'s non-zero count for `probes`: the first probe is the
    /// target, the rest are pins.
    fn count(&mut self, d: usize, probes: &[Probe]) -> u64 {
        let Some((target, pins)) = probes.split_first() else {
            return self.baseline_counts[d];
        };
        let input = self.geom.input;
        let key = probes.iter().enumerate().map(|(k, q)| {
            let value = if k == 0 { 0.0 } else { q.value };
            probe_key(input, q.c, q.y, q.x, value)
        });
        match &self.plan {
            Some(kept) if kept.filter == d && kept.key.iter().copied().eq(key.clone()) => {
                kept.plan.count(target.value)
            }
            _ => {
                let (weights, out_w) = (self.conv.weights(), self.out_w);
                let plane = &self.baseline[d];
                let plan = ProbePlan::new(
                    &self.geom,
                    |c, fy, fx| weights[(d, c, fy, fx)],
                    self.conv.bias()[d],
                    (target.c, target.y, target.x),
                    pins,
                    |py, px| plane[py * out_w + px],
                    self.baseline_counts[d],
                );
                let n = plan.count(target.value);
                self.plan = Some(KeyedPlan {
                    filter: d,
                    key: key.collect(),
                    plan,
                });
                n
            }
        }
    }
}

impl ZeroCountOracle for FunctionalOracle {
    fn geometry(&self) -> LayerGeometry {
        self.geom
    }

    fn query(&mut self, probes: &[Probe]) -> Vec<u64> {
        self.queries += 1;
        if cnnre_obs::enabled() {
            cnnre_obs::counter("oracle.queries").inc();
        }
        (0..self.geom.d_ofm)
            .map(|d| self.count(d, probes))
            .collect()
    }

    fn query_filter(&mut self, filter: usize, probes: &[Probe]) -> u64 {
        self.queries += 1;
        if cnnre_obs::enabled() {
            cnnre_obs::counter("oracle.queries").inc();
        }
        self.count(filter, probes)
    }

    fn query_count(&self) -> u64 {
        self.queries
    }
}

/// Oracle backed by the full accelerator simulator: every query runs the
/// victim layer under zero pruning and counts its DRAM writes per filter as
/// the engine issues them.
#[derive(Debug)]
pub struct AcceleratorOracle {
    net: Network,
    geom: LayerGeometry,
    accel: Accelerator,
    /// The victim layer's lowering, planned once.
    schedule: Schedule,
    /// The victim's weights region in the planned DRAM layout.
    weights: Region,
    /// Bytes of one filter inside `weights`.
    filter_bytes: u64,
    queries: u64,
}

impl AcceleratorOracle {
    /// Builds a single-layer victim network around `conv` and runs it on a
    /// zero-pruning accelerator configured to write one filter at a time
    /// (one-filter weight buffer), which is what makes per-filter counts
    /// attributable from the memory transactions.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent.
    #[must_use]
    pub fn new(conv: Conv2d, geom: LayerGeometry) -> Self {
        assert_eq!(conv.d_ifm(), geom.input.c, "channel mismatch");
        let mut b = NetworkBuilder::new(geom.input);
        let input = b.input_id();
        // lint:allow(panic): documented `# Panics` contract — the constructor
        // validates the adversary-supplied geometry loudly
        let c = b.conv("victim", input, conv).expect("geometry fits");
        let r = b
            .relu_threshold("victim/relu", c, geom.threshold)
            .expect("relu after conv"); // lint:allow(panic): same documented contract
        let out = match geom.pool {
            None => r,
            Some((PoolKind::Max, f, s, p)) => {
                // lint:allow(panic): same documented contract
                b.max_pool("victim/pool", r, f, s, p).expect("pool fits")
            }
            Some((PoolKind::Avg, f, s, p)) => {
                // lint:allow(panic): same documented contract
                b.avg_pool("victim/pool", r, f, s, p).expect("pool fits")
            }
        };
        let net = b.finish(out);
        let filter_elems = geom.input.c * geom.f * geom.f;
        let config = AccelConfig {
            weight_buffer_elems: filter_elems, // exactly one filter per tile
            ifm_buffer_elems: geom.input.len().max(1),
            ..AccelConfig::for_weight_attack()
        };
        // lint:allow(panic): same documented contract
        let schedule = Schedule::plan(&net, &config).expect("victim layer plans");
        let weights = schedule
            .layout()
            .regions()
            .iter()
            .find(|r| r.kind == RegionKind::Weights)
            .expect("victim layer has weights") // lint:allow(panic): a planned conv layer always maps a weights region
            .clone();
        Self {
            net,
            geom,
            schedule,
            weights,
            filter_bytes: filter_elems as u64 * config.element_bytes,
            accel: Accelerator::new(config),
            queries: 0,
        }
    }
}

/// Per-filter non-zero counts, tallied from the victim's transactions as
/// they arrive: each compute tile loads exactly one filter, so the *offset*
/// of a weight fetch inside the weights region names the filter whose OFM
/// writes follow. (Pure burst counting is not enough: a filter whose output
/// is fully pruned emits no writes, leaving its weight burst adjacent to
/// the next filter's.)
struct FilterWrites<'a> {
    weights: &'a Region,
    filter_bytes: u64,
    filter: Option<usize>,
    counts: Vec<u64>,
}

impl EventSink for FilterWrites<'_> {
    fn push(&mut self, event: MemoryEvent) {
        if event.kind.is_read() && self.weights.contains(event.addr) {
            let idx = ((event.addr - self.weights.base) / self.filter_bytes) as usize;
            self.filter = Some(idx.min(self.counts.len().saturating_sub(1)));
        } else if event.kind.is_write() {
            if let Some(slot) = self.filter.and_then(|f| self.counts.get_mut(f)) {
                *slot += 1;
            }
        }
    }
}

impl ZeroCountOracle for AcceleratorOracle {
    fn geometry(&self) -> LayerGeometry {
        self.geom
    }

    fn query(&mut self, probes: &[Probe]) -> Vec<u64> {
        self.queries += 1;
        if cnnre_obs::enabled() {
            cnnre_obs::counter("oracle.queries").inc();
        }
        // Each query runs the victim engine; suppress its events and
        // profile spans so the weight attack's stream and timeline are not
        // flooded with per-query runs.
        let _quiet = cnnre_obs::stream::suppress();
        let mut input = Tensor3::zeros(self.geom.input);
        for p in probes {
            input[(p.c, p.y, p.x)] = p.value;
        }
        let mut sink = FilterWrites {
            weights: &self.weights,
            filter_bytes: self.filter_bytes,
            filter: None,
            counts: vec![0; self.geom.d_ofm],
        };
        self.accel
            .run_streamed(&self.net, &self.schedule, &input, &mut sink);
        sink.counts
    }

    fn query_count(&self) -> u64 {
        self.queries
    }
}

/// The per-position evaluator the planned [`FunctionalOracle`] replaced,
/// kept as the test reference of every [`ProbePlan`] count: it collects the
/// final positions the probes reach and recomputes each from the probes,
/// one conv tap at a time.
#[cfg(test)]
pub(crate) mod reference {
    use super::{covering, window_cells, window_output, LayerGeometry, Probe};
    use cnnre_nn::layer::Conv2d;

    /// A whole-layer zero-count model evaluated position by position.
    #[derive(Debug, Clone)]
    pub(crate) struct ReferenceOracle {
        conv: Conv2d,
        geom: LayerGeometry,
        conv_w: usize,
        out_w: usize,
        baseline: Vec<Vec<bool>>,
        baseline_counts: Vec<u64>,
    }

    impl ReferenceOracle {
        pub(crate) fn new(conv: Conv2d, geom: LayerGeometry) -> Self {
            let mut oracle = Self {
                conv,
                geom,
                conv_w: geom.conv_out_w().expect("valid geometry"),
                out_w: geom.final_out_w().expect("valid geometry"),
                baseline: Vec::new(),
                baseline_counts: Vec::new(),
            };
            oracle.set_threshold(geom.threshold);
            oracle
        }

        pub(crate) fn set_threshold(&mut self, threshold: f32) {
            self.geom.threshold = threshold;
            let out_w = self.out_w;
            self.baseline = (0..self.geom.d_ofm)
                .map(|d| {
                    (0..out_w * out_w)
                        .map(|i| self.final_value(d, i / out_w, i % out_w, &[]) != 0.0)
                        .collect()
                })
                .collect();
            self.baseline_counts = self
                .baseline
                .iter()
                .map(|plane| plane.iter().filter(|&&nz| nz).count() as u64)
                .collect();
        }

        /// Pre-activation convolution value of filter `d` at conv-output
        /// `(oy, ox)` for the sparse input `probes` (zero elsewhere).
        fn conv_value(&self, d: usize, oy: usize, ox: usize, probes: &[Probe]) -> f32 {
            let mut acc = self.conv.bias()[d];
            let (s, p, f) = (self.geom.s, self.geom.p, self.geom.f);
            for probe in probes {
                let fy = probe.y as isize - (oy * s) as isize + p as isize;
                let fx = probe.x as isize - (ox * s) as isize + p as isize;
                if fy >= 0 && fx >= 0 && (fy as usize) < f && (fx as usize) < f {
                    acc +=
                        self.conv.weights()[(d, probe.c, fy as usize, fx as usize)] * probe.value;
                }
            }
            acc
        }

        /// Final output value of filter `d` at post-pool position `(py, px)`.
        fn final_value(&self, d: usize, py: usize, px: usize, probes: &[Probe]) -> f32 {
            let (rows, cols) = match self.geom.pool {
                None => (py..py + 1, px..px + 1),
                Some((_, f_p, s_p, p_p)) => (
                    window_cells(py, f_p, s_p, p_p, self.conv_w),
                    window_cells(px, f_p, s_p, p_p, self.conv_w),
                ),
            };
            window_output(&self.geom, rows, cols, |cy, cx| {
                self.conv_value(d, cy, cx, probes)
            })
        }

        /// Post-pool positions affected by the probes.
        fn affected_positions(&self, probes: &[Probe]) -> Vec<(usize, usize)> {
            let (conv_w, out_w) = (self.conv_w, self.out_w);
            let (s, p, f) = (self.geom.s, self.geom.p, self.geom.f);
            let mut conv_pos = std::collections::BTreeSet::new();
            for probe in probes {
                // Conv outputs whose window covers (y, x): oy·s ≤ y+p ≤ oy·s+f−1.
                let (y0, y1) = covering(probe.y, f, s, p, conv_w - 1);
                let (x0, x1) = covering(probe.x, f, s, p, conv_w - 1);
                for oy in y0..=y1 {
                    for ox in x0..=x1 {
                        conv_pos.insert((oy, ox));
                    }
                }
            }
            match self.geom.pool {
                None => conv_pos.into_iter().collect(),
                Some((_, f_p, s_p, p_p)) => {
                    let mut pooled = std::collections::BTreeSet::new();
                    for (cy, cx) in conv_pos {
                        let (y0, y1) = covering(cy, f_p, s_p, p_p, out_w - 1);
                        let (x0, x1) = covering(cx, f_p, s_p, p_p, out_w - 1);
                        for py in y0..=y1 {
                            for px in x0..=x1 {
                                pooled.insert((py, px));
                            }
                        }
                    }
                    pooled.into_iter().collect()
                }
            }
        }

        /// Filter `d`'s non-zero output count for `probes`.
        pub(crate) fn count(&self, d: usize, probes: &[Probe]) -> u64 {
            let mut count = self.baseline_counts[d] as i64;
            for (py, px) in self.affected_positions(probes) {
                let was = self.baseline[d][py * self.out_w + px];
                let now = self.final_value(d, py, px, probes) != 0.0;
                count += i64::from(now) - i64::from(was);
            }
            count.max(0) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceOracle;
    use super::*;
    use cnnre_nn::layer::{Pool, Relu};
    use cnnre_tensor::rng::SmallRng;
    use cnnre_tensor::rng::{Rng, SeedableRng};
    use cnnre_tensor::{Shape4, Tensor4};

    fn geom(input: Shape3, d: usize, f: usize, s: usize, p: usize) -> LayerGeometry {
        LayerGeometry {
            input,
            d_ofm: d,
            f,
            s,
            p,
            pool: None,
            order: MergedOrder::ActThenPool,
            threshold: 0.0,
        }
    }

    fn dense_reference(conv: &Conv2d, g: &LayerGeometry, probes: &[Probe]) -> Vec<u64> {
        let mut input = Tensor3::zeros(g.input);
        for p in probes {
            input[(p.c, p.y, p.x)] = p.value;
        }
        let pre = conv.forward(&input);
        let act = Relu::with_threshold(g.threshold);
        let fin = match (g.pool, g.order) {
            (None, _) => act.forward(&pre),
            (Some((kind, f, s, p)), MergedOrder::ActThenPool) => {
                Pool::new(kind, f, s, p).forward(&act.forward(&pre))
            }
            (Some((kind, f, s, p)), MergedOrder::PoolThenAct) => {
                act.forward(&Pool::new(kind, f, s, p).forward(&pre))
            }
        };
        (0..g.d_ofm)
            .map(|d| fin.channel(d).iter().filter(|&&v| v != 0.0).count() as u64)
            .collect()
    }

    #[test]
    fn functional_oracle_matches_dense_reference() {
        let mut rng = SmallRng::seed_from_u64(7);
        for &(pool, order) in &[
            (None, MergedOrder::ActThenPool),
            (Some((PoolKind::Max, 2, 2, 0)), MergedOrder::ActThenPool),
            (Some((PoolKind::Max, 3, 2, 0)), MergedOrder::ActThenPool),
            (Some((PoolKind::Avg, 2, 2, 0)), MergedOrder::PoolThenAct),
        ] {
            let input = Shape3::new(2, 12, 12);
            let conv = Conv2d::new(2, 4, 3, 1, 0, &mut rng);
            let mut g = geom(input, 4, 3, 1, 0);
            g.pool = pool;
            g.order = order;
            let mut oracle = FunctionalOracle::new(conv.clone(), g);
            for _ in 0..20 {
                let probes: Vec<Probe> = (0..rng.gen_range(0..3))
                    .map(|_| Probe {
                        c: rng.gen_range(0..2),
                        y: rng.gen_range(0..12),
                        x: rng.gen_range(0..12),
                        value: rng.gen_range(-3.0..3.0),
                    })
                    .collect();
                let fast = oracle.query(&probes);
                let slow = dense_reference(&conv, &g, &probes);
                assert_eq!(
                    fast, slow,
                    "pool {pool:?} order {order:?} probes {probes:?}"
                );
            }
        }
    }

    #[test]
    fn functional_oracle_baseline_counts() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        conv.bias_mut()[0] = 1.0; // all outputs positive with zero input
        conv.bias_mut()[1] = -1.0; // all outputs pruned
        let g = geom(Shape3::new(1, 8, 8), 2, 3, 1, 0);
        let mut oracle = FunctionalOracle::new(conv, g);
        let counts = oracle.query(&[]);
        assert_eq!(counts, vec![36, 0]); // 6x6 outputs
    }

    #[test]
    fn accelerator_oracle_agrees_with_functional_model() {
        let mut rng = SmallRng::seed_from_u64(9);
        let input = Shape3::new(2, 10, 10);
        let conv = Conv2d::new(2, 3, 3, 2, 0, &mut rng);
        let mut g = geom(input, 3, 3, 2, 0);
        g.pool = Some((PoolKind::Max, 2, 2, 0));
        let mut fast = FunctionalOracle::new(conv.clone(), g);
        let mut real = AcceleratorOracle::new(conv, g);
        for trial in 0..8 {
            let probes = [Probe {
                c: trial % 2,
                y: (trial * 3) % 10,
                x: (trial * 7) % 10,
                value: rng.gen_range(-4.0..4.0),
            }];
            assert_eq!(fast.query(&probes), real.query(&probes), "trial {trial}");
        }
        assert_eq!(real.query_count(), 8);
    }

    /// A probe value: mostly moderate, sometimes a signed zero or a
    /// pin-sized magnitude.
    fn probe_value(rng: &mut SmallRng) -> f32 {
        match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(-1e4..1e4),
            _ => rng.gen_range(-3.0..3.0),
        }
    }

    /// Asserts that the planned oracle and the reference agree on filter
    /// `d` for `probes` at several target values.
    fn assert_counts_equal(
        planned: &mut FunctionalOracle,
        reference: &ReferenceOracle,
        d: usize,
        probes: &mut [Probe],
        rng: &mut SmallRng,
    ) {
        for _ in 0..6 {
            probes[0].value = probe_value(rng);
            assert_eq!(
                planned.query_filter(d, probes),
                reference.count(d, probes),
                "filter {d}, probes {probes:?} of {:?}",
                planned.geometry()
            );
        }
    }

    #[test]
    fn planned_counts_equal_the_reference() {
        let max = |f, s, p| Some((PoolKind::Max, f, s, p));
        let avg = |f, s, p| Some((PoolKind::Avg, f, s, p));
        // (input, filter width, stride, padding, pool, threshold, raised
        // threshold set midway)
        let layers = [
            (Shape3::new(2, 9, 9), 3, 1, 0, None, 0.0, 0.3),
            (Shape3::new(1, 11, 11), 3, 2, 1, None, 0.2, 0.0),
            (Shape3::new(2, 12, 12), 3, 1, 0, max(2, 2, 0), 0.0, 0.25),
            (Shape3::new(1, 13, 13), 3, 2, 1, max(3, 2, 1), 0.25, 0.5),
            (Shape3::new(2, 12, 12), 3, 1, 1, avg(2, 2, 0), 0.0, 0.3),
            (Shape3::new(1, 11, 11), 3, 1, 1, avg(3, 2, 1), 0.1, 0.0),
        ];
        let mut rng = SmallRng::seed_from_u64(0x29);
        let (mut queries, mut pinned) = (0u64, 0u64);
        for (input, f, s, p, pool, threshold, raised) in layers {
            let orders: &[MergedOrder] = if pool.is_some() {
                &[MergedOrder::ActThenPool, MergedOrder::PoolThenAct]
            } else {
                &[MergedOrder::ActThenPool]
            };
            for &order in orders {
                for positive_bias in [false, true] {
                    let g = LayerGeometry {
                        pool,
                        order,
                        threshold,
                        ..geom(input, 3, f, s, p)
                    };
                    let shape = Shape4::new(3, input.c, f, f);
                    let weights = Tensor4::from_fn(shape, |_, _, _, _| {
                        if rng.gen_bool(0.3) {
                            0.0
                        } else {
                            rng.gen_range(-1.0..1.0)
                        }
                    });
                    let sign = if positive_bias { 1.0f32 } else { -1.0 };
                    let bias = (0..3).map(|_| sign * rng.gen_range(0.05..0.5f32)).collect();
                    let conv = Conv2d::from_parts(weights, bias, s, p).expect("conv");
                    let mut planned = FunctionalOracle::new(conv.clone(), g);
                    let mut reference = ReferenceOracle::new(conv, g);
                    let pixel = |rng: &mut SmallRng| Probe {
                        c: rng.gen_range(0..input.c),
                        y: rng.gen_range(0..input.h),
                        x: rng.gen_range(0..input.w),
                        value: probe_value(rng),
                    };
                    for search in 0..40 {
                        let d = rng.gen_range(0..3);
                        let mut probes = vec![pixel(&mut rng)];
                        for _ in 0..rng.gen_range(0..4) {
                            // Pins, some on the target's pixel or on an
                            // earlier pin's.
                            let mut pin = pixel(&mut rng);
                            if rng.gen_bool(0.3) {
                                let q = probes[rng.gen_range(0..probes.len())];
                                (pin.c, pin.y, pin.x) = (q.c, q.y, q.x);
                            }
                            probes.push(pin);
                        }
                        assert_counts_equal(&mut planned, &reference, d, &mut probes, &mut rng);
                        if search == 20 {
                            // A new threshold amid a search: the kept plan
                            // must not outlive it.
                            planned.set_threshold(raised);
                            reference.set_threshold(raised);
                            assert_counts_equal(&mut planned, &reference, d, &mut probes, &mut rng);
                        }
                        if probes.len() > 1 {
                            // Only a pin's value bits change.
                            pinned += 1;
                            let k = rng.gen_range(1..probes.len());
                            let old = probes[k].value;
                            probes[k].value = match rng.gen_range(0..3u32) {
                                0 => -old,
                                1 => 2.0 * old + 1.0,
                                _ => probe_value(&mut rng),
                            };
                            assert_counts_equal(&mut planned, &reference, d, &mut probes, &mut rng);
                        }
                        // Only the filter changes.
                        let other = (d + 1) % 3;
                        assert_counts_equal(&mut planned, &reference, other, &mut probes, &mut rng);
                        // Only the probe order changes, at the same pixels.
                        probes.reverse();
                        assert_counts_equal(&mut planned, &reference, other, &mut probes, &mut rng);
                        // Every filter at once, through the same plans.
                        let all: Vec<u64> = (0..3).map(|d| reference.count(d, &probes)).collect();
                        assert_eq!(planned.query(&probes), all, "probes {probes:?} of {g:?}");
                        assert_eq!(planned.query(&[]), reference_baseline(&reference));
                        queries += planned.query_count();
                    }
                }
            }
        }
        assert!(pinned > 300 && queries > 10_000, "{pinned} pinned searches");
    }

    /// A weight of a switch-point plan: mostly moderate, sometimes a
    /// signed zero or a subnormal of either sign.
    fn switch_weight(rng: &mut SmallRng) -> f32 {
        match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            2 => {
                let w = f32::from_bits(rng.gen_range(1..0x0080_0000u32));
                if rng.gen_bool(0.5) {
                    w
                } else {
                    -w
                }
            }
            _ => rng.gen_range(-1.0..1.0),
        }
    }

    /// A random one-filter plan under a max pool or none, either order, at
    /// threshold 0 or above: a target pixel and up to three pins near it,
    /// half of them ±1e9.
    fn random_or_plan(rng: &mut SmallRng) -> (LayerGeometry, ProbePlan) {
        let pools = [
            None,
            Some((PoolKind::Max, 2, 2, 0)),
            Some((PoolKind::Max, 3, 2, 1)),
        ];
        let orders = [MergedOrder::ActThenPool, MergedOrder::PoolThenAct];
        let input = Shape3::new(rng.gen_range(1..3), 9, 9);
        let (f, s, p) = (3, rng.gen_range(1..3), rng.gen_range(0..2));
        let g = LayerGeometry {
            pool: pools[rng.gen_range(0..pools.len())],
            order: orders[rng.gen_range(0..2usize)],
            threshold: if rng.gen_bool(0.5) {
                0.0
            } else {
                rng.gen_range(0.01..0.5)
            },
            ..geom(input, 1, f, s, p)
        };
        let weights: Vec<f32> = (0..input.c * f * f).map(|_| switch_weight(rng)).collect();
        let bias = match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-0.5..0.5),
        };
        let target = (
            rng.gen_range(0..input.c),
            rng.gen_range(0..9),
            rng.gen_range(0..9),
        );
        let near =
            |v: usize, rng: &mut SmallRng| (v + rng.gen_range(0..5usize)).saturating_sub(2).min(8);
        let pins: Vec<Probe> = (0..rng.gen_range(0..4))
            .map(|_| Probe {
                c: rng.gen_range(0..input.c),
                y: near(target.1, rng),
                x: near(target.2, rng),
                value: match rng.gen_range(0..4u32) {
                    0 => 1e9,
                    1 => -1e9,
                    _ => rng.gen_range(-3.0..3.0),
                },
            })
            .collect();
        let weight = |c: usize, fy: usize, fx: usize| weights[(c * f + fy) * f + fx];
        let plan = ProbePlan::new(&g, weight, bias, target, &pins, |_, _| false, 0);
        (g, plan)
    }

    /// Asserts over the plans of `seeds` ([`random_or_plan`]) that the
    /// count from the switch points equals evaluating every window: at
    /// ±0, the grid's ends, ±`f32::MAX`, random values and each switch
    /// key ±1.
    fn assert_switch_counts_equal_evaluation(seeds: Range<u64>) {
        let (mut ups, mut dns, mut always) = (0, 0, 0);
        for seed in seeds {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (g, plan) = random_or_plan(&mut rng);
            let switches = plan.switches.as_ref().expect("switch points");
            ups += switches.ups.len();
            dns += switches.dns.len();
            always += switches.always;
            let mut xs = vec![0.0, -0.0, 4096.0, -4096.0, 1e-4, -1e-4, f32::MAX, f32::MIN];
            xs.extend((0..8).map(|_| rng.gen_range(-10.0..10.0f32)));
            for &k in switches.ups.iter().chain(&switches.dns) {
                xs.extend([k - 1, k, k + 1].map(from_order_key));
            }
            for x in xs {
                assert_eq!(
                    plan.count(x),
                    plan.evaluate(x),
                    "x = {x:e}, seed {seed}, {g:?}"
                );
            }
        }
        assert!(
            ups > 0 && dns > 0 && always > 0,
            "{ups} ups, {dns} dns, {always} always on"
        );
    }

    #[test]
    fn switch_point_counts_equal_the_evaluation() {
        assert_switch_counts_equal_evaluation(0..400);
    }

    #[test]
    #[ignore = "a 100x longer seed sweep; run with --release by scripts/check.sh"]
    fn switch_point_counts_equal_the_evaluation_long() {
        assert_switch_counts_equal_evaluation(0..40_000);
    }

    #[test]
    fn only_windows_that_are_ors_of_finite_taps_get_switch_points() {
        let input = Shape3::new(1, 8, 8);
        let pins = [Probe {
            c: 0,
            y: 3,
            x: 4,
            value: 2.0,
        }];
        let plan = |g: &LayerGeometry, w: f32, bias: f32, pin: f32| {
            let pins = [Probe {
                value: pin,
                ..pins[0]
            }];
            ProbePlan::new(g, |_, _, _| w, bias, (0, 3, 3), &pins, |_, _| false, 0)
        };
        let max = LayerGeometry {
            pool: Some((PoolKind::Max, 2, 2, 0)),
            ..geom(input, 1, 3, 1, 0)
        };
        let avg = LayerGeometry {
            pool: Some((PoolKind::Avg, 2, 2, 0)),
            order: MergedOrder::PoolThenAct,
            ..max
        };
        let negative = LayerGeometry {
            threshold: -0.1,
            ..max
        };
        assert!(plan(&max, 0.5, -0.2, 2.0).switches.is_some());
        assert!(plan(&geom(input, 1, 3, 1, 0), 0.5, -0.2, 2.0)
            .switches
            .is_some());
        for (g, w, bias, pin) in [
            (avg, 0.5, -0.2, 2.0),
            (negative, 0.5, -0.2, 2.0),
            (max, 0.5, f32::INFINITY, 2.0),
            (max, 0.5, -0.2, f32::NEG_INFINITY),
            (max, f32::NAN, -0.2, 2.0),
        ] {
            let plan = plan(&g, w, bias, pin);
            assert!(plan.switches.is_none(), "{g:?}, w {w}, b {bias}, pin {pin}");
            for x in [-3.0, -0.0, 0.4, 5.0] {
                assert_eq!(plan.count(x), plan.evaluate(x));
            }
        }
    }

    fn reference_baseline(reference: &ReferenceOracle) -> Vec<u64> {
        (0..3).map(|d| reference.count(d, &[])).collect()
    }

    #[test]
    fn threshold_changes_baseline() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        conv.bias_mut()[0] = 0.5;
        let g = geom(Shape3::new(1, 6, 6), 1, 3, 1, 0);
        let mut oracle = FunctionalOracle::new(conv, g);
        assert_eq!(oracle.query(&[])[0], 16);
        oracle.set_threshold(0.6);
        assert_eq!(oracle.query(&[])[0], 0);
    }
}
