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
//!   sparsity (only the affected output pixels are recomputed). Used by the
//!   search loops (millions of queries).
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
/// and `geom.threshold`. [`FunctionalOracle`] and the weight attack's
/// virtual model both evaluate windows here, so their f32 arithmetic
/// cannot drift apart.
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

/// Fast functional model of the pruned layer.
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
    queries: u64,
}

impl FunctionalOracle {
    /// Builds the oracle around the victim layer's real parameters.
    ///
    /// # Panics
    ///
    /// Panics when `conv` does not fit `geom` or the geometry is invalid.
    #[must_use]
    pub fn new(conv: Conv2d, geom: LayerGeometry) -> Self {
        assert_eq!(conv.d_ifm(), geom.input.c, "channel mismatch");
        assert_eq!(conv.d_ofm(), geom.d_ofm, "filter count mismatch");
        assert_eq!(conv.window().f, geom.f, "filter width mismatch");
        assert!(geom.final_out_w().is_some(), "invalid geometry");
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
            queries: 0,
        };
        oracle.rebuild_baseline();
        oracle
    }

    /// Replaces the activation threshold (models the Minerva-style tunable
    /// knob of §4) and recomputes the baseline.
    pub fn set_threshold(&mut self, threshold: f32) {
        self.geom.threshold = threshold;
        self.rebuild_baseline();
    }

    fn rebuild_baseline(&mut self) {
        let out_w = self.out_w;
        self.baseline = (0..self.geom.d_ofm)
            .map(|d| {
                (0..out_w * out_w)
                    .map(|i| {
                        let (py, px) = (i / out_w, i % out_w);
                        // lint:allow(float-eq): models the pruning hardware,
                        // which keys on bit-exact post-ReLU zeros.
                        self.final_value(d, py, px, &[]) != 0.0
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

    /// Pre-activation convolution value of filter `d` at conv-output
    /// `(oy, ox)` for the sparse input `probes` (zero elsewhere).
    fn conv_value(&self, d: usize, oy: usize, ox: usize, probes: &[Probe]) -> f32 {
        let mut acc = self.conv.bias()[d];
        let (s, p, f) = (self.geom.s, self.geom.p, self.geom.f);
        for probe in probes {
            let fy = probe.y as isize - (oy * s) as isize + p as isize;
            let fx = probe.x as isize - (ox * s) as isize + p as isize;
            if fy >= 0 && fx >= 0 && (fy as usize) < f && (fx as usize) < f {
                acc += self.conv.weights()[(d, probe.c, fy as usize, fx as usize)] * probe.value;
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
        let conv_w = self.conv_w;
        let out_w = self.out_w;
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

    fn count_for(&self, d: usize, probes: &[Probe], affected: &[(usize, usize)]) -> u64 {
        let out_w = self.out_w;
        let mut count = self.baseline_counts[d] as i64;
        for &(py, px) in affected {
            let was = self.baseline[d][py * out_w + px];
            // lint:allow(float-eq): same exact-zero pruning model as the
            // baseline map above.
            let now = self.final_value(d, py, px, probes) != 0.0;
            count += i64::from(now) - i64::from(was);
        }
        count.max(0) as u64
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
        let affected = self.affected_positions(probes);
        (0..self.geom.d_ofm)
            .map(|d| self.count_for(d, probes, &affected))
            .collect()
    }

    fn query_filter(&mut self, filter: usize, probes: &[Probe]) -> u64 {
        self.queries += 1;
        if cnnre_obs::enabled() {
            cnnre_obs::counter("oracle.queries").inc();
        }
        let affected = self.affected_positions(probes);
        self.count_for(filter, probes, &affected)
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

#[cfg(test)]
mod tests {
    use super::*;
    use cnnre_nn::layer::{Pool, Relu};
    use cnnre_tensor::rng::SmallRng;
    use cnnre_tensor::rng::{Rng, SeedableRng};

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
