//! The benchmark's workloads: how each draws its victims from the seed,
//! what one request does, and the checks on every request's output.
//!
//! Every request is timed from outside the program, at the public calls
//! into each layer (`nn`, `accel`, `trace`, `structure`, `weights`).

use cnnre_accel::{AccelConfig, Accelerator};
use cnnre_attacks::structure::{
    enumerate_structures, recover_structures, CandidateStructure, LayerParams, NetworkSolverConfig,
    ObservedNetwork, SolverConfig,
};
use cnnre_attacks::weights::{
    recover_ratios, recover_ratios_parallel, AcceleratorOracle, FunctionalOracle, LayerGeometry,
    MergedOrder, RatioRecovery, RecoveryConfig,
};
use cnnre_nn::layer::{Conv2d, PoolKind};
use cnnre_nn::models::{alexnet, chain, convnet, lenet, squeezenet, ConvSpec, PoolSpec};
use cnnre_nn::{Network, NodeId, Op};
use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};
use cnnre_tensor::{init, Shape3, Shape4};
use cnnre_trace::Trace;

use crate::spans::{with_registry_counts, Metered, OracleUse, Recorder};

/// The paper's accuracy target for recovered `w/b` ratios (§4.2).
const MAX_RATIO_ERROR: f64 = 1.0 / 1024.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Structure attack on the four study networks at full scale.
    StructureZoo,
    /// Weights attack on fig7's pooled CONV1 geometry.
    WeightsPooled,
    /// Weights attack on the same layer without the merged pool.
    WeightsPlain,
    /// The whole pipeline on LeNet, with the weights attack on the
    /// accelerator simulator itself.
    LenetE2e,
}

/// Problem size: the benchmark's, or a library-level smoke size for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Tiny layers and networks that run in milliseconds.
    Smoke,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::StructureZoo,
        Workload::WeightsPooled,
        Workload::WeightsPlain,
        Workload::LenetE2e,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::StructureZoo => "structure-zoo",
            Workload::WeightsPooled => "weights-pooled",
            Workload::WeightsPlain => "weights-plain",
            Workload::LenetE2e => "lenet-e2e",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether each request gets a victim of its own (drawn from the seed
    /// and the request index) rather than sharing the set-up's victims.
    #[must_use]
    pub fn fresh_victims(self) -> bool {
        self != Workload::StructureZoo
    }

    /// Requests every run completes, whatever `--seconds` says; their
    /// counts are the run's deterministic counts.
    #[must_use]
    pub fn count_window(self, scale: Scale) -> u64 {
        match (scale, self) {
            (Scale::Smoke, _) => 2,
            (Scale::Full, Workload::StructureZoo) => 5,
            (Scale::Full, Workload::WeightsPooled) => 8,
            (Scale::Full, Workload::WeightsPlain) => 4,
            (Scale::Full, Workload::LenetE2e) => 6,
        }
    }

    /// `(resolved, zero, unrecovered)` weights of the first timed victim
    /// at the default seed, pinned so that a change in what the attack
    /// recovers fails the run.
    fn pinned_weights(self, scale: Scale, seed: u64) -> Option<[u64; 3]> {
        if scale != Scale::Full || seed != crate::DEFAULT_SEED {
            return None;
        }
        match self {
            Workload::StructureZoo => None,
            Workload::WeightsPooled => Some([1445, 645, 7]),
            Workload::WeightsPlain => Some([34848, 15648, 0]),
            Workload::LenetE2e => Some([150, 0, 0]),
        }
    }

    /// Builds the victim(s) for request `index`.
    #[must_use]
    pub fn victim(self, scale: Scale, seed: u64, index: u64) -> Victim {
        let mut rng = victim_rng(seed, index);
        match self {
            Workload::StructureZoo => {
                let full = scale == Scale::Full;
                let mut nets = vec![
                    ZooNet::new(lenet(1, 10, &mut rng), (32, 1), 10, 18),
                    ZooNet::new(convnet(1, 10, &mut rng), (32, 3), 10, 12),
                ];
                if full {
                    nets.push(ZooNet::new(alexnet(1, 1000, &mut rng), (227, 3), 1000, 90));
                    nets.push(ZooNet::new(
                        squeezenet(1, 1000, &mut rng),
                        (227, 3),
                        1000,
                        96,
                    ));
                }
                Victim::Zoo(nets)
            }
            Workload::WeightsPooled | Workload::WeightsPlain => {
                let pool = (self == Workload::WeightsPooled).then_some((PoolKind::Max, 3, 2, 0));
                let geom = match (scale, self) {
                    // fig7's CONV1: 3×227×227, 11×11 stride 4.
                    (Scale::Full, Workload::WeightsPooled) => {
                        layer_geometry(3, 227, 4, 11, 4, 0, pool)
                    }
                    (Scale::Full, _) => layer_geometry(3, 227, 96, 11, 4, 0, pool),
                    (Scale::Smoke, Workload::WeightsPooled) => {
                        layer_geometry(1, 11, 2, 3, 2, 0, pool)
                    }
                    (Scale::Smoke, _) => layer_geometry(1, 15, 2, 3, 1, 0, pool),
                };
                // fig7's compressed-model recipe: 45 % pruned, 8-bit
                // quantised, negative biases.
                let shape = Shape4::new(geom.d_ofm, geom.input.c, geom.f, geom.f);
                let weights = init::compressed_conv(&mut rng, shape, 0.45, 8);
                let bias = negative_biases(&mut rng, geom.d_ofm);
                let conv = Conv2d::from_parts(weights, bias, geom.s, geom.p)
                    .expect("victim bias count matches its filters");
                Victim::Layer { conv, geom }
            }
            Workload::LenetE2e => {
                let mut net = match scale {
                    Scale::Full => lenet(1, 10, &mut rng),
                    // LeNet's shape in miniature: one pooled conv, one FC.
                    Scale::Smoke => {
                        let conv1 = ConvSpec::new(1, 3, 1, 0).with_pool(PoolSpec::max(2, 2));
                        chain(Shape3::new(1, 12, 12), &[conv1], &[10], &mut rng)
                            .expect("the miniature LeNet fits its input")
                    }
                };
                let conv1 = net.find("conv1").expect("LeNet has conv1");
                let Op::Conv(conv) = &mut net.node_mut(conv1).op else {
                    unreachable!("LeNet's conv1 is a convolution")
                };
                // fig7's recipe without the pruning: 8-bit quantised
                // weights (none tiny enough to pass for zero) and negative
                // biases, which make the pooled layer attackable without a
                // threshold. Pruned LeNet filters vary too much in attack
                // cost (40 % in victim queries) for a steady run.
                let shape = conv.weights().shape();
                *conv.weights_mut() = init::compressed_conv(&mut rng, shape, 0.0, 8);
                let bias = negative_biases(&mut rng, conv.d_ofm());
                conv.bias_mut().copy_from_slice(&bias);
                let conv = conv.clone();
                let truth = true_convs(&net);
                Victim::Lenet { net, conv, truth }
            }
        }
    }

    /// Runs one request against `victim` and checks its output.
    ///
    /// When `rec` is on, the request runs as a `request` span whose
    /// children time each layer; the weights oracle is metered; and one
    /// extra `trace.segment` call per trace, after the request span,
    /// times segmentation alone.
    ///
    /// # Errors
    ///
    /// Returns what failed when an attack errs or its output fails a check.
    pub fn request(
        self,
        victim: &Victim,
        opts: RequestOptions,
        rec: &mut Recorder,
        id: u64,
    ) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut traces = Vec::new();
        rec.span("request", id, |rec| -> Result<(), String> {
            match victim {
                Victim::Zoo(nets) => {
                    for z in nets {
                        let trace = trace_only(&z.net, rec, id, &mut out)?;
                        let structures =
                            structure_attack(&trace, z.input, z.classes, opts, rec, id, &mut out)?;
                        check_structures(&structures, &z.truth)?;
                        if opts.scale == Scale::Full && structures.len() != z.pinned_candidates {
                            return Err(format!(
                                "{} candidates where {} are pinned",
                                structures.len(),
                                z.pinned_candidates
                            ));
                        }
                        if rec.on() {
                            traces.push(trace);
                        }
                    }
                }
                Victim::Layer { conv, geom } => {
                    let geom = opts.geometry(*geom);
                    let cfg = recovery_config(opts);
                    let recovery = rec.span("weights.attack", id, |rec| {
                        let oracle = FunctionalOracle::new(conv.clone(), geom);
                        let (oracle, stats) = Metered::wrap(oracle, rec.on());
                        let (got, registry) = with_registry_counts(rec.on(), || {
                            recover_ratios_parallel(oracle, &cfg)
                        });
                        out.oracle = stats.map(|s| s.usage(cfg.threads, registry));
                        got
                    });
                    out.victim_queries += recovery.queries;
                    check_weights(&recovery, conv, self.coverage_floor(), &mut out)?;
                }
                Victim::Lenet { net, conv, truth } => {
                    let trace = trace_only(net, rec, id, &mut out)?;
                    let input = net.input_shape();
                    let classes = net.output_shape().c;
                    let structures = structure_attack(
                        &trace,
                        (input.w, input.c),
                        classes,
                        opts,
                        rec,
                        id,
                        &mut out,
                    )?;
                    check_structures(&structures, truth)?;
                    // The adversary continues with the true structure,
                    // which the check above found among the candidates.
                    let conv1 = structures
                        .iter()
                        .filter_map(|s| s.conv_layers().first().copied())
                        .find(|c| truth[0].matches(c))
                        .ok_or("no candidate has the true conv1")?;
                    let geom = opts.geometry(geometry_of(conv1));
                    let cfg = recovery_config(opts);
                    let recovery = rec.span("weights.attack", id, |rec| {
                        let oracle = AcceleratorOracle::new(conv.clone(), geom);
                        let (mut oracle, stats) = Metered::wrap(oracle, rec.on());
                        let got = recover_ratios(&mut oracle, &cfg);
                        out.oracle = stats.map(|s| s.usage(1, None));
                        got
                    });
                    out.victim_queries += recovery.queries;
                    check_weights(&recovery, conv, self.coverage_floor(), &mut out)?;
                    if rec.on() {
                        traces.push(trace);
                    }
                }
            }
            Ok(())
        })?;
        for trace in &traces {
            rec.span("trace.segment", id, |_| {
                cnnre_trace::segment::segment_trace(trace).len()
            });
        }
        if id == 0 {
            if let Some(pinned) = self.pinned_weights(opts.scale, opts.seed) {
                let got = [out.resolved, out.zero, out.unrecovered];
                if got != pinned {
                    return Err(format!(
                        "(resolved, zero, unrecovered) = {got:?}, pinned {pinned:?}"
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Smallest share of weights an attack must recover (as a ratio or an
    /// identified zero) to pass.
    fn coverage_floor(self) -> f64 {
        match self {
            Workload::WeightsPlain => 0.999,
            Workload::WeightsPooled => 0.95,
            Workload::StructureZoo | Workload::LenetE2e => 0.9,
        }
    }
}

/// What a request needs besides its victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOptions {
    /// Problem size.
    pub scale: Scale,
    /// The run's seed (selects the pinned counts).
    pub seed: u64,
    /// Exec-pool workers for the structure solver and weights attack.
    pub threads: usize,
    /// Give the weights oracle a geometry with one filter too many.
    pub fault: bool,
}

impl RequestOptions {
    fn geometry(self, geom: LayerGeometry) -> LayerGeometry {
        if self.fault {
            LayerGeometry {
                d_ofm: geom.d_ofm + 1,
                ..geom
            }
        } else {
            geom
        }
    }
}

/// The victim(s) of one request.
#[derive(Debug, Clone)]
pub enum Victim {
    /// Study networks for the structure attack.
    Zoo(Vec<ZooNet>),
    /// One convolution layer for the weights attack.
    Layer {
        /// The victim layer's parameters.
        conv: Conv2d,
        /// Its geometry, which the weights attack assumes known.
        geom: LayerGeometry,
    },
    /// A whole network attacked end to end.
    Lenet {
        /// The victim network.
        net: Network,
        /// Its first convolution, the weights attack's target.
        conv: Conv2d,
        /// The true geometry of every convolution, in order.
        truth: Vec<TrueConv>,
    },
}

/// One study network with what the structure attack must find in it.
#[derive(Debug, Clone)]
pub struct ZooNet {
    net: Network,
    input: (usize, usize),
    classes: usize,
    truth: Vec<TrueConv>,
    pinned_candidates: usize,
}

impl ZooNet {
    fn new(net: Network, input: (usize, usize), classes: usize, pinned_candidates: usize) -> Self {
        let truth = true_convs(&net);
        Self {
            net,
            input,
            classes,
            truth,
            pinned_candidates,
        }
    }
}

/// Counts from one request; `segments` and `oracle` are filled in traced
/// requests only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    /// Victim inferences the attack needed: one per trace-only run plus
    /// every weights-oracle query.
    pub victim_queries: u64,
    /// Trace events observed.
    pub events: u64,
    /// Simulated accelerator cycles of the traces.
    pub cycles: u64,
    /// Segments (observed layers) the trace analysis found.
    pub segments: u64,
    /// Candidate structures recovered.
    pub candidates: u64,
    /// Weights recovered as a ratio or an identified zero.
    pub resolved: u64,
    /// Weights identified as zero.
    pub zero: u64,
    /// Weights left unrecovered.
    pub unrecovered: u64,
    /// The metered weights oracle, when traced.
    pub oracle: Option<OracleUse>,
}

/// The true geometry of one convolution of a victim network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrueConv {
    f: usize,
    s: usize,
    p: usize,
    d_ofm: usize,
    pool: Option<(usize, usize, usize)>,
}

impl TrueConv {
    /// Whether `c` is this layer, up to the padding representative the
    /// solver keeps (same pre-pool width).
    fn matches(&self, c: &LayerParams) -> bool {
        c.f_conv == self.f
            && c.s_conv == self.s
            && c.d_ofm == self.d_ofm
            && c.pool.map(|q| (q.f, q.s, q.p)) == self.pool
            && cnnre_nn::geometry::conv_out(c.w_ifm, self.f, self.s, self.p) == c.conv_out_w()
    }
}

/// Reads every convolution's geometry, and the pool its ReLU feeds, off
/// the victim network. Global average pooling is the pool that spans the
/// whole convolution output, as the solver reports it.
fn true_convs(net: &Network) -> Vec<TrueConv> {
    let nodes = net.nodes();
    let consumer = |of: usize| {
        nodes
            .iter()
            .position(|n| n.inputs.first().map(|i| i.index()) == Some(of))
    };
    nodes
        .iter()
        .enumerate()
        .filter_map(|(k, node)| {
            let Op::Conv(conv) = &node.op else {
                return None;
            };
            let w = conv.window();
            let pool = consumer(k)
                .filter(|&r| matches!(nodes[r].op, Op::Relu(_)))
                .and_then(consumer)
                .and_then(|p| match &nodes[p].op {
                    Op::Pool(pool) => {
                        let pw = pool.window();
                        Some((pw.f, pw.s, pw.p))
                    }
                    Op::GlobalAvgPool => {
                        let w = net.shape(NodeId::from_index(k)).w;
                        Some((w, w, 0))
                    }
                    _ => None,
                });
            Some(TrueConv {
                f: w.f,
                s: w.s,
                p: w.p,
                d_ofm: conv.d_ofm(),
                pool,
            })
        })
        .collect()
}

fn check_structures(structures: &[CandidateStructure], truth: &[TrueConv]) -> Result<(), String> {
    let found = structures.iter().any(|s| {
        let convs = s.conv_layers();
        convs.len() == truth.len() && convs.iter().zip(truth).all(|(c, t)| t.matches(c))
    });
    if found {
        Ok(())
    } else {
        Err(format!(
            "true structure missing among {} candidates",
            structures.len()
        ))
    }
}

fn check_weights(
    recovery: &RatioRecovery,
    conv: &Conv2d,
    coverage_floor: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let shape = conv.weights().shape();
    if recovery.filters.len() != shape.n {
        return Err(format!(
            "{} filters recovered, the victim has {}",
            recovery.filters.len(),
            shape.n
        ));
    }
    let mut false_zeros = 0u64;
    for (d, filter) in recovery.filters.iter().enumerate() {
        for (k, ratio) in filter.as_slice().iter().enumerate() {
            let (c, i, j) = (k / (shape.h * shape.w), k / shape.w % shape.h, k % shape.w);
            match ratio {
                Some(r) if *r == 0.0 => {
                    out.resolved += 1;
                    out.zero += 1;
                    if conv.weights()[(d, c, i, j)] != 0.0 {
                        false_zeros += 1;
                    }
                }
                Some(_) => out.resolved += 1,
                None => out.unrecovered += 1,
            }
        }
    }
    let err = recovery.max_ratio_error(conv.weights(), conv.bias());
    if err.is_nan() || err >= MAX_RATIO_ERROR {
        return Err(format!("max |w/b| error {err:.3e} is not below 2^-10"));
    }
    if false_zeros > 0 {
        return Err(format!("{false_zeros} non-zero weights reported as zero"));
    }
    let coverage = recovery.coverage();
    if coverage < coverage_floor {
        return Err(format!(
            "coverage {coverage:.4} below the floor {coverage_floor}"
        ));
    }
    Ok(())
}

fn trace_only(
    net: &Network,
    rec: &mut Recorder,
    id: u64,
    out: &mut Outcome,
) -> Result<Trace, String> {
    let exec = rec
        .span("accel.trace_only", id, |_| {
            Accelerator::new(AccelConfig::default()).run_trace_only(net)
        })
        .map_err(|e| format!("trace-only run: {e}"))?;
    out.victim_queries += 1;
    out.events += exec.trace.len() as u64;
    out.cycles += exec.trace.duration();
    Ok(exec.trace)
}

/// `recover_structures` untraced; traced, the same steps through their
/// public parts so observation and solving are timed apart.
fn structure_attack(
    trace: &Trace,
    input: (usize, usize),
    classes: usize,
    opts: RequestOptions,
    rec: &mut Recorder,
    id: u64,
    out: &mut Outcome,
) -> Result<Vec<CandidateStructure>, String> {
    let cfg = NetworkSolverConfig {
        layer: SolverConfig {
            threads: opts.threads,
            ..SolverConfig::default()
        },
        ..NetworkSolverConfig::default()
    };
    let structures = if rec.on() {
        let obs = rec.span("trace.observe", id, |_| {
            cnnre_trace::observe::observe(trace)
        });
        out.segments += obs.layers.len() as u64;
        rec.span("structure.solve", id, |_| {
            enumerate_structures(
                &ObservedNetwork::from_observations(&obs),
                input,
                classes,
                &cfg,
            )
        })
    } else {
        recover_structures(trace, input, classes, &cfg)
    }
    .map_err(|e| format!("structure attack: {e}"))?;
    out.candidates += structures.len() as u64;
    Ok(structures)
}

fn recovery_config(opts: RequestOptions) -> RecoveryConfig {
    RecoveryConfig {
        threads: opts.threads,
        ..RecoveryConfig::default()
    }
}

fn layer_geometry(
    c: usize,
    w: usize,
    d_ofm: usize,
    f: usize,
    s: usize,
    p: usize,
    pool: Option<(PoolKind, usize, usize, usize)>,
) -> LayerGeometry {
    LayerGeometry {
        input: Shape3::new(c, w, w),
        d_ofm,
        f,
        s,
        p,
        pool,
        order: MergedOrder::ActThenPool,
        threshold: 0.0,
    }
}

/// The weights attack's geometry for a recovered conv layer (the side
/// channel cannot tell pooling flavours apart; the victims use max).
fn geometry_of(c: &LayerParams) -> LayerGeometry {
    layer_geometry(
        c.d_ifm,
        c.w_ifm,
        c.d_ofm,
        c.f_conv,
        c.s_conv,
        c.p_conv,
        c.pool.map(|q| (PoolKind::Max, q.f, q.s, q.p)),
    )
}

fn negative_biases(rng: &mut SmallRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| -rng.gen_range(0.05..0.5f32)).collect()
}

/// Victims of different requests are independent draws of one seed.
fn victim_rng(seed: u64, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn true_geometry_is_read_off_the_network() {
        let mut rng = SmallRng::seed_from_u64(0);
        let truth = true_convs(&lenet(1, 10, &mut rng));
        let conv = TrueConv {
            f: 5,
            s: 1,
            p: 0,
            d_ofm: 6,
            pool: Some((2, 2, 0)),
        };
        assert_eq!(truth, vec![conv, TrueConv { d_ofm: 16, ..conv }]);
    }
}
