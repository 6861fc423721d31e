//! Network-level candidate assembly — the paper's Algorithm 1, step 5:
//! *"List valid combination of layers as possible structure which satisfies
//! `(W_OFM_i = W_IFM_{i+1}) ∧ (D_OFM_i = D_IFM_{i+1})`"* — generalized to
//! the dependency DAGs the trace analyzer recovers (concatenating fire
//! modules and element-wise bypass merges included).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use cnnre_model::sync::Arc;
use cnnre_trace::observe::{LayerKindHint, TraceObservations};

use crate::structure::solver::{
    solve_conv_layer, solve_fc_layer, FcParams, ObservedLayer, SolverConfig,
};
use crate::structure::LayerParams;

/// One node's combined CONV+FC candidate list: each choice with the output
/// interface it implies, in the order the per-layer solver produces it.
type NodeCandidates = Vec<(NodeChoice, (usize, usize))>;

/// The walk's per-layer candidate cache: `(node index, input interface)` →
/// that node's [`NodeCandidates`].
///
/// A node reached through many parent assignments with the same interface
/// is enumerated once instead of once per visit, and the `solver.memo.*`
/// counters record the saving: `misses` is the number of distinct keys,
/// `hits` the re-enumerations eliminated.
#[derive(Default)]
struct CandidateMemo {
    entries: BTreeMap<(usize, (usize, usize)), Arc<NodeCandidates>>,
    hits: u64,
    misses: u64,
}

impl CandidateMemo {
    /// Returns the cached list for `key`, running `compute` on the first
    /// lookup only.
    fn get_or_compute(
        &mut self,
        key: (usize, (usize, usize)),
        compute: impl FnOnce() -> NodeCandidates,
    ) -> Arc<NodeCandidates> {
        match self.entries.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                Arc::clone(e.get())
            }
            Entry::Vacant(e) => {
                self.misses += 1;
                Arc::clone(e.insert(Arc::new(compute())))
            }
        }
    }
}

/// What the adversary concluded one trace segment is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedKind {
    /// The host staging the network input (known shape).
    Input,
    /// A CONV/FC compute layer.
    Compute(ObservedLayer),
    /// An element-wise merge (bypass join) — weightless, but its output
    /// footprint is still observed (needed to tell "add of two 128-deep
    /// maps, each stored as two adjacent 64-deep slices" apart from "add of
    /// four 64-deep maps").
    Merge(ObservedLayer),
}

/// One node of the observed dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedNode {
    /// Classification and measurements.
    pub kind: ObservedKind,
    /// Indices of the nodes whose output feature maps this node reads.
    pub sources: Vec<usize>,
}

/// The adversary's view of the whole network: a DAG of observed layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedNetwork {
    /// Nodes in execution order (node 0 is the input prologue).
    pub nodes: Vec<ObservedNode>,
}

impl ObservedNetwork {
    /// Builds the observed DAG from raw trace observations.
    ///
    /// # Panics
    ///
    /// Panics when the trace contains no segments.
    #[must_use]
    pub fn from_observations(obs: &TraceObservations) -> Self {
        assert!(!obs.layers.is_empty(), "empty trace");
        let nodes = obs
            .layers
            .iter()
            .map(|l| {
                let kind = match l.kind {
                    LayerKindHint::Prologue => ObservedKind::Input,
                    LayerKindHint::Compute => ObservedKind::Compute(ObservedLayer {
                        ifm_blocks: l.ifm_blocks_total(),
                        ofm_blocks: l.ofm_blocks,
                        fltr_blocks: l.weight_blocks,
                        cycles: l.cycles.max(1),
                    }),
                    LayerKindHint::Merge | LayerKindHint::Other => {
                        ObservedKind::Merge(ObservedLayer {
                            ifm_blocks: l.ifm_blocks_total(),
                            ofm_blocks: l.ofm_blocks,
                            fltr_blocks: l.weight_blocks,
                            cycles: l.cycles.max(1),
                        })
                    }
                };
                ObservedNode {
                    kind,
                    sources: l.ifm_sources.iter().map(|s| s.producer).collect(),
                }
            })
            .collect();
        Self { nodes }
    }

    /// Number of compute layers (CONV/FC), the paper's "# of layers".
    #[must_use]
    pub fn compute_layer_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, ObservedKind::Compute(_)))
            .count()
    }

    /// Indices of nodes a bypass path feeds into: merge nodes reading a
    /// non-adjacent producer.
    #[must_use]
    pub fn bypass_merges(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, ObservedKind::Merge(_)))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The structural decision made for one observed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeChoice {
    /// The network input (shape known to the adversary).
    Input,
    /// A convolutional layer with the given parameters.
    Conv(LayerParams),
    /// A fully connected layer.
    Fc(FcParams),
    /// An element-wise merge (no free parameters).
    Merge,
}

impl NodeChoice {
    /// The convolutional parameters, if this is a CONV choice.
    #[must_use]
    pub fn as_conv(&self) -> Option<&LayerParams> {
        match self {
            NodeChoice::Conv(p) => Some(p),
            _ => None,
        }
    }
}

/// Side-channel-visible geometry of one conv layer:
/// `(F_conv, S_conv, P_conv, pooling)`.
pub type LayerSignature = (usize, usize, usize, Option<(usize, usize, usize)>);

/// One complete candidate network structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateStructure {
    /// Per-node choices, aligned with [`ObservedNetwork::nodes`].
    pub choices: Vec<NodeChoice>,
}

impl CandidateStructure {
    /// The CONV-layer choices in execution order.
    #[must_use]
    pub fn conv_layers(&self) -> Vec<&LayerParams> {
        self.choices
            .iter()
            .filter_map(NodeChoice::as_conv)
            .collect()
    }

    /// The FC-layer choices in execution order.
    #[must_use]
    pub fn fc_layers(&self) -> Vec<&FcParams> {
        self.choices
            .iter()
            .filter_map(|c| match c {
                NodeChoice::Fc(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// A geometry signature per conv layer (filter, stride, padding, pool),
    /// used by the modularity filter.
    #[must_use]
    pub fn geometry_signature(&self) -> Vec<LayerSignature> {
        self.conv_layers()
            .iter()
            .map(|p| {
                (
                    p.f_conv,
                    p.s_conv,
                    p.p_conv,
                    p.pool.map(|q| (q.f, q.s, q.p)),
                )
            })
            .collect()
    }
}

/// Network-level solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSolverConfig {
    /// Per-layer enumeration settings.
    pub layer: SolverConfig,
    /// Across one candidate structure, the largest/smallest per-layer
    /// utilization (`MACs/cycles`) ratio allowed — the paper's "execution
    /// time ratio between layers should be consistent with the ratio of MAC
    /// operations".
    pub chain_util_ratio: f64,

    /// Abort if more than this many structures are enumerated.
    pub max_structures: usize,
}

impl Default for NetworkSolverConfig {
    fn default() -> Self {
        Self {
            layer: SolverConfig::default(),
            chain_util_ratio: 1.5,
            max_structures: 100_000,
        }
    }
}

/// Error from structure enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The trace contains no segments at all (empty or headerless input).
    EmptyTrace,
    /// The enumeration exceeded [`NetworkSolverConfig::max_structures`].
    TooManyStructures(usize),
    /// A node's sources were structurally inconsistent (e.g. a merge of
    /// different interface shapes for every candidate assignment).
    NoCandidates {
        /// Index of the first unsatisfiable node.
        node: usize,
    },
}

impl core::fmt::Display for SolveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolveError::EmptyTrace => write!(f, "the trace contains no layer segments"),
            SolveError::TooManyStructures(n) => write!(f, "more than {n} candidate structures"),
            SolveError::NoCandidates { node } => {
                write!(f, "no consistent candidate for observed layer {node}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Enumerates every candidate structure of `net` consistent with the known
/// input interface `(w, d)` and the known number of output classes.
///
/// # Errors
///
/// Returns [`SolveError`] when the enumeration explodes past the configured
/// cap, or when some node admits no candidate under any assignment.
pub fn enumerate_structures(
    net: &ObservedNetwork,
    input: (usize, usize),
    classes: usize,
    cfg: &NetworkSolverConfig,
) -> Result<Vec<CandidateStructure>, SolveError> {
    let _span = cnnre_obs::span("chain");
    let mut walk = Walk {
        net,
        input,
        classes,
        cfg,
        memo: CandidateMemo::default(),
        choices: Vec::with_capacity(net.nodes.len()),
        ifaces: Vec::with_capacity(net.nodes.len()),
        out: Vec::new(),
        deepest_fail: 0,
        branches: 0,
    };
    let result = walk.recurse();
    record_enumeration_metrics(&walk);
    result?;
    if walk.out.is_empty() {
        return Err(SolveError::NoCandidates {
            node: walk.deepest_fail,
        });
    }
    Ok(walk.out)
}

/// Flushes chain-level observability after an enumeration pass: the total
/// recursion branch count, the structure count, the memo economy
/// (`solver.memo.hits` = per-layer re-enumerations eliminated), and — the
/// paper's headline quantity — the number of distinct surviving candidates
/// per layer (`solver.candidates_per_layer`, one series entry per node).
fn record_enumeration_metrics(walk: &Walk) {
    let Walk {
        net,
        out,
        branches,
        memo,
        ..
    } = walk;
    let metrics = cnnre_obs::enabled();
    if metrics {
        let reg = cnnre_obs::global();
        reg.counter("solver.chain.recursion_branches")
            .add(*branches);
        reg.counter("solver.chain.structures_surviving")
            .add(out.len() as u64);
        reg.counter("solver.memo.hits").add(memo.hits);
        reg.counter("solver.memo.misses").add(memo.misses);
    }
    let streaming = cnnre_obs::stream::enabled();
    if metrics || streaming {
        for node in 0..net.nodes.len() {
            // lint:allow(hash-iter): count-only use (len()); iteration order
            // is never observed
            let distinct: std::collections::HashSet<NodeChoice> =
                out.iter().map(|s| s.choices[node]).collect();
            if metrics {
                cnnre_obs::series("solver.candidates_per_layer").push(distinct.len() as f64);
            }
            if streaming {
                cnnre_obs::stream::emit(cnnre_obs::stream::EventPayload::LayerChained {
                    layer: node as u64,
                    distinct: distinct.len() as u64,
                });
            }
        }
    }
    cnnre_obs::log_info!(
        "solver",
        "chain enumeration: {} recursion branches, {} surviving structures across {} nodes",
        branches,
        out.len(),
        net.nodes.len()
    );
}

/// The depth-first walk over per-node choices: the read-only problem, the
/// memo, the current prefix and the accumulators.
struct Walk<'a> {
    net: &'a ObservedNetwork,
    input: (usize, usize),
    classes: usize,
    cfg: &'a NetworkSolverConfig,
    memo: CandidateMemo,
    choices: Vec<NodeChoice>,
    ifaces: Vec<(usize, usize)>,
    out: Vec<CandidateStructure>,
    deepest_fail: usize,
    branches: u64,
}

impl Walk<'_> {
    /// Pushes one choice and its output interface, walks the rest of the
    /// network under it, and pops it again.
    fn descend(&mut self, choice: NodeChoice, iface: (usize, usize)) -> Result<(), SolveError> {
        self.choices.push(choice);
        self.ifaces.push(iface);
        self.recurse()?;
        self.choices.pop();
        self.ifaces.pop();
        Ok(())
    }

    fn recurse(&mut self) -> Result<(), SolveError> {
        let (net, cfg) = (self.net, self.cfg);
        self.branches += 1;
        let i = self.choices.len();
        if i == net.nodes.len() {
            // Terminal checks: classifier interface and chain-wide
            // utilization consistency.
            // lint:allow(panic): ifaces is seeded with the input interface
            // before the first recursive call and only ever grows
            let &(w_last, d_last) = self.ifaces.last().expect("non-empty network");
            if w_last != 1 || d_last != self.classes {
                return Ok(());
            }
            let structure = CandidateStructure {
                choices: self.choices.clone(),
            };
            if chain_utilization_consistent(net, &structure, cfg) {
                if self.out.len() >= cfg.max_structures {
                    return Err(SolveError::TooManyStructures(cfg.max_structures));
                }
                self.out.push(structure);
            }
            return Ok(());
        }
        self.deepest_fail = self.deepest_fail.max(i);
        let node = &net.nodes[i];
        let ifaces = &self.ifaces;
        match node.kind {
            ObservedKind::Input => self.descend(NodeChoice::Input, self.input)?,
            ObservedKind::Merge(obs) => {
                // All sources share one width; their depths partition into
                // k >= 2 equal operands of the output depth, which the
                // merge's own OFM footprint pins down.
                let Some(&(w, _)) = node.sources.first().map(|&s| &ifaces[s]) else {
                    return Ok(());
                };
                if node.sources.iter().any(|&s| ifaces[s].0 != w) {
                    return Ok(());
                }
                let total_depth: usize = node.sources.iter().map(|&s| ifaces[s].1).sum();
                let w2 = (w as u64).pow(2);
                for d_out in 1..=total_depth / 2 {
                    if total_depth.is_multiple_of(d_out)
                        && cfg.layer.size_matches(obs.ofm_blocks, w2 * d_out as u64)
                    {
                        self.descend(NodeChoice::Merge, (w, d_out))?;
                    }
                }
            }
            ObservedKind::Compute(obs) => {
                // Input interface: single source passes through; multiple
                // sources are a depth concatenation (equal widths, summed
                // depths).
                let iface = match node.sources[..] {
                    [] => return Ok(()),
                    [s] => ifaces[s],
                    _ => {
                        let w = ifaces[node.sources[0]].0;
                        if node.sources.iter().any(|&s| ifaces[s].0 != w) {
                            return Ok(());
                        }
                        (w, node.sources.iter().map(|&s| ifaces[s].1).sum())
                    }
                };
                // Enumeration-progress telemetry at the first compute
                // layer: each top-level candidate roots an independent
                // subtree, so "% of roots consumed" plus "branches per
                // finished root × roots left" is the best available ETA.
                let first_compute = net
                    .nodes
                    .iter()
                    .position(|n| matches!(n.kind, ObservedKind::Compute(_)))
                    == Some(i);
                // Only the root solve shards its grid. With every layer's
                // grid sharded, the solve share of a traced structure-zoo
                // run doubled (1.44–1.54% against 0.61–0.71% at 2 workers).
                let solve_cfg = if first_compute {
                    cfg.layer
                } else {
                    SolverConfig {
                        threads: 1,
                        ..cfg.layer
                    }
                };
                let cands = self.memo.get_or_compute((i, iface), || {
                    let mut cands: Vec<(NodeChoice, (usize, usize))> =
                        solve_conv_layer(&obs, &[iface], &solve_cfg)
                            .into_iter()
                            .map(|p| (NodeChoice::Conv(p), (p.w_ofm, p.d_ofm)))
                            .collect();
                    cands.extend(
                        solve_fc_layer(&obs, &[iface], &solve_cfg)
                            .into_iter()
                            .map(|fc| (NodeChoice::Fc(fc), (1, fc.out_features))),
                    );
                    cands
                });
                let streaming = cnnre_obs::stream::enabled() && first_compute;
                let total = cands.len();
                let entry_branches = self.branches;
                for (k, &(choice, out_iface)) in cands.iter().enumerate() {
                    if streaming {
                        // ETA: branches per finished root (roots 0..k)
                        // times the roots left.
                        let done = self.branches - entry_branches;
                        let eta_branches = if k > 0 {
                            done * (total - k) as u64 / k as u64
                        } else {
                            0
                        };
                        cnnre_obs::stream::emit(
                            cnnre_obs::stream::EventPayload::CandidatesNarrowed {
                                layer: i as u64,
                                remaining: (total - k) as u64,
                                eta_branches,
                                root_pct_bp: (10_000 * k / total.max(1)) as u64,
                            },
                        );
                    }
                    self.descend(choice, out_iface)?;
                }
            }
        }
        Ok(())
    }
}

/// The paper's cross-layer execution-time filter, applied per candidate
/// structure: CONV layers' implied utilizations (`MACs/cycles`) must agree
/// within [`NetworkSolverConfig::chain_util_ratio`].
fn chain_utilization_consistent(
    net: &ObservedNetwork,
    structure: &CandidateStructure,
    cfg: &NetworkSolverConfig,
) -> bool {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for (node, choice) in net.nodes.iter().zip(&structure.choices) {
        let (ObservedKind::Compute(obs), NodeChoice::Conv(p)) = (&node.kind, choice) else {
            continue;
        };
        // Memory-bound layers (cycles dominated by their own transaction
        // count) tell us nothing about PE utilization.
        if !obs.is_compute_bound(cfg.layer.min_compute_ratio) {
            continue;
        }
        let util = p.macs() as f64 / obs.cycles.max(1) as f64;
        lo = lo.min(util);
        hi = hi.max(util);
    }
    lo > hi || hi <= lo * cfg.chain_util_ratio
}

/// Retains only structures in which every layer group in `groups` (e.g. the
/// same role across all fire modules of SqueezeNet, as conv-layer index
/// sets) has identical *convolution* geometry `(F, S, P)` — the paper's
/// modularity assumption ("large CNNs are typically constructed in a
/// modular fashion, where the same building block is reused"). Pooling is
/// deliberately excluded from the signature: down-sampling points are a
/// separate architectural choice (SqueezeNet pools after fire4/fire8 only).
#[must_use]
pub fn filter_modular(
    structures: Vec<CandidateStructure>,
    groups: &[Vec<usize>],
) -> Vec<CandidateStructure> {
    structures
        .into_iter()
        .filter(|s| {
            let convs = s.conv_layers();
            groups.iter().all(|group| {
                let mut sigs = group
                    .iter()
                    .map(|&layer| convs.get(layer).map(|p| (p.f_conv, p.s_conv, p.p_conv)));
                match sigs.next() {
                    None => true,
                    Some(first) => sigs.all(|g| g == first),
                }
            })
        })
        .collect()
}

/// Retains only structures in which every conv-layer group in `pool_groups`
/// shares an identical pooling signature (including "no pooling"). Used
/// together with [`filter_modular`]: a network's down-sampling points reuse
/// one pooling design (e.g. SqueezeNet pools with the same 3×3/s2 window
/// after fire4 and fire8, applied identically to both expand branches).
#[must_use]
pub fn filter_modular_pools(
    structures: Vec<CandidateStructure>,
    pool_groups: &[Vec<usize>],
) -> Vec<CandidateStructure> {
    structures
        .into_iter()
        .filter(|s| {
            let convs = s.conv_layers();
            pool_groups.iter().all(|group| {
                let mut sigs = group.iter().map(|&layer| convs.get(layer).map(|p| p.pool));
                match sigs.next() {
                    None => true,
                    Some(first) => sigs.all(|g| g == first),
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::PoolParams;

    fn blocks(e: u64) -> u64 {
        e.div_ceil(16)
    }

    fn obs_for(p: &LayerParams, util: f64) -> ObservedLayer {
        ObservedLayer {
            ifm_blocks: blocks(p.size_ifm()),
            ofm_blocks: blocks(p.size_ofm()),
            fltr_blocks: blocks(p.size_fltr()),
            cycles: (p.macs() as f64 / (util * 256.0)).ceil() as u64,
        }
    }

    fn obs_for_fc(inf: u64, outf: u64) -> ObservedLayer {
        ObservedLayer {
            ifm_blocks: blocks(inf),
            ofm_blocks: blocks(outf),
            fltr_blocks: blocks(inf * outf),
            cycles: (inf * outf / 8).max(1),
        }
    }

    /// A LeNet-like chain: input -> conv -> conv -> fc -> fc.
    fn lenet_like() -> (ObservedNetwork, Vec<LayerParams>) {
        let c1 = LayerParams {
            w_ifm: 32,
            d_ifm: 1,
            w_ofm: 14,
            d_ofm: 6,
            f_conv: 5,
            s_conv: 1,
            p_conv: 0,
            pool: Some(PoolParams { f: 2, s: 2, p: 0 }),
        };
        let c2 = LayerParams {
            w_ifm: 14,
            d_ifm: 6,
            w_ofm: 5,
            d_ofm: 16,
            f_conv: 5,
            s_conv: 1,
            p_conv: 0,
            pool: Some(PoolParams { f: 2, s: 2, p: 0 }),
        };
        let net = ObservedNetwork {
            nodes: vec![
                ObservedNode {
                    kind: ObservedKind::Input,
                    sources: vec![],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(obs_for(&c1, 0.8)),
                    sources: vec![0],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(obs_for(&c2, 0.8)),
                    sources: vec![1],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(obs_for_fc(400, 120)),
                    sources: vec![2],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(obs_for_fc(120, 10)),
                    sources: vec![3],
                },
            ],
        };
        (net, vec![c1, c2])
    }

    #[test]
    fn memo_computes_each_key_once() {
        let mut memo = CandidateMemo::default();
        let a = memo.get_or_compute((1, (32, 1)), || vec![(NodeChoice::Merge, (16, 1))]);
        let b = memo.get_or_compute((1, (32, 1)), || unreachable!("must be cached"));
        assert_eq!(*a, vec![(NodeChoice::Merge, (16, 1))]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((memo.hits, memo.misses), (1, 1));
        let _ = memo.get_or_compute((1, (16, 1)), Vec::new);
        assert_eq!((memo.hits, memo.misses), (1, 2));
    }

    #[test]
    fn chain_enumeration_contains_truth() {
        let (net, truth) = lenet_like();
        let structures =
            enumerate_structures(&net, (32, 1), 10, &NetworkSolverConfig::default()).unwrap();
        assert!(!structures.is_empty());
        let found = structures.iter().any(|s| {
            let convs = s.conv_layers();
            convs.len() == 2 && *convs[0] == truth[0] && *convs[1] == truth[1]
        });
        assert!(
            found,
            "ground truth structure missing among {}",
            structures.len()
        );
        // Every structure ends in (1, 10).
        for s in &structures {
            let fcs = s.fc_layers();
            assert_eq!(fcs.last().unwrap().out_features, 10);
        }
    }

    #[test]
    fn wrong_class_count_yields_no_structures() {
        let (net, _) = lenet_like();
        let err = enumerate_structures(&net, (32, 1), 11, &NetworkSolverConfig::default());
        assert!(matches!(err, Err(SolveError::NoCandidates { .. })));
    }

    #[test]
    fn merge_requires_equal_interfaces() {
        // input -> conv(a) -> merge(input?, a): interfaces differ -> the
        // merge is unsatisfiable.
        let c = LayerParams {
            w_ifm: 8,
            d_ifm: 4,
            w_ofm: 8,
            d_ofm: 8,
            f_conv: 3,
            s_conv: 1,
            p_conv: 1,
            pool: None,
        };
        let net = ObservedNetwork {
            nodes: vec![
                ObservedNode {
                    kind: ObservedKind::Input,
                    sources: vec![],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(obs_for(&c, 0.8)),
                    sources: vec![0],
                },
                ObservedNode {
                    kind: ObservedKind::Merge(ObservedLayer {
                        ifm_blocks: 0,
                        ofm_blocks: blocks(8 * 8 * 8),
                        fltr_blocks: 0,
                        cycles: 1,
                    }),
                    sources: vec![0, 1],
                },
            ],
        };
        let err = enumerate_structures(&net, (8, 4), 8, &NetworkSolverConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn concat_sums_depths() {
        // input(8,4) -> a: conv 4 filters; b: conv 12 filters (both 1x1) ->
        // classifier conv reads both (concat depth 16), global-pools to 1.
        let a = LayerParams {
            w_ifm: 8,
            d_ifm: 4,
            w_ofm: 8,
            d_ofm: 4,
            f_conv: 1,
            s_conv: 1,
            p_conv: 0,
            pool: None,
        };
        let b = LayerParams {
            w_ifm: 8,
            d_ifm: 4,
            w_ofm: 8,
            d_ofm: 12,
            f_conv: 1,
            s_conv: 1,
            p_conv: 0,
            pool: None,
        };
        let c = LayerParams {
            w_ifm: 8,
            d_ifm: 16,
            w_ofm: 1,
            d_ofm: 5,
            f_conv: 1,
            s_conv: 1,
            p_conv: 0,
            pool: Some(PoolParams { f: 8, s: 8, p: 0 }),
        };
        let net = ObservedNetwork {
            nodes: vec![
                ObservedNode {
                    kind: ObservedKind::Input,
                    sources: vec![],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(obs_for(&a, 0.8)),
                    sources: vec![0],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(obs_for(&b, 0.8)),
                    sources: vec![0],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(obs_for(&c, 0.8)),
                    sources: vec![1, 2],
                },
            ],
        };
        let structures =
            enumerate_structures(&net, (8, 4), 5, &NetworkSolverConfig::default()).unwrap();
        let found = structures.iter().any(|s| {
            let convs = s.conv_layers();
            convs.len() == 3 && convs[2].d_ifm == 16
        });
        assert!(found);
    }

    #[test]
    fn modularity_filter_requires_identical_groups() {
        let p1 = LayerParams {
            w_ifm: 8,
            d_ifm: 4,
            w_ofm: 8,
            d_ofm: 4,
            f_conv: 3,
            s_conv: 1,
            p_conv: 1,
            pool: None,
        };
        let p2 = LayerParams {
            f_conv: 5,
            p_conv: 2,
            ..p1
        };
        let same = CandidateStructure {
            choices: vec![NodeChoice::Conv(p1), NodeChoice::Conv(p1)],
        };
        let diff = CandidateStructure {
            choices: vec![NodeChoice::Conv(p1), NodeChoice::Conv(p2)],
        };
        let kept = filter_modular(vec![same.clone(), diff], &[vec![0, 1]]);
        assert_eq!(kept, vec![same]);
    }

    #[test]
    fn chain_util_filter_rejects_inconsistent_structures() {
        // Two identical conv layers, but the second's cycles imply a wildly
        // different utilization for its only candidate set... construct by
        // giving layer 2 cycles 10x larger than its MACs warrant while layer
        // 1 is at 0.8 utilization.
        let c1 = LayerParams {
            w_ifm: 16,
            d_ifm: 8,
            w_ofm: 16,
            d_ofm: 8,
            f_conv: 3,
            s_conv: 1,
            p_conv: 1,
            pool: None,
        };
        let c2 = LayerParams {
            w_ifm: 16,
            d_ifm: 8,
            w_ofm: 1,
            d_ofm: 9,
            f_conv: 3,
            s_conv: 1,
            p_conv: 1,
            pool: Some(PoolParams { f: 16, s: 16, p: 0 }),
        };
        let mut o2 = obs_for(&c2, 0.8);
        o2.cycles *= 10; // slow layer: utilization 0.08
        let net = ObservedNetwork {
            nodes: vec![
                ObservedNode {
                    kind: ObservedKind::Input,
                    sources: vec![],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(obs_for(&c1, 0.8)),
                    sources: vec![0],
                },
                ObservedNode {
                    kind: ObservedKind::Compute(o2),
                    sources: vec![1],
                },
            ],
        };
        // Layer-level min utilization already kills layer 2's candidates.
        let err = enumerate_structures(&net, (16, 8), 9, &NetworkSolverConfig::default());
        assert!(err.is_err());
    }
}
