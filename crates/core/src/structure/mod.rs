//! The structure reverse-engineering attack (the paper's §3).
//!
//! Pipeline (the paper's Algorithm 1):
//!
//! 1. segment the memory trace into layers via RAW dependencies
//!    ([`cnnre_trace::segment`]) and extract per-layer observations
//!    ([`cnnre_trace::observe`]);
//! 2. lift them into an [`ObservedNetwork`] DAG
//!    ([`ObservedNetwork::from_observations`]);
//! 3. enumerate per-layer parameter candidates satisfying Equations (1)–(8)
//!    with the execution-time (MAC) filter ([`solve_conv_layer`],
//!    [`solve_fc_layer`]);
//! 4. assemble candidates into whole-network structures along the DAG
//!    ([`enumerate_structures`]), optionally applying the modularity
//!    assumption ([`filter_modular`]);
//! 5. rank the survivors by short training (`cnnre_nn::train`, driven by
//!    the Figure-4/5 experiment harness).

mod chain;
mod params;
mod ranking;
mod search_space;
mod solver;

pub use chain::{
    enumerate_structures, filter_modular, filter_modular_pools, CandidateStructure,
    NetworkSolverConfig, NodeChoice, ObservedKind, ObservedNetwork, ObservedNode, SolveError,
};
pub use params::{LayerParams, PoolParams};
pub use ranking::{rank_candidates, RankedCandidate, RankingConfig};
pub use search_space::{reduction_report, Log10Size, ReductionRow, SearchSpaceBounds};
pub use solver::{
    fltr_size_matches, size_matches, solve_conv_layer, solve_fc_layer, FcParams, ObservedLayer,
    SolverConfig,
};

use cnnre_trace::Trace;

/// End-to-end structure attack: trace in, candidate structures out.
///
/// `input` is the `(W_IFM, D_IFM)` of the network input (the adversary
/// feeds the input, so its shape is known) and `classes` the number of
/// output scores (the classification result is returned to the adversary).
///
/// # Example
///
/// ```
/// use cnnre_accel::{AccelConfig, Accelerator};
/// use cnnre_attacks::structure::{recover_structures, NetworkSolverConfig};
/// use cnnre_nn::models::lenet;
/// use cnnre_tensor::rng::SmallRng;
/// use cnnre_tensor::rng::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let victim = lenet(1, 10, &mut rng);
/// let exec = Accelerator::new(AccelConfig::default()).run_trace_only(&victim)?;
/// let candidates =
///     recover_structures(&exec.trace, (32, 1), 10, &NetworkSolverConfig::default())?;
/// // The true LeNet geometry (5x5 convs, 2x2 pools) is among them.
/// assert!(candidates.iter().any(|s| {
///     s.conv_layers().iter().all(|c| c.f_conv == 5)
/// }));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`SolveError`] when no consistent structure exists (wrong
/// assumptions) or the candidate set explodes.
pub fn recover_structures(
    trace: &Trace,
    input: (usize, usize),
    classes: usize,
    cfg: &NetworkSolverConfig,
) -> Result<Vec<CandidateStructure>, SolveError> {
    let mut span = cnnre_obs::span("attack.structure");
    span.add_cycles(trace.duration());
    cnnre_obs::stream::start_run("attack.structure");
    let obs = {
        let _segment_span = cnnre_obs::span("segment");
        cnnre_trace::observe::observe(trace)
    };
    if obs.layers.is_empty() {
        return Err(SolveError::EmptyTrace);
    }
    let net = ObservedNetwork::from_observations(&obs);
    let _solve_span = cnnre_obs::span("solve");
    let structures = enumerate_structures(&net, input, classes, cfg)?;
    if cnnre_obs::stream::enabled() {
        emit_recovered_graph(&structures);
    }
    Ok(structures)
}

/// Streams the final recovered structure (candidate 0) as graph-growth
/// events, numbering compute layers the way the candidate JSONL export
/// does (Input/Merge nodes are skipped), then closes the run.
fn emit_recovered_graph(structures: &[CandidateStructure]) {
    use cnnre_obs::stream::EventPayload;
    if let Some(best) = structures.first() {
        let mut li: u64 = 0;
        for choice in &best.choices {
            match choice {
                NodeChoice::Conv(p) => {
                    cnnre_obs::stream::emit(EventPayload::GraphConv {
                        layer: li,
                        w_ifm: p.w_ifm as u64,
                        d_ifm: p.d_ifm as u64,
                        w_ofm: p.w_ofm as u64,
                        d_ofm: p.d_ofm as u64,
                        f_conv: p.f_conv as u64,
                        s_conv: p.s_conv as u64,
                        p_conv: p.p_conv as u64,
                        pool: p.pool.map(|q| (q.f as u64, q.s as u64, q.p as u64)),
                    });
                    li += 1;
                }
                NodeChoice::Fc(p) => {
                    cnnre_obs::stream::emit(EventPayload::GraphFc {
                        layer: li,
                        in_features: p.in_features as u64,
                        out_features: p.out_features as u64,
                    });
                    li += 1;
                }
                NodeChoice::Input | NodeChoice::Merge => {}
            }
        }
    }
    cnnre_obs::stream::emit(EventPayload::RunFinished {
        structures: structures.len() as u64,
    });
}
