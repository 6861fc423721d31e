//! Thread-count determinism suite for the parallel attack engines
//! (DESIGN.md §13): structure-candidate enumeration, weight recovery, and
//! every deterministic telemetry artifact (the `.evt` event recordings of
//! both attacks and the cycle-domain profile export) must be
//! **byte-identical** at `--threads` 1, 2, and 8, the sequential weights
//! entry must stream what the parallel one does, filter by filter as it
//! goes, and the memoized chain must serve repeat per-layer enumerations
//! from cache, at LeNet's pinned memo economy.
//!
//! The obs hubs (metric registry, stream hub, profile ring) are
//! process-global, so all phases run sequentially inside one `#[test]`
//! body — the same convention as `events_golden.rs`/`profile_golden.rs`.

use cnn_reveng::accel::{AccelConfig, Accelerator};
use cnn_reveng::attacks::structure::{recover_structures, CandidateStructure, NetworkSolverConfig};
use cnn_reveng::attacks::weights::{
    recover_ratios, recover_ratios_parallel, FunctionalOracle, LayerGeometry, MergedOrder, Probe,
    RatioRecovery, RecoveryConfig, ZeroCountOracle,
};
use cnn_reveng::nn::layer::{Conv2d, PoolKind};
use cnn_reveng::nn::models::lenet;
use cnn_reveng::nn::Network;
use cnn_reveng::tensor::rng::{Rng, SeedableRng, SmallRng};
use cnn_reveng::tensor::{init, Shape3, Shape4};
use cnnre_obs::profile::{chrome_trace, ClockDomain};
use cnnre_obs::stream::{read_stream, EventPayload};
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The default network-solver config with an explicit worker count
/// (overriding the `CNNRE_THREADS`-derived default, so the suite pins the
/// same thread counts whatever environment it runs under).
fn solver_cfg(threads: usize) -> NetworkSolverConfig {
    let mut cfg = NetworkSolverConfig::default();
    cfg.layer.threads = threads;
    cfg
}

fn lenet_net() -> Network {
    let mut rng = SmallRng::seed_from_u64(0);
    lenet(1, 10, &mut rng)
}

fn recover_lenet(net: &Network, threads: usize) -> Vec<CandidateStructure> {
    let accel = Accelerator::new(AccelConfig::default());
    let exec = accel
        .run_trace_only(net)
        .expect("LeNet lowers onto the accelerator");
    recover_structures(&exec.trace, (32, 1), 10, &solver_cfg(threads))
        .expect("structures recoverable")
}

/// Runs `attack` with event recording on; returns its result and the
/// `.evt` bytes.
fn recorded<T>(attack: impl FnOnce() -> T) -> (T, Vec<u8>) {
    cnnre_obs::set_enabled(true);
    cnnre_obs::stream::reset();
    cnnre_obs::stream::set_enabled(true);
    cnnre_obs::stream::set_record(true);
    let out = attack();
    let bytes = cnnre_obs::stream::recorded_stream_snapshot();
    cnnre_obs::stream::set_record(false);
    cnnre_obs::stream::set_enabled(false);
    cnnre_obs::stream::reset();
    cnnre_obs::set_enabled(false);
    cnnre_obs::global().reset();
    (out, bytes)
}

/// The golden pipeline (LeNet seed-0 trace + structure recovery) with event
/// recording on, at an explicit thread count; returns the `.evt` bytes.
fn recorded_run(threads: usize) -> Vec<u8> {
    let net = lenet_net();
    recorded(|| recover_lenet(&net, threads)).1
}

/// The same pipeline with profiling on; returns the cycle-domain Chrome
/// Trace export (the wall-clock domain varies per run by construction).
fn profiled_run(threads: usize) -> String {
    cnnre_obs::set_enabled(true);
    cnnre_obs::profile::set_enabled(true);
    cnnre_obs::profile::reset();
    let net = lenet_net();
    let accel = Accelerator::new(AccelConfig::default());
    let exec = accel
        .run_trace_only(&net)
        .expect("LeNet lowers onto the accelerator");
    recover_structures(&exec.trace, (32, 1), 10, &solver_cfg(threads))
        .expect("structures recoverable");
    let events = cnnre_obs::profile::export();
    cnnre_obs::profile::set_enabled(false);
    cnnre_obs::set_enabled(false);
    cnnre_obs::global().reset();
    chrome_trace(&events, ClockDomain::Cycles)
}

/// A small compressed-conv victim in the Fig. 7 geometry class.
fn weights_victim() -> (Conv2d, LayerGeometry) {
    let geom = LayerGeometry {
        input: Shape3::new(3, 31, 31),
        d_ofm: 4,
        f: 11,
        s: 4,
        p: 0,
        pool: Some((PoolKind::Max, 3, 2, 0)),
        order: MergedOrder::ActThenPool,
        threshold: 0.0,
    };
    let mut rng = SmallRng::seed_from_u64(2018);
    let weights = init::compressed_conv(&mut rng, Shape4::new(4, 3, 11, 11), 0.45, 8);
    let bias: Vec<f32> = (0..4).map(|_| -rng.gen_range(0.05..0.5f32)).collect();
    let victim = Conv2d::from_parts(weights, bias, geom.s, geom.p).expect("victim conv");
    (victim, geom)
}

/// The `queries` of every `WeightRecovered` frame of a recording, in
/// stream order.
fn weight_frames(evt: &[u8]) -> Vec<u64> {
    let events = read_stream(evt).expect("the recording decodes");
    events
        .iter()
        .filter_map(|ev| match ev.payload {
            EventPayload::WeightRecovered { queries, .. } => Some(queries),
            _ => None,
        })
        .collect()
}

/// A functional victim that copies the recorded stream when filter 1 is
/// first queried, i.e. once filter 0 is done.
struct SnoopingOracle {
    inner: FunctionalOracle,
    at_filter_1: Option<Vec<u8>>,
}

impl ZeroCountOracle for SnoopingOracle {
    fn geometry(&self) -> LayerGeometry {
        self.inner.geometry()
    }

    fn query(&mut self, probes: &[Probe]) -> Vec<u64> {
        self.inner.query(probes)
    }

    fn query_filter(&mut self, filter: usize, probes: &[Probe]) -> u64 {
        if filter == 1 && self.at_filter_1.is_none() {
            self.at_filter_1 = Some(cnnre_obs::stream::recorded_stream_snapshot());
        }
        self.inner.query_filter(filter, probes)
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }
}

#[test]
fn engines_are_byte_identical_across_thread_counts() {
    // Phase 1 — structure candidates: the full candidate list (content AND
    // ranking) is invariant under the worker count.
    let net = lenet_net();
    let baseline = recover_lenet(&net, THREAD_COUNTS[0]);
    assert!(!baseline.is_empty(), "baseline run must find structures");
    for &threads in &THREAD_COUNTS[1..] {
        let got = recover_lenet(&net, threads);
        assert!(
            got == baseline,
            "candidate structures diverge at --threads {threads}"
        );
    }

    // Phase 2 — weight recovery: per-filter ratios, zero identifications,
    // the cycle-deterministic victim-query count and the recorded `.evt`
    // stream are invariant under the worker count. The stream has one
    // `WeightRecovered` frame per weight, the last at the run's total.
    let (victim, geom) = weights_victim();
    let recover = |threads: usize| {
        let cfg = RecoveryConfig {
            threads,
            ..RecoveryConfig::default()
        };
        recorded(|| recover_ratios_parallel(FunctionalOracle::new(victim.clone(), geom), &cfg))
    };
    let ratios = |rec: &RatioRecovery| -> Vec<Vec<Option<f64>>> {
        rec.filters.iter().map(|f| f.as_slice().to_vec()).collect()
    };
    let (base, base_evt) = recover(THREAD_COUNTS[0]);
    assert!(base.queries > 0, "baseline recovery must query the victim");
    let frames = weight_frames(&base_evt);
    let per_filter = geom.input.c * geom.f * geom.f;
    assert_eq!(
        frames.len(),
        geom.d_ofm * per_filter,
        "one frame per weight"
    );
    assert_eq!(
        frames.last(),
        Some(&base.queries),
        "the last frame's queries"
    );
    for &threads in &THREAD_COUNTS[1..] {
        let (got, evt) = recover(threads);
        assert!(
            ratios(&got) == ratios(&base),
            "recovered ratios diverge at --threads {threads}"
        );
        assert_eq!(
            got.queries, base.queries,
            "oracle query count diverges at --threads {threads}"
        );
        assert!(
            evt == base_evt,
            "weights .evt diverges at --threads {threads}"
        );
    }
    // The sequential entry writes the same stream, and has written filter
    // 0's frames by the time it first queries filter 1.
    let mut snoop = SnoopingOracle {
        inner: FunctionalOracle::new(victim.clone(), geom),
        at_filter_1: None,
    };
    let (seq, seq_evt) = recorded(|| recover_ratios(&mut snoop, &RecoveryConfig::default()));
    assert!(ratios(&seq) == ratios(&base), "sequential ratios diverge");
    assert!(seq_evt == base_evt, "sequential weights .evt diverges");
    let early = snoop.at_filter_1.expect("filter 1 was queried");
    assert!(base_evt.starts_with(&early), "the early copy is a prefix");
    assert_eq!(
        weight_frames(&early).len(),
        per_filter,
        "filter 0's frames are out before filter 1 starts"
    );

    // Phase 3 — telemetry artifacts: the recorded event stream and the
    // cycle-domain profile export match the committed goldens byte for
    // byte at every thread count (cycle-order emission, DESIGN.md §13).
    let golden_evt = std::fs::read(golden_path("lenet_events.evt"))
        .expect("golden .evt exists (events_golden.rs regenerates it)");
    let golden_profile = std::fs::read_to_string(golden_path("lenet_profile.json"))
        .expect("golden profile exists (profile_golden.rs regenerates it)");
    for &threads in &THREAD_COUNTS {
        let evt = recorded_run(threads);
        assert!(
            evt == golden_evt,
            ".evt recording diverges from the golden at --threads {threads}"
        );
        let profile = profiled_run(threads);
        assert!(
            profile == golden_profile,
            "cycle-domain profile diverges from the golden at --threads {threads}"
        );
    }

    // Phase 4 — memo economy: chaining is incremental, not re-enumerated.
    // Repeat (node, interface) lookups are served from the memo cache.
    // LeNet's figures are pinned: 16 distinct keys, 106 lookups served
    // from the cache, 162 recursion branches.
    cnnre_obs::set_enabled(true);
    cnnre_obs::global().reset();
    recover_lenet(&net, 2);
    let snap = cnnre_obs::global().snapshot();
    let hits = snap.get("solver.memo.hits").unwrap_or(0.0);
    let misses = snap.get("solver.memo.misses").unwrap_or(0.0);
    let branches = snap.get("solver.chain.recursion_branches");
    cnnre_obs::set_enabled(false);
    cnnre_obs::global().reset();
    assert_eq!(
        (hits, misses, branches),
        (106.0, 16.0, Some(162.0)),
        "LeNet memo economy (solver.memo.hits, solver.memo.misses, \
         solver.chain.recursion_branches) changed"
    );

    // And the tallies themselves are thread-invariant.
    cnnre_obs::set_enabled(true);
    cnnre_obs::global().reset();
    recover_lenet(&net, 8);
    let snap = cnnre_obs::global().snapshot();
    cnnre_obs::set_enabled(false);
    cnnre_obs::global().reset();
    assert_eq!(
        (snap.get("solver.memo.hits"), snap.get("solver.memo.misses")),
        (Some(hits), Some(misses)),
        "memo hit/miss tallies must be schedule-independent"
    );
}
