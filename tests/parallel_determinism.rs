//! Thread-count determinism suite for the parallel attack engines
//! (DESIGN.md §13): structure-candidate enumeration, weight recovery, and
//! every deterministic telemetry artifact (the `.evt` event recording and
//! the cycle-domain profile export) must be **byte-identical** at
//! `--threads` 1, 2, and 8, and the memoized chain must serve repeat
//! per-layer enumerations from cache, at LeNet's pinned memo economy.
//!
//! The obs hubs (metric registry, stream hub, profile ring) are
//! process-global, so all phases run sequentially inside one `#[test]`
//! body — the same convention as `events_golden.rs`/`profile_golden.rs`.

use cnn_reveng::accel::{AccelConfig, Accelerator};
use cnn_reveng::attacks::structure::{recover_structures, CandidateStructure, NetworkSolverConfig};
use cnn_reveng::attacks::weights::{
    recover_ratios_parallel, FunctionalOracle, LayerGeometry, MergedOrder, RecoveryConfig,
};
use cnn_reveng::nn::layer::{Conv2d, PoolKind};
use cnn_reveng::nn::models::lenet;
use cnn_reveng::nn::Network;
use cnn_reveng::tensor::rng::{Rng, SeedableRng, SmallRng};
use cnn_reveng::tensor::{init, Shape3, Shape4};
use cnnre_obs::profile::{chrome_trace, ClockDomain};
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

/// The golden pipeline (LeNet seed-0 trace + structure recovery) with event
/// recording on, at an explicit thread count; returns the `.evt` bytes.
fn recorded_run(threads: usize) -> Vec<u8> {
    cnnre_obs::set_enabled(true);
    cnnre_obs::stream::reset();
    cnnre_obs::stream::set_enabled(true);
    cnnre_obs::stream::set_record(true);
    let net = lenet_net();
    let accel = Accelerator::new(AccelConfig::default());
    let exec = accel
        .run_trace_only(&net)
        .expect("LeNet lowers onto the accelerator");
    recover_structures(&exec.trace, (32, 1), 10, &solver_cfg(threads))
        .expect("structures recoverable");
    let bytes = cnnre_obs::stream::recorded_stream_snapshot();
    cnnre_obs::stream::set_record(false);
    cnnre_obs::stream::set_enabled(false);
    cnnre_obs::stream::reset();
    cnnre_obs::set_enabled(false);
    cnnre_obs::global().reset();
    bytes
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
    // and the cycle-deterministic victim-query count are invariant.
    let (victim, geom) = weights_victim();
    let recover = |threads: usize| {
        let cfg = RecoveryConfig {
            threads,
            ..RecoveryConfig::default()
        };
        recover_ratios_parallel(FunctionalOracle::new(victim.clone(), geom), &cfg)
    };
    let base = recover(THREAD_COUNTS[0]);
    assert!(base.queries > 0, "baseline recovery must query the victim");
    let base_ratios: Vec<Vec<Option<f64>>> =
        base.filters.iter().map(|f| f.as_slice().to_vec()).collect();
    for &threads in &THREAD_COUNTS[1..] {
        let got = recover(threads);
        let got_ratios: Vec<Vec<Option<f64>>> =
            got.filters.iter().map(|f| f.as_slice().to_vec()).collect();
        assert!(
            got_ratios == base_ratios,
            "recovered ratios diverge at --threads {threads}"
        );
        assert_eq!(
            got.queries, base.queries,
            "oracle query count diverges at --threads {threads}"
        );
    }

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
