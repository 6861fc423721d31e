//! Robustness of the attack pipeline against traces that are *not* clean
//! accelerator recordings: truncation, duplication, random noise, and
//! wrong attacker priors. The pipeline must fail with a typed error (or
//! an empty/implausible candidate set) — never panic, never fabricate a
//! confident wrong answer on garbage.

use cnn_reveng::accel::{AccelConfig, Accelerator};
use cnn_reveng::attacks::structure::{recover_structures, NetworkSolverConfig, SolveError};
use cnn_reveng::nn::models::lenet;
use cnn_reveng::trace::{AccessKind, Trace, TraceBuilder};
use cnnre_tensor::rng::SmallRng;
use cnnre_tensor::rng::{Rng, SeedableRng};

fn lenet_trace() -> Trace {
    let mut rng = SmallRng::seed_from_u64(0);
    let net = lenet(1, 10, &mut rng);
    Accelerator::new(AccelConfig::default())
        .run_trace_only(&net)
        .expect("runs")
        .trace
}

#[test]
fn empty_trace_is_rejected_not_panicked() {
    let empty = TraceBuilder::new(64, 4).finish();
    let r = recover_structures(&empty, (32, 1), 10, &NetworkSolverConfig::default());
    assert!(r.is_err() || r.unwrap().is_empty());
}

#[test]
fn pure_noise_trace_does_not_panic() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut b = TraceBuilder::new(64, 4);
    let mut cycle = 0u64;
    for _ in 0..20_000 {
        cycle += rng.gen_range(1u64..5);
        let addr = u64::from(rng.gen_range(0u32..4096)) * 64;
        let kind = if rng.gen_bool(0.3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        b.record(cycle, addr, kind);
    }
    // Any outcome but a panic is acceptable; a noise trace must not yield
    // a *large confident* candidate set for a 10-class LeNet interface.
    if let Ok(candidates) =
        recover_structures(&b.finish(), (32, 1), 10, &NetworkSolverConfig::default())
    {
        assert!(candidates.len() < 4, "{} on noise", candidates.len());
    }
}

#[test]
fn truncated_trace_fails_or_degrades_gracefully() {
    let trace = lenet_trace();
    let (events, block, elem) = trace.into_parts();
    // Keep only the first 40% — the FC layers and the classifier are gone.
    let cut = events.len() * 2 / 5;
    let truncated = Trace::from_parts(events[..cut].to_vec(), block, elem);
    // If anything is recovered it must be a *prefix*-shaped result; never
    // the full 4-layer LeNet.
    if let Ok(candidates) =
        recover_structures(&truncated, (32, 1), 10, &NetworkSolverConfig::default())
    {
        for c in &candidates {
            assert!(
                c.conv_layers().len() + c.fc_layers().len() < 4,
                "full structure from a truncated trace"
            );
        }
    }
}

#[test]
fn duplicated_segment_does_not_produce_the_original_structure() {
    let trace = lenet_trace();
    let (events, block, elem) = trace.clone().into_parts();
    // Replay the whole trace twice back-to-back (shifted in time and
    // address space) — like two inferences with a naive analyzer.
    let shift_cycle = events.last().expect("non-empty").cycle + 100;
    let mut doubled = events.clone();
    for ev in &events {
        let mut e2 = *ev;
        e2.cycle += shift_cycle;
        doubled.push(e2);
    }
    let doubled = Trace::from_parts(doubled, block, elem);
    let original =
        recover_structures(&trace, (32, 1), 10, &NetworkSolverConfig::default()).expect("clean");
    // The doubled trace describes an 8-layer network (the second inference
    // reads the first's leftovers) or fails; it must not equal the clean
    // 4-layer answer.
    if let Ok(candidates) =
        recover_structures(&doubled, (32, 1), 10, &NetworkSolverConfig::default())
    {
        assert_ne!(candidates, original);
    }
}

#[test]
fn wrong_input_prior_fails_cleanly() {
    let trace = lenet_trace();
    // The adversary misremembers the input interface: 224x224x3 instead of
    // 32x32x1. No consistent candidate should survive for CONV1.
    let r = recover_structures(&trace, (224, 3), 10, &NetworkSolverConfig::default());
    assert!(
        r.is_err() || r.as_ref().unwrap().is_empty(),
        "{:?}",
        r.map(|s| s.len())
    );
}

#[test]
fn wrong_class_count_prior_fails_cleanly() {
    let trace = lenet_trace();
    // 7000 classes cannot match the observed classifier footprint.
    let r = recover_structures(&trace, (32, 1), 7000, &NetworkSolverConfig::default());
    assert!(r.is_err() || r.as_ref().unwrap().is_empty());
}

#[test]
fn absurd_block_size_is_rejected_not_enumerated() {
    // A trace header may claim any block size, and the solver counts
    // footprints in it: at 2^40-byte blocks every size window is
    // astronomically wide. A prologue writes the input, one layer reads
    // weights and the input and writes its output, a second reads it.
    let block = 1u64 << 40;
    let mut b = TraceBuilder::new(block, 4);
    for (cycle, (addr, kind)) in [
        (0, AccessKind::Write),
        (5 * block, AccessKind::Read),
        (0, AccessKind::Read),
        (block, AccessKind::Write),
        (6 * block, AccessKind::Read),
        (block, AccessKind::Read),
        (2 * block, AccessKind::Write),
    ]
    .into_iter()
    .enumerate()
    {
        b.record(cycle as u64, addr, kind);
    }
    let r = recover_structures(&b.finish(), (32, 1), 10, &NetworkSolverConfig::default());
    assert_eq!(r.err(), Some(SolveError::BlockTooLarge(1 << 38)));
}
