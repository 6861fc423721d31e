//! Randomized property tests over the accelerator's execution invariants:
//! for any buildable chain network, the trace must stay inside the
//! allocated regions, stage reports must tile the trace, zero pruning must
//! never *increase* traffic, and the double-buffered timing model must
//! respect its lower bounds. Each test sweeps deterministic seeded cases.

use cnnre_accel::{AccelConfig, Accelerator};
use cnnre_nn::models::{chain, ConvSpec, PoolSpec};
use cnnre_nn::Network;
use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};
use cnnre_tensor::{Shape3, Tensor3};

const CASES: usize = 48;

/// A small random conv chain from a seed, or `None` when the draw is not
/// buildable (the loop-based equivalent of the old `prop_filter_map`).
fn arb_net(net_seed: u64) -> Option<Network> {
    let mut rng = SmallRng::seed_from_u64(net_seed);
    let input_w = [16usize, 20, 24][rng.gen_range(0usize..3)];
    let input_c = rng.gen_range(1usize..3);
    let n = rng.gen_range(1usize..3);
    let mut specs = Vec::new();
    let mut w = input_w;
    for _ in 0..n {
        let f = rng.gen_range(2usize..5).min(w / 2);
        let s = rng.gen_range(1usize..=2.min(f));
        let w_conv = cnnre_nn::geometry::conv_out(w, f, s, 0)?;
        let mut spec = ConvSpec::new(rng.gen_range(2usize..8), f, s, 0);
        if rng.gen_bool(0.4) && w_conv >= 4 {
            if let Some(out) = cnnre_nn::geometry::pool_out(w_conv, 2, 2, 0) {
                spec = spec.with_pool(PoolSpec::max(2, 2));
                w = out;
            } else {
                w = w_conv;
            }
        } else {
            w = w_conv;
        }
        specs.push(spec);
        if w < 4 {
            break;
        }
    }
    chain(
        Shape3::new(input_c, input_w, input_w),
        &specs,
        &[rng.gen_range(2usize..6)],
        &mut rng,
    )
    .ok()
}

/// Runs `body` over `CASES` buildable (network, input) cases.
fn for_each_case(mut body: impl FnMut(&Network, &Tensor3)) {
    let mut produced = 0usize;
    let mut net_seed = 0u64;
    while produced < CASES {
        net_seed += 1;
        let Some(net) = arb_net(net_seed) else {
            continue;
        };
        let mut rng = SmallRng::seed_from_u64(net_seed ^ 0x5EED);
        let x = Tensor3::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        body(&net, &x);
        produced += 1;
    }
}

/// Stage reports tile the trace: non-overlapping cycle ranges in order,
/// jointly covering every transaction.
#[test]
fn stage_reports_tile_the_trace() {
    for_each_case(|net, x| {
        let exec = Accelerator::new(AccelConfig::default())
            .run(net, x)
            .expect("runs");
        assert!(!exec.stages.is_empty());
        for w in exec.stages.windows(2) {
            assert!(w[0].end_cycle <= w[1].start_cycle, "stages overlap");
        }
        for st in &exec.stages {
            assert!(st.start_cycle <= st.end_cycle);
        }
        // Every transaction's cycle lies in some stage's range (the
        // prologue writes land before the first stage).
        let first_compute = exec.stages[0].start_cycle;
        for ev in exec.trace.events() {
            let inside = ev.cycle < first_compute
                || exec
                    .stages
                    .iter()
                    .any(|s| ev.cycle >= s.start_cycle && ev.cycle <= s.end_cycle);
            assert!(inside, "transaction at {} outside all stages", ev.cycle);
        }
        // Read/write transaction counts in the reports sum to the trace's.
        let reads: u64 = exec.stages.iter().map(|s| s.read_transactions).sum();
        let writes: u64 = exec.stages.iter().map(|s| s.write_transactions).sum();
        assert_eq!(reads, exec.trace.read_count() as u64);
        // Prologue (input staging) writes are not attributed to a stage.
        assert!(writes <= exec.trace.write_count() as u64);
    });
}

/// Zero pruning never increases traffic at word granularity (64-byte bursts
/// can round tiny per-row compactions *up*, so the invariant is stated
/// where compression is unmasked), and never changes the computed output.
#[test]
fn pruning_reduces_traffic_preserves_output() {
    for_each_case(|net, x| {
        let word = AccelConfig::default().with_block_bytes(4);
        let dense = Accelerator::new(word.with_zero_pruning(false))
            .run(net, x)
            .expect("dense");
        let pruned = Accelerator::new(word.with_zero_pruning(true))
            .run(net, x)
            .expect("pruned");
        assert_eq!(dense.output.as_ref(), pruned.output.as_ref());
        assert!(pruned.trace.len() <= dense.trace.len());
        assert!(pruned.trace.write_count() <= dense.trace.write_count());
        assert!(pruned.trace.read_count() <= dense.trace.read_count());
    });
}

/// The timing model's lower bound: a stage can never finish faster than its
/// compute (MACs / PEs) or its memory traffic allows.
#[test]
fn stage_cycles_respect_compute_and_memory_bounds() {
    for_each_case(|net, x| {
        let cfg = AccelConfig::default();
        let exec = Accelerator::new(cfg).run(net, x).expect("runs");
        for st in &exec.stages {
            let cycles = st.end_cycle - st.start_cycle;
            let compute_floor = st.macs / cfg.pe_count();
            // Double buffering can overlap compute with memory, but not
            // compress compute below MACs/PEs.
            assert!(
                cycles + 1 >= compute_floor,
                "stage {} finished in {} cycles < compute floor {}",
                st.name,
                cycles,
                compute_floor
            );
            let traffic = st.read_transactions + st.write_transactions;
            assert!(
                cycles + 1 >= traffic,
                "memory floor violated for {}",
                st.name
            );
            // The compute/stall split: busy cycles fit inside the stage,
            // and a stage that does MACs keeps the PE array busy.
            assert!(
                st.compute_cycles <= cycles,
                "stage {} computes {} cycles of {}",
                st.name,
                st.compute_cycles,
                cycles
            );
            if st.macs > 0 {
                assert!(
                    st.compute_cycles > 0,
                    "stage {} has MACs but no compute",
                    st.name
                );
            }
        }
    });
}

/// Every transaction lands on a block-aligned address (the weaker public
/// form of "inside an allocated region": the engine's layout is internal).
#[test]
fn trace_stays_inside_allocated_regions() {
    for_each_case(|net, x| {
        let exec = Accelerator::new(AccelConfig::default())
            .run(net, x)
            .expect("runs");
        let block = exec.trace.block_bytes();
        for ev in exec.trace.events() {
            assert_eq!(ev.addr % block, 0, "unaligned transaction");
        }
    });
}
