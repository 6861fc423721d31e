//! Access-pattern defenses.
//!
//! The paper's related-work section points at oblivious RAM as the defense
//! that would stop both attacks, at the cost of a large constant factor in
//! memory traffic. This module implements a simplified Path-ORAM traffic
//! model good enough to demonstrate both properties: after obfuscation the
//! RAW-based layer segmentation collapses, and the transaction count grows
//! by the expected `Z · (log₂ N + 1) · 2` factor.
//!
//! Two cheaper mitigations are provided for comparison:
//!
//! * [`shuffle_within_window`] — reorder transactions inside a small
//!   window (a hardware reorder buffer). Against this crate's exact
//!   segmentation it is probabilistic: when no boundary-defining
//!   transaction crosses a window edge the attack survives with its full
//!   candidate set, otherwise boundary inference breaks; windows of a few
//!   dozen transactions reliably disrupt it. (A reorder-tolerant
//!   segmentation would shrink that protection again.)
//! * [`pad_write_traffic`] — pad every layer's compressed output writes to
//!   the dense size. This specifically closes the §4 zero-count leak (the
//!   write count no longer depends on data) at the cost of forfeiting the
//!   pruning bandwidth savings; the §3 structure leak remains.

use cnnre_tensor::rng::Rng;
use cnnre_tensor::rng::SliceRandom;

use crate::{AccessKind, Addr, MemoryEvent, Trace, TraceBuilder};

/// Configuration of the Path-ORAM traffic model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OramConfig {
    /// Number of logical blocks the ORAM serves (rounded up to a power of
    /// two internally). Choose at least the footprint of the workload.
    pub logical_blocks: u64,
    /// Blocks per tree bucket (Path ORAM uses Z = 4).
    pub bucket_blocks: u64,
}

impl Default for OramConfig {
    fn default() -> Self {
        Self {
            logical_blocks: 1 << 16,
            bucket_blocks: 4,
        }
    }
}

impl OramConfig {
    /// Tree depth `L` such that `2^L` leaves cover the logical blocks.
    #[must_use]
    pub fn tree_depth(&self) -> u32 {
        let n = self.logical_blocks.max(2);
        63 - n.next_power_of_two().leading_zeros()
    }

    /// Expected transaction multiplier: each logical access becomes a full
    /// path read plus a full path write of `Z`-block buckets.
    #[must_use]
    pub fn overhead_factor(&self) -> u64 {
        2 * self.bucket_blocks * u64::from(self.tree_depth() + 1)
    }
}

/// Statistics of an obfuscation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OramStats {
    /// Transactions in the original trace.
    pub input_events: usize,
    /// Transactions in the obfuscated trace.
    pub output_events: usize,
}

impl OramStats {
    /// Measured traffic multiplier.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        if self.input_events == 0 {
            return 0.0;
        }
        self.output_events as f64 / self.input_events as f64
    }
}

/// Replaces every transaction of `trace` with a Path-ORAM path access:
/// `Z·(L+1)` reads followed by `Z·(L+1)` writes along a uniformly random
/// root-to-leaf path, erasing both the address correlation and the
/// read/write type of the original access.
///
/// The original cycle stamps are preserved (ORAM adds latency, not
/// reordering) so duration-based observations degrade gracefully rather
/// than trivially.
#[must_use]
pub fn obfuscate<R: Rng + ?Sized>(
    trace: &Trace,
    config: OramConfig,
    rng: &mut R,
) -> (Trace, OramStats) {
    let depth = config.tree_depth();
    let block = trace.block_bytes();
    let mut out = TraceBuilder::new(block, trace.element_bytes());
    // lint:allow(ct-loop): one path access per input transaction — ORAM
    // conceals addresses and kinds, not the transaction count, which the
    // published Z·(L+1)·2 overhead factor scales deterministically
    trace.events().for_each(|ev| {
        let leaf: u64 = rng.gen_range(0..(1u64 << depth));
        // Bucket indices along the path in a 1-indexed heap layout.
        let mut path = Vec::with_capacity(depth as usize + 1);
        let mut node = (1u64 << depth) | leaf;
        while node >= 1 {
            path.push(node);
            if node == 1 {
                break;
            }
            node /= 2;
        }
        for &kind in &[AccessKind::Read, AccessKind::Write] {
            for &bucket in path.iter().rev() {
                for z in 0..config.bucket_blocks {
                    out.record(ev.cycle, (bucket * config.bucket_blocks + z) * block, kind);
                }
            }
        }
    });
    let stats = OramStats {
        input_events: trace.len(),
        output_events: out.len(),
    };
    if cnnre_obs::stream::enabled() {
        cnnre_obs::stream::emit(cnnre_obs::stream::EventPayload::DefenseObserved {
            kind: "path_oram".to_string(),
            input_events: stats.input_events as u64,
            output_events: stats.output_events as u64,
        });
    }
    (out.finish(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_trace;
    use cnnre_tensor::rng::SeedableRng;
    use cnnre_tensor::rng::SmallRng;

    fn layered_trace() -> Trace {
        // Three "layers" that plain segmentation separates cleanly.
        let mut b = TraceBuilder::new(64, 4);
        let mut t = 0;
        for l in 0..3u64 {
            let w = 0x100_000 * (l + 1);
            let ofm = 0x10_000 * (l + 1);
            if l == 0 {
                for i in 0..4 {
                    b.record(t, i * 64, AccessKind::Write);
                    t += 1;
                }
            }
            for i in 0..4 {
                b.record(t, w + i * 64, AccessKind::Read);
                t += 1;
            }
            let ifm = if l == 0 { 0 } else { 0x10_000 * l };
            for i in 0..4 {
                b.record(t, ifm + i * 64, AccessKind::Read);
                t += 1;
            }
            for i in 0..4 {
                b.record(t, ofm + i * 64, AccessKind::Write);
                t += 1;
            }
        }
        b.finish()
    }

    #[test]
    fn overhead_matches_model() {
        let cfg = OramConfig {
            logical_blocks: 1 << 10,
            bucket_blocks: 4,
        };
        assert_eq!(cfg.tree_depth(), 10);
        assert_eq!(cfg.overhead_factor(), 2 * 4 * 11);
        let trace = layered_trace();
        let mut rng = SmallRng::seed_from_u64(1);
        let (ob, stats) = obfuscate(&trace, cfg, &mut rng);
        assert_eq!(
            stats.output_events,
            trace.len() * cfg.overhead_factor() as usize
        );
        assert!((stats.overhead() - cfg.overhead_factor() as f64).abs() < 1e-9);
        assert_eq!(ob.len(), stats.output_events);
    }

    #[test]
    fn obfuscation_destroys_layer_structure() {
        let trace = layered_trace();
        let plain_segments = segment_trace(&trace).len();
        assert_eq!(plain_segments, 4); // prologue + 3 layers
        let mut rng = SmallRng::seed_from_u64(2);
        let (ob, _) = obfuscate(&trace, OramConfig::default(), &mut rng);
        let ob_segments = segment_trace(&ob).len();
        // Every path access writes then the next reads some shared bucket
        // near the root, so RAW boundaries fire constantly: the clean
        // 4-segment structure is gone (replaced by per-access noise).
        assert!(
            ob_segments > 2 * plain_segments,
            "obfuscated segmentation should be meaningless: {ob_segments}"
        );
    }

    #[test]
    fn empty_trace_obfuscates_to_empty() {
        let t = TraceBuilder::new(64, 4).finish();
        let mut rng = SmallRng::seed_from_u64(0);
        let (ob, stats) = obfuscate(&t, OramConfig::default(), &mut rng);
        assert!(ob.is_empty());
        assert_eq!(stats.overhead(), 0.0);
    }
}

/// Reorders transactions within consecutive windows of `window` events
/// (cycle stamps are re-sorted so time stays monotone). A cheap hardware
/// mitigation (small reorder buffer) — insufficient against this paper's
/// attacks, which only need region footprints and coarse ordering.
#[must_use]
pub fn shuffle_within_window<R: Rng + ?Sized>(trace: &Trace, window: usize, rng: &mut R) -> Trace {
    assert!(window > 0, "window must be positive");
    let (mut events, block, elem) = trace.clone().into_parts();
    // lint:allow(ct-loop): ⌈len/window⌉ iterations; the trace length is
    // already bus-visible and the window size is a public parameter
    for chunk in events.chunks_mut(window) {
        let cycles: Vec<u64> = chunk.iter().map(|e| e.cycle).collect();
        chunk.shuffle(rng);
        // lint:allow(ct-loop): restores the per-window cycle stamps; trip
        // count is the public window size
        for (e, c) in chunk.iter_mut().zip(cycles) {
            e.cycle = c;
        }
    }
    Trace::from_parts(events, block, elem)
}

/// Statistics of the write-padding mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddingStats {
    /// Write transactions before padding.
    pub writes_before: usize,
    /// Write transactions after padding.
    pub writes_after: usize,
}

/// Pads every written region's transaction footprint up to `dense_blocks`
/// blocks per region: after each burst of writes into a region, dummy
/// writes cover the rest of the region, so the adversary-visible write
/// count is data-independent. Closes the zero-pruning weight leak (§4)
/// while keeping the (smaller) read-side savings.
///
/// `regions` lists `(base, len_bytes)` of the writable feature-map regions
/// (the accelerator knows its own allocation).
#[must_use]
pub fn pad_write_traffic(trace: &Trace, regions: &[(Addr, u64)]) -> (Trace, PaddingStats) {
    let (events, block, elem) = trace.clone().into_parts();
    let writes_before = events.iter().filter(|e| e.kind.is_write()).count();
    let mut out: Vec<MemoryEvent> = Vec::with_capacity(events.len());
    // Track which blocks of each region have been written; at the last
    // write touching a region (before any other region is written), flush
    // dummy writes over the untouched remainder.
    let region_of = |addr: Addr| {
        regions
            .iter()
            .position(|&(base, len)| addr >= base && addr < base + len)
    };
    // lint:allow(hash-iter): contains/insert only; the pad-write emission
    // below iterates the deterministic block range, never these sets
    let mut written: Vec<std::collections::HashSet<Addr>> =
        // lint:allow(hash-iter): same membership-only sets
        vec![std::collections::HashSet::new(); regions.len()];
    let mut flushed = vec![false; regions.len()];
    // Block spans are hoisted out of the flush: the divisions run once per
    // region on public allocation metadata, never on trace-derived values
    // (keeps CT003 out of the hot path).
    let spans: Vec<(u64, u64)> = regions
        .iter()
        // lint:allow(ct-arith): `block` is the public bus block size read
        // off the trace header, not secret-derived data
        .map(|&(base, len)| (base / block, (base + len - 1) / block))
        .collect();
    // The padder models logic inside the memory controller: only the
    // transaction stream it emits (`out`) reaches the bus the adversary
    // probes, and that stream is exactly what the flushes below make
    // data-independent. The controller's own control flow is on-chip.
    // lint:allow(ct-loop): one pass per transaction; the trip count is the
    // trace length, which is already bus-visible
    for (i, ev) in events.iter().enumerate() {
        out.push(*ev);
        // lint:allow(ct-branch): kind dispatch inside the controller; the
        // emitted write count per region is dense after padding
        if !ev.kind.is_write() {
            continue;
        }
        let Some(r) = region_of(ev.addr) else {
            continue;
        };
        // lint:allow(ct-branch): flush-once latch, on-chip bookkeeping
        // lint:allow(ct-index): region id indexes controller-local state
        if flushed[r] {
            continue;
        }
        // lint:allow(ct-index): region id indexes controller-local state
        written[r].insert(ev.addr);
        // Flush when the next write event targets a different region (or
        // the trace ends): the producer has finished this output.
        // lint:allow(ct-index): lookahead over the controller's own queue
        let next_write_region = events[i + 1..]
            .iter()
            .find(|e| e.kind.is_write())
            .and_then(|e| region_of(e.addr));
        let last_for_region = next_write_region != Some(r);
        // lint:allow(ct-branch): the flush decision is what *creates* the
        // dense, data-independent write footprint on the bus
        if last_for_region {
            // lint:allow(ct-index): public span table keyed by region id
            let (first, last) = spans[r];
            // lint:allow(ct-loop): bound is the public region block span,
            // identical for every flush of this region
            for b in first..=last {
                let addr = b * block;
                // lint:allow(ct-branch): selects which dummy writes to emit;
                // exactly (span - real writes) dummies leave the controller
                // lint:allow(ct-index): region id indexes controller-local state
                if !written[r].contains(&addr) {
                    out.push(MemoryEvent {
                        cycle: ev.cycle,
                        addr,
                        kind: AccessKind::Write,
                    });
                }
            }
            // lint:allow(ct-index): region id indexes controller-local state
            flushed[r] = true;
        }
    }
    let writes_after = out.iter().filter(|e| e.kind.is_write()).count();
    (
        Trace::from_parts(out, block, elem),
        PaddingStats {
            writes_before,
            writes_after,
        },
    )
}

#[cfg(test)]
mod defense_extra_tests {
    use super::*;
    use crate::segment::segment_trace;
    use cnnre_tensor::rng::SeedableRng;
    use cnnre_tensor::rng::SmallRng;

    #[test]
    fn window_shuffle_keeps_cycles_monotone_and_footprint() {
        let mut b = TraceBuilder::new(64, 4);
        for i in 0..64u64 {
            b.record(
                i,
                i * 64,
                if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            );
        }
        let t = b.finish();
        let mut rng = SmallRng::seed_from_u64(5);
        let s = shuffle_within_window(&t, 8, &mut rng);
        assert_eq!(s.len(), t.len());
        assert_eq!(s.read_count(), t.read_count());
        let cycles: Vec<u64> = s.events().map(|e| e.cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "time stays monotone"
        );
        // The address multiset is unchanged.
        let mut a: Vec<u64> = t.events().map(|e| e.addr).collect();
        let mut b2: Vec<u64> = s.events().map(|e| e.addr).collect();
        a.sort_unstable();
        b2.sort_unstable();
        assert_eq!(a, b2);
    }

    #[test]
    fn padding_makes_write_counts_data_independent() {
        // Two runs writing different non-zero counts into one region pad to
        // the same write count.
        let region = (0u64, 16 * 64u64);
        let run = |nonzeros: u64| {
            let mut b = TraceBuilder::new(64, 4);
            for i in 0..nonzeros {
                b.record(i, i * 64, AccessKind::Write);
            }
            b.record(nonzeros, 16 * 64 * 4, AccessKind::Read); // some later read
            b.finish()
        };
        let (p1, s1) = pad_write_traffic(&run(3), &[region]);
        let (p2, s2) = pad_write_traffic(&run(11), &[region]);
        assert_eq!(s1.writes_after, s2.writes_after, "leak closed");
        assert_eq!(p1.write_count(), p2.write_count());
        assert!(s1.writes_before < s1.writes_after);
    }

    #[test]
    fn small_window_shuffle_preserves_layer_structure() {
        // The structure attack's segmentation survives window shuffling.
        let mut b = TraceBuilder::new(64, 4);
        let mut t = 0;
        for i in 0..4u64 {
            b.record(t, i * 64, AccessKind::Write);
            t += 1;
        }
        for i in 0..3u64 {
            b.record(t, 0x10_000 + i * 64, AccessKind::Read);
            t += 1;
        }
        for i in 0..4u64 {
            b.record(t, i * 64, AccessKind::Read);
            t += 1;
        }
        for i in 0..4u64 {
            b.record(t, 0x20_000 + i * 64, AccessKind::Write);
            t += 1;
        }
        let trace = b.finish();
        let before = segment_trace(&trace).len();
        let mut rng = SmallRng::seed_from_u64(6);
        let shuffled = shuffle_within_window(&trace, 2, &mut rng);
        let after = segment_trace(&shuffled).len();
        // Tiny windows cannot cross the prologue/layer boundary structure.
        assert_eq!(before, after);
    }
}

/// Adds bounded multiplicative noise to the timing channel: each
/// inter-transaction gap is scaled by a random factor in
/// `[1, 1 + amplitude]` (order preserved, addresses untouched). Models a
/// noisy clock / DVFS jitter — a *timing-only* mitigation. The structure
/// attack tolerates substantial noise because its execution-time filter is
/// a ratio test with wide margins, illustrating why the paper's leak is
/// not fixed by timing noise alone.
#[must_use]
pub fn jitter_timing<R: Rng + ?Sized>(trace: &Trace, amplitude: f64, rng: &mut R) -> Trace {
    assert!((0.0..=10.0).contains(&amplitude), "amplitude out of range");
    let mut out = TraceBuilder::new(trace.block_bytes(), trace.element_bytes());
    let mut shifted: u64 = 0;
    let mut last_in: u64 = 0;
    // lint:allow(ct-loop): one scaled gap per transaction — the trip count
    // is the trace length, which the timing channel exposes anyway
    trace.events().for_each(|mut ev| {
        // With `last_in` starting at 0 the first gap is `ev.cycle` itself,
        // so no first-iteration branch is needed (branchless in secrets).
        let gap = ev.cycle - last_in;
        last_in = ev.cycle;
        let factor = 1.0 + rng.gen_range(0.0..=amplitude);
        shifted += (gap as f64 * factor).round() as u64;
        ev.cycle = shifted;
        out.append(ev);
    });
    out.finish()
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use cnnre_tensor::rng::SeedableRng;
    use cnnre_tensor::rng::SmallRng;

    #[test]
    fn jitter_preserves_order_and_addresses() {
        let mut b = TraceBuilder::new(64, 4);
        for i in 0..32u64 {
            b.record(i * 3, i * 64, AccessKind::Read);
        }
        let t = b.finish();
        let mut rng = SmallRng::seed_from_u64(1);
        let j = jitter_timing(&t, 0.5, &mut rng);
        assert_eq!(j.len(), t.len());
        for (a, b2) in t.events().zip(j.events()) {
            assert_eq!(a.addr, b2.addr);
            assert_eq!(a.kind, b2.kind);
        }
        let cycles: Vec<u64> = j.events().map(|e| e.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        // Duration grew, bounded by (1 + amplitude).
        assert!(j.duration() >= t.duration());
        assert!(j.duration() <= (t.duration() as f64 * 1.5).ceil() as u64 + 32);
    }
}
