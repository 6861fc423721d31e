//! Randomized property tests over trace analytics and defenses — invariants
//! that must hold for *any* trace, not just accelerator-shaped ones.
//! Driven by the in-tree seeded generator so they run without network
//! access; each test sweeps a fixed number of deterministic cases. The
//! segmenter and `observe` are also checked, output for output, against
//! straightforward reference implementations kept here.

#![cfg(test)]

use std::collections::{BTreeMap, BTreeSet, HashSet};

use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};

use crate::defense::{jitter_timing, pad_write_traffic, shuffle_within_window};
use crate::io::{
    read_binary, read_binary_unordered, read_csv, read_csv_unordered, write_binary, write_csv,
};
use crate::observe::{observe_with, IfmSource, LayerKindHint, LayerObservation, TraceObservations};
use crate::segment::{
    segment_trace, segment_trace_with, Segment, SegmentConfig, StreamingSegmenter,
};
use crate::stamps::SLOTS;
use crate::stats::{TraceStats, TrafficProfile};
use crate::{AccessKind, Addr, MemoryEvent, Trace, TraceBuilder};

const CASES: u64 = 128;

/// An arbitrary well-formed trace (sorted cycles, aligned addresses) from a
/// seed — the loop-based equivalent of the old proptest strategy.
fn arb_trace(seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0x7141);
    let block = if rng.gen_bool(0.5) { 32u64 } else { 64 };
    let n = rng.gen_range(0usize..200);
    let mut events: Vec<(u64, u64, bool)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(0u64..2_000),
                rng.gen_range(0u64..256),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    events.sort_by_key(|&(cycle, _, _)| cycle);
    let mut b = TraceBuilder::new(block, 4);
    for (cycle, blk, is_write) in events {
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        b.record(cycle, blk * block, kind);
    }
    b.finish()
}

/// Bursts of transactions (consecutive blocks of one kind at a fixed cycle
/// step) joined by every way a run can break: a kind change, an address
/// gap, an unaligned or backwards address, a cycle that breaks the step or
/// runs backwards, and steps of `u32::MAX` (the largest a run stores) and
/// `u32::MAX + 1`. Some bursts just continue the previous one, and some
/// sit at the top of the address space.
fn burst_events(seed: u64) -> (u64, Vec<MemoryEvent>) {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xB0257);
    let block = [4u64, 48, 64][rng.gen_range(0usize..3)];
    let top = u64::MAX - u64::MAX % block;
    let mut next = MemoryEvent {
        cycle: rng.gen_range(0u64..100),
        addr: rng.gen_range(0u64..1000) * block,
        kind: AccessKind::Read,
    };
    let mut events = Vec::new();
    for _ in 0..rng.gen_range(0usize..40) {
        let step = match rng.gen_range(0u32..6) {
            0 => 0,
            1 => 1,
            2 => u64::from(u32::MAX),
            3 => u64::from(u32::MAX) + 1,
            _ => rng.gen_range(2u64..1000),
        };
        if rng.gen_bool(0.1) {
            next.addr = top - block * rng.gen_range(0u64..4);
        }
        for _ in 0..rng.gen_range(1u64..20) {
            events.push(next);
            match next.addr.checked_add(block) {
                Some(addr) => next.addr = addr,
                None => break,
            }
            next.cycle += step;
        }
        match rng.gen_range(0u32..8) {
            0 => {
                next.kind = if next.kind.is_read() {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
            }
            1 => next.addr = next.addr.saturating_add(block * rng.gen_range(1u64..4)),
            2 => next.addr = next.addr.saturating_sub(block * rng.gen_range(2u64..6)),
            3 => next.addr = next.addr.saturating_add(rng.gen_range(1..block)),
            4 => next.cycle += rng.gen_range(1u64..5),
            5 => next.cycle = next.cycle.saturating_sub(step + rng.gen_range(1u64..5)),
            // The next burst continues this one.
            _ => {}
        }
        if next.addr > top {
            next.addr = rng.gen_range(0u64..1000) * block;
        }
    }
    (block, events)
}

/// Builds a trace with `record_range` wherever consecutive events share a
/// cycle and kind at consecutive blocks, `record` elsewhere. A range ends
/// at the first byte of its last block, which may be the top one.
fn recorded_in_ranges(block: u64, events: &[MemoryEvent]) -> Trace {
    let mut b = TraceBuilder::new(block, 4);
    let mut rest = events;
    while let Some(first) = rest.first() {
        let n = 1
            + (rest.iter().zip(&rest[1..]))
                .take_while(|(a, b)| {
                    b.cycle == a.cycle
                        && b.kind == a.kind
                        && a.addr.checked_add(block) == Some(b.addr)
                })
                .count();
        if n == 1 {
            b.record(first.cycle, first.addr, first.kind);
        } else {
            assert_eq!(
                b.record_range(
                    first.cycle,
                    first.addr,
                    (n as u64 - 1) * block + 1,
                    first.kind
                ),
                n as u64
            );
        }
        rest = &rest[n..];
    }
    b.finish()
}

/// The run encoding is lossless and canonical: the events come back
/// exactly, the counts match a flat reference, and every way of building
/// a trace from the same events gives an equal trace.
#[test]
fn run_encoding_is_lossless_and_canonical() {
    let mut breaks = 0;
    for seed in 0..4 * CASES {
        let (block, events) = burst_events(seed);
        let trace = Trace::from_parts(events.clone(), block, 4);
        let label = format!("seed {seed}");
        assert_eq!(trace.events().collect::<Vec<_>>(), events, "{label}");
        assert_eq!(trace.len(), events.len(), "{label}");
        assert_eq!(trace.events().len(), events.len(), "{label}");
        let reads = events.iter().filter(|e| e.kind.is_read()).count();
        assert_eq!(trace.read_count(), reads, "{label}");
        assert_eq!(trace.write_count(), events.len() - reads, "{label}");
        let duration = match (events.first(), events.last()) {
            (Some(a), Some(b)) => b.cycle.saturating_sub(a.cycle),
            _ => 0,
        };
        assert_eq!(trace.duration(), duration, "{label}");
        breaks += trace.run_count().saturating_sub(1);

        // `nth` and `skip` walk runs; they agree with the flat events,
        // and so does a fold that starts inside a run.
        for k in [0, 1, 2, 7, events.len() / 2, events.len(), events.len() + 3] {
            assert_eq!(
                trace.events().nth(k),
                events.get(k).copied(),
                "{label} nth {k}"
            );
            let rest: Vec<_> = trace.events().skip(k).collect();
            assert_eq!(rest, events.get(k..).unwrap_or(&[]), "{label} skip {k}");
            let mut it = trace.events();
            let _ = it.nth(k);
            assert_eq!(it.len(), events.len().saturating_sub(k + 1), "{label}");
            let folded = it.fold(Vec::new(), |mut v, e| {
                v.push(e);
                v
            });
            assert_eq!(
                folded,
                events.get(k + 1..).unwrap_or(&[]),
                "{label} fold {k}"
            );
        }
        let stride = 1 + (seed as usize) % 5;
        let strided: Vec<_> = trace.events().step_by(stride).collect();
        let flat: Vec<_> = events.iter().copied().step_by(stride).collect();
        assert_eq!(strided, flat, "{label} step_by {stride}");

        // Every builder path gives the same trace. `record` and the readers
        // take block-aligned addresses only.
        if events.iter().all(|e| e.addr % block == 0) {
            let mut b = TraceBuilder::new(block, 4);
            for e in &events {
                b.record(e.cycle, e.addr, e.kind);
            }
            assert_eq!(b.finish(), trace, "{label} record");
            assert_eq!(
                recorded_in_ranges(block, &events),
                trace,
                "{label} record_range"
            );
            let mut csv = Vec::new();
            write_csv(&trace, &mut csv).expect("write");
            assert_eq!(read_csv_unordered(&csv[..]).expect("csv"), trace, "{label}");
            let mut bin = Vec::new();
            write_binary(&trace, &mut bin).expect("write");
            assert_eq!(
                read_binary_unordered(&bin[..]).expect("bin"),
                trace,
                "{label}"
            );
        }
    }
    // The bursts did break into runs, not only continue each other.
    assert!(breaks > 1000, "{breaks} run breaks");
}

/// Regions partition the touched blocks: disjoint, sorted, and their
/// touched-block counts sum to the unique-block count.
#[test]
fn stats_regions_partition_the_footprint() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let gap = seed % 8;
        let s = TraceStats::compute(&trace, gap);
        assert_eq!(s.transactions, trace.len());
        assert_eq!(s.reads + s.writes, s.transactions);
        let total: usize = s.regions.iter().map(|r| r.touched_blocks).sum();
        assert_eq!(total, s.unique_blocks);
        for w in s.regions.windows(2) {
            assert!(w[0].end <= w[1].start, "regions overlap or unsorted");
            // A gap survives between separate regions.
            assert!(w[1].start - w[0].end > gap * trace.block_bytes());
        }
        for r in &s.regions {
            assert!(r.start < r.end);
            assert!(r.touched_blocks as u64 <= r.len_bytes() / trace.block_bytes());
        }
    }
}

/// A larger clustering gap never yields more regions.
#[test]
fn larger_gap_means_fewer_regions() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let fine = TraceStats::compute(&trace, 0).regions.len();
        let coarse = TraceStats::compute(&trace, 4).regions.len();
        assert!(coarse <= fine);
    }
}

/// Traffic windows conserve the transaction counts.
#[test]
fn traffic_profile_conserves_counts() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let window = 1 + seed * 4 % 499;
        let p = TrafficProfile::compute(&trace, window);
        let reads: usize = p.windows.iter().map(|w| w.0).sum();
        let writes: usize = p.windows.iter().map(|w| w.1).sum();
        assert_eq!(reads, trace.read_count());
        assert_eq!(writes, trace.write_count());
        // Window count is bounded by the duration.
        if !trace.is_empty() {
            let max_windows = usize::try_from(trace.duration() / window).unwrap() + 1;
            assert!(p.windows.len() <= max_windows);
        }
    }
}

/// Timing jitter preserves length, order, addresses, and kinds.
#[test]
fn jitter_preserves_everything_but_time() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let mut rng = SmallRng::seed_from_u64(seed % 100);
        let j = jitter_timing(&trace, 0.3, &mut rng);
        assert_eq!(j.len(), trace.len());
        for (a, b) in trace.events().zip(j.events()) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.kind, b.kind);
        }
        let mono = j
            .events()
            .zip(j.events().skip(1))
            .all(|(a, b)| a.cycle <= b.cycle);
        assert!(mono);
        assert!(j.duration() >= trace.duration());
    }
}

/// Window shuffling is a permutation: same multiset of (addr, kind).
#[test]
fn shuffle_is_a_permutation() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let mut rng = SmallRng::seed_from_u64(seed % 100);
        let window = 1 + (seed as usize * 7) % 199;
        let s = shuffle_within_window(&trace, window, &mut rng);
        assert_eq!(s.len(), trace.len());
        let key = |t: &Trace| {
            let mut v: Vec<(u64, bool)> = t.events().map(|e| (e.addr, e.kind.is_write())).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&s), key(&trace));
    }
}

/// The streaming segmenter agrees with batch segmentation event-for-event —
/// segments tile the trace, in order, regardless of how the event stream is
/// chunked.
#[test]
fn streaming_segmentation_matches_batch() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let batch = segment_trace(&trace);
        let mut seg = StreamingSegmenter::new(
            trace.block_bytes(),
            SegmentConfig {
                slack_bytes: trace.block_bytes(),
            },
        );
        let mut streamed: Vec<_> = trace.events().filter_map(|e| seg.push(e)).collect();
        streamed.extend(seg.finish());
        assert_eq!(&streamed, &batch);
        // Tiling invariant: segments cover [0, len) without gaps.
        if !trace.is_empty() {
            assert_eq!(streamed[0].first_event, 0);
            assert_eq!(streamed.last().expect("non-empty").end_event, trace.len());
            for w in streamed.windows(2) {
                assert_eq!(w[0].end_event, w[1].first_event);
            }
        }
    }
}

/// CSV serialization round-trips any trace exactly.
#[test]
fn csv_roundtrip() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).expect("write");
        let back = read_csv(buf.as_slice()).expect("read");
        assert_eq!(back, trace);
    }
}

/// Binary serialization round-trips any trace exactly.
#[test]
fn binary_roundtrip() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).expect("write");
        let back = read_binary(buf.as_slice()).expect("read");
        assert_eq!(back, trace);
    }
}

/// Write padding only adds writes: reads are untouched, the write count
/// never decreases, and its stats are self-consistent.
#[test]
fn padding_only_adds_writes() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        // Pad over the trace's own footprint regions.
        let regions: Vec<(u64, u64)> = TraceStats::compute(&trace, 4)
            .regions
            .iter()
            .map(|r| (r.start, r.len_bytes()))
            .collect();
        let (padded, stats) = pad_write_traffic(&trace, &regions);
        assert_eq!(padded.read_count(), trace.read_count());
        assert!(padded.write_count() >= trace.write_count());
        assert_eq!(stats.writes_before, trace.write_count());
        assert_eq!(stats.writes_after, padded.write_count());
    }
}

/// Reference read-only regions: a plain `BTreeMap` from interval start to
/// inclusive end, probed and extended with slack, independent of the
/// production `IntervalSet` and its cursor.
#[derive(Default)]
struct RefRegions(BTreeMap<Addr, Addr>);

impl RefRegions {
    /// Whether `addr` lies within `slack` of an existing region.
    fn contains(&self, addr: Addr, block: u64, slack: u64) -> bool {
        let near_pred = (self.0.range(..=addr).next_back())
            .is_some_and(|(_, &hi)| addr <= hi.saturating_add(slack));
        let near_succ = (self.0.range(addr..).next())
            .is_some_and(|(&lo, _)| lo <= addr.saturating_add(block - 1).saturating_add(slack));
        near_pred || near_succ
    }

    /// Adds `addr`'s block, extending a region it lies within `slack` of and
    /// merging regions that come within `slack` of each other.
    fn insert(&mut self, addr: Addr, block: u64, slack: u64) {
        let end = addr.saturating_add(block - 1);
        let pred = self.0.range(..=addr).next_back().map(|(&lo, &hi)| (lo, hi));
        let lo = match pred {
            Some((lo, hi)) if addr <= hi.saturating_add(slack) => {
                self.0.insert(lo, hi.max(end));
                lo
            }
            _ => {
                let succ = self.0.range(addr..).next().map(|(&lo, &hi)| (lo, hi));
                match succ {
                    Some((lo, hi)) if lo <= end.saturating_add(slack) => {
                        self.0.remove(&lo);
                        self.0.insert(addr, hi.max(end));
                    }
                    _ => {
                        self.0.insert(addr, end);
                    }
                }
                addr
            }
        };
        // Swallow every later region the grown one now reaches.
        loop {
            let hi = self.0[&lo];
            let next = self.0.range(lo..).nth(1).map(|(&l, &h)| (l, h));
            match next {
                Some((nl, nh)) if nl <= hi.saturating_add(slack) => {
                    self.0.remove(&nl);
                    self.0.insert(lo, hi.max(nh));
                }
                _ => break,
            }
        }
    }
}

/// Reference segmenter: the straightforward formulation over std
/// `HashSet`s (SipHash) and [`RefRegions`], kept to check the production
/// segmenter against.
fn reference_segment(trace: &Trace, config: SegmentConfig) -> Vec<Segment> {
    let (block, slack) = (trace.block_bytes(), config.slack_bytes);
    let mut global_written: HashSet<Addr> = HashSet::new();
    let mut written_this: HashSet<Addr> = HashSet::new();
    let mut ro_regions = RefRegions::default();
    let mut has_write = false;
    let (mut seg_start, mut seg_start_cycle, mut prev_cycle) = (0, 0, 0);
    let mut segments = Vec::new();
    for (index, ev) in trace.events().enumerate() {
        let boundary = ev.kind.is_read()
            && (written_this.contains(&ev.addr)
                || (!global_written.contains(&ev.addr)
                    && has_write
                    && !ro_regions.contains(ev.addr, block, slack)));
        if boundary && index > seg_start {
            segments.push(Segment {
                first_event: seg_start,
                end_event: index,
                start_cycle: seg_start_cycle,
                end_cycle: prev_cycle,
            });
            seg_start = index;
            written_this.clear();
            ro_regions = RefRegions::default();
            has_write = false;
        }
        if index == seg_start {
            seg_start_cycle = ev.cycle;
        }
        if ev.kind.is_write() {
            global_written.insert(ev.addr);
            written_this.insert(ev.addr);
            has_write = true;
        } else if !global_written.contains(&ev.addr) {
            ro_regions.insert(ev.addr, block, slack);
        }
        prev_cycle = ev.cycle;
    }
    if trace.len() > seg_start {
        segments.push(Segment {
            first_event: seg_start,
            end_event: trace.len(),
            start_cycle: seg_start_cycle,
            end_cycle: prev_cycle,
        });
    }
    segments
}

/// Reference classification: per-segment `BTreeSet`s and a per-address
/// `BTreeMap` of last writers, kept to check `observe_with` against.
fn reference_observe(trace: &Trace, config: SegmentConfig) -> TraceObservations {
    let segments = reference_segment(trace, config);
    let mut producer: BTreeMap<Addr, usize> = BTreeMap::new();
    let mut layers: Vec<LayerObservation> = Vec::with_capacity(segments.len());
    for (idx, seg) in segments.iter().enumerate() {
        let mut written: BTreeSet<Addr> = BTreeSet::new();
        let mut ro_read: BTreeSet<Addr> = BTreeSet::new();
        let mut ifm_read: BTreeMap<usize, BTreeSet<Addr>> = BTreeMap::new();
        for ev in trace.events().skip(seg.first_event).take(seg.len()) {
            if ev.kind.is_write() {
                written.insert(ev.addr);
            } else if let Some(&p) = producer.get(&ev.addr) {
                ifm_read.entry(p).or_default().insert(ev.addr);
            } else {
                ro_read.insert(ev.addr);
            }
        }
        for &a in &written {
            producer.insert(a, idx);
        }
        let kind = if written.is_empty() && ro_read.is_empty() && ifm_read.is_empty() {
            LayerKindHint::Other
        } else if ro_read.is_empty() && ifm_read.is_empty() {
            LayerKindHint::Prologue
        } else if !ro_read.is_empty() {
            LayerKindHint::Compute
        } else if !written.is_empty() {
            LayerKindHint::Merge
        } else {
            LayerKindHint::Other
        };
        layers.push(LayerObservation {
            index: idx,
            segment: *seg,
            kind,
            ofm_blocks: written.len() as u64,
            weight_blocks: ro_read.len() as u64,
            ifm_sources: ifm_read
                .into_iter()
                .map(|(p, s)| IfmSource {
                    producer: p,
                    blocks: s.len() as u64,
                })
                .collect(),
            cycles: seg.cycles(),
        });
    }
    for i in 0..layers.len().saturating_sub(1) {
        layers[i].cycles = layers[i + 1]
            .segment
            .start_cycle
            .saturating_sub(layers[i].segment.start_cycle);
    }
    TraceObservations {
        layers,
        elems_per_block: trace.elems_per_block(),
    }
}

/// Where a differential trace draws its fresh block indices from.
#[derive(Debug, Clone, Copy)]
enum AddrMode {
    /// A few small clusters of blocks.
    Clustered,
    /// Anywhere in the address space.
    Scattered,
    /// Clusters, with about half the addresses off the block grid.
    Unaligned,
    /// The last few hundred blocks below `u64::MAX`.
    NearMax,
    /// Long ascending read runs over a few regions that grow into each
    /// other; see [`streaming_blocks`].
    Streaming,
    /// Layers that re-fetch runs straddling stamp-page boundaries once per
    /// row tile; see [`refetch_blocks`].
    Refetch,
}

/// `AddrMode::Streaming`'s (block index, is write) sequence: two or three
/// read regions a few blocks apart, each read in long ascending runs until
/// they grow into each other, with backward reads, writes into the read
/// regions and runs of output writes mixed in.
fn streaming_blocks(rng: &mut SmallRng, n: usize) -> Vec<(u64, bool)> {
    let gap = rng.gen_range(4u64..40);
    let mut heads: Vec<u64> = (0..rng.gen_range(2u64..4))
        .map(|k| 1000 + k * gap)
        .collect();
    let mut blocks = Vec::with_capacity(n + 24);
    while blocks.len() < n {
        let r = rng.gen_range(0..heads.len());
        let head = &mut heads[r];
        match rng.gen_range(0u32..10) {
            0 => blocks.push((head.saturating_sub(rng.gen_range(1..=gap)), false)),
            1 => blocks.push((head.saturating_sub(rng.gen_range(0..=gap)), true)),
            2 => {
                let start = 100_000 + rng.gen_range(0u64..64);
                blocks.extend((0..rng.gen_range(1u64..8)).map(|i| (start + i, true)));
            }
            _ => {
                for _ in 0..rng.gen_range(1u32..24) {
                    blocks.push((*head, false));
                    *head += 1;
                }
            }
        }
    }
    blocks.truncate(n);
    blocks
}

/// `AddrMode::Refetch`'s (block index, is write) sequence: a chain of
/// layers, each fetching its whole weight run and an overlapping slice of
/// its input run once per row tile, and writing a slice of its output run
/// per tile. The next layer reads that output (a RAW boundary); sometimes
/// it re-fetches the previous layer's weights too. Every run straddles a
/// stamp-page boundary, so re-reads cross pages within and across
/// segments, and a segment's reads outnumber its distinct blocks.
fn refetch_blocks(rng: &mut SmallRng, n: usize) -> Vec<(u64, bool)> {
    // (first block, length) of a run that ends a page in `pages` and
    // starts the next.
    let straddling = |rng: &mut SmallRng, pages: std::ops::Range<u64>| {
        let page = rng.gen_range(pages);
        let before = rng.gen_range(1u64..8);
        (page * SLOTS - before, before + rng.gen_range(1u64..16))
    };
    let mut blocks = Vec::with_capacity(n + 256);
    let mut input = straddling(rng, 1..2);
    let mut weights = straddling(rng, 100..200);
    blocks.extend((input.0..input.0 + input.1).map(|b| (b, true)));
    while blocks.len() < n {
        if rng.gen_bool(0.7) {
            weights = straddling(rng, 100..200);
        }
        let output = straddling(rng, 300..400);
        let tiles = rng.gen_range(1u64..5);
        let (in_step, out_step) = (input.1.div_ceil(tiles), output.1.div_ceil(tiles));
        for tile in 0..tiles {
            blocks.extend((weights.0..weights.0 + weights.1).map(|b| (b, false)));
            // The tile's input rows and a halo shared with the next tile.
            let lo = input.0 + tile * in_step;
            let hi = (lo + in_step + rng.gen_range(0u64..4)).min(input.0 + input.1);
            blocks.extend((lo..hi).map(|b| (b, false)));
            let lo = output.0 + tile * out_step;
            let hi = (lo + out_step).min(output.0 + output.1);
            blocks.extend((lo..hi).map(|b| (b, true)));
        }
        input = output;
    }
    blocks.truncate(n);
    blocks
}

/// A random time-ordered trace shaped like layer traffic: runs of
/// consecutive blocks of one access kind, jumps back to blocks touched
/// before (re-reads, RAW boundaries, and later segments overwriting an
/// earlier segment's blocks), and jumps to fresh blocks.
fn differential_trace(seed: u64, mode: AddrMode) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0xD1FF);
    let block = [4u64, 32, 64][rng.gen_range(0usize..3)];
    let max_index = u64::MAX / block;
    if let AddrMode::Streaming | AddrMode::Refetch = mode {
        let n = rng.gen_range(0usize..600);
        let blocks = match mode {
            AddrMode::Refetch => refetch_blocks(&mut rng, n),
            _ => streaming_blocks(&mut rng, n),
        };
        let mut cycle = 0u64;
        let events = (blocks.into_iter())
            .map(|(index, write)| {
                cycle += rng.gen_range(0u64..4);
                MemoryEvent {
                    cycle,
                    addr: index * block,
                    kind: if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                }
            })
            .collect();
        return Trace::from_parts(events, block, 4);
    }
    let fresh = |rng: &mut SmallRng| match mode {
        AddrMode::Clustered | AddrMode::Unaligned | AddrMode::Streaming | AddrMode::Refetch => {
            rng.gen_range(0u64..6) * 4096 + rng.gen_range(0u64..64)
        }
        AddrMode::Scattered => rng.gen_range(0..max_index),
        AddrMode::NearMax => max_index - rng.gen_range(0u64..300),
    };
    let n = rng.gen_range(0usize..600);
    let mut touched: Vec<u64> = Vec::new();
    let mut index = fresh(&mut rng);
    let mut write = rng.gen_bool(0.5);
    let mut cycle = 0u64;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.gen_bool(0.15) {
            write = !write;
        }
        let jump = rng.gen_range(0u32..10);
        index = if jump < 6 {
            index.saturating_add(1).min(max_index)
        } else if jump < 9 && !touched.is_empty() {
            touched[rng.gen_range(0..touched.len())]
        } else {
            fresh(&mut rng)
        };
        touched.push(index);
        let phase = match mode {
            AddrMode::Unaligned if rng.gen_bool(0.5) => rng.gen_range(0..block),
            _ => 0,
        };
        cycle += rng.gen_range(0u64..4);
        events.push(MemoryEvent {
            cycle,
            addr: index * block + phase,
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        });
    }
    Trace::from_parts(events, block, 4)
}

/// Checks segmentation and classification against the reference
/// implementations at three slack settings: at slack 0 adjacent read-only
/// blocks form separate regions, so a stretch of them is never one insert.
fn assert_matches_reference(trace: &Trace, label: &str) {
    for slack_blocks in [0, 1, 4] {
        let config = SegmentConfig {
            slack_bytes: trace.block_bytes() * slack_blocks,
        };
        assert_eq!(
            segment_trace_with(trace, config),
            reference_segment(trace, config),
            "{label}: segmentation, slack {slack_blocks} blocks"
        );
        assert_eq!(
            observe_with(trace, config),
            reference_observe(trace, config),
            "{label}: observations, slack {slack_blocks} blocks"
        );
    }
}

/// The production segmenter and classifier give exactly the reference
/// implementations' output on random traces of every address shape.
#[test]
fn observe_matches_reference_on_random_traces() {
    for mode in [
        AddrMode::Clustered,
        AddrMode::Scattered,
        AddrMode::Unaligned,
        AddrMode::NearMax,
        AddrMode::Streaming,
        AddrMode::Refetch,
    ] {
        for seed in 0..CASES {
            let trace = differential_trace(seed, mode);
            assert_matches_reference(&trace, &format!("{mode:?} seed {seed}"));
        }
    }
}

/// `AddrMode::Refetch` does what it is for: its compute layers read some
/// blocks more than once, so distinct counts differ from raw read counts.
#[test]
fn refetch_traces_reread_blocks() {
    let mut layers = 0;
    let mut reread = 0;
    for seed in 0..CASES {
        let trace = differential_trace(seed, AddrMode::Refetch);
        let config = SegmentConfig::for_trace(&trace);
        for l in observe_with(&trace, config).compute_layers() {
            let events = trace.events().skip(l.segment.first_event);
            let reads = (events.take(l.segment.len()))
                .filter(|e| e.kind.is_read())
                .count() as u64;
            layers += 1;
            reread += usize::from(reads > l.weight_blocks + l.ifm_blocks_total());
        }
    }
    assert!(
        reread * 2 > layers,
        "{reread} of {layers} layers re-read a block"
    );
}

/// A trace of DMA bursts: each burst is consecutive blocks of one kind, a
/// fixed cycle step apart, so it is stored as one run (or part of a longer
/// one, where a burst happens to continue the last). Feature maps grow
/// from the bottom of the address space: output bursts land at the
/// frontier of blocks touched so far or over touched blocks, and read
/// bursts re-read touched blocks or cross the frontier into untouched
/// ones. Weights are read in bursts far above. So a read run crosses from
/// an older producer's blocks into the current segment's output (a RAW
/// boundary) or into untouched blocks (a fresh region) at any of its
/// events, not only its first.
fn run_structured_trace(seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ 0x5EED);
    let block = [4u64, 48, 64][rng.gen_range(0usize..3)];
    let weights = 1u64 << 40;
    let (mut frontier, mut weight_frontier) = (0u64, weights);
    let mut cycle = 0u64;
    let mut b = TraceBuilder::new(block, 4);
    for _ in 0..rng.gen_range(0usize..48) {
        let len = rng.gen_range(1u64..40);
        let (start, kind) = match rng.gen_range(0u32..8) {
            0 | 1 => {
                frontier += len;
                (frontier - len, AccessKind::Write)
            }
            2 => (rng.gen_range(0..=frontier), AccessKind::Write),
            // Re-read touched blocks, perhaps running past the frontier.
            3 | 4 => (
                rng.gen_range(0..=frontier)
                    .saturating_sub(rng.gen_range(0..len)),
                AccessKind::Read,
            ),
            // Cross the frontier into untouched blocks after `before`
            // touched ones.
            5 => {
                let before = rng.gen_range(0..len).min(frontier);
                let start = frontier - before;
                frontier = frontier.max(start + len);
                (start, AccessKind::Read)
            }
            // A fresh weight region, or a re-read of the last one.
            _ => {
                if rng.gen_bool(0.7) {
                    weight_frontier += len + rng.gen_range(0u64..3);
                }
                (weight_frontier - len, AccessKind::Read)
            }
        };
        let step = rng.gen_range(0u64..5);
        for i in 0..len {
            b.record(cycle, (start + i) * block, kind);
            cycle += step;
        }
        cycle += rng.gen_range(0u64..3);
    }
    b.finish()
}

/// Checks [`run_structured_trace`]s against the references at slack 0, 1
/// and 4 blocks, and the per-event `push` against the batch driver. Also
/// checks that the generator does its job: across the seeds, both kinds
/// of boundary fall on a run's first, a middle and its last event.
fn assert_run_structured_traces_match_reference(seeds: std::ops::Range<u64>) {
    // [RAW, fresh region] x [first, middle, last event of its run].
    let mut placed = [[0usize; 3]; 2];
    for seed in seeds {
        let trace = run_structured_trace(seed);
        let label = format!("run-structured seed {seed}");
        assert_matches_reference(&trace, &label);
        let batch = segment_trace(&trace);
        let mut seg =
            StreamingSegmenter::new(trace.block_bytes(), SegmentConfig::for_trace(&trace));
        let mut streamed: Vec<_> = trace.events().filter_map(|e| seg.push(e)).collect();
        streamed.extend(seg.finish());
        assert_eq!(streamed, batch, "{label}: push");

        let events: Vec<MemoryEvent> = trace.events().collect();
        // Each run's first event; the trace's length closes the last run.
        let mut starts: Vec<usize> = (trace.runs().iter())
            .scan(0, |next, run| {
                let first = *next;
                *next += run.len() as usize;
                Some(first)
            })
            .collect();
        starts.push(trace.len());
        for pair in batch.windows(2) {
            let at = pair[1].first_event;
            let r = starts.partition_point(|&first| first <= at) - 1;
            let (first, len) = (starts[r], starts[r + 1] - starts[r]);
            let raw = events[pair[0].first_event..at]
                .iter()
                .any(|e| e.kind.is_write() && e.addr == events[at].addr);
            let position = match at - first {
                0 => 0,
                k if k + 1 == len => 2,
                _ => 1,
            };
            placed[usize::from(!raw)][position] += 1;
        }
    }
    assert!(
        placed.iter().flatten().all(|&n| n > 0),
        "boundaries by [RAW, fresh] x [first, middle, last]: {placed:?}"
    );
}

/// The driver gives the references' output on traces whose runs are long,
/// with boundaries inside runs.
#[test]
fn observe_matches_reference_on_run_structured_traces() {
    assert_run_structured_traces_match_reference(0..CASES);
}

#[test]
#[ignore = "a 100x longer seed sweep; run with --release by scripts/check.sh"]
fn observe_matches_reference_on_run_structured_traces_long() {
    assert_run_structured_traces_match_reference(0..100 * CASES);
}

/// The same agreement on the golden LeNet trace.
#[test]
fn observe_matches_reference_on_golden_lenet_trace() {
    let csv = include_str!("../../../tests/golden/lenet_trace.csv");
    let trace = read_csv(csv.as_bytes()).expect("golden trace parses");
    assert!(trace.len() > 100);
    assert_matches_reference(&trace, "golden lenet");
}
