//! Per-layer observations extracted from a segmented trace.
//!
//! This is step 2 of the paper's Algorithm 1: *"Record the execution time of
//! each layer and calculate `SIZE_IFM`, `SIZE_OFM`, and `SIZE_FLTR` based on
//! the memory access pattern"* — plus the inter-layer connection structure
//! (which earlier layer's output each layer consumes), which reveals fire
//! modules and bypass paths.

use std::collections::BTreeMap;

use crate::segment::{segment_trace_with, Segment, SegmentConfig};
use crate::{Addr, Cycle, Trace};

/// Why a segment was classified the way it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKindHint {
    /// Writes only — the host staging the input feature map.
    Prologue,
    /// Reads weights (a read-only region) and computes — a CONV or FC layer
    /// (possibly with merged activation/pooling).
    Compute,
    /// Reads two or more previously written feature maps and writes a new
    /// one without touching weights — an element-wise merge (bypass join).
    Merge,
    /// Anything else (e.g. a read-only pass) — not produced by the
    /// simulated accelerator but kept for robustness.
    Other,
}

/// One feature-map input of a layer: which earlier segment produced it and
/// how many distinct blocks of it this layer read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfmSource {
    /// Index (into [`TraceObservations::layers`]) of the producing segment.
    pub producer: usize,
    /// Distinct blocks of the producer's output read by this layer.
    pub blocks: u64,
}

/// Everything the adversary can say about one layer from the trace alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerObservation {
    /// Segment index (0 is usually the prologue).
    pub index: usize,
    /// The underlying event range.
    pub segment: Segment,
    /// Classification hint.
    pub kind: LayerKindHint,
    /// Distinct blocks written (the OFM footprint).
    pub ofm_blocks: u64,
    /// Distinct read-only blocks read (the filter/weight footprint).
    pub weight_blocks: u64,
    /// Feature-map inputs, by producing segment.
    pub ifm_sources: Vec<IfmSource>,
    /// Execution cycles (last event cycle − first event cycle).
    pub cycles: Cycle,
}

impl LayerObservation {
    /// Total distinct IFM blocks read across all sources.
    #[must_use]
    pub fn ifm_blocks_total(&self) -> u64 {
        self.ifm_sources.iter().map(|s| s.blocks).sum()
    }
}

/// The full set of per-layer observations for a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceObservations {
    /// Per-segment observations, in execution order.
    pub layers: Vec<LayerObservation>,
    /// Data elements per transaction block (known memory-system parameter).
    pub elems_per_block: u64,
}

impl TraceObservations {
    /// The observations for compute layers only (prologue and merge
    /// segments filtered out), in order.
    #[must_use]
    pub fn compute_layers(&self) -> Vec<&LayerObservation> {
        self.layers
            .iter()
            .filter(|l| l.kind == LayerKindHint::Compute)
            .collect()
    }

    /// Inclusive lower and exclusive upper bound on an element count whose
    /// block footprint is `blocks`: the true size is in
    /// `((blocks−1)·epb, blocks·epb]`.
    #[must_use]
    pub fn element_bounds(&self, blocks: u64) -> (u64, u64) {
        if blocks == 0 {
            return (0, 0);
        }
        (
            (blocks - 1) * self.elems_per_block,
            blocks * self.elems_per_block,
        )
    }

    /// True when `candidate_elems` is consistent with a measured footprint
    /// of `blocks` blocks.
    #[must_use]
    pub fn size_matches(&self, blocks: u64, candidate_elems: u64) -> bool {
        let (lo, hi) = self.element_bounds(blocks);
        candidate_elems > lo && candidate_elems <= hi
    }
}

/// Segments a trace and extracts per-layer observations.
///
/// # Example
///
/// ```
/// use cnnre_trace::{AccessKind, TraceBuilder};
/// use cnnre_trace::observe::{observe, LayerKindHint};
///
/// let mut b = TraceBuilder::new(64, 4);
/// b.record(0, 0, AccessKind::Write);        // host stages the input
/// b.record(10, 4096, AccessKind::Read);     // layer 1: weight fetch
/// b.record(11, 0, AccessKind::Read);        // layer 1: IFM fetch
/// b.record(12, 8192, AccessKind::Write);    // layer 1: OFM write
/// let obs = observe(&b.finish());
/// assert_eq!(obs.layers.len(), 2);
/// assert_eq!(obs.layers[0].kind, LayerKindHint::Prologue);
/// assert_eq!(obs.layers[1].kind, LayerKindHint::Compute);
/// assert_eq!(obs.layers[1].ofm_blocks, 1);
/// assert_eq!(obs.layers[1].weight_blocks, 1);
/// ```
#[must_use]
pub fn observe(trace: &Trace) -> TraceObservations {
    observe_with(trace, SegmentConfig::for_trace(trace))
}

/// [`observe`] with explicit segmentation configuration.
#[must_use]
pub fn observe_with(trace: &Trace, config: SegmentConfig) -> TraceObservations {
    let segments = segment_trace_with(trace, config);
    let events = trace.events();

    // Which segment last wrote each block. (Feature-map regions are written
    // exactly once in the paper's model, so "last" and "only" coincide; we
    // keep last-writer for robustness.)
    let mut producer = ProducerRuns::new(trace.block_bytes());
    let mut layers = Vec::with_capacity(segments.len());
    // Per-segment distinct written / read addresses; reused across
    // segments so the pass allocates only when a segment outgrows them.
    let mut written: Vec<Addr> = Vec::new();
    let mut read: Vec<Addr> = Vec::new();

    for (idx, seg) in segments.iter().enumerate() {
        written.clear();
        read.clear();
        for ev in &events[seg.first_event..seg.end_event] {
            if ev.kind.is_write() {
                written.push(ev.addr);
            } else {
                read.push(ev.addr);
            }
        }
        written.sort_unstable();
        written.dedup();
        read.sort_unstable();
        read.dedup();

        // Every read is looked up against the writes of *earlier* segments
        // only: this segment's runs are committed after the scan, so
        // self-reads within a segment (which segmentation already rules
        // out) would not self-reference.
        let mut weight_blocks = 0u64;
        let mut ifm_sources: Vec<IfmSource> = Vec::new();
        for &a in &read {
            match producer.writer_of(a) {
                Some(p) => match ifm_sources.last_mut() {
                    Some(s) if s.producer == p => s.blocks += 1,
                    _ => ifm_sources.push(IfmSource {
                        producer: p,
                        blocks: 1,
                    }),
                },
                None => weight_blocks += 1,
            }
        }
        ifm_sources.sort_by_key(|s| s.producer);
        ifm_sources.dedup_by(|later, kept| {
            let same = later.producer == kept.producer;
            if same {
                kept.blocks += later.blocks;
            }
            same
        });
        producer.commit(&written, idx);

        let has_ifm = !ifm_sources.is_empty();
        let kind = if written.is_empty() && weight_blocks == 0 && !has_ifm {
            LayerKindHint::Other
        } else if weight_blocks == 0 && !has_ifm {
            LayerKindHint::Prologue
        } else if weight_blocks > 0 {
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
            weight_blocks,
            ifm_sources,
            cycles: seg.cycles(),
        });
    }
    // A layer's execution time is boundary-to-boundary: from its first
    // transaction to the next layer's first transaction. (The span of its
    // own events alone misses the trailing compute that overlaps no DMA.)
    for i in 0..layers.len().saturating_sub(1) {
        layers[i].cycles = layers[i + 1]
            .segment
            .start_cycle
            .saturating_sub(layers[i].segment.start_cycle);
    }
    if cnnre_obs::stream::enabled() {
        // Classification is post-hoc (it needs the whole trace), so every
        // SegmentClassified event is stamped at the trace's end cycle —
        // after all LayerBoundary events, keeping the stream monotone.
        use cnnre_obs::stream::{EventPayload, SegmentKind};
        for obs in &layers {
            let kind = match obs.kind {
                LayerKindHint::Prologue => SegmentKind::Prologue,
                LayerKindHint::Compute => SegmentKind::Compute,
                LayerKindHint::Merge => SegmentKind::Merge,
                LayerKindHint::Other => SegmentKind::Other,
            };
            cnnre_obs::stream::emit_at(
                trace.duration(),
                EventPayload::SegmentClassified {
                    index: obs.index as u64,
                    kind,
                    start_cycle: obs.segment.start_cycle,
                    end_cycle: obs.segment.end_cycle,
                    ifm_blocks: obs.ifm_sources.iter().map(|s| s.blocks).sum(),
                    ofm_blocks: obs.ofm_blocks,
                    weight_blocks: obs.weight_blocks,
                },
            );
        }
    }
    TraceObservations {
        layers,
        elems_per_block: trace.elems_per_block(),
    }
}

/// Which segment last wrote each address, stored as runs of consecutive
/// blocks: a layer writes a few contiguous regions, so its thousands of
/// blocks commit as a handful of entries.
///
/// An address is keyed as `(phase, index)` = `(addr % block, addr /
/// block)`. Accelerator traces are block-aligned (phase 0 throughout); an
/// unaligned address only ever shares a run with addresses of its own
/// phase, so the runs of one phase never overlap and a predecessor lookup
/// is exact for any trace.
#[derive(Debug)]
struct ProducerRuns {
    block: u64,
    /// `(phase, first index)` -> (last index, inclusive; writing segment).
    runs: BTreeMap<(u64, u64), (u64, usize)>,
}

impl ProducerRuns {
    fn new(block: u64) -> Self {
        Self {
            block,
            runs: BTreeMap::new(),
        }
    }

    fn key(&self, addr: Addr) -> (u64, u64) {
        (addr % self.block, addr / self.block)
    }

    /// The segment that last wrote `addr`, if any.
    fn writer_of(&self, addr: Addr) -> Option<usize> {
        let (phase, index) = self.key(addr);
        let (&(run_phase, _), &(last, writer)) = self.runs.range(..=(phase, index)).next_back()?;
        (run_phase == phase && index <= last).then_some(writer)
    }

    /// Records `writer` as the last writer of every address in `written`
    /// (sorted, distinct).
    fn commit(&mut self, written: &[Addr], writer: usize) {
        let block = self.block;
        for run in written.chunk_by(|&a, &b| a.checked_add(block) == Some(b)) {
            let (phase, first) = self.key(run[0]);
            let (_, last) = self.key(run[run.len() - 1]);
            self.insert(phase, first, last, writer);
        }
    }

    /// Inserts the run `first..=last` of `phase`, trimming the older runs
    /// it overwrites so the last writer wins.
    fn insert(&mut self, phase: u64, first: u64, last: u64, writer: usize) {
        // An older run that starts before this one and reaches into it
        // keeps its head and, beyond `last`, its tail.
        if let Some((&(p, start), &(end, w))) = self.runs.range(..(phase, first)).next_back() {
            if p == phase && end >= first {
                self.runs.insert((p, start), (first - 1, w));
                if end > last {
                    self.runs.insert((phase, last + 1), (end, w));
                }
            }
        }
        // Older runs that start inside this one keep only their tail.
        while let Some((&key, &(end, w))) = self.runs.range((phase, first)..=(phase, last)).next() {
            self.runs.remove(&key);
            if end > last {
                self.runs.insert((phase, last + 1), (end, w));
            }
        }
        self.runs.insert((phase, first), (last, writer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, TraceBuilder};

    const BLK: u64 = 64;

    fn record_n(b: &mut TraceBuilder, t: &mut u64, base: u64, n: u64, kind: AccessKind) {
        for i in 0..n {
            b.record(*t, base + i * BLK, kind);
            *t += 1;
        }
    }

    /// input(4 blocks) -> L1 (w:3, ofm:6) -> L2 (w:2, ofm:2), L2 also
    /// re-reads part of the input? No: plain chain.
    fn chain_trace() -> Trace {
        let mut b = TraceBuilder::new(BLK, 4);
        let mut t = 0;
        record_n(&mut b, &mut t, 0x0000, 4, AccessKind::Write); // host input
        record_n(&mut b, &mut t, 0x10_000, 3, AccessKind::Read); // w1
        record_n(&mut b, &mut t, 0x0000, 4, AccessKind::Read); // ifm1
        record_n(&mut b, &mut t, 0x20_000, 6, AccessKind::Write); // ofm1
        record_n(&mut b, &mut t, 0x30_000, 2, AccessKind::Read); // w2
        record_n(&mut b, &mut t, 0x20_000, 6, AccessKind::Read); // ifm2
        record_n(&mut b, &mut t, 0x40_000, 2, AccessKind::Write); // ofm2
        b.finish()
    }

    #[test]
    fn chain_observations() {
        let obs = observe(&chain_trace());
        assert_eq!(obs.layers.len(), 3);
        assert_eq!(obs.layers[0].kind, LayerKindHint::Prologue);
        assert_eq!(obs.layers[0].ofm_blocks, 4);

        let l1 = &obs.layers[1];
        assert_eq!(l1.kind, LayerKindHint::Compute);
        assert_eq!(l1.weight_blocks, 3);
        assert_eq!(l1.ofm_blocks, 6);
        assert_eq!(
            l1.ifm_sources,
            vec![IfmSource {
                producer: 0,
                blocks: 4
            }]
        );

        let l2 = &obs.layers[2];
        assert_eq!(l2.weight_blocks, 2);
        assert_eq!(
            l2.ifm_sources,
            vec![IfmSource {
                producer: 1,
                blocks: 6
            }]
        );
        assert_eq!(obs.compute_layers().len(), 2);
    }

    #[test]
    fn merge_layer_is_detected_with_bypass_sources() {
        // L1 writes A; L2 reads A writes B; merge reads A (bypass) + B,
        // writes C with no weights.
        let mut b = TraceBuilder::new(BLK, 4);
        let mut t = 0;
        record_n(&mut b, &mut t, 0x0000, 2, AccessKind::Write); // input
        record_n(&mut b, &mut t, 0x10_000, 1, AccessKind::Read); // w1
        record_n(&mut b, &mut t, 0x0000, 2, AccessKind::Read);
        record_n(&mut b, &mut t, 0x20_000, 3, AccessKind::Write); // A
        record_n(&mut b, &mut t, 0x30_000, 1, AccessKind::Read); // w2
        record_n(&mut b, &mut t, 0x20_000, 3, AccessKind::Read);
        record_n(&mut b, &mut t, 0x40_000, 3, AccessKind::Write); // B
                                                                  // Merge: read B (RAW boundary), read A (bypass), write C.
        record_n(&mut b, &mut t, 0x40_000, 3, AccessKind::Read);
        record_n(&mut b, &mut t, 0x20_000, 3, AccessKind::Read);
        record_n(&mut b, &mut t, 0x50_000, 3, AccessKind::Write); // C
        let obs = observe(&b.finish());
        assert_eq!(obs.layers.len(), 4, "{:?}", obs.layers);
        let merge = &obs.layers[3];
        assert_eq!(merge.kind, LayerKindHint::Merge);
        assert_eq!(merge.weight_blocks, 0);
        assert_eq!(
            merge.ifm_sources,
            vec![
                IfmSource {
                    producer: 1,
                    blocks: 3
                },
                IfmSource {
                    producer: 2,
                    blocks: 3
                }
            ]
        );
    }

    #[test]
    fn element_bounds_and_matching() {
        let obs = observe(&chain_trace());
        assert_eq!(obs.elems_per_block, 16);
        assert_eq!(obs.element_bounds(3), (32, 48));
        assert!(obs.size_matches(3, 33));
        assert!(obs.size_matches(3, 48));
        assert!(!obs.size_matches(3, 32));
        assert!(!obs.size_matches(3, 49));
        assert_eq!(obs.element_bounds(0), (0, 0));
    }

    #[test]
    fn a_later_writer_takes_over_the_blocks_it_overwrites() {
        // Segment 1 writes A = blocks 0..8; segment 2 overwrites blocks
        // 2..5 of A (plus 8..10); segment 3 reads 0..10.
        let mut b = TraceBuilder::new(BLK, 4);
        let mut t = 0;
        record_n(&mut b, &mut t, 0x10_000, 1, AccessKind::Read); // w1
        record_n(&mut b, &mut t, 0x0000, 8, AccessKind::Write);
        record_n(&mut b, &mut t, 0x0000, 1, AccessKind::Read); // RAW
        record_n(&mut b, &mut t, 2 * BLK, 3, AccessKind::Write);
        record_n(&mut b, &mut t, 8 * BLK, 2, AccessKind::Write);
        record_n(&mut b, &mut t, 0x30_000, 1, AccessKind::Read); // w3
        record_n(&mut b, &mut t, 0x0000, 10, AccessKind::Read);
        let obs = observe(&b.finish());
        assert_eq!(obs.layers.len(), 3, "{:?}", obs.layers);
        assert_eq!(obs.layers[1].ofm_blocks, 5);
        assert_eq!(
            obs.layers[2].ifm_sources,
            vec![
                IfmSource {
                    producer: 0,
                    blocks: 5
                },
                IfmSource {
                    producer: 1,
                    blocks: 5
                }
            ]
        );
    }

    #[test]
    fn producer_runs_split_on_overwrite() {
        let mut runs = ProducerRuns::new(BLK);
        let blocks = |r: std::ops::Range<u64>| r.map(|i| i * BLK).collect::<Vec<_>>();
        runs.commit(&blocks(0..10), 0);
        runs.commit(&blocks(3..5), 1);
        runs.commit(&blocks(8..12), 2);
        let writers: Vec<_> = (0..13).map(|i| runs.writer_of(i * BLK)).collect();
        let (w0, w1, w2) = (Some(0), Some(1), Some(2));
        assert_eq!(
            writers,
            [w0, w0, w0, w1, w1, w0, w0, w0, w2, w2, w2, w2, None]
        );
        // Off-grid addresses never alias a block of the grid.
        assert_eq!(runs.writer_of(BLK + 1), None);
        runs.commit(&[BLK + 1, 2 * BLK + 1], 3);
        assert_eq!(runs.writer_of(2 * BLK + 1), Some(3));
        assert_eq!(runs.writer_of(2 * BLK), w0);
    }

    #[test]
    fn tiled_rereads_count_distinct_blocks_once() {
        let mut b = TraceBuilder::new(BLK, 4);
        let mut t = 0;
        record_n(&mut b, &mut t, 0x0000, 2, AccessKind::Write);
        // Layer reads its weights and input twice (two tiles).
        for _ in 0..2 {
            record_n(&mut b, &mut t, 0x10_000, 3, AccessKind::Read);
            record_n(&mut b, &mut t, 0x0000, 2, AccessKind::Read);
        }
        record_n(&mut b, &mut t, 0x20_000, 1, AccessKind::Write);
        let obs = observe(&b.finish());
        assert_eq!(obs.layers.len(), 2);
        assert_eq!(obs.layers[1].weight_blocks, 3);
        assert_eq!(obs.layers[1].ifm_blocks_total(), 2);
    }
}
