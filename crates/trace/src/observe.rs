//! Per-layer observations extracted from a segmented trace.
//!
//! This is step 2 of the paper's Algorithm 1: *"Record the execution time of
//! each layer and calculate `SIZE_IFM`, `SIZE_OFM`, and `SIZE_FLTR` based on
//! the memory access pattern"* — plus the inter-layer connection structure
//! (which earlier layer's output each layer consumes), which reveals fire
//! modules and bypass paths.
//!
//! [`observe`] makes one pass over the trace's runs (DMA bursts, as the
//! bus carries them): it drives the [`StreamingSegmenter`], which tallies
//! each segment as its runs arrive. A read's writer stamp names the
//! segment that last wrote the address, so classification keeps no
//! last-writer map; read stamps pick out each segment's first read of an
//! address, so a segment's footprints are counters that never grow with
//! its length. Both are stamp pages walked a page at a time, not looked up
//! per event.
//!
//! [`StreamingSegmenter`]: crate::segment::StreamingSegmenter

use std::collections::BTreeMap;

use crate::segment::{Segment, SegmentConfig};
use crate::{Cycle, Trace};

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
}

/// Segments a trace and extracts per-layer observations.
///
/// One pass over the trace's runs drives a [`StreamingSegmenter`], which
/// tallies each segment's footprints as its runs arrive.
///
/// [`StreamingSegmenter`]: crate::segment::StreamingSegmenter
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
///
/// [`segment_trace_with`] runs the same driver, so the pass runs under the
/// same `trace.segment` span and is checked by the same `audit-hooks`
/// assertion.
///
/// [`segment_trace_with`]: crate::segment::segment_trace_with
#[must_use]
pub fn observe_with(trace: &Trace, config: SegmentConfig) -> TraceObservations {
    let mut layers = crate::segment::drive(trace, config);

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
        // A layer's cycles are final only once the next layer starts, so
        // every SegmentClassified event goes out after the pass, stamped at
        // the trace's end cycle — after all LayerBoundary events, keeping
        // the stream monotone.
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

/// A segment's footprints, counted as the segmenter feeds its runs: each
/// is a count of first accesses, so closing a segment sorts nothing.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Distinct addresses written.
    pub(crate) ofm_blocks: u64,
    /// Distinct never-written addresses read.
    pub(crate) weight_blocks: u64,
    /// Distinct feature-map addresses read, by producing segment.
    ifm_blocks: BTreeMap<usize, u64>,
    /// The writer stamp of the latest first feature-map reads and their
    /// count, not yet in `ifm_blocks`: a run of reads streams through one
    /// producer's output, so it updates the map once.
    pending: (u32, u64),
}

impl Tally {
    /// Counts a first read of an address whose writer stamp is `writer`
    /// (not 0). Inside one segment every read of an address sees the same
    /// writer, so its first read classifies it.
    #[inline]
    pub(crate) fn ifm_read(&mut self, writer: u32) {
        if self.pending.0 != writer {
            self.flush();
            self.pending.0 = writer;
        }
        self.pending.1 += 1;
    }

    /// Adds the pending feature-map reads to `ifm_blocks`.
    fn flush(&mut self) {
        let (writer, blocks) = std::mem::take(&mut self.pending);
        if blocks > 0 {
            *self.ifm_blocks.entry(writer as usize - 1).or_default() += blocks;
        }
    }

    /// Classifies the completed segment `seg` (ordinal `index`) and resets
    /// the tally for the next one.
    pub(crate) fn close(&mut self, index: usize, seg: Segment) -> LayerObservation {
        self.flush();
        let ofm_blocks = std::mem::take(&mut self.ofm_blocks);
        let weight_blocks = std::mem::take(&mut self.weight_blocks);
        let ifm_sources: Vec<IfmSource> = std::mem::take(&mut self.ifm_blocks)
            .into_iter()
            .map(|(producer, blocks)| IfmSource { producer, blocks })
            .collect();

        let has_ifm = !ifm_sources.is_empty();
        let kind = if ofm_blocks == 0 && weight_blocks == 0 && !has_ifm {
            LayerKindHint::Other
        } else if weight_blocks == 0 && !has_ifm {
            LayerKindHint::Prologue
        } else if weight_blocks > 0 {
            LayerKindHint::Compute
        } else if ofm_blocks > 0 {
            LayerKindHint::Merge
        } else {
            LayerKindHint::Other
        };
        LayerObservation {
            index,
            segment: seg,
            kind,
            ofm_blocks,
            weight_blocks,
            ifm_sources,
            cycles: seg.cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::StreamingSegmenter;
    use crate::stamps::StampTable;
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

    /// The worst case of DESIGN §5: a scattered trace whose every event
    /// names a stamp page of its own (so every run is one event) costs the
    /// two stamp tables at most `BYTES_PER_PAGE_BOUND` per event.
    #[test]
    fn stamp_tables_stay_within_their_bound_on_scattered_traces() {
        let events = 4096u64;
        let page_bytes = BLK * crate::stamps::SLOTS;
        let mut b = TraceBuilder::new(BLK, 4);
        for i in 0..events {
            let page = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (u64::MAX / page_bytes);
            let kind = if i % 2 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            b.record(i, page * page_bytes, kind);
        }
        let trace = b.finish();
        let mut segmenter = StreamingSegmenter::new(BLK, SegmentConfig::for_trace(&trace));
        for run in trace.runs() {
            let _ = segmenter.feed(run);
        }
        let (writers, reads) = segmenter.tables();
        assert_eq!((writers.pages() + reads.pages()) as u64, events);
        let bytes = writers.heap_bytes() + reads.heap_bytes();
        let bound = events as usize * StampTable::BYTES_PER_PAGE_BOUND;
        assert!(
            bytes <= bound,
            "{bytes} B for {events} events, bound {bound} B"
        );
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
