//! Layer-boundary detection from RAW dependencies.
//!
//! This implements step 1 of the paper's Algorithm 1: *"Identify layer
//! boundaries by observing the RAW dependency on FMAPs."*
//!
//! Two adversary-observable signals mark the start of a new layer:
//!
//! 1. **RAW dependency** (the paper's primary signal): a read to an address
//!    that was *written during the current segment*. The OFM written by a
//!    layer is first read back by the layer that consumes it, so this fires
//!    exactly at the consumer's first input fetch.
//! 2. **Fresh read-only region**: a read to a never-written address that
//!    does not belong to any read-only region already touched in the
//!    current segment, after the current segment has produced writes. This
//!    catches the second of two back-to-back layers that share an input
//!    (e.g. the two parallel expand convolutions of a SqueezeNet fire
//!    module, which both read the squeeze output): its weight fetches land
//!    in a fresh region even though its input was already read before.
//!
//! Both signals are pure functions of (address, read/write, time) — exactly
//! the threat model's observables.

use std::collections::BTreeMap;
use std::collections::HashSet; // lint:allow(hash-iter): membership-only sets below
use std::hash::{BuildHasherDefault, Hasher};

use cnnre_obs::{log_debug, Counter};

use crate::{Addr, Cycle, MemoryEvent, Trace};

/// A set of addresses that is only ever probed and filled, never iterated,
/// so its (fixed) hash order cannot reach any output.
// lint:allow(hash-iter): contains/insert/clear only, per-event hot path
type AddrSet = HashSet<Addr, BuildHasherDefault<AddrHasher>>;

/// Fixed-key hasher for `u64` addresses: one folded 64×64→128-bit
/// multiply. Addresses are block multiples, so their low bits are all
/// zero; folding the product's high half into its low half spreads every
/// input bit over the bucket-index bits. Much cheaper per event than the
/// default SipHash, and deterministic across processes.
#[derive(Debug, Default, Clone, Copy)]
struct AddrHasher(u64);

impl AddrHasher {
    const KEY: u64 = 0x9E37_79B9_7F4A_7C15;

    fn mix(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(Self::KEY);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached by non-`u64` keys, which these sets never hold.
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }
}

/// A contiguous run of trace events attributed to one accelerator layer
/// (or to the host's input staging, for the first segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index of the first event of the segment.
    pub first_event: usize,
    /// One past the index of the last event.
    pub end_event: usize,
    /// Cycle stamp of the first event.
    pub start_cycle: Cycle,
    /// Cycle stamp of the last event.
    pub end_cycle: Cycle,
}

impl Segment {
    /// Number of events in the segment.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.end_event - self.first_event
    }

    /// Returns `true` for an empty segment (never produced by
    /// [`segment_trace`]).
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.first_event == self.end_event
    }

    /// Execution cycles spanned by the segment.
    #[must_use]
    pub const fn cycles(&self) -> Cycle {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// Tuning knobs for segmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Two read-only addresses within `slack_bytes` of an existing region's
    /// extent are considered part of that region. Defaults to the trace's
    /// block size; must be smaller than the DRAM allocator's inter-region
    /// guard gap.
    pub slack_bytes: u64,
}

impl SegmentConfig {
    /// Default configuration for a given trace (slack = one block).
    #[must_use]
    pub fn for_trace(trace: &Trace) -> Self {
        Self {
            slack_bytes: trace.block_bytes(),
        }
    }
}

/// Disjoint read-only interval set with slack-based clustering.
#[derive(Debug, Default)]
pub(crate) struct IntervalSet {
    /// Map from interval start to inclusive interval end.
    intervals: BTreeMap<Addr, Addr>,
}

impl IntervalSet {
    pub(crate) fn clear(&mut self) {
        self.intervals.clear();
    }

    /// Returns `true` when `addr` lies within `slack` of an existing
    /// interval (and extends that interval); `false` when a new interval had
    /// to be created.
    pub(crate) fn insert(&mut self, addr: Addr, block: u64, slack: u64) -> bool {
        // Predecessor interval: the last interval starting at or before addr.
        let pred = self
            .intervals
            .range(..=addr)
            .next_back()
            .map(|(&lo, &hi)| (lo, hi));
        if let Some((lo, hi)) = pred {
            if addr <= hi.saturating_add(slack) {
                let new_hi = hi.max(addr.saturating_add(block - 1));
                self.intervals.insert(lo, new_hi);
                self.merge_forward(lo, slack);
                return true;
            }
        }
        // Successor interval: the first interval starting after addr.
        let succ = self
            .intervals
            .range(addr..)
            .next()
            .map(|(&lo, &hi)| (lo, hi));
        if let Some((lo, hi)) = succ {
            if lo <= addr.saturating_add(block - 1).saturating_add(slack) {
                self.intervals.remove(&lo);
                self.intervals
                    .insert(addr, hi.max(addr.saturating_add(block - 1)));
                return true;
            }
        }
        self.intervals.insert(addr, addr.saturating_add(block - 1));
        false
    }

    /// Merges the interval starting at `lo` with any successors it now
    /// overlaps (within slack).
    fn merge_forward(&mut self, lo: Addr, slack: u64) {
        loop {
            let hi = self.intervals[&lo];
            let next = self.intervals.range(lo + 1..).next().map(|(&l, &h)| (l, h));
            match next {
                Some((nl, nh)) if nl <= hi.saturating_add(slack) => {
                    self.intervals.remove(&nl);
                    self.intervals.insert(lo, hi.max(nh));
                }
                _ => break,
            }
        }
    }
}

/// Splits a trace into per-layer segments.
///
/// The first segment is typically the host staging the (adversary-known)
/// input feature map into DRAM — all writes, no reads.
///
/// # Example
///
/// ```
/// use cnnre_trace::{AccessKind, TraceBuilder};
/// use cnnre_trace::segment::segment_trace;
///
/// let mut b = TraceBuilder::new(64, 4);
/// // Host stages the input (writes), layer 1 reads it back and writes
/// // its output, layer 2 reads layer 1's output (a RAW dependency — the
/// // boundary signal).
/// b.record(0, 0, AccessKind::Write);
/// b.record(10, 0, AccessKind::Read);
/// b.record(11, 4096, AccessKind::Write);
/// b.record(20, 4096, AccessKind::Read); // RAW: new segment starts here
/// b.record(21, 8192, AccessKind::Write);
/// let segments = segment_trace(&b.finish());
/// assert_eq!(segments.len(), 3); // prologue + two layers
/// assert_eq!(segments[2].start_cycle, 20);
/// ```
#[must_use]
pub fn segment_trace(trace: &Trace) -> Vec<Segment> {
    segment_trace_with(trace, SegmentConfig::for_trace(trace))
}

/// [`segment_trace`] with explicit configuration.
///
/// With the `audit-hooks` feature enabled (the workspace turns it on for
/// test builds), every returned segmentation is re-checked against the
/// structural invariants in [`crate::audit`] and the call panics on any
/// violation — a sanitizer for the segmenter itself and for callers that
/// feed it corrupted traces.
#[must_use]
pub fn segment_trace_with(trace: &Trace, config: SegmentConfig) -> Vec<Segment> {
    let mut span = cnnre_obs::span("trace.segment");
    span.add_cycles(trace.duration());
    let mut segmenter = StreamingSegmenter::new(trace.block_bytes(), config);
    let mut segments: Vec<Segment> = trace
        .events()
        .iter()
        .filter_map(|ev| segmenter.push(*ev))
        .collect();
    segments.extend(segmenter.finish());
    #[cfg(feature = "audit-hooks")]
    crate::audit::assert_well_formed(trace, &segments);
    segments
}

/// Incremental layer-boundary detection — the same algorithm as
/// [`segment_trace`] but consuming one event at a time, so traces larger
/// than memory (or arriving live from a bus probe) can be segmented
/// without materializing a [`Trace`].
///
/// # Example
///
/// ```
/// use cnnre_trace::{AccessKind, MemoryEvent, Trace};
/// use cnnre_trace::segment::{SegmentConfig, StreamingSegmenter};
///
/// let mut seg = StreamingSegmenter::new(64, SegmentConfig { slack_bytes: 64 });
/// let ev = |cycle, addr, kind| MemoryEvent { cycle, addr, kind };
/// assert!(seg.push(ev(0, 0, AccessKind::Write)).is_none());
/// // A read of an address written in the current segment closes it:
/// let first = seg.push(ev(10, 0, AccessKind::Read)).expect("boundary");
/// assert_eq!(first.first_event, 0);
/// assert_eq!(first.end_event, 1);
/// let last = seg.finish().expect("trailing segment");
/// assert_eq!(last.end_event, 2);
/// ```
#[derive(Debug)]
pub struct StreamingSegmenter {
    block: u64,
    slack: u64,
    global_written: AddrSet,
    written_this: AddrSet,
    ro_regions: IntervalSet,
    has_write: bool,
    index: usize,
    seg_start: usize,
    seg_start_cycle: Cycle,
    prev_cycle: Cycle,
    boundaries: u64,
    obs: SegmenterObs,
}

/// Hoisted metric handles for the segmenter's hot path.
#[derive(Debug)]
struct SegmenterObs {
    events: Counter,
    raw_accepted: Counter,
    fresh_accepted: Counter,
    rejected: Counter,
}

impl SegmenterObs {
    fn new() -> Self {
        let reg = cnnre_obs::global();
        Self {
            events: reg.counter("trace.segment.events"),
            raw_accepted: reg.counter("trace.segment.raw_boundaries_accepted"),
            fresh_accepted: reg.counter("trace.segment.fresh_region_boundaries_accepted"),
            rejected: reg.counter("trace.segment.boundaries_rejected"),
        }
    }
}

impl StreamingSegmenter {
    /// Creates a segmenter for events at the given block granularity.
    #[must_use]
    pub fn new(block_bytes: u64, config: SegmentConfig) -> Self {
        Self {
            block: block_bytes,
            slack: config.slack_bytes,
            global_written: AddrSet::default(),
            written_this: AddrSet::default(),
            ro_regions: IntervalSet::default(),
            has_write: false,
            index: 0,
            seg_start: 0,
            seg_start_cycle: 0,
            prev_cycle: 0,
            boundaries: 0,
            obs: SegmenterObs::new(),
        }
    }

    /// Number of events consumed so far.
    #[must_use]
    pub const fn events_seen(&self) -> usize {
        self.index
    }

    /// Feeds the next event (events must arrive in time order). Returns
    /// the just-*completed* segment when this event opens a new one.
    pub fn push(&mut self, ev: MemoryEvent) -> Option<Segment> {
        self.obs.events.inc();
        let mut completed = None;
        let mut boundary = false;
        let mut raw_signal = false;
        if ev.kind.is_read() {
            if self.written_this.contains(&ev.addr) {
                boundary = true; // RAW on an address produced by this segment
                raw_signal = true;
            } else if !self.global_written.contains(&ev.addr) {
                // Probe without committing: would this start a fresh RO
                // region? (Committed below after any boundary handling.)
                let fresh = !ro_region_contains(&self.ro_regions, ev.addr, self.block, self.slack);
                if fresh && self.has_write {
                    boundary = true;
                }
            }
        }
        if boundary && self.index > self.seg_start {
            if raw_signal {
                self.obs.raw_accepted.inc();
            } else {
                self.obs.fresh_accepted.inc();
            }
            log_debug!(
                "trace.segment",
                "boundary at event {} cycle {} ({})",
                self.index,
                ev.cycle,
                if raw_signal { "RAW" } else { "fresh region" }
            );
            if cnnre_obs::stream::enabled() {
                cnnre_obs::stream::emit_at(
                    ev.cycle,
                    cnnre_obs::stream::EventPayload::LayerBoundary {
                        index: self.boundaries,
                        signal: if raw_signal {
                            cnnre_obs::stream::BoundarySignal::Raw
                        } else {
                            cnnre_obs::stream::BoundarySignal::FreshRegion
                        },
                    },
                );
            }
            self.boundaries += 1;
            completed = Some(Segment {
                first_event: self.seg_start,
                end_event: self.index,
                start_cycle: self.seg_start_cycle,
                end_cycle: self.prev_cycle,
            });
            self.seg_start = self.index;
            self.written_this.clear();
            self.ro_regions.clear();
            self.has_write = false;
        } else if boundary {
            // A boundary signal on the very first event of a segment
            // carries no information — suppressed.
            self.obs.rejected.inc();
        }
        if self.index == self.seg_start {
            self.seg_start_cycle = ev.cycle;
        }
        // Apply the event to the (possibly fresh) segment state.
        if ev.kind.is_write() {
            self.global_written.insert(ev.addr);
            self.written_this.insert(ev.addr);
            self.has_write = true;
        } else if !self.global_written.contains(&ev.addr) {
            let _ = self.ro_regions.insert(ev.addr, self.block, self.slack);
        }
        self.prev_cycle = ev.cycle;
        self.index += 1;
        completed
    }

    /// Closes the stream, returning the trailing segment (if any events
    /// arrived since the last boundary).
    #[must_use]
    pub fn finish(self) -> Option<Segment> {
        (self.index > self.seg_start).then_some(Segment {
            first_event: self.seg_start,
            end_event: self.index,
            start_cycle: self.seg_start_cycle,
            end_cycle: self.prev_cycle,
        })
    }
}

pub(crate) fn ro_region_contains(set: &IntervalSet, addr: Addr, block: u64, slack: u64) -> bool {
    if let Some((_, &hi)) = set.intervals.range(..=addr).next_back() {
        if addr <= hi.saturating_add(slack) {
            return true;
        }
    }
    if let Some((&lo, _)) = set.intervals.range(addr..).next() {
        if lo <= addr.saturating_add(block - 1).saturating_add(slack) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, TraceBuilder};

    const BLK: u64 = 64;

    /// Builds a synthetic two-conv-layer trace:
    /// host writes input; layer 1 reads weights@W1 + input, writes OFM1;
    /// layer 2 reads weights@W2 + OFM1, writes OFM2.
    fn two_layer_trace() -> Trace {
        let mut b = TraceBuilder::new(BLK, 4);
        let input = 0u64;
        let w1 = 0x10_000u64;
        let ofm1 = 0x20_000u64;
        let w2 = 0x30_000u64;
        let ofm2 = 0x40_000u64;
        let mut t = 0u64;
        // Host stages the input (4 blocks).
        for i in 0..4 {
            b.record(t, input + i * BLK, AccessKind::Write);
            t += 1;
        }
        // Layer 1: weights first, then input, then output.
        for i in 0..3 {
            b.record(t, w1 + i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..4 {
            b.record(t, input + i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..4 {
            b.record(t, ofm1 + i * BLK, AccessKind::Write);
            t += 1;
        }
        // Layer 2.
        for i in 0..2 {
            b.record(t, w2 + i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..4 {
            b.record(t, ofm1 + i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..2 {
            b.record(t, ofm2 + i * BLK, AccessKind::Write);
            t += 1;
        }
        b.finish()
    }

    #[test]
    fn two_layers_plus_prologue() {
        let trace = two_layer_trace();
        let segs = segment_trace(&trace);
        assert_eq!(segs.len(), 3, "{segs:?}");
        // Prologue: the 4 host writes.
        assert_eq!(segs[0].len(), 4);
        // Layer 1: 3 + 4 + 4 events.
        assert_eq!(segs[1].len(), 11);
        // Layer 2: 2 + 4 + 2 events.
        assert_eq!(segs[2].len(), 8);
        // Segments tile the trace.
        assert_eq!(segs[0].end_event, segs[1].first_event);
        assert_eq!(segs[2].end_event, trace.len());
    }

    #[test]
    fn raw_within_segment_triggers_boundary() {
        // write X, read X -> two segments split exactly at the read.
        let mut b = TraceBuilder::new(BLK, 4);
        b.record(0, 0, AccessKind::Write);
        b.record(1, 0, AccessKind::Read);
        let segs = segment_trace(&b.finish());
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len(), 1);
        assert_eq!(segs[1].len(), 1);
    }

    #[test]
    fn rereads_do_not_split_a_layer() {
        // One layer tiling over its input: repeated reads of the same
        // regions interleaved with writes must stay one segment.
        let mut b = TraceBuilder::new(BLK, 4);
        let w = 0x1000u64;
        let x = 0x8000u64;
        let y = 0x10_000u64;
        b.record(0, x, AccessKind::Write); // host stages 1-block input
        let mut t = 1;
        for tile in 0..3u64 {
            b.record(t, w, AccessKind::Read);
            t += 1;
            b.record(t, x, AccessKind::Read);
            t += 1;
            b.record(t, y + tile * BLK, AccessKind::Write);
            t += 1;
        }
        let segs = segment_trace(&b.finish());
        assert_eq!(segs.len(), 2, "{segs:?}"); // prologue + one layer
        assert_eq!(segs[1].len(), 9);
    }

    #[test]
    fn parallel_branch_layers_split_on_fresh_weight_region() {
        // Fire-module expand pattern: both branches read the same input
        // region; the second branch is only distinguishable by its fresh
        // weight region.
        let mut b = TraceBuilder::new(BLK, 4);
        let sq_ofm = 0x1000u64; // written by the squeeze layer
        let wa = 0x8000u64;
        let wb = 0x10_000u64;
        let ofm_a = 0x18_000u64;
        let ofm_b = 0x20_000u64;
        let mut t = 0;
        b.record(t, sq_ofm, AccessKind::Write); // stand-in for squeeze output
        t += 1;
        // Branch A: weights, input, output.
        for &(addr, kind) in &[
            (wa, AccessKind::Read),
            (sq_ofm, AccessKind::Read),
            (ofm_a, AccessKind::Write),
        ] {
            b.record(t, addr, kind);
            t += 1;
        }
        // Branch B: fresh weights although input was read before.
        for &(addr, kind) in &[
            (wb, AccessKind::Read),
            (sq_ofm, AccessKind::Read),
            (ofm_b, AccessKind::Write),
        ] {
            b.record(t, addr, kind);
            t += 1;
        }
        let segs = segment_trace(&b.finish());
        assert_eq!(segs.len(), 3, "{segs:?}");
        assert_eq!(segs[1].len(), 3);
        assert_eq!(segs[2].len(), 3);
    }

    #[test]
    fn interval_set_clusters_with_slack() {
        let mut s = IntervalSet::default();
        assert!(!s.insert(0, 64, 64)); // new region [0,63]
        assert!(s.insert(64, 64, 64)); // adjacent -> [0,127]
        assert!(s.insert(191, 64, 64)); // within slack -> [0,254]
        assert!(!s.insert(1024, 64, 64)); // far away -> new region
        assert_eq!(s.intervals.len(), 2);
        // A block just before an existing region extends it backwards.
        assert!(s.insert(960, 64, 64));
        assert_eq!(s.intervals.len(), 2);
        // Bridging block merges the two regions (960-254 gap closed stepwise).
        for addr in [256u64, 320, 384, 448, 512, 576, 640, 704, 768, 832, 896] {
            assert!(s.insert(addr, 64, 64), "addr {addr}");
        }
        assert_eq!(s.intervals.len(), 1);
    }

    #[test]
    fn empty_trace_yields_no_segments() {
        let t = TraceBuilder::new(BLK, 4).finish();
        assert!(segment_trace(&t).is_empty());
    }
}
