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
//!
//! The segmenter keeps writer stamps (`crate::stamps`): for each written
//! address, the ordinal + 1 of the segment that last wrote it. A read whose
//! stamp is the current segment's is a RAW signal; a read with no stamp is
//! a weight fetch and goes into the current segment's read-only
//! `IntervalSet`, whose insert also answers the fresh-region probe. It
//! works a run at a time (a DMA burst: consecutive blocks of one kind), a
//! stamp page at a time within the run, and tallies each segment's
//! footprints as it goes, so [`crate::observe`] and [`segment_trace`] are
//! one driver.

use std::collections::BTreeMap;

use cnnre_obs::log_debug;
use cnnre_obs::stream::BoundarySignal;

use crate::event::Run;
use crate::observe::{LayerObservation, Tally};
use crate::stamps::{stamp_of, StampTable};
use crate::{Addr, Cycle, MemoryEvent, Trace};

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
///
/// Invariant: consecutive intervals are always more than `slack` apart
/// (`next.lo > hi + slack`). Creating an interval requires it, and
/// `merge_forward` restores it after an interval grows. So an address within
/// `slack` of an interval's end lies before the next interval's start, and
/// the interval the last insert landed in can be held in a cursor: an insert
/// that extends it without reaching the next interval touches no tree node.
#[derive(Debug, Default)]
pub(crate) struct IntervalSet {
    /// Map from interval start to inclusive interval end. The entry of the
    /// cursor's interval may hold a stale end until the cursor is written
    /// back.
    intervals: BTreeMap<Addr, Addr>,
    cursor: Option<Cursor>,
}

/// The interval the last insert landed in, with its authoritative end.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    lo: Addr,
    hi: Addr,
    /// Start of the next interval, if any.
    next: Option<Addr>,
}

impl IntervalSet {
    pub(crate) fn clear(&mut self) {
        self.intervals.clear();
        self.cursor = None;
    }

    /// Returns `true` when `addr` lies within `slack` of an existing
    /// interval (and extends that interval); `false` when a new interval had
    /// to be created.
    pub(crate) fn insert(&mut self, addr: Addr, block: u64, slack: u64) -> bool {
        if let Some(c) = &mut self.cursor {
            if c.lo <= addr && addr <= c.hi.saturating_add(slack) {
                let hi = c.hi.max(addr.saturating_add(block - 1));
                if c.next.is_none_or(|n| n > hi.saturating_add(slack)) {
                    c.hi = hi;
                    return true;
                }
            }
            self.intervals.insert(c.lo, c.hi);
        }
        let (landed, extended) = self.insert_slow(addr, block, slack);
        self.land(landed);
        extended
    }

    /// Extends the interval the last insert landed in to end at `hi` or
    /// later, merging the intervals it now reaches. When the blocks up to
    /// `hi` continue that insert's block without a gap and `slack >= 1`,
    /// this is the set that inserting each of them would give, and each of
    /// those inserts would have returned `true`.
    pub(crate) fn extend(&mut self, hi: Addr, slack: u64) {
        debug_assert!(self.cursor.is_some(), "extend follows an insert");
        let Some(c) = &mut self.cursor else { return };
        let hi = c.hi.max(hi);
        if c.next.is_none_or(|n| n > hi.saturating_add(slack)) {
            c.hi = hi;
            return;
        }
        let lo = c.lo;
        self.intervals.insert(lo, hi);
        self.merge_forward(lo, slack);
        self.land(lo);
    }

    /// Points the cursor at the interval starting at `lo`.
    fn land(&mut self, lo: Addr) {
        self.cursor = Some(Cursor {
            lo,
            hi: self.intervals[&lo],
            next: self.intervals.range(lo..).nth(1).map(|(&l, _)| l),
        });
    }

    /// The tree path of [`Self::insert`]: returns the start of the interval
    /// `addr` landed in, and whether that interval already existed.
    fn insert_slow(&mut self, addr: Addr, block: u64, slack: u64) -> (Addr, bool) {
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
                return (lo, true);
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
                return (addr, true);
            }
        }
        self.intervals.insert(addr, addr.saturating_add(block - 1));
        (addr, false)
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

/// [`segment_trace`] with explicit configuration: the segments of
/// [`crate::observe::observe_with`]'s layers, from the same driver.
///
/// With the `audit-hooks` feature enabled (the workspace turns it on for
/// test builds), every returned segmentation is re-checked against the
/// structural invariants in [`crate::audit`] and the call panics on any
/// violation — a sanitizer for the segmenter itself and for callers that
/// feed it corrupted traces.
#[must_use]
pub fn segment_trace_with(trace: &Trace, config: SegmentConfig) -> Vec<Segment> {
    drive(trace, config)
        .into_iter()
        .map(|l| l.segment)
        .collect()
}

/// The one driver behind [`segment_trace_with`] and `observe_with`: feeds
/// the trace's runs to a [`StreamingSegmenter`] under the `trace.segment`
/// span and returns each segment's observation, its cycles still the
/// segment's own.
pub(crate) fn drive(trace: &Trace, config: SegmentConfig) -> Vec<LayerObservation> {
    let mut span = cnnre_obs::span("trace.segment");
    span.add_cycles(trace.duration());
    let mut segmenter = StreamingSegmenter::new(trace.block_bytes(), config);
    let mut layers: Vec<LayerObservation> = (trace.runs().iter())
        .filter_map(|run| segmenter.feed(run))
        .collect();
    layers.extend(segmenter.finish_layer());
    #[cfg(feature = "audit-hooks")]
    crate::audit::assert_well_formed(trace, &layers.iter().map(|l| l.segment).collect::<Vec<_>>());
    layers
}

/// Incremental layer-boundary detection — the same algorithm as
/// [`segment_trace`] but consuming one event at a time, so traces larger
/// than memory (or arriving live from a bus probe) can be segmented
/// without materializing a [`Trace`].
///
/// It is the batch driver too: [`segment_trace`] and
/// [`crate::observe::observe`] feed it a trace's runs whole, and
/// [`Self::push`] feeds it a run of one event.
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
    /// Writer stamps: the stamp of the segment that last wrote each address.
    writers: StampTable,
    /// Read stamps: the stamp of the segment that last read each address.
    reads: StampTable,
    state: State,
}

/// The segmenter's state beside its stamp tables, apart so that a page
/// walk can hold both tables' pages while it closes a segment.
#[derive(Debug)]
struct State {
    block: u64,
    slack: u64,
    ro_regions: IntervalSet,
    has_write: bool,
    /// Ordinal of the current segment: the number of accepted boundaries.
    ordinal: usize,
    /// The current segment's stamp, `stamp_of(ordinal)`.
    stamp: u32,
    /// How many of the accepted boundaries were RAW; the rest were fresh
    /// read-only regions.
    raw_accepted: u64,
    /// The current segment's footprints so far.
    tally: Tally,
    index: usize,
    seg_start: usize,
    seg_start_cycle: Cycle,
    prev_cycle: Cycle,
}

impl StreamingSegmenter {
    /// Creates a segmenter for events at the given block granularity.
    #[must_use]
    pub fn new(block_bytes: u64, config: SegmentConfig) -> Self {
        Self {
            writers: StampTable::new(block_bytes),
            reads: StampTable::new(block_bytes),
            state: State {
                block: block_bytes,
                slack: config.slack_bytes,
                ro_regions: IntervalSet::default(),
                has_write: false,
                ordinal: 0,
                stamp: stamp_of(0),
                raw_accepted: 0,
                tally: Tally::default(),
                index: 0,
                seg_start: 0,
                seg_start_cycle: 0,
                prev_cycle: 0,
            },
        }
    }

    /// Number of events consumed so far.
    #[must_use]
    pub const fn events_seen(&self) -> usize {
        self.state.index
    }

    /// The writer and read stamps.
    #[cfg(test)]
    pub(crate) const fn tables(&self) -> (&StampTable, &StampTable) {
        (&self.writers, &self.reads)
    }

    /// Feeds the next event (events must arrive in time order). Returns
    /// the just-*completed* segment when this event opens a new one.
    pub fn push(&mut self, ev: MemoryEvent) -> Option<Segment> {
        self.feed(&Run::single(ev)).map(|l| l.segment)
    }

    /// Feeds the next run of events, returning the observation of the
    /// segment it completes, if any. A run of writes completes none; a run
    /// of reads at most one (see `State::read_run`).
    pub(crate) fn feed(&mut self, run: &Run) -> Option<LayerObservation> {
        let st = &mut self.state;
        if st.index == st.seg_start {
            st.seg_start_cycle = run.cycle;
        }
        let len = u64::from(run.len());
        let closed = if run.kind().is_write() {
            st.has_write = true;
            st.tally.ofm_blocks += self.writers.store(run.addr, len, st.stamp);
            None
        } else {
            st.read_run(&mut self.writers, &mut self.reads, run)
        };
        st.index += run.len() as usize;
        st.prev_cycle = run.last_cycle();
        closed
    }

    /// Closes the stream, returning the trailing segment (if any events
    /// arrived since the last boundary). The stream's tallies reach the
    /// registry here, once, and only while observability is on.
    #[must_use]
    pub fn finish(self) -> Option<Segment> {
        self.finish_layer().map(|l| l.segment)
    }

    /// [`Self::finish`], returning the trailing segment's observation.
    pub(crate) fn finish_layer(mut self) -> Option<LayerObservation> {
        let st = &mut self.state;
        if cnnre_obs::enabled() {
            let reg = cnnre_obs::global();
            reg.counter("trace.segment.events").add(st.index as u64);
            reg.counter("trace.segment.raw_boundaries_accepted")
                .add(st.raw_accepted);
            reg.counter("trace.segment.fresh_region_boundaries_accepted")
                .add(st.ordinal as u64 - st.raw_accepted);
        }
        let trailing = st.current(st.index, st.prev_cycle);
        (st.index > st.seg_start).then(|| st.tally.close(st.ordinal, trailing))
    }
}

impl State {
    /// Feeds a run of reads, walking the writer and read stamps a page at a
    /// time. The first read whose writer stamp is the current segment's is
    /// a RAW boundary; a never-written read outside the current read-only
    /// regions, after a write, is a fresh-region boundary. Either way the
    /// new segment has no write yet, so nothing carries its stamp and no
    /// region is fresh: a run holds at most one boundary, and the rest of
    /// it is only tallied.
    ///
    /// With `slack >= 1`, a stretch of consecutive never-written reads is
    /// one `IntervalSet` insert (the only one that can find a fresh region:
    /// each later block is within slack of the one before) and one
    /// extension. At slack 0 each is an insert of its own.
    fn read_run(
        &mut self,
        writers: &mut StampTable,
        reads: &mut StampTable,
        run: &Run,
    ) -> Option<LayerObservation> {
        let mut closed = None;
        let (mut k, mut addr) = (0u32, run.addr);
        // The last address of the stretch of never-written reads whose
        // first address the last insert took (never set at slack 0).
        let mut stretch: Option<Addr> = None;
        writers.walk_with(reads, run.addr, u64::from(run.len()), |writer, read| {
            for (&w, r) in writer.iter().zip(read) {
                let signal = if w != 0 {
                    if let Some(last) = stretch.take() {
                        self.extend_regions(last);
                    }
                    (w == self.stamp).then_some(BoundarySignal::Raw)
                } else if self.slack > 0 && stretch.replace(addr).is_some() {
                    None
                } else {
                    let known = self.ro_regions.insert(addr, self.block, self.slack);
                    (!known && self.has_write).then_some(BoundarySignal::FreshRegion)
                };
                if let Some(signal) = signal {
                    closed = Some(self.close(run, k, addr, signal));
                }
                // The read belongs to the segment it lands in: the new one
                // at a boundary.
                if *r != self.stamp {
                    *r = self.stamp;
                    match w {
                        0 => self.tally.weight_blocks += 1,
                        w => self.tally.ifm_read(w),
                    }
                }
                k += 1;
                // Wraps only after a run's last block.
                addr = addr.wrapping_add(self.block);
            }
        });
        if let Some(last) = stretch {
            self.extend_regions(last);
        }
        closed
    }

    /// Extends the read-only region the last insert landed in over the
    /// stretch of blocks up to `last`.
    fn extend_regions(&mut self, last: Addr) {
        self.ro_regions
            .extend(last.saturating_add(self.block - 1), self.slack);
    }

    /// Accepts a boundary at `run`'s `k`th event, at `addr`: reports it and
    /// returns the completed segment's observation, leaving the state of a
    /// fresh segment that the event opens.
    fn close(&mut self, run: &Run, k: u32, addr: Addr, signal: BoundarySignal) -> LayerObservation {
        let (index, cycle) = (self.index + k as usize, run.cycle_at(k));
        let end_cycle = k
            .checked_sub(1)
            .map_or(self.prev_cycle, |j| run.cycle_at(j));
        // A RAW signal reads a stamp this segment wrote, and a fresh region
        // needs a write in it, so the segment already holds an event.
        debug_assert!(
            index > self.seg_start,
            "boundary on a segment's first event"
        );
        let raw = signal == BoundarySignal::Raw;
        self.raw_accepted += u64::from(raw);
        log_debug!(
            "trace.segment",
            "boundary at event {} cycle {} ({})",
            index,
            cycle,
            if raw { "RAW" } else { "fresh region" }
        );
        if cnnre_obs::stream::enabled() {
            cnnre_obs::stream::emit_at(
                cycle,
                cnnre_obs::stream::EventPayload::LayerBoundary {
                    index: self.ordinal as u64,
                    signal,
                },
            );
        }
        let layer = self
            .tally
            .close(self.ordinal, self.current(index, end_cycle));
        self.ordinal += 1;
        self.stamp = stamp_of(self.ordinal);
        self.seg_start = index;
        self.seg_start_cycle = cycle;
        self.ro_regions.clear();
        if !raw {
            // The fresh region's first block opens the new segment's set.
            let _ = self.ro_regions.insert(addr, self.block, self.slack);
        }
        self.has_write = false;
        layer
    }

    /// The current segment, ending before event `end_event` and at
    /// `end_cycle`.
    const fn current(&self, end_event: usize, end_cycle: Cycle) -> Segment {
        Segment {
            first_event: self.seg_start,
            end_event,
            start_cycle: self.seg_start_cycle,
            end_cycle,
        }
    }
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

        // The cursor: extend it, insert backwards, then bridge regions.
        // A = [0,63], C = [512,575], then B = [256,319] in the cursor.
        let mut s = IntervalSet::default();
        assert!(!s.insert(0, 64, 64));
        assert!(!s.insert(512, 64, 64));
        assert!(!s.insert(256, 64, 64));
        // Extending B short of C's reach touches no tree node: B grows to
        // [256,383], then [256,447].
        assert!(s.insert(320, 64, 64));
        assert!(s.insert(384, 64, 64));
        // Backwards inserts grow B's start towards A: [192,447], [128,447].
        assert!(s.insert(192, 64, 64));
        assert!(s.insert(128, 64, 64));
        assert_eq!(s.intervals.len(), 3);
        // Extending A bridges it to B.
        assert!(s.insert(64, 64, 64)); // [0,447]
        assert_eq!(s.intervals.len(), 2);
        // Extending the cursor into C's reach merges them.
        assert!(s.insert(448, 64, 64)); // [0,575]
        assert_eq!(s.intervals.len(), 1);
        assert!(s.insert(600, 64, 64)); // [0,663], in the cursor only
        assert!(!s.insert(1024, 64, 64)); // writes [0,663] back
        assert!(s.insert(700, 64, 64)); // within slack of the written-back end
        assert_eq!(s.intervals.len(), 2);
        s.clear();
        assert!(!s.insert(600, 64, 64));
        assert_eq!(s.intervals.len(), 1);
    }

    #[test]
    fn empty_trace_yields_no_segments() {
        let t = TraceBuilder::new(BLK, 4).finish();
        assert!(segment_trace(&t).is_empty());
    }
}
