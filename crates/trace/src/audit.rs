//! Semantic invariant checks over traces and segmentations — the
//! trace-side kernel of the workspace's artifact auditor (`cnnre-audit`).
//!
//! The attack pipeline rests on properties nothing else verifies
//! end-to-end: cycle stamps must be monotone (the segmenter consumes
//! events in time order), segments must tile the event stream, and the
//! RAW dependency model of the paper's Algorithm 1 must actually hold for
//! the segments the segmenter emits. This module re-derives those
//! properties *independently* — it never trusts the segmenter's own
//! bookkeeping — and reports every breach as a [`TraceViolation`] with a
//! stable diagnostic code.
//!
//! Two kinds of checks live here:
//!
//! * **Structural** ([`audit_event_order`], [`audit_segments`]): hold for
//!   every trace/segmentation the pipeline produces, including
//!   defense-obfuscated traces. The `audit-hooks` feature asserts these on
//!   every [`crate::segment::segment_trace_with`] call.
//! * **Model** ([`audit_alignment`], [`audit_region_overlap`],
//!   [`audit_write_contiguity`]): hold for traces emitted by the simulated
//!   accelerator (block-aligned transactions, disjoint DRAM regions with
//!   guard gaps, contiguous OFM extents) but not necessarily for arbitrary
//!   captures, so they are reported by the auditor rather than asserted.
//!
//! The full catalogue of codes, with the paper-equation cross references,
//! is in DESIGN.md §9.

use std::collections::BTreeSet;

use crate::segment::Segment;
use crate::{Trace, TraceEvents};

/// One invariant breach found in a trace or segmentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceViolation {
    /// Stable diagnostic code (`T001`…`T014`, see DESIGN.md §9).
    pub code: &'static str,
    /// Event index (for event-level codes) or segment index (for
    /// segment-level codes) the violation anchors to.
    pub index: usize,
    /// Human explanation with the offending values.
    pub detail: String,
}

impl core::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] #{}: {}", self.code, self.index, self.detail)
    }
}

/// `T001`: cycle stamps must be non-decreasing in event order.
pub const NON_MONOTONE_CYCLE: &str = "T001";
/// `T002`: transaction addresses must be block-aligned.
pub const MISALIGNED_ADDRESS: &str = "T002";
/// `T010`: segments must tile the event stream (contiguous, covering,
/// non-empty).
pub const SEGMENT_TILING: &str = "T010";
/// `T011`: a segment's cycle stamps must equal its first/last event's.
pub const SEGMENT_CYCLE_MISMATCH: &str = "T011";
/// `T012`: no read of an address written earlier in the same segment (a
/// RAW dependency is precisely where Algorithm 1 places a boundary).
pub const INTRA_SEGMENT_RAW: &str = "T012";
/// `T013`: within one segment, written (OFM) and read (IFM/weight)
/// addresses must be disjoint — DRAM regions are guard-gapped.
pub const REGION_OVERLAP: &str = "T013";
/// `T014`: a segment's written blocks must form one contiguous extent
/// (feature maps are dense or prefix-compressed, never scattered).
pub const WRITE_EXTENT_GAP: &str = "T014";
/// `T015`: in a word-granularity capture (`block_bytes == element_bytes`,
/// the weight-attack setting) every address is written at most once per
/// segment — a zero-pruned/RLE output stream emits each surviving element
/// exactly once, so a duplicate write contradicts the claimed OFM size.
pub const DUPLICATE_PRUNED_WRITE: &str = "T015";

/// Checks `T001`: event cycle stamps are non-decreasing.
#[must_use]
pub fn audit_event_order(trace: &Trace) -> Vec<TraceViolation> {
    let mut out = Vec::new();
    let mut prev = None;
    trace.events().enumerate().for_each(|(i, ev)| {
        if let Some(p) = prev.filter(|&p| ev.cycle < p) {
            out.push(TraceViolation {
                code: NON_MONOTONE_CYCLE,
                index: i,
                detail: format!(
                    "cycle stamp {} follows {p} (events must be time-ordered)",
                    ev.cycle
                ),
            });
        }
        prev = Some(ev.cycle);
    });
    out
}

/// Checks `T002`: every address is a multiple of the trace's block size.
#[must_use]
pub fn audit_alignment(trace: &Trace) -> Vec<TraceViolation> {
    let blk = trace.block_bytes().max(1);
    let mut out = Vec::new();
    trace.events().enumerate().for_each(|(i, ev)| {
        if ev.addr % blk != 0 {
            out.push(TraceViolation {
                code: MISALIGNED_ADDRESS,
                index: i,
                detail: format!(
                    "address {:#x} is not aligned to the {blk}-byte transaction block",
                    ev.addr
                ),
            });
        }
    });
    out
}

/// Hands out each segment's events. A segment starts where the walk
/// stopped, so segments that tile the trace in order walk it once (a
/// `skip` from the start per segment would cost segments × runs, quadratic
/// on a capture where every other event opens a segment); one that starts
/// further back restarts the walk.
struct SegmentWalk<'a> {
    trace: &'a Trace,
    rest: TraceEvents<'a>,
    /// Index of `rest`'s next event.
    at: usize,
}

impl<'a> SegmentWalk<'a> {
    fn new(trace: &'a Trace) -> Self {
        Self {
            trace,
            rest: trace.events(),
            at: 0,
        }
    }

    /// The events of `seg`, `None` when its range is reversed or runs past
    /// the trace's end.
    fn events(&mut self, seg: &Segment) -> Option<std::iter::Take<TraceEvents<'a>>> {
        if seg.first_event > seg.end_event || seg.end_event > self.trace.len() {
            return None;
        }
        if seg.first_event < self.at {
            *self = Self::new(self.trace);
        }
        if seg.first_event > self.at {
            let _ = self.rest.nth(seg.first_event - self.at - 1);
            self.at = seg.first_event;
        }
        Some(self.rest.clone().take(seg.len()))
    }
}

/// Checks the structural segment invariants `T010`–`T012` against the
/// underlying events: tiling, cycle-stamp consistency, and the absence of
/// intra-segment RAW dependencies (re-derived from scratch, mirroring
/// Algorithm 1's boundary rule).
#[must_use]
pub fn audit_segments(trace: &Trace, segments: &[Segment]) -> Vec<TraceViolation> {
    let mut out = Vec::new();
    let mut walk = SegmentWalk::new(trace);
    let mut expected_start = 0usize;
    for (si, seg) in segments.iter().enumerate() {
        if seg.first_event != expected_start || seg.end_event <= seg.first_event {
            out.push(TraceViolation {
                code: SEGMENT_TILING,
                index: si,
                detail: format!(
                    "segment spans events [{}, {}) but the previous segment ended at {} \
                     (segments must be non-empty and contiguous)",
                    seg.first_event, seg.end_event, expected_start
                ),
            });
        }
        expected_start = seg.end_event.max(expected_start);
        let Some(evs) = walk.events(seg) else {
            out.push(TraceViolation {
                code: SEGMENT_TILING,
                index: si,
                detail: format!(
                    "segment spans events [{}, {}) past the trace's {} events",
                    seg.first_event,
                    seg.end_event,
                    trace.len()
                ),
            });
            continue;
        };
        let (Some(first), Some(last)) = (evs.clone().next(), evs.clone().last()) else {
            continue;
        };
        if seg.start_cycle != first.cycle || seg.end_cycle != last.cycle {
            out.push(TraceViolation {
                code: SEGMENT_CYCLE_MISMATCH,
                index: si,
                detail: format!(
                    "segment claims cycles [{}, {}] but its events span [{}, {}]",
                    seg.start_cycle, seg.end_cycle, first.cycle, last.cycle
                ),
            });
        }
        let mut written = BTreeSet::new();
        for (off, ev) in evs.enumerate() {
            if ev.kind.is_write() {
                written.insert(ev.addr);
            } else if written.contains(&ev.addr) {
                out.push(TraceViolation {
                    code: INTRA_SEGMENT_RAW,
                    index: seg.first_event + off,
                    detail: format!(
                        "read of {:#x} after a write in the same segment {si}; Algorithm 1 \
                         places a layer boundary exactly at such a read",
                        ev.addr
                    ),
                });
            }
        }
    }
    if expected_start != trace.len() && !trace.is_empty() {
        out.push(TraceViolation {
            code: SEGMENT_TILING,
            index: segments.len().saturating_sub(1),
            detail: format!(
                "segments cover events [0, {expected_start}) of {} (trailing events unsegmented)",
                trace.len()
            ),
        });
    }
    out
}

/// Checks `T013`: per segment, the written address set and the read
/// address set are disjoint. In the accelerator model a layer's OFM region
/// never coincides with its IFM or weight regions (the DRAM allocator
/// guard-gaps them), so any overlap means the segmentation — or the trace
/// itself — violates the region model.
#[must_use]
pub fn audit_region_overlap(trace: &Trace, segments: &[Segment]) -> Vec<TraceViolation> {
    let mut out = Vec::new();
    let mut walk = SegmentWalk::new(trace);
    for (si, seg) in segments.iter().enumerate() {
        let Some(evs) = walk.events(seg) else {
            continue;
        };
        let mut written = BTreeSet::new();
        let mut read = BTreeSet::new();
        for ev in evs {
            if ev.kind.is_write() {
                written.insert(ev.addr);
            } else {
                read.insert(ev.addr);
            }
        }
        if let Some(addr) = written.intersection(&read).next() {
            let both = written.intersection(&read).count();
            out.push(TraceViolation {
                code: REGION_OVERLAP,
                index: si,
                detail: format!(
                    "segment both reads and writes {both} address(es) (first {addr:#x}); \
                     OFM regions are disjoint from IFM/weight regions"
                ),
            });
        }
    }
    out
}

/// Checks `T014`: per segment, the distinct written blocks form one
/// contiguous run. Feature maps are stored densely (or prefix-compressed
/// under zero pruning), so a layer's write extent has no holes at block
/// granularity.
#[must_use]
pub fn audit_write_contiguity(trace: &Trace, segments: &[Segment]) -> Vec<TraceViolation> {
    let mut out = Vec::new();
    let mut walk = SegmentWalk::new(trace);
    let blk = trace.block_bytes().max(1);
    for (si, seg) in segments.iter().enumerate() {
        let Some(evs) = walk.events(seg) else {
            continue;
        };
        let blocks: BTreeSet<u64> = evs
            .filter(|ev| ev.kind.is_write())
            .map(|ev| ev.addr / blk)
            .collect();
        let (Some(&lo), Some(&hi)) = (blocks.first(), blocks.last()) else {
            continue;
        };
        let expected = hi - lo + 1;
        if blocks.len() as u64 != expected {
            out.push(TraceViolation {
                code: WRITE_EXTENT_GAP,
                index: si,
                detail: format!(
                    "segment writes {} distinct blocks across a {expected}-block extent \
                     [{:#x}, {:#x}]; dense/compressed feature maps leave no holes",
                    blocks.len(),
                    lo * blk,
                    hi * blk
                ),
            });
        }
    }
    out
}

/// Checks `T015`: in word-granularity traces, no address is written twice
/// within one segment. A no-op (always clean) for block-granularity traces,
/// where bursts from adjacent row tiles legitimately re-touch a shared
/// boundary block.
#[must_use]
pub fn audit_pruned_writes(trace: &Trace, segments: &[Segment]) -> Vec<TraceViolation> {
    let mut out = Vec::new();
    if trace.block_bytes() != trace.element_bytes() {
        return out;
    }
    let mut walk = SegmentWalk::new(trace);
    for (si, seg) in segments.iter().enumerate() {
        let Some(evs) = walk.events(seg) else {
            continue;
        };
        let mut written = BTreeSet::new();
        for (off, ev) in evs.enumerate() {
            if ev.kind.is_write() && !written.insert(ev.addr) {
                out.push(TraceViolation {
                    code: DUPLICATE_PRUNED_WRITE,
                    index: seg.first_event + off,
                    detail: format!(
                        "second write to {:#x} in segment {si}; a pruned output stream \
                         writes each surviving element once",
                        ev.addr
                    ),
                });
            }
        }
    }
    out
}

/// Asserts the structural invariants (`T001`, `T010`–`T012`) and panics
/// with the full violation list otherwise. This is the sanitizer entry the
/// `audit-hooks` feature wires into [`crate::segment::segment_trace_with`]
/// and into the accelerator engine.
///
/// # Panics
///
/// Panics when any structural violation is found.
pub fn assert_well_formed(trace: &Trace, segments: &[Segment]) {
    let mut violations = audit_event_order(trace);
    violations.extend(audit_segments(trace, segments));
    assert!(
        violations.is_empty(),
        "trace audit failed ({} violation(s)):\n{}",
        violations.len(),
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_trace;
    use crate::{AccessKind, TraceBuilder};

    const BLK: u64 = 64;

    fn well_formed_trace() -> Trace {
        let mut b = TraceBuilder::new(BLK, 4);
        let mut t = 0;
        for i in 0..3 {
            b.record(t, i * BLK, AccessKind::Write);
            t += 1;
        }
        for i in 0..2 {
            b.record(t, 0x10_000 + i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..3 {
            b.record(t, i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..2 {
            b.record(t, 0x20_000 + i * BLK, AccessKind::Write);
            t += 1;
        }
        b.finish()
    }

    #[test]
    fn clean_trace_passes_every_check() {
        let trace = well_formed_trace();
        let segs = segment_trace(&trace);
        assert!(audit_event_order(&trace).is_empty());
        assert!(audit_alignment(&trace).is_empty());
        assert!(audit_segments(&trace, &segs).is_empty());
        assert!(audit_region_overlap(&trace, &segs).is_empty());
        assert!(audit_write_contiguity(&trace, &segs).is_empty());
        assert_well_formed(&trace, &segs);
    }

    #[test]
    fn non_monotone_cycles_are_t001() {
        let trace = well_formed_trace();
        let (mut events, blk, elem) = trace.into_parts();
        events.swap(2, 6);
        let trace = Trace::from_parts(events, blk, elem);
        let v = audit_event_order(&trace);
        assert!(!v.is_empty());
        assert!(v.iter().all(|v| v.code == NON_MONOTONE_CYCLE));
    }

    #[test]
    fn misaligned_address_is_t002() {
        // `TraceBuilder::record` rejects misaligned addresses itself, so a
        // corrupt capture can only arrive via deserialization — modelled
        // here with `from_parts`.
        let ev = crate::MemoryEvent {
            cycle: 0,
            addr: 63,
            kind: AccessKind::Write,
        };
        let v = audit_alignment(&Trace::from_parts(vec![ev], BLK, 4));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, MISALIGNED_ADDRESS);
    }

    #[test]
    fn gapped_segments_are_t010() {
        let trace = well_formed_trace();
        let mut segs = segment_trace(&trace);
        segs[1].first_event += 1; // hole between segment 0 and 1
        let v = audit_segments(&trace, &segs);
        assert!(v.iter().any(|v| v.code == SEGMENT_TILING));
    }

    #[test]
    fn truncated_coverage_is_t010() {
        let trace = well_formed_trace();
        let mut segs = segment_trace(&trace);
        let last = segs.len() - 1;
        segs[last].end_event -= 1;
        let v = audit_segments(&trace, &segs);
        assert!(v.iter().any(|v| v.code == SEGMENT_TILING));
    }

    #[test]
    fn corrupted_cycle_stamp_is_t011() {
        let trace = well_formed_trace();
        let mut segs = segment_trace(&trace);
        segs[0].end_cycle += 100;
        let v = audit_segments(&trace, &segs);
        assert!(v.iter().any(|v| v.code == SEGMENT_CYCLE_MISMATCH));
    }

    #[test]
    fn merged_segments_reveal_t012() {
        // Collapsing the segmentation to one segment exposes the RAW read
        // the boundary was placed at.
        let trace = well_formed_trace();
        let segs = [Segment {
            first_event: 0,
            end_event: trace.len(),
            start_cycle: 0,
            end_cycle: trace.events().last().unwrap().cycle,
        }];
        let v = audit_segments(&trace, &segs);
        assert!(v.iter().any(|v| v.code == INTRA_SEGMENT_RAW));
    }

    #[test]
    fn read_write_overlap_is_t013() {
        // One segment that writes a block and *earlier* read it (WAR):
        // segmentation keeps them together, but the region model forbids it.
        let mut b = TraceBuilder::new(BLK, 4);
        b.record(0, 0x100 * BLK, AccessKind::Read);
        b.record(1, 0x100 * BLK, AccessKind::Write);
        let trace = b.finish();
        let segs = segment_trace(&trace);
        assert_eq!(segs.len(), 1);
        let v = audit_region_overlap(&trace, &segs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, REGION_OVERLAP);
    }

    #[test]
    fn scattered_writes_are_t014() {
        let mut b = TraceBuilder::new(BLK, 4);
        b.record(0, 0, AccessKind::Write);
        b.record(1, 2 * BLK, AccessKind::Write); // hole at block 1
        let trace = b.finish();
        let segs = segment_trace(&trace);
        let v = audit_write_contiguity(&trace, &segs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, WRITE_EXTENT_GAP);
    }

    #[test]
    #[should_panic(expected = "trace audit failed")]
    fn assert_well_formed_panics_on_corruption() {
        let trace = well_formed_trace();
        let segs = segment_trace(&trace);
        let (mut events, blk, elem) = trace.into_parts();
        events.swap(0, 9);
        assert_well_formed(&Trace::from_parts(events, blk, elem), &segs);
    }
}
