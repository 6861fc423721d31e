//! Adversary-visible memory events.

/// A byte address on the off-chip memory bus.
pub type Addr = u64;

/// A clock cycle count.
pub type Cycle = u64;

/// The access type of a DRAM transaction — with encrypted data, this and
/// the address are all the adversary learns per transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The accelerator reads from DRAM.
    Read,
    /// The accelerator (or the host, when staging the input) writes to DRAM.
    Write,
}

impl AccessKind {
    /// `true` for reads.
    #[must_use]
    pub const fn is_read(&self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// `true` for writes.
    #[must_use]
    pub const fn is_write(&self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One observed DRAM transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryEvent {
    /// Cycle at which the transaction was observed.
    pub cycle: Cycle,
    /// Transaction byte address (aligned to the trace's block size).
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
}

/// A complete adversary-visible memory trace.
///
/// Transactions are observed at DRAM-burst granularity: every address is a
/// multiple of [`Trace::block_bytes`]. The adversary is assumed to know the
/// burst size and the element width (both are properties of the memory
/// system, not of the secret model).
///
/// # Example
///
/// ```
/// use cnnre_trace::{AccessKind, TraceBuilder};
///
/// let mut b = TraceBuilder::new(64, 4);
/// b.record(10, 0, AccessKind::Write);
/// b.record(12, 64, AccessKind::Write);
/// b.record(20, 0, AccessKind::Read);
/// let trace = b.finish();
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.elems_per_block(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<MemoryEvent>,
    block_bytes: u64,
    element_bytes: u64,
}

impl Trace {
    /// The observed transactions, in time order.
    #[must_use]
    pub fn events(&self) -> &[MemoryEvent] {
        &self.events
    }

    /// Number of transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no transactions were observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// DRAM burst size in bytes (transaction granularity).
    #[must_use]
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Width of one data element in bytes (4 for `f32`).
    #[must_use]
    pub const fn element_bytes(&self) -> u64 {
        self.element_bytes
    }

    /// Number of data elements per transaction block.
    #[must_use]
    pub const fn elems_per_block(&self) -> u64 {
        self.block_bytes / self.element_bytes
    }

    /// Number of read transactions.
    #[must_use]
    pub fn read_count(&self) -> usize {
        self.events.iter().filter(|e| e.kind.is_read()).count()
    }

    /// Number of write transactions.
    #[must_use]
    pub fn write_count(&self) -> usize {
        self.events.iter().filter(|e| e.kind.is_write()).count()
    }

    /// Total cycles spanned by the trace (last minus first event cycle).
    #[must_use]
    pub fn duration(&self) -> Cycle {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.cycle.saturating_sub(a.cycle),
            _ => 0,
        }
    }

    /// Decomposes the trace into its parts (events, block bytes, element
    /// bytes) — used by the defense transformations.
    #[must_use]
    pub fn into_parts(self) -> (Vec<MemoryEvent>, u64, u64) {
        (self.events, self.block_bytes, self.element_bytes)
    }

    /// Reassembles a trace from parts produced by [`Trace::into_parts`].
    ///
    /// # Panics
    ///
    /// Panics when the block geometry is invalid (see [`TraceBuilder::new`]).
    #[must_use]
    pub fn from_parts(events: Vec<MemoryEvent>, block_bytes: u64, element_bytes: u64) -> Self {
        check_geometry(block_bytes, element_bytes);
        Self {
            events,
            block_bytes,
            element_bytes,
        }
    }
}

/// Whether `block_bytes` is a positive multiple of a positive
/// `element_bytes` — the geometry every [`Trace`] has.
pub(crate) fn valid_geometry(block_bytes: u64, element_bytes: u64) -> bool {
    element_bytes > 0 && block_bytes >= element_bytes && block_bytes.is_multiple_of(element_bytes)
}

fn check_geometry(block_bytes: u64, element_bytes: u64) {
    assert!(
        valid_geometry(block_bytes, element_bytes),
        "block size must be a positive multiple of the element size"
    );
}

/// Incrementally records a [`Trace`] (used by the accelerator simulator).
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    events: Vec<MemoryEvent>,
    block_bytes: u64,
    element_bytes: u64,
}

impl TraceBuilder {
    /// Starts a trace with the given burst size and element width in bytes.
    ///
    /// # Panics
    ///
    /// Panics when `block_bytes` is not a positive multiple of
    /// `element_bytes`.
    #[must_use]
    pub fn new(block_bytes: u64, element_bytes: u64) -> Self {
        check_geometry(block_bytes, element_bytes);
        Self {
            events: Vec::new(),
            block_bytes,
            element_bytes,
        }
    }

    /// DRAM burst size in bytes.
    #[must_use]
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Records one transaction.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `addr` is not block-aligned.
    pub fn record(&mut self, cycle: Cycle, addr: Addr, kind: AccessKind) {
        debug_assert_eq!(addr % self.block_bytes, 0, "unaligned transaction address");
        self.events.push(MemoryEvent { cycle, addr, kind });
    }

    /// Records transactions covering the byte range
    /// `[start, start + len_bytes)`, one per block, at the given cycle.
    /// Returns the number of transactions emitted.
    pub fn record_range(
        &mut self,
        cycle: Cycle,
        start: Addr,
        len_bytes: u64,
        kind: AccessKind,
    ) -> u64 {
        if len_bytes == 0 {
            return 0;
        }
        let first = start / self.block_bytes;
        let last = (start + len_bytes - 1) / self.block_bytes;
        for b in first..=last {
            self.record(cycle, b * self.block_bytes, kind);
        }
        last - first + 1
    }

    /// Number of transactions recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finalizes the trace.
    #[must_use]
    pub fn finish(self) -> Trace {
        Trace {
            events: self.events,
            block_bytes: self.block_bytes,
            element_bytes: self.element_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_and_counts() {
        let mut b = TraceBuilder::new(64, 4);
        b.record(1, 0, AccessKind::Write);
        b.record(5, 64, AccessKind::Read);
        b.record(9, 128, AccessKind::Read);
        let t = b.finish();
        assert_eq!(t.len(), 3);
        assert_eq!(t.read_count(), 2);
        assert_eq!(t.write_count(), 1);
        assert_eq!(t.duration(), 8);
        assert_eq!(t.elems_per_block(), 16);
    }

    #[test]
    fn record_range_covers_partial_blocks() {
        let mut b = TraceBuilder::new(64, 4);
        // 100 bytes starting at byte 0 -> blocks 0 and 64.
        assert_eq!(b.record_range(0, 0, 100, AccessKind::Read), 2);
        // 1 byte in block 3.
        assert_eq!(b.record_range(0, 192, 1, AccessKind::Read), 1);
        // zero-length range emits nothing.
        assert_eq!(b.record_range(0, 0, 0, AccessKind::Read), 0);
        let t = b.finish();
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[1].addr, 64);
        assert_eq!(t.events()[2].addr, 192);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn invalid_geometry_rejected() {
        let _ = TraceBuilder::new(10, 4);
    }

    #[test]
    fn parts_roundtrip() {
        let mut b = TraceBuilder::new(32, 4);
        b.record(0, 32, AccessKind::Write);
        let t = b.finish();
        let (ev, bb, eb) = t.clone().into_parts();
        assert_eq!(Trace::from_parts(ev, bb, eb), t);
    }

    #[test]
    fn empty_trace_duration_is_zero() {
        let t = TraceBuilder::new(64, 4).finish();
        assert!(t.is_empty());
        assert_eq!(t.duration(), 0);
    }
}
