//! Adversary-visible memory events, stored as runs of transactions.

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

/// `len_kind`'s bit for a run of writes.
const WRITE_BIT: u32 = 1 << 31;

/// The most transactions one run holds; the next one starts a new run.
const MAX_RUN_LEN: u32 = WRITE_BIT - 1;

/// `len` transactions of one kind, each one block further on in address
/// and `step` cycles later than the one before: a DMA burst as the bus
/// carries it. The kind is packed into `len_kind`, so a run is exactly as
/// large as one [`MemoryEvent`] and a trace in which no two transactions
/// coalesce costs what a flat one would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    /// The first transaction's cycle.
    pub(crate) cycle: Cycle,
    /// The first transaction's address.
    pub(crate) addr: Addr,
    /// Cycles between consecutive transactions; 0 while the run holds one.
    pub(crate) step: u32,
    /// The transaction count, with [`WRITE_BIT`] set for writes.
    len_kind: u32,
}

impl Run {
    const EMPTY: Self = Self {
        cycle: 0,
        addr: 0,
        step: 0,
        len_kind: 0,
    };

    pub(crate) const fn single(ev: MemoryEvent) -> Self {
        Self {
            cycle: ev.cycle,
            addr: ev.addr,
            step: 0,
            len_kind: 1 | if ev.kind.is_write() { WRITE_BIT } else { 0 },
        }
    }

    pub(crate) const fn len(&self) -> u32 {
        self.len_kind & MAX_RUN_LEN
    }

    pub(crate) const fn kind(&self) -> AccessKind {
        if self.len_kind & WRITE_BIT == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        }
    }

    const fn first(&self) -> MemoryEvent {
        MemoryEvent {
            cycle: self.cycle,
            addr: self.addr,
            kind: self.kind(),
        }
    }

    /// The `k`th transaction's cycle.
    pub(crate) const fn cycle_at(&self, k: u32) -> Cycle {
        self.cycle + k as u64 * self.step as u64
    }

    /// The last transaction's cycle (the first's for an empty run).
    pub(crate) const fn last_cycle(&self) -> Cycle {
        self.cycle_at(self.len().saturating_sub(1))
    }

    /// Appends `ev` when it continues the run: same kind, the next block's
    /// address on the block grid, and (from the third transaction on) the
    /// step the second one fixed. Anything else — including a full run, a
    /// cycle running backwards or a step above `u32::MAX` — returns
    /// `false`, so every event sequence has exactly one run encoding.
    #[inline]
    fn try_extend(&mut self, ev: MemoryEvent, block: u64) -> bool {
        let len = self.len();
        if ev.kind != self.kind() || len == MAX_RUN_LEN {
            return false;
        }
        let last_addr = self.addr + u64::from(len - 1) * block;
        if last_addr.checked_add(block) != Some(ev.addr) {
            return false;
        }
        let Some(delta) = ev.cycle.checked_sub(self.last_cycle()) else {
            return false;
        };
        if len == 1 {
            // The second transaction fixes the step, and only an aligned
            // run grows: an unaligned address stays a run of its own.
            let Ok(step) = u32::try_from(delta) else {
                return false;
            };
            if !self.addr.is_multiple_of(block) {
                return false;
            }
            self.step = step;
        } else if delta != u64::from(self.step) {
            return false;
        }
        self.len_kind += 1;
        true
    }

    /// Drops the first `n` (at most `len`) transactions.
    fn advance(&mut self, n: u32, block: u64) {
        self.cycle = (self.cycle).wrapping_add(u64::from(n) * u64::from(self.step));
        self.addr = (self.addr).wrapping_add(u64::from(n).wrapping_mul(block));
        self.len_kind -= n;
    }
}

/// A complete adversary-visible memory trace.
///
/// Transactions are observed at DRAM-burst granularity: every address is a
/// multiple of [`Trace::block_bytes`]. The adversary is assumed to know the
/// burst size and the element width (both are properties of the memory
/// system, not of the secret model).
///
/// The trace stores what the bus carries: runs of transactions of one
/// kind at consecutive block addresses and a fixed cycle pitch, 24 bytes
/// each. The encoding is lossless and canonical for any event sequence, so
/// two traces are equal exactly when their events are; a trace in which no
/// two events coalesce costs 24 bytes per event, the size of a
/// [`MemoryEvent`]. [`Trace::events`] yields the transactions one by one.
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
/// assert_eq!(trace.run_count(), 2);
/// assert_eq!(trace.elems_per_block(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    runs: Vec<Run>,
    len: usize,
    block_bytes: u64,
    element_bytes: u64,
}

impl Trace {
    /// The observed transactions, in time order.
    #[must_use]
    pub fn events(&self) -> TraceEvents<'_> {
        TraceEvents {
            head: Run::EMPTY,
            runs: self.runs.iter(),
            block: self.block_bytes,
            remaining: self.len,
        }
    }

    /// Number of transactions.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no transactions were observed.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored runs: the trace holds 24 bytes per run.
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The stored runs, in time order.
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
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
        self.len - self.write_count()
    }

    /// Number of write transactions.
    #[must_use]
    pub fn write_count(&self) -> usize {
        (self.runs.iter())
            .filter(|r| r.kind().is_write())
            .map(|r| r.len() as usize)
            .sum()
    }

    /// Total cycles spanned by the trace (last minus first event cycle).
    #[must_use]
    pub fn duration(&self) -> Cycle {
        match (self.runs.first(), self.runs.last()) {
            (Some(a), Some(b)) => b.last_cycle().saturating_sub(a.cycle),
            _ => 0,
        }
    }

    /// Decomposes the trace into its parts (events, block bytes, element
    /// bytes) — used by the defense transformations.
    #[must_use]
    pub fn into_parts(self) -> (Vec<MemoryEvent>, u64, u64) {
        (
            self.events().collect(),
            self.block_bytes,
            self.element_bytes,
        )
    }

    /// Reassembles a trace from parts produced by [`Trace::into_parts`].
    /// Unlike [`TraceBuilder::record`], it takes unaligned addresses and
    /// cycles running backwards, as a corrupted capture may hold them.
    ///
    /// # Panics
    ///
    /// Panics when the block geometry is invalid (see [`TraceBuilder::new`]).
    #[must_use]
    pub fn from_parts(events: Vec<MemoryEvent>, block_bytes: u64, element_bytes: u64) -> Self {
        let mut b = TraceBuilder::new(block_bytes, element_bytes);
        for ev in events {
            b.append(ev);
        }
        b.finish()
    }
}

/// The transactions of a [`Trace`], in time order: [`Trace::events`].
///
/// `nth` (and so `skip`) walks whole runs, and `fold` (and so `for_each`)
/// loops over each run's transactions without a per-event dispatch; hot
/// passes use them.
#[derive(Debug, Clone)]
pub struct TraceEvents<'a> {
    /// What is left of the run being walked.
    head: Run,
    runs: std::slice::Iter<'a, Run>,
    block: u64,
    remaining: usize,
}

impl Iterator for TraceEvents<'_> {
    type Item = MemoryEvent;

    #[inline]
    fn next(&mut self) -> Option<MemoryEvent> {
        if self.head.len() == 0 {
            self.head = *self.runs.next()?;
        }
        let ev = self.head.first();
        self.head.advance(1, self.block);
        self.remaining -= 1;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    fn nth(&mut self, mut n: usize) -> Option<MemoryEvent> {
        let mut len = self.head.len() as usize;
        while n >= len {
            n -= len;
            self.remaining -= len;
            self.head = Run::EMPTY;
            self.head = *self.runs.next()?;
            len = self.head.len() as usize;
        }
        // n < len <= MAX_RUN_LEN, so it fits.
        self.head.advance(n as u32, self.block);
        self.remaining -= n;
        self.next()
    }

    fn fold<B, F: FnMut(B, MemoryEvent) -> B>(mut self, init: B, mut f: F) -> B {
        // One call site of `f`, so a large body is inlined once.
        let (mut acc, mut run) = (init, self.head);
        loop {
            let kind = run.kind();
            let (mut cycle, mut addr) = (run.cycle, run.addr);
            for _ in 0..run.len() {
                acc = f(acc, MemoryEvent { cycle, addr, kind });
                cycle = cycle.wrapping_add(u64::from(run.step));
                addr = addr.wrapping_add(self.block);
            }
            match self.runs.next() {
                Some(next) => run = *next,
                None => return acc,
            }
        }
    }
}

impl ExactSizeIterator for TraceEvents<'_> {}

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

/// A consumer of DRAM transactions as the bus carries them, one at a time
/// and in time order. It sees exactly what the adversary sees — a
/// [`MemoryEvent`] — and nothing of the values or the schedule behind it.
/// [`TraceBuilder`] is the sink that stores a [`Trace`], coalescing the
/// transactions into runs as they arrive.
pub trait EventSink {
    /// Takes the next transaction.
    fn push(&mut self, event: MemoryEvent);
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    #[inline]
    fn push(&mut self, event: MemoryEvent) {
        (**self).push(event);
    }
}

impl EventSink for TraceBuilder {
    // Inlined into the engine's emit loop, which is most of a trace-only run.
    #[inline]
    fn push(&mut self, event: MemoryEvent) {
        self.record(event.cycle, event.addr, event.kind);
    }
}

/// Incrementally records a [`Trace`] (used by the accelerator simulator).
///
/// Each transaction either extends the last run or starts a new one: it
/// extends it when it has the run's kind, the next block address, and the
/// run's cycle step (the second transaction of a run fixes the step).
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    runs: Vec<Run>,
    len: usize,
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
            runs: Vec::new(),
            len: 0,
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
    #[inline]
    pub fn record(&mut self, cycle: Cycle, addr: Addr, kind: AccessKind) {
        debug_assert_eq!(addr % self.block_bytes, 0, "unaligned transaction address");
        self.append(MemoryEvent { cycle, addr, kind });
    }

    /// Records one transaction, aligned or not.
    #[inline]
    pub(crate) fn append(&mut self, ev: MemoryEvent) {
        self.len += 1;
        if let Some(run) = self.runs.last_mut() {
            if run.try_extend(ev, self.block_bytes) {
                return;
            }
        }
        self.runs.push(Run::single(ev));
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
        let last = (start + (len_bytes - 1)) / self.block_bytes;
        for b in first..=last {
            self.record(cycle, b * self.block_bytes, kind);
        }
        last - first + 1
    }

    /// Number of transactions recorded so far.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing has been recorded.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finalizes the trace.
    #[must_use]
    pub fn finish(self) -> Trace {
        Trace {
            runs: self.runs,
            len: self.len,
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
        assert_eq!(t.events().nth(1).unwrap().addr, 64);
        assert_eq!(t.events().nth(2).unwrap().addr, 192);
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

    /// The worst case costs what a flat trace would: a run is no larger
    /// than an event, and a trace whose kinds alternate stores one run per
    /// event.
    #[test]
    fn a_trace_that_never_coalesces_costs_one_event_per_run() {
        assert!(std::mem::size_of::<Run>() <= std::mem::size_of::<MemoryEvent>());
        let mut b = TraceBuilder::new(64, 4);
        for i in 0..1000u64 {
            let kind = if i % 2 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            b.record(i, i * 64, kind);
        }
        let t = b.finish();
        assert_eq!(t.run_count(), t.len());
        assert!(t.runs.capacity() * std::mem::size_of::<Run>() <= 2 * 24 * t.len());
    }

    #[test]
    fn a_full_run_takes_no_more() {
        let ev = |cycle, addr| MemoryEvent {
            cycle,
            addr,
            kind: AccessKind::Write,
        };
        let mut run = Run::single(ev(0, 0));
        assert!(run.try_extend(ev(2, 64), 64));
        run.len_kind = WRITE_BIT | (MAX_RUN_LEN - 1);
        let last = u64::from(MAX_RUN_LEN - 1);
        assert!(run.try_extend(ev(2 * last, 64 * last), 64));
        assert_eq!((run.len(), run.kind()), (MAX_RUN_LEN, AccessKind::Write));
        assert!(!run.try_extend(ev(2 * last + 2, 64 * last + 64), 64));
    }

    #[test]
    fn bursts_coalesce_into_one_run_each() {
        let mut b = TraceBuilder::new(64, 4);
        for i in 0..100u64 {
            b.record(10 + 3 * i, 4096 + 64 * i, AccessKind::Read);
        }
        assert_eq!(b.record_range(400, 0, 64 * 50, AccessKind::Write), 50);
        let t = b.finish();
        assert_eq!(t.run_count(), 2);
        assert_eq!((t.len(), t.read_count(), t.write_count()), (150, 100, 50));
        assert_eq!(t.duration(), 390);
        assert_eq!(
            t.events().nth(99),
            Some(MemoryEvent {
                cycle: 307,
                addr: 4096 + 64 * 99,
                kind: AccessKind::Read
            })
        );
        let tail: Vec<Addr> = t.events().skip(148).map(|e| e.addr).collect();
        assert_eq!(tail, [64 * 48, 64 * 49]);
    }
}
