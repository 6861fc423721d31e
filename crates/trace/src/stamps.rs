//! Paged per-address segment stamps.
//!
//! [`StampTable`] maps each address a trace names to a `u32` stamp: the
//! ordinal + 1 of the last segment that wrote it (the writer stamps) or
//! that read it (the read stamps), 0 for never. Comparing a stored stamp
//! with the current segment's answers "written (or read) in this segment
//! already?" without any per-segment state, so closing a segment resets
//! nothing.
//!
//! Stamps live in fixed-size pages of [`SLOTS`] consecutive blocks of one
//! phase. A page's key is `(addr % block, addr / block / SLOTS)`: an
//! unaligned address lands in a page of its own phase, and every `u64`
//! address has a key, `u64::MAX` included. Pages are found through an
//! ordered directory, never a hash, so no address pattern can make lookups
//! collide. The segmenter works a run of consecutive blocks at a time, so
//! the table hands out a range a page step at a time, each step one
//! page's slots as a slice: one division by the block size per range, one
//! page lookup per step. A one-entry cache keeps the page the last step
//! resolved, or the fact that it is absent: a step that stays in the
//! previous step's page walks no tree.
//!
//! Memory is O(touched pages). Only a store allocates a page, at most one
//! per block stored, and `StampTable::BYTES_PER_PAGE_BOUND` bounds what
//! each costs: 592 B.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::Addr;

/// Blocks per page. Measured on the zoo's traces: with 16 slots the
/// directory dominates; 256 slots make AlexNet's read stamps about a
/// seventh faster than 64, but quadruple what a hostile trace costs per
/// event.
pub(crate) const SLOTS: u64 = 64;

type Page = [u32; SLOTS as usize];

/// A page no address has a stamp in.
const EMPTY_PAGE: Page = [0; SLOTS as usize];

/// A page's directory key: (phase within the block, page number).
type Key = (u64, u64);

/// Stamps by address; see the module documentation.
#[derive(Debug)]
pub(crate) struct StampTable {
    block: u64,
    /// Page key → index into `pages`.
    directory: BTreeMap<Key, usize>,
    pages: Vec<Page>,
    /// The key the last access resolved and its page, `None` when the
    /// directory has no such page.
    cached: (Key, Option<usize>),
}

impl StampTable {
    /// Upper bound on the heap bytes one page costs once a table holds two
    /// or more: the page itself, doubled for the growth slack of `pages`,
    /// and its directory entry.
    #[cfg(test)]
    pub(crate) const BYTES_PER_PAGE_BOUND: usize =
        2 * std::mem::size_of::<Page>() + Self::DIRECTORY_ENTRY_BYTES;

    /// Upper bound on the heap bytes of one directory entry. A `BTreeMap`
    /// node holds at most 11 entries (16 B keys, 8 B values) and a word
    /// and a half of header, and every node but the root keeps at least 5:
    /// at most 56 B per entry in leaves, plus a fifth of an internal node's
    /// 376 B. 80 B covers both and the allocator's per-node header.
    #[cfg(test)]
    const DIRECTORY_ENTRY_BYTES: usize = 80;

    /// An empty table for addresses at `block`-byte granularity.
    pub(crate) fn new(block: u64) -> Self {
        Self {
            block,
            directory: BTreeMap::new(),
            pages: Vec::new(),
            // The directory is empty, so every key is absent.
            cached: ((0, 0), None),
        }
    }

    /// The page steps covering the `len` consecutive `block`-byte blocks
    /// from `addr`, in address order: each is a page key and the slots the
    /// blocks take in that page. One division serves the whole range.
    fn steps(block: u64, addr: Addr, len: u64) -> impl Iterator<Item = (Key, Range<usize>)> {
        let phase = addr % block;
        let (mut index, mut left) = (addr / block, len);
        std::iter::from_fn(move || {
            let slot = index % SLOTS;
            let take = (SLOTS - slot).min(left);
            if take == 0 {
                return None;
            }
            let step = (
                (phase, index / SLOTS),
                slot as usize..(slot + take) as usize,
            );
            // Wraps only past the last block of the address space.
            index = index.wrapping_add(take);
            left -= take;
            Some(step)
        })
    }

    /// The stamps of page `key`, all 0 when the table has no such page.
    fn page(&mut self, key: Key) -> &Page {
        if self.cached.0 != key {
            self.cached = (key, self.directory.get(&key).copied());
        }
        self.cached.1.map_or(&EMPTY_PAGE, |page| &self.pages[page])
    }

    /// The stamps of page `key`, allocating the page when it is new.
    fn page_mut(&mut self, key: Key) -> &mut Page {
        let page = match self.cached {
            (cached, Some(page)) if cached == key => page,
            // One tree walk finds the page or makes room for a new one.
            _ => {
                let next = self.pages.len();
                let page = *self.directory.entry(key).or_insert(next);
                if page == next {
                    self.pages.push(EMPTY_PAGE);
                }
                self.cached = (key, Some(page));
                page
            }
        };
        &mut self.pages[page]
    }

    /// Stores `stamp` for the `len` consecutive blocks from `addr`,
    /// returning how many of them held another stamp.
    pub(crate) fn store(&mut self, addr: Addr, len: u64, stamp: u32) -> u64 {
        let mut changed = 0;
        for (key, slots) in Self::steps(self.block, addr, len) {
            for s in &mut self.page_mut(key)[slots] {
                changed += u64::from(*s != stamp);
                *s = stamp;
            }
        }
        changed
    }

    /// Walks the `len` consecutive blocks from `addr` through two tables
    /// of one block size at once, a page step at a time: `f` gets, slot for
    /// slot, the step's stamps in `self` (0 where it has no page) and in
    /// `stores` (its pages allocated when new) to update.
    pub(crate) fn walk_with(
        &mut self,
        stores: &mut Self,
        addr: Addr,
        len: u64,
        mut f: impl FnMut(&[u32], &mut [u32]),
    ) {
        debug_assert_eq!(self.block, stores.block, "tables of one block size");
        for (key, slots) in Self::steps(self.block, addr, len) {
            f(
                &self.page(key)[slots.clone()],
                &mut stores.page_mut(key)[slots],
            );
        }
    }

    /// Pages allocated so far.
    #[cfg(test)]
    pub(crate) fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Heap bytes held, counting each directory entry at its bound: a
    /// `BTreeMap` does not report its nodes.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Page>()
            + self.directory.len() * Self::DIRECTORY_ENTRY_BYTES
    }
}

/// The stamp of the segment with ordinal `ordinal`.
///
/// # Panics
///
/// Panics past `u32::MAX - 1` segments, where stamps would wrap and an old
/// segment's stamp would read as the current one's.
pub(crate) fn stamp_of(ordinal: usize) -> u32 {
    let stamp = ordinal.checked_add(1).and_then(|s| u32::try_from(s).ok());
    // lint:allow(panic): every segment holds an event, so this needs a trace
    // of 2^32 events (96 GiB as a `Trace`); stopping beats a wrong answer
    stamp.expect("segment ordinal past u32::MAX - 1: stamps would wrap")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLK: u64 = 64;
    const PAGE_BYTES: u64 = BLK * SLOTS;

    /// One address at a time, through the page steps of a one-block range.
    impl StampTable {
        fn get(&mut self, addr: Addr) -> u32 {
            let (key, slots) = Self::steps(self.block, addr, 1).next().expect("one block");
            self.page(key)[slots.start]
        }

        fn replace(&mut self, addr: Addr, stamp: u32) -> u32 {
            let (key, slots) = Self::steps(self.block, addr, 1).next().expect("one block");
            std::mem::replace(&mut self.page_mut(key)[slots.start], stamp)
        }
    }

    /// A write run stores over pages it crosses, counting the slots that
    /// changed; a read run walks both tables' pages together, seeing 0
    /// where the first has no page.
    #[test]
    fn range_steps_cross_pages() {
        let (mut writers, mut reads) = (StampTable::new(BLK), StampTable::new(BLK));
        // Blocks 60..70 straddle pages 0 and 1; 64..66 were stamped 2.
        assert_eq!(writers.store(64 * BLK, 2, 2), 2);
        assert_eq!(writers.store(60 * BLK, 10, 3), 10);
        assert_eq!(writers.store(60 * BLK, 10, 3), 0);
        assert_eq!(writers.pages(), 2);
        // Blocks 120..200: page 1's tail, all of page 2, page 3's head.
        let mut seen = Vec::new();
        writers.walk_with(&mut reads, 120 * BLK, 80, |w, r| {
            seen.push(w.len());
            assert!(w.iter().all(|&s| s == 0));
            r.fill(4);
        });
        assert_eq!(seen, [8, 64, 8]);
        assert_eq!((writers.pages(), reads.pages()), (2, 3));
        let mut stamps: Vec<u32> = Vec::new();
        writers.walk_with(&mut reads, 58 * BLK, 8, |w, _| stamps.extend(w));
        assert_eq!(stamps, [0, 0, 3, 3, 3, 3, 3, 3]);
        assert_eq!((reads.get(119 * BLK), reads.get(120 * BLK)), (0, 4));
        assert_eq!((reads.get(199 * BLK), reads.get(200 * BLK)), (4, 0));
        // One block at the top of the address space, in its own phase.
        assert_eq!(writers.store(u64::MAX, 1, 5), 1);
        assert_eq!(writers.get(u64::MAX), 5);
    }

    #[test]
    fn stamps_cross_page_boundaries() {
        let mut t = StampTable::new(BLK);
        // The last block of page 0 and the first of page 1.
        let (a, b) = (PAGE_BYTES - BLK, PAGE_BYTES);
        assert_eq!(t.replace(a, 1), 0);
        assert_eq!(t.replace(b, 2), 0);
        assert_eq!(t.pages(), 2);
        assert_eq!((t.get(a), t.get(b)), (1, 2));
        assert_eq!(t.get(a + 2 * BLK), 0);
        assert_eq!(t.replace(a, 3), 1);
        assert_eq!((t.get(b), t.get(a)), (2, 3));
    }

    #[test]
    fn phases_of_one_block_keep_their_own_stamps() {
        let mut t = StampTable::new(BLK);
        assert_eq!(t.replace(5 * BLK, 1), 0);
        assert_eq!(t.replace(5 * BLK + 3, 2), 0);
        assert_eq!(t.pages(), 2);
        assert_eq!(t.get(5 * BLK), 1);
        assert_eq!(t.get(5 * BLK + 3), 2);
        assert_eq!(t.get(5 * BLK + 4), 0);
        assert_eq!(t.get(6 * BLK + 3), 0);
    }

    #[test]
    fn pages_next_to_u64_max() {
        // A block size that does not divide 2^64, so the last page is
        // partial and unaligned phases reach u64::MAX itself.
        let block = 48;
        let mut t = StampTable::new(block);
        let top = u64::MAX - u64::MAX % block;
        let below = top - block * SLOTS;
        assert_eq!(t.replace(top, 7), 0);
        assert_eq!(t.replace(u64::MAX, 8), 0);
        assert_eq!(t.replace(below, 9), 0);
        assert_eq!(t.pages(), 3);
        assert_eq!((t.get(top), t.get(u64::MAX), t.get(below)), (7, 8, 9));
        assert_eq!(t.get(top - block), 0);
        assert_eq!(t.get(0), 0);
    }

    #[test]
    fn a_write_fills_the_page_a_read_found_absent() {
        let mut t = StampTable::new(BLK);
        assert_eq!(t.replace(0, 1), 0);
        // Cache the absence of page 1, then allocate it.
        assert_eq!(t.get(PAGE_BYTES), 0);
        assert_eq!(t.replace(PAGE_BYTES + BLK, 2), 0);
        // Both reads stay in page 1: they must see the new page.
        assert_eq!(t.get(PAGE_BYTES + BLK), 2);
        assert_eq!(t.replace(PAGE_BYTES + BLK, 3), 2);
        assert_eq!(t.pages(), 2);
        assert_eq!(t.get(0), 1);
    }

    #[test]
    fn stamps_across_many_segments() {
        // Each segment re-stamps a sliding window of blocks that spans
        // page boundaries; a block's stamp is the last window covering it.
        let mut t = StampTable::new(BLK);
        let segments = 1000usize;
        for ordinal in 0..segments {
            let stamp = stamp_of(ordinal);
            for b in (ordinal as u64)..(ordinal as u64 + 100) {
                let old = t.replace(b * BLK, stamp);
                // The previous window covered every block but the last.
                let expect = if ordinal > 0 && b < ordinal as u64 + 99 {
                    stamp - 1
                } else {
                    0
                };
                assert_eq!(old, expect, "segment {ordinal} block {b}");
            }
        }
        for b in 0..(segments as u64 + 99) {
            let last = (b.min(segments as u64 - 1)) as usize;
            assert_eq!(t.get(b * BLK), stamp_of(last), "block {b}");
        }
        assert_eq!(t.pages() as u64, (segments as u64 + 99).div_ceil(SLOTS));
    }

    #[test]
    fn stamps_do_not_wrap() {
        assert_eq!(stamp_of(0), 1);
        assert_eq!(stamp_of(u32::MAX as usize - 1), u32::MAX);
        let wrapped = std::panic::catch_unwind(|| stamp_of(u32::MAX as usize));
        assert!(wrapped.is_err());
    }
}
