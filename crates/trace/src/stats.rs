//! Trace statistics — the quantitative view behind the paper's Figure 3.
//!
//! Figure 3 plots the raw AlexNet memory trace (address vs. time) and the
//! layer boundaries are visible to the naked eye. This module computes the
//! numbers that make those features visible programmatically: traffic over
//! time windows, the address footprint split into contiguous regions, and
//! the read/write mix — the raw material both for plotting and for sanity-
//! checking a captured trace before an attack.

use crate::{Addr, Cycle, Trace};

/// Aggregate statistics of one trace.
///
/// # Example
///
/// ```
/// use cnnre_trace::{AccessKind, TraceBuilder};
/// use cnnre_trace::stats::TraceStats;
///
/// let mut b = TraceBuilder::new(64, 4);
/// b.record(0, 0, AccessKind::Write);
/// b.record(5, 64, AccessKind::Read);
/// let stats = TraceStats::compute(&b.finish(), 0);
/// assert_eq!(stats.transactions, 2);
/// assert_eq!(stats.regions.len(), 1);
/// assert_eq!(stats.read_fraction(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total transactions.
    pub transactions: usize,
    /// Read transactions.
    pub reads: usize,
    /// Write transactions.
    pub writes: usize,
    /// Cycles spanned (last − first).
    pub duration: Cycle,
    /// Distinct blocks touched.
    pub unique_blocks: usize,
    /// Total bytes transferred (`transactions × block_bytes`).
    pub bytes: u64,
    /// Contiguous address regions (maximal runs of touched blocks with
    /// gaps below the clustering threshold).
    pub regions: Vec<AddressRegion>,
}

/// A maximal cluster of touched blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressRegion {
    /// First byte address of the region.
    pub start: Addr,
    /// One past the last touched byte of the region.
    pub end: Addr,
    /// Blocks actually touched inside `[start, end)`.
    pub touched_blocks: usize,
}

impl AddressRegion {
    /// Region extent in bytes.
    #[must_use]
    pub const fn len_bytes(&self) -> u64 {
        self.end - self.start
    }
}

impl TraceStats {
    /// Computes statistics, clustering addresses into regions wherever the
    /// gap between consecutive touched blocks is at most `gap_blocks`
    /// untouched blocks.
    #[must_use]
    pub fn compute(trace: &Trace, gap_blocks: u64) -> Self {
        cnnre_obs::counter("trace.stats.events").add(trace.len() as u64);
        let block = trace.block_bytes();
        let mut touched: Vec<Addr> = Vec::with_capacity(trace.len());
        trace.events().for_each(|e| touched.push(e.addr));
        touched.sort_unstable();
        touched.dedup();
        let mut regions: Vec<AddressRegion> = Vec::new();
        let mut current: Option<(Addr, Addr, usize)> = None;
        for &addr in &touched {
            match current {
                Some((start, last, count)) if addr - last <= (gap_blocks + 1) * block => {
                    current = Some((start, addr, count + 1));
                }
                Some((start, last, count)) => {
                    regions.push(AddressRegion {
                        start,
                        end: last + block,
                        touched_blocks: count,
                    });
                    current = Some((addr, addr, 1));
                }
                None => current = Some((addr, addr, 1)),
            }
        }
        if let Some((start, last, count)) = current {
            regions.push(AddressRegion {
                start,
                end: last + block,
                touched_blocks: count,
            });
        }
        Self {
            transactions: trace.len(),
            reads: trace.read_count(),
            writes: trace.write_count(),
            duration: trace.duration(),
            unique_blocks: touched.len(),
            bytes: trace.len() as u64 * block,
            regions,
        }
    }

    /// Fraction of transactions that are reads (0 for an empty trace).
    #[must_use]
    pub fn read_fraction(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.reads as f64 / self.transactions as f64
            }
        }
    }

    /// Average bus traffic in bytes per cycle.
    #[must_use]
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.duration == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.bytes as f64 / self.duration as f64
            }
        }
    }

    /// Renders a human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "transactions: {} ({} reads / {} writes, {:.1}% reads)\n\
             duration:     {} cycles ({:.2} bytes/cycle)\n\
             footprint:    {} blocks in {} regions\n",
            self.transactions,
            self.reads,
            self.writes,
            100.0 * self.read_fraction(),
            self.duration,
            self.bytes_per_cycle(),
            self.unique_blocks,
            self.regions.len(),
        );
        for (i, r) in self.regions.iter().enumerate() {
            out.push_str(&format!(
                "  region {i}: [{:#x}, {:#x}) = {} bytes, {} blocks touched\n",
                r.start,
                r.end,
                r.len_bytes(),
                r.touched_blocks
            ));
        }
        out
    }
}

/// Traffic split into fixed-width time windows — the data series behind an
/// address-vs-time scatter plot's marginal histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficProfile {
    /// Window width in cycles.
    pub window: Cycle,
    /// Per-window `(reads, writes)` transaction counts, window 0 starting
    /// at the first event's cycle.
    pub windows: Vec<(usize, usize)>,
}

impl TrafficProfile {
    /// Bins the trace's transactions into `window`-cycle windows.
    ///
    /// # Panics
    ///
    /// Panics when `window == 0`.
    #[must_use]
    pub fn compute(trace: &Trace, window: Cycle) -> Self {
        assert!(window > 0, "window must be positive");
        let Some(first) = trace.events().next().map(|e| e.cycle) else {
            return Self {
                window,
                windows: Vec::new(),
            };
        };
        let mut windows: Vec<(usize, usize)> = Vec::new();
        trace.events().for_each(|ev| {
            // lint:allow(panic): only fails for >usize::MAX windows; the resize
            // below would exhaust memory many orders of magnitude earlier
            let idx = usize::try_from((ev.cycle - first) / window).expect("window index");
            if windows.len() <= idx {
                windows.resize(idx + 1, (0, 0));
            }
            if ev.kind.is_read() {
                windows[idx].0 += 1;
            } else {
                windows[idx].1 += 1;
            }
        });
        Self { window, windows }
    }

    /// The busiest window's index and total transaction count (earliest
    /// window wins ties).
    #[must_use]
    pub fn peak(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for (i, &(r, w)) in self.windows.iter().enumerate() {
            let total = r + w;
            if best.is_none_or(|(_, b)| total > b) {
                best = Some((i, total));
            }
        }
        best
    }

    /// Renders an ASCII sparkline-style bar chart (one row per window).
    #[must_use]
    pub fn render(&self, max_width: usize) -> String {
        let peak = self.peak().map_or(1, |(_, total)| total.max(1));
        let mut out = String::new();
        for (i, &(r, w)) in self.windows.iter().enumerate() {
            let total = r + w;
            let bar = "#".repeat((total * max_width).div_ceil(peak).min(max_width));
            out.push_str(&format!(
                "{:>6} | {:<width$} {} ({} R / {} W)\n",
                i * usize::try_from(self.window).unwrap_or(usize::MAX),
                bar,
                total,
                r,
                w,
                width = max_width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, TraceBuilder};

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(64, 4);
        // Region A: blocks 0..4 written, then read.
        for i in 0..4u64 {
            b.record(i, i * 64, AccessKind::Write);
        }
        for i in 0..4u64 {
            b.record(10 + i, i * 64, AccessKind::Read);
        }
        // Region B far away: blocks at 1 MiB.
        b.record(30, 1 << 20, AccessKind::Write);
        b.record(31, (1 << 20) + 64, AccessKind::Write);
        b.finish()
    }

    #[test]
    fn stats_counts_and_regions() {
        let s = TraceStats::compute(&sample(), 0);
        assert_eq!(s.transactions, 10);
        assert_eq!(s.reads, 4);
        assert_eq!(s.writes, 6);
        assert_eq!(s.unique_blocks, 6);
        assert_eq!(s.bytes, 640);
        assert_eq!(s.regions.len(), 2);
        assert_eq!(s.regions[0].start, 0);
        assert_eq!(s.regions[0].end, 256);
        assert_eq!(s.regions[0].touched_blocks, 4);
        assert_eq!(s.regions[1].len_bytes(), 128);
        assert!((s.read_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn gap_tolerance_merges_regions() {
        let mut b = TraceBuilder::new(64, 4);
        b.record(0, 0, AccessKind::Write);
        b.record(1, 192, AccessKind::Write); // 2-block gap
        let strict = TraceStats::compute(&b.clone().finish(), 1);
        assert_eq!(strict.regions.len(), 2);
        let loose = TraceStats::compute(&b.finish(), 2);
        assert_eq!(loose.regions.len(), 1);
        assert_eq!(loose.regions[0].touched_blocks, 2);
    }

    #[test]
    fn empty_trace_stats() {
        let t = TraceBuilder::new(64, 4).finish();
        let s = TraceStats::compute(&t, 0);
        assert_eq!(s.transactions, 0);
        assert!(s.regions.is_empty());
        assert_eq!(s.read_fraction(), 0.0);
        assert_eq!(s.bytes_per_cycle(), 0.0);
        assert!(TrafficProfile::compute(&t, 100).windows.is_empty());
    }

    #[test]
    fn traffic_profile_bins_by_window() {
        let p = TrafficProfile::compute(&sample(), 10);
        // Events at cycles 0..3 (writes), 10..13 (reads), 30..31 (writes).
        assert_eq!(p.windows.len(), 4);
        assert_eq!(p.windows[0], (0, 4));
        assert_eq!(p.windows[1], (4, 0));
        assert_eq!(p.windows[2], (0, 0));
        assert_eq!(p.windows[3], (0, 2));
        assert_eq!(p.peak(), Some((0, 4)));
        let chart = p.render(20);
        assert_eq!(chart.lines().count(), 4);
        assert!(chart.contains("(4 R / 0 W)"));
    }

    #[test]
    fn render_mentions_every_region() {
        let s = TraceStats::compute(&sample(), 0);
        let text = s.render();
        assert!(text.contains("region 0"));
        assert!(text.contains("region 1"));
        assert!(text.contains("40.0% reads"));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = TrafficProfile::compute(&TraceBuilder::new(64, 4).finish(), 0);
    }
}
