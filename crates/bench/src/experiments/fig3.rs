//! **Figure 3** — the memory access pattern of the accelerator: address
//! versus time, with the RAW-detected layer boundaries.

use cnnre_nn::models::alexnet;
use cnnre_tensor::rng::SeedableRng;
use cnnre_tensor::rng::SmallRng;
use cnnre_trace::observe::{observe, LayerKindHint};

use super::trace_of;

/// The regenerated figure: per-layer spans plus a down-sampled
/// (cycle, address, kind) series suitable for plotting.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// `(name-ish, start_cycle, end_cycle, reads, writes)` per detected layer.
    pub layers: Vec<(usize, u64, u64, u64, u64)>,
    /// Down-sampled series `(cycle, address, is_write)`.
    pub series: Vec<(u64, u64, bool)>,
    /// Total transactions in the trace.
    pub transactions: usize,
}

/// Regenerates Figure 3 from a full-scale AlexNet trace, keeping every
/// `stride`-th transaction in the plotted series.
///
/// # Panics
///
/// Panics when `stride == 0`.
#[must_use]
pub fn run(stride: usize) -> Fig3 {
    assert!(stride > 0, "stride must be positive");
    let mut rng = SmallRng::seed_from_u64(0);
    let victim = alexnet(1, 1000, &mut rng);
    let exec = trace_of(&victim);
    let obs = observe(&exec.trace);
    let layers = obs
        .layers
        .iter()
        .filter(|l| l.kind != LayerKindHint::Prologue)
        .map(|l| {
            let seg = exec.trace.events().skip(l.segment.first_event);
            let reads = (seg.take(l.segment.len()))
                .filter(|e| e.kind.is_read())
                .count() as u64;
            let writes = l.segment.len() as u64 - reads;
            (
                l.index,
                l.segment.start_cycle,
                l.segment.end_cycle,
                reads,
                writes,
            )
        })
        .collect();
    let series = exec
        .trace
        .events()
        .step_by(stride)
        .map(|e| (e.cycle, e.addr, e.kind.is_write()))
        .collect();
    Fig3 {
        layers,
        series,
        transactions: exec.trace.len(),
    }
}

/// Renders an ASCII address-vs-time plot plus the layer table.
#[must_use]
pub fn render(fig: &Fig3) -> String {
    let mut out = String::from("Figure 3: memory access pattern (address vs. time)\n\n");
    // ASCII plot: 100 time buckets x 30 address buckets.
    const W: usize = 100;
    const H: usize = 30;
    let max_cycle = fig.series.iter().map(|s| s.0).max().unwrap_or(1).max(1);
    let max_addr = fig.series.iter().map(|s| s.1).max().unwrap_or(1).max(1);
    let mut grid = vec![[b' '; W]; H];
    for &(cycle, addr, is_write) in &fig.series {
        let x = ((cycle as u128 * (W as u128 - 1)) / max_cycle as u128) as usize;
        let y = H - 1 - ((addr as u128 * (H as u128 - 1)) / max_addr as u128) as usize;
        let cell = &mut grid[y][x];
        *cell = match (*cell, is_write) {
            (b'W', false) | (b'R', true) | (b'*', _) => b'*',
            (_, true) => b'W',
            (_, false) => b'R',
        };
    }
    for row in &grid {
        out.push_str("  |");
        out.push_str(core::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!(
        "  +{} time ->\n  (R = read, W = write, * = both; {} transactions)\n\n",
        "-".repeat(W),
        fig.transactions
    ));
    out.push_str("layers detected from RAW dependencies:\n");
    out.push_str("  layer  start_cycle    end_cycle      reads   writes\n");
    for &(idx, start, end, reads, writes) in &fig.layers {
        out.push_str(&format!(
            "  {idx:>5}  {start:>11}  {end:>11}  {reads:>9}  {writes:>7}\n"
        ));
    }
    out
}
