//! Weight-attack robustness sweep over victim compression levels.
//!
//! `CNNRE_QUICK=1` shrinks the victim for a fast smoke run.
fn main() {
    let (harness, _) =
        cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("ablation_prune_sweep"));
    let (filters, input_w) = if cnnre_bench::quick_mode() {
        (4, 39)
    } else {
        (16, 79)
    };
    let fractions = [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9];
    let points = cnnre_bench::experiments::ablation_prune_sweep::run(filters, input_w, &fractions);
    println!(
        "{}",
        cnnre_bench::experiments::ablation_prune_sweep::render(&points)
    );
    harness.finish(0);
}
