//! Every trace-level mitigation vs. the structure attack, side by side.
fn main() {
    let (harness, _) =
        cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("defense_matrix"));
    let (baseline, rows) = cnnre_bench::experiments::defense_matrix::run();
    println!(
        "{}",
        cnnre_bench::experiments::defense_matrix::render(baseline, &rows)
    );
    harness.finish(0);
}
