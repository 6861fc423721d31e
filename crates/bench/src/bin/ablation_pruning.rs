//! Regenerates the zero-pruning traffic ablation.
fn main() {
    let (harness, _) =
        cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("ablation_pruning"));
    let rows = cnnre_bench::experiments::ablation::run();
    println!("{}", cnnre_bench::experiments::ablation::render(&rows));
    harness.finish(0);
}
