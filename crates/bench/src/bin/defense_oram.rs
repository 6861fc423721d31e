//! Regenerates the ORAM defense sweep.
fn main() {
    let (harness, _) =
        cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("defense_oram"));
    let (baseline, rows) = cnnre_bench::experiments::defense::run();
    println!(
        "{}",
        cnnre_bench::experiments::defense::render(baseline, &rows)
    );
    harness.finish(0);
}
