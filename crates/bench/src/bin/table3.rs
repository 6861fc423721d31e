//! Regenerates the paper's Table 3.
fn main() {
    let (harness, _) = cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("table3"));
    let rows = cnnre_bench::experiments::table3::run();
    println!("{}", cnnre_bench::experiments::table3::render(&rows));
    let reduction = cnnre_bench::experiments::table3::reduction(&rows);
    println!(
        "{}",
        cnnre_bench::experiments::table3::render_reduction(&reduction)
    );
    harness.finish(0);
}
