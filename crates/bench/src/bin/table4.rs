//! Regenerates the paper's Table 4.
fn main() {
    let (harness, _) = cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("table4"));
    let t = cnnre_bench::experiments::table4::run();
    println!("{}", cnnre_bench::experiments::table4::render(&t));
    harness.finish(0);
}
