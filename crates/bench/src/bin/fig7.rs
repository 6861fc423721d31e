//! Regenerates the paper's Figure 7 (CONV1 weight/bias ratio recovery).
use cnnre_bench::experiments::fig7;

fn main() {
    let (harness, _) = cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("fig7"));
    let cfg = if cnnre_bench::quick_mode() {
        fig7::Fig7Config::quick()
    } else {
        fig7::Fig7Config::standard()
    };
    let fig = fig7::run(&cfg);
    println!("{}", fig7::render(&fig));
    harness.finish(0);
}
