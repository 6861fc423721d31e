//! Regenerates the paper's Figure 4 (candidate accuracy ranking).
use cnnre_bench::experiments::fig4;

fn main() {
    let (harness, _) = cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("fig4"));
    let cfg = if cnnre_bench::quick_mode() {
        fig4::RankingConfig::quick()
    } else {
        fig4::RankingConfig::standard()
    };
    let fig = fig4::run(&cfg);
    println!("{}", fig4::render(&fig));
    harness.finish(0);
}
