//! Regenerates the paper's Figure 5 (SqueezeNet candidate top-5 ranking).
use cnnre_bench::experiments::fig5;

fn main() {
    let (harness, _) = cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("fig5"));
    let cfg = if cnnre_bench::quick_mode() {
        fig5::RankingConfig::quick()
    } else {
        fig5::RankingConfig::standard()
    };
    let fig = fig5::run(&cfg);
    println!("{}", fig5::render(&fig));
    harness.finish(0);
}
