//! Regenerates the paper's Figure 3 (plus a CSV for external plotting).
use std::io::Write;

fn main() {
    let (harness, _) = cnnre_bench::Harness::from_args(cnnre_bench::MetricsFile::Bench("fig3"));
    let fig = cnnre_bench::experiments::fig3::run(97);
    println!("{}", cnnre_bench::experiments::fig3::render(&fig));
    let path = std::env::temp_dir().join("cnnre_fig3_trace.csv");
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "cycle,address,is_write");
        for (cycle, addr, w) in &fig.series {
            let _ = writeln!(f, "{cycle},{addr},{}", u8::from(*w));
        }
        println!("full series written to {}", path.display());
    }
    harness.finish(0);
}
