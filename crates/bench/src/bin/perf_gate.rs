//! `perf_gate` — diff freshly produced `BENCH_*.json` snapshots against
//! committed baselines.
//!
//! ```console
//! $ perf_gate <baseline.json> <current.json> [--rel-tol FRAC] [--report FILE]
//! $ perf_gate --speedup <single.json> <multi.json> --floors <SPEEDUP.json>
//! ```
//!
//! The default mode fails on regressions (cost metrics getting larger).
//! `--speedup` is the *improvement* gate: it compares a single-threaded
//! and a multi-threaded snapshot of the same experiment against the
//! committed minimum-speedup floors, failing when parallel execution
//! stops being faster than sequential.
//!
//! Exit codes follow the workspace convention: 0 clean (improvements and
//! wall-clock drift included), 1 regressions or lost metrics, 2 usage
//! errors or malformed input. The report written to stdout (and to
//! `--report FILE` when given) is byte-deterministic (speedup reports
//! print measured wall-clock ratios, which vary run to run). See
//! `scripts/perf_gate.sh` for the end-to-end gate over fig3/fig7/table3.

use cnnre_bench::gate::{compare, compare_speedup, GateConfig};
use cnnre_bench::harness::{take_flag, take_flag_value};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let take_value = |args: &mut Vec<String>, name: &str| {
        take_flag_value(args, name).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    };
    let mut cfg = GateConfig::default();
    if let Some(v) = take_value(&mut args, "--rel-tol") {
        match v.parse::<f64>() {
            Ok(t) if t >= 0.0 => cfg.rel_tol = t,
            _ => {
                eprintln!("--rel-tol expects a non-negative fraction, got '{v}'");
                std::process::exit(2);
            }
        }
    }
    let report_path = take_value(&mut args, "--report");
    let floors_path = take_value(&mut args, "--floors");
    let speedup_mode = take_flag(&mut args, "--speedup");
    let read = |path: &String| match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let (rendered, failed) = if speedup_mode {
        let (Some(floors_path), [single_path, multi_path]) = (floors_path, &args[..]) else {
            eprintln!("usage: perf_gate --speedup <single.json> <multi.json> --floors <SPEEDUP.json> [--report FILE]");
            std::process::exit(2);
        };
        let floors = read(&floors_path);
        let single = read(single_path);
        let multi = read(multi_path);
        match compare_speedup(&floors, &single, &multi) {
            Ok(r) => (r.render(), r.failed()),
            Err(e) => {
                eprintln!("speedup gate: {e}");
                std::process::exit(2);
            }
        }
    } else {
        if floors_path.is_some() {
            eprintln!("--floors only applies with --speedup");
            std::process::exit(2);
        }
        let [baseline_path, current_path] = &args[..] else {
            eprintln!(
                "usage: perf_gate <baseline.json> <current.json> [--rel-tol FRAC] [--report FILE]"
            );
            std::process::exit(2);
        };
        let baseline = read(baseline_path);
        let current = read(current_path);
        match compare(&baseline, &current, &cfg) {
            Ok(r) => (r.render(), r.failed()),
            Err(e) => {
                eprintln!("perf gate: {e}");
                std::process::exit(2);
            }
        }
    };
    print!("{rendered}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("cannot write report to {path}: {e}");
            std::process::exit(2);
        }
    }
    std::process::exit(i32::from(failed));
}
