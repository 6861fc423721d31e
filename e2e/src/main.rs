//! `e2e`: the end-to-end attack benchmark's command line.
//!
//! ```text
//! e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//!     [--trace-out FILE] [--out FILE]      one workload, in this process
//! e2e [--seed N] [--seconds S] [--trace 0|1] [--threads N] [--out FILE]
//!                                          every workload, each in a child
//! e2e compare --base A.json... --new B.json... [--bench BENCHMARK.json]
//! ```
//!
//! A run prints `workload metric value unit` lines, then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. It exits 1 when any request failed a check.

use std::process::{Command, ExitCode, Stdio};

use cnnre_e2e::workload::{Scale, Workload};
use cnnre_e2e::{compare, json, run, Report, RunConfig, DEFAULT_SEED};

/// Default length of a run's timed loop (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 15.0;

/// Default exec-pool workers: the 2 CPUs the benchmark was sized on.
const DEFAULT_THREADS: usize = 2;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        threads: DEFAULT_THREADS,
        trace_out: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&a.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--threads" => {
                a.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if a.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--trace-out" => a.trace_out = Some(value()?.clone()),
            "--out" => a.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.trace_out.is_some() {
        a.trace = true;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..])
    } else {
        parse_args(&args).and_then(|a| match a.workload {
            Some(w) => one(w, &a),
            None => all(&a),
        })
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process.
fn one(workload: Workload, a: &Args) -> Result<ExitCode, String> {
    cnnre_attacks::exec::set_default_threads(a.threads);
    let report = run(&RunConfig {
        workload,
        scale: Scale::Full,
        seed: a.seed,
        seconds: a.seconds,
        threads: a.threads,
        trace: a.trace,
        fault: false,
    });
    print_report(&report);
    let result = report.result_json();
    if let Some(path) = &a.trace_out {
        write(path, &report.recorder.chrome_trace())?;
    }
    if let Some(path) = &a.out {
        write(path, &out_file(a.seed, &[(workload, result.clone())]))?;
    }
    println!("{result}");
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_report(r: &Report) {
    let w = r.workload.name();
    for (spec, value) in &r.metrics {
        println!("{w} {} {value} {}", spec.name, spec.unit);
    }
    let failed = r.failures.len();
    println!(
        "# {w}: median over {} timed requests; failed {failed} of {} attempted (failed_frac {})",
        r.samples,
        r.attempted,
        failed as f64 / r.attempted.max(1) as f64
    );
    for f in &r.failures {
        eprintln!("{w}: {f}");
    }
}

/// Runs every workload, each in a child process of its own so each
/// reports its own peak memory.
fn all(a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the e2e binary: {e}"))?;
    let mut results = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--threads", &a.threads.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(path) = &a.trace_out {
            cmd.args(["--trace-out", &format!("{path}.{}.json", w.name())]);
        }
        let child = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let correct = match json::parse(result)
            .ok()
            .and_then(|v| v.get("correct").cloned())
        {
            Some(json::Value::Bool(b)) => Some(b),
            _ => None,
        };
        if !child.status.success() || correct != Some(true) {
            eprintln!("e2e: workload {} failed ({})", w.name(), child.status);
            ok = false;
        }
        if correct.is_some() {
            results.push((w, result.to_string()));
        }
    }
    if let Some(path) = &a.out {
        write(path, &out_file(a.seed, &results))?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// An `--out` file: the seed and each workload's result object.
fn out_file(seed: u64, results: &[(Workload, String)]) -> String {
    let body: Vec<String> = results
        .iter()
        .map(|(w, r)| format!("    {}: {r}", json::quote(w.name())))
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        body.join(",\n")
    )
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut base, mut new) = (Vec::new(), Vec::new());
    let mut bench = "BENCHMARK.json".to_string();
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--new" => side = Some(&mut new),
            "--bench" => {
                bench = it.next().ok_or("--bench needs a value")?.clone();
                side = None;
            }
            file => side
                .as_mut()
                .ok_or_else(|| format!("{file}: expected --base or --new first"))?
                .push(file.to_string()),
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err("compare needs --base FILE... and --new FILE...".into());
    }
    let load = |path: &String| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let gates = compare::gates(&load(&bench)?)?;
    let runs = |files: &[String]| -> Result<Vec<_>, String> {
        files
            .iter()
            .map(|f| {
                load(f)
                    .and_then(|v| compare::runs_of(&v))
                    .map_err(|e| format!("{f}: {e}"))
            })
            .collect()
    };
    let (table, worse) = compare::compare(&gates, &runs(&base)?, &runs(&new)?);
    print!("{table}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
