//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see the workspace DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results).
//!
//! Each experiment has
//!
//! * a library entry point under [`experiments`] returning a structured
//!   result,
//! * a binary (`cargo run -p cnnre-bench --release --bin <name>`) that
//!   prints the regenerated table/figure, and
//! * a wall-clock bench (`cargo bench -p cnnre-bench --bench <name>`) that
//!   times the attack kernel and prints the table once.
//!
//! Set `CNNRE_QUICK=1` to shrink the training-based experiments (figures 4
//! and 5) for smoke runs. Every binary accepts `--out FILE` to enable the
//! `cnnre-obs` instrumentation and write a flat `BENCH_<experiment>.json`
//! metric snapshot on exit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;

/// Whether quick (smoke-test) parameters were requested via `CNNRE_QUICK`.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("CNNRE_QUICK").is_ok_and(|v| v != "0")
}

/// Parses the `--threads N` flag shared by every experiment binary and
/// installs the worker count as the process-wide default
/// ([`cnnre_attacks::exec::set_default_threads`]), so every
/// thread-aware config built afterwards (`SolverConfig::default`,
/// `RecoveryConfig::default`) picks it up. Call at the top of `main`,
/// before the experiment constructs any config. Without the flag the
/// `CNNRE_THREADS` environment variable applies, else 1 (sequential).
///
/// Candidate output, counters, and golden artifacts are byte-identical at
/// any thread count (DESIGN.md §13) — only wall clock changes.
///
/// Exits with usage code 2 when `--threads` is given without a positive
/// integer.
pub fn parse_threads_flag() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(pos) = args.iter().position(|a| a == "--threads") else {
        return;
    };
    let threads = args.get(pos + 1).and_then(|v| v.parse::<usize>().ok());
    let Some(threads) = threads.filter(|&n| n >= 1) else {
        eprintln!("--threads needs a positive integer worker count");
        std::process::exit(2);
    };
    cnnre_attacks::exec::set_default_threads(threads);
}

/// Parses the `--out FILE` flag shared by every experiment binary and, when
/// present, enables the global instrumentation so the experiment populates
/// the registry. Call at the top of `main`, before running the experiment;
/// pass the result to [`write_out`] afterwards.
///
/// Exits with usage code 2 when `--out` is given without a path.
#[must_use]
pub fn parse_out_flag() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pos = args.iter().position(|a| a == "--out")?;
    let Some(path) = args.get(pos + 1) else {
        eprintln!("--out needs a file path");
        std::process::exit(2);
    };
    cnnre_obs::set_enabled(true);
    Some(std::path::PathBuf::from(path))
}

/// Writes the accumulated metrics as a flat `BENCH_<experiment>.json`
/// snapshot when [`parse_out_flag`] returned a path; no-op otherwise.
///
/// Exits with code 1 when the file cannot be written.
pub fn write_out(path: Option<std::path::PathBuf>, experiment: &str) {
    let Some(path) = path else { return };
    let snapshot = cnnre_obs::global().snapshot();
    match snapshot.write_bench_json(&path, experiment) {
        Ok(()) => eprintln!("metrics written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write metrics to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The `--profile-out FILE` / `--profile-clock wall|cycles|both` flag pair
/// shared by every experiment binary. When `--profile-out` is present this
/// enables both the instrumentation and the timeline recorder; pass the
/// result to [`write_profile`] after the experiment.
///
/// Exits with usage code 2 on a missing path or an unknown clock domain.
#[must_use]
pub fn parse_profile_flags() -> Option<(std::path::PathBuf, cnnre_obs::profile::ClockDomain)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clock = match args.iter().position(|a| a == "--profile-clock") {
        Some(pos) => {
            let Some(v) = args.get(pos + 1) else {
                eprintln!("--profile-clock needs a value (wall|cycles|both)");
                std::process::exit(2);
            };
            match cnnre_obs::profile::ClockDomain::parse(v) {
                Some(c) => c,
                None => {
                    eprintln!("unknown profile clock '{v}' (wall|cycles|both)");
                    std::process::exit(2);
                }
            }
        }
        None => cnnre_obs::profile::ClockDomain::Both,
    };
    let pos = args.iter().position(|a| a == "--profile-out")?;
    let Some(path) = args.get(pos + 1) else {
        eprintln!("--profile-out needs a file path");
        std::process::exit(2);
    };
    cnnre_obs::set_enabled(true);
    cnnre_obs::profile::set_enabled(true);
    Some((std::path::PathBuf::from(path), clock))
}

/// The `--events-out FILE` flag shared by every experiment binary: enables
/// the attack-event stream and records it for a `.evt` file. Pass the
/// returned path to [`write_events`] after the experiment. To watch a run
/// live, serve it with `--serve-obs` and read `/events` instead.
///
/// Exits with usage code 2 on a missing flag value.
#[must_use]
pub fn parse_event_flags() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pos = args.iter().position(|a| a == "--events-out")?;
    let Some(path) = args.get(pos + 1) else {
        eprintln!("--events-out needs a file path");
        std::process::exit(2);
    };
    cnnre_obs::set_enabled(true);
    cnnre_obs::stream::set_enabled(true);
    cnnre_obs::stream::set_record(true);
    Some(std::path::PathBuf::from(path))
}

/// The `--serve-obs ADDR` / `--serve-obs-hold` flag pair shared by every
/// experiment binary: starts the live observability daemon
/// ([`cnnre_attacks::obsd`]) so `/metrics`, `/profile`, `/progress`,
/// `/events`, and `/health` are scrapeable while the experiment runs.
/// Also enables the profiler ring and the recorded event stream (they
/// feed `/profile` and `/events`). Call at the top of `main` and pass
/// the result to [`finish_serve_obs`] at the end.
///
/// Exits with usage code 2 on a missing address, and 1 when the bind
/// fails.
#[must_use]
pub fn parse_serve_obs_flag() -> Option<(cnnre_attacks::obsd::ObsDaemon, bool)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let hold = args.iter().any(|a| a == "--serve-obs-hold");
    let Some(pos) = args.iter().position(|a| a == "--serve-obs") else {
        if hold {
            eprintln!("--serve-obs-hold needs --serve-obs ADDR");
            std::process::exit(2);
        }
        return None;
    };
    let Some(addr) = args.get(pos + 1) else {
        eprintln!("--serve-obs needs an address (e.g. 127.0.0.1:0)");
        std::process::exit(2);
    };
    cnnre_obs::profile::set_enabled(true);
    cnnre_obs::stream::set_enabled(true);
    cnnre_obs::stream::set_record(true);
    match cnnre_attacks::obsd::serve(addr) {
        Ok(daemon) => Some((daemon, hold)),
        Err(e) => {
            eprintln!("cannot serve observability on {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// Finishes a [`parse_serve_obs_flag`] daemon: with `--serve-obs-hold`
/// it keeps serving the finished run's registry until a scraper sends
/// `GET /quit` (how `scripts/check.sh` diffs `/metrics` against the
/// JSON export), then shuts the server and its pool down.
pub fn finish_serve_obs(daemon: Option<(cnnre_attacks::obsd::ObsDaemon, bool)>) {
    let Some((mut daemon, hold)) = daemon else {
        return;
    };
    if hold {
        eprintln!(
            "bench: run finished; still serving http://{} until GET /quit (--serve-obs-hold)",
            daemon.addr()
        );
        daemon.wait_quit();
    }
    daemon.shutdown();
}

/// Drains the recorded event stream into the `.evt` file requested by
/// [`parse_event_flags`] (no-op when `--events-out` was absent).
///
/// Exits with code 1 when the file cannot be written.
pub fn write_events(path: Option<std::path::PathBuf>) {
    let Some(path) = path else { return };
    let bytes = cnnre_obs::stream::take_recorded_bytes();
    let dropped = cnnre_obs::stream::dropped();
    match std::fs::write(&path, &bytes) {
        Ok(()) => eprintln!(
            "events written to {} ({} bytes, {dropped} dropped)",
            path.display(),
            bytes.len()
        ),
        Err(e) => {
            eprintln!("cannot write events to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Drains the timeline recorder and writes the export chosen by the path's
/// extension (`.folded`/`.txt` → flamegraph stacks, anything else → Chrome
/// Trace Event JSON) when [`parse_profile_flags`] returned a destination;
/// no-op otherwise.
///
/// Exits with code 1 when the file cannot be written.
pub fn write_profile(dest: Option<(std::path::PathBuf, cnnre_obs::profile::ClockDomain)>) {
    let Some((path, clock)) = dest else { return };
    let events = cnnre_obs::profile::take();
    let ext_is_folded = path
        .extension()
        .is_some_and(|e| e == "folded" || e == "txt");
    let rendered = if ext_is_folded {
        cnnre_obs::profile::folded_stacks(&events, clock)
    } else {
        cnnre_obs::profile::chrome_trace(&events, clock)
    };
    match std::fs::write(&path, rendered) {
        Ok(()) => eprintln!(
            "profile written to {} ({} events)",
            path.display(),
            events.len()
        ),
        Err(e) => {
            eprintln!("cannot write profile to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
