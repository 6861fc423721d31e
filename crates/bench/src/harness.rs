//! The global flags shared by every experiment binary and the `cnnre` CLI,
//! parsed in one place.
//!
//! [`Harness::from_args`] strips `--threads`, `--profile-out`,
//! `--profile-clock`, `--events-out`, `--serve-obs`, `--serve-obs-hold`,
//! `--log-level` and the caller's metrics flag from the process arguments,
//! applies them, and hands the remaining arguments back in order.
//! [`Harness::finish`] writes the requested files and exits.
//!
//! The metrics file stays per caller ([`MetricsFile`]): experiment
//! binaries write a flat `BENCH_<experiment>.json` that keeps the
//! `wall_ns` metrics `perf_gate` reads, while `cnnre --metrics` writes the
//! deterministic snapshot.

use std::path::{Path, PathBuf};

use cnnre_obs::http::ObsServer;
use cnnre_obs::log::Level;
use cnnre_obs::profile::ClockDomain;

/// The caller's metric snapshot: which flag names its file and which
/// format is written there at exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFile {
    /// `--out FILE`: a flat `BENCH_<experiment>.json`, wall-clock metrics
    /// included.
    Bench(&'static str),
    /// `--metrics FILE`: the sorted snapshot without wall-clock metrics,
    /// byte-identical across identical seeded runs.
    Deterministic,
}

impl MetricsFile {
    fn flag(self) -> &'static str {
        match self {
            Self::Bench(_) => "--out",
            Self::Deterministic => "--metrics",
        }
    }
}

/// The global flags, parsed but not yet applied.
#[derive(Debug, PartialEq, Eq)]
struct GlobalFlags {
    threads: Option<usize>,
    /// The caller's metrics file (`--out` or `--metrics`).
    metrics_out: Option<PathBuf>,
    profile_out: Option<PathBuf>,
    profile_clock: ClockDomain,
    events_out: Option<PathBuf>,
    serve_obs: Option<String>,
    serve_obs_hold: bool,
    /// `Some(None)` is `--log-level off`.
    log_level: Option<Option<Level>>,
}

impl GlobalFlags {
    /// Removes the global flags from `args`, wherever they appear, and
    /// leaves every other argument in its original order.
    ///
    /// # Errors
    ///
    /// A usage message when a flag lacks its value, a value does not
    /// parse, or `--serve-obs-hold` comes without `--serve-obs`.
    fn parse(args: &mut Vec<String>, metrics: MetricsFile) -> Result<Self, String> {
        let metrics_out = take_flag_value(args, metrics.flag())?.map(PathBuf::from);
        let profile_out = take_flag_value(args, "--profile-out")?.map(PathBuf::from);
        let events_out = take_flag_value(args, "--events-out")?.map(PathBuf::from);
        let serve_obs = take_flag_value(args, "--serve-obs")?;
        let serve_obs_hold = take_flag(args, "--serve-obs-hold");
        if serve_obs_hold && serve_obs.is_none() {
            return Err("--serve-obs-hold needs --serve-obs ADDR".into());
        }
        let threads = take_flag_value(args, "--threads")?
            .map(|v| match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err("--threads needs a positive integer worker count".to_string()),
            })
            .transpose()?;
        let profile_clock = match take_flag_value(args, "--profile-clock")? {
            Some(v) => ClockDomain::parse(&v)
                .ok_or_else(|| format!("unknown profile clock '{v}' (wall|cycles|both)"))?,
            None => ClockDomain::Both,
        };
        let log_level = take_flag_value(args, "--log-level")?
            .map(|v| {
                Level::parse(&v).ok_or_else(|| {
                    format!("unknown log level '{v}' (error|warn|info|debug|trace|off)")
                })
            })
            .transpose()?;
        Ok(Self {
            threads,
            metrics_out,
            profile_out,
            profile_clock,
            events_out,
            serve_obs,
            serve_obs_hold,
            log_level,
        })
    }
}

/// Removes `name <value>` from `args`, returning the value.
///
/// # Errors
///
/// A usage message when `name` is the last argument.
pub fn take_flag_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// Removes the bare flag `name` from `args`, returning whether it was
/// present.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let pos = args.iter().position(|a| a == name);
    if let Some(pos) = pos {
        args.remove(pos);
    }
    pos.is_some()
}

/// The applied global flags, plus the files and daemon that
/// [`Harness::finish`] still has to deal with.
pub struct Harness {
    metrics: MetricsFile,
    flags: GlobalFlags,
    daemon: Option<ObsServer>,
}

impl Harness {
    /// Parses the process arguments, applies the global flags, and returns
    /// the harness with the arguments left for the caller. Call at the top
    /// of `main`, before any config is built, so `SolverConfig::default`
    /// and `RecoveryConfig::default` pick up `--threads`.
    ///
    /// Applying means: install the worker count
    /// ([`cnnre_attacks::exec::set_default_threads`]) and the log level,
    /// enable the instrumentation when any file is requested, the
    /// profiler ring for `--profile-out`, the recorded event stream for
    /// `--events-out`, and all three plus the HTTP daemon
    /// ([`cnnre_obs::http::serve`]) for `--serve-obs`. Output is byte-identical
    /// at any thread count (DESIGN.md §13).
    ///
    /// Exits with usage code 2 on a bad flag and with 1 when the
    /// `--serve-obs` bind fails.
    #[must_use]
    pub fn from_args(metrics: MetricsFile) -> (Self, Vec<String>) {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let flags = GlobalFlags::parse(&mut args, metrics).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        if let Some(n) = flags.threads {
            cnnre_attacks::exec::set_default_threads(n);
        }
        match flags.log_level {
            Some(Some(level)) => cnnre_obs::log::set_level(level),
            Some(None) => cnnre_obs::log::set_off(),
            None => {}
        }
        let serving = flags.serve_obs.is_some();
        if flags.metrics_out.is_some() || flags.profile_out.is_some() || flags.events_out.is_some()
        {
            cnnre_obs::set_enabled(true);
        }
        if flags.profile_out.is_some() || serving {
            cnnre_obs::profile::set_enabled(true);
        }
        if flags.events_out.is_some() || serving {
            cnnre_obs::stream::set_enabled(true);
            cnnre_obs::stream::set_record(true);
        }
        let daemon = flags.serve_obs.as_deref().map(|addr| {
            cnnre_obs::http::serve(addr).unwrap_or_else(|e| {
                eprintln!("cannot serve observability on {addr}: {e}");
                std::process::exit(1);
            })
        });
        let harness = Self {
            metrics,
            flags,
            daemon,
        };
        (harness, args)
    }

    /// Writes the profile, the event stream and the metrics file that were
    /// asked for, in that order. After a successful run (`code == 0`) with
    /// `--serve-obs-hold`, keeps serving the finished run until a scraper
    /// sends `GET /quit` (how `scripts/check.sh` diffs `/metrics` against
    /// the JSON export). Then shuts the daemon down and exits with `code`.
    ///
    /// Exits with code 1 when a file cannot be written.
    pub fn finish(mut self, code: i32) -> ! {
        if let Some(path) = &self.flags.profile_out {
            // Chrome Trace Event JSON by default, folded flamegraph stacks
            // for `.folded`/`.txt`. The cycle track is synthesized from
            // attached cycles, so it is byte-deterministic across identical
            // seeded runs; the wall track is not.
            let dropped = cnnre_obs::profile::dropped();
            let events = cnnre_obs::profile::export();
            let clock = self.flags.profile_clock;
            let rendered = if path
                .extension()
                .is_some_and(|e| e == "folded" || e == "txt")
            {
                cnnre_obs::profile::folded_stacks(&events, clock)
            } else {
                cnnre_obs::profile::chrome_trace(&events, clock)
            };
            write_or_exit(path, "profile", rendered.as_bytes());
            eprintln!(
                "profile written to {} ({} events, {dropped} dropped)",
                path.display(),
                events.len()
            );
        }
        if let Some(path) = &self.flags.events_out {
            let bytes = cnnre_obs::stream::recorded_stream_snapshot();
            write_or_exit(path, "events", &bytes);
            eprintln!(
                "events written to {} ({} bytes, {} dropped)",
                path.display(),
                bytes.len(),
                cnnre_obs::stream::dropped()
            );
        }
        if let Some(path) = &self.flags.metrics_out {
            let snapshot = cnnre_obs::global().snapshot();
            let rendered = match self.metrics {
                MetricsFile::Bench(experiment) => snapshot.to_bench_json(experiment),
                MetricsFile::Deterministic => snapshot.to_json(false),
            };
            write_or_exit(path, "metrics", rendered.as_bytes());
            eprintln!("metrics written to {}", path.display());
        }
        if let Some(mut daemon) = self.daemon.take() {
            if self.flags.serve_obs_hold && code == 0 {
                eprintln!(
                    "run finished; still serving http://{} until GET /quit (--serve-obs-hold)",
                    daemon.addr()
                );
                daemon.wait_quit();
            }
            // Explicit: `process::exit` skips destructors, and the daemon
            // owns live sockets plus a worker pool.
            daemon.shutdown();
        }
        std::process::exit(code);
    }
}

fn write_or_exit(path: &Path, what: &str, bytes: &[u8]) {
    if let Err(e) = std::fs::write(path, bytes) {
        eprintln!("cannot write {what} to {}: {e}", path.display());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    fn parse(args: &[&str], metrics: MetricsFile) -> Result<(GlobalFlags, Vec<String>), String> {
        let mut args = argv(args);
        GlobalFlags::parse(&mut args, metrics).map(|flags| (flags, args))
    }

    #[test]
    fn no_flags_parse_to_the_defaults() {
        let (flags, rest) = parse(&["table3"], MetricsFile::Bench("table3")).unwrap();
        assert_eq!(
            flags,
            GlobalFlags {
                threads: None,
                metrics_out: None,
                profile_out: None,
                profile_clock: ClockDomain::Both,
                events_out: None,
                serve_obs: None,
                serve_obs_hold: false,
                log_level: None,
            }
        );
        assert_eq!(rest, argv(&["table3"]));
    }

    #[test]
    fn every_value_flag_needs_its_value() {
        for (flag, metrics) in [
            ("--out", MetricsFile::Bench("fig3")),
            ("--metrics", MetricsFile::Deterministic),
            ("--profile-out", MetricsFile::Deterministic),
            ("--profile-clock", MetricsFile::Deterministic),
            ("--events-out", MetricsFile::Deterministic),
            ("--serve-obs", MetricsFile::Deterministic),
            ("--threads", MetricsFile::Deterministic),
            ("--log-level", MetricsFile::Deterministic),
        ] {
            let err = parse(&["attack", "lenet", flag], metrics).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn threads_must_be_a_positive_integer() {
        for bad in ["0", "x", "-1", ""] {
            assert!(
                parse(&["--threads", bad], MetricsFile::Deterministic).is_err(),
                "--threads {bad:?} accepted"
            );
        }
        let (flags, _) = parse(&["--threads", "8"], MetricsFile::Deterministic).unwrap();
        assert_eq!(flags.threads, Some(8));
    }

    #[test]
    fn unknown_profile_clock_and_log_level_are_rejected() {
        let err = parse(&["--profile-clock", "lunar"], MetricsFile::Deterministic).unwrap_err();
        assert!(err.contains("lunar"), "got: {err}");
        let err = parse(&["--log-level", "shouty"], MetricsFile::Deterministic).unwrap_err();
        assert!(err.contains("shouty"), "got: {err}");
        let (flags, _) = parse(
            &["--profile-clock", "cycles", "--log-level", "off"],
            MetricsFile::Deterministic,
        )
        .unwrap();
        assert_eq!(flags.profile_clock, ClockDomain::Cycles);
        assert_eq!(flags.log_level, Some(None));
    }

    #[test]
    fn serve_obs_hold_needs_serve_obs() {
        let err = parse(&["--serve-obs-hold"], MetricsFile::Bench("table3")).unwrap_err();
        assert!(err.contains("--serve-obs ADDR"), "got: {err}");
        let (flags, rest) = parse(
            &["--serve-obs-hold", "--serve-obs", "127.0.0.1:0"],
            MetricsFile::Bench("table3"),
        )
        .unwrap();
        assert!(flags.serve_obs_hold);
        assert_eq!(flags.serve_obs.as_deref(), Some("127.0.0.1:0"));
        assert!(rest.is_empty());
    }

    #[test]
    fn known_flags_are_stripped_and_the_rest_keep_their_order() {
        let (flags, rest) = parse(
            &[
                "attack-weights",
                "--threads",
                "2",
                "--filters",
                "4",
                "--metrics",
                "m.json",
                "--via-trace",
                "--serve-obs-hold",
                "--profile-out",
                "p.folded",
                "--serve-obs",
                "127.0.0.1:0",
                "--events-out",
                "run.evt",
                "extra",
            ],
            MetricsFile::Deterministic,
        )
        .unwrap();
        assert_eq!(
            rest,
            argv(&["attack-weights", "--filters", "4", "--via-trace", "extra"])
        );
        assert_eq!(flags.threads, Some(2));
        assert_eq!(flags.metrics_out, Some(PathBuf::from("m.json")));
        assert_eq!(flags.profile_out, Some(PathBuf::from("p.folded")));
        assert_eq!(flags.events_out, Some(PathBuf::from("run.evt")));
    }

    #[test]
    fn only_the_callers_metrics_flag_is_taken() {
        let (flags, rest) = parse(
            &["--metrics", "m.json", "--out", "b.json"],
            MetricsFile::Bench("fig7"),
        )
        .unwrap();
        assert_eq!(flags.metrics_out, Some(PathBuf::from("b.json")));
        assert_eq!(rest, argv(&["--metrics", "m.json"]));
        let (flags, rest) = parse(
            &["--metrics", "m.json", "--out", "b.json"],
            MetricsFile::Deterministic,
        )
        .unwrap();
        assert_eq!(flags.metrics_out, Some(PathBuf::from("m.json")));
        assert_eq!(rest, argv(&["--out", "b.json"]));
    }
}
