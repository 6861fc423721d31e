//! Live-observability-plane gates: the `/metrics` scrape of the golden
//! LeNet pipeline (trace generation plus structure recovery, the paper's
//! Fig. 3 setting) must be byte-identical across consecutive scrapes —
//! the scrape must not perturb itself — and match the checked-in
//! `tests/golden/lenet_metrics.prom`, while `/events` serves exactly
//! `tests/golden/lenet_events.evt`; and the whole CLI flow
//! (`--serve-obs` + `--serve-obs-hold` + `obs-probe --against --quit`)
//! must hand shake end to end as two real processes, with `/events` and
//! `/progress` still whole during the hold.
//!
//! Regenerate the golden after an intentional metric or exposition
//! change:
//!
//! ```text
//! cargo test --test obs_http -- --ignored regenerate_golden_metrics
//! ```
//!
//! The registry is global, so the in-process test performs its entire
//! pipeline + serve + scrape sequence in one `#[test]` body.

use cnn_reveng::accel::{AccelConfig, Accelerator};
use cnn_reveng::attacks::structure::{recover_structures, NetworkSolverConfig};
use cnn_reveng::nn::models::lenet;
use cnnre_obs::http::get;
use cnnre_tensor::rng::{SeedableRng, SmallRng};
use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::Duration;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs the golden pipeline (LeNet seed-0 trace + structure recovery)
/// from a clean registry, leaving the populated registry and recorded
/// event stream in place for scraping.
fn golden_pipeline() {
    cnnre_obs::set_enabled(true);
    cnnre_obs::global().reset();
    cnnre_obs::stream::reset();
    cnnre_obs::stream::set_enabled(true);
    cnnre_obs::stream::set_record(true);
    let mut rng = SmallRng::seed_from_u64(0);
    let net = lenet(1, 10, &mut rng);
    let exec = Accelerator::new(AccelConfig::default())
        .run_trace_only(&net)
        .expect("LeNet lowers onto the accelerator");
    recover_structures(&exec.trace, (32, 1), 10, &NetworkSolverConfig::default())
        .expect("structures recoverable");
}

fn teardown() {
    cnnre_obs::stream::set_record(false);
    cnnre_obs::stream::set_enabled(false);
    cnnre_obs::stream::reset();
    cnnre_obs::set_enabled(false);
    cnnre_obs::global().reset();
}

#[test]
fn live_scrape_is_deterministic_and_matches_golden() {
    golden_pipeline();
    let mut daemon = cnnre_obs::http::serve("127.0.0.1:0").expect("bind loopback");
    let addr = daemon.addr().to_string();

    // Scrape-during-live-registry determinism: the first scrape records
    // http.* activity of its own, yet the second scrape must render
    // byte-identically because that family is volatile.
    let (status, first) = get(&addr, "/metrics").expect("first scrape");
    assert_eq!(status, 200);
    let (_, second) = get(&addr, "/metrics").expect("second scrape");
    assert_eq!(first, second, "scraping /metrics must not perturb it");
    let text = String::from_utf8_lossy(&first).into_owned();
    assert!(
        !text.contains("_wall_ns") && !text.contains("cnnre_http_"),
        "volatile families must be excluded from the default exposition"
    );
    let (_, with_volatile) = get(&addr, "/metrics?volatile=1").expect("volatile scrape");
    assert!(
        String::from_utf8_lossy(&with_volatile).contains("cnnre_http_requests"),
        "?volatile=1 must include the live http.* families"
    );

    let (status, body) = get(&addr, "/health").expect("health");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"status\": \"ok\""));
    let (status, body) = get(&addr, "/profile?clock=cycles").expect("profile");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("traceEvents"));
    let (status, body) = get(&addr, "/progress").expect("progress");
    assert_eq!(status, 200);
    let progress = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(
        progress_labels(&progress),
        ["accel.run_trace_only", "attack.structure"],
        "/progress must fold one row per recorded run: {progress}"
    );
    let (status, body) = get(&addr, "/events").expect("events");
    assert_eq!(status, 200);
    let golden_events = std::fs::read(golden_path("lenet_events.evt")).expect("golden .evt exists");
    assert!(
        body == golden_events,
        "/events must serve the recording of the golden pipeline byte for byte \
         (tests/golden/lenet_events.evt)"
    );

    daemon.shutdown();

    let golden = std::fs::read_to_string(golden_path("lenet_metrics.prom"))
        .expect("golden .prom exists; regenerate with the ignored test");
    assert!(
        golden == text,
        "tests/golden/lenet_metrics.prom is stale: the pipeline's metrics or \
         the Prometheus exposition changed; rerun `cargo test --test obs_http \
         -- --ignored regenerate_golden_metrics` if the change is intentional"
    );
    teardown();
}

#[test]
#[ignore = "writes tests/golden/lenet_metrics.prom; run explicitly after intentional changes"]
fn regenerate_golden_metrics() {
    golden_pipeline();
    let rendered = cnnre_obs::global().snapshot().to_prometheus(false);
    std::fs::write(golden_path("lenet_metrics.prom"), rendered).expect("golden .prom written");
    teardown();
}

/// A `cnnre` child run with `--serve-obs 127.0.0.1:0 --serve-obs-hold`,
/// holding its finished run until a scraper sends `/quit`.
struct HeldRun {
    child: Child,
    addr: String,
    tmp: PathBuf,
    /// The `--metrics` snapshot, written right before the hold.
    metrics: PathBuf,
    /// The child's stdout, complete once it holds.
    stdout: PathBuf,
}

impl HeldRun {
    /// Spawns `cnnre ARGS --serve-obs 127.0.0.1:0 --serve-obs-hold
    /// --metrics FILE` with its address published through
    /// `CNNRE_OBS_ADDR_FILE`, and waits until it holds. `args` may name
    /// files inside [`HeldRun::path`]`(tag, ..)`.
    fn spawn(tag: &str, args: &[&OsStr]) -> Self {
        let tmp = Self::dir(tag);
        std::fs::create_dir_all(&tmp).expect("temp dir");
        let addr_file = tmp.join("addr");
        let metrics = tmp.join("metrics.json");
        let stdout = tmp.join("stdout.txt");
        let mut child = Command::new(env!("CARGO_BIN_EXE_cnnre"))
            .args(args)
            .args([
                "--serve-obs",
                "127.0.0.1:0",
                "--serve-obs-hold",
                "--metrics",
            ])
            .arg(&metrics)
            .env("CNNRE_OBS_ADDR_FILE", &addr_file)
            .stdout(std::fs::File::create(&stdout).expect("stdout file"))
            .spawn()
            .expect("spawn cnnre --serve-obs");
        // The metrics snapshot lands right before the hold, so both files
        // present means the server is up with the finished run's registry.
        let mut ready = false;
        for _ in 0..600 {
            if addr_file.exists() && metrics.exists() {
                ready = true;
                break;
            }
            if let Some(status) = child.try_wait().expect("child pollable") {
                panic!("cnnre exited before serving (status {status})");
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(ready, "server did not come up within the poll budget");
        let addr = std::fs::read_to_string(&addr_file)
            .expect("address file readable")
            .trim()
            .to_string();
        Self {
            child,
            addr,
            tmp,
            metrics,
            stdout,
        }
    }

    /// The per-process scratch directory of the run named `tag`.
    fn dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cnnre-obs-http-{tag}-{}", std::process::id()))
    }

    fn get(&self, path: &str) -> Vec<u8> {
        let (status, body) = get(&self.addr, path).expect("scrape");
        assert_eq!(status, 200, "GET {path}");
        body
    }

    /// Waits for the child to exit after a `/quit`.
    fn finish(mut self) {
        let run = self.child.wait().expect("cnnre exits after /quit");
        assert!(run.success(), "cnnre run failed (status {run})");
    }
}

impl Drop for HeldRun {
    /// A failed assertion leaves the child holding; kill it, or its
    /// inherited stderr keeps the test harness waiting.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// The run labels of a `/progress` body, in order.
fn progress_labels(progress: &str) -> Vec<&str> {
    progress
        .split("\"label\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

/// The CLI handshake as two real processes: `cnnre attack-structure
/// --serve-obs --serve-obs-hold --metrics --events-out` publishing its port
/// through `CNNRE_OBS_ADDR_FILE`, probed and quit by `cnnre obs-probe
/// --against --quit` — the same flow `scripts/check.sh` drives. Writing
/// `--events-out` must leave `/events` and `/progress` whole for the hold.
#[test]
fn serve_obs_cli_flow_roundtrips_between_processes() {
    let events_file = HeldRun::dir("structure").join("run.evt");
    let held = HeldRun::spawn(
        "structure",
        &[
            OsStr::new("attack-structure"),
            OsStr::new("lenet"),
            OsStr::new("--events-out"),
            events_file.as_os_str(),
        ],
    );
    let written = std::fs::read(&events_file).expect("--events-out written before the hold");
    assert!(
        written.len() > cnnre_obs::stream::header().len(),
        "the recording holds frames"
    );
    assert!(
        held.get("/events") == written,
        "/events during the hold must serve the --events-out bytes"
    );
    let progress = String::from_utf8(held.get("/progress")).expect("utf-8 JSON");
    assert_eq!(
        progress_labels(&progress),
        ["accel.run_trace_only", "attack.structure"],
        "{progress}"
    );
    // The probe parses the export rather than its line layout: the same
    // members on one line must pass as well.
    let export = std::fs::read_to_string(&held.metrics).expect("metrics export");
    let one_line = held.tmp.join("one_line.json");
    std::fs::write(&one_line, export.lines().map(str::trim).collect::<String>())
        .expect("one-line export written");
    let probe = Command::new(env!("CARGO_BIN_EXE_cnnre"))
        .args(["obs-probe", &held.addr, "--against"])
        .arg(&one_line)
        .status()
        .expect("obs-probe runs");
    assert!(probe.success(), "obs-probe rejected a one-line export");
    let probe = Command::new(env!("CARGO_BIN_EXE_cnnre"))
        .args(["obs-probe", &held.addr, "--against"])
        .arg(&held.metrics)
        .arg("--quit")
        .status()
        .expect("obs-probe runs");
    assert!(probe.success(), "obs-probe found a failing endpoint");
    held.finish();
}

/// `/progress` after a weights attack that sends thousands of victim
/// queries through the accelerator: one row for the attack, none for the
/// suppressed per-query accelerator runs, and the victim-query count the
/// command printed.
#[test]
fn progress_after_a_victim_heavy_weights_attack_lists_one_run() {
    let held = HeldRun::spawn(
        "weights",
        &[
            OsStr::new("attack-weights"),
            OsStr::new("--via-trace"),
            OsStr::new("--filters"),
            OsStr::new("1"),
        ],
    );
    let progress = String::from_utf8(held.get("/progress")).expect("utf-8 JSON");
    assert_eq!(progress_labels(&progress), ["attack.weights"], "{progress}");
    assert!(!progress.contains("accel.run"), "{progress}");
    let queries: u64 = progress
        .split("\"queries\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .expect("the run row carries WeightRecovered queries");
    let stdout = std::fs::read_to_string(&held.stdout).expect("stdout readable");
    let printed: u64 = stdout
        .split(" victim queries")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("the command prints its victim queries");
    assert_eq!(queries, printed, "{progress}\n{stdout}");
    let (status, _) = get(&held.addr, "/quit").expect("quit");
    assert_eq!(status, 200);
    held.finish();
}
