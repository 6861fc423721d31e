//! Live-observability-plane gates: the `/metrics` scrape of the golden
//! LeNet pipeline (trace generation plus structure recovery, the paper's
//! Fig. 3 setting) must be byte-identical across consecutive scrapes —
//! the scrape must not perturb itself — and match the checked-in
//! `tests/golden/lenet_metrics.prom`, while `/events` serves exactly
//! `tests/golden/lenet_events.evt`; and the whole CLI flow
//! (`--serve-obs` + `--serve-obs-hold` + `obs-probe --against --quit`)
//! must hand shake end to end as two real processes.
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
use std::path::PathBuf;
use std::process::{Command, Stdio};
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
    cnnre_obs::run::reset();
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
    cnnre_obs::run::reset();
}

#[test]
fn live_scrape_is_deterministic_and_matches_golden() {
    golden_pipeline();
    let mut daemon = cnn_reveng::attacks::obsd::serve("127.0.0.1:0").expect("bind loopback");
    let addr = daemon.addr().to_string();

    // Scrape-during-live-registry determinism: the first scrape records
    // http.* and exec.pool.* activity of its own, yet the second scrape
    // must render byte-identically because those families are volatile.
    let (status, first) = get(&addr, "/metrics").expect("first scrape");
    assert_eq!(status, 200);
    let (_, second) = get(&addr, "/metrics").expect("second scrape");
    assert_eq!(first, second, "scraping /metrics must not perturb it");
    let text = String::from_utf8_lossy(&first).into_owned();
    assert!(
        !text.contains("_wall_ns")
            && !text.contains("cnnre_http_")
            && !text.contains("cnnre_exec_pool_"),
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
    assert!(progress.contains("\"runs\""));
    assert!(
        progress.contains("attack.structure"),
        "the run table must list the structure attack: {progress}"
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

/// The CLI handshake as two real processes: `cnnre attack-structure
/// --serve-obs --serve-obs-hold --metrics` publishing its port through
/// `CNNRE_OBS_ADDR_FILE`, probed and quit by `cnnre obs-probe --against
/// --quit` — the same flow `scripts/check.sh` drives.
#[test]
fn serve_obs_cli_flow_roundtrips_between_processes() {
    let tmp = std::env::temp_dir().join(format!("cnnre-obs-http-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let addr_file = tmp.join("addr");
    let metrics_file = tmp.join("metrics.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_cnnre"))
        .args([
            "attack-structure",
            "lenet",
            "--serve-obs",
            "127.0.0.1:0",
            "--serve-obs-hold",
            "--metrics",
        ])
        .arg(&metrics_file)
        .env("CNNRE_OBS_ADDR_FILE", &addr_file)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn cnnre --serve-obs");
    // The metrics snapshot lands right before the hold, so both files
    // present means the server is up with the finished run's registry.
    let mut ready = false;
    for _ in 0..600 {
        if addr_file.exists() && metrics_file.exists() {
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
    let probe = Command::new(env!("CARGO_BIN_EXE_cnnre"))
        .args(["obs-probe", &addr, "--against"])
        .arg(&metrics_file)
        .arg("--quit")
        .status()
        .expect("obs-probe runs");
    assert!(probe.success(), "obs-probe found a failing endpoint");
    let run = child.wait().expect("cnnre exits after /quit");
    assert!(run.success(), "cnnre run failed (status {run})");
    let _ = std::fs::remove_dir_all(&tmp);
}
