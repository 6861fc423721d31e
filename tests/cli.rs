//! Integration tests of the `cnnre` command-line surface: every
//! subcommand parses, runs, and round-trips files as documented.

use std::process::Command;

fn cnnre() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cnnre"))
}

fn stdout_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_lists_every_subcommand_and_model() {
    let out = cnnre().arg("help").output().expect("runs");
    assert!(out.status.success());
    let text = stdout_of(&out);
    for needle in [
        "trace",
        "analyze",
        "attack-structure",
        "attack-weights",
        "defend",
    ] {
        assert!(text.contains(needle), "usage missing {needle}");
    }
    for model in [
        "lenet",
        "convnet",
        "alexnet",
        "squeezenet",
        "vgg11",
        "resnet",
    ] {
        assert!(text.contains(model), "usage missing model {model}");
    }
}

#[test]
fn unknown_command_and_model_fail_with_usage() {
    let out = cnnre().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = cnnre()
        .args(["trace", "nonexistent-model"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = cnnre()
        .args(["trace", "lenet/notanumber"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn trace_csv_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("cnnre-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("lenet.csv");
    let csv_str = csv.to_str().expect("utf-8 path");

    let out = cnnre()
        .args(["trace", "lenet", "--csv", csv_str])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout_of(&out).contains("transactions"));

    let out = cnnre()
        .args(["analyze", csv_str, "--input", "32x1", "--classes", "10"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout_of(&out);
    assert!(text.contains("18 possible structures"), "{text}");

    // Without attack parameters, analyze still reports trace shape.
    let out = cnnre()
        .args(["analyze", csv_str, "--stats"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = stdout_of(&out);
    assert!(text.contains("footprint"), "{text}");

    std::fs::remove_file(&csv).ok();
}

/// `analyze` solves at the block size in the file's header: a trace
/// captured with 32-byte bursts lists structures, not an error.
#[test]
fn analyze_uses_the_block_size_of_the_trace() {
    use cnn_reveng::accel::{AccelConfig, Accelerator};
    use cnn_reveng::nn::models::lenet;
    use cnnre_tensor::rng::{SeedableRng, SmallRng};

    let dir = std::env::temp_dir().join("cnnre-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("lenet-32b.csv");
    let mut rng = SmallRng::seed_from_u64(0);
    let exec = Accelerator::new(AccelConfig::default().with_block_bytes(32))
        .run_trace_only(&lenet(1, 10, &mut rng))
        .expect("network lowers onto the accelerator");
    let mut text = Vec::new();
    cnn_reveng::trace::io::write_csv(&exec.trace, &mut text).expect("write csv");
    std::fs::write(&csv, text).expect("write csv file");

    let out = cnnre()
        .args(["analyze", csv.to_str().expect("utf-8 path")])
        .args(["--input", "32x1", "--classes", "10"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout_of(&out);
    assert!(text.contains("possible structures"), "{text}");
    std::fs::remove_file(&csv).ok();
}

#[test]
fn analyze_rejects_malformed_files() {
    let dir = std::env::temp_dir().join("cnnre-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("garbage.csv");
    std::fs::write(&bad, "this is not a trace\n1,2\n").expect("write");
    let out = cnnre()
        .args(["analyze", bad.to_str().expect("utf-8")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
    std::fs::remove_file(&bad).ok();

    let out = cnnre()
        .args(["analyze", "/nonexistent/trace.csv"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn attack_structure_reports_candidates() {
    let out = cnnre()
        .args(["attack-structure", "lenet"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("18 possible structures"));
}

#[test]
fn attack_weights_reports_recovery() {
    let out = cnnre()
        .args(["attack-weights", "--filters", "2"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = stdout_of(&out);
    assert!(text.contains("recovered"), "{text}");
    assert!(text.contains("victim queries"), "{text}");
}

#[test]
fn defend_shows_the_oram_outcome() {
    let out = cnnre().args(["defend", "lenet"]).output().expect("runs");
    assert!(out.status.success());
    let text = stdout_of(&out);
    assert!(text.contains("Path-ORAM overhead"), "{text}");
    assert!(
        text.contains("attack FAILS") || text.contains("still recovers"),
        "{text}"
    );
}

#[test]
fn metrics_flag_writes_structure_attack_profile() {
    let dir = std::env::temp_dir().join("cnnre-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("structure-metrics.json");
    let path_str = path.to_str().expect("utf-8 path");

    let out = cnnre()
        .args(["attack-structure", "lenet", "--metrics", path_str])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = std::fs::read_to_string(&path).expect("metrics file written");
    assert!(
        json.trim_start().starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    for key in [
        "\"accel.dram.writes\":",
        "\"accel.dram.reads\":",
        "\"solver.candidates_per_layer\":",
        "\"solver.chain.structures_surviving\":",
        "\"trace.segment.events\":",
    ] {
        assert!(json.contains(key), "metrics missing {key}:\n{json}");
    }
    // Deterministic export: no wall-clock keys.
    assert!(!json.contains(".wall_ns"), "{json}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_flag_writes_weight_attack_profile() {
    let dir = std::env::temp_dir().join("cnnre-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("weights-metrics.json");
    let path_str = path.to_str().expect("utf-8 path");

    let out = cnnre()
        .args(["attack-weights", "--filters", "2", "--metrics", path_str])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = std::fs::read_to_string(&path).expect("metrics file written");
    for key in [
        "\"oracle.queries\":",
        "\"oracle.victim_queries\":",
        "\"weights.recovered\":",
        "\"weights.search.refine_steps\":",
        "\"weights.virtual.searches\":",
    ] {
        assert!(json.contains(key), "metrics missing {key}:\n{json}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn identical_runs_write_byte_identical_metrics() {
    let dir = std::env::temp_dir().join("cnnre-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("metrics-a.json");
    let b = dir.join("metrics-b.json");

    for path in [&a, &b] {
        let out = cnnre()
            .args([
                "attack-structure",
                "lenet",
                "--metrics",
                path.to_str().expect("utf-8"),
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let first = std::fs::read(&a).expect("first metrics file");
    let second = std::fs::read(&b).expect("second metrics file");
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "identical seeded runs must export identical bytes"
    );
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn debug_logging_goes_to_stderr_without_corrupting_stdout() {
    // Baseline stdout with logging off.
    let quiet = cnnre()
        .args(["attack-structure", "lenet"])
        .env_remove("CNNRE_LOG")
        .output()
        .expect("runs");
    assert!(quiet.status.success());

    // CNNRE_LOG=debug must emit to stderr and leave stdout byte-identical.
    let verbose = cnnre()
        .args(["attack-structure", "lenet"])
        .env("CNNRE_LOG", "debug")
        .output()
        .expect("runs");
    assert!(verbose.status.success());
    let err = String::from_utf8_lossy(&verbose.stderr);
    assert!(
        err.contains("[DEBUG"),
        "expected debug lines on stderr, got: {err}"
    );
    assert_eq!(
        quiet.stdout, verbose.stdout,
        "logging must not corrupt stdout"
    );

    // The --log-level flag overrides the environment.
    let flagged = cnnre()
        .args(["attack-structure", "lenet", "--log-level", "off"])
        .env("CNNRE_LOG", "debug")
        .output()
        .expect("runs");
    assert!(flagged.status.success());
    assert!(
        !String::from_utf8_lossy(&flagged.stderr).contains("[DEBUG"),
        "--log-level off must silence CNNRE_LOG=debug"
    );

    let bad = cnnre()
        .args(["attack-structure", "lenet", "--log-level", "shouty"])
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn list_metrics_prints_the_catalogue() {
    let out = cnnre().arg("--list-metrics").output().expect("runs");
    assert!(out.status.success());
    let text = stdout_of(&out);
    // Spot-check one entry per family plus the drop-accounting metric.
    for needle in [
        "oracle.queries",
        "solver.candidates_per_layer",
        "span.<path>.cycles",
        "profile.events.dropped",
    ] {
        assert!(text.contains(needle), "catalogue missing {needle}");
    }
}

#[test]
fn profile_out_writes_deterministic_cycle_domain_chrome_trace() {
    let dir = std::env::temp_dir().join("cnnre-cli-profile-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("profile-a.json");
    let b = dir.join("profile-b.json");

    for (i, path) in [&a, &b].into_iter().enumerate() {
        // First run via the `attack` alias, second via the full name:
        // both must dispatch to the same profiled pipeline.
        let cmd = if i == 0 { "attack" } else { "attack-structure" };
        let out = cnnre()
            .args([
                cmd,
                "lenet",
                "--profile-out",
                path.to_str().expect("utf-8"),
                "--profile-clock",
                "cycles",
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("profile written"), "got: {stderr}");
    }
    let first = std::fs::read_to_string(&a).expect("first profile");
    let second = std::fs::read_to_string(&b).expect("second profile");
    assert_eq!(
        first, second,
        "cycle-domain profiles of identical seeded runs must be byte-identical"
    );
    // Valid Chrome Trace shape: event array, span and metadata phases,
    // the cycle track, and a labelled stage slice.
    assert!(first.starts_with("{\"traceEvents\":["));
    assert!(first.trim_end().ends_with("]}"));
    for needle in [
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
        "simulated accelerator cycles",
        "\"conv1\"",
    ] {
        assert!(first.contains(needle), "profile missing {needle}");
    }
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn profile_out_folded_extension_writes_flamegraph_stacks() {
    let dir = std::env::temp_dir().join("cnnre-cli-profile-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("profile.folded");
    let out = cnnre()
        .args([
            "attack",
            "lenet",
            "--profile-out",
            path.to_str().expect("utf-8"),
            "--profile-clock",
            "cycles",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let folded = std::fs::read_to_string(&path).expect("folded stacks");
    // stackcollapse format: `root;child;leaf <value>` lines.
    assert!(
        folded.lines().all(|l| l
            .rsplit_once(' ')
            .is_some_and(|(_, v)| v.parse::<u64>().is_ok())),
        "got: {folded}"
    );
    assert!(folded.contains(";"), "got: {folded}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn profile_clock_rejects_unknown_domain() {
    let out = cnnre()
        .args(["attack", "lenet", "--profile-clock", "lunar"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}
