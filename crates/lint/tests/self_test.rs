//! Fixture-based self-tests: each `tests/fixtures/<name>/` directory is a
//! miniature workspace seeding one violation class. Every fixture is linted
//! twice — through the library (`lint_workspace`) and through the built
//! `cnnre-lint` binary — so both the rule passes and the exit-code contract
//! stay covered.

use cnnre_lint::{lint_workspace, lint_workspace_with, Rule};
use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Rule> {
    let report = lint_workspace(&fixture(name)).expect("fixture tree readable");
    report.diagnostics.iter().map(|d| d.rule).collect()
}

fn run_binary(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cnnre-lint"))
        .args(args)
        .output()
        .expect("cnnre-lint binary runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("terminated by exit, not signal")
}

// --- library-level: each fixture reports exactly its seeded class -------

#[test]
fn wallclock_fixture_reports_both_clock_types_and_spares_tests() {
    let rules = lint_fixture("wallclock");
    assert_eq!(rules, [Rule::Wallclock, Rule::Wallclock]);
}

#[test]
fn hash_iter_fixture_reports_every_hashmap_mention() {
    let rules = lint_fixture("hash_iter");
    assert!(rules.len() >= 2, "use + construction sites: {rules:?}");
    assert!(rules.iter().all(|r| *r == Rule::HashIter));
}

#[test]
fn panic_fixture_reports_unwrap_expect_and_macro() {
    let rules = lint_fixture("panic_rule");
    assert_eq!(rules, [Rule::Panic, Rule::Panic, Rule::Panic]);
}

#[test]
fn cast_fixture_reports_narrowing_and_rounder_not_widening() {
    let rules = lint_fixture("cast");
    assert_eq!(rules, [Rule::Cast, Rule::Cast]);
}

#[test]
fn atomic_fixture_reports_only_the_unjustified_ordering() {
    let rules = lint_fixture("atomic");
    assert_eq!(rules, [Rule::AtomicOrdering]);
}

#[test]
fn allow_syntax_fixture_reports_reasonless_and_unknown_directives() {
    let rules = lint_fixture("allow_syntax");
    assert_eq!(rules, [Rule::AllowSyntax, Rule::AllowSyntax]);
}

#[test]
fn float_eq_fixture_reports_literal_and_cast_not_ordering() {
    assert_eq!(lint_fixture("float_eq"), [Rule::FloatEq, Rule::FloatEq]);
}

#[test]
fn metric_name_fixture_reports_each_malformed_literal() {
    assert_eq!(
        lint_fixture("metric_name"),
        [Rule::MetricName, Rule::MetricName, Rule::MetricName]
    );
}

#[test]
fn clean_fixture_reports_nothing() {
    assert_eq!(lint_fixture("clean"), []);
}

// --- CT/CR fixtures: each seeds exactly its code ------------------------

#[test]
fn ct001_fixture_reports_exactly_one_secret_branch() {
    assert_eq!(lint_fixture("ct001"), [Rule::CtBranch]);
}

#[test]
fn ct002_fixture_reports_exactly_one_secret_index() {
    // The chained public `[0]` index must not add a second finding.
    assert_eq!(lint_fixture("ct002"), [Rule::CtIndex]);
}

#[test]
fn ct003_fixture_reports_exactly_one_variable_time_division() {
    assert_eq!(lint_fixture("ct003"), [Rule::CtArith]);
}

#[test]
fn ct004_fixture_reports_exactly_one_secret_loop_via_taint_mark() {
    // The fixture's source is a `// taint:source` annotation, not a
    // secret-typed parameter — covers the marker path end-to-end.
    assert_eq!(lint_fixture("ct004"), [Rule::CtLoop]);
}

#[test]
fn cr001_fixture_reports_static_mut_and_spares_plain_static() {
    assert_eq!(lint_fixture("cr001"), [Rule::CrStaticMut]);
}

#[test]
fn cr002_fixture_reports_the_field_not_the_import() {
    assert_eq!(lint_fixture("cr002"), [Rule::CrInteriorMut]);
}

#[test]
fn cr003_fixture_reports_nested_guard_and_spares_scoped_pair() {
    assert_eq!(lint_fixture("cr003"), [Rule::CrLockOrder]);
}

#[test]
fn cr004_fixture_reports_relaxed_steered_branch_not_plain_load() {
    assert_eq!(lint_fixture("cr004"), [Rule::CrRelaxedControl]);
}

#[test]
fn sy001_fixture_reports_raw_sync_and_thread_not_shims_or_tests() {
    // The `std::sync` import and `std::thread::spawn` fire; the
    // `cnnre_model::sync` import, the allowed `std::thread::scope`, and
    // the `#[cfg(test)]` use do not.
    assert_eq!(lint_fixture("sy001"), [Rule::RawSync, Rule::RawSync]);
}

#[test]
fn stale_allow_fixture_reports_the_dead_directive_only() {
    assert_eq!(lint_fixture("stale_allow"), [Rule::StaleAllow]);
}

#[test]
fn parser_edges_fixture_is_clean_under_the_full_ct_rule_set() {
    // Nested closures, method-chain indexing, and `if let` chains over
    // public data in a CT-scoped file: no false positives, no parse panic.
    assert_eq!(lint_fixture("parser_edges"), []);
}

// --- report ordering is deterministic: path, then line, then rule -------

#[test]
fn report_ordering_is_path_then_line_then_rule() {
    for name in ["include_tests", "wallclock", "metric_name", "cr003"] {
        let report = lint_workspace_with(&fixture(name), true).expect("fixture readable");
        let keys: Vec<(&str, u32, Rule)> = report
            .diagnostics
            .iter()
            .map(|d| (d.file.as_str(), d.line, d.rule))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(
            keys, sorted,
            "{name} report out of (path, line, rule) order"
        );
    }
}

#[test]
fn repeated_runs_produce_identical_reports() {
    let key = |name: &str| {
        lint_workspace_with(&fixture(name), true)
            .expect("fixture readable")
            .diagnostics
            .iter()
            .map(|d| (d.file.clone(), d.line, d.rule, d.message.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(key("include_tests"), key("include_tests"));
}

#[test]
fn include_tests_fixture_is_clean_under_the_default_walk() {
    // Without --include-tests the violating files are never scanned.
    assert_eq!(lint_fixture("include_tests"), []);
}

#[test]
fn include_tests_applies_the_relaxed_rule_set() {
    let report = lint_workspace_with(&fixture("include_tests"), true).expect("fixture readable");
    let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
    // The crate test's `Instant::now` and the root golden test's `HashMap`
    // mentions fire; its `unwrap()` and exact float compare do not.
    assert_eq!(
        rules,
        [
            Rule::Wallclock,
            Rule::HashIter,
            Rule::HashIter,
            Rule::HashIter
        ]
    );
    let mut files: Vec<&str> = report.diagnostics.iter().map(|d| d.file.as_str()).collect();
    files.dedup();
    assert_eq!(files, ["crates/x/tests/integration.rs", "tests/golden.rs"]);
}

// --- binary-level: exit codes and report formats ------------------------

#[test]
fn binary_exits_nonzero_on_each_seeded_fixture() {
    for name in [
        "wallclock",
        "hash_iter",
        "panic_rule",
        "cast",
        "atomic",
        "allow_syntax",
        "float_eq",
        "metric_name",
        "ct001",
        "ct002",
        "ct003",
        "ct004",
        "cr001",
        "cr002",
        "cr003",
        "cr004",
        "sy001",
        "stale_allow",
    ] {
        let root = fixture(name);
        let out = run_binary(&["--root", &root.display().to_string()]);
        assert_eq!(exit_code(&out), 1, "fixture {name} must fail the gate");
    }
}

#[test]
fn binary_include_tests_flag_reaches_the_test_trees() {
    let root = fixture("include_tests").display().to_string();
    // Default walk: clean.
    assert_eq!(exit_code(&run_binary(&["--root", &root])), 0);
    // Opted in: the test-tree violations fail the gate.
    let out = run_binary(&["--root", &root, "--include-tests"]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wallclock"), "got: {stdout}");
    assert!(stdout.contains("hash-iter"), "got: {stdout}");
}

#[test]
fn binary_exits_zero_on_clean_fixture() {
    let root = fixture("clean");
    let out = run_binary(&["--root", &root.display().to_string()]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "got: {stdout}");
}

#[test]
fn binary_human_report_names_the_rule_and_file() {
    let root = fixture("panic_rule");
    let out = run_binary(&["--root", &root.display().to_string()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("panic"), "got: {stdout}");
    assert!(stdout.contains("crates/nn/src/lib.rs"), "got: {stdout}");
}

#[test]
fn binary_json_report_is_machine_readable_and_written_to_out() {
    let root = fixture("cast");
    let out_file = std::env::temp_dir().join("cnnre_lint_selftest_report.json");
    let out = run_binary(&[
        "--root",
        &root.display().to_string(),
        "--format",
        "json",
        "--out",
        &out_file.display().to_string(),
    ]);
    assert_eq!(exit_code(&out), 1);
    let report = std::fs::read_to_string(&out_file).expect("--out wrote the report");
    let _ = std::fs::remove_file(&out_file);
    assert!(report.contains("\"tool\": \"cnnre-lint\""), "got: {report}");
    assert!(report.contains("\"violations\": 2"), "got: {report}");
    assert!(report.contains("\"rule\": \"cast\""), "got: {report}");
    // stdout carries the same report for piping.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"tool\": \"cnnre-lint\""), "got: {stdout}");
}

#[test]
fn binary_list_rules_covers_every_rule() {
    let out = run_binary(&["--list-rules"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in Rule::ALL {
        assert!(stdout.contains(rule.name()), "missing {}", rule.name());
    }
}

#[test]
fn binary_rejects_unknown_flags_with_usage_error() {
    let out = run_binary(&["--frobnicate"]);
    assert_eq!(exit_code(&out), 2);
}
