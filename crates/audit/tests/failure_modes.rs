//! Each seeded violation class must surface as its own diagnostic code:
//! corrupt cycle stamps (`T001`), overlapping segment regions (`T013`), an
//! Eq. (3) violation (`G003`), and a broken depth chain (`C002`) — plus the
//! differential audit's `D006` when the truth is absent from a candidate set.

use std::collections::BTreeSet;
use std::fs::File;

use cnnre_accel::{AccelConfig, Accelerator};
use cnnre_attacks::structure::{recover_structures, NetworkSolverConfig};
use cnnre_audit::{candidates, differential, parse_candidates, trace, AuditReport, Tolerances};
use cnnre_nn::models::lenet;
use cnnre_nn::Network;
use cnnre_tensor::rng::{SeedableRng, SmallRng};
use cnnre_trace::io::read_csv_unordered;
use cnnre_trace::Trace;

fn fixture_trace(name: &str) -> Trace {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    read_csv_unordered(File::open(&path).expect("fixture exists")).expect("fixture parses")
}

fn fixture_candidates(name: &str) -> AuditReport {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    let chains = parse_candidates(&text).expect("fixture parses");
    candidates(&chains, &Tolerances::default())
}

fn codes(report: &AuditReport) -> BTreeSet<String> {
    report.findings.iter().map(|f| f.code.clone()).collect()
}

fn seeded_lenet() -> Network {
    let mut rng = SmallRng::seed_from_u64(0);
    lenet(1, 10, &mut rng)
}

#[test]
fn corrupt_cycle_stamps_yield_t001_only() {
    let report = trace(&fixture_trace("corrupt_cycles.csv"));
    assert_eq!(
        codes(&report),
        BTreeSet::from(["T001".to_string()]),
        "{}",
        report.render_human()
    );
    // Segment-level checks must be skipped, not silently run, on a
    // non-monotone stream.
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn overlapping_segment_regions_yield_t013_only() {
    let report = trace(&fixture_trace("overlap_regions.csv"));
    assert_eq!(
        codes(&report),
        BTreeSet::from(["T013".to_string()]),
        "{}",
        report.render_human()
    );
}

#[test]
fn eq3_violation_yields_g003_only() {
    let report = fixture_candidates("eq3_violation.jsonl");
    assert_eq!(
        codes(&report),
        BTreeSet::from(["G003".to_string()]),
        "{}",
        report.render_human()
    );
}

#[test]
fn chain_depth_mismatch_yields_c002_only() {
    let report = fixture_candidates("chain_depth_mismatch.jsonl");
    assert_eq!(
        codes(&report),
        BTreeSet::from(["C002".to_string()]),
        "{}",
        report.render_human()
    );
}

#[test]
fn the_four_seeded_classes_have_distinct_codes() {
    let mut all = BTreeSet::new();
    all.extend(codes(&trace(&fixture_trace("corrupt_cycles.csv"))));
    all.extend(codes(&trace(&fixture_trace("overlap_regions.csv"))));
    all.extend(codes(&fixture_candidates("eq3_violation.jsonl")));
    all.extend(codes(&fixture_candidates("chain_depth_mismatch.jsonl")));
    assert_eq!(
        all.len(),
        4,
        "each violation class needs its own code: {all:?}"
    );
}

#[test]
fn clean_fixtures_are_clean() {
    let t = trace(&fixture_trace("clean_trace.csv"));
    assert!(t.is_clean(), "{}", t.render_human());
    assert_eq!(t.exit_code(), 0);
    let c = fixture_candidates("clean_candidates.jsonl");
    assert!(c.is_clean(), "{}", c.render_human());
}

#[test]
fn differential_is_clean_against_own_execution() {
    let net = seeded_lenet();
    let config = AccelConfig::default();
    let exec = Accelerator::new(config)
        .run_trace_only(&net)
        .expect("lenet lowers");
    let report = differential(&net, &config, &exec, None).expect("schedulable");
    assert!(report.is_clean(), "{}", report.render_human());
    assert!(report.items_examined > 0);
}

#[test]
fn differential_flags_truth_missing_from_empty_candidate_set() {
    let net = seeded_lenet();
    let config = AccelConfig::default();
    let exec = Accelerator::new(config)
        .run_trace_only(&net)
        .expect("lenet lowers");
    let report = differential(&net, &config, &exec, Some(&[])).expect("schedulable");
    assert!(
        report.findings.iter().any(|f| f.code == "D006"),
        "{}",
        report.render_human()
    );
}

#[test]
fn differential_accepts_recovered_set_containing_truth() {
    let net = seeded_lenet();
    let config = AccelConfig::default();
    let exec = Accelerator::new(config)
        .run_trace_only(&net)
        .expect("lenet lowers");
    let recovered = recover_structures(&exec.trace, (32, 1), 10, &NetworkSolverConfig::default())
        .expect("structures recoverable");
    let report = differential(&net, &config, &exec, Some(&recovered)).expect("schedulable");
    assert!(
        !report.findings.iter().any(|f| f.code == "D006"),
        "{}",
        report.render_human()
    );
}
