//! Every workload at a library-level smoke size: the metrics and units
//! match `BENCHMARK.json`, every check passes, the counts repeat across
//! runs and thread counts, and a seeded fault is counted, not fatal.

use std::sync::{Mutex, MutexGuard, PoisonError};

use cnnre_e2e::json::{self, Value};
use cnnre_e2e::workload::{Scale, Workload};
use cnnre_e2e::{run, MetricSpec, Report, RunConfig, END_TO_END, PER_LAYER};

/// Counts that must not depend on the run or the worker count.
const COUNTS: [&str; 11] = [
    "accel.trace_only.cycles",
    "trace.events",
    "trace.segments",
    "structure.candidates",
    "weights.oracle.victim_queries",
    "weights.oracle.all_queries",
    "weights.search.grid_probes",
    "weights.search.refine_steps",
    "weights.resolved",
    "weights.zero",
    "weights.unrecovered",
];

/// Runs share `cnnre_obs`'s global registry, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn smoke(workload: Workload, threads: usize, trace: bool, fault: bool) -> Report {
    run(&RunConfig {
        workload,
        scale: Scale::Smoke,
        seed: 7,
        seconds: 0.0,
        threads,
        trace,
        fault,
    })
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(bench: &Value, section: &str, key: &str) -> Vec<String> {
    bench
        .get(section)
        .and_then(Value::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            m.get(key)
                .and_then(Value::as_str)
                .expect("string field")
                .to_string()
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let bench = benchmark_json();
    for (section, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (key, field) in [
            ("name", (|s| s.name) as fn(&MetricSpec) -> &str),
            ("unit", |s| s.unit),
            ("better", |s| s.better),
        ] {
            let ours: Vec<String> = table.iter().map(|s| field(s).to_string()).collect();
            assert_eq!(listed(&bench, section, key), ours, "{section} {key}");
        }
    }
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed(&bench, "workloads", "name"), names);
}

#[test]
fn every_workload_passes_and_reports_every_metric() {
    let _turn = serial();
    for w in Workload::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let r = smoke(w, 2, trace, false);
            assert!(r.correct(), "{} failed: {:?}", w.name(), r.failures);
            let result = json::parse(&r.result_json()).expect("result line parses");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = result
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics");
            assert_eq!(metrics.len(), table.len(), "{}", w.name());
            for spec in table {
                let m = &metrics[spec.name];
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit));
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                // End-to-end metrics are never 0; per-layer ones are 0 on
                // the layers a workload leaves idle.
                assert!(
                    value.is_finite() && (trace || value > 0.0),
                    "{} {} = {value}",
                    w.name(),
                    spec.name
                );
            }
        }
    }
}

#[test]
fn counts_repeat_across_runs_and_thread_counts() {
    let _turn = serial();
    for w in Workload::ALL {
        let first = smoke(w, 2, false, false);
        let again = smoke(w, 2, false, false);
        assert_eq!(
            first.metric("victim_queries"),
            again.metric("victim_queries"),
            "{}",
            w.name()
        );
        let one = smoke(w, 1, true, false);
        let two = smoke(w, 2, true, false);
        for name in COUNTS {
            assert_eq!(one.metric(name), two.metric(name), "{} {name}", w.name());
        }
        if matches!(w, Workload::WeightsPooled | Workload::WeightsPlain) {
            // The metered oracle sees exactly the victim queries the
            // attack reports.
            assert_eq!(
                first.metric("victim_queries"),
                two.metric("weights.oracle.victim_queries")
            );
            assert!(two
                .metric("weights.search.grid_probes")
                .is_some_and(|g| g > 0.0));
        }
    }
}

#[test]
fn a_wrong_oracle_geometry_is_counted_not_fatal() {
    let _turn = serial();
    let r = smoke(Workload::WeightsPooled, 2, false, true);
    assert!(!r.correct());
    assert!(r.attempted > 0);
    assert_eq!(r.failures.len() as u64, r.attempted, "{:?}", r.failures);
    let result = json::parse(&r.result_json()).expect("result line parses");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(r.attempted as f64)
    );
}
