//! The perf-regression gate: diffs a freshly produced flat `BENCH_*.json`
//! snapshot against a committed baseline under
//! `tests/golden/bench_baseline/` and fails on regressions.
//!
//! # Policy
//!
//! "Worse" is "larger": every exported metric (cycles, DRAM transactions,
//! oracle queries, candidate counts) measures cost, so a value above the
//! baseline by more than the tolerance is a **regression**. Two tiers:
//!
//! * **strict** — deterministic metrics (everything except wall-clock
//!   timings). These come from the simulated-cycle domain and seeded
//!   experiments, so identical code must reproduce them exactly; the
//!   default tolerance is therefore tight ([`GateConfig::rel_tol`]).
//! * **advisory** — wall-clock metrics (`*.wall_ns`). Host timing noise
//!   makes them unenforceable; drifts are reported but never fail the
//!   gate.
//!
//! A metric present in the baseline but missing from the current snapshot
//! is a regression (instrumentation was lost); a new metric is advisory.
//! Values *below* baseline are reported as improvements (exit 0 — but
//! refresh the baseline, see EXPERIMENTS.md).
//!
//! Exit-code convention, matching cnnre-lint and cnnre-audit: 0 clean,
//! 1 regressions, 2 usage/malformed input.
//!
//! The report is byte-deterministic: sorted metric order, fixed number
//! formatting, no timestamps.

use std::collections::BTreeMap;

use cnnre_obs::json::{self, Value};

/// Gate thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Relative tolerance for strict (cycle-domain) metrics.
    pub rel_tol: f64,
    /// Absolute slack added on top of the relative tolerance (guards
    /// near-zero baselines).
    pub abs_tol: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            rel_tol: 0.01,
            abs_tol: 1e-9,
        }
    }
}

/// One parsed `BENCH_*.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// The `"experiment"` field.
    pub experiment: String,
    /// Metric name → value, sorted.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the flat JSON object `cnnre-obs` writes for `BENCH_*.json`
/// files, read with [`json::parse`]: one object, a string value for
/// `"experiment"`, and a finite number (or `null`, which is skipped) for
/// every other key.
///
/// # Errors
///
/// Returns a description of the first syntax or schema problem — a
/// duplicate key or a number that overflows `f64` included; the gate maps
/// any parse error to exit code 2.
pub fn parse_bench_json(text: &str) -> Result<BenchSnapshot, String> {
    let Value::Obj(mut members) = json::parse(text)? else {
        return Err("expected a JSON object".into());
    };
    let Some(Value::Str(experiment)) = members.remove("experiment") else {
        return Err("missing \"experiment\" string".into());
    };
    let metrics = members
        .into_iter()
        // A `null` value is a non-finite export — ungateable, skipped.
        .filter(|(_, value)| *value != Value::Null)
        .map(|(key, value)| match value.num::<f64>() {
            Some(v) if v.is_finite() => Ok((key, v)),
            _ => Err(format!("\"{key}\" must be a finite number")),
        })
        .collect::<Result<_, String>>()?;
    Ok(BenchSnapshot {
        experiment,
        metrics,
    })
}

/// Outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance.
    Ok,
    /// Strict metric above baseline beyond tolerance — fails the gate.
    Regressed,
    /// Strict metric below baseline beyond tolerance — baseline is stale.
    Improved,
    /// Wall-clock drift (either direction) — reported, never fails.
    Advisory,
    /// In the baseline, absent from the current snapshot — fails the gate.
    Missing,
    /// In the current snapshot only — informational.
    New,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "REGRESSED",
            Status::Improved => "improved",
            Status::Advisory => "advisory",
            Status::Missing => "MISSING",
            Status::New => "new",
        }
    }
}

/// One row of the gate report.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Baseline value (`None` for [`Status::New`]).
    pub baseline: Option<f64>,
    /// Current value (`None` for [`Status::Missing`]).
    pub current: Option<f64>,
    /// Verdict.
    pub status: Status,
}

/// The full comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Experiment name (shared by baseline and current).
    pub experiment: String,
    /// Per-metric rows, sorted by name.
    pub deltas: Vec<Delta>,
}

impl GateReport {
    /// Whether any row fails the gate (exit code 1).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.deltas
            .iter()
            .any(|d| matches!(d.status, Status::Regressed | Status::Missing))
    }

    /// Renders the byte-deterministic report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("perf gate: {}\n", self.experiment);
        let width = self
            .deltas
            .iter()
            .map(|d| d.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        // Values print as the snapshot writer prints them.
        let num = |v: Option<f64>| match v {
            Some(v) => {
                let mut s = String::new();
                json::push_f64(&mut s, v);
                s
            }
            None => "-".to_string(),
        };
        for d in &self.deltas {
            let note = match (d.baseline, d.current) {
                // lint:allow(float-eq): guards the division below
                (Some(b), Some(c)) if b != 0.0 => {
                    format!(" ({:+.2}%)", 100.0 * (c - b) / b)
                }
                _ => String::new(),
            };
            out.push_str(&format!(
                "  {:width$}  {:>16} -> {:>16}  {}{}\n",
                d.name,
                num(d.baseline),
                num(d.current),
                d.status.label(),
                note,
            ));
        }
        let (mut regressed, mut missing, mut improved, mut advisory) = (0, 0, 0, 0);
        for d in &self.deltas {
            match d.status {
                Status::Regressed => regressed += 1,
                Status::Missing => missing += 1,
                Status::Improved => improved += 1,
                Status::Advisory => advisory += 1,
                _ => {}
            }
        }
        out.push_str(&format!(
            "summary: {} metrics, {} regressed, {} missing, {} improved, {} advisory\n",
            self.deltas.len(),
            regressed,
            missing,
            improved,
            advisory,
        ));
        out
    }
}

/// Whether a metric is gated advisorily (wall-clock timing).
#[must_use]
pub fn is_advisory(name: &str) -> bool {
    name.ends_with(".wall_ns")
}

/// Compares a current snapshot against its baseline.
///
/// # Errors
///
/// Returns an error (→ exit 2) when either file fails to parse or the
/// `"experiment"` fields disagree.
pub fn compare(baseline: &str, current: &str, cfg: &GateConfig) -> Result<GateReport, String> {
    let base = parse_bench_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = parse_bench_json(current).map_err(|e| format!("current: {e}"))?;
    if base.experiment != cur.experiment {
        return Err(format!(
            "experiment mismatch: baseline \"{}\" vs current \"{}\"",
            base.experiment, cur.experiment
        ));
    }
    let mut names: Vec<&String> = base.metrics.keys().chain(cur.metrics.keys()).collect();
    names.sort();
    names.dedup();
    let deltas = names
        .into_iter()
        .map(|name| {
            let b = base.metrics.get(name).copied();
            let c = cur.metrics.get(name).copied();
            let status = match (b, c) {
                (Some(_), None) => {
                    if is_advisory(name) {
                        Status::Advisory
                    } else {
                        Status::Missing
                    }
                }
                (None, Some(_)) => Status::New,
                (Some(b), Some(c)) => {
                    let slack = cfg.abs_tol + cfg.rel_tol * b.abs();
                    if (c - b).abs() <= slack {
                        Status::Ok
                    } else if is_advisory(name) {
                        Status::Advisory
                    } else if c > b {
                        Status::Regressed
                    } else {
                        Status::Improved
                    }
                }
                (None, None) => Status::Ok, // unreachable by construction
            };
            Delta {
                name: name.clone(),
                baseline: b,
                current: c,
                status,
            }
        })
        .collect();
    Ok(GateReport {
        experiment: base.experiment,
        deltas,
    })
}

/// One row of the speedup report: a wall-clock metric measured at one
/// thread and at many, against its committed improvement floor.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupDelta {
    /// Wall-clock metric name (e.g. `span.attack.weights.wall_ns`).
    pub name: String,
    /// Single-threaded measurement (`None` when absent from the snapshot).
    pub single: Option<f64>,
    /// Multi-threaded measurement (`None` when absent from the snapshot).
    pub multi: Option<f64>,
    /// Committed minimum speedup (`single / multi` must reach this).
    pub floor: f64,
    /// Measured speedup, when both measurements are present and positive.
    pub speedup: Option<f64>,
    /// Verdict: [`Status::Ok`], [`Status::Regressed`] (below the floor),
    /// or [`Status::Missing`] (a measurement was lost).
    pub status: Status,
}

/// The wall-clock *improvement* gate result — unlike [`GateReport`], which
/// only enforces not-getting-slower on cycle metrics, this one fails when
/// parallel execution stops being faster than sequential.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupReport {
    /// Experiment name (shared by both snapshots).
    pub experiment: String,
    /// Per-metric rows, sorted by name.
    pub deltas: Vec<SpeedupDelta>,
}

impl SpeedupReport {
    /// Whether any row fails the gate (exit code 1).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.deltas
            .iter()
            .any(|d| matches!(d.status, Status::Regressed | Status::Missing))
    }

    /// Renders the report (deterministic row order and formatting; the
    /// measured values themselves are wall clock, so the rendered numbers
    /// vary run to run).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("speedup gate: {}\n", self.experiment);
        let width = self
            .deltas
            .iter()
            .map(|d| d.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        for d in &self.deltas {
            let measured = match d.speedup {
                Some(s) => format!("{s:.2}x"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  {:width$}  {:>8} (floor {:.2}x)  {}\n",
                d.name,
                measured,
                d.floor,
                d.status.label(),
            ));
        }
        let failed = self
            .deltas
            .iter()
            .filter(|d| matches!(d.status, Status::Regressed | Status::Missing))
            .count();
        out.push_str(&format!(
            "summary: {} speedup floors, {} failed\n",
            self.deltas.len(),
            failed,
        ));
        out
    }
}

/// Suffix marking a floor entry in the committed `SPEEDUP.json` file.
const MIN_SPEEDUP_SUFFIX: &str = ".min_speedup";

/// Compares single- vs multi-threaded snapshots of one experiment against
/// the committed speedup floors.
///
/// `floors` is a flat snapshot (same format as `BENCH_*.json`, experiment
/// `"speedup"`) whose keys read `<experiment>.<metric>.min_speedup`;
/// entries for other experiments are ignored, so one file serves the whole
/// gate. For every applicable floor the measured speedup is
/// `single / multi` over the named wall-clock metric, and falling below
/// the floor fails the gate — this is an *improvement* baseline, not a
/// regression one.
///
/// # Errors
///
/// Returns an error (→ exit 2) when any input fails to parse, the two
/// measurement snapshots disagree on the experiment, or no floor applies
/// to the experiment (a silently empty gate would pass vacuously).
pub fn compare_speedup(floors: &str, single: &str, multi: &str) -> Result<SpeedupReport, String> {
    let floors = parse_bench_json(floors).map_err(|e| format!("floors: {e}"))?;
    let single = parse_bench_json(single).map_err(|e| format!("single-thread: {e}"))?;
    let multi = parse_bench_json(multi).map_err(|e| format!("multi-thread: {e}"))?;
    if single.experiment != multi.experiment {
        return Err(format!(
            "experiment mismatch: single \"{}\" vs multi \"{}\"",
            single.experiment, multi.experiment
        ));
    }
    let prefix = format!("{}.", single.experiment);
    let mut deltas = Vec::new();
    for (key, &floor) in &floors.metrics {
        let Some(rest) = key.strip_prefix(&prefix) else {
            continue;
        };
        let Some(metric) = rest.strip_suffix(MIN_SPEEDUP_SUFFIX) else {
            continue;
        };
        if !(floor.is_finite() && floor > 0.0) {
            return Err(format!("floors: \"{key}\" must be a positive number"));
        }
        let s = single.metrics.get(metric).copied();
        let m = multi.metrics.get(metric).copied();
        let speedup = match (s, m) {
            (Some(s), Some(m)) if m > 0.0 => Some(s / m),
            _ => None,
        };
        let status = match speedup {
            None => Status::Missing,
            Some(sp) if sp < floor => Status::Regressed,
            Some(_) => Status::Ok,
        };
        deltas.push(SpeedupDelta {
            name: metric.to_string(),
            single: s,
            multi: m,
            floor,
            speedup,
            status,
        });
    }
    if deltas.is_empty() {
        return Err(format!(
            "floors: no \"{prefix}<metric>{MIN_SPEEDUP_SUFFIX}\" entry for this experiment"
        ));
    }
    deltas.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(SpeedupReport {
        experiment: single.experiment,
        deltas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "{\n  \"experiment\": \"fig3\",\n  \"accel.dram.reads\": 100,\n  \"span.accel.run.cycles\": 5000,\n  \"span.accel.run.wall_ns\": 123456\n}\n";

    #[test]
    fn identical_snapshots_pass() {
        let r = compare(BASE, BASE, &GateConfig::default()).unwrap();
        assert!(!r.failed());
        assert!(r.deltas.iter().all(|d| d.status == Status::Ok));
    }

    #[test]
    fn inflated_cycles_regress_but_wall_is_advisory() {
        let cur = BASE
            .replace("5000", "6000") // +20% cycles: regression
            .replace("123456", "999999"); // wall drift: advisory
        let r = compare(BASE, &cur, &GateConfig::default()).unwrap();
        assert!(r.failed());
        let by_name = |n: &str| {
            r.deltas
                .iter()
                .find(|d| d.name == n)
                .map(|d| d.status)
                .unwrap()
        };
        assert_eq!(by_name("span.accel.run.cycles"), Status::Regressed);
        assert_eq!(by_name("span.accel.run.wall_ns"), Status::Advisory);
        assert_eq!(by_name("accel.dram.reads"), Status::Ok);
    }

    #[test]
    fn improvement_does_not_fail() {
        let cur = BASE.replace("5000", "4000");
        let r = compare(BASE, &cur, &GateConfig::default()).unwrap();
        assert!(!r.failed());
        assert!(r
            .deltas
            .iter()
            .any(|d| d.status == Status::Improved && d.name == "span.accel.run.cycles"));
    }

    #[test]
    fn missing_metric_fails_and_new_metric_does_not() {
        let cur = "{\n  \"experiment\": \"fig3\",\n  \"accel.dram.reads\": 100,\n  \"accel.dram.writes\": 7,\n  \"span.accel.run.wall_ns\": 123456\n}\n";
        let r = compare(BASE, cur, &GateConfig::default()).unwrap();
        assert!(r.failed());
        let statuses: Vec<(String, Status)> = r
            .deltas
            .iter()
            .map(|d| (d.name.clone(), d.status))
            .collect();
        assert!(statuses.contains(&("span.accel.run.cycles".into(), Status::Missing)));
        assert!(statuses.contains(&("accel.dram.writes".into(), Status::New)));
    }

    #[test]
    fn malformed_and_mismatched_inputs_error() {
        assert!(compare("not json", BASE, &GateConfig::default()).is_err());
        assert!(compare(BASE, "{\"experiment\": \"fig3\"", &GateConfig::default()).is_err());
        let other = BASE.replace("fig3", "fig7");
        assert!(compare(BASE, &other, &GateConfig::default()).is_err());
    }

    #[test]
    fn report_is_deterministic_and_complete() {
        let cur = BASE.replace("5000", "6000");
        let a = compare(BASE, &cur, &GateConfig::default())
            .unwrap()
            .render();
        let b = compare(BASE, &cur, &GateConfig::default())
            .unwrap()
            .render();
        assert_eq!(a, b);
        assert!(a.contains("REGRESSED"));
        assert!(a.contains("summary: 3 metrics, 1 regressed, 0 missing, 0 improved, 0 advisory"));
    }

    const FLOORS: &str = "{\n  \"experiment\": \"speedup\",\n  \"fig3.span.accel.run.wall_ns.min_speedup\": 3,\n  \"fig7.span.attack.weights.wall_ns.min_speedup\": 3\n}\n";

    #[test]
    fn speedup_above_floor_passes() {
        let multi = BASE.replace("123456", "30000"); // 123456/30000 ≈ 4.1x
        let r = compare_speedup(FLOORS, BASE, &multi).unwrap();
        assert!(!r.failed());
        assert_eq!(r.deltas.len(), 1);
        assert_eq!(r.deltas[0].name, "span.accel.run.wall_ns");
        assert_eq!(r.deltas[0].status, Status::Ok);
        assert!(r.deltas[0].speedup.unwrap() > 4.0);
    }

    #[test]
    fn speedup_below_floor_fails() {
        let multi = BASE.replace("123456", "100000"); // ≈ 1.2x < 3x floor
        let r = compare_speedup(FLOORS, BASE, &multi).unwrap();
        assert!(r.failed());
        assert_eq!(r.deltas[0].status, Status::Regressed);
        assert!(r.render().contains("REGRESSED"));
    }

    #[test]
    fn speedup_missing_metric_fails() {
        let multi = "{\n  \"experiment\": \"fig3\",\n  \"accel.dram.reads\": 100\n}\n";
        let r = compare_speedup(FLOORS, BASE, multi).unwrap();
        assert!(r.failed());
        assert_eq!(r.deltas[0].status, Status::Missing);
    }

    #[test]
    fn speedup_requires_an_applicable_floor() {
        // fig7 floors exist but the snapshots are fig3-with-another-name.
        let other_base = BASE.replace("fig3", "table4");
        let other_multi = other_base.replace("123456", "30000");
        assert!(compare_speedup(FLOORS, &other_base, &other_multi).is_err());
        // Mismatched experiments between the two measurements error too.
        let fig7 = BASE.replace("fig3", "fig7");
        assert!(compare_speedup(FLOORS, BASE, &fig7).is_err());
    }

    #[test]
    fn parser_round_trips_the_obs_writer() {
        let snap = parse_bench_json(BASE).unwrap();
        assert_eq!(snap.experiment, "fig3");
        assert_eq!(snap.metrics.get("accel.dram.reads"), Some(&100.0));
        assert_eq!(snap.metrics.len(), 3);
        // null values (non-finite exports) are skipped, not errors.
        let with_null = "{\"experiment\": \"x\", \"a.b\": null}";
        assert!(parse_bench_json(with_null).unwrap().metrics.is_empty());
    }

    #[test]
    fn escaped_names_round_trip_through_the_obs_writer() {
        use cnnre_obs::export::MetricValue;
        let mut written = cnnre_obs::Snapshot::default();
        let name = "fig\u{1}\"q\"".to_string();
        written.entries.insert(name, MetricValue::Counter(7));
        let text = written.to_bench_json("fig\u{1}");
        let snap = parse_bench_json(&text).unwrap();
        assert_eq!(snap.experiment, "fig\u{1}");
        assert_eq!(snap.metrics.get("fig\u{1}\"q\""), Some(&7.0));
    }

    #[test]
    fn non_finite_and_non_numeric_values_are_errors() {
        for bad in [
            "{\"experiment\": \"x\", \"a\": 1e999}",
            "{\"experiment\": \"x\", \"a\": -1e999}",
            "{\"experiment\": \"x\", \"a\": \"7\"}",
            "{\"experiment\": \"x\", \"a\": [1]}",
            "{\"experiment\": 3}",
            "{\"experiment\": \"x\", \"a\": 1, \"a\": 2}",
            "{\"a\": 1}",
        ] {
            assert!(parse_bench_json(bad).is_err(), "{bad}");
        }
    }
}
