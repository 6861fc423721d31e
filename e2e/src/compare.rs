//! `e2e compare`: two sets of runs, metric by metric, against the bounds
//! in `BENCHMARK.json`.
//!
//! Files are paired in the order given (base run k against new run k).
//! A metric is *better* when the new side wins at least nine tenths of the
//! pairs and the medians differ by more than the base side's quartile
//! spread; *worse* when the new median is worse than the base median by
//! more than the metric's bound; *unresolved* when the base side's own
//! spread exceeds the bound (unless every new run beats every base run);
//! otherwise *unchanged*.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::Value;
use crate::median;

/// One end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the base median.
    pub bound: f64,
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new side wins by the rule above.
    Better,
    /// Within the bound.
    Unchanged,
    /// Worse than the bound allows.
    Worse,
    /// The base side is too noisy to tell.
    Unresolved,
}

/// Reads the end-to-end gates out of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message when a metric lacks a name, direction or bound.
pub fn gates(bench: &Value) -> Result<Vec<Gate>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without 'better'")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Gate {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// Values of every workload × metric in one `--out` file.
///
/// # Errors
///
/// Returns a message when the file is not a benchmark `--out` file.
pub fn runs_of(file: &Value) -> Result<BTreeMap<(String, String), f64>, String> {
    let workloads = file
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("not an e2e --out file (no 'workloads' object)")?;
    let mut out = BTreeMap::new();
    for (w, result) in workloads {
        let Some(metrics) = result.get("metrics").and_then(Value::as_obj) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.insert((w.clone(), name.clone()), v);
            }
        }
    }
    Ok(out)
}

/// Python's `statistics.quantiles(xs, n=4)` (the default, exclusive
/// method): the first and third quartiles.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The verdict for one metric given paired base and new values.
#[must_use]
pub fn verdict(gate: &Gate, base: &[f64], new: &[f64]) -> Verdict {
    let improves = |from: f64, to: f64| {
        if gate.lower_is_better {
            to < from
        } else {
            to > from
        }
    };
    let (mb, mn) = (median(base), median(new));
    let (q1, q3) = quartiles(base);
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| improves(**b, **n))
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && improves(mb, mn) && (mn - mb).abs() > q3 - q1 {
        return Verdict::Better;
    }
    let worsening = if gate.lower_is_better {
        mn - mb
    } else {
        mb - mn
    };
    if worsening > gate.bound * mb.abs() {
        return Verdict::Worse;
    }
    let all_better = new.iter().all(|n| base.iter().all(|b| improves(*b, *n)));
    if (q3 - q1) > gate.bound * mb.abs() && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Compares the runs and renders one row per workload × gated metric.
/// Returns the table and whether any metric got worse.
#[must_use]
pub fn compare(
    gates: &[Gate],
    base: &[BTreeMap<(String, String), f64>],
    new: &[BTreeMap<(String, String), f64>],
) -> (String, bool) {
    let workloads: BTreeSet<&String> = base
        .iter()
        .chain(new)
        .flat_map(|r| r.keys().map(|(w, _)| w))
        .collect();
    let mut out = format!(
        "{:<15} {:<15} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict\n",
        "workload",
        "metric",
        "base median",
        "base [q1, q3]",
        "new median",
        "new [q1, q3]",
        "change"
    );
    let mut any_worse = false;
    for w in &workloads {
        for gate in gates {
            let key = ((*w).clone(), gate.name.clone());
            let values = |runs: &[BTreeMap<(String, String), f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(&key).copied()).collect()
            };
            let (b, n) = (values(base), values(new));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let v = verdict(gate, &b, &n);
            any_worse |= v == Verdict::Worse;
            let (mb, mn) = (median(&b), median(&n));
            let ((b1, b3), (n1, n3)) = (quartiles(&b), quartiles(&n));
            let change = if mb == 0.0 {
                0.0
            } else {
                100.0 * (mn - mb) / mb
            };
            let _ = writeln!(
                out,
                "{w:<15} {:<15} {mb:>12.6} {:>25} {mn:>12.6} {:>25} {change:>7.2}%  {v:?} (n={}/{})",
                gate.name,
                format!("[{b1:.6}, {b3:.6}]"),
                format!("[{n1:.6}, {n3:.6}]"),
                b.len(),
                n.len()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(bound: f64) -> Gate {
        Gate {
            name: "attack_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let faster: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(verdict(&gate(0.1), &base, &faster), Verdict::Better);
        assert_eq!(verdict(&gate(0.1), &base, &slower), Verdict::Worse);
        assert_eq!(verdict(&gate(0.1), &base, &same), Verdict::Unchanged);
        let noisy = [0.5, 1.5, 0.6, 1.4, 1.0];
        assert_eq!(verdict(&gate(0.1), &noisy, &noisy), Verdict::Unresolved);
    }
}
