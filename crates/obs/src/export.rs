//! Snapshot exporters: sorted JSON, a flat `BENCH_*.json` object, and the
//! Prometheus text exposition format.
//!
//! All exports are **deterministic** given the same metric values: keys are
//! sorted (the snapshot map is a `BTreeMap`), number formatting is fixed,
//! and wall-clock metrics (names ending in `.wall_ns`) can be excluded so
//! two identical seeded runs produce byte-identical files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json;

/// The exported value of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Ordered series values.
    Series(Vec<f64>),
}

impl MetricValue {
    /// A scalar view: counters and gauges as themselves, series as their
    /// last value.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Counter(c) => Some(*c as f64),
            Self::Gauge(g) => Some(*g),
            Self::Series(s) => s.last().copied(),
        }
    }
}

/// A point-in-time copy of a [`crate::Registry`]'s metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Metric name → exported value, sorted by name.
    pub entries: BTreeMap<String, MetricValue>,
}

/// Whether a metric name carries wall-clock time (and is therefore
/// excluded from deterministic exports).
#[must_use]
pub fn is_wall_clock(name: &str) -> bool {
    name.ends_with(".wall_ns")
}

/// Whether a metric is **volatile**: its value depends on wall clock,
/// scheduling, or scrape traffic rather than on the attack computation, so
/// deterministic exports (and the default `/metrics` rendering) drop it.
///
/// Volatile families: `*.wall_ns` (wall clock) and `http.*` (scrape-server
/// traffic — including them would make a scrape perturb the next scrape).
#[must_use]
pub fn is_volatile(name: &str) -> bool {
    is_wall_clock(name) || name.starts_with("http.")
}

/// Mangles a dotted metric name into the Prometheus exposition charset:
/// `cnnre_` prefix, every character outside `[a-zA-Z0-9_]` becomes `_`
/// (`accel.dram.writes` → `cnnre_accel_dram_writes`).
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("cnnre_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl Snapshot {
    /// Scalar value of `name` (see [`MetricValue::as_f64`]), or `None`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).and_then(MetricValue::as_f64)
    }

    /// The full series recorded under `name`, or `None`.
    #[must_use]
    pub fn get_series(&self, name: &str) -> Option<&[f64]> {
        match self.entries.get(name) {
            Some(MetricValue::Series(s)) => Some(s),
            _ => None,
        }
    }

    /// Serializes to a single pretty-printed JSON object, keys sorted.
    ///
    /// With `include_wall_clock == false`, [volatile](is_volatile) metrics
    /// (`*.wall_ns` wall-clock timings, `http.*` scrape-traffic metrics)
    /// are dropped, making the output
    /// deterministic across identical seeded runs at any thread count.
    #[must_use]
    pub fn to_json(&self, include_wall_clock: bool) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (name, value) in &self.entries {
            if !include_wall_clock && is_volatile(name) {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            json::push_str(&mut out, name);
            out.push_str(": ");
            match value {
                MetricValue::Counter(c) => json::push_u64(&mut out, *c),
                MetricValue::Gauge(g) => json::push_f64(&mut out, *g),
                MetricValue::Series(s) => json::push_f64_array(&mut out, s),
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// A flat `BENCH_*.json`-style object: every metric reduced to one
    /// number (series additionally export `<name>.sum`). Wall-clock
    /// metrics are kept — benchmark files exist to carry timings.
    #[must_use]
    pub fn to_bench_json(&self, experiment: &str) -> String {
        let mut out = String::from("{\n  \"experiment\": ");
        json::push_str(&mut out, experiment);
        for (name, value) in &self.entries {
            if let Some(v) = value.as_f64() {
                out.push_str(",\n  ");
                json::push_str(&mut out, name);
                out.push_str(": ");
                json::push_f64(&mut out, v);
            }
            if let MetricValue::Series(s) = value {
                out.push_str(",\n  ");
                json::push_str(&mut out, &format!("{name}.sum"));
                out.push_str(": ");
                json::push_f64(&mut out, s.iter().sum());
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` (when the name is catalogued) and
    /// `# TYPE` headers followed by the samples, names mangled by
    /// [`prometheus_name`], ordered by dotted metric name.
    ///
    /// Counters and gauges map directly; series render as `_count`/`_sum`
    /// gauges (the full array has no Prometheus shape).
    ///
    /// With `include_volatile == false` — the `/metrics` default —
    /// [volatile](is_volatile) metrics are dropped, so two scrapes of a
    /// finished run are byte-identical and a scrape never perturbs the
    /// next one.
    #[must_use]
    pub fn to_prometheus(&self, include_volatile: bool) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            if !include_volatile && is_volatile(name) {
                continue;
            }
            let pname = prometheus_name(name);
            if let Ok(i) = crate::catalog::METRICS.binary_search_by(|d| d.name.cmp(name.as_str())) {
                let _ = writeln!(out, "# HELP {pname} {}", crate::catalog::METRICS[i].help);
            }
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = write!(out, "{pname} ");
                    json::push_u64(&mut out, *c);
                    out.push('\n');
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = write!(out, "{pname} ");
                    json::push_f64(&mut out, *g);
                    out.push('\n');
                }
                MetricValue::Series(s) => {
                    let _ = writeln!(out, "# TYPE {pname}_count gauge");
                    let _ = write!(out, "{pname}_count ");
                    json::push_u64(&mut out, s.len() as u64);
                    out.push('\n');
                    let _ = writeln!(out, "# TYPE {pname}_sum gauge");
                    let _ = write!(out, "{pname}_sum ");
                    json::push_f64(&mut out, s.iter().sum());
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Writes [`Snapshot::to_json`] output to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_json(&self, path: &Path, include_wall_clock: bool) -> io::Result<()> {
        std::fs::write(path, self.to_json(include_wall_clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let _guard = crate::test_lock();
        let r = Registry::new();
        crate::set_enabled(true);
        r.counter("accel.dram.writes").add(12);
        r.gauge("attack.error").set(0.25);
        r.series("solver.candidates_per_layer").push(18.0);
        r.series("solver.candidates_per_layer").push(3.0);
        r.counter("span.total.wall_ns").add(999);
        r.counter("http.requests").add(5);
        r.gauge("http.connections").set(3.0);
        crate::set_enabled(false);
        r.snapshot()
    }

    #[test]
    fn json_is_sorted_and_drops_wall_clock() {
        let s = sample();
        let det = s.to_json(false);
        assert!(det.contains("\"accel.dram.writes\": 12"));
        assert!(det.contains("\"solver.candidates_per_layer\": [18,3]"));
        assert!(!det.contains("wall_ns"));
        assert!(!det.contains("http.requests"));
        assert!(!det.contains("http.connections"));
        let full = s.to_json(true);
        assert!(full.contains("\"span.total.wall_ns\": 999"));
        assert!(full.contains("\"http.requests\": 5"));
        // Keys appear in sorted order.
        let a = det.find("accel.dram.writes").unwrap();
        let b = det.find("attack.error").unwrap();
        let c = det.find("solver.candidates_per_layer").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn bench_json_flattens_series() {
        let s = sample();
        let b = s.to_bench_json("fig3");
        assert!(b.contains("\"experiment\": \"fig3\""));
        assert!(b.contains("\"solver.candidates_per_layer\": 3"));
        assert!(b.contains("\"solver.candidates_per_layer.sum\": 21"));
    }

    #[test]
    fn volatile_covers_wall_clock_and_http() {
        assert!(is_volatile("span.total.wall_ns"));
        assert!(is_volatile("http.requests"));
        assert!(is_volatile("http.connections"));
        assert!(!is_volatile("accel.dram.writes"));
        assert!(!is_volatile("events.clients"));
    }

    #[test]
    fn prometheus_names_are_mangled() {
        assert_eq!(
            prometheus_name("accel.dram.writes"),
            "cnnre_accel_dram_writes"
        );
        assert_eq!(
            prometheus_name("span.attack.structure.calls"),
            "cnnre_span_attack_structure_calls"
        );
    }

    #[test]
    fn prometheus_render_is_deterministic_and_drops_volatile() {
        let s = sample();
        let prom = s.to_prometheus(false);
        assert_eq!(
            prom,
            s.to_prometheus(false),
            "two renders must be byte-identical"
        );
        assert!(prom.contains(
            "# HELP cnnre_accel_dram_writes DRAM write transactions issued by the engine"
        ));
        assert!(
            prom.contains("# TYPE cnnre_accel_dram_writes counter\ncnnre_accel_dram_writes 12\n")
        );
        assert!(prom.contains("# TYPE cnnre_attack_error gauge\ncnnre_attack_error 0.25\n"));
        assert!(prom.contains("cnnre_solver_candidates_per_layer_count 2\n"));
        assert!(prom.contains("cnnre_solver_candidates_per_layer_sum 21\n"));
        assert!(!prom.contains("wall_ns") && !prom.contains("http_"));
        let full = s.to_prometheus(true);
        assert!(full.contains("cnnre_http_requests 5\n"));
        assert!(full.contains("cnnre_http_connections 3\n"));
        assert!(full.contains("cnnre_span_total_wall_ns 999\n"));
    }
}
