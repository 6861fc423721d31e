//! End-to-end attack benchmark for the cnn-reveng workspace.
//!
//! One run drives one workload as a closed loop with one client: it sets
//! up (victim build, warm-up request) several times, then sends requests
//! for a fixed number of seconds, checks every request's output, and
//! reports medians. A traced run additionally attributes each request's
//! time to the pipeline's layers; see `README.md` for the metrics.

#![forbid(unsafe_code)]

pub mod compare;
pub mod json;
pub mod spans;
pub mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use spans::{Recorder, Span};
use workload::{Outcome, RequestOptions, Scale, Victim, Workload};

/// The seed whose weights counts are pinned.
pub const DEFAULT_SEED: u64 = 2018;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Request index of the set-up's warm-up victim.
const WARMUP: u64 = u64::MAX;

/// One reported metric: its name, unit, and which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name in reports and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [MetricSpec; 4] = [
    m("attack_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("victim_queries", "queries", "lower"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [MetricSpec; 28] = [
    m("nn.build_s", "s", "lower"),
    m("accel.trace_only.share", "fraction", "lower"),
    m("accel.trace_only.events_per_s", "events/s", "higher"),
    m("accel.trace_only.cycles", "cycles", "lower"),
    m("trace.events", "events", "lower"),
    m("trace.segments", "count", "lower"),
    m("trace.observe.share", "fraction", "lower"),
    m("trace.observe.events_per_s", "events/s", "higher"),
    m("trace.segment.share", "fraction", "lower"),
    m("trace.classify.share", "fraction", "lower"),
    m("trace_events_per_s", "events/s", "higher"),
    m("structure.solve.share", "fraction", "lower"),
    m("structure.candidates", "count", "lower"),
    m("weights.attack.share", "fraction", "lower"),
    m("weights_per_s", "weights/s", "higher"),
    m("weights.oracle.share", "fraction", "lower"),
    m("weights.oracle.queries_per_s", "queries/s", "higher"),
    m("weights.oracle.victim_queries", "queries", "lower"),
    m("weights.oracle.all_queries", "queries", "lower"),
    m("weights.search.grid_probes", "count", "lower"),
    m("weights.search.refine_steps", "count", "lower"),
    m("weights.resolved", "weights", "higher"),
    m("weights.zero", "weights", "higher"),
    m("weights.unrecovered", "weights", "lower"),
    m("weights.resolved_per_kquery", "weights/kquery", "higher"),
    m("bench.traced_attack_s", "s", "lower"),
    m("bench.trace_overhead_frac", "fraction", "lower"),
    m("bench.span_coverage", "fraction", "higher"),
];

/// What one run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Problem size.
    pub scale: Scale,
    /// Seed the victims are drawn from.
    pub seed: u64,
    /// How long to keep sending requests once the count window is done.
    pub seconds: f64,
    /// Exec-pool workers.
    pub threads: usize,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Give the weights oracle a wrong geometry (a seeded fault).
    pub fault: bool,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Requests attempted, warm-ups included.
    pub attempted: u64,
    /// One line per request that erred, panicked or failed a check.
    pub failures: Vec<String>,
    /// Untraced timed requests the latency median is over.
    pub samples: usize,
    /// Metric values, in table order.
    pub metrics: Vec<(MetricSpec, f64)>,
    /// The traced run's spans (empty when untraced).
    pub recorder: Recorder,
}

impl Report {
    /// Whether every request passed its checks.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(s, _)| s.name == name)
            .map(|&(_, v)| v)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(s, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(s.name),
                    json::num(*v),
                    json::quote(s.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Request accounting shared by the set-up and the timed loop.
struct Attempts {
    workload: Workload,
    opts: RequestOptions,
    attempted: u64,
    failures: Vec<String>,
}

impl Attempts {
    /// Runs one request; an error, a failed check or a panic is recorded
    /// as a failure and does not end the run.
    fn run(&mut self, victim: &Victim, rec: &mut Recorder, id: u64) -> Option<Outcome> {
        self.attempted += 1;
        let (w, opts) = (self.workload, self.opts);
        let got = catch_unwind(AssertUnwindSafe(|| w.request(victim, opts, rec, id)));
        let label = if id == WARMUP {
            "warm-up".to_string()
        } else {
            id.to_string()
        };
        match got {
            Ok(Ok(outcome)) => return Some(outcome),
            Ok(Err(why)) => self.failures.push(format!("request {label}: {why}")),
            Err(panic) => {
                rec.close_open();
                let why = panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                self.failures
                    .push(format!("request {label} panicked: {why}"));
            }
        }
        None
    }
}

/// Runs one workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Report {
    let started = Instant::now();
    let w = cfg.workload;
    let mut attempts = Attempts {
        workload: w,
        opts: RequestOptions {
            scale: cfg.scale,
            seed: cfg.seed,
            threads: cfg.threads.max(1),
            fault: cfg.fault,
        },
        attempted: 0,
        failures: Vec::new(),
    };
    let mut untraced_rec = Recorder::new(false);
    let mut rec = Recorder::new(cfg.trace);
    let mut builds = Vec::new();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut shared = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { started } else { Instant::now() };
        // Each set-up starts from nothing: the last one's victims go first.
        drop(shared.take());
        let (victim, build_s) = timed(|| w.victim(cfg.scale, cfg.seed, WARMUP));
        builds.push(build_s);
        attempts.run(&victim, &mut untraced_rec, WARMUP);
        setups.push(t0.elapsed().as_secs_f64());
        shared = Some(victim);
    }
    let shared = shared.expect("at least one set-up");

    let window = w.count_window(cfg.scale);
    let mut latencies = Vec::new();
    let mut counted = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < window || start.elapsed().as_secs_f64() < cfg.seconds {
        let fresh;
        let victim = if w.fresh_victims() {
            let (v, build_s) = timed(|| w.victim(cfg.scale, cfg.seed, i));
            builds.push(build_s);
            fresh = v;
            &fresh
        } else {
            &shared
        };
        // A traced run attacks each victim twice, once traced, in
        // alternating order, so the overhead compares like with like.
        let order: &[bool] = match (cfg.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_now in order {
            if traced_now {
                if let Some(outcome) = attempts.run(victim, &mut rec, i) {
                    traced.push((i, outcome));
                }
            } else {
                let t = Instant::now();
                if let Some(outcome) = attempts.run(victim, &mut untraced_rec, i) {
                    latencies.push(t.elapsed().as_secs_f64());
                    if i < window {
                        counted.push(outcome);
                    }
                }
            }
        }
        i += 1;
    }

    let metrics = if cfg.trace {
        let values = layer_metrics(&traced, &rec, window, median(&builds), median(&latencies));
        PER_LAYER
            .iter()
            .map(|s| (*s, values.get(s.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let queries = mean(counted.iter().map(|o| o.victim_queries as f64));
        let values = [median(&latencies), median(&setups), peak_rss_mib(), queries];
        END_TO_END.iter().copied().zip(values).collect()
    };
    Report {
        workload: w,
        attempted: attempts.attempted,
        failures: attempts.failures,
        samples: latencies.len(),
        metrics,
        recorder: rec,
    }
}

/// Per-request layer times from the spans: the request span, its direct
/// children by name, and the extra segmentation call after it.
#[derive(Debug, Default)]
struct LayerTimes {
    request: f64,
    covered: f64,
    by_layer: BTreeMap<&'static str, f64>,
}

fn layer_times(spans: &[Span]) -> BTreeMap<u64, LayerTimes> {
    let mut out: BTreeMap<u64, LayerTimes> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.request).or_default();
        match s.parent.map(|p| spans[p].name) {
            None if s.name == "request" => e.request += s.secs(),
            None => *e.by_layer.entry(s.name).or_default() += s.secs(),
            Some("request") => {
                e.covered += s.secs();
                *e.by_layer.entry(s.name).or_default() += s.secs();
            }
            Some(_) => {}
        }
    }
    out
}

fn layer_metrics(
    traced: &[(u64, Outcome)],
    rec: &Recorder,
    window: u64,
    build_s: f64,
    untraced_s: f64,
) -> BTreeMap<&'static str, f64> {
    let times = layer_times(rec.spans());
    let layer = |id: u64, name: &str| {
        times
            .get(&id)
            .and_then(|t| t.by_layer.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    let total = |name: &str| -> f64 { times.keys().map(|&id| layer(id, name)).sum() };
    let requests: f64 = times.values().map(|t| t.request).sum();
    let share = |x: f64| ratio(x, requests);
    let (accel, observe, segment, solve, weights) = (
        total("accel.trace_only"),
        total("trace.observe"),
        total("trace.segment"),
        total("structure.solve"),
        total("weights.attack"),
    );
    let events: f64 = traced.iter().map(|(_, o)| o.events as f64).sum();
    let resolved: f64 = traced.iter().map(|(_, o)| o.resolved as f64).sum();
    let (mut oracle_queries, mut oracle_busy, mut worker_s) = (0.0, 0.0, 0.0);
    for (id, o) in traced {
        if let Some(u) = o.oracle {
            oracle_queries += u.queries as f64;
            oracle_busy += u.busy_s;
            worker_s += layer(*id, "weights.attack") * u.workers as f64;
        }
    }
    // Deterministic counts: means over the count window's victims.
    let win: Vec<&Outcome> = traced
        .iter()
        .filter(|(id, _)| *id < window)
        .map(|(_, o)| o)
        .collect();
    let win_mean = |f: fn(&Outcome) -> f64| mean(win.iter().map(|o| f(o)));
    let win_queries = win_mean(|o| o.oracle.map_or(0.0, |u| u.queries as f64));
    let registry = |k: usize| -> f64 {
        mean(
            win.iter()
                .filter_map(|o| o.oracle?.registry)
                .map(|r| r[k] as f64),
        )
    };
    let traced_lat: Vec<f64> = times.values().map(|t| t.request).collect();
    let coverage = times
        .values()
        .filter(|t| t.request > 0.0)
        .map(|t| t.covered / t.request)
        .fold(f64::INFINITY, f64::min);

    let mut v = BTreeMap::new();
    v.insert("nn.build_s", build_s);
    v.insert("accel.trace_only.share", share(accel));
    v.insert("accel.trace_only.events_per_s", ratio(events, accel));
    v.insert("accel.trace_only.cycles", win_mean(|o| o.cycles as f64));
    v.insert("trace.events", win_mean(|o| o.events as f64));
    v.insert("trace.segments", win_mean(|o| o.segments as f64));
    v.insert("trace.observe.share", share(observe));
    v.insert("trace.observe.events_per_s", ratio(events, observe));
    v.insert("trace.segment.share", share(segment));
    v.insert("trace.classify.share", share((observe - segment).max(0.0)));
    v.insert("trace_events_per_s", ratio(events, accel + observe + solve));
    v.insert("structure.solve.share", share(solve));
    v.insert("structure.candidates", win_mean(|o| o.candidates as f64));
    v.insert("weights.attack.share", share(weights));
    v.insert("weights_per_s", ratio(resolved, weights));
    v.insert("weights.oracle.share", ratio(oracle_busy, worker_s));
    v.insert(
        "weights.oracle.queries_per_s",
        ratio(oracle_queries, oracle_busy),
    );
    v.insert("weights.oracle.victim_queries", win_queries);
    v.insert("weights.search.grid_probes", registry(0));
    v.insert("weights.search.refine_steps", registry(1));
    v.insert("weights.oracle.all_queries", registry(2));
    v.insert("weights.resolved", win_mean(|o| o.resolved as f64));
    v.insert("weights.zero", win_mean(|o| o.zero as f64));
    v.insert("weights.unrecovered", win_mean(|o| o.unrecovered as f64));
    v.insert(
        "weights.resolved_per_kquery",
        1000.0 * ratio(win_mean(|o| o.resolved as f64), win_queries),
    );
    let traced_s = median(&traced_lat);
    v.insert("bench.traced_attack_s", traced_s);
    v.insert(
        "bench.trace_overhead_frac",
        ratio(traced_s, untraced_s) - 1.0,
    );
    v.insert(
        "bench.span_coverage",
        if coverage.is_finite() { coverage } else { 0.0 },
    );
    v
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// `a / b`, or 0 when `b` is 0 (an idle layer).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = xs.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    ratio(sum, n as f64)
}

/// The median (mean of the middle two for an even count), 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where the kernel
/// does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn layer_times_split_children_from_the_extra_segment_call() {
        let span = |name, start_ns, end_ns, parent, request| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        };
        let spans = [
            span("request", 0, 100, None, 0),
            span("trace.observe", 10, 60, Some(0), 0),
            span("structure.solve", 60, 90, Some(0), 0),
            span("trace.segment", 100, 120, None, 0),
        ];
        let t = &layer_times(&spans)[&0];
        assert!((t.request - 100e-9).abs() < 1e-15);
        assert!((t.covered - 80e-9).abs() < 1e-15);
        assert!((t.by_layer["trace.segment"] - 20e-9).abs() < 1e-15);
    }
}
