//! The traced run's instruments, kept in the benchmark: an in-memory span
//! recorder around the calls into each layer, and a metering wrapper for
//! the victim oracle.
//!
//! Oracle queries are far too many (millions per request) for one span
//! each, so the wrapper aggregates them in shared atomics instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cnnre_attacks::weights::{LayerGeometry, Probe, ZeroCountOracle};

use crate::json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `trace.observe`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// The request (victim index) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when on; when off, [`Recorder::span`] only runs its body.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`on`) or only runs the bodies.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `body` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return body(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = body(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Ends every open span now, after a panic unwound through them.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":{},\"cat\":\"e2e\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"request\":{},\"parent\":{}}}}}",
                    json::quote(s.name),
                    json::num(s.start_ns as f64 / 1e3),
                    json::num((s.end_ns - s.start_ns) as f64 / 1e3),
                    s.request,
                    parent
                )
            })
            .collect();
        format!("[\n{}\n]\n", events.join(",\n"))
    }
}

/// `cnnre_obs` registry counters a traced weights attack reads.
pub const REGISTRY_COUNTERS: [&str; 3] = [
    "weights.search.grid_probes",
    "weights.search.refine_steps",
    "oracle.queries",
];

/// Runs `body`; when `on`, with `cnnre_obs` collection switched on, and
/// returns how far it moved each of [`REGISTRY_COUNTERS`].
///
/// Only the functional-oracle attacks switch it on: with collection on,
/// every accelerator run snapshots the whole registry, whose series grow
/// with each run, so an accelerator-backed attack slows quadratically.
pub fn with_registry_counts<R>(on: bool, body: impl FnOnce() -> R) -> (R, Option<[u64; 3]>) {
    struct Off;
    impl Drop for Off {
        fn drop(&mut self) {
            cnnre_obs::set_enabled(false);
        }
    }
    if !on {
        return (body(), None);
    }
    let read = || {
        let reg = cnnre_obs::global();
        REGISTRY_COUNTERS.map(|name| reg.counter(name).get())
    };
    let before = read();
    cnnre_obs::set_enabled(true);
    let _off = Off;
    let out = body();
    let after = read();
    (out, Some([0, 1, 2].map(|k| after[k] - before[k])))
}

/// Totals shared by every clone of a [`Metered`] oracle.
#[derive(Debug, Default)]
pub struct OracleStats {
    queries: AtomicU64,
    busy_ns: AtomicU64,
}

impl OracleStats {
    /// What the attack did with the oracle, run on `workers` workers.
    #[must_use]
    pub fn usage(&self, workers: usize, registry: Option<[u64; 3]>) -> OracleUse {
        OracleUse {
            queries: self.queries.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            workers,
            registry,
        }
    }

    fn record(&self, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only; they publish no other data.
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// What a traced weights attack did with its victim oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleUse {
    /// Victim queries answered.
    pub queries: u64,
    /// Summed time inside the victim over all workers, in seconds.
    pub busy_s: f64,
    /// Workers the attack ran on.
    pub workers: usize,
    /// How far the attack moved the [`REGISTRY_COUNTERS`], when read.
    pub registry: Option<[u64; 3]>,
}

/// A victim oracle that, when metering, counts and times every query into
/// [`OracleStats`] shared across the clones the parallel attack makes;
/// otherwise it only passes queries through.
#[derive(Debug, Clone)]
pub struct Metered<O> {
    inner: O,
    stats: Option<Arc<OracleStats>>,
}

impl<O> Metered<O> {
    /// Wraps `inner`; when `on`, also returns the stats it records into.
    pub fn wrap(inner: O, on: bool) -> (Self, Option<Arc<OracleStats>>) {
        let stats = on.then(Arc::default);
        (
            Self {
                inner,
                stats: stats.clone(),
            },
            stats,
        )
    }

    fn timed<R>(&mut self, query: impl FnOnce(&mut O) -> R) -> R {
        match &self.stats {
            None => query(&mut self.inner),
            Some(stats) => {
                let t = Instant::now();
                let out = query(&mut self.inner);
                stats.record(t);
                out
            }
        }
    }
}

impl<O: ZeroCountOracle> ZeroCountOracle for Metered<O> {
    fn geometry(&self) -> LayerGeometry {
        self.inner.geometry()
    }

    fn query(&mut self, probes: &[Probe]) -> Vec<u64> {
        self.timed(|o| o.query(probes))
    }

    fn query_filter(&mut self, filter: usize, probes: &[Probe]) -> u64 {
        self.timed(|o| o.query_filter(filter, probes))
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut rec = Recorder::new(true);
        let v = rec.span("request", 7, |r| r.span("trace.observe", 7, |_| 3));
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let trace = json::parse(&rec.chrome_trace()).expect("valid Chrome trace");
        assert_eq!(trace.as_arr().map(<[_]>::len), Some(2));

        let mut off = Recorder::new(false);
        assert_eq!(off.span("request", 0, |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
