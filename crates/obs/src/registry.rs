//! The metric registry: named counters, gauges and series.
//!
//! Handles are cheap `Arc` clones; recording through a handle never takes
//! the registry lock. The lock is only held while *looking up or creating*
//! a metric; a lookup that finds the metric does not allocate. Hot loops
//! still should not look metrics up per event: the accelerator engine and
//! the trace segmenter tally in plain locals and add each total once, when
//! the run ends, and only while observability is enabled.

use std::collections::BTreeMap;

use cnnre_model::sync::atomic::{AtomicU64, Ordering};
use cnnre_model::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::export::{MetricValue, Snapshot};

/// A monotonically increasing `u64` metric. Lock-free; safe to bump from
/// any number of threads.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`. No-op while observability is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1. No-op while observability is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` metric (stored as bits in an `AtomicU64`).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge. No-op while observability is disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// An append-only ordered sequence — per-layer or per-epoch values that
/// must export as a JSON array in recording order.
#[derive(Clone, Debug)]
pub struct Series(Arc<Mutex<Vec<f64>>>);

impl Series {
    /// Appends a value. No-op while observability is disabled.
    pub fn push(&self, v: f64) {
        if crate::enabled() {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(v);
        }
    }

    /// The recorded values, in order.
    #[must_use]
    pub fn values(&self) -> Vec<f64> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of recorded values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Series(Series),
}

/// A named collection of metrics.
///
/// Most code uses the process-wide registry via [`global()`] (or the
/// [`crate::counter`]-style shorthands); tests construct private ones.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The metric `name`, created by `make` on a miss. A hit only takes
    /// the lock: the name is copied into the map on insertion alone.
    fn metric(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(metric) = m.get(name) {
            return metric.clone();
        }
        let metric = make();
        m.insert(name.to_owned(), metric.clone());
        metric
    }

    /// Returns the counter `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` already names a metric of a different kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.metric(name, || {
            Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Metric::Counter(c) => c,
            // lint:allow(panic): documented `# Panics` contract; a kind collision is a
            // programming error (covered by `kind_mismatch_panics`)
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// Returns the gauge `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` already names a metric of a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.metric(name, || {
            Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        }) {
            Metric::Gauge(g) => g,
            // lint:allow(panic): documented `# Panics` contract; a kind collision is a
            // programming error (covered by `kind_mismatch_panics`)
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// Returns the series `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` already names a metric of a different kind.
    #[must_use]
    pub fn series(&self, name: &str) -> Series {
        match self.metric(name, || {
            Metric::Series(Series(Arc::new(Mutex::new(Vec::new()))))
        }) {
            Metric::Series(s) => s,
            // lint:allow(panic): documented `# Panics` contract; a kind collision is a
            // programming error (covered by `kind_mismatch_panics`)
            other => panic!("metric {name:?} is not a series: {other:?}"),
        }
    }

    /// A point-in-time copy of every metric, ready for export.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let mut entries = BTreeMap::new();
        for (name, metric) in m.iter() {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Series(s) => MetricValue::Series(s.values()),
            };
            entries.insert(name.clone(), value);
        }
        Snapshot { entries }
    }

    /// Drops every metric. Existing handles keep working but detach from
    /// future snapshots.
    pub fn reset(&self) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// The process-wide registry used by all in-tree instrumentation.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_enabled<T>(f: impl FnOnce() -> T) -> T {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let out = f();
        crate::set_enabled(false);
        out
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::new();
        with_enabled(|| {
            r.counter("a.b").add(2);
            r.counter("a.b").inc();
        });
        assert_eq!(r.counter("a.b").get(), 3);
        assert_eq!(r.snapshot().get("a.b"), Some(3.0));
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        crate::set_enabled(false);
        r.counter("x").add(5);
        r.gauge("g").set(1.0);
        r.series("s").push(1.0);
        assert_eq!(r.counter("x").get(), 0);
        assert_eq!(r.gauge("g").get(), 0.0);
        assert!(r.series("s").is_empty());
    }

    #[test]
    fn series_preserves_order() {
        let r = Registry::new();
        with_enabled(|| {
            for i in 0..5 {
                r.series("layers").push(f64::from(i));
            }
        });
        assert_eq!(r.series("layers").values(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.gauge("m");
        let _ = r.counter("m");
    }
}

#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use cnnre_model::{check, thread};

    /// Two threads race first-use creation and increment of the same
    /// counter: under every schedule the registry lock serializes the
    /// entry creation (exactly one `Counter` is installed) and neither
    /// increment is lost.
    #[test]
    fn concurrent_counter_creation_loses_no_increment() {
        // Held across the whole exploration: other tests toggling the
        // global enabled flag mid-run would make executions diverge.
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let stats = check(|| {
            let r = Arc::new(Registry::new());
            let r2 = Arc::clone(&r);
            let t = thread::spawn(move || r2.counter("hits").inc());
            r.counter("hits").inc();
            t.join().expect("racer joined");
            assert_eq!(r.counter("hits").get(), 2, "an increment was lost");
        });
        crate::set_enabled(false);
        assert!(
            stats.executions > 1,
            "contended registry must explore several schedules"
        );
    }

    /// A scrape (`snapshot`) racing a recording thread — the HTTP
    /// `/metrics` path against a live attack. Under every schedule the
    /// snapshot is a consistent point-in-time copy: the counter reads 0
    /// or 1 (never garbage, never a torn entry) and the recording thread
    /// always lands its increment.
    #[test]
    fn snapshot_during_concurrent_increment_is_consistent() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let stats = check(|| {
            let r = Arc::new(Registry::new());
            let recorder = {
                let r = Arc::clone(&r);
                thread::spawn(move || r.counter("scrape.race").inc())
            };
            let snap = r.snapshot();
            recorder.join().expect("recorder joined");
            match snap.entries.get("scrape.race") {
                None => {} // scraped before the entry existed
                Some(MetricValue::Counter(v)) => {
                    assert!(*v <= 1, "impossible counter value {v}");
                }
                Some(other) => panic!("scrape.race has wrong kind: {other:?}"),
            }
            assert_eq!(r.counter("scrape.race").get(), 1, "increment was lost");
        });
        crate::set_enabled(false);
        assert!(
            stats.executions > 1,
            "scrape-during-record must explore several schedules"
        );
    }
}
