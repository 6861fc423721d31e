//! Zero-dependency observability for the attack pipeline.
//!
//! Everything in this crate is built on `std` alone (atomics, `Mutex`,
//! `Instant`) — the workspace builds offline, so the usual `tracing` /
//! `metrics` stacks are off the table. The crate provides four things:
//!
//! * a global, thread-safe [`Registry`] of named [counters](Counter),
//!   [gauges](Gauge), [histograms](Histogram) and per-layer/per-epoch
//!   [series](Series);
//! * hierarchical [`span`]s that record wall-clock time *and* simulated
//!   accelerator cycles;
//! * a leveled stderr [logger](log) gated by the `CNNRE_LOG` environment
//!   variable (and the CLI `--log-level` flag);
//! * [exporters](export): JSON-lines, a flat `BENCH_*.json`-compatible
//!   snapshot, and a human ASCII summary table.
//!
//! # Cost model
//!
//! Instrumentation is **off by default**. Every recording call first does a
//! single `Relaxed` atomic load of the global enabled flag and returns
//! immediately when it is clear, so a fully instrumented hot loop costs one
//! predictable branch per event when observability is disabled. Turn it on
//! with [`set_enabled`] (the CLI does this when `--metrics` is passed).
//!
//! # Metric name schema
//!
//! Names are dotted paths, lowercase, with the subsystem first:
//!
//! ```text
//! accel.dram.reads              counter   DRAM read transactions
//! accel.dram.writes             counter   DRAM write transactions
//! accel.layer.compute_cycles    series    per-stage compute-busy cycles
//! trace.segments.accepted       counter   RAW boundaries accepted
//! solver.candidates_per_layer   series    surviving candidates per layer
//! oracle.queries                counter   weight-attack oracle queries
//! ```
//!
//! Metrics whose final name segment is `wall_ns` carry wall-clock time and
//! are therefore nondeterministic; deterministic exports drop them (see
//! [`Snapshot::to_json`]).
//!
//! # Example
//!
//! ```
//! use cnnre_obs as obs;
//!
//! obs::set_enabled(true);
//! obs::counter("oracle.queries").add(3);
//! obs::series("solver.candidates_per_layer").push(18.0);
//! let snap = obs::global().snapshot();
//! assert_eq!(snap.get("oracle.queries"), Some(3.0));
//! # obs::set_enabled(false);
//! # obs::global().reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod export;
pub mod http;
mod json;
pub mod log;
pub mod profile;
mod registry;
pub mod run;
pub mod span;
pub mod stream;

pub use export::Snapshot;
pub use registry::{global, Counter, Gauge, Histogram, HistogramStats, Registry, Series};
pub use span::SpanGuard;

use cnnre_model::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes tests that toggle the global enabled flag.
#[cfg(test)]
pub(crate) fn test_lock() -> cnnre_model::sync::MutexGuard<'static, ()> {
    static LOCK: cnnre_model::sync::Mutex<()> = cnnre_model::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(cnnre_model::sync::PoisonError::into_inner)
}

/// Turns global metric collection on or off.
///
/// Off (the default) makes every recording call a single relaxed atomic
/// load — cheap enough to leave instrumentation in release hot loops.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric collection is currently enabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Shorthand for [`global()`]`.counter(name)`.
#[must_use]
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Shorthand for [`global()`]`.gauge(name)`.
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Shorthand for [`global()`]`.histogram(name)`.
#[must_use]
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Shorthand for [`global()`]`.series(name)`.
#[must_use]
pub fn series(name: &str) -> Series {
    global().series(name)
}

/// Opens a hierarchical timing span on the global registry. See [`span`].
#[must_use]
pub fn span(name: &str) -> SpanGuard {
    SpanGuard::enter(name)
}

/// Opens a span whose profile-timeline display name is `label` while its
/// metric path stays `name` — per-instance names (layer names, pass
/// numbers) without unbounded metric cardinality. See
/// [`SpanGuard::enter_labelled`].
#[must_use]
pub fn span_labelled(name: &str, label: &str) -> SpanGuard {
    SpanGuard::enter_labelled(name, label)
}
