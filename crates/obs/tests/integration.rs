//! Integration tests for the observability layer: concurrency
//! losslessness and snapshot determinism.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;

use cnnre_obs::{global, set_enabled};

/// Serializes tests that toggle the process-global enabled flag or mutate
/// the global registry, so the parallel test runner cannot interleave them.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn concurrent_counter_increments_are_lossless() {
    let _guard = lock();
    set_enabled(true);
    global().reset();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let c = global().counter("it.concurrent.counter");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(
        global().counter("it.concurrent.counter").get(),
        THREADS as u64 * PER_THREAD,
        "concurrent increments must not be lost"
    );
    global().reset();
    set_enabled(false);
}

#[test]
fn concurrent_series_pushes_are_lossless() {
    let _guard = lock();
    set_enabled(true);
    global().reset();
    const THREADS: usize = 4;
    const PER_THREAD: usize = 2_500;
    thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let series = global().series("it.concurrent.series");
                for i in 0..PER_THREAD {
                    series.push((t * PER_THREAD + i) as f64);
                }
            });
        }
    });
    let values = global().series("it.concurrent.series").values();
    assert_eq!(values.len(), THREADS * PER_THREAD);
    // Every pushed value arrived exactly once (order is scheduling-defined).
    let mut sorted = values;
    sorted.sort_by(f64::total_cmp);
    for (i, v) in sorted.iter().enumerate() {
        assert_eq!(*v, i as f64);
    }
    global().reset();
    set_enabled(false);
}

/// A deterministic pseudo-workload: same calls, same values, every run.
fn seeded_workload(seed: u64) {
    let mut state = seed;
    let mut next = move || {
        // SplitMix64 step — deterministic, no external RNG needed here.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..100 {
        global().counter("it.det.counter").add(next() % 7);
        global()
            .series("it.det.series")
            .push((next() % 1000) as f64 / 10.0);
    }
    global().gauge("it.det.gauge").set((next() % 100) as f64);
}

#[test]
fn identical_seeded_runs_export_byte_identical_snapshots() {
    let _guard = lock();
    set_enabled(true);

    global().reset();
    seeded_workload(42);
    let first = global().snapshot().to_json(false);

    global().reset();
    seeded_workload(42);
    let second = global().snapshot().to_json(false);

    assert_eq!(
        first, second,
        "deterministic runs must export identical bytes"
    );
    assert!(first.contains("it.det.counter"));

    // A different seed must actually change the export (the comparison
    // above is not vacuous).
    global().reset();
    seeded_workload(43);
    let third = global().snapshot().to_json(false);
    assert_ne!(first, third);

    global().reset();
    set_enabled(false);
}

#[test]
fn wall_clock_metrics_are_excluded_from_deterministic_export() {
    let _guard = lock();
    set_enabled(true);
    global().reset();
    global().counter("it.span.wall_ns").add(123_456);
    global().counter("it.span.calls").add(1);
    let deterministic = global().snapshot().to_json(false);
    let full = global().snapshot().to_json(true);
    assert!(!deterministic.contains("it.span.wall_ns"));
    assert!(deterministic.contains("it.span.calls"));
    assert!(full.contains("it.span.wall_ns"));
    global().reset();
    set_enabled(false);
}

#[test]
fn disabled_instrumentation_records_nothing() {
    let _guard = lock();
    set_enabled(false);
    global().reset();
    global().counter("it.disabled.counter").add(5);
    global().series("it.disabled.series").push(1.0);
    assert_eq!(global().counter("it.disabled.counter").get(), 0);
    assert!(global().series("it.disabled.series").values().is_empty());
    global().reset();
}
