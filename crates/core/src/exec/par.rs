//! The deterministic parallel driver of the attack engines, an ordered
//! fork/join map ([`map_ordered`]), and the process-wide worker-count knob
//! ([`default_threads`]).
//!
//! # Determinism contract
//!
//! [`map_ordered`] collects each task's result into the slot of its input
//! index (an ordered reduction), so the output `Vec` is the same as a
//! sequential `map` — byte for byte — no matter which worker ran which
//! item or in which order they finished.
//!
//! Built exclusively on the `cnnre_model` shims (SY001 bans raw
//! `std::sync`/`std::thread` in this crate), so the same protocol is
//! explored exhaustively in `crates/core/tests/model_exec.rs`.

use cnnre_model::sync::atomic::{AtomicUsize, Ordering};
use cnnre_model::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use cnnre_model::thread;

/// Explicit worker-count override installed by [`set_default_threads`].
static OVERRIDE: OnceLock<usize> = OnceLock::new();
/// Cached `CNNRE_THREADS` environment lookup.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// The process-wide default worker count used by thread-aware configs
/// (e.g. `SolverConfig::default`): the value installed by
/// [`set_default_threads`] if any, else the `CNNRE_THREADS` environment
/// variable, else 1 (fully sequential).
///
/// The environment lookup is cached on first call; the override wins over
/// the environment but must be installed before the configs that should
/// observe it are built.
#[must_use]
pub fn default_threads() -> usize {
    match OVERRIDE.get() {
        Some(&n) => n.max(1),
        None => *ENV_THREADS.get_or_init(|| {
            std::env::var("CNNRE_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1)
        }),
    }
}

/// Installs a process-wide worker-count override (the `--threads` flag of
/// the bench binaries and the CLI). First caller wins; returns `false`
/// when an override was already installed.
pub fn set_default_threads(threads: usize) -> bool {
    OVERRIDE.set(threads.max(1)).is_ok()
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps `f` over `items` on up to `threads` workers, returning the
/// results **in item order** (each result lands in the slot of its input
/// index — a deterministic ordered reduction).
///
/// With `threads <= 1` (or fewer than two items) the closure runs inline
/// on the caller, so the sequential path is structurally identical to a
/// plain `map` and spawns nothing.
///
/// Otherwise `threads.min(items.len())` workers are spawned for this one
/// call. Each worker claims the next unclaimed index from a shared
/// counter, runs the closure on that item, and keeps `(index, result)`
/// until the caller joins it. Workers carry no span context: a span
/// opened inside `f` on a worker starts a fresh root, so callers keep
/// their closures silent.
///
/// The closure receives `(index, item)`; results are returned as if by
/// `items.into_iter().enumerate().map(f).collect()`.
///
/// # Panics
///
/// Panics when a task panics: the caller joins every worker first (the
/// surviving workers run the remaining items), then re-raises the
/// failure once.
pub fn map_ordered<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    if threads <= 1 || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let n = items.len();
    let items: Arc<Vec<Mutex<Option<T>>>> = Arc::new(
        items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect(),
    );
    let next = Arc::new(AtomicUsize::new(0));
    let f = Arc::new(f);
    let workers: Vec<_> = (0..threads.min(n))
        .map(|_| {
            let (items, next, f) = (Arc::clone(&items), Arc::clone(&next), Arc::clone(&f));
            thread::spawn(move || {
                let mut done = Vec::new();
                loop {
                    // Relaxed: the counter publishes nothing but distinct
                    // indices; each item moves through its slot's mutex
                    // and each result through the join.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i).and_then(|slot| lock(slot).take()) else {
                        break;
                    };
                    done.push((i, f(i, item)));
                }
                done
            })
        })
        .collect();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut panicked = 0;
    for worker in workers {
        match worker.join() {
            Ok(done) => {
                for (i, result) in done {
                    slots[i] = Some(result);
                }
            }
            Err(_) => panicked += 1,
        }
    }
    assert!(panicked == 0, "map_ordered: {panicked} worker(s) panicked");
    slots
        .into_iter()
        .enumerate()
        // lint:allow(panic): every index below `n` is claimed exactly once,
        // so a missing slot after a clean join is a bug here
        .map(|(i, r)| r.unwrap_or_else(|| panic!("map_ordered: task {i} left no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ordered_sequential_matches_parallel() {
        let items: Vec<usize> = (0..64).collect();
        let seq = map_ordered(1, items.clone(), |i, x| (i, x * x));
        let par = map_ordered(4, items, |i, x| (i, x * x));
        assert_eq!(seq, par);
        assert_eq!(seq[10], (10, 100));
    }

    #[test]
    fn map_ordered_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_ordered(8, empty, |_, x: u32| x).is_empty());
        assert_eq!(map_ordered(8, vec![7u32], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }
}
