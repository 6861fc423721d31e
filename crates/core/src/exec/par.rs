//! Deterministic parallel drivers for the attack engines: an ordered
//! fork/join map ([`map_ordered`]), a compute-once memo cache ([`Memo`]),
//! and the process-wide worker-count knob ([`default_threads`]).
//!
//! # Determinism contract
//!
//! Every driver here guarantees that its *result value* is independent of
//! thread count and scheduling:
//!
//! * [`map_ordered`] collects each task's result into the slot of its
//!   input index (an ordered reduction), so the output `Vec` is the same
//!   as a sequential `map` — byte for byte — no matter which worker ran
//!   which item or in which order they finished.
//! * [`Memo::get_or_compute`] computes each key exactly once (an
//!   in-flight marker makes racing readers wait instead of recomputing),
//!   so its hit/miss tallies are schedule-independent: misses always
//!   equal the number of distinct keys, hits the remaining lookups.
//!
//! Built exclusively on the `cnnre_model` shims (SY001 bans raw
//! `std::sync`/`std::thread` in this crate), so the same protocols are
//! explored exhaustively in `crates/core/tests/model_exec.rs`.

use std::collections::BTreeMap;

use cnnre_model::sync::atomic::{AtomicUsize, Ordering};
use cnnre_model::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
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
/// until the caller joins it. Every worker re-enters the caller's
/// [`cnnre_obs::run::task_ctx`], so spans opened inside `f` parent under
/// the caller's span.
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
    let ctx = cnnre_obs::run::task_ctx();
    let workers: Vec<_> = (0..threads.min(n))
        .map(|_| {
            let (items, next, f, ctx) = (
                Arc::clone(&items),
                Arc::clone(&next),
                Arc::clone(&f),
                ctx.clone(),
            );
            thread::spawn(move || {
                let _ctx = ctx.map(cnnre_obs::run::enter);
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

/// A ready or in-flight memo entry.
enum Entry<V> {
    /// Some thread is computing this key; waiters block on the condvar.
    InFlight,
    /// The computed value.
    Ready(Arc<V>),
}

struct MemoState<K, V> {
    entries: BTreeMap<K, Entry<V>>,
    hits: u64,
    misses: u64,
}

struct MemoInner<K, V> {
    state: Mutex<MemoState<K, V>>,
    /// Signaled whenever an in-flight entry becomes ready.
    ready: Condvar,
}

/// A shared compute-once cache keyed by `K`: concurrent lookups of the
/// same key yield the same `Arc<V>` and run the compute closure exactly
/// once — racing readers wait on an in-flight marker instead of
/// recomputing.
///
/// Distinct keys compute concurrently (the lock is dropped around the
/// closure), so memoized stages still scale across workers. Because every
/// key is computed exactly once, the hit/miss tallies are
/// schedule-independent: `misses()` equals the number of distinct keys
/// ever requested and `hits()` the remaining lookups, whatever the
/// interleaving.
///
/// Cloning is shallow: clones share the same cache.
///
/// The compute closure must not panic — a panicking computation leaves
/// its key permanently in flight and later lookups of that key would
/// block forever. (The solver closures memoized here return plain
/// candidate vectors and do not panic.)
pub struct Memo<K, V> {
    inner: Arc<MemoInner<K, V>>,
}

impl<K, V> Clone for Memo<K, V> {
    fn clone(&self) -> Self {
        Memo {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: Ord, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> Memo<K, V> {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Memo {
            inner: Arc::new(MemoInner {
                state: Mutex::new(MemoState {
                    entries: BTreeMap::new(),
                    hits: 0,
                    misses: 0,
                }),
                ready: Condvar::new(),
            }),
        }
    }

    /// Returns the cached value for `key`, computing it with `compute` on
    /// the first lookup. Concurrent lookups of an in-flight key block
    /// until the computing thread publishes the value.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V>
    where
        K: Clone,
    {
        let mut st = lock(&self.inner.state);
        loop {
            match st.entries.get(&key) {
                Some(Entry::Ready(v)) => {
                    let v = Arc::clone(v);
                    st.hits += 1;
                    return v;
                }
                Some(Entry::InFlight) => {
                    st = self
                        .inner
                        .ready
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    st.entries.insert(key.clone(), Entry::InFlight);
                    st.misses += 1;
                    break;
                }
            }
        }
        drop(st);
        let value = Arc::new(compute());
        // lint:allow(cr-lock-order): single-lock protocol — the state guard
        // is dropped above before `compute` runs; this is a fresh acquisition
        // of the same (only) mutex to publish the value, never a nesting.
        let mut st = lock(&self.inner.state);
        st.entries.insert(key, Entry::Ready(Arc::clone(&value)));
        drop(st);
        self.inner.ready.notify_all();
        value
    }

    /// Lookups served from the cache (schedule-independent; see the type
    /// docs).
    #[must_use]
    pub fn hits(&self) -> u64 {
        lock(&self.inner.state).hits
    }

    /// Lookups that ran the compute closure — exactly one per distinct
    /// key.
    #[must_use]
    pub fn misses(&self) -> u64 {
        lock(&self.inner.state).misses
    }
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
    fn memo_computes_each_key_once() {
        let memo: Memo<u32, u32> = Memo::new();
        let a = memo.get_or_compute(3, || 9);
        let b = memo.get_or_compute(3, || unreachable!("must be cached"));
        assert_eq!(*a, 9);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        let _ = memo.get_or_compute(4, || 16);
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }
}
