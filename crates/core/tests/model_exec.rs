//! Model certification of the exec primitives: every interleaving of the
//! `Memo` and `map_ordered` protocols within the preemption bound is
//! explored, and any data race, deadlock, lost item, or broken invariant
//! fails with a deterministic replay schedule.

#![cfg(feature = "model-check")]

use cnnre_attacks::exec::{map_ordered, Memo};
use cnnre_model::sync::{Arc, Mutex};
use cnnre_model::{check, thread};

fn locked<T: Copy>(m: &Mutex<T>) -> T {
    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Memo same-key race: two threads racing on one key run the compute
/// closure exactly once under every schedule (the loser waits on the
/// in-flight marker) and both observe the same `Arc`.
#[test]
fn memo_same_key_computes_once_under_every_schedule() {
    let stats = check(|| {
        let memo: Memo<u32, u32> = Memo::new();
        let computes = Arc::new(Mutex::new(0u32));
        let (memo2, computes2) = (memo.clone(), Arc::clone(&computes));
        let t = thread::spawn(move || {
            memo2.get_or_compute(5, || {
                *computes2
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
                25
            })
        });
        let a = memo.get_or_compute(5, || {
            *computes
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
            25
        });
        let b = t.join().expect("racer joined");
        assert!(Arc::ptr_eq(&a, &b), "both lookups must share one value");
        assert_eq!(*a, 25);
        assert_eq!(locked(&computes), 1, "the closure must run exactly once");
        assert_eq!(
            (memo.hits(), memo.misses()),
            (1, 1),
            "tallies must be schedule-independent"
        );
    });
    assert!(
        stats.executions > 1,
        "the same-key race must explore several schedules"
    );
}

/// Memo distinct-key concurrency: racing lookups of different keys both
/// miss (the lock is dropped around each compute) and neither blocks the
/// other's publication.
#[test]
fn memo_distinct_keys_compute_concurrently() {
    check(|| {
        let memo: Memo<u32, u32> = Memo::new();
        let memo2 = memo.clone();
        let t = thread::spawn(move || *memo2.get_or_compute(1, || 10));
        let a = *memo.get_or_compute(2, || 20);
        let b = t.join().expect("racer joined");
        assert_eq!((a, b), (20, 10));
        assert_eq!((memo.hits(), memo.misses()), (0, 2));
    });
}

/// Ordered reduction over two workers: under every schedule the output
/// vector matches the sequential map byte for byte, whatever worker
/// claimed which item.
#[test]
fn map_ordered_is_schedule_independent() {
    let stats = check(|| {
        let out = map_ordered(2, vec![3u32, 5, 7], |i, x| (i, x * x));
        assert_eq!(out, vec![(0, 9), (1, 25), (2, 49)]);
    });
    assert!(
        stats.executions > 1,
        "the parallel map must explore several schedules"
    );
}
