//! Model certification of the exec primitive: every interleaving of the
//! `map_ordered` protocol within the preemption bound is explored, and any
//! data race, deadlock, lost item, or broken invariant fails with a
//! deterministic replay schedule.

#![cfg(feature = "model-check")]

use cnnre_attacks::exec::map_ordered;
use cnnre_model::check;

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
