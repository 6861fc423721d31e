//! Normal-mode tests of the `map_ordered` fan-out on real OS threads:
//! ordered results, and a task panic re-raised once after the other items
//! ran. A worker panic is a model-check failure, so the re-raise is tested
//! here rather than in `model_exec.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cnnre_attacks::exec::map_ordered;

#[test]
fn map_ordered_runs_many_items_in_order() {
    let ran = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&ran);
    let out = map_ordered(4, (0..200u64).collect(), move |i, x| {
        counter.fetch_add(1, Ordering::Relaxed);
        (i, x * 3)
    });
    let expected: Vec<(usize, u64)> = (0..200u64).map(|x| (x as usize, x * 3)).collect();
    assert_eq!(out, expected);
    assert_eq!(ran.load(Ordering::Relaxed), 200, "every item runs once");
}

#[test]
fn map_ordered_reraises_a_task_panic_after_the_others_run() {
    let ran = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&ran);
    let result = catch_unwind(AssertUnwindSafe(|| {
        map_ordered(2, (0..10u32).collect(), move |_, x| {
            assert!(x != 3, "seeded panic on item 3");
            counter.fetch_add(1, Ordering::Relaxed);
            x
        })
    }));
    let payload = result.expect_err("a task panic must surface");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_default();
    assert!(message.starts_with("map_ordered:"), "got {message:?}");
    assert_eq!(
        ran.load(Ordering::Relaxed),
        9,
        "the other nine items still run before the panic is re-raised"
    );
}
