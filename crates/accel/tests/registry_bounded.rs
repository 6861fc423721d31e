//! The metric registry stays bounded over repeated accelerator runs: the
//! set of metric names and the length of every series are the same after
//! 2 runs and after 22. Per-stage numbers live in `Execution::stages`, not
//! in series that grow with every run.
//!
//! A binary of its own: the enabled flag and the registry are
//! process-global.

use std::collections::BTreeMap;

use cnnre_accel::{AccelConfig, Accelerator};
use cnnre_nn::models::lenet;
use cnnre_obs::export::MetricValue;
use cnnre_tensor::rng::{SeedableRng, SmallRng};
use cnnre_tensor::Tensor3;

/// Metric name → series length (`None` for scalar kinds).
fn shape() -> BTreeMap<String, Option<usize>> {
    cnnre_obs::global()
        .snapshot()
        .entries
        .into_iter()
        .map(|(name, value)| {
            let len = match value {
                MetricValue::Series(s) => Some(s.len()),
                _ => None,
            };
            (name, len)
        })
        .collect()
}

#[test]
fn registry_size_is_constant_over_accelerator_runs() {
    let mut rng = SmallRng::seed_from_u64(7);
    let net = lenet(2, 10, &mut rng);
    let input = Tensor3::zeros(net.input_shape());
    let accel = Accelerator::new(AccelConfig::default());
    let run = |n: usize| {
        for _ in 0..n {
            accel.run(&net, &input).expect("lenet runs");
        }
    };

    cnnre_obs::set_enabled(true);
    run(2);
    let after_two = shape();
    let reads_two = cnnre_obs::global().snapshot().get("accel.dram.reads");
    run(20);
    let after_many = shape();
    let reads_many = cnnre_obs::global().snapshot().get("accel.dram.reads");
    cnnre_obs::set_enabled(false);

    assert!(
        after_two.contains_key("accel.ofm.elems_pruned"),
        "an enabled run creates every accel counter, zero-valued ones included"
    );
    assert_eq!(
        after_two, after_many,
        "metric names or series lengths grew between run 2 and run 22"
    );
    // The counters still count every run.
    let reads_two = reads_two.expect("accel.dram.reads recorded");
    assert!(reads_two > 0.0);
    assert_eq!(reads_many, Some(reads_two * 11.0));
}
