//! The weights reverse-engineering attack (the paper's §4): exploiting
//! dynamic zero pruning to recover every filter weight as a ratio `w/b` of
//! its bias — and, with a tunable activation threshold, the exact values.
//!
//! Pipeline:
//!
//! 1. a [`ZeroCountOracle`] exposes the pruning side channel (feed a crafted
//!    input, observe per-filter non-zero output counts from the write
//!    transactions);
//! 2. [`find_crossings`] binary-searches the probe values at which output
//!    pixels cross the pruning boundary (Equation (9)) from a full probe
//!    grid; [`find_monotone_crossings`] finds the same crossings with far
//!    fewer grid probes when the count is monotone on each side of zero
//!    (one unpinned probe into a plain or max-pooled layer, or an FC
//!    neuron);
//! 3. [`recover_ratios`] drives Algorithm 2 (generalized: isolation probes
//!    plus descending iteration and a virtual-model predictor) to assign
//!    one `w/b` per weight and identify exact zeros;
//! 4. [`recover_bias`] uses the tunable threshold (Minerva-style) to pin
//!    down the remaining unknown, after which [`full_weights`] yields the
//!    complete filter bank.

mod fc;
mod oracle;
mod recover;
mod search;
mod threshold;

pub use fc::{recover_fc_ratios, FcRatioRecovery, FcZeroCountOracle, FunctionalFcOracle};
pub use oracle::{
    AcceleratorOracle, FunctionalOracle, LayerGeometry, MergedOrder, Probe, ZeroCountOracle,
};
pub use recover::{
    recover_ratios, recover_ratios_parallel, RatioRecovery, RecoveredFilter, RecoveryConfig,
};
pub use search::{find_crossings, find_monotone_crossings, Crossing, ProbeGrid, SearchConfig};
pub use threshold::{
    full_weights, full_weights_with_threshold, recover_bias, BiasRecovery, ThresholdControl,
};
