//! One module per reproduced table/figure.

pub mod ablation;
pub mod ablation_prune_sweep;
pub mod defense;
pub mod defense_matrix;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod table3;
pub mod table4;

use cnnre_accel::{AccelConfig, Accelerator, Execution};
use cnnre_nn::Network;

/// Runs one trace-only inference with the default accelerator.
///
/// # Panics
///
/// Panics when the network cannot be lowered (all the study's networks
/// can).
#[must_use]
pub fn trace_of(net: &Network) -> Execution {
    Accelerator::new(AccelConfig::default())
        .run_trace_only(net)
        .expect("study networks lower onto the accelerator")
}
