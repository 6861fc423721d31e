//! The DAC'18 reverse-engineering attacks — the primary contribution of
//! *"Reverse Engineering Convolutional Neural Networks Through Side-channel
//! Information Leaks"* (Hua, Zhang, Suh; DAC 2018).
//!
//! Two attacks against a CNN model running on a secure accelerator whose
//! off-chip memory access pattern leaks:
//!
//! * [`structure`] — recover the network structure (layer count,
//!   connections including fire modules and bypass paths, and all Table-2
//!   layer parameters) from the memory trace plus per-layer execution time
//!   (§3, Algorithm 1);
//! * [`weights`] — recover every filter weight as a ratio to its bias by
//!   exploiting dynamic zero pruning with crafted inputs and binary search
//!   on zero-crossing points (§4, Algorithm 2), plus full weight recovery
//!   when a tunable activation threshold is available;
//! * [`assumptions`] — the paper's Table-1 threat-model matrix as types;
//! * [`exec`] — the parallel execution layer the attacks run on: the
//!   deterministic ordered fork/join (`map_ordered`) that fans the
//!   per-layer solver grid and the weights attack out across workers,
//!   built only on the `cnnre-model` shims and certified by exhaustive
//!   model checking. Candidate output and telemetry stay byte-identical at
//!   any thread count (DESIGN.md §13).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assumptions;
pub mod exec;
pub mod structure;
pub mod weights;
