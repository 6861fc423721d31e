//! A cycle-approximate, trace-accurate CNN inference accelerator simulator.
//!
//! This crate stands in for the paper's Vivado-HLS FPGA accelerator plus the
//! hardware Trojan that collected its memory trace (DESIGN.md §4). It
//! executes a [`cnnre_nn::Network`] the way the paper's Figure-1
//! architecture does — tiled, with on-chip IFM/weight buffers, merged
//! conv+ReLU+pooling layers, feature maps and weights in off-chip DRAM —
//! and hands every DRAM transaction, as it is issued, to a
//! [`cnnre_trace::EventSink`]: a [`cnnre_trace::TraceBuilder`] that stores
//! the adversary-visible [`cnnre_trace::Trace`], or the caller's own.
//!
//! Key properties the attacks rely on (all faithful to the paper's model):
//!
//! * each tensor occupies its own contiguous DRAM region;
//! * feature maps are written once by their producer and read by their
//!   consumers (the RAW dependency of §3.1);
//! * intermediate results never leave the chip, so merged
//!   activation/pooling is invisible;
//! * execution time is dominated by MACs on the PE array;
//! * with [`AccelConfig::zero_pruning`], output feature maps are stored
//!   compressed — the number of write transactions leaks the non-zero
//!   count (§4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod layout;
mod schedule;

pub use config::AccelConfig;
#[cfg(feature = "audit-hooks")]
pub use engine::audit_finished_trace;
pub use engine::{Accelerator, Execution, StageReport};
pub use layout::{DramLayout, Region, RegionKind};
pub use schedule::{Binding, Schedule, ScheduleError, Stage, StageKind};
