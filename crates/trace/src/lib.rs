//! The memory side-channel model of the DAC'18 study.
//!
//! In the paper's threat model (its Figure 2), the adversary sees, for every
//! off-chip DRAM transaction of the CNN accelerator, only three things: the
//! **address**, the access **type** (read or write), and the **time** — data
//! values are encrypted. This crate defines that adversary view
//! ([`Trace`], [`MemoryEvent`]) and everything the attacker computes from
//! it before the actual attacks run:
//!
//! * [`segment`] — layer-boundary detection from read-after-write (RAW)
//!   dependencies (the paper's Algorithm 1, step 1);
//! * [`observe`] — per-layer observations: `SIZE_IFM`, `SIZE_OFM`,
//!   `SIZE_FLTR` from region extents, execution cycles, and the
//!   inter-layer dependency (connection) structure including bypass paths;
//! * [`stats`] — trace statistics and traffic profiles (the quantitative
//!   view behind the paper's Figure 3);
//! * [`defense`] — an ORAM-style access-pattern obfuscation (§5 of the
//!   paper discusses ORAM as the countermeasure) used in the defense
//!   ablation experiment;
//! * [`audit`] — independent re-derivation of the trace/segmentation
//!   invariants everything above relies on, used by the `cnnre-audit`
//!   artifact auditor and (behind the `audit-hooks` feature) asserted on
//!   every segmentation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
#[cfg(test)]
mod proptests;
mod stamps;

pub mod audit;
pub mod defense;
pub mod io;
pub mod observe;
pub mod segment;
pub mod stats;

pub use event::{
    AccessKind, Addr, Cycle, EventSink, MemoryEvent, Trace, TraceBuilder, TraceEvents,
};
