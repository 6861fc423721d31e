//! Parallel-execution primitives for the multi-threaded attack engines:
//! [`map_ordered`] (an ordered fork/join map over a list known up front)
//! and the process-wide worker-count knob ([`default_threads`]), both
//! written exclusively against the `cnnre_model` sync shims.
//!
//! In release builds the shims are transparent `std` re-exports (the
//! perf gate pins this); under the `model-check` feature the protocol is
//! explored exhaustively — every interleaving within the preemption
//! bound, with data races, deadlocks, and lost updates reported with a
//! deterministic replay schedule. The SY001 lint keeps raw
//! `std::sync`/`std::thread` out of this crate so nothing concurrent
//! escapes that certification.
//!
//! The structure solver's per-layer grid (Eq. (1)–(8) candidate
//! enumeration) and the weights attack's per-filter crossing search fan
//! their independent shards out through [`map_ordered`], which spawns its
//! workers for the one call and joins them before returning. The chain
//! walk that assembles whole structures runs on the calling thread.
//! DESIGN.md §13 documents why candidate output and telemetry stay
//! byte-identical at any `--threads` value.

#![deny(missing_docs)]

mod par;

pub use par::{default_threads, map_ordered, set_default_threads};
