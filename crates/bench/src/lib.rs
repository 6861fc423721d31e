//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see the workspace DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results).
//!
//! Each experiment has
//!
//! * a library entry point under [`experiments`] returning a structured
//!   result, and
//! * a binary (`cargo run -p cnnre-bench --release --bin <name>`) that
//!   prints the regenerated table/figure.
//!
//! Set `CNNRE_QUICK=1` to shrink the training-based experiments (figures 4
//! and 5, the prune sweep) for smoke runs. Every binary takes the global
//! flags of [`Harness`] (`--threads`, `--profile-out`, `--events-out`,
//! `--serve-obs`, `--log-level`, ...), which the `cnnre` CLI shares; its
//! `--out FILE` enables the `cnnre-obs` instrumentation and writes a flat
//! `BENCH_<experiment>.json` metric snapshot on exit. Wall time is measured
//! by the bins' own `--out`/`--profile-out` and by the end-to-end
//! benchmark under `e2e/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod harness;

pub use harness::{Harness, MetricsFile};

/// Whether quick (smoke-test) parameters were requested via `CNNRE_QUICK`.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("CNNRE_QUICK").is_ok_and(|v| v != "0")
}
