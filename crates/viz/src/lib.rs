//! `cnnre-viz`: consumer-side rendering of the live attack-telemetry
//! stream (`cnnre_obs::stream`).
//!
//! The library half is pure and deterministic — it folds a sequence of
//! [`AttackEvent`]s into a [`replay::ReplayState`] and renders:
//!
//! * the recovered network graph as DOT ([`dot::render_dot`]) and SVG
//!   ([`dot::render_graph_svg`]), growing as `GraphConv`/`GraphFc` events
//!   confirm layers;
//! * an attack-progress timeline ([`timeline::render_timeline_svg`]):
//!   surviving candidates per layer, top-level enumeration progress, and
//!   oracle query consumption, over the stream's cycle/query domain.
//!
//! Everything is integer arithmetic over the wire-format values, so the
//! same `.evt` file always renders byte-identical output (the golden
//! replay test pins this). The binary (`src/main.rs`) adds the I/O shell:
//! `--replay <file>` or `--replay http://HOST:PORT[/PATH]`, which reads a
//! run's `/events` endpoint.

pub mod dot;
pub mod replay;
pub mod timeline;

pub use replay::{GraphLayer, ReplayState, RunState};
