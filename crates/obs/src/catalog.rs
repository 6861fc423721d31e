//! The static metric catalogue: every metric name the pipeline records,
//! with its kind and a one-line help text.
//!
//! This is the **single source of truth** shared by the registry's users:
//! `cnnre --list-metrics` prints it, DESIGN.md §10 mirrors it (a root test
//! diffs the two so the docs cannot drift from the code), and the
//! `metric-name` lint rule enforces the same naming schema on every
//! literal passed to [`crate::counter`]-family calls.
//!
//! # Name schema
//!
//! `subsystem.component.metric` — lowercase `[a-z0-9_]` segments joined
//! with dots, at least two segments, first segment one of the known
//! subsystem prefixes ([`KNOWN_PREFIXES`]). Names ending in `_ns` carry
//! wall-clock time, must end in exactly `.wall_ns`, and are dropped from
//! deterministic exports.

/// One catalogue row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (or name pattern, for the derived span family
    /// where `<path>` stands for a dotted span path).
    pub name: &'static str,
    /// Kind: `counter`, `gauge`, `series`, or a derived-counter pattern.
    pub kind: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

/// Known subsystem prefixes (first name segment). The `metric-name` lint
/// rule rejects literals outside this set.
pub const KNOWN_PREFIXES: &[&str] = &[
    "accel", "trace", "solver", "oracle", "weights", "attack", "train", "span", "profile", "fig4",
    "fig5", "events", "viz", "http",
];

/// Every metric the in-tree instrumentation records, sorted by name.
pub const METRICS: &[MetricDef] = &[
    MetricDef {
        name: "accel.dram.reads",
        kind: "counter",
        help: "DRAM read transactions issued by the engine",
    },
    MetricDef {
        name: "accel.dram.writes",
        kind: "counter",
        help: "DRAM write transactions issued by the engine",
    },
    MetricDef {
        name: "accel.ofm.elems_emitted",
        kind: "counter",
        help: "output feature-map elements written back to DRAM",
    },
    MetricDef {
        name: "accel.ofm.elems_pruned",
        kind: "counter",
        help: "output elements skipped by zero-value pruning",
    },
    MetricDef {
        name: "accel.tiles.refills",
        kind: "counter",
        help: "on-chip buffer tile refills",
    },
    MetricDef {
        name: "events.bytes",
        kind: "counter",
        help: "encoded attack-event bytes produced by the stream hub",
    },
    MetricDef {
        name: "events.clients",
        kind: "gauge",
        help: "live TCP event-stream clients currently connected",
    },
    MetricDef {
        name: "events.dropped",
        kind: "counter",
        help: "attack events dropped by backpressure (ring or slow client)",
    },
    MetricDef {
        name: "events.emitted",
        kind: "counter",
        help: "attack events emitted onto the live telemetry stream",
    },
    MetricDef {
        name: "fig4.candidate_accuracy",
        kind: "series",
        help: "validation accuracy per trained candidate (Figure 4)",
    },
    MetricDef {
        name: "fig4.candidates_total",
        kind: "counter",
        help: "candidate structures enumerated for Figure 4",
    },
    MetricDef {
        name: "fig4.candidates_trained",
        kind: "counter",
        help: "candidate structures actually trained for Figure 4",
    },
    MetricDef {
        name: "fig5.candidate_accuracy",
        kind: "series",
        help: "validation accuracy per trained candidate (Figure 5)",
    },
    MetricDef {
        name: "fig5.candidates_total",
        kind: "counter",
        help: "candidate structures enumerated for Figure 5",
    },
    MetricDef {
        name: "fig5.candidates_trained",
        kind: "counter",
        help: "candidate structures actually trained for Figure 5",
    },
    MetricDef {
        name: "http.connections",
        kind: "gauge",
        help: "scrape-server connections currently being served (volatile)",
    },
    MetricDef {
        name: "http.dropped",
        kind: "counter",
        help: "scrape connections refused at the connection cap (volatile)",
    },
    MetricDef {
        name: "http.requests",
        kind: "counter",
        help: "scrape requests parsed by the obs HTTP server (volatile)",
    },
    MetricDef {
        name: "oracle.queries",
        kind: "counter",
        help: "zero-count oracle queries answered by a victim oracle",
    },
    MetricDef {
        name: "oracle.victim_queries",
        kind: "counter",
        help: "victim-facing oracle queries (the paper's cost metric)",
    },
    MetricDef {
        name: "profile.events.dropped",
        kind: "counter",
        help: "profile events dropped because the ring buffer was full",
    },
    MetricDef {
        name: "profile.events.recorded",
        kind: "counter",
        help: "profile events exported from the ring buffer",
    },
    MetricDef {
        name: "solver.candidates_per_layer",
        kind: "series",
        help: "distinct surviving candidates per observed layer",
    },
    MetricDef {
        name: "solver.chain.recursion_branches",
        kind: "counter",
        help: "chain-enumeration recursion branches explored",
    },
    MetricDef {
        name: "solver.chain.structures_surviving",
        kind: "counter",
        help: "whole-network structures surviving enumeration",
    },
    MetricDef {
        name: "solver.conv.candidates_enumerated",
        kind: "counter",
        help: "conv parameter vectors emitted before dedup",
    },
    MetricDef {
        name: "solver.conv.candidates_surviving",
        kind: "counter",
        help: "conv candidates surviving all per-layer filters",
    },
    MetricDef {
        name: "solver.conv.geometry_candidates",
        kind: "counter",
        help: "conv candidates reaching the execution-time filter",
    },
    MetricDef {
        name: "solver.conv.time_filter_rejected",
        kind: "counter",
        help: "conv candidates rejected by the MAC/time filter",
    },
    MetricDef {
        name: "solver.fc.candidates_surviving",
        kind: "counter",
        help: "FC candidates surviving the per-layer solve",
    },
    MetricDef {
        name: "solver.memo.hits",
        kind: "counter",
        help: "per-layer candidate enumerations served from the memo cache",
    },
    MetricDef {
        name: "solver.memo.misses",
        kind: "counter",
        help: "per-layer candidate enumerations computed and cached",
    },
    MetricDef {
        name: "span.<path>.calls",
        kind: "counter (derived)",
        help: "completed spans at this dotted path",
    },
    MetricDef {
        name: "span.<path>.cycles",
        kind: "counter (derived)",
        help: "summed simulated accelerator cycles attached to this span",
    },
    MetricDef {
        name: "span.<path>.wall_ns",
        kind: "counter (derived)",
        help: "summed wall-clock nanoseconds (dropped from deterministic exports)",
    },
    MetricDef {
        name: "trace.segment.events",
        kind: "counter",
        help: "trace events consumed by the segmenter",
    },
    MetricDef {
        name: "trace.segment.fresh_region_boundaries_accepted",
        kind: "counter",
        help: "boundaries accepted on the fresh read-only-region signal",
    },
    MetricDef {
        name: "trace.segment.raw_boundaries_accepted",
        kind: "counter",
        help: "boundaries accepted on the RAW-dependency signal",
    },
    MetricDef {
        name: "trace.stats.events",
        kind: "counter",
        help: "trace events consumed by the statistics pass",
    },
    MetricDef {
        name: "train.epoch.accuracy",
        kind: "series",
        help: "per-epoch training accuracy (candidate ranking)",
    },
    MetricDef {
        name: "train.epoch.loss",
        kind: "series",
        help: "per-epoch training loss (candidate ranking)",
    },
    MetricDef {
        name: "viz.events.consumed",
        kind: "counter",
        help: "attack events consumed by the cnnre-viz renderer",
    },
    MetricDef {
        name: "viz.snapshots.written",
        kind: "counter",
        help: "incremental graph snapshots written by cnnre-viz",
    },
    MetricDef {
        name: "weights.recovered",
        kind: "counter",
        help: "non-zero weight ratios recovered by the weight attack",
    },
    MetricDef {
        name: "weights.search.crossings",
        kind: "counter",
        help: "zero-count step crossings found, victim and virtual-model searches together",
    },
    MetricDef {
        name: "weights.search.grid_probes",
        kind: "counter",
        help: "coarse-grid probes, victim and virtual-model searches together",
    },
    MetricDef {
        name: "weights.search.memo_hits",
        kind: "counter",
        help: "victim crossing searches answered from the per-filter memo",
    },
    MetricDef {
        name: "weights.search.refine_steps",
        kind: "counter",
        help: "binary-search refinement steps, victim and virtual-model searches together",
    },
    MetricDef {
        name: "weights.unrecovered",
        kind: "counter",
        help: "weights the attack could not recover",
    },
    MetricDef {
        name: "weights.virtual.searches",
        kind: "counter",
        help: "crossing searches of the attacker's virtual model (no victim queries)",
    },
    MetricDef {
        name: "weights.zero_identified",
        kind: "counter",
        help: "weights identified as exactly zero",
    },
];

/// Validates `name` against the metric-name schema (the same predicate
/// the `metric-name` lint rule applies to string literals). `<`/`>` are
/// additionally permitted inside segments so the catalogue's derived-name
/// patterns (`span.<path>.calls`) validate too.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    if segments.len() < 2 {
        return false;
    }
    let seg_ok = |s: &str| {
        !s.is_empty()
            && s.chars().all(|c| {
                c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '_' | '<' | '>')
            })
    };
    if !segments.iter().all(|s| seg_ok(s)) {
        return false;
    }
    if !KNOWN_PREFIXES.contains(&segments[0]) {
        return false;
    }
    // `_ns` names carry wall-clock time and must say so exactly.
    if name.ends_with("_ns") && !name.ends_with(".wall_ns") {
        return false;
    }
    true
}

/// The catalogue sorted by metric name. [`METRICS`] is kept sorted by
/// convention (a unit test enforces it), but the renderers sort explicitly
/// so `cnnre --list-metrics` output stays diff-stable for docs and tests
/// even while a patch is mid-edit.
fn sorted_metrics() -> Vec<&'static MetricDef> {
    let mut rows: Vec<&'static MetricDef> = METRICS.iter().collect();
    rows.sort_by_key(|m| m.name);
    rows
}

/// Renders the catalogue as an aligned human-readable table (the
/// `cnnre --list-metrics` output), sorted by name with the metric kind
/// (counter/gauge/series/…) in the second column.
#[must_use]
pub fn render_table() -> String {
    let rows = sorted_metrics();
    let name_w = rows.iter().map(|m| m.name.len()).max().unwrap_or(4);
    let kind_w = rows.iter().map(|m| m.kind.len()).max().unwrap_or(4);
    let mut out = String::new();
    out.push_str(&format!(
        "{:name_w$}  {:kind_w$}  help\n{}  {}  {}\n",
        "metric",
        "kind",
        "-".repeat(name_w),
        "-".repeat(kind_w),
        "-".repeat(40),
    ));
    for m in rows {
        out.push_str(&format!(
            "{:name_w$}  {:kind_w$}  {}\n",
            m.name, m.kind, m.help
        ));
    }
    out
}

/// Renders the catalogue as the markdown table embedded in DESIGN.md §10
/// (the drift test compares this rendering against the checked-in docs),
/// sorted by name.
#[must_use]
pub fn render_markdown() -> String {
    let mut out = String::from("| metric | kind | help |\n|---|---|---|\n");
    for m in sorted_metrics() {
        out.push_str(&format!("| `{}` | {} | {} |\n", m.name, m.kind, m.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_sorted_and_deduplicated() {
        for w in METRICS.windows(2) {
            assert!(w[0].name < w[1].name, "{} !< {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn every_catalogue_name_passes_the_schema() {
        for m in METRICS {
            assert!(valid_metric_name(m.name), "{} violates the schema", m.name);
        }
    }

    #[test]
    fn schema_rejects_malformed_names() {
        assert!(!valid_metric_name("single_segment"));
        assert!(!valid_metric_name("Upper.case"));
        assert!(!valid_metric_name("unknown_prefix.metric"));
        assert!(!valid_metric_name("accel..empty"));
        assert!(!valid_metric_name("accel.cycle_ns")); // _ns but not wall_ns
        assert!(valid_metric_name("accel.ofm.elems_pruned"));
        assert!(valid_metric_name("span.<path>.wall_ns"));
    }

    #[test]
    fn renderings_are_sorted_by_name() {
        let table = render_table();
        let names: Vec<&str> = table
            .lines()
            .skip(2) // header + rule
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(names.len(), METRICS.len());
        for w in names.windows(2) {
            assert!(w[0] < w[1], "table rows out of order: {} !< {}", w[0], w[1]);
        }
        let md = render_markdown();
        let md_names: Vec<&str> = md
            .lines()
            .skip(2)
            .filter_map(|l| l.split('`').nth(1))
            .collect();
        assert_eq!(md_names, names);
    }

    #[test]
    fn renderings_mention_every_metric() {
        let table = render_table();
        let md = render_markdown();
        for m in METRICS {
            assert!(table.contains(m.name));
            assert!(md.contains(&format!("| `{}` | {} | {} |", m.name, m.kind, m.help)));
        }
    }
}
