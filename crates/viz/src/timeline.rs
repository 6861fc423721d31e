//! The attack-progress timeline SVG.
//!
//! Four stacked charts, each rendered only when its data exists in the
//! stream:
//!
//! 1. **layer boundaries** — tick marks over the trace's cycle axis, from
//!    the `LayerBoundary` events of the last structure-attack run;
//! 2. **candidates per layer** — one bar per observed node with the
//!    distinct surviving candidate count (`LayerChained`);
//! 3. **enumeration progress** — the `CandidatesNarrowed` root-progress
//!    (basis points) as a polyline over sample order, with the remaining
//!    branch estimate as hover text;
//! 4. **oracle queries** — the run's cumulative victim queries at each
//!    `WeightRecovered` frame (one per weight, filter after filter), the
//!    paper's Fig. 7 cost axis; the last frame's count, shown as the
//!    total, is what the attack spent.
//!
//! All coordinates are integer arithmetic over wire values — byte-identical
//! output for identical streams.

use crate::replay::{ReplayState, RunState};

const WIDTH: u64 = 900;
const CHART_H: u64 = 120;
const PAD: u64 = 40;
const TITLE_H: u64 = 24;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

struct Svg {
    body: String,
    y: u64,
}

impl Svg {
    fn new() -> Self {
        Self {
            body: String::new(),
            y: PAD,
        }
    }

    fn title(&mut self, text: &str) {
        self.body.push_str(&format!(
            "  <text x=\"{PAD}\" y=\"{}\" font-weight=\"bold\">{}</text>\n",
            self.y + 16,
            esc(text)
        ));
        self.y += TITLE_H;
    }

    fn chart_frame(&mut self) -> (u64, u64, u64) {
        let (x0, y0, w) = (PAD, self.y, WIDTH - 2 * PAD);
        self.body.push_str(&format!(
            "  <rect x=\"{x0}\" y=\"{y0}\" width=\"{w}\" height=\"{CHART_H}\" fill=\"#fafafa\" \
             stroke=\"#ccc\"/>\n"
        ));
        self.y += CHART_H + PAD;
        (x0, y0, w)
    }
}

fn boundaries_chart(svg: &mut Svg, run: &RunState) {
    if run.boundaries.is_empty() {
        return;
    }
    svg.title(&format!(
        "layer boundaries over trace cycles ({})",
        run.label
    ));
    let (x0, y0, w) = svg.chart_frame();
    let max_cycle = run
        .boundaries
        .iter()
        .map(|&(_, c, _)| c)
        .max()
        .unwrap_or(1)
        .max(run.last_cycle)
        .max(1);
    for &(index, cycle, signal) in &run.boundaries {
        let x = x0 + cycle * w / max_cycle;
        let color = if signal == "raw" { "#c33" } else { "#39c" };
        svg.body.push_str(&format!(
            "  <line x1=\"{x}\" y1=\"{y0}\" x2=\"{x}\" y2=\"{}\" stroke=\"{color}\"/>\n",
            y0 + CHART_H
        ));
        svg.body.push_str(&format!(
            "  <text x=\"{x}\" y=\"{}\" text-anchor=\"middle\" font-size=\"10\">b{index}@{cycle}</text>\n",
            y0 + CHART_H + 14
        ));
    }
}

fn candidates_chart(svg: &mut Svg, run: &RunState) {
    if run.chained.is_empty() {
        return;
    }
    svg.title("distinct surviving candidates per observed layer");
    let (x0, y0, w) = svg.chart_frame();
    let n = run.chained.len() as u64;
    let max = run.chained.values().copied().max().unwrap_or(1).max(1);
    let slot = w / n.max(1);
    for (i, (layer, distinct)) in run.chained.iter().enumerate() {
        let bar_h = distinct * (CHART_H - 20) / max;
        let bx = x0 + i as u64 * slot + slot / 4;
        let by = y0 + CHART_H - bar_h;
        svg.body.push_str(&format!(
            "  <rect x=\"{bx}\" y=\"{by}\" width=\"{}\" height=\"{bar_h}\" fill=\"#7a7\" \
             stroke=\"#363\"/>\n",
            slot / 2
        ));
        svg.body.push_str(&format!(
            "  <text x=\"{}\" y=\"{}\" text-anchor=\"middle\" font-size=\"10\">n{layer}: {distinct}</text>\n",
            bx + slot / 4,
            by.saturating_sub(4).max(y0 + 10)
        ));
    }
}

fn polyline(points: &[(u64, u64)]) -> String {
    points
        .iter()
        .map(|&(x, y)| format!("{x},{y}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn narrowing_chart(svg: &mut Svg, run: &RunState) {
    if run.narrowing.is_empty() {
        return;
    }
    let last = run.narrowing.last().map(|s| s.eta_branches).unwrap_or(0);
    svg.title(&format!(
        "top-level enumeration progress (final ETA {last} branches)"
    ));
    let (x0, y0, w) = svg.chart_frame();
    let n = run.narrowing.len() as u64;
    let points: Vec<(u64, u64)> = run
        .narrowing
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let x = x0 + (i as u64) * w / n.max(1);
            let y = y0 + CHART_H - s.root_pct_bp.min(10_000) * CHART_H / 10_000;
            (x, y)
        })
        .collect();
    svg.body.push_str(&format!(
        "  <polyline points=\"{}\" fill=\"none\" stroke=\"#36c\" stroke-width=\"2\"/>\n",
        polyline(&points)
    ));
    svg.body.push_str(&format!(
        "  <text x=\"{}\" y=\"{}\" font-size=\"10\">100%</text>\n",
        x0 + 4,
        y0 + 12
    ));
}

fn weights_chart(svg: &mut Svg, run: &RunState) {
    if run.weights.is_empty() {
        return;
    }
    let total = run.weights.last().map(|s| s.queries).unwrap_or(0);
    svg.title(&format!(
        "oracle queries per recovered weight (total {total})"
    ));
    let (x0, y0, w) = svg.chart_frame();
    let n = run.weights.len() as u64;
    let max_q = run
        .weights
        .iter()
        .map(|s| s.queries)
        .max()
        .unwrap_or(1)
        .max(1);
    let points: Vec<(u64, u64)> = run
        .weights
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let x = x0 + (i as u64) * w / n.max(1);
            let y = y0 + CHART_H - s.queries * CHART_H / max_q;
            (x, y)
        })
        .collect();
    svg.body.push_str(&format!(
        "  <polyline points=\"{}\" fill=\"none\" stroke=\"#a3a\" stroke-width=\"2\"/>\n",
        polyline(&points)
    ));
}

fn defenses_note(svg: &mut Svg, state: &ReplayState) {
    let mut notes: Vec<String> = Vec::new();
    for run in &state.runs {
        for (kind, input, output) in &run.defenses {
            notes.push(format!("defense {kind}: {input} -> {output} events"));
        }
    }
    if notes.is_empty() {
        return;
    }
    for note in notes {
        svg.body.push_str(&format!(
            "  <text x=\"{PAD}\" y=\"{}\" font-size=\"11\" fill=\"#933\">{}</text>\n",
            svg.y + 12,
            esc(&note)
        ));
        svg.y += 18;
    }
    svg.y += PAD / 2;
}

/// Renders the whole-stream progress timeline.
#[must_use]
pub fn render_timeline_svg(state: &ReplayState) -> String {
    let mut svg = Svg::new();
    svg.title(&format!(
        "attack telemetry: {} events, {} runs",
        state.events,
        state.runs.len()
    ));
    svg.y += PAD / 2;
    defenses_note(&mut svg, state);
    // Charts come from the most informative run of each kind.
    if let Some(run) = state.runs.iter().rev().find(|r| !r.boundaries.is_empty()) {
        boundaries_chart(&mut svg, run);
    }
    if let Some(run) = state.runs.iter().rev().find(|r| !r.chained.is_empty()) {
        candidates_chart(&mut svg, run);
    }
    if let Some(run) = state.runs.iter().rev().find(|r| !r.narrowing.is_empty()) {
        narrowing_chart(&mut svg, run);
    }
    if let Some(run) = state.runs.iter().rev().find(|r| !r.weights.is_empty()) {
        weights_chart(&mut svg, run);
    }
    let height = svg.y + PAD;
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {WIDTH} {height}\" font-family=\"monospace\" font-size=\"12\">\n{}</svg>\n",
        svg.body
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{NarrowSample, WeightSample};

    fn state_with_data() -> ReplayState {
        let mut run = RunState {
            label: "attack.structure".to_string(),
            ..RunState::default()
        };
        run.boundaries.push((0, 100, "raw"));
        run.boundaries.push((1, 400, "fresh_region"));
        run.last_cycle = 500;
        run.chained.insert(1, 4);
        run.chained.insert(2, 2);
        run.narrowing.push(NarrowSample {
            seq: 5,
            layer: 1,
            remaining: 3,
            eta_branches: 90,
            root_pct_bp: 2500,
        });
        run.narrowing.push(NarrowSample {
            seq: 6,
            layer: 1,
            remaining: 1,
            eta_branches: 30,
            root_pct_bp: 7500,
        });
        let mut weights_run = RunState {
            label: "attack.weights".to_string(),
            ..RunState::default()
        };
        weights_run.weights.push(WeightSample {
            queries: 10,
            channel: 0,
            row: 0,
            col: 0,
        });
        weights_run.weights.push(WeightSample {
            queries: 25,
            channel: 0,
            row: 0,
            col: 1,
        });
        ReplayState {
            runs: vec![run, weights_run],
            events: 9,
            unknown_events: 0,
        }
    }

    #[test]
    fn timeline_is_deterministic_and_contains_all_charts() {
        let s = state_with_data();
        let a = render_timeline_svg(&s);
        let b = render_timeline_svg(&s);
        assert_eq!(a, b);
        assert!(a.contains("layer boundaries over trace cycles"));
        assert!(a.contains("distinct surviving candidates"));
        assert!(a.contains("enumeration progress"));
        assert!(a.contains("oracle queries per recovered weight (total 25)"));
        assert!(a.contains("b0@100"));
        assert!(a.starts_with("<svg"));
        assert!(a.ends_with("</svg>\n"));
    }

    #[test]
    fn empty_state_renders_a_valid_header_only_svg() {
        let s = ReplayState::new();
        let svg = render_timeline_svg(&s);
        assert!(svg.contains("0 events, 0 runs"));
        assert!(!svg.contains("polyline"));
    }
}
