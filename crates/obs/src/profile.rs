//! Span-tree timeline profiling (`cnnre-profile`).
//!
//! Where the [`crate::Registry`] aggregates (a span's total wall time and
//! cycles survive, its *timeline* does not), this module records the full
//! span begin/end pairs into a bounded ring buffer, and exports them in
//! two formats:
//!
//! * **Chrome Trace Event JSON** ([`chrome_trace`]): loadable in
//!   [ui.perfetto.dev](https://ui.perfetto.dev) or `chrome://tracing`,
//!   with the wall clock and the *simulated accelerator cycle* clock as
//!   two separate process tracks;
//! * **folded stacks** ([`folded_stacks`]): one `root;child value` line
//!   per stack, the input format of `flamegraph.pl` / `inferno`.
//!
//! # Recording model
//!
//! Profiling is off by default and independent of the metric flag; the CLI
//! `--profile-out` turns both on (spans only know their dotted path while
//! metrics are enabled, so profiling requires [`crate::set_enabled`]).
//! Every [`crate::SpanGuard`] then appends a begin event on entry and an
//! end event (carrying the span's attached simulated cycles) on drop.
//! Spans opened under [`crate::stream::suppress`] (the weight attack's
//! per-query victim runs, the `audit-hooks` re-segmentation) are left off
//! the timeline, as they are off the event stream; the registry still
//! counts them. Attack progress (candidates per layer, victim queries per
//! weight) is not recorded here: it travels on the [`crate::stream`] event
//! stream.
//!
//! The buffer is bounded and lock-free on the writer path: producers claim
//! a slot with one `fetch_add` and store into it; once capacity is
//! reached, new events are *dropped* (never overwritten — a truncated
//! head is more useful than a shredded tree) and counted. The drop count
//! is itself exported as the `profile.events.dropped` metric by
//! [`export`]. See DESIGN.md §10.
//!
//! # Clock domains
//!
//! Wall timestamps are nanoseconds since the first recorded event and are
//! nondeterministic. Cycle timestamps are *synthesized* from the span
//! tree: a span's cycle extent is `max(own attached cycles, sum of child
//! extents)`, children are laid out sequentially in recording order, and
//! roots stack end to end per thread. Two identical seeded runs therefore
//! produce byte-identical cycle-domain exports — the property the golden
//! profile test pins.
//!
//! ```
//! use cnnre_obs as obs;
//! obs::set_enabled(true);
//! obs::profile::set_enabled(true);
//! {
//!     let mut s = obs::span("attack");
//!     s.add_cycles(128);
//! }
//! let events = obs::profile::export();
//! let json = obs::profile::chrome_trace(&events, obs::profile::ClockDomain::Cycles);
//! assert!(json.contains("\"attack\""));
//! # obs::profile::set_enabled(false);
//! # obs::set_enabled(false);
//! # obs::global().reset();
//! ```

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use cnnre_model::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use cnnre_model::sync::{Mutex, OnceLock, PoisonError};

use crate::json;

/// Default ring capacity, in events. Big enough for every in-tree
/// experiment (the largest, fig7, stays under 20k events) while bounding
/// memory to a few MiB.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static PROFILING: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Turns profile-event recording on or off. Span paths are only tracked
/// while metrics are enabled, so callers should also [`crate::set_enabled`]
/// (the CLI's `--profile-out` does both).
pub fn set_enabled(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether profile-event recording is currently enabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Sets the ring capacity in events. Takes effect only before the first
/// event is recorded (the ring is allocated lazily, once per process).
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.max(1), Ordering::Relaxed);
}

/// One recorded profile event.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileEvent {
    /// Global recording order (ring slot index).
    pub seq: u64,
    /// Small dense thread id, assigned in first-event order.
    pub tid: u64,
    /// Nanoseconds since the profiler epoch (the first recorded event).
    pub wall_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of a [`ProfileEvent`].
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A span opened. `label` carries a per-instance display name (e.g.
    /// the layer name) when the span was opened with
    /// [`crate::span_labelled`].
    Begin {
        /// Full dotted span path.
        path: String,
        /// Optional display label for this instance.
        label: Option<String>,
    },
    /// A span closed, carrying its attached simulated cycles.
    End {
        /// Full dotted span path (matches the begin event).
        path: String,
        /// Simulated accelerator cycles attached with
        /// [`crate::SpanGuard::add_cycles`].
        cycles: u64,
    },
}

struct Ring {
    slots: Vec<Mutex<Option<ProfileEvent>>>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

impl Ring {
    fn with_capacity(cap: usize) -> Self {
        Self {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring::with_capacity(CAPACITY.load(Ordering::Relaxed)))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn tid() -> u64 {
    TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Writer path: one `fetch_add` claims a slot; a full ring drops the event
/// (bounded memory, never tears an already-recorded tree). Returns whether
/// the event was stored.
fn push_event(r: &Ring, tid: u64, wall_ns: u64, kind: EventKind) -> bool {
    let slot = r.next.fetch_add(1, Ordering::Relaxed);
    if slot >= r.slots.len() {
        r.dropped.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    let ev = ProfileEvent {
        seq: slot as u64,
        tid,
        wall_ns,
        kind,
    };
    *r.slots[slot].lock().unwrap_or_else(PoisonError::into_inner) = Some(ev);
    true
}

fn record(kind: EventKind) {
    let wall_ns = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    let _ = push_event(ring(), tid(), wall_ns, kind);
}

/// Appends a span-begin event (called by [`crate::SpanGuard::enter`]).
pub(crate) fn record_begin(path: &str, label: Option<&str>) {
    if enabled() {
        record(EventKind::Begin {
            path: path.to_owned(),
            label: label.map(str::to_owned),
        });
    }
}

/// Appends a span-end event (called on [`crate::SpanGuard`] drop).
pub(crate) fn record_end(path: &str, cycles: u64) {
    if enabled() {
        record(EventKind::End {
            path: path.to_owned(),
            cycles,
        });
    }
}

/// Number of events dropped so far because the ring was full.
#[must_use]
pub fn dropped() -> u64 {
    ring().dropped.load(Ordering::Relaxed)
}

/// The exit-time export: every stored event in order, like
/// [`snapshot_events`], so the ring keeps serving `/profile` afterwards.
/// Records `profile.events.recorded` and `profile.events.dropped` counters
/// into the global registry (the drop accounting is itself a metric; see
/// DESIGN.md §10).
#[must_use]
pub fn export() -> Vec<ProfileEvent> {
    let out = snapshot_events();
    crate::counter("profile.events.recorded").add(out.len() as u64);
    crate::counter("profile.events.dropped").add(dropped());
    out
}

/// Clones every stored event in slot order **without draining** — the
/// live `/profile` endpoint's mid-run view. The ring keeps recording;
/// slots claimed by a writer but not yet stored are skipped, and no
/// registry counters are touched.
#[must_use]
pub fn snapshot_events() -> Vec<ProfileEvent> {
    let r = ring();
    // Acquire pairs with the writers' slot claims so every slot below
    // the observed cursor is at least claimed (stored or skipped).
    let claimed = r.next.load(Ordering::Acquire).min(r.slots.len());
    let mut out = Vec::with_capacity(claimed);
    for slot in &r.slots[..claimed] {
        if let Some(ev) = slot.lock().unwrap_or_else(PoisonError::into_inner).as_ref() {
            out.push(ev.clone());
        }
    }
    out
}

/// Clears the ring and the drop counter without exporting anything.
pub fn reset() {
    let _ = drain(ring());
}

/// Drains every stored event in slot order, resetting the slot cursor and
/// the drop counter. Returns the events and the drop count since the last
/// drain.
fn drain(r: &Ring) -> (Vec<ProfileEvent>, u64) {
    let claimed = r.next.swap(0, Ordering::Relaxed).min(r.slots.len());
    let mut out = Vec::with_capacity(claimed);
    for slot in &r.slots[..claimed] {
        if let Some(ev) = slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
            out.push(ev);
        }
    }
    (out, r.dropped.swap(0, Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Span-tree reconstruction and synthetic cycle layout.
// ---------------------------------------------------------------------------

/// Which clock a timeline export uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockDomain {
    /// Wall-clock nanoseconds (nondeterministic across runs).
    Wall,
    /// Synthesized simulated-cycle timeline (byte-deterministic).
    Cycles,
    /// Both, as two separate Chrome-trace process tracks.
    Both,
}

impl ClockDomain {
    /// Parses `wall` / `cycles` / `both`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "wall" => Some(Self::Wall),
            "cycles" => Some(Self::Cycles),
            "both" => Some(Self::Both),
            _ => None,
        }
    }
}

/// One reconstructed span occurrence.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Display name: the instance label when one was attached, the last
    /// path segment otherwise.
    pub name: String,
    /// Full dotted span path.
    pub path: String,
    /// Thread the span ran on.
    pub tid: u64,
    /// Wall-clock begin, ns since the profiler epoch.
    pub wall_begin_ns: u64,
    /// Wall-clock end, ns since the profiler epoch.
    pub wall_end_ns: u64,
    /// Simulated cycles attached to this span itself.
    pub cycles: u64,
    /// Begin-event sequence number (recording order).
    pub begin_seq: u64,
    /// End-event sequence number.
    pub end_seq: u64,
    /// Nested spans, in recording order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// The span's extent on the synthetic cycle timeline:
    /// `max(own cycles, sum of child extents)`.
    #[must_use]
    pub fn cycle_extent(&self) -> u64 {
        self.cycles
            .max(self.children.iter().map(SpanNode::cycle_extent).sum())
    }
}

/// Reconstructs per-thread span forests from recorded events.
/// Spans still open at export time are closed at the last event seen on
/// their thread. Returns roots ordered by `(tid, begin_seq)`.
#[must_use]
pub fn build_span_forest(events: &[ProfileEvent]) -> Vec<SpanNode> {
    // Per-tid stack of open spans.
    let mut stacks: BTreeMap<u64, Vec<SpanNode>> = BTreeMap::new();
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut last_seen: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // tid -> (wall, seq)
    for ev in events {
        last_seen.insert(ev.tid, (ev.wall_ns, ev.seq));
        match &ev.kind {
            EventKind::Begin { path, label } => {
                let name = label
                    .clone()
                    .unwrap_or_else(|| path.rsplit('.').next().unwrap_or(path.as_str()).to_owned());
                stacks.entry(ev.tid).or_default().push(SpanNode {
                    name,
                    path: path.clone(),
                    tid: ev.tid,
                    wall_begin_ns: ev.wall_ns,
                    wall_end_ns: ev.wall_ns,
                    cycles: 0,
                    begin_seq: ev.seq,
                    end_seq: ev.seq,
                    children: Vec::new(),
                });
            }
            EventKind::End { path, cycles } => {
                let stack = stacks.entry(ev.tid).or_default();
                // Ends match the innermost open span of the same path;
                // mismatches (a dropped begin) unwind to the match.
                if let Some(pos) = stack.iter().rposition(|s| s.path == *path) {
                    stack.truncate(pos + 1);
                    if let Some(mut node) = stack.pop() {
                        node.wall_end_ns = ev.wall_ns;
                        node.cycles = *cycles;
                        node.end_seq = ev.seq;
                        match stack.last_mut() {
                            Some(parent) => parent.children.push(node),
                            None => roots.push(node),
                        }
                    }
                }
            }
        }
    }
    // Close anything still open (exported mid-span), innermost first.
    for (tid, mut stack) in stacks {
        let (wall, seq) = last_seen.get(&tid).copied().unwrap_or((0, 0));
        while let Some(mut node) = stack.pop() {
            node.wall_end_ns = node.wall_end_ns.max(wall);
            node.end_seq = node.end_seq.max(seq);
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => roots.push(node),
            }
        }
    }
    roots.sort_by_key(|r| (r.tid, r.begin_seq));
    roots
}

/// A span's placement on the synthetic cycle timeline.
#[derive(Clone, Copy, Debug)]
struct CyclePlacement {
    begin: u64,
    end: u64,
}

/// Lays the forest out on the per-thread cycle timelines: roots stack end
/// to end, children pack sequentially from their parent's begin. Returns
/// `begin_seq -> placement`.
fn layout_cycles(roots: &[SpanNode]) -> BTreeMap<u64, CyclePlacement> {
    let mut placed = BTreeMap::new();
    let mut tid_cursor: BTreeMap<u64, u64> = BTreeMap::new();
    for root in roots {
        let at = tid_cursor.entry(root.tid).or_insert(0);
        let extent = place(root, *at, &mut placed);
        *at += extent;
    }
    placed
}

fn place(node: &SpanNode, at: u64, placed: &mut BTreeMap<u64, CyclePlacement>) -> u64 {
    let extent = node.cycle_extent();
    placed.insert(
        node.begin_seq,
        CyclePlacement {
            begin: at,
            end: at + extent,
        },
    );
    let mut cursor = at;
    for child in &node.children {
        cursor += place(child, cursor, placed);
    }
    extent
}

// ---------------------------------------------------------------------------
// Chrome Trace Event Format export.
// ---------------------------------------------------------------------------

/// Chrome-trace process ids for the two clock tracks.
const PID_WALL: u64 = 1;
const PID_CYCLES: u64 = 2;

/// Serializes recorded events as Chrome Trace Event Format JSON
/// (the `traceEvents` array form), loadable in `ui.perfetto.dev` and
/// `chrome://tracing`.
///
/// The wall clock (pid 1, microsecond `ts`/`dur` derived from wall-ns)
/// and the synthetic cycle clock (pid 2, one `ts` unit per simulated
/// cycle) export as separate process tracks; [`ClockDomain::Both`] emits
/// both. Cycle-domain output is free of wall values and byte-deterministic
/// across identical seeded runs.
#[must_use]
pub fn chrome_trace(events: &[ProfileEvent], clock: ClockDomain) -> String {
    let roots = build_span_forest(events);
    let placed = layout_cycles(&roots);
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push_line = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    // Track metadata so Perfetto names the two clock domains.
    if matches!(clock, ClockDomain::Wall | ClockDomain::Both) {
        push_line(meta_line(PID_WALL, "wall clock"), &mut out, &mut first);
    }
    if matches!(clock, ClockDomain::Cycles | ClockDomain::Both) {
        push_line(
            meta_line(PID_CYCLES, "simulated accelerator cycles"),
            &mut out,
            &mut first,
        );
    }
    // Complete (ph:"X") span events, in recording order.
    let mut flat: Vec<&SpanNode> = Vec::new();
    for root in &roots {
        flatten(root, &mut flat);
    }
    flat.sort_by_key(|n| n.begin_seq);
    for node in &flat {
        if matches!(clock, ClockDomain::Wall | ClockDomain::Both) {
            push_line(wall_span_line(node), &mut out, &mut first);
        }
        if matches!(clock, ClockDomain::Cycles | ClockDomain::Both) {
            if let Some(p) = placed.get(&node.begin_seq) {
                push_line(cycle_span_line(node, *p), &mut out, &mut first);
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Flattens the tree into recording order.
fn flatten<'a>(node: &'a SpanNode, out: &mut Vec<&'a SpanNode>) {
    out.push(node);
    for c in &node.children {
        flatten(c, out);
    }
}

fn meta_line(pid: u64, name: &str) -> String {
    let mut s = String::from("{\"ph\":\"M\",\"pid\":");
    json::push_u64(&mut s, pid);
    s.push_str(",\"name\":\"process_name\",\"args\":{\"name\":");
    json::push_str(&mut s, name);
    s.push_str("}}");
    s
}

fn wall_span_line(node: &SpanNode) -> String {
    let mut s = String::from("{\"ph\":\"X\",\"pid\":");
    json::push_u64(&mut s, PID_WALL);
    s.push_str(",\"tid\":");
    json::push_u64(&mut s, node.tid);
    s.push_str(",\"name\":");
    json::push_str(&mut s, &node.name);
    s.push_str(",\"cat\":\"span\",\"ts\":");
    json::push_f64(&mut s, node.wall_begin_ns as f64 / 1e3);
    s.push_str(",\"dur\":");
    json::push_f64(
        &mut s,
        node.wall_end_ns.saturating_sub(node.wall_begin_ns) as f64 / 1e3,
    );
    s.push_str(",\"args\":{\"path\":");
    json::push_str(&mut s, &node.path);
    s.push_str(",\"cycles\":");
    json::push_u64(&mut s, node.cycles);
    s.push_str("}}");
    s
}

fn cycle_span_line(node: &SpanNode, p: CyclePlacement) -> String {
    let mut s = String::from("{\"ph\":\"X\",\"pid\":");
    json::push_u64(&mut s, PID_CYCLES);
    s.push_str(",\"tid\":");
    json::push_u64(&mut s, node.tid);
    s.push_str(",\"name\":");
    json::push_str(&mut s, &node.name);
    s.push_str(",\"cat\":\"span\",\"ts\":");
    json::push_u64(&mut s, p.begin);
    s.push_str(",\"dur\":");
    json::push_u64(&mut s, p.end - p.begin);
    s.push_str(",\"args\":{\"path\":");
    json::push_str(&mut s, &node.path);
    s.push_str(",\"cycles\":");
    json::push_u64(&mut s, node.cycles);
    s.push_str("}}");
    s
}

// ---------------------------------------------------------------------------
// Folded-stacks (flamegraph) export.
// ---------------------------------------------------------------------------

/// Serializes the span tree as folded stacks (`a;a.b 42` lines), the
/// input of `flamegraph.pl` / `inferno-flamegraph`. Values are *self*
/// weights: a frame's extent minus its children's. [`ClockDomain::Wall`]
/// weights by wall nanoseconds (nondeterministic); anything else weights
/// by simulated cycles (byte-deterministic). Identical stacks aggregate;
/// zero-weight stacks are omitted; lines sort lexicographically.
#[must_use]
pub fn folded_stacks(events: &[ProfileEvent], clock: ClockDomain) -> String {
    let roots = build_span_forest(events);
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for root in &roots {
        fold(root, String::new(), clock, &mut agg);
    }
    let mut out = String::new();
    for (stack, value) in agg {
        if value > 0 {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
    }
    out
}

fn fold(node: &SpanNode, prefix: String, clock: ClockDomain, agg: &mut BTreeMap<String, u64>) {
    let stack = if prefix.is_empty() {
        node.name.clone()
    } else {
        format!("{prefix};{}", node.name)
    };
    let (total, child_sum) = match clock {
        ClockDomain::Wall => (
            node.wall_end_ns.saturating_sub(node.wall_begin_ns),
            node.children
                .iter()
                .map(|c| c.wall_end_ns.saturating_sub(c.wall_begin_ns))
                .sum(),
        ),
        ClockDomain::Cycles | ClockDomain::Both => (
            node.cycle_extent(),
            node.children.iter().map(SpanNode::cycle_extent).sum(),
        ),
    };
    *agg.entry(stack.clone()).or_insert(0) += total.saturating_sub(child_sum);
    for child in &node.children {
        fold(child, stack.clone(), clock, agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exports the ring and filters to this test's own span paths, so
    /// parallel tests in this binary cannot interfere.
    fn run_scoped<R>(f: impl FnOnce() -> R, marker: &str) -> Vec<ProfileEvent> {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        f();
        let events = export();
        set_enabled(false);
        crate::set_enabled(false);
        events
            .into_iter()
            .filter(|e| match &e.kind {
                EventKind::Begin { path, .. } | EventKind::End { path, .. } => {
                    path.contains(marker)
                }
            })
            .collect()
    }

    fn spans(marker: &str) -> Vec<ProfileEvent> {
        run_scoped(
            || {
                let mut outer = crate::span(marker);
                outer.add_cycles(100);
                {
                    let mut inner = crate::span("inner");
                    inner.add_cycles(30);
                }
                {
                    let mut inner = crate::span_labelled("inner", "conv1");
                    inner.add_cycles(20);
                }
            },
            marker,
        )
    }

    #[test]
    fn forest_reconstructs_nesting_and_cycles() {
        let events = spans("proftest_forest");
        let roots = build_span_forest(&events);
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.name, "proftest_forest");
        assert_eq!(root.cycles, 100);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "inner");
        assert_eq!(root.children[1].name, "conv1"); // label wins
        assert_eq!(root.cycle_extent(), 100); // own cycles dominate 30+20
    }

    #[test]
    fn suppressed_spans_stay_off_the_timeline_but_count() {
        let events = run_scoped(
            || {
                let _attack = crate::span("proftest_suppress");
                for _ in 0..3 {
                    let _quiet = crate::stream::suppress();
                    let mut victim = crate::span("victim");
                    victim.add_cycles(7);
                }
            },
            "proftest_suppress",
        );
        let paths: Vec<_> = events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Begin { path, .. } | EventKind::End { path, .. } => path.as_str(),
            })
            .collect();
        assert_eq!(paths, ["proftest_suppress", "proftest_suppress"]);
        let snap = crate::global().snapshot();
        assert_eq!(snap.get("span.proftest_suppress.victim.calls"), Some(3.0));
        assert_eq!(snap.get("span.proftest_suppress.victim.cycles"), Some(21.0));
    }

    #[test]
    fn cycle_layout_packs_children_sequentially() {
        let events = spans("proftest_layout");
        let roots = build_span_forest(&events);
        let placed = layout_cycles(&roots);
        let root = &roots[0];
        let rp = placed[&root.begin_seq];
        let c0 = placed[&root.children[0].begin_seq];
        let c1 = placed[&root.children[1].begin_seq];
        assert_eq!((rp.begin, rp.end), (0, 100));
        assert_eq!((c0.begin, c0.end), (0, 30));
        assert_eq!((c1.begin, c1.end), (30, 50));
    }

    #[test]
    fn chrome_cycle_export_is_deterministic_and_wall_free() {
        let a = chrome_trace(&spans("proftest_chrome"), ClockDomain::Cycles);
        let b = chrome_trace(&spans("proftest_chrome"), ClockDomain::Cycles);
        assert_eq!(a, b, "cycle-domain export must be byte-identical");
        assert!(a.contains("\"simulated accelerator cycles\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"conv1\""));
        assert!(!a.contains("wall"), "no wall values in cycle domain:\n{a}");
    }

    #[test]
    fn chrome_both_exports_two_tracks() {
        let j = chrome_trace(&spans("proftest_both"), ClockDomain::Both);
        assert!(j.contains("\"wall clock\""));
        assert!(j.contains("\"simulated accelerator cycles\""));
        assert!(j.contains("\"pid\":1"));
        assert!(j.contains("\"pid\":2"));
    }

    #[test]
    fn folded_stacks_report_self_cycles() {
        let folded = folded_stacks(&spans("proftest_folded"), ClockDomain::Cycles);
        // Root self = 100 - (30 + 20) = 50; children keep their own.
        assert!(folded.contains("proftest_folded 50\n"), "{folded}");
        assert!(folded.contains("proftest_folded;inner 30\n"), "{folded}");
        assert!(folded.contains("proftest_folded;conv1 20\n"), "{folded}");
    }

    #[test]
    fn full_ring_drops_and_accounts() {
        // The global ring is shared; we can't shrink it here, but the
        // accounting path is exercised by claiming past capacity.
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        let r = ring();
        let cap = r.slots.len();
        r.next.store(cap, Ordering::Relaxed);
        record_begin("proftest_drop", None);
        assert_eq!(dropped(), 1);
        assert!(export().is_empty());
        reset();
        assert_eq!(dropped(), 0, "reset() clears the drop counter");
        set_enabled(false);
        crate::set_enabled(false);
    }

    #[test]
    fn snapshot_clones_without_draining() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        record_begin("proftest_snapshot", None);
        let has_marker = |evs: &[ProfileEvent]| {
            evs.iter().any(
                |e| matches!(&e.kind, EventKind::Begin { path, .. } if path == "proftest_snapshot"),
            )
        };
        assert!(has_marker(&snapshot_events()));
        // Neither the snapshot nor the export drains the ring.
        assert!(has_marker(&export()));
        assert!(has_marker(&snapshot_events()));
        set_enabled(false);
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_profiling_records_nothing() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(false);
        reset();
        {
            let _s = crate::span("proftest_off_span");
        }
        assert!(snapshot_events().is_empty());
        crate::set_enabled(false);
    }
}

#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use cnnre_model::sync::Arc;
    use cnnre_model::{check, thread};

    fn begin_ev(path: &str) -> EventKind {
        EventKind::Begin {
            path: path.to_owned(),
            label: None,
        }
    }

    /// Two writers race `fetch_add` for the single slot of a capacity-1
    /// ring: under every schedule exactly one event is stored and the
    /// loser is counted dropped — never two stores into one slot, never
    /// a lost event without a drop record.
    #[test]
    fn ring_slot_claim_race_stores_one_drops_one() {
        check(|| {
            let r = Arc::new(Ring::with_capacity(1));
            let r2 = Arc::clone(&r);
            let t = thread::spawn(move || push_event(&r2, 1, 0, begin_ev("a")));
            let stored_here = push_event(&r, 0, 0, begin_ev("b"));
            let stored_there = t.join().expect("writer joined");
            assert!(
                stored_here ^ stored_there,
                "exactly one writer must win the slot"
            );
            let (events, dropped) = drain(&r);
            assert_eq!(events.len(), 1, "the winning event must be stored");
            assert_eq!(dropped, 1, "the losing event must be counted dropped");
        });
    }
}
