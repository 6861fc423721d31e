//! Diagnostics and their renderings (human table, machine JSON).

use std::fmt;

/// The rule classes `cnnre-lint` enforces. Each maps to an invariant the
/// attack pipeline depends on (see DESIGN.md §8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now` / `SystemTime::now`) outside the
    /// observability crate's designated wall-clock modules.
    Wallclock,
    /// `HashMap` / `HashSet` on a deterministic export or solver path.
    HashIter,
    /// `unwrap` / `expect` / `panic!` / `todo!` / `unimplemented!` in
    /// library non-test code.
    Panic,
    /// Truncation-capable `as` casts in layer-geometry arithmetic.
    Cast,
    /// Non-`Relaxed` atomic ordering in `obs` without a justification
    /// comment.
    AtomicOrdering,
    /// `==` / `!=` applied to a float expression outside test code.
    FloatEq,
    /// Metric-name literal passed to an `obs` recording call that violates
    /// the documented schema (DESIGN.md §10).
    MetricName,
    /// CT001 — secret-dependent branch (`if`/`match` on tainted data) in a
    /// constant-trace-scoped file.
    CtBranch,
    /// CT002 — secret-indexed memory access (`a[secret]`) in a
    /// constant-trace-scoped file.
    CtIndex,
    /// CT003 — variable-latency arithmetic (`/`, `%`, `pow`, …) on secret
    /// operands in a constant-trace-scoped file.
    CtArith,
    /// CT004 — secret-dependent loop bound or trip count in a
    /// constant-trace-scoped file.
    CtLoop,
    /// CR001 — mutable global state (`static mut`, interior-mutable
    /// `thread_local!`) on a path slated to become a `Send + Sync` engine.
    CrStaticMut,
    /// CR002 — non-`Sync` interior mutability (`RefCell`/`Cell`/`Rc`) on a
    /// path slated to become a `Send + Sync` engine.
    CrInteriorMut,
    /// CR003 — nested lock acquisition (a second lock taken while one is
    /// held) without a documented ordering.
    CrLockOrder,
    /// CR004 — `Ordering::Relaxed` atomic load flowing into a control
    /// decision (dataflow upgrade of [`Rule::AtomicOrdering`]).
    CrRelaxedControl,
    /// SY001 — direct `std::sync` / `std::thread` use in a crate whose
    /// concurrency must stay model-checkable via the `cnnre_model` shims.
    RawSync,
    /// A well-formed `lint:allow` directive that no longer suppresses any
    /// finding.
    StaleAllow,
    /// Malformed or unknown `lint:allow` suppression directive.
    AllowSyntax,
}

impl Rule {
    /// All rules, in severity/report order.
    pub const ALL: [Rule; 18] = [
        Rule::Wallclock,
        Rule::HashIter,
        Rule::Panic,
        Rule::Cast,
        Rule::AtomicOrdering,
        Rule::FloatEq,
        Rule::MetricName,
        Rule::CtBranch,
        Rule::CtIndex,
        Rule::CtArith,
        Rule::CtLoop,
        Rule::CrStaticMut,
        Rule::CrInteriorMut,
        Rule::CrLockOrder,
        Rule::CrRelaxedControl,
        Rule::RawSync,
        Rule::StaleAllow,
        Rule::AllowSyntax,
    ];

    /// The short name used in reports and in `lint:allow(<name>)`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::Wallclock => "wallclock",
            Rule::HashIter => "hash-iter",
            Rule::Panic => "panic",
            Rule::Cast => "cast",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::FloatEq => "float-eq",
            Rule::MetricName => "metric-name",
            Rule::CtBranch => "ct-branch",
            Rule::CtIndex => "ct-index",
            Rule::CtArith => "ct-arith",
            Rule::CtLoop => "ct-loop",
            Rule::CrStaticMut => "cr-static-mut",
            Rule::CrInteriorMut => "cr-interior-mut",
            Rule::CrLockOrder => "cr-lock-order",
            Rule::CrRelaxedControl => "cr-relaxed-control",
            Rule::RawSync => "raw-sync",
            Rule::StaleAllow => "stale-allow",
            Rule::AllowSyntax => "allow-syntax",
        }
    }

    /// The stable short code (`CT001`, `CR003`, …) for rules that have one.
    ///
    /// Only the taint/concurrency families carry codes; the original
    /// surface rules are addressed by name.
    #[must_use]
    pub fn code(self) -> Option<&'static str> {
        match self {
            Rule::CtBranch => Some("CT001"),
            Rule::CtIndex => Some("CT002"),
            Rule::CtArith => Some("CT003"),
            Rule::CtLoop => Some("CT004"),
            Rule::CrStaticMut => Some("CR001"),
            Rule::CrInteriorMut => Some("CR002"),
            Rule::CrLockOrder => Some("CR003"),
            Rule::CrRelaxedControl => Some("CR004"),
            Rule::RawSync => Some("SY001"),
            _ => None,
        }
    }

    /// One-line description for `--list-rules`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Wallclock => {
                "no Instant::now/SystemTime::now outside obs' wall-clock modules \
                 (deterministic --metrics snapshots)"
            }
            Rule::HashIter => {
                "no HashMap/HashSet in core/trace/accel deterministic paths; \
                 use BTreeMap/BTreeSet or justify that ordering never escapes"
            }
            Rule::Panic => {
                "no unwrap/expect/panic!/todo!/unimplemented! in library crates' \
                 non-test code"
            }
            Rule::Cast => {
                "no truncation-capable `as` casts in layer-geometry arithmetic \
                 (nn::geometry, core::structure, accel::layout)"
            }
            Rule::AtomicOrdering => {
                "non-Relaxed atomic orderings in obs must carry a justification \
                 comment on the same or preceding line"
            }
            Rule::FloatEq => {
                "no ==/!= on float expressions outside test code; use \
                 total_cmp, an epsilon compare, or justify exactness"
            }
            Rule::MetricName => {
                "string literals passed to obs::counter/gauge/series/\
                 span must match the metric schema: lowercase dotted \
                 path, known subsystem prefix, `_ns` only as `.wall_ns`"
            }
            Rule::CtBranch => {
                "CT001: no if/match on secret-derived data in constant-trace \
                 scoped files (defense & accel paths)"
            }
            Rule::CtIndex => {
                "CT002: no slice/array indexing with a secret-derived index \
                 in constant-trace scoped files"
            }
            Rule::CtArith => {
                "CT003: no variable-latency arithmetic (/, %, pow, div_euclid, \
                 …) on secret-derived operands in constant-trace scoped files"
            }
            Rule::CtLoop => {
                "CT004: no loop bound, trip count, or iterated collection \
                 derived from secrets in constant-trace scoped files"
            }
            Rule::CrStaticMut => {
                "CR001: no `static mut` or interior-mutable thread_local \
                 state on solver/oracle paths slated for Send + Sync"
            }
            Rule::CrInteriorMut => {
                "CR002: no RefCell/Cell/Rc/UnsafeCell in solver/oracle paths \
                 slated for Send + Sync"
            }
            Rule::CrLockOrder => {
                "CR003: no second lock acquired while another guard is live \
                 without a documented ordering"
            }
            Rule::CrRelaxedControl => {
                "CR004: no Ordering::Relaxed atomic load flowing into an \
                 if/match/while control decision"
            }
            Rule::RawSync => {
                "SY001: no direct std::sync/std::thread in core/accel/trace/\
                 obs non-test code; route through the cnnre_model::sync and \
                 cnnre_model::thread shims"
            }
            Rule::StaleAllow => {
                "lint:allow directives that no longer suppress any finding \
                 must be deleted"
            }
            Rule::AllowSyntax => {
                "lint:allow directives must name a known rule and give a \
                 non-empty reason"
            }
        }
    }

    /// Multi-paragraph rationale + minimal example for `--explain`.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::Wallclock => {
                "Wall-clock reads make --metrics snapshots nondeterministic, so\n\
                 they are confined to obs' designated wall-clock modules.\n\n\
                 Fails:   let t = std::time::Instant::now();\n\
                 Fix:     route timing through obs::span / obs::profile."
            }
            Rule::HashIter => {
                "HashMap/HashSet iteration order is randomized per process, so\n\
                 any export or solver path that iterates one is nondeterministic.\n\n\
                 Fails:   let mut m: HashMap<u32, f32> = HashMap::new();\n\
                 Fix:     use BTreeMap/BTreeSet, or justify that ordering never\n\
                 escapes with lint:allow(hash-iter): <reason>."
            }
            Rule::Panic => {
                "Library code must surface errors as values; panics abort the\n\
                 whole attack pipeline from deep inside a crate.\n\n\
                 Fails:   let v = map.get(&k).unwrap();\n\
                 Fix:     return Result/Option, or justify unreachability with\n\
                 lint:allow(panic): <reason>."
            }
            Rule::Cast => {
                "Truncation-capable `as` casts silently wrap layer-geometry\n\
                 arithmetic, corrupting candidate enumeration.\n\n\
                 Fails:   let w = (h * scale) as u16;\n\
                 Fix:     use try_from / widen the type."
            }
            Rule::AtomicOrdering => {
                "obs is a hot path; stronger-than-Relaxed orderings there need\n\
                 a written justification so fences are auditable.\n\n\
                 Fails:   FLAG.store(true, Ordering::SeqCst);\n\
                 Fix:     use Relaxed, or add a justification comment on the\n\
                 same or preceding line."
            }
            Rule::FloatEq => {
                "Exact float equality is almost always a latent bug in ranking\n\
                 and threshold code.\n\n\
                 Fails:   if score == best { ... }\n\
                 Fix:     use total_cmp or an epsilon compare."
            }
            Rule::MetricName => {
                "Metric names feed dashboards and the perf-regression gate; a\n\
                 typo silently drops data.\n\n\
                 Fails:   obs::counter(\"Solver.Steps\", 1);\n\
                 Fix:     lowercase dotted path with a known subsystem prefix,\n\
                 e.g. obs::counter(\"solver.steps\", 1)."
            }
            Rule::CtBranch => {
                "CT001 — secret-dependent branch.\n\n\
                 A branch whose condition derives from secret data (layer\n\
                 geometry, weights, traces) executes different code per secret\n\
                 value; instruction-cache and timing side channels read that\n\
                 difference directly (PAPER.md; Alam & Mukhopadhyay 1811.05259).\n\
                 Defense code must be branchless in secrets.\n\n\
                 Fails:   fn pad(t: &Trace) { if t.events().len() > 4 { ... } }\n\
                 Fix:     compute both sides and select arithmetically, or mask\n\
                 with a constant-shape loop; else justify with\n\
                 lint:allow(ct-branch): <reason>."
            }
            Rule::CtIndex => {
                "CT002 — secret-indexed memory access.\n\n\
                 a[secret] makes the accessed cache line a function of the\n\
                 secret — exactly the address leak the paper's attack decodes.\n\
                 Constant-trace code must touch addresses independent of\n\
                 secrets.\n\n\
                 Fails:   let line = lut[first.addr as usize];  // first: MemoryEvent\n\
                 Fix:     scan the whole table with arithmetic select (ORAM-\n\
                 style), or justify with lint:allow(ct-index): <reason>."
            }
            Rule::CtArith => {
                "CT003 — variable-time arithmetic on secrets.\n\n\
                 Integer division/remainder and float transcendentals take\n\
                 operand-dependent cycles on real cores; applying them to\n\
                 secrets leaks through timing.\n\n\
                 Fails:   let rows = total / geom.stride;\n\
                 Fix:     hoist to public values, use shifts for powers of two,\n\
                 or justify with lint:allow(ct-arith): <reason>."
            }
            Rule::CtLoop => {
                "CT004 — secret-dependent loop bound.\n\n\
                 A trip count derived from secrets modulates total runtime and\n\
                 trace length — the coarsest, most robust leak of all.\n\n\
                 Fails:   for ev in trace.events() { pad(ev); }\n\
                          trace.events().for_each(|ev| pad(ev));\n\
                 Fix:     iterate to a public worst-case bound and mask excess\n\
                 iterations, or justify with lint:allow(ct-loop): <reason>."
            }
            Rule::CrStaticMut => {
                "CR001 — mutable global state.\n\n\
                 ROADMAP item 1 shards the candidate search across threads;\n\
                 `static mut` and interior-mutable thread_locals on those paths\n\
                 are data races or silent per-thread divergence waiting to\n\
                 happen.\n\n\
                 Fails:   static mut CACHE: Option<Table> = None;\n\
                 Fix:     pass state through &self / &mut self, or use a lock\n\
                 with a documented scope."
            }
            Rule::CrInteriorMut => {
                "CR002 — non-Sync interior mutability.\n\n\
                 RefCell/Cell/Rc make a type !Sync, so any solver/oracle struct\n\
                 holding one cannot be shared across the planned worker pool.\n\n\
                 Fails:   struct Oracle { memo: RefCell<BTreeMap<K, V>> }\n\
                 Fix:     use &mut self methods, Mutex/RwLock, or atomics."
            }
            Rule::CrLockOrder => {
                "CR003 — nested lock acquisition.\n\n\
                 Taking lock B while holding lock A deadlocks the moment any\n\
                 other thread takes them in the opposite order. Nested\n\
                 acquisitions need a documented global order.\n\n\
                 Fails:   let a = reg.lock(); let b = sinks.lock();\n\
                 Fix:     narrow the first guard's scope, or document the\n\
                 ordering with lint:allow(cr-lock-order): <order>."
            }
            Rule::CrRelaxedControl => {
                "CR004 — Relaxed atomic load steering control flow.\n\n\
                 A Relaxed load carries no happens-before edge: branching on it\n\
                 can observe arbitrarily stale state, so cross-thread control\n\
                 decisions (shutdown flags, queue gates) silently misfire.\n\n\
                 Fails:   if STOP.load(Ordering::Relaxed) { return; }\n\
                 Fix:     use Acquire (pairing with a Release store), or\n\
                 justify staleness-tolerance with\n\
                 lint:allow(cr-relaxed-control): <reason>."
            }
            Rule::RawSync => {
                "SY001 — raw std concurrency primitive.\n\n\
                 Locks, atomics, and threads reached directly through std are\n\
                 invisible to the cnnre-model exploration scheduler, so the\n\
                 interleavings they create are never model-checked. The shims\n\
                 in cnnre_model::sync / cnnre_model::thread are transparent\n\
                 std re-exports in normal builds and cost nothing.\n\n\
                 Fails:   use std::sync::Mutex;\n\
                 Fix:     use cnnre_model::sync::Mutex; (same API), or\n\
                 justify with lint:allow(raw-sync): <reason>."
            }
            Rule::StaleAllow => {
                "stale-allow — dead suppression.\n\n\
                 A lint:allow comment that no longer suppresses any finding is\n\
                 misleading documentation: it claims a violation exists where\n\
                 none does, and it hides future regressions at that site.\n\n\
                 Fails:   // lint:allow(panic): justified\n\
                          let x = compute();            // nothing to suppress\n\
                 Fix:     delete the directive."
            }
            Rule::AllowSyntax => {
                "allow-syntax — malformed suppression.\n\n\
                 Suppressions are part of the audit trail; an unknown rule name\n\
                 or missing reason silently suppresses nothing.\n\n\
                 Fails:   // lint:allow(panics)\n\
                 Fix:     // lint:allow(panic): <non-empty reason>."
            }
        }
    }

    /// Looks a rule up by its short name or `CTnnn`/`CRnnn` code.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| r.name() == name || r.code() == Some(name))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human explanation of the violation.
    pub message: String,
    /// Trimmed source line, for context.
    pub snippet: String,
}

/// Renders diagnostics as an aligned human-readable table.
#[must_use]
pub fn render_human(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return String::new();
    }
    let loc_w = diags
        .iter()
        .map(|d| d.file.len() + 1 + digits(d.line))
        .max()
        .unwrap_or(0);
    let rule_w = diags.iter().map(|d| d.rule.name().len()).max().unwrap_or(0);
    let mut out = String::new();
    for d in diags {
        let loc = format!("{}:{}", d.file, d.line);
        out.push_str(&format!(
            "{loc:<loc_w$}  {rule:<rule_w$}  {msg}\n",
            loc = loc,
            rule = d.rule.name(),
            msg = d.message,
        ));
        if !d.snippet.is_empty() {
            out.push_str(&format!("{:loc_w$}  {:rule_w$}  | {}\n", "", "", d.snippet));
        }
    }
    out
}

/// Renders diagnostics as a deterministic JSON report.
#[must_use]
pub fn render_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"tool\": \"cnnre-lint\",\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"violations\": {},\n", diags.len()));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": \"{}\", ", d.rule.name()));
        out.push_str(&format!("\"file\": \"{}\", ", escape(&d.file)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"message\": \"{}\", ", escape(&d.message)));
        out.push_str(&format!("\"snippet\": \"{}\"", escape(&d.snippet)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![Diagnostic {
            rule: Rule::Panic,
            file: "crates/nn/src/x.rs".into(),
            line: 7,
            message: "`.unwrap()` in library non-test code".into(),
            snippet: "let v = map.get(\"k\").unwrap();".into(),
        }]
    }

    #[test]
    fn json_escapes_quotes_and_is_parseable_shape() {
        let j = render_json(&sample(), 3);
        assert!(j.contains("\\\"k\\\""));
        assert!(j.contains("\"violations\": 1"));
        assert!(j.contains("\"files_scanned\": 3"));
    }

    #[test]
    fn human_table_includes_location_and_rule() {
        let h = render_human(&sample());
        assert!(h.contains("crates/nn/src/x.rs:7"));
        assert!(h.contains("panic"));
    }

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("nope"), None);
    }
}
