//! The rule passes. Each pass walks one [`SourceFile`]'s token stream and
//! reports [`Diagnostic`]s; path targeting decides which files a rule
//! applies to, and `// lint:allow(<rule>): <reason>` directives suppress
//! individual findings (auditable — a directive with no reason is itself a
//! violation, see [`check_allow_directives`]).

use crate::concurrency;
use crate::diag::{Diagnostic, Rule};
use crate::source::SourceFile;
use crate::taint;
use std::collections::BTreeSet;

/// Wall-clock reads are permitted only here: `obs::span` measures wall
/// time by design (and tags it `wall_ns` so deterministic exports drop
/// it), and the profile recorder timestamps events against one process
/// epoch.
const WALLCLOCK_ALLOWED: [&str; 2] = ["crates/obs/src/span.rs", "crates/obs/src/profile.rs"];

/// Obs recording calls whose first argument is a full metric name subject
/// to the DESIGN.md §10 schema. `count` is `obs::profile::count`, the
/// timeline-sample emitter.
const METRIC_CALLS: [&str; 5] = ["counter", "gauge", "histogram", "series", "count"];

/// Obs span constructors whose first argument is a *path fragment*: the
/// exported metric becomes `span.<path>.cycles` / `.calls` / `.wall_ns`,
/// so the fragment needs well-formed segments but no subsystem prefix.
const SPAN_CALLS: [&str; 2] = ["span", "span_labelled"];

/// Known subsystem prefixes (first segment of a full metric name). Mirror
/// of `cnnre_obs::catalog::KNOWN_PREFIXES` — the lint crate is
/// zero-dependency, so the list is duplicated and the root
/// `tests/metric_catalog.rs` drift test keeps the two in lock-step.
pub const METRIC_PREFIXES: [&str; 15] = [
    "accel", "trace", "solver", "oracle", "weights", "attack", "train", "span", "profile", "fig4",
    "fig5", "events", "viz", "exec", "http",
];

/// Crates whose `src/` trees are deterministic attack paths: their exports
/// (`--metrics` snapshots, candidate enumerations, trace segmentations)
/// must not depend on hash-map iteration order.
const HASH_ITER_SCOPE: [&str; 3] = ["crates/core/src/", "crates/trace/src/", "crates/accel/src/"];

/// Library crates that must not panic in non-test code. The bench harness
/// (`crates/bench`) and the CLI (`src/`) are binaries and may exit loudly.
const PANIC_SCOPE: [&str; 8] = [
    "crates/tensor/src/",
    "crates/nn/src/",
    "crates/accel/src/",
    "crates/trace/src/",
    "crates/core/src/",
    "crates/obs/src/",
    "crates/lint/src/",
    "crates/audit/src/",
];

/// Modules whose integer arithmetic *is* the Equations (1)–(8) candidate
/// search space; a silently truncating cast here corrupts recovery.
const CAST_SCOPE: [&str; 3] = [
    "crates/nn/src/geometry.rs",
    "crates/core/src/structure/",
    "crates/accel/src/layout.rs",
];

/// Integer targets that can truncate a 64-bit (or float) source.
const NARROWING_INT: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// All integer targets (for the float-rounding-result check, where even a
/// 64-bit target truncates the fractional part or saturates).
const ANY_INT: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Float methods whose result is routinely cast back to an integer; such
/// casts silently saturate/truncate and must be justified.
const FLOAT_ROUNDERS: [&str; 5] = ["ceil", "floor", "round", "sqrt", "trunc"];

/// Non-`Relaxed` atomic orderings: fine when needed, but `obs` promises
/// "one relaxed load when disabled", so stronger orderings must explain
/// themselves.
const STRONG_ORDERINGS: [&str; 4] = ["SeqCst", "Acquire", "Release", "AcqRel"];

/// Test-tree paths (scanned only with `--include-tests`) where hash-map
/// iteration still matters: the root integration/golden tests and the
/// tests of the deterministic-path crates.
const HASH_ITER_TEST_SCOPE: [&str; 4] = [
    "tests/",
    "crates/core/tests/",
    "crates/trace/tests/",
    "crates/accel/tests/",
];

/// Files whose implementations must be constant-trace: the defenses (their
/// whole point is removing secret-dependent behavior) and the accelerator
/// engine/schedule/layout (the simulated victim, where secret-dependent
/// behavior is the *subject* and every instance must be a documented,
/// intentional leak).
const CT_SCOPE: [&str; 4] = [
    "crates/trace/src/defense.rs",
    "crates/accel/src/engine.rs",
    "crates/accel/src/schedule.rs",
    "crates/accel/src/layout.rs",
];

/// Crates whose `src/` trees ROADMAP item 1 will turn into `Send + Sync`
/// parallel engines: mutable globals and interior mutability there are
/// refactor blockers today (CR001/CR002).
const CR_STATE_SCOPE: [&str; 3] = ["crates/core/src/", "crates/trace/src/", "crates/accel/src/"];

/// Crates that hold locks (`obs` registries, the bench harness) or will
/// (the parallel solver): nested acquisitions need a documented order
/// (CR003).
const LOCK_SCOPE: [&str; 3] = ["crates/obs/src/", "crates/core/src/", "crates/bench/src/"];

/// Crates whose atomics steer cross-thread control flow (CR004).
const RELAXED_SCOPE: [&str; 2] = ["crates/obs/src/", "crates/core/src/"];

/// Crates whose concurrency must stay explorable by the model checker:
/// locks, atomics, and threads there go through the `cnnre_model` shims,
/// never raw `std::sync`/`std::thread` (SY001). `crates/model` itself is
/// exempt — wrapping `std` is its job.
const SYNC_SHIM_SCOPE: [&str; 4] = [
    "crates/core/src/",
    "crates/accel/src/",
    "crates/trace/src/",
    "crates/obs/src/",
];

/// Whether `rel_path` lives in a test/bench/example tree rather than a
/// `src/` tree. Such files are only reached via `--include-tests` and get
/// the relaxed rule set.
#[must_use]
pub fn is_test_tree(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
}

/// Runs every applicable rule pass over `file`.
///
/// Files under `tests/`, `benches/`, or `examples/` get the relaxed set:
/// the determinism rules (wallclock, hash-iter) and directive validation
/// stay on — a golden test that reads the clock or iterates a `HashMap`
/// flakes exactly like library code — while the panic/cast/atomic/float-eq
/// rules are off, because `unwrap()` and exact float asserts are the test
/// idiom, not a defect.
#[must_use]
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Ctx::default();
    if file.whole_file_excluded {
        return out.diags;
    }
    let code = file.code_indices();
    check_wallclock(file, &code, &mut out);
    check_hash_iter(file, &code, &mut out);
    if !is_test_tree(&file.rel_path) {
        check_panic(file, &code, &mut out);
        check_cast(file, &code, &mut out);
        check_atomic_ordering(file, &code, &mut out);
        check_float_eq(file, &code, &mut out);
        check_metric_name(file, &code, &mut out);
        check_constant_trace(file, &mut out);
        check_relaxed_control(file, &mut out);
        check_mutable_state(file, &mut out);
        check_lock_order(file, &mut out);
        check_raw_sync(file, &mut out);
    }
    check_allow_directives(file, &mut out.diags);
    check_stale_allows(file, &out.used, &out.used_module, &mut out.diags);
    out.diags
}

/// Accumulates one file's diagnostics plus which suppression directives
/// actually fired — the input to the stale-allow post-pass.
#[derive(Default)]
struct Ctx {
    diags: Vec<Diagnostic>,
    /// `(directive line, directive rule text)` of used line allows.
    used: BTreeSet<(u32, String)>,
    /// Rule text of used `lint:allow-module` directives.
    used_module: BTreeSet<String>,
}

fn push(out: &mut Ctx, file: &SourceFile, rule: Rule, line: u32, message: String) {
    // A directive may name the rule (`ct-branch`) or its code (`CT001`).
    let line_allow = file
        .allow_for(rule.name(), line)
        .or_else(|| rule.code().and_then(|c| file.allow_for(c, line)));
    if let Some(d) = line_allow {
        out.used.insert((d.line, d.rule.clone()));
        return;
    }
    let module_allow = file
        .module_allow_for(rule.name())
        .or_else(|| rule.code().and_then(|c| file.module_allow_for(c)));
    if let Some(d) = module_allow {
        out.used_module.insert(d.rule.clone());
        return;
    }
    out.diags.push(Diagnostic {
        rule,
        file: file.rel_path.clone(),
        line,
        message,
        snippet: file.snippet(line),
    });
}

/// Whether the token at `idx` is exempt as test code. In test-tree files
/// every item is test code by construction — honoring the in-file
/// `#[test]`/`#[cfg(test)]` exemption there would blank the whole file —
/// so the rules that still run under the relaxed set ignore it.
fn exempt(file: &SourceFile, idx: usize) -> bool {
    !is_test_tree(&file.rel_path) && file.in_test_code(idx)
}

fn check_wallclock(file: &SourceFile, code: &[usize], out: &mut Ctx) {
    if WALLCLOCK_ALLOWED.iter().any(|p| file.rel_path == *p) {
        return;
    }
    for w in windows4(code) {
        let [a, b, c, d] = w;
        let ty = &file.tokens[a].text;
        if (ty == "Instant" || ty == "SystemTime")
            && file.tokens[b].text == ":"
            && file.tokens[c].text == ":"
            && file.tokens[d].text == "now"
            && !exempt(file, a)
        {
            push(
                out,
                file,
                Rule::Wallclock,
                file.tokens[a].line,
                format!(
                    "`{ty}::now` outside obs' wall-clock modules breaks byte-identical \
                     --metrics snapshots; route timing through cnnre_obs::span"
                ),
            );
        }
    }
}

fn check_hash_iter(file: &SourceFile, code: &[usize], out: &mut Ctx) {
    let scope: &[&str] = if is_test_tree(&file.rel_path) {
        &HASH_ITER_TEST_SCOPE
    } else {
        &HASH_ITER_SCOPE
    };
    if !in_scope(&file.rel_path, scope) {
        return;
    }
    for &i in code {
        let t = &file.tokens[i];
        if (t.text == "HashMap" || t.text == "HashSet") && !exempt(file, i) {
            push(
                out,
                file,
                Rule::HashIter,
                t.line,
                format!(
                    "`{}` on a deterministic path: iteration order varies per process; \
                     use BTreeMap/BTreeSet, sort before iterating, or justify that \
                     ordering never escapes",
                    t.text
                ),
            );
        }
    }
}

fn check_panic(file: &SourceFile, code: &[usize], out: &mut Ctx) {
    if !in_scope(&file.rel_path, &PANIC_SCOPE) {
        return;
    }
    for w in windows3(code) {
        let [a, b, c] = w;
        let name = &file.tokens[b].text;
        // `.unwrap(` / `.expect(` — method calls only, so local fns named
        // e.g. `expect_header(...)` don't fire.
        if file.tokens[a].text == "."
            && (name == "unwrap" || name == "expect")
            && file.tokens[c].text == "("
            && !file.in_test_code(b)
        {
            push(
                out,
                file,
                Rule::Panic,
                file.tokens[b].line,
                format!(
                    "`.{name}()` in library non-test code can abort the pipeline \
                     mid-attack; return a Result, provide a fallback, or justify"
                ),
            );
        }
        // Macro invocations: `panic!(` / `todo!{` / `unimplemented![`.
        let name = &file.tokens[a].text;
        if (name == "panic" || name == "todo" || name == "unimplemented")
            && file.tokens[b].text == "!"
            && matches!(file.tokens[c].text.as_str(), "(" | "[" | "{")
            && !file.in_test_code(a)
        {
            push(
                out,
                file,
                Rule::Panic,
                file.tokens[a].line,
                format!(
                    "`{name}!` in library non-test code can abort the pipeline \
                     mid-attack; return a Result or justify"
                ),
            );
        }
    }
}

fn check_cast(file: &SourceFile, code: &[usize], out: &mut Ctx) {
    if !in_scope(&file.rel_path, &CAST_SCOPE) {
        return;
    }
    for (ci, &i) in code.iter().enumerate() {
        if file.tokens[i].text != "as" || file.in_test_code(i) {
            continue;
        }
        let Some(&target_idx) = code.get(ci + 1) else {
            continue;
        };
        let target = file.tokens[target_idx].text.as_str();
        let narrowing = NARROWING_INT.contains(&target);
        let from_float_rounder =
            ANY_INT.contains(&target) && cast_source_is_float_rounder(file, code, ci);
        if narrowing || from_float_rounder {
            let why = if from_float_rounder {
                "a float-rounding result cast to an integer silently saturates"
            } else {
                "truncation here corrupts the Eq. (1)-(8) candidate search space"
            };
            push(
                out,
                file,
                Rule::Cast,
                file.tokens[i].line,
                format!(
                    "narrowing `as {target}` in layer-geometry arithmetic: {why}; \
                     use try_from with explicit handling or justify the bound"
                ),
            );
        }
    }
}

/// Whether the expression immediately before the `as` at code-index `ci`
/// ends in a call to one of [`FLOAT_ROUNDERS`], i.e. `(...).ceil() as u64`.
fn cast_source_is_float_rounder(file: &SourceFile, code: &[usize], ci: usize) -> bool {
    // Pattern, scanning left from `as`: `)` `(` ident — an empty-arg method
    // call. (All of FLOAT_ROUNDERS take no arguments.)
    if ci < 3 {
        return false;
    }
    let close = &file.tokens[code[ci - 1]].text;
    let open = &file.tokens[code[ci - 2]].text;
    let name = &file.tokens[code[ci - 3]].text;
    close == ")" && open == "(" && FLOAT_ROUNDERS.contains(&name.as_str())
}

fn check_atomic_ordering(file: &SourceFile, code: &[usize], out: &mut Ctx) {
    if !file.rel_path.starts_with("crates/obs/src/") {
        return;
    }
    for &i in code {
        let t = &file.tokens[i];
        if STRONG_ORDERINGS.contains(&t.text.as_str())
            && !file.in_test_code(i)
            && !file.has_adjacent_comment(t.line)
        {
            push(
                out,
                file,
                Rule::AtomicOrdering,
                t.line,
                format!(
                    "`Ordering::{}` without a justification comment; obs promises \
                     one Relaxed load on the disabled fast path — explain why a \
                     stronger ordering is required here",
                    t.text
                ),
            );
        }
    }
}

/// Flags `==` / `!=` where either operand is visibly a float: a float
/// literal, an `as f32`/`as f64` cast result, or an `f32::`/`f64::`
/// associated constant. Exact float equality silently diverges between
/// code paths that accumulate rounding differently (GEMM tiling orders,
/// fixed-point round trips); comparisons should go through `total_cmp` or
/// an explicit epsilon.
///
/// The lexer emits single-character puncts, so `==` arrives as two
/// adjacent `=` tokens and `!=` as `!` `=` — no other Rust surface syntax
/// produces either adjacency.
fn check_float_eq(file: &SourceFile, code: &[usize], out: &mut Ctx) {
    for (ci, w) in windows3(code).enumerate() {
        let [a, b, c] = w;
        let (fst, snd) = (&file.tokens[a].text, &file.tokens[b].text);
        let op = if fst == "=" && snd == "=" {
            "=="
        } else if fst == "!" && snd == "=" {
            "!="
        } else {
            continue;
        };
        if file.in_test_code(a) {
            continue;
        }
        // Left operand: the token just before the operator. Right operand:
        // the token after it, looking through a unary minus.
        let left_is_float = ci > 0 && is_float_context(&file.tokens[code[ci - 1]]);
        let right_tok = if file.tokens[c].text == "-" {
            code.get(ci + 3).map(|&i| &file.tokens[i])
        } else {
            Some(&file.tokens[c])
        };
        let right_is_float = right_tok.is_some_and(is_float_context);
        if left_is_float || right_is_float {
            push(
                out,
                file,
                Rule::FloatEq,
                file.tokens[a].line,
                format!(
                    "`{op}` on a float expression: rounding makes exact equality \
                     path-dependent; use total_cmp, an epsilon compare, or justify \
                     why the value is exact"
                ),
            );
        }
    }
}

/// Whether a token marks a float operand: a float literal, or the `f32` /
/// `f64` identifier (the tail of an `as f32` cast or the head of an
/// `f64::EPSILON`-style path).
fn is_float_context(tok: &crate::lexer::Token) -> bool {
    match tok.kind {
        crate::lexer::TokKind::Ident => tok.text == "f32" || tok.text == "f64",
        crate::lexer::TokKind::Num => is_float_literal(&tok.text),
        _ => false,
    }
}

/// Whether a numeric-literal token spells a float: contains a decimal
/// point, carries an explicit float suffix, or uses exponent form
/// (`1e-3`). Integer suffixes that merely contain the letter `e`
/// (`1usize`) do not qualify, and prefixed literals (`0xAEF`) never do.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    if text.contains('.') || text.ends_with("f32") || text.ends_with("f64") {
        return true;
    }
    // Exponent form: digits (with underscores), then e/E, then an
    // optionally signed exponent.
    if let Some(pos) = text.find(['e', 'E']) {
        let (mantissa, exp) = (&text[..pos], &text[pos + 1..]);
        let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
        return !mantissa.is_empty()
            && mantissa.chars().all(|c| c.is_ascii_digit() || c == '_')
            && !exp.is_empty()
            && exp.chars().all(|c| c.is_ascii_digit() || c == '_');
    }
    false
}

/// Flags string literals passed to the obs recording calls
/// ([`METRIC_CALLS`], [`SPAN_CALLS`]) that violate the metric-name schema
/// (DESIGN.md §10): lowercase `[a-z0-9_]` dotted segments, a known
/// subsystem prefix for full names, and `_ns` endings spelled exactly
/// `.wall_ns`. A malformed literal silently forks the metric namespace —
/// the catalogue, the `--list-metrics` table, and the perf-gate baselines
/// all key on exact names.
fn check_metric_name(file: &SourceFile, code: &[usize], out: &mut Ctx) {
    for w in windows4(code) {
        let [a, b, c, d] = w;
        let callee = file.tokens[b].text.as_str();
        let is_metric = METRIC_CALLS.contains(&callee);
        let is_span = SPAN_CALLS.contains(&callee);
        if !(is_metric || is_span) {
            continue;
        }
        // Method/path position only (`obs::counter(` / `.count(`), so
        // local free functions that happen to share a name don't fire.
        let qualifier = file.tokens[a].text.as_str();
        if !(qualifier == ":" || qualifier == ".")
            || file.tokens[c].text != "("
            || file.tokens[d].kind != crate::lexer::TokKind::Str
            || file.in_test_code(b)
        {
            continue;
        }
        // Cooked plain string literals only; raw/byte forms don't occur at
        // recording sites and are skipped rather than mis-sliced.
        let Some(name) = file.tokens[d]
            .text
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
        else {
            continue;
        };
        let problem = if is_span {
            span_fragment_problem(name)
        } else {
            metric_name_problem(name)
        };
        if let Some(why) = problem {
            push(
                out,
                file,
                Rule::MetricName,
                file.tokens[d].line,
                format!("`\"{name}\"` passed to `{callee}` {why}; see DESIGN.md §10"),
            );
        }
    }
}

/// Why `name` fails the full metric-name schema, or `None` if it passes.
fn metric_name_problem(name: &str) -> Option<&'static str> {
    let segments: Vec<&str> = name.split('.').collect();
    if segments.len() < 2 {
        return Some("must be a dotted path with at least two segments");
    }
    if !segments.iter().all(|s| segment_ok(s)) {
        return Some("has a segment outside lowercase [a-z0-9_]");
    }
    if !METRIC_PREFIXES.contains(&segments[0]) {
        return Some("starts with an unknown subsystem prefix");
    }
    if name.ends_with("_ns") && !name.ends_with(".wall_ns") {
        return Some("carries wall-clock time but does not end in `.wall_ns`");
    }
    None
}

/// Why `name` fails as a span-path fragment, or `None` if it passes. Span
/// fragments need no subsystem prefix (the exporter prepends `span.`), but
/// their segments follow the same character set, and they must not claim a
/// `_ns` suffix — the span machinery appends `.wall_ns` itself.
fn span_fragment_problem(name: &str) -> Option<&'static str> {
    if name.is_empty() || !name.split('.').all(segment_ok) {
        return Some("is not a dotted path of lowercase [a-z0-9_] segments");
    }
    if name.ends_with("_ns") {
        return Some("must not end in `_ns` (the span exporter appends `.wall_ns` itself)");
    }
    None
}

fn segment_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// CT001–CT004: the taint engine in secret mode over constant-trace files.
fn check_constant_trace(file: &SourceFile, out: &mut Ctx) {
    if !in_scope(&file.rel_path, &CT_SCOPE) {
        return;
    }
    for f in taint::analyze(file, taint::Mode::Secret) {
        push(out, file, f.rule, f.line, f.message);
    }
}

/// CR004: the taint engine in relaxed-load mode over atomic-bearing crates.
fn check_relaxed_control(file: &SourceFile, out: &mut Ctx) {
    if !in_scope(&file.rel_path, &RELAXED_SCOPE) {
        return;
    }
    for f in taint::analyze(file, taint::Mode::RelaxedLoad) {
        push(out, file, f.rule, f.line, f.message);
    }
}

/// CR001/CR002: mutable globals and interior mutability on solver paths.
fn check_mutable_state(file: &SourceFile, out: &mut Ctx) {
    if !in_scope(&file.rel_path, &CR_STATE_SCOPE) {
        return;
    }
    for f in concurrency::mutable_state_findings(file) {
        push(out, file, f.rule, f.line, f.message);
    }
}

/// CR003: nested lock acquisition on lock-holding paths.
fn check_lock_order(file: &SourceFile, out: &mut Ctx) {
    if !in_scope(&file.rel_path, &LOCK_SCOPE) {
        return;
    }
    for f in concurrency::lock_order_findings(file) {
        push(out, file, f.rule, f.line, f.message);
    }
}

// SY001: raw std concurrency primitives on model-checked paths.
fn check_raw_sync(file: &SourceFile, out: &mut Ctx) {
    if !in_scope(&file.rel_path, &SYNC_SHIM_SCOPE) {
        return;
    }
    for f in concurrency::raw_sync_findings(file) {
        push(out, file, f.rule, f.line, f.message);
    }
}

/// Validates every `lint:allow` directive in the file: the rule must exist
/// and the reason must be non-empty. This is what keeps suppression
/// auditable rather than a silent escape hatch.
pub fn check_allow_directives(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let mut validate = |rule: &str, reason: &str, line: u32, form: &str| {
        if Rule::from_name(rule).is_none() {
            out.push(Diagnostic {
                rule: Rule::AllowSyntax,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "{form} names unknown rule `{rule}` (known: {})",
                    Rule::ALL.map(Rule::name).join(", ")
                ),
                snippet: file.snippet(line),
            });
        } else if reason.is_empty() {
            out.push(Diagnostic {
                rule: Rule::AllowSyntax,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "{form}({rule}) has no reason; write \
                     `// {form}({rule}): <why this is sound>`"
                ),
                snippet: file.snippet(line),
            });
        }
    };
    for d in file.all_allows() {
        validate(&d.rule, &d.reason, d.line, "lint:allow");
    }
    for d in file.all_module_allows() {
        validate(&d.rule, &d.reason, d.line, "lint:allow-module");
    }
}

/// The stale-allow post-pass: any *well-formed* directive that no rule
/// pass consulted while suppressing a finding is dead documentation and
/// must be deleted. Malformed directives are [`Rule::AllowSyntax`]'s and
/// are not double-reported here.
fn check_stale_allows(
    file: &SourceFile,
    used: &BTreeSet<(u32, String)>,
    used_module: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let well_formed =
        |rule: &str, reason: &str| Rule::from_name(rule).is_some() && !reason.is_empty();
    for d in file.all_allows() {
        if well_formed(&d.rule, &d.reason) && !used.contains(&(d.line, d.rule.clone())) {
            out.push(Diagnostic {
                rule: Rule::StaleAllow,
                file: file.rel_path.clone(),
                line: d.line,
                message: format!(
                    "lint:allow({}) no longer suppresses any finding; delete it",
                    d.rule
                ),
                snippet: file.snippet(d.line),
            });
        }
    }
    for d in file.all_module_allows() {
        if well_formed(&d.rule, &d.reason) && !used_module.contains(&d.rule) {
            out.push(Diagnostic {
                rule: Rule::StaleAllow,
                file: file.rel_path.clone(),
                line: d.line,
                message: format!(
                    "lint:allow-module({}) no longer suppresses any finding; delete it",
                    d.rule
                ),
                snippet: file.snippet(d.line),
            });
        }
    }
}

fn in_scope(rel_path: &str, scope: &[&str]) -> bool {
    scope
        .iter()
        .any(|p| rel_path == *p || rel_path.starts_with(p))
}

/// Sliding windows of 3 consecutive code-token indices.
fn windows3(code: &[usize]) -> impl Iterator<Item = [usize; 3]> + '_ {
    code.windows(3).map(|w| [w[0], w[1], w[2]])
}

/// Sliding windows of 4 consecutive code-token indices.
fn windows4(code: &[usize]) -> impl Iterator<Item = [usize; 4]> + '_ {
    code.windows(4).map(|w| [w[0], w[1], w[2], w[3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(&SourceFile::parse(path, src))
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<Rule> {
        d.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn wallclock_flagged_outside_obs_span() {
        let d = diags(
            "crates/core/src/lib.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert_eq!(rules_of(&d), [Rule::Wallclock]);
        // …but allowed inside the designated modules.
        let d = diags(
            "crates/obs/src/span.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn systemtime_also_flagged() {
        let d = diags(
            "crates/trace/src/io.rs",
            "fn f() { let t = std::time::SystemTime::now(); }",
        );
        assert_eq!(rules_of(&d), [Rule::Wallclock]);
    }

    #[test]
    fn hash_iter_scoped_to_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&diags("crates/core/src/x.rs", src)),
            [Rule::HashIter]
        );
        // nn is not a deterministic-export path; no finding there.
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_fires_on_unwrap_expect_and_macros() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); todo!() }";
        let d = diags("crates/nn/src/x.rs", src);
        assert_eq!(
            rules_of(&d),
            [Rule::Panic, Rule::Panic, Rule::Panic, Rule::Panic]
        );
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.unwrap_or_default(); }";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
    }

    #[test]
    fn free_functions_named_expect_do_not_fire() {
        let src = "fn f() { expect(1); my::unwrap(2); }";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_in_string_or_comment_does_not_fire() {
        let src = "fn f() { let s = \"never panic!(here)\"; } // a.unwrap() note";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
    }

    #[test]
    fn cast_rule_narrowing_targets() {
        let src = "fn f(x: u64) -> usize { x as usize }";
        assert_eq!(
            rules_of(&diags("crates/core/src/structure/solver.rs", src)),
            [Rule::Cast]
        );
        // Widening to u64/f64 is not flagged.
        let src = "fn f(x: u32) -> u64 { let y = x as f64; x as u64 }";
        assert!(diags("crates/core/src/structure/solver.rs", src).is_empty());
        // Out-of-scope files are not checked.
        let src = "fn f(x: u64) -> usize { x as usize }";
        assert!(diags("crates/core/src/weights/oracle.rs", src).is_empty());
    }

    #[test]
    fn cast_rule_float_rounder_to_int() {
        let src = "fn f(x: f64) -> u64 { x.sqrt() as u64 }";
        assert_eq!(
            rules_of(&diags("crates/nn/src/geometry.rs", src)),
            [Rule::Cast]
        );
        let src = "fn f(x: f64) -> u64 { (a / b).ceil() as u64 }";
        assert_eq!(
            rules_of(&diags("crates/nn/src/geometry.rs", src)),
            [Rule::Cast]
        );
    }

    #[test]
    fn atomic_rule_requires_adjacent_comment() {
        let src = "fn f() { X.store(1, Ordering::SeqCst); }";
        assert_eq!(
            rules_of(&diags("crates/obs/src/registry.rs", src)),
            [Rule::AtomicOrdering]
        );
        let src = "fn f() {\n    // publishes the snapshot to readers\n    X.store(1, Ordering::Release);\n}";
        assert!(diags("crates/obs/src/registry.rs", src).is_empty());
        // Relaxed never needs justification.
        let src = "fn f() { X.store(1, Ordering::Relaxed); }";
        assert!(diags("crates/obs/src/registry.rs", src).is_empty());
    }

    #[test]
    fn allow_suppresses_and_requires_reason() {
        let src = "fn f() { a.unwrap(); // lint:allow(panic): infallible by construction\n }";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
        // Preceding-line form.
        let src = "fn f() {\n    // lint:allow(panic): checked above\n    a.unwrap();\n}";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
        // Reason-less allow: the original finding is suppressed but the
        // directive itself is reported.
        let src = "fn f() { a.unwrap(); // lint:allow(panic)\n }";
        assert_eq!(
            rules_of(&diags("crates/nn/src/x.rs", src)),
            [Rule::AllowSyntax]
        );
        // Unknown rule name.
        let src = "fn f() { } // lint:allow(made-up): whatever";
        assert_eq!(
            rules_of(&diags("crates/nn/src/x.rs", src)),
            [Rule::AllowSyntax]
        );
    }

    #[test]
    fn float_eq_fires_on_literal_cast_and_const_operands() {
        // Float literal on the right.
        let d = diags("crates/nn/src/x.rs", "fn f(x: f32) -> bool { x == 0.0 }");
        assert_eq!(rules_of(&d), [Rule::FloatEq]);
        // Float literal on the left, `!=`.
        let d = diags("crates/nn/src/x.rs", "fn f(x: f64) -> bool { 1.5 != x }");
        assert_eq!(rules_of(&d), [Rule::FloatEq]);
        // Negative literal on the right.
        let d = diags("crates/nn/src/x.rs", "fn f(x: f32) -> bool { x == -1.0 }");
        assert_eq!(rules_of(&d), [Rule::FloatEq]);
        // `as f64` cast result on the left.
        let d = diags(
            "crates/nn/src/x.rs",
            "fn f(x: u32, y: f64) -> bool { x as f64 == y }",
        );
        assert_eq!(rules_of(&d), [Rule::FloatEq]);
        // `f32::` associated-constant path on the right.
        let d = diags(
            "crates/nn/src/x.rs",
            "fn f(x: f32) -> bool { x == f32::EPSILON }",
        );
        assert_eq!(rules_of(&d), [Rule::FloatEq]);
        // Exponent-form literal.
        let d = diags("crates/nn/src/x.rs", "fn f(x: f64) -> bool { x != 1e-9 }");
        assert_eq!(rules_of(&d), [Rule::FloatEq]);
    }

    #[test]
    fn float_eq_spares_integers_tests_and_ordering_ops() {
        // Integer comparisons never fire, including `1usize` (whose suffix
        // contains the letter `e`) and hex literals.
        let src = "fn f(x: usize) -> bool { x == 1usize && x != 0xAE && x == 2 }";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
        // Ordering operators on floats are fine (they are well-defined).
        let src = "fn f(x: f32) -> bool { x <= 0.5 && x >= -0.5 }";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
        // Range patterns do not contain a `==` adjacency.
        let src = "fn f(x: f64) -> bool { (0.0..=1.0).contains(&x) }";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
        // Test code is exempt.
        let src = "#[cfg(test)]\nmod t { fn g(x: f32) -> bool { x == 0.0 } }";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
        // An allow directive suppresses it.
        let src = "fn f(x: f32) -> bool { x == 0.0 } // lint:allow(float-eq): exact sentinel";
        assert!(diags("crates/nn/src/x.rs", src).is_empty());
    }

    #[test]
    fn metric_name_flags_schema_violations() {
        // Unknown prefix.
        let d = diags(
            "crates/core/src/x.rs",
            "fn f() { cnnre_obs::counter(\"mystery.queries\").inc(); }",
        );
        assert_eq!(rules_of(&d), [Rule::MetricName]);
        // Single segment.
        let d = diags(
            "crates/core/src/x.rs",
            "fn f() { cnnre_obs::series(\"candidates\").push(1.0); }",
        );
        assert_eq!(rules_of(&d), [Rule::MetricName]);
        // Uppercase / illegal characters.
        let d = diags(
            "crates/core/src/x.rs",
            "fn f() { cnnre_obs::gauge(\"solver.Candidates\").set(1.0); }",
        );
        assert_eq!(rules_of(&d), [Rule::MetricName]);
        // `_ns` spelled wrong.
        let d = diags(
            "crates/core/src/x.rs",
            "fn f() { cnnre_obs::histogram(\"trace.segment_ns\").record(1.0); }",
        );
        assert_eq!(rules_of(&d), [Rule::MetricName]);
        // profile::count takes full names too.
        let d = diags(
            "crates/core/src/x.rs",
            "fn f() { cnnre_obs::profile::count(\"progress\", 1.0); }",
        );
        assert_eq!(rules_of(&d), [Rule::MetricName]);
    }

    #[test]
    fn metric_name_accepts_catalogue_names_and_span_fragments() {
        let src = "fn f() {\n\
                   cnnre_obs::counter(\"oracle.queries\").inc();\n\
                   cnnre_obs::series(\"solver.candidates_per_layer\").push(1.0);\n\
                   cnnre_obs::profile::count(\"solver.progress.root_pct\", 0.0);\n\
                   cnnre_obs::counter(\"events.emitted\").inc();\n\
                   cnnre_obs::gauge(\"events.clients\").set(0.0);\n\
                   cnnre_obs::counter(\"viz.events.consumed\").inc();\n\
                   let _s = cnnre_obs::span(\"plan\");\n\
                   let _t = cnnre_obs::span(\"trace.segment\");\n\
                   let _u = cnnre_obs::span_labelled(\"stage\", \"conv1\");\n\
                   }";
        assert!(diags("crates/core/src/x.rs", src).is_empty());
        // Span fragments still need well-formed segments and no `_ns`.
        let d = diags(
            "crates/core/src/x.rs",
            "fn f() { let _s = cnnre_obs::span(\"Plan A\"); }",
        );
        assert_eq!(rules_of(&d), [Rule::MetricName]);
        let d = diags(
            "crates/core/src/x.rs",
            "fn f() { let _s = cnnre_obs::span(\"stage_ns\"); }",
        );
        assert_eq!(rules_of(&d), [Rule::MetricName]);
    }

    #[test]
    fn metric_name_spares_free_functions_tests_and_non_literals() {
        // A free function named `counter` is not an obs call.
        let src = "fn f() { counter(\"whatever\"); }";
        assert!(diags("crates/core/src/x.rs", src).is_empty());
        // Iterator `.count()` takes no string.
        let src = "fn f(v: &[u8]) -> usize { v.iter().count() }";
        assert!(diags("crates/core/src/x.rs", src).is_empty());
        // Dynamic names can't be checked statically.
        let src = "fn f(n: &str) { cnnre_obs::counter(n).inc(); }";
        assert!(diags("crates/core/src/x.rs", src).is_empty());
        // Test code is exempt; test trees get the relaxed set.
        let src = "#[cfg(test)]\nmod t { fn g() { cnnre_obs::counter(\"x\").inc(); } }";
        assert!(diags("crates/core/src/x.rs", src).is_empty());
        let src = "fn f() { cnnre_obs::counter(\"x\").inc(); }";
        assert!(diags("crates/core/tests/t.rs", src).is_empty());
        // An allow directive suppresses it.
        let src = "fn f() { cnnre_obs::counter(\"x\").inc(); } \
                   // lint:allow(metric-name): probe metric for a spike";
        assert!(diags("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_trees_get_the_relaxed_rule_set() {
        // unwrap/float-eq/cast are fine in an integration test file...
        let src = "fn f(x: f32) { assert!(x == 0.5); y.unwrap(); let z = 1u64 as u32; }";
        assert!(diags("tests/golden_check.rs", src).is_empty());
        assert!(diags("crates/nn/tests/gradients.rs", src).is_empty());
        // ...but wall-clock reads still fire there — even inside a
        // `#[test]` fn, since in test trees everything is test code and
        // the in-file exemption would otherwise blank the whole file.
        let src = "#[test]\nfn f() { let t = Instant::now(); }";
        assert_eq!(
            rules_of(&diags("tests/perf_check.rs", src)),
            [Rule::Wallclock]
        );
        // ...hash-iter still fires in the scoped test trees,
        let src = "use std::collections::HashMap;\nfn f() {}";
        assert_eq!(
            rules_of(&diags("tests/golden_check.rs", src)),
            [Rule::HashIter]
        );
        assert_eq!(
            rules_of(&diags("crates/trace/tests/t.rs", src)),
            [Rule::HashIter]
        );
        // ...and directive validation still applies.
        let src = "fn f() {} // lint:allow(bogus-rule): x";
        assert_eq!(
            rules_of(&diags("tests/golden_check.rs", src)),
            [Rule::AllowSyntax]
        );
    }

    #[test]
    fn test_code_is_exempt_from_all_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { a.unwrap(); let i = Instant::now(); }\n}\n";
        assert!(diags("crates/core/src/x.rs", src).is_empty());
    }
}
