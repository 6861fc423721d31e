//! Intraprocedural taint-dataflow engine over the token tree.
//!
//! The engine answers one question per function: *can a secret-bearing
//! value reach a trace-visible sink?* Sources are (a) parameters and
//! struct fields whose declared type names a secret-bearing type
//! ([`SECRET_TYPES`]), (b) lines annotated `// taint:source`, and — in
//! [`Mode::RelaxedLoad`] — (c) `…load(Ordering::Relaxed)` expressions.
//! Taint propagates through `let` bindings, assignments (including
//! compound ones and `self.field = …`, which feeds a file-level field
//! fixpoint), `for`/`if let`/`match`-arm pattern bindings, mutating method
//! calls (`v.push(secret)` taints `v`), and closure parameters (a closure
//! argument to a method on a tainted receiver binds tainted parameters).
//! Sinks are branch conditions (CT001), index expressions (CT002),
//! variable-latency arithmetic (CT003) and loop bounds (CT004: `for`,
//! `while`, and `for_each`/`fold`-style calls on a tainted iterator) — or, for
//! relaxed-load taint, any control decision (CR004).
//!
//! The analysis is deliberately over-approximate: a missed finding is a
//! silent gap, a false one costs a justified `lint:allow`. Two known
//! approximations: taint is tracked per *name*, not per path (`a.x`
//! tainted taints `a`), and closure-parameter taint uses the taint of the
//! whole receiver chain before the closure.

use crate::diag::Rule;
use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;
use crate::syntax::{self, functions, struct_fields, FnDecl, KEYWORDS};
use crate::tree::{self, build, Delim, Tree};
use std::collections::BTreeSet;

/// Types whose values are secrets in the paper's threat model: the victim
/// network's architecture and weights, and anything derived from observing
/// it (traces, candidate structures, oracle handles).
pub const SECRET_TYPES: [&str; 16] = [
    "Network",
    "Tensor3",
    "Tensor4",
    "Trace",
    "TraceEvents",
    "MemoryEvent",
    "Stage",
    "Schedule",
    "LayerGeometry",
    "LayerParams",
    "CandidateStructure",
    "RankedCandidate",
    "ObservedNetwork",
    "FunctionalOracle",
    "AcceleratorOracle",
    "Weights",
];

/// Methods with operand-dependent latency on real hardware.
const VAR_TIME_METHODS: [&str; 12] = [
    "div_ceil",
    "div_euclid",
    "rem_euclid",
    "checked_div",
    "checked_rem",
    "pow",
    "powi",
    "powf",
    "sqrt",
    "ln",
    "log2",
    "exp",
];

/// Iterator methods that loop over their receiver: a `for` loop by
/// another name, whose trip count is the receiver's length.
const LOOP_METHODS: [&str; 4] = ["for_each", "fold", "try_for_each", "try_fold"];

/// Methods that inject their arguments into the receiver.
const MUTATING_METHODS: [&str; 6] = ["push", "insert", "extend", "append", "push_str", "set"];

/// What counts as a source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Secret-typed params/fields and `taint:source` lines (CT rules).
    Secret,
    /// `load(Ordering::Relaxed)` expressions (CR004).
    RelaxedLoad,
}

/// One taint finding, before suppression handling.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule the sink maps to.
    pub rule: Rule,
    /// 1-based line of the sink.
    pub line: u32,
    /// Human explanation.
    pub message: String,
}

/// Runs the taint analysis over every non-test function in `file`.
#[must_use]
pub fn analyze(file: &SourceFile, mode: Mode) -> Vec<Finding> {
    if file.whole_file_excluded {
        return Vec::new();
    }
    let tokens = &file.tokens;
    let trees = build(tokens);
    let fns: Vec<FnDecl<'_>> = functions(&trees, tokens)
        .into_iter()
        .filter(|f| !file.in_test_code(f.name_tok))
        .collect();

    // Seed secret fields from declared types, then run the file-level
    // fixpoint: a field assigned a tainted value becomes secret itself.
    let mut secret_fields: BTreeSet<String> = BTreeSet::new();
    if mode == Mode::Secret {
        for field in struct_fields(&trees, tokens) {
            if field
                .ty_idents
                .iter()
                .any(|t| SECRET_TYPES.contains(&t.as_str()))
            {
                secret_fields.insert(field.name);
            }
        }
    }
    let eng = |secret_fields: &BTreeSet<String>| Engine {
        file,
        tokens,
        mode,
        secret_fields: secret_fields.clone(),
    };
    if mode == Mode::Secret {
        for _ in 0..8 {
            let engine = eng(&secret_fields);
            let mut grew = false;
            for f in &fns {
                let st = engine.run_fn(f);
                for nf in st.new_fields {
                    grew |= secret_fields.insert(nf);
                }
            }
            if !grew {
                break;
            }
        }
    }

    // Final pass: converged field set, per-fn fixpoint, then sinks.
    let engine = eng(&secret_fields);
    let mut out = Vec::new();
    for f in &fns {
        let st = engine.run_fn(f);
        engine.sink_walk(f.body, false, &st, &mut out);
    }
    // One finding per (rule, line): several sinks on a line would need
    // several identical allows otherwise.
    let mut seen = BTreeSet::new();
    out.retain(|f| seen.insert((f.rule, f.line)));
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// Per-function taint state.
#[derive(Default)]
struct FnState {
    /// Local names currently carrying taint.
    tainted: BTreeSet<String>,
    /// `self.field` targets assigned tainted values (file fixpoint input).
    new_fields: BTreeSet<String>,
}

struct Engine<'f> {
    file: &'f SourceFile,
    tokens: &'f [Token],
    mode: Mode,
    secret_fields: BTreeSet<String>,
}

impl Engine<'_> {
    /// Seeds a function's parameters and iterates binding propagation to a
    /// fixpoint.
    fn run_fn(&self, f: &FnDecl<'_>) -> FnState {
        let mut st = FnState::default();
        if self.mode == Mode::Secret {
            for p in &f.params {
                if p.name == "self" {
                    continue;
                }
                let secret_ty = p
                    .ty_idents
                    .iter()
                    .any(|t| SECRET_TYPES.contains(&t.as_str()));
                if secret_ty || self.file.taint_marked(p.line) {
                    st.tainted.insert(p.name.clone());
                }
            }
        }
        for _ in 0..12 {
            let before = st.tainted.len() + st.new_fields.len();
            self.bind_walk(f.body, false, &mut st);
            if st.tainted.len() + st.new_fields.len() == before {
                break;
            }
        }
        st
    }

    /// Whether any token under `trees` carries taint: a tainted local, a
    /// secret field access, a `taint:source`-marked line, or (in relaxed
    /// mode) a `load(… Relaxed …)` expression.
    fn slice_tainted(&self, trees: &[Tree], st: &FnState) -> bool {
        let flat = tree::flatten(trees);
        for (pos, &ti) in flat.iter().enumerate() {
            let tok = &self.tokens[ti];
            if tok.kind == TokKind::Ident {
                if st.tainted.contains(&tok.text) {
                    return true;
                }
                // `.field` access on any receiver.
                if pos > 0
                    && self.tokens[flat[pos - 1]].text == "."
                    && self.secret_fields.contains(&tok.text)
                {
                    return true;
                }
                if self.mode == Mode::RelaxedLoad
                    && tok.text == "load"
                    && flat[pos + 1..]
                        .iter()
                        .take(6)
                        .any(|&a| self.tokens[a].text == "Relaxed")
                {
                    return true;
                }
            }
            if self.mode == Mode::Secret && self.file.taint_marked(tok.line) {
                return true;
            }
        }
        false
    }

    /// One propagation sweep over a statement level.
    fn bind_walk(&self, trees: &[Tree], inherited: bool, st: &mut FnState) {
        for (i, t) in trees.iter().enumerate() {
            match t {
                Tree::Leaf(l) => {
                    let text = self.tokens[*l].text.as_str();
                    match text {
                        "let" => self.bind_let(trees, i, st),
                        "for" => self.bind_for(trees, i, st),
                        "match" => self.bind_match(trees, i, st),
                        "=" => self.bind_assign(trees, i, st),
                        "." => self.bind_mutation(trees, i, st),
                        "|" => self.bind_closure(trees, i, inherited, st),
                        _ => {}
                    }
                }
                Tree::Group { children, .. } => {
                    let ctx = inherited || self.slice_tainted(&trees[..i], st);
                    self.bind_walk(children, ctx, st);
                }
            }
        }
    }

    /// `let pat[: Ty] = rhs ;` — binds `pat` when `rhs` (or the declared
    /// type, or a `taint:source` mark) is secret. Also covers `if let` /
    /// `while let` / `let … else`, whose rhs ends at the block.
    fn bind_let(&self, trees: &[Tree], i: usize, st: &mut FnState) {
        let mut colon = None;
        let mut eq = None;
        let mut end = trees.len();
        for (j, t) in trees.iter().enumerate().skip(i + 1) {
            match t {
                Tree::Leaf(l) => {
                    let tx = self.tokens[*l].text.as_str();
                    let prev_colon = j > 0
                        && trees[j - 1]
                            .leaf(self.tokens)
                            .is_some_and(|p| p.text == ":");
                    let next_colon = trees
                        .get(j + 1)
                        .and_then(|n| n.leaf(self.tokens))
                        .is_some_and(|n| n.text == ":");
                    if tx == ":" && colon.is_none() && eq.is_none() && !prev_colon && !next_colon {
                        colon = Some(j);
                    } else if tx == "=" && eq.is_none() && !is_comparison(trees, j, self.tokens) {
                        eq = Some(j);
                    } else if tx == ";" {
                        end = j;
                        break;
                    }
                }
                Tree::Group {
                    delim: Delim::Brace,
                    ..
                } if eq.is_some() => {
                    // `if let pat = rhs { … }` / `let … else { … }`.
                    end = j;
                    break;
                }
                _ => {}
            }
        }
        let Some(eq) = eq else { return };
        let pat_end = colon.unwrap_or(eq);
        let declared_secret = self.mode == Mode::Secret
            && colon.is_some_and(|c| {
                tree::flatten(&trees[c + 1..eq])
                    .iter()
                    .any(|&t| SECRET_TYPES.contains(&self.tokens[t].text.as_str()))
            });
        if declared_secret || self.slice_tainted(&trees[eq + 1..end], st) {
            self.bind_pattern(&trees[i + 1..pat_end], st);
        }
    }

    /// `for pat in iter { … }` — binds `pat` when `iter` is tainted.
    fn bind_for(&self, trees: &[Tree], i: usize, st: &mut FnState) {
        let Some(in_pos) =
            trees.iter().enumerate().skip(i + 1).find_map(|(j, t)| {
                (t.leaf(self.tokens).is_some_and(|l| l.text == "in")).then_some(j)
            })
        else {
            return;
        };
        let body_pos = trees[in_pos + 1..]
            .iter()
            .position(|t| t.is_group(Delim::Brace))
            .map(|p| in_pos + 1 + p)
            .unwrap_or(trees.len());
        if self.slice_tainted(&trees[in_pos + 1..body_pos], st) {
            self.bind_pattern(&trees[i + 1..in_pos], st);
        }
    }

    /// `match scrutinee { pat => …, … }` — binds arm patterns when the
    /// scrutinee is tainted. Guard expressions (`pat if cond =>`) are not
    /// treated as bindings.
    fn bind_match(&self, trees: &[Tree], i: usize, st: &mut FnState) {
        let Some(body_pos) = trees[i + 1..]
            .iter()
            .position(|t| t.is_group(Delim::Brace))
            .map(|p| i + 1 + p)
        else {
            return;
        };
        if !self.slice_tainted(&trees[i + 1..body_pos], st) {
            return;
        }
        let Tree::Group { children, .. } = &trees[body_pos] else {
            return;
        };
        let mut collecting = true;
        let mut pat_start = 0usize;
        let mut j = 0usize;
        while j < children.len() {
            if let Some(l) = children[j].leaf(self.tokens) {
                match l.text.as_str() {
                    "if" if collecting => {
                        // Guard: the pattern ends here.
                        self.bind_pattern(&children[pat_start..j], st);
                        collecting = false;
                    }
                    "=" if children
                        .get(j + 1)
                        .and_then(|n| n.leaf(self.tokens))
                        .is_some_and(|n| n.text == ">") =>
                    {
                        if collecting {
                            self.bind_pattern(&children[pat_start..j], st);
                        }
                        // Skip the arm body: a brace group, or up to the
                        // next top-level comma.
                        j += 2;
                        if children.get(j).is_some_and(|t| t.is_group(Delim::Brace)) {
                            j += 1;
                        } else {
                            while j < children.len() {
                                if children[j].leaf(self.tokens).is_some_and(|l| l.text == ",") {
                                    break;
                                }
                                j += 1;
                            }
                        }
                        // Past the separating comma, the next arm starts.
                        if children
                            .get(j)
                            .and_then(|t| t.leaf(self.tokens))
                            .is_some_and(|l| l.text == ",")
                        {
                            j += 1;
                        }
                        pat_start = j;
                        collecting = true;
                        continue;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
    }

    /// `place = rhs` / `place op= rhs` — taints the place's root binding;
    /// `self.field = rhs` also feeds the field fixpoint.
    fn bind_assign(&self, trees: &[Tree], i: usize, st: &mut FnState) {
        if is_comparison(trees, i, self.tokens) {
            return;
        }
        // Compound assignment: the operator punct sits just left of `=`.
        let mut place_end = i;
        while place_end > 0 {
            let is_op = trees[place_end - 1].leaf(self.tokens).is_some_and(|l| {
                matches!(
                    l.text.as_str(),
                    "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" | "<" | ">"
                )
            });
            if is_op {
                place_end -= 1;
            } else {
                break;
            }
        }
        let mut place_start = place_end;
        while place_start > 0 && is_chain_tree(&trees[place_start - 1], self.tokens) {
            place_start -= 1;
        }
        if place_start == place_end {
            return;
        }
        let mut end = trees.len();
        for (j, t) in trees.iter().enumerate().skip(i + 1) {
            if t.leaf(self.tokens).is_some_and(|l| l.text == ";") {
                end = j;
                break;
            }
        }
        if !self.slice_tainted(&trees[i + 1..end], st) {
            return;
        }
        let place = &trees[place_start..place_end];
        self.taint_place(place, st);
    }

    /// `recv.push(args)` and friends: a tainted argument taints the
    /// receiver (and `self.field.push(…)` feeds the field fixpoint).
    fn bind_mutation(&self, trees: &[Tree], i: usize, st: &mut FnState) {
        let is_mutator = trees
            .get(i + 1)
            .and_then(|t| t.leaf(self.tokens))
            .is_some_and(|l| MUTATING_METHODS.contains(&l.text.as_str()));
        let args_tainted = is_mutator
            && trees.get(i + 2).is_some_and(|t| {
                if let Tree::Group {
                    delim: Delim::Paren,
                    children,
                    ..
                } = t
                {
                    self.slice_tainted(children, st)
                } else {
                    false
                }
            });
        if !args_tainted {
            return;
        }
        let mut start = i;
        while start > 0 && is_chain_tree(&trees[start - 1], self.tokens) {
            start -= 1;
        }
        self.taint_place(&trees[start..i], st);
    }

    /// Closure parameters: `|p, q|` binds tainted params when the context
    /// (inherited from the receiver chain before the enclosing group) is
    /// tainted.
    fn bind_closure(&self, trees: &[Tree], i: usize, inherited: bool, st: &mut FnState) {
        let ctx = inherited || self.slice_tainted(&trees[..i], st);
        if !ctx {
            return;
        }
        // Find the closing `|` within a short window of simple trees.
        let mut close = None;
        for (j, t) in trees.iter().enumerate().skip(i + 1).take(16) {
            if let Some(l) = t.leaf(self.tokens) {
                match l.text.as_str() {
                    "|" => {
                        close = Some(j);
                        break;
                    }
                    ";" | "{" | "}" => break,
                    _ => {}
                }
            }
        }
        let Some(close) = close else { return };
        // Bind param names, skipping `: Type` segments.
        let mut in_type = false;
        for t in &trees[i + 1..close] {
            if let Some(l) = t.leaf(self.tokens) {
                match l.text.as_str() {
                    ":" => in_type = true,
                    "," => in_type = false,
                    _ if !in_type && syntax::is_binding_ident(l) => {
                        st.tainted.insert(l.text.clone());
                    }
                    _ => {}
                }
            }
        }
    }

    /// Marks a place expression's root as tainted; records `self.field`
    /// targets for the file-level field fixpoint.
    fn taint_place(&self, place: &[Tree], st: &mut FnState) {
        let flat = tree::flatten(place);
        let mut idents = flat
            .iter()
            .map(|&t| &self.tokens[t])
            .filter(|t| t.kind == TokKind::Ident);
        match idents.next() {
            Some(first) if first.text == "self" => {
                if let Some(field) = idents.next() {
                    st.new_fields.insert(field.text.clone());
                }
            }
            Some(first) if syntax::is_binding_ident(first) => {
                st.tainted.insert(first.text.clone());
            }
            _ => {}
        }
    }

    /// Binds every binding identifier in a pattern slice.
    fn bind_pattern(&self, pat: &[Tree], st: &mut FnState) {
        for &t in &tree::flatten(pat) {
            let tok = &self.tokens[t];
            if syntax::is_binding_ident(tok) {
                st.tainted.insert(tok.text.clone());
            }
        }
    }

    /// Reports every sink reached by taint at one statement level.
    fn sink_walk(&self, trees: &[Tree], inherited: bool, st: &FnState, out: &mut Vec<Finding>) {
        for (i, t) in trees.iter().enumerate() {
            match t {
                Tree::Leaf(l) => {
                    let tok = &self.tokens[*l];
                    match tok.text.as_str() {
                        "if" | "match" => {
                            let end = block_start(trees, i + 1, self.tokens);
                            if self.slice_tainted(&trees[i + 1..end], st) {
                                out.push(self.finding_branch(&tok.text, tok.line));
                            }
                        }
                        "while" => {
                            let end = block_start(trees, i + 1, self.tokens);
                            if self.slice_tainted(&trees[i + 1..end], st) {
                                out.push(self.finding_loop("while", tok.line));
                            }
                        }
                        "for" if self.mode == Mode::Secret => {
                            if let Some(in_pos) =
                                trees.iter().enumerate().skip(i + 1).find_map(|(j, t)| {
                                    (t.leaf(self.tokens).is_some_and(|l| l.text == "in"))
                                        .then_some(j)
                                })
                            {
                                let end = block_start(trees, in_pos + 1, self.tokens);
                                if self.slice_tainted(&trees[in_pos + 1..end], st) {
                                    out.push(self.finding_loop("for", tok.line));
                                }
                            }
                        }
                        "/" | "%"
                            if self.mode == Mode::Secret
                                && self.arith_operand_tainted(trees, i, st) =>
                        {
                            out.push(Finding {
                                rule: Rule::CtArith,
                                line: tok.line,
                                message: format!(
                                    "variable-latency `{}` on a secret-derived operand (CT003)",
                                    tok.text
                                ),
                            });
                        }
                        "." if self.mode == Mode::Secret => {
                            if let Some(m) = self.loop_call(trees, i, st) {
                                out.push(self.finding_loop(&m.text, m.line));
                            }
                            if let Some(line) = self.var_time_call(trees, i, st) {
                                out.push(Finding {
                                    rule: Rule::CtArith,
                                    line,
                                    message: "variable-latency method call on a secret-derived \
                                              value (CT003)"
                                        .to_owned(),
                                });
                            }
                        }
                        _ => {}
                    }
                }
                Tree::Group {
                    delim: Delim::Bracket,
                    open,
                    children,
                } if self.mode == Mode::Secret => {
                    if self.is_index_position(trees, i) && self.slice_tainted(children, st) {
                        out.push(Finding {
                            rule: Rule::CtIndex,
                            line: self.tokens[*open].line,
                            message: "memory access indexed by secret-derived data (CT002)"
                                .to_owned(),
                        });
                    }
                    let ctx = inherited || self.slice_tainted(&trees[..i], st);
                    self.sink_walk(children, ctx, st, out);
                }
                Tree::Group { children, .. } => {
                    let ctx = inherited || self.slice_tainted(&trees[..i], st);
                    self.sink_walk(children, ctx, st, out);
                }
            }
        }
    }

    fn finding_branch(&self, kw: &str, line: u32) -> Finding {
        match self.mode {
            Mode::Secret => Finding {
                rule: Rule::CtBranch,
                line,
                message: format!("`{kw}` condition derives from secret data (CT001)"),
            },
            Mode::RelaxedLoad => Finding {
                rule: Rule::CrRelaxedControl,
                line,
                message: format!(
                    "`{kw}` condition steered by an Ordering::Relaxed atomic load (CR004)"
                ),
            },
        }
    }

    fn finding_loop(&self, kw: &str, line: u32) -> Finding {
        match self.mode {
            Mode::Secret => Finding {
                rule: Rule::CtLoop,
                line,
                message: format!("`{kw}` trip count derives from secret data (CT004)"),
            },
            Mode::RelaxedLoad => Finding {
                rule: Rule::CrRelaxedControl,
                line,
                message: format!(
                    "`{kw}` condition steered by an Ordering::Relaxed atomic load (CR004)"
                ),
            },
        }
    }

    /// Whether either operand chain around a `/` / `%` at `i` is tainted.
    fn arith_operand_tainted(&self, trees: &[Tree], i: usize, st: &FnState) -> bool {
        // `/=` compound is still a division; `//` cannot appear (comments
        // are lexed away). Skip generics-ish context: a `/` directly after
        // `<` or before `>` does not occur in real code.
        let mut l = i;
        while l > 0 && is_chain_tree(&trees[l - 1], self.tokens) {
            l -= 1;
        }
        let mut r = i + 1;
        // Step over a compound-assignment `=`.
        if trees
            .get(r)
            .and_then(|t| t.leaf(self.tokens))
            .is_some_and(|t| t.text == "=")
        {
            r += 1;
        }
        let mut re = r;
        while re < trees.len() && is_chain_tree(&trees[re], self.tokens) {
            re += 1;
        }
        self.slice_tainted(&trees[l..i], st) || self.slice_tainted(&trees[r..re], st)
    }

    /// `.method(args)` where method has variable latency and the receiver
    /// chain or arguments are tainted. Returns the method's line.
    fn var_time_call(&self, trees: &[Tree], i: usize, st: &FnState) -> Option<u32> {
        let m = trees.get(i + 1)?.leaf(self.tokens)?;
        if !VAR_TIME_METHODS.contains(&m.text.as_str()) {
            return None;
        }
        let Tree::Group {
            delim: Delim::Paren,
            children,
            ..
        } = trees.get(i + 2)?
        else {
            return None;
        };
        let hit = self.receiver_tainted(trees, i, st) || self.slice_tainted(children, st);
        hit.then_some(m.line)
    }

    /// `.method(…)` where method loops over a tainted receiver chain
    /// ([`LOOP_METHODS`]). Returns the method token.
    fn loop_call(&self, trees: &[Tree], i: usize, st: &FnState) -> Option<&Token> {
        let m = trees.get(i + 1)?.leaf(self.tokens)?;
        let call = trees.get(i + 2).is_some_and(|t| t.is_group(Delim::Paren));
        (call && LOOP_METHODS.contains(&m.text.as_str()) && self.receiver_tainted(trees, i, st))
            .then_some(m)
    }

    /// Whether the receiver chain ending before the `.` at `i` is tainted.
    fn receiver_tainted(&self, trees: &[Tree], i: usize, st: &FnState) -> bool {
        let mut start = i;
        while start > 0 && is_chain_tree(&trees[start - 1], self.tokens) {
            start -= 1;
        }
        self.slice_tainted(&trees[start..i], st)
    }

    /// A bracket group indexes memory when it directly follows a value
    /// expression (identifier or another group) — not a type, attribute,
    /// or macro-bang position.
    fn is_index_position(&self, trees: &[Tree], i: usize) -> bool {
        match trees.get(i.wrapping_sub(1)) {
            Some(Tree::Leaf(l)) => {
                let tok = &self.tokens[*l];
                tok.kind == TokKind::Ident
                    && !KEYWORDS.contains(&tok.text.as_str())
                    && !matches!(tok.text.as_str(), "use" | "where" | "while")
            }
            Some(Tree::Group {
                delim: Delim::Paren | Delim::Bracket,
                ..
            }) => true,
            _ => false,
        }
    }
}

/// Index of the first top-level brace group (or statement end) at or after
/// `from` — where an `if`/`while`/`match` condition ends.
fn block_start(trees: &[Tree], from: usize, tokens: &[Token]) -> usize {
    for (j, t) in trees.iter().enumerate().skip(from) {
        if t.is_group(Delim::Brace) {
            return j;
        }
        if t.leaf(tokens).is_some_and(|l| l.text == ";") {
            return j;
        }
    }
    trees.len()
}

/// Whether the `=` at `trees[i]` is part of `==`, `!=`, `<=`, `>=`, `=>`
/// rather than an assignment.
fn is_comparison(trees: &[Tree], i: usize, tokens: &[Token]) -> bool {
    let leaf_text = |j: usize| -> Option<&str> {
        trees
            .get(j)
            .and_then(|t| t.leaf(tokens))
            .map(|l| l.text.as_str())
    };
    if matches!(leaf_text(i + 1), Some("=") | Some(">")) {
        return true;
    }
    match leaf_text(i.wrapping_sub(1)) {
        Some("=") | Some("!") => true,
        // `<=` / `>=` compare; `<<=` / `>>=` assign.
        Some("<") => leaf_text(i.wrapping_sub(2)) != Some("<"),
        Some(">") => leaf_text(i.wrapping_sub(2)) != Some(">"),
        _ => false,
    }
}

/// Trees that can extend a receiver/operand chain: identifiers, numbers,
/// `.` / `:` / `?` puncts, and call/index groups.
fn is_chain_tree(t: &Tree, tokens: &[Token]) -> bool {
    match t {
        Tree::Leaf(l) => {
            let tok = &tokens[*l];
            match tok.kind {
                TokKind::Ident => {
                    matches!(tok.text.as_str(), "self" | "Self")
                        || (!KEYWORDS.contains(&tok.text.as_str())
                            && !matches!(tok.text.as_str(), "use" | "where" | "while"))
                }
                TokKind::Num => true,
                TokKind::Punct => matches!(tok.text.as_str(), "." | ":" | "?"),
                _ => false,
            }
        }
        Tree::Group {
            delim: Delim::Paren | Delim::Bracket,
            ..
        } => true,
        Tree::Group { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<(Rule, u32)> {
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        analyze(&f, Mode::Secret)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    fn relaxed(src: &str) -> Vec<(Rule, u32)> {
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        analyze(&f, Mode::RelaxedLoad)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn secret_param_branch_is_ct001() {
        let out = findings("fn f(t: &Trace) { if t.len() > 4 { g(); } }");
        assert_eq!(out, [(Rule::CtBranch, 1)]);
    }

    #[test]
    fn public_param_branch_is_clean() {
        assert!(findings("fn f(n: usize) { if n > 4 { g(); } }").is_empty());
    }

    #[test]
    fn taint_flows_through_let_chains() {
        let out = findings(
            "fn f(t: &Trace) {\n    let n = t.events().len();\n    let m = n + 1;\n    if m > 4 { g(); }\n}",
        );
        assert_eq!(out, [(Rule::CtBranch, 4)]);
    }

    #[test]
    fn secret_index_is_ct002() {
        let out = findings("fn f(t: &Trace, lut: &[u8]) { let i = t.addr(); let _ = lut[i]; }");
        assert_eq!(out, [(Rule::CtIndex, 1)]);
    }

    #[test]
    fn array_types_and_macros_are_not_index_sinks() {
        assert!(findings(
            "fn f(t: &Trace) { let _x: [u8; 4] = [0; 4]; let v = vec![t.a()]; let _ = v; }"
        )
        .is_empty());
    }

    #[test]
    fn secret_division_is_ct003() {
        let out = findings("fn f(g: &LayerGeometry) { let _rows = g.total() / 3; }");
        assert_eq!(out, [(Rule::CtArith, 1)]);
    }

    #[test]
    fn var_time_method_on_secret_is_ct003() {
        let out = findings("fn f(g: &LayerGeometry) { let _ = g.h().div_ceil(2); }");
        assert_eq!(out, [(Rule::CtArith, 1)]);
    }

    #[test]
    fn secret_loop_bound_is_ct004() {
        let out = findings("fn f(t: &Trace) { for ev in t.events() { g(ev); } }");
        assert_eq!(out, [(Rule::CtLoop, 1)]);
    }

    #[test]
    fn events_iterator_parameter_is_a_source() {
        let out = findings("fn f(evs: TraceEvents<'_>) { for ev in evs { g(ev); } }");
        assert_eq!(out, [(Rule::CtLoop, 1)]);
    }

    #[test]
    fn internal_iteration_over_secret_is_ct004() {
        let out = findings(
            "fn f(t: &Trace, n: &[u8]) {\n    t.events().for_each(|ev| g(ev));\n    let _ = t.events().fold(0, |a, _| a + 1);\n    n.iter().for_each(|x| g(x));\n}",
        );
        assert_eq!(out, [(Rule::CtLoop, 2), (Rule::CtLoop, 3)]);
    }

    #[test]
    fn while_on_secret_is_ct004() {
        let out = findings("fn f(t: &Trace) { let mut n = t.len(); while n > 0 { n -= 1; } }");
        assert_eq!(out, [(Rule::CtLoop, 1)]);
    }

    #[test]
    fn for_pattern_binding_propagates() {
        let out = findings(
            "fn f(t: &Trace) {\n    for ev in t.events() {\n        let _ = table[ev.addr()];\n    }\n}",
        );
        assert!(out.contains(&(Rule::CtLoop, 2)));
        assert!(out.contains(&(Rule::CtIndex, 3)));
    }

    #[test]
    fn match_arm_bindings_propagate() {
        let out = findings(
            "fn f(s: &Stage) {\n    match s.kind() {\n        Kind::Conv(c) => { if c > 0 { g(); } }\n        _ => {}\n    }\n}",
        );
        assert!(out.contains(&(Rule::CtBranch, 2)));
        assert!(out.contains(&(Rule::CtBranch, 3)));
    }

    #[test]
    fn match_guard_idents_do_not_become_bindings() {
        // `limit` appears in a guard of a *tainted* match; it must not be
        // treated as a new tainted binding.
        let out = findings(
            "fn f(s: &Stage, limit: u32) {\n    match s.k() {\n        n if n > limit => g(),\n        _ => {}\n    }\n    if limit > 0 { h(); }\n}",
        );
        assert!(out.contains(&(Rule::CtBranch, 2)));
        assert!(!out.contains(&(Rule::CtBranch, 6)));
    }

    #[test]
    fn closure_params_inherit_receiver_taint() {
        let out = findings(
            "fn f(t: &Trace) {\n    let hit = t.events().iter().any(|ev| {\n        if ev.is_write() { true } else { false }\n    });\n    let _ = hit;\n}",
        );
        assert!(out.contains(&(Rule::CtBranch, 3)));
    }

    #[test]
    fn field_fixpoint_catches_indirect_secret_storage() {
        // `prefix` has no secret declared type, but is assigned from a
        // secret-typed field — the file fixpoint must catch the branch.
        let src = "struct Runner<'a> { net: &'a Network, prefix: Vec<u32> }\n\
                   impl<'a> Runner<'a> {\n\
                   fn store(&mut self) { self.prefix = derive(self.net); }\n\
                   fn check(&self) { if self.prefix.is_empty() { g(); } }\n\
                   }";
        let out = findings(src);
        assert!(out.contains(&(Rule::CtBranch, 4)));
    }

    #[test]
    fn mutating_method_taints_receiver() {
        let out = findings(
            "fn f(t: &Trace) {\n    let mut out = Vec::new();\n    out.push(t.first());\n    for x in out { g(x); }\n}",
        );
        assert!(out.contains(&(Rule::CtLoop, 4)));
    }

    #[test]
    fn taint_source_marker_seeds_a_local() {
        let out = findings(
            "fn f() {\n    // taint:source\n    let key = read_key();\n    if key > 0 { g(); }\n}",
        );
        assert!(out.contains(&(Rule::CtBranch, 4)));
    }

    #[test]
    fn if_let_chain_propagates() {
        let out = findings(
            "fn f(t: &Trace) {\n    if let Some(ev) = t.first() {\n        if let Some(a) = ev.addr() {\n            let _ = lut[a];\n        }\n    }\n}",
        );
        assert!(out.contains(&(Rule::CtBranch, 2)));
        assert!(out.contains(&(Rule::CtIndex, 4)));
    }

    #[test]
    fn method_chain_index_is_found() {
        let out = findings("fn f(t: &Trace, m: &Map) { let _ = m.rows().cols[t.first().addr()]; }");
        assert_eq!(out, [(Rule::CtIndex, 1)]);
    }

    #[test]
    fn comparison_eq_is_not_an_assignment() {
        // `n == secret` must not taint `n` (only report the branch).
        let out = findings(
            "fn f(t: &Trace, n: u32) {\n    if n == t.len() { g(); }\n    if n > 0 { h(); }\n}",
        );
        assert_eq!(out, [(Rule::CtBranch, 2)]);
    }

    #[test]
    fn compound_assignment_propagates() {
        let out = findings(
            "fn f(t: &Trace) {\n    let mut acc = 0u64;\n    acc += t.len() as u64;\n    if acc > 4 { g(); }\n}",
        );
        assert!(out.contains(&(Rule::CtBranch, 4)));
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(t: &Trace) { if t.len() > 0 { g(); } }\n}";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn relaxed_load_in_branch_is_cr004() {
        let out =
            relaxed("fn f(stop: &AtomicBool) { if stop.load(Ordering::Relaxed) { return; } }");
        assert_eq!(out, [(Rule::CrRelaxedControl, 1)]);
    }

    #[test]
    fn relaxed_load_through_binding_is_cr004() {
        let out = relaxed(
            "fn f(stop: &AtomicBool) {\n    let s = stop.load(Ordering::Relaxed);\n    while s { spin(); }\n}",
        );
        assert_eq!(out, [(Rule::CrRelaxedControl, 3)]);
    }

    #[test]
    fn acquire_load_is_not_cr004() {
        assert!(
            relaxed("fn f(stop: &AtomicBool) { if stop.load(Ordering::Acquire) { return; } }")
                .is_empty()
        );
    }

    #[test]
    fn relaxed_counter_arithmetic_is_not_cr004() {
        assert!(
            relaxed("fn f(n: &AtomicU64) { let _total = n.load(Ordering::Relaxed) + 1; }")
                .is_empty()
        );
    }

    #[test]
    fn nested_closures_propagate() {
        let out = findings(
            "fn f(t: &Trace) {\n    let v: Vec<u32> = t.rows().iter().map(|r| {\n        r.cells().iter().filter(|c| c.hot()).count() as u32\n    }).collect();\n    let _ = v;\n}",
        );
        // The inner filter closure's branch-free body yields no findings,
        // but nothing panics and no false CT001 appears.
        assert!(out.iter().all(|(r, _)| *r != Rule::CtBranch));
    }
}
