//! The rule engine: four lexical rule families over [`crate::lexer`]
//! token streams, with test-code skipping and `// gx-lint: allow(…)`
//! suppression.
//!
//! # Rules
//!
//! | id | protects | fires on |
//! |----|----------|----------|
//! | `determinism` | bit-identical estimates/checkpoints | `HashMap`/`HashSet`/`Instant`/`SystemTime`/`available_parallelism`/`RandomState`/`DefaultHasher` mentioned in a manifest-declared deterministic path |
//! | `panic_surface` | typed-error contract | `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`, `assert_eq!`, `assert_ne!` in non-test library code (the `debug_*` asserts are exempt); direct indexing in `index`-manifested paths |
//! | `lock_discipline` | deadlock freedom in `gx-service` | `.lock()`/`locked(…)` acquiring against the declared order, re-acquiring a held lock, or locking an undeclared name |
//! | `no_alloc` | hot-loop zero-allocation contract | `Vec::new`, `vec!`, `Box::new`, `format!`, `.collect(`, `.to_vec(`, `.to_string(`, `.to_owned(`, `with_capacity` inside a `// gx-lint: no_alloc`-marked function |
//!
//! A fifth internal id, `directive`, reports malformed `gx-lint:`
//! comments so a typo cannot silently disable a rule.
//!
//! # What "test code" means
//!
//! Items annotated `#[test]`, `#[cfg(test)]` (or any `cfg` mentioning
//! `test`), and everything after a file-level `#![cfg(test)]` are
//! skipped for every rule. Files under `tests/`, `benches/`,
//! `examples/`, or `fixtures/` directories never reach the engine
//! (excluded by the manifest walk).
//!
//! # Suppression
//!
//! `// gx-lint: allow(rule)` suppresses `rule` findings on its own line
//! and the next line — so both trailing and preceding-line comments
//! work. Justify every allow after ` -- `; the comment is the audit
//! trail.

use crate::lexer::{lex, Directive, DirectiveKind, Tok, TokKind};
use crate::manifest::{LockManifest, Manifest};
use std::collections::{BTreeMap, BTreeSet};

/// Rule families. `Directive` is internal hygiene (malformed control
/// comments), not a contract rule, but participates in check/baseline
/// like any other so it cannot rot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    Determinism,
    PanicSurface,
    LockDiscipline,
    NoAlloc,
    Directive,
}

impl Rule {
    /// The stable id used in allow comments and the baseline file.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicSurface => "panic_surface",
            Rule::LockDiscipline => "lock_discipline",
            Rule::NoAlloc => "no_alloc",
            Rule::Directive => "directive",
        }
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        Some(match id {
            "determinism" => Rule::Determinism,
            "panic_surface" => Rule::PanicSurface,
            "lock_discipline" => Rule::LockDiscipline,
            "no_alloc" => Rule::NoAlloc,
            "directive" => Rule::Directive,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation, pointing at a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}: {}: {}", self.path, self.line, self.col, self.rule, self.message)
    }
}

/// Lints one file's source text. `rel_path` scopes the path-keyed
/// rules (determinism/index/locks) via the manifests.
pub fn lint_source(
    rel_path: &str,
    src: &str,
    manifest: &Manifest,
    locks: &LockManifest,
) -> Vec<Finding> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let skip = SkipMap::build(toks);
    let fns = fn_spans(toks, &lexed.directives, &skip);
    let mut findings = Vec::new();

    directive_hygiene(rel_path, &lexed.directives, &mut findings);
    if manifest.is_deterministic(rel_path) {
        determinism_rule(rel_path, toks, &skip, &mut findings);
    }
    panic_rule(rel_path, toks, &skip, manifest.is_index_checked(rel_path), &mut findings);
    no_alloc_rule(rel_path, toks, &fns, &mut findings);
    if locks.applies_to(rel_path) {
        lock_rule(rel_path, toks, &fns, locks, &mut findings);
    }

    apply_allows(&lexed.directives, &mut findings);
    findings.sort_by_key(|a| (a.line, a.col, a.rule));
    findings
}

/// Per-token skip/attr classification for one file.
struct SkipMap {
    /// `skip[i]` — token `i` is inside test-gated code.
    skip: Vec<bool>,
    /// `attr[i]` — token `i` is inside a `#[…]` / `#![…]` attribute.
    attr: Vec<bool>,
}

impl SkipMap {
    fn is_code(&self, i: usize) -> bool {
        !self.skip[i] && !self.attr[i]
    }

    /// Marks attribute token ranges and the bodies of test-gated items.
    fn build(toks: &[Tok]) -> SkipMap {
        let n = toks.len();
        let mut skip = vec![false; n];
        let mut attr = vec![false; n];
        let mut i = 0;
        while i < n {
            if skip[i] {
                i += 1;
                continue;
            }
            if toks[i].kind == TokKind::Punct && toks[i].text == "#" {
                let mut j = i + 1;
                let inner = j < n && toks[j].kind == TokKind::Punct && toks[j].text == "!";
                if inner {
                    j += 1;
                }
                if j < n && toks[j].kind == TokKind::Punct && toks[j].text == "[" {
                    let close = match_bracket(toks, j);
                    let is_test = toks[j..=close.min(n - 1)]
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == "test");
                    for slot in attr.iter_mut().take((close + 1).min(n)).skip(i) {
                        *slot = true;
                    }
                    if is_test {
                        if inner {
                            // #![cfg(test)] gates the rest of the file.
                            for slot in skip.iter_mut().take(n).skip(close + 1) {
                                *slot = true;
                            }
                        } else {
                            let end = item_end(toks, close + 1);
                            for slot in skip.iter_mut().take(end.min(n)).skip(close + 1) {
                                *slot = true;
                            }
                        }
                    }
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
        }
        SkipMap { skip, attr }
    }
}

/// Index of the `]`/`)`/`}` matching the opener at `open` (which must
/// be an opening punct). Returns the last index if unterminated.
fn match_bracket(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "[" => ('[', ']'),
        "(" => ('(', ')'),
        "{" => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            let ch = t.text.chars().next();
            if ch == Some(o) {
                depth += 1;
            } else if ch == Some(c) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// End (exclusive) of the item starting at `start`: after the matching
/// `}` of its first top-level `{`, or after the first top-level `;`. A
/// gated struct field or struct-literal entry ends at its top-level `,`
/// (outside `<…>`), or before the `}` that closes its enclosing block.
/// Skips any further attributes between `start` and the item proper.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let n = toks.len();
    let mut i = start;
    // Skip stacked attributes (e.g. `#[cfg(test)] #[allow(…)] mod t`).
    while i < n && toks[i].kind == TokKind::Punct && toks[i].text == "#" {
        let mut j = i + 1;
        if j < n && toks[j].kind == TokKind::Punct && toks[j].text == "!" {
            j += 1;
        }
        if j < n && toks[j].kind == TokKind::Punct && toks[j].text == "[" {
            i = match_bracket(toks, j) + 1;
        } else {
            break;
        }
    }
    let (mut paren, mut angle) = (0isize, 0isize);
    while i < n {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "<" => angle += 1,
                // `->` and `=>` lex as two puncts; their `>` closes nothing.
                ">" if !toks[..i].last().is_some_and(|p| p.text == "-" || p.text == "=") => {
                    angle -= 1
                }
                ";" if paren == 0 => return i + 1,
                "," if paren == 0 && angle == 0 => return i + 1,
                "{" if paren == 0 => return match_bracket(toks, i) + 1,
                "}" if paren == 0 => return i,
                _ => {}
            }
        }
        i += 1;
    }
    n
}

/// One function item: name, body token range, and whether a
/// `// gx-lint: no_alloc` marker precedes it.
struct FnSpan {
    name: String,
    body: std::ops::Range<usize>,
    no_alloc: bool,
    /// Whether the fn sits inside test-gated code (rules skip it).
    skipped: bool,
    /// Line of the `fn` keyword (for marker-orphan diagnostics).
    line: u32,
}

/// Finds every function item (not closures) with its body range.
/// `no_alloc` markers attach to the next `fn` token after them.
fn fn_spans(toks: &[Tok], directives: &[Directive], skip: &SkipMap) -> Vec<FnSpan> {
    let mut marker_lines: Vec<u32> =
        directives.iter().filter(|d| d.kind == DirectiveKind::NoAlloc).map(|d| d.line).collect();
    marker_lines.sort_unstable();
    let mut spans = Vec::new();
    let n = toks.len();
    let mut i = 0;
    while i < n {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" && !skip.attr[i] {
            let fn_line = toks[i].line;
            let name = toks
                .get(i + 1)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            // Body = first `{` at bracket depth 0 after the signature.
            // `;`-terminated declarations (trait methods) have no body.
            let mut depth = 0isize;
            let mut j = i + 1;
            let mut body = None;
            while j < n {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        ";" if depth == 0 => break,
                        "{" if depth == 0 => {
                            body = Some((j, match_bracket(toks, j)));
                            break;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            if let Some((open, close)) = body {
                // A marker claims this fn if it sits on an earlier line
                // than the `fn` keyword and no other fn consumed it.
                let marked = match marker_lines.iter().position(|&m| m < fn_line) {
                    Some(pos) => {
                        marker_lines.remove(pos);
                        true
                    }
                    None => false,
                };
                let skipped = skip.skip[i];
                spans.push(FnSpan {
                    name,
                    body: open + 1..close,
                    no_alloc: marked && !skipped,
                    skipped,
                    line: fn_line,
                });
                // Nested fns (in tests, mostly) still get their own
                // span: continue scanning *inside* the body too.
                i += 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Reports malformed `gx-lint:` comments.
fn directive_hygiene(path: &str, directives: &[Directive], out: &mut Vec<Finding>) {
    for d in directives {
        match &d.kind {
            DirectiveKind::Unknown(body) => out.push(Finding {
                rule: Rule::Directive,
                path: path.to_string(),
                line: d.line,
                col: 1,
                message: format!(
                    "unrecognized gx-lint directive `{body}` — use `allow(rule, …)` or `no_alloc`"
                ),
            }),
            // An allow naming a nonexistent rule would silently
            // suppress nothing forever — flag the typo instead.
            DirectiveKind::Allow(rules) => {
                for r in rules.iter().filter(|r| Rule::from_id(r).is_none()) {
                    out.push(Finding {
                        rule: Rule::Directive,
                        path: path.to_string(),
                        line: d.line,
                        col: 1,
                        message: format!("allow names unknown rule `{r}`"),
                    });
                }
            }
            DirectiveKind::NoAlloc => {}
        }
    }
}

/// Identifiers whose mere mention in a deterministic module is a
/// violation. Banning the *types* (not just iteration) is deliberate:
/// membership-only use needs an `allow` with a written justification.
const NONDETERMINISTIC: &[(&str, &str)] = &[
    ("HashMap", "iteration order is randomized per process"),
    ("HashSet", "iteration order is randomized per process"),
    ("Instant", "wall-clock reads differ across runs"),
    ("SystemTime", "wall-clock reads differ across runs"),
    ("available_parallelism", "host-dependent thread counts change execution shape"),
    ("RandomState", "per-process random hasher seed"),
    ("DefaultHasher", "hasher output is not stable across releases"),
];

fn determinism_rule(path: &str, toks: &[Tok], skip: &SkipMap, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !skip.is_code(i) {
            continue;
        }
        if let Some((name, why)) = NONDETERMINISTIC.iter().find(|(n, _)| *n == t.text) {
            out.push(Finding {
                rule: Rule::Determinism,
                path: path.to_string(),
                line: t.line,
                col: t.col,
                message: format!("`{name}` in a deterministic module: {why}"),
            });
        }
    }
}

/// Macros that abort: `name!` in library code is panic surface. The
/// `debug_assert*` family lexes as distinct identifiers and stays exempt:
/// it vanishes from release builds.
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

fn panic_rule(
    path: &str,
    toks: &[Tok],
    skip: &SkipMap,
    index_checked: bool,
    out: &mut Vec<Finding>,
) {
    let mut push = |rule: Rule, t: &Tok, message: String| {
        out.push(Finding { rule, path: path.to_string(), line: t.line, col: t.col, message });
    };
    for (i, t) in toks.iter().enumerate() {
        if !skip.is_code(i) {
            continue;
        }
        match t.kind {
            TokKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                let after_dot =
                    i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == ".";
                let called =
                    toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
                if after_dot && called {
                    push(
                        Rule::PanicSurface,
                        t,
                        format!(
                            "`.{}()` in library code — return a typed `GxError` (or prove \
                             infallibility without a panicking call)",
                            t.text
                        ),
                    );
                }
            }
            TokKind::Ident if PANIC_MACROS.contains(&t.text.as_str()) => {
                let bang =
                    toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Punct && n.text == "!");
                if bang {
                    push(Rule::PanicSurface, t, format!("`{}!` in library code", t.text));
                }
            }
            TokKind::Punct if index_checked && t.text == "[" => {
                // Indexing expression: `expr[…]` — previous token ends
                // an expression. Type/array-literal/attr positions have
                // non-expression predecessors and are not flagged.
                let is_index = i > 0
                    && match &toks[i - 1] {
                        p if p.kind == TokKind::Ident => !is_keyword_nonexpr(&p.text),
                        p if p.kind == TokKind::Punct => p.text == ")" || p.text == "]",
                        p => p.kind == TokKind::Str,
                    };
                if is_index {
                    push(
                        Rule::PanicSurface,
                        t,
                        "direct indexing in library code — use `.get(…)` and surface a typed \
                         error"
                            .into(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Keywords that may directly precede `[` without forming an indexing
/// expression (`impl [T; N]`-style positions, `mut` bindings, etc.).
fn is_keyword_nonexpr(text: &str) -> bool {
    matches!(
        text,
        "mut"
            | "ref"
            | "in"
            | "as"
            | "dyn"
            | "impl"
            | "where"
            | "return"
            | "break"
            | "const"
            | "let"
            | "else"
            | "match"
            | "if"
    )
}

/// Allocation constructors/macros/methods banned inside `no_alloc` fns.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_string", "to_owned"];

fn no_alloc_rule(path: &str, toks: &[Tok], fns: &[FnSpan], out: &mut Vec<Finding>) {
    for f in fns.iter().filter(|f| f.no_alloc) {
        for i in f.body.clone() {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is =
                |s: &str| toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Punct && n.text == s);
            let prev_is_dot =
                i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == ".";
            let hit = if ALLOC_MACROS.contains(&t.text.as_str()) && next_is("!") {
                Some(format!("`{}!` allocates", t.text))
            } else if ALLOC_TYPES.contains(&t.text.as_str())
                && next_is(":")
                && toks.get(i + 2).is_some_and(|c| c.kind == TokKind::Punct && c.text == ":")
                && toks.get(i + 3).is_some_and(|c| {
                    c.kind == TokKind::Ident && ALLOC_CTORS.contains(&c.text.as_str())
                })
            {
                Some(format!("`{}::{}` allocates", t.text, toks[i + 3].text))
            } else if ALLOC_METHODS.contains(&t.text.as_str()) && prev_is_dot && next_is("(") {
                Some(format!("`.{}()` allocates", t.text))
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(Finding {
                    rule: Rule::NoAlloc,
                    path: path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "{what} inside `{}` (marked `gx-lint: no_alloc` at line {})",
                        f.name, f.line
                    ),
                });
            }
        }
    }
}

/// One lock the lexical checker currently considers held.
struct Held {
    name: String,
    rank: usize,
    /// Brace depth at acquisition (guards die when depth drops below).
    depth: usize,
    /// `let`-bound variable, if any (released early by `drop(var)`).
    var: Option<String>,
    /// Un-bound guard temporaries die at the next `;` at their depth.
    temp: bool,
    line: u32,
}

/// Lexical nested-`.lock()` discipline inside each function body.
///
/// Acquisitions are `recv.lock(` chains and `locked(&recv)` calls (the
/// poison-recovery helper); `wait_unpoisoned(cv, guard)`-style Condvar
/// waits are *not* counted — a wait re-acquires the lock it released.
/// The receiver name is the last identifier of the receiver expression
/// (`self.state.lock()` and `locked(&shared.state)` both name
/// `state`), ranked against the manifest order.
fn lock_rule(
    path: &str,
    toks: &[Tok],
    fns: &[FnSpan],
    locks: &LockManifest,
    out: &mut Vec<Finding>,
) {
    for f in fns.iter().filter(|f| !f.skipped) {
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0usize;
        let mut stmt_start = f.body.start;
        for i in f.body.clone() {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        depth += 1;
                        stmt_start = i + 1;
                    }
                    "}" => {
                        depth = depth.saturating_sub(1);
                        held.retain(|h| h.depth <= depth);
                        stmt_start = i + 1;
                    }
                    ";" => {
                        held.retain(|h| !(h.temp && h.depth == depth));
                        stmt_start = i + 1;
                    }
                    _ => {}
                }
                continue;
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            // drop(guard) releases a named guard early.
            if t.text == "drop" && toks.get(i + 1).is_some_and(|n| n.text == "(") {
                if let Some(v) = toks.get(i + 2).filter(|v| v.kind == TokKind::Ident) {
                    held.retain(|h| h.var.as_deref() != Some(v.text.as_str()));
                }
                continue;
            }
            // Acquisition: `recv.lock(` or the poison-recovery helper
            // `locked(&recv)`.
            let method_call = t.text == "lock"
                && i > 0
                && toks[i - 1].kind == TokKind::Punct
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
            let helper_call = t.text == "locked"
                && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
            let name = if method_call {
                match toks.get(i.wrapping_sub(2)).filter(|p| p.kind == TokKind::Ident) {
                    Some(name_tok) => name_tok.text.clone(),
                    None => continue,
                }
            } else if helper_call {
                // Last identifier of the argument expression names the
                // lock: `locked(&shared.state)` → `state`.
                let close = match_bracket(toks, i + 1);
                match toks[i + 2..close].iter().rev().find(|p| p.kind == TokKind::Ident) {
                    Some(name_tok) => name_tok.text.clone(),
                    None => continue,
                }
            } else {
                continue;
            };
            let Some(rank) = locks.rank(&name) else {
                out.push(Finding {
                    rule: Rule::LockDiscipline,
                    path: path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "lock on undeclared name `{name}` — add it to gx-lint.locks at its \
                         place in the acquisition order"
                    ),
                });
                continue;
            };
            for h in &held {
                let problem = if h.name == name {
                    format!("re-acquires `{name}` already held (line {})", h.line)
                } else if h.rank >= rank {
                    format!(
                        "acquires `{name}` while holding `{}` (line {}) — declared order is {}",
                        h.name,
                        h.line,
                        locks.order.join(" → ")
                    )
                } else {
                    continue;
                };
                out.push(Finding {
                    rule: Rule::LockDiscipline,
                    path: path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: problem,
                });
            }
            // Binding: statement starting `let [mut] v =` holds to
            // block end; anything else is a temporary (dies at `;`).
            let mut s = stmt_start;
            while s < i && toks[s].kind == TokKind::Punct && toks[s].text == "#" {
                // Skip stmt-level attributes.
                if toks.get(s + 1).is_some_and(|n| n.text == "[") {
                    s = match_bracket(toks, s + 1) + 1;
                } else {
                    break;
                }
            }
            let (var, temp) = if toks.get(s).is_some_and(|t| t.text == "let") {
                let mut v = s + 1;
                if toks.get(v).is_some_and(|t| t.text == "mut") {
                    v += 1;
                }
                match toks.get(v) {
                    Some(vt) if vt.kind == TokKind::Ident => (Some(vt.text.clone()), false),
                    _ => (None, false),
                }
            } else {
                (None, true)
            };
            held.push(Held { name, rank, depth, var, temp, line: t.line });
        }
    }
}

/// Drops findings suppressed by an `allow` on their line or the line
/// above.
fn apply_allows(directives: &[Directive], findings: &mut Vec<Finding>) {
    let mut allowed: BTreeMap<u32, BTreeSet<&str>> = BTreeMap::new();
    for d in directives {
        if let DirectiveKind::Allow(rules) = &d.kind {
            let entry = allowed.entry(d.line).or_default();
            for r in rules {
                entry.insert(r.as_str());
            }
        }
    }
    if allowed.is_empty() {
        return;
    }
    findings.retain(|f| {
        let hit = |line: u32| allowed.get(&line).is_some_and(|rules| rules.contains(f.rule.id()));
        !(hit(f.line) || (f.line > 1 && hit(f.line - 1)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{parse_locks, parse_manifest};
    use std::path::Path;

    fn det_manifest() -> Manifest {
        parse_manifest("deterministic det\nindex idx\n", Path::new("m")).expect("manifest")
    }

    fn svc_locks() -> LockManifest {
        parse_locks("scope svc\norder state threads result inner\n", Path::new("l")).expect("locks")
    }

    fn run(path: &str, src: &str) -> Vec<Finding> {
        lint_source(path, src, &det_manifest(), &svc_locks())
    }

    fn rules_of(f: &[Finding]) -> Vec<Rule> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn determinism_only_in_declared_paths() {
        let src = "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_of(&run("det/a.rs", src)), vec![Rule::Determinism, Rule::Determinism]);
        assert!(run("other/a.rs", src).iter().all(|f| f.rule != Rule::Determinism));
    }

    #[test]
    fn test_code_is_skipped_everywhere() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn g() { x.unwrap(); panic!(); }\n}\nfn h() { y.expect(\"m\"); }\n";
        let f = run("det/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::PanicSurface);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn test_attribute_skips_single_fn() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn real() { b.unwrap(); }\n";
        let f = run("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn inner_cfg_test_gates_whole_file() {
        let src = "#![cfg(test)]\nfn t() { a.unwrap(); panic!(); }\n";
        assert!(run("x.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_and_calls() {
        let src =
            "fn f() { panic!(\"x\"); unreachable!(); todo!(); q.unwrap(); r.expect(\"m\"); }\n";
        assert_eq!(run("x.rs", src).len(), 5);
    }

    #[test]
    fn panic_names_without_bang_or_dot_are_clean() {
        // std::panic::catch_unwind and a fn named `expect_value` must
        // not trip the rule; nor `unwrap` without a call.
        let src = "fn f() { std::panic::catch_unwind(g); expect_value(); let unwrap = 1; }\n";
        assert!(run("x.rs", src).is_empty());
    }

    #[test]
    fn asserts_count_but_debug_asserts_do_not() {
        let src = "fn f() { assert!(a); assert_eq!(a, b); assert_ne!(a, b); \
                   debug_assert!(a); debug_assert_eq!(a, b); debug_assert_ne!(a, b); }\n";
        let f = run("x.rs", src);
        let names: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(
            names,
            [
                "`assert!` in library code",
                "`assert_eq!` in library code",
                "`assert_ne!` in library code"
            ]
        );
        assert!(f.iter().all(|x| x.rule == Rule::PanicSurface));
    }

    #[test]
    fn test_gated_field_hides_only_itself() {
        // A gated field or struct-literal entry ends at its comma (or at
        // the closing brace); the code after it is still linted.
        let src = "struct S {\n  a: u8,\n  #[cfg(test)]\n  t: Vec<(u8, u32)>,\n}\n\
                   impl S { fn f() { x.unwrap(); } }\n\
                   fn g() -> S { S { a: 1, #[cfg(test)] t: Vec::new() } }\n\
                   fn h() { y.unwrap(); }\n";
        let lines: Vec<u32> = run("x.rs", src).iter().map(|f| f.line).collect();
        assert_eq!(lines, [6, 8]);
    }

    #[test]
    fn should_panic_attr_is_not_a_finding() {
        let src = "#[should_panic(expected = \"boom\")]\nfn t() {}\nfn f() {}\n";
        // `should_panic` contains no standalone `test` ident… but such
        // attrs appear only on tests in practice; what matters here is
        // that the attr contents are not scanned as code.
        assert!(run("x.rs", src).is_empty());
    }

    #[test]
    fn indexing_only_in_index_paths() {
        let src =
            "fn f(a: &[u32], i: usize) -> u32 { let t: [u8; 4] = [0; 4]; a[i] + t[0] as u32 }\n";
        let f = run("idx/a.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(run("other/a.rs", src).is_empty());
    }

    #[test]
    fn slice_patterns_are_not_indexing() {
        let src = "fn f(a: [u8; 1]) -> u8 { let [b] = a; b }\n";
        assert!(run("idx/a.rs", src).is_empty());
    }

    #[test]
    fn indexing_skips_types_literals_attrs_macros() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 2] }\nfn f() -> Vec<u32> { vec![1, 2] }\nfn g(x: &mut [u8]) {}\n";
        assert!(run("idx/a.rs", src).is_empty());
    }

    #[test]
    fn no_alloc_marker_fires_and_scopes() {
        let src = "\
// gx-lint: no_alloc
fn hot(&mut self) { let v = Vec::new(); let s = format!(\"x\"); let c: Vec<_> = it.collect(); }
fn cold() { let v = Vec::new(); }
";
        let f = run("x.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::NoAlloc; 3], "{f:?}");
        assert!(f.iter().all(|x| x.line == 2));
        assert!(f[0].message.contains("hot"));
    }

    #[test]
    fn no_alloc_with_attrs_between_marker_and_fn() {
        let src = "// gx-lint: no_alloc\n#[inline]\nfn hot() { x.to_vec(); }\n";
        let f = run("x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("to_vec"));
    }

    #[test]
    fn lock_order_violations() {
        let src = "\
fn good(&self) { let a = self.state.lock().unwrap(); let b = self.result.lock().unwrap(); }
fn bad(&self) { let a = self.result.lock().unwrap(); let b = self.state.lock().unwrap(); }
fn recursive(&self) { let a = self.state.lock().unwrap(); let b = self.state.lock().unwrap(); }
fn undeclared(&self) { let a = self.mystery.lock().unwrap(); }
";
        let f: Vec<_> =
            run("svc/a.rs", src).into_iter().filter(|f| f.rule == Rule::LockDiscipline).collect();
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f[0].message.contains("declared order"));
        assert!(f[1].message.contains("re-acquires"));
        assert!(f[2].message.contains("undeclared"));
        assert_eq!((f[0].line, f[1].line, f[2].line), (2, 3, 4));
    }

    #[test]
    fn locked_helper_counts_as_acquisition() {
        let src = "\
fn bad(shared: &S) { let a = locked(&shared.result); let b = locked(&shared.state); }
fn good(shared: &S) { let a = locked(&shared.state); let b = locked(&shared.result); }
";
        let f: Vec<_> =
            run("svc/a.rs", src).into_iter().filter(|f| f.rule == Rule::LockDiscipline).collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn test_fns_exempt_from_lock_rule() {
        let src = "#[cfg(test)]\nmod tests {\n fn t(s: &S) { let a = s.inner.lock().unwrap(); let b = s.state.lock().unwrap(); }\n}\n";
        assert!(run("svc/a.rs", src).iter().all(|f| f.rule != Rule::LockDiscipline));
    }

    #[test]
    fn lock_temporaries_die_at_statement_end() {
        // PR-7 idiom: a guard temporary in one statement, then a
        // different lock in the next statement — no nesting.
        let src = "\
fn f(shared: &S) { shared.state.lock().unwrap().field += 1; shared.threads.lock().unwrap().push(h); }
";
        assert!(run("svc/a.rs", src).iter().all(|f| f.rule != Rule::LockDiscipline));
    }

    #[test]
    fn lock_guard_dies_at_block_end_and_drop() {
        let src = "\
fn scoped(&self) { { let st = self.result.lock().unwrap(); } let a = self.state.lock().unwrap(); }
fn dropped(&self) { let st = self.result.lock().unwrap(); drop(st); let a = self.state.lock().unwrap(); }
fn held(&self) { let st = self.result.lock().unwrap(); let a = self.state.lock().unwrap(); }
";
        let f: Vec<_> =
            run("svc/a.rs", src).into_iter().filter(|f| f.rule == Rule::LockDiscipline).collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let src = "\
fn f() {
    a.unwrap(); // gx-lint: allow(panic_surface) -- justified
    // gx-lint: allow(panic_surface) -- also justified
    b.unwrap();
    c.unwrap();
}
";
        let f = run("x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn allow_is_rule_specific() {
        let src = "fn f() { a.unwrap(); } // gx-lint: allow(determinism) -- wrong rule\n";
        assert_eq!(run("x.rs", src).len(), 1);
    }

    #[test]
    fn unknown_directive_is_a_finding() {
        let f = run("x.rs", "// gx-lint: alow(panic_surface)\nfn f() {}\n");
        assert_eq!(rules_of(&f), vec![Rule::Directive]);
    }

    #[test]
    fn allow_of_unknown_rule_is_a_finding() {
        let f = run("x.rs", "// gx-lint: allow(panic_surfase) -- typo\nfn f() {}\n");
        assert_eq!(rules_of(&f), vec![Rule::Directive]);
        assert!(f[0].message.contains("panic_surfase"), "{f:?}");
    }

    #[test]
    fn cfg_any_test_is_skipped() {
        let src = "#[cfg(any(test, doctest))]\nmod helpers { fn f() { x.unwrap(); } }\nfn g() { y.unwrap(); }\n";
        let f = run("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }
}
