//! The lint rules.
//!
//! Every rule pattern-matches on the token stream from [`crate::lexer`];
//! none of them parse Rust properly, which keeps `xtask` dependency-free
//! and fast. Where a lexical heuristic can misfire, the rule is scoped
//! narrowly and the `// lint:allow(<rule>) <reason>` escape hatch (with a
//! mandatory reason) covers the remainder.

use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// Rule names, in reporting order.
pub const RULE_NO_PANIC: &str = "no-panic-in-lib";
/// Unit-suffix discipline rule name.
pub const RULE_UNIT_SUFFIX: &str = "unit-suffix";
/// Float equality rule name.
pub const RULE_NO_FLOAT_EQ: &str = "no-float-eq";
/// `#![forbid(unsafe_code)]` rule name.
pub const RULE_DENY_UNSAFE: &str = "deny-unsafe";
/// `#[must_use]` / discarded-Result rule name.
pub const RULE_MUST_USE: &str = "must-use-results";
/// Lock acquisition in designated compute hot paths rule name.
pub const RULE_NO_LOCK: &str = "no-lock-in-hotpath";
/// RNG seed-discipline rule name (task closures and ambient entropy).
pub const RULE_RNG_DISCIPLINE: &str = "rng-discipline";
/// HashMap/HashSet iteration on digest/trace-feeding paths rule name.
pub const RULE_NO_HASH_ITER: &str = "no-nondeterministic-iteration";
/// Wall-clock reads outside the allowlisted timing set rule name.
pub const RULE_NO_WALLCLOCK: &str = "no-wallclock-in-deterministic";
/// Lock-acquisition-order cycle rule name.
pub const RULE_LOCK_ORDER: &str = "lock-order-cycles";
/// Repro-manifest coverage rule name (EXPERIMENTS.md tags vs manifest).
pub const RULE_REPRO_COVERAGE: &str = "repro-manifest-coverage";
/// Pseudo-rule for malformed `lint:allow` directives (not suppressible).
pub const RULE_LINT_ALLOW: &str = "lint-allow";

/// All suppressible rule names.
pub const ALL_RULES: &[&str] = &[
    RULE_NO_PANIC,
    RULE_UNIT_SUFFIX,
    RULE_NO_FLOAT_EQ,
    RULE_DENY_UNSAFE,
    RULE_MUST_USE,
    RULE_NO_LOCK,
    RULE_RNG_DISCIPLINE,
    RULE_NO_HASH_ITER,
    RULE_NO_WALLCLOCK,
    RULE_LOCK_ORDER,
    RULE_REPRO_COVERAGE,
];

/// Self-description of one lint rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Rule identifier as used in findings and `lint:allow`.
    pub name: &'static str,
    /// One-line invariant statement.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// Metadata for every rule, in reporting order (the `lint-allow`
/// directive-hygiene pseudo-rule included, marked unsuppressible).
pub const RULE_METAS: &[RuleMeta] = &[
    RuleMeta {
        name: RULE_NO_PANIC,
        summary: "no unwrap()/expect(/panic!/todo!/unimplemented!/unreachable! in library \
                  code; no slice indexing in designated hot-path files",
        scope: "library code (hot-path indexing per config)",
    },
    RuleMeta {
        name: RULE_UNIT_SUFFIX,
        summary: "physical quantities carry unit suffixes (_hz, _db, _m_s, ...); +/- and \
                  comparisons never mix two different suffixes",
        scope: "library and binary code",
    },
    RuleMeta {
        name: RULE_NO_FLOAT_EQ,
        summary: "no ==/!= against float literals or between unit-suffixed floats; compare \
                  against a tolerance",
        scope: "library code",
    },
    RuleMeta {
        name: RULE_DENY_UNSAFE,
        summary: "every library crate root carries #![forbid(unsafe_code)]",
        scope: "crate roots",
    },
    RuleMeta {
        name: RULE_MUST_USE,
        summary: "pub Result-returning fns are #[must_use]; no statement discards a call \
                  whose name resolves (workspace-wide, re-exports included, ambiguous \
                  names skipped) to a Result-returning fn",
        scope: "library code, workspace-resolved call sites",
    },
    RuleMeta {
        name: RULE_NO_LOCK,
        summary: "no mutex .lock() in designated compute hot-path files without a \
                  reasoned lint:allow",
        scope: "lock hot-path files per config",
    },
    RuleMeta {
        name: RULE_RNG_DISCIPLINE,
        summary: "code inside a par_map/spawn task closure derives its RNG seed via \
                  exec::seed::derive; no captured RNG crossing the task boundary, no \
                  ambient entropy (thread_rng/from_entropy) anywhere",
        scope: "all first-party code, test trees included",
    },
    RuleMeta {
        name: RULE_NO_HASH_ITER,
        summary: "no HashMap/HashSet iteration inside a function from which a digest, \
                  trace, checkpoint, or export sink is reachable; use BTreeMap or sort \
                  the collected entries",
        scope: "library and test code, workspace call graph",
    },
    RuleMeta {
        name: RULE_NO_WALLCLOCK,
        summary: "no Instant::now()/SystemTime::now() outside the allowlisted bench/obs \
                  timing set; deterministic code uses the slot clock",
        scope: "library and test code, allowlist per config",
    },
    RuleMeta {
        name: RULE_LOCK_ORDER,
        summary: "the workspace lock-acquisition graph (direct and call-mediated) is \
                  cycle-free; a cycle means two paths can deadlock",
        scope: "workspace-wide",
    },
    RuleMeta {
        name: RULE_REPRO_COVERAGE,
        summary: "every tagged EXPERIMENTS.md section and every committed BENCH_*.json has \
                  a row in the repro manifest (crates/repro/src/manifest.rs) — a new \
                  figure cannot land ungated",
        scope: "workspace-wide (skipped when EXPERIMENTS.md is absent)",
    },
    RuleMeta {
        name: RULE_LINT_ALLOW,
        summary: "lint:allow directives name a known rule and carry a written reason \
                  (not suppressible)",
        scope: "everywhere",
    },
];

/// Unit suffixes recognised by the unit-suffix rule. Longest match wins
/// when classifying an identifier; `_mps` is canonicalised to `_m_s`.
pub const UNIT_SUFFIXES: &[&str] = &[
    "_m_s2", "_m_s", "_mps", "_hz", "_khz", "_mhz", "_ghz", "_db", "_dbm", "_dbi", "_mm", "_cm",
    "_km", "_um", "_nm", "_m", "_ns", "_us", "_ms", "_s", "_min", "_pa", "_kpa", "_mpa", "_gpa",
    "_celsius", "_c", "_pct", "_frac", "_ratio", "_mv", "_kv", "_v", "_ma", "_ua", "_a", "_mw",
    "_uw", "_kw", "_w", "_mj", "_uj", "_j", "_rad", "_deg", "_kg", "_g", "_bps", "_sps", "_ppm",
    "_ohm", "_pf", "_nf", "_uf", "_bits", "_bytes", "_samples", "_cycles", "_epochs",
];

/// Identifier words that denote a physical quantity and therefore demand
/// a unit suffix on the identifier. Matched against whole `_`-separated
/// words, so `distortion` does not trip the `dist` stem.
pub const QUANTITY_STEMS: &[&str] = &[
    "freq",
    "frequency",
    "dist",
    "distance",
    "wavelength",
    "velocity",
    "speed",
    "duration",
    "delay",
    "latency",
    "period",
    "temperature",
    "pressure",
    "voltage",
    "thickness",
];

/// The unit suffix of an identifier, canonicalised (`_mps` → `_m_s`),
/// or `None` if it carries none.
pub fn unit_suffix(ident: &str) -> Option<&'static str> {
    for suf in UNIT_SUFFIXES {
        if ident.ends_with(suf) {
            if *suf == "_mps" {
                return Some("_m_s");
            }
            return Some(suf);
        }
    }
    None
}

/// True when the identifier names a physical quantity (by stem) without
/// any recognised unit suffix.
pub fn needs_unit_suffix(ident: &str) -> bool {
    if unit_suffix(ident).is_some() {
        return false;
    }
    ident
        .split('_')
        .any(|word| QUANTITY_STEMS.iter().any(|s| word == *s))
}

fn push(findings: &mut Vec<Finding>, rule: &'static str, line: u32, msg: String) {
    findings.push(Finding {
        file: String::new(),
        line,
        rule,
        msg,
    });
}

/// Rule 1: no `unwrap()`, `expect(…)`, `panic!`, `todo!`, `unimplemented!`,
/// `unreachable!` in library code; no slice indexing in designated
/// hot-path files (where a panicking bounds check is both a correctness
/// and a performance hazard — use iterators, `split_at`, or `get`).
pub fn no_panic_in_lib(tokens: &[Tok], is_hot_path: bool, findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            // Hot-path indexing: `[` directly after an ident, `)`, or `]`.
            if is_hot_path && t.is_op("[") {
                let indexes_a_value = tokens.get(i.wrapping_sub(1)).map(|p| {
                    p.kind == TokKind::Ident && !is_keyword(&p.text) || p.is_op(")") || p.is_op("]")
                });
                if i > 0 && indexes_a_value == Some(true) {
                    push(
                        findings,
                        RULE_NO_PANIC,
                        t.line,
                        "slice indexing in a hot path can panic and bounds-check; use \
                         iterators, split_at, chunks, or get"
                            .to_string(),
                    );
                }
            }
            continue;
        }
        let next = tokens.get(i + 1);
        let calls = next.map(|n| n.is_op("(")).unwrap_or(false);
        let bangs = next.map(|n| n.is_op("!")).unwrap_or(false);
        match t.text.as_str() {
            "unwrap" if calls => push(
                findings,
                RULE_NO_PANIC,
                t.line,
                "unwrap() in library code; return a typed EcoError instead".to_string(),
            ),
            "expect" if calls => push(
                findings,
                RULE_NO_PANIC,
                t.line,
                "expect() in library code; return a typed EcoError instead".to_string(),
            ),
            "panic" | "todo" | "unimplemented" | "unreachable" if bangs => push(
                findings,
                RULE_NO_PANIC,
                t.line,
                format!(
                    "{}! in library code; return a typed EcoError instead",
                    t.text
                ),
            ),
            _ => {}
        }
    }
}

/// Rule 6: no `.lock()` acquisition in designated compute hot-path
/// files. Sweep workers hammer these routines concurrently, and a mutex
/// acquired around (or worse, across) the math serialises the whole
/// pool. Locks that only guard an O(1) probe — a plan-cache lookup, a
/// queue push — are fine, but must say so with a reasoned
/// `lint:allow(no-lock-in-hotpath)` directive so the contention budget
/// stays auditable.
pub fn no_lock_in_hotpath(tokens: &[Tok], is_lock_hot: bool, findings: &mut Vec<Finding>) {
    if !is_lock_hot {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        let is_method_call = t.kind == TokKind::Ident
            && t.text == "lock"
            && i > 0
            && tokens.get(i - 1).map(|p| p.is_op(".")).unwrap_or(false)
            && tokens.get(i + 1).map(|n| n.is_op("(")).unwrap_or(false);
        if is_method_call {
            push(
                findings,
                RULE_NO_LOCK,
                t.line,
                "mutex .lock() in a compute hot path can serialise the worker pool; \
                 keep critical sections O(1) and justify with lint:allow"
                    .to_string(),
            );
        }
    }
}

pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "use"
            | "where"
            | "while"
    )
}

/// True for identifiers that conventionally name an RNG value.
fn is_rng_ident(name: &str) -> bool {
    name == "rng" || name.ends_with("_rng") || name.starts_with("rng_")
}

/// Rule 7: RNG discipline across task boundaries.
///
/// A parallel survey is only reproducible when every pool task draws
/// from its own stream seeded via `exec::seed::derive` — one shared RNG
/// crossing a `par_map`/`spawn` closure makes the draw order depend on
/// scheduling. Three violations, in the order a reviewer meets them:
///
/// 1. an RNG-named identifier used inside a task closure without being
///    bound inside it (`let [mut] <name> = …` or a closure parameter) —
///    captured shared state crossing the task boundary;
/// 2. `seed_from_u64(…)` inside a task closure whose argument mentions
///    neither `derive`/`derive2` nor a `seed`-named value — a constant
///    or index-derived seed that `exec::seed::derive` exists to replace;
/// 3. `thread_rng()`/`from_entropy()` anywhere — ambient entropy that no
///    seed can reproduce.
///
/// `regions` is the file's task-closure token ranges from pass 1
/// ([`crate::workspace::FileFacts::task_regions`]).
pub fn rng_discipline(tokens: &[Tok], regions: &[(usize, usize)], findings: &mut Vec<Finding>) {
    for &(start, end) in regions {
        // Closure parameters sit between the opening `|` and its mate;
        // they are bindings, not captures.
        let mut params_end = start;
        if tokens.get(start).map(|t| t.is_op("|")).unwrap_or(false) {
            let mut j = start + 1;
            while j <= end {
                if tokens.get(j).map(|t| t.is_op("|")).unwrap_or(false) {
                    params_end = j;
                    break;
                }
                j += 1;
            }
        }
        for i in start..=end {
            let Some(t) = tokens.get(i) else { break };
            if t.kind != TokKind::Ident {
                continue;
            }
            if is_rng_ident(&t.text) && i > params_end {
                // A binding is a closure param or `let [mut] name` — NOT
                // `&mut name` at a call site, whose `mut` is a borrow.
                let is_binding = |j: usize| {
                    if j <= params_end {
                        return true;
                    }
                    let prev = |n: usize| tokens.get(j.wrapping_sub(n));
                    prev(1).map(|p| p.is_ident("let")).unwrap_or(false)
                        || (prev(1).map(|p| p.is_ident("mut")).unwrap_or(false)
                            && prev(2).map(|p| p.is_ident("let")).unwrap_or(false))
                };
                let bound_inside = (start..=i).any(|j| {
                    let Some(b) = tokens.get(j) else { return false };
                    b.kind == TokKind::Ident && b.text == t.text && is_binding(j)
                });
                if !bound_inside {
                    push(
                        findings,
                        RULE_RNG_DISCIPLINE,
                        t.line,
                        format!(
                            "`{}` is captured by a task closure; a shared RNG crossing \
                             the task boundary makes draws scheduling-dependent — bind a \
                             task-local RNG seeded via exec::seed::derive",
                            t.text
                        ),
                    );
                }
            }
            if t.text == "seed_from_u64" && tokens.get(i + 1).map(|n| n.is_op("(")).unwrap_or(false)
            {
                let mut depth = 0i32;
                let mut j = i + 1;
                let mut disciplined = false;
                while let Some(tk) = tokens.get(j) {
                    if tk.is_op("(") {
                        depth += 1;
                    } else if tk.is_op(")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if tk.kind == TokKind::Ident
                        && (tk.text == "derive" || tk.text == "derive2" || tk.text.contains("seed"))
                    {
                        disciplined = true;
                    }
                    j += 1;
                }
                if !disciplined {
                    push(
                        findings,
                        RULE_RNG_DISCIPLINE,
                        t.line,
                        "task-local RNG seeded without exec::seed::derive; a constant or \
                         raw-index seed correlates task streams — derive the seed from \
                         (base, task index)"
                            .to_string(),
                    );
                }
            }
        }
    }
    // Ambient entropy is a violation anywhere, tasks or not.
    for (i, t) in tokens.iter().enumerate() {
        let calls = tokens.get(i + 1).map(|n| n.is_op("(")).unwrap_or(false);
        if calls && (t.is_ident("thread_rng") || t.is_ident("from_entropy")) {
            push(
                findings,
                RULE_RNG_DISCIPLINE,
                t.line,
                format!(
                    "{}() draws ambient entropy that no seed reproduces; thread a seeded \
                     StdRng through instead",
                    t.text
                ),
            );
        }
    }
}

/// Iterator-yielding methods whose order on a hash collection is
/// unspecified.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Rule 8: no HashMap/HashSet iteration on a digest/trace-feeding path.
///
/// `is_hash_use` says whether an identifier at a token index refers to
/// a hash-typed binding visible there, and `reaches_sink` whether a
/// digest/trace/export sink is reachable from a given enclosing
/// function (both from pass 1). An iteration is excused when the same
/// or next statement sorts what it produced (`…collect(); v.sort…;`),
/// matching the "BTreeMap or an explicit sort" contract.
pub fn no_nondeterministic_iteration(
    tokens: &[Tok],
    is_hash_use: &dyn Fn(&str, usize) -> bool,
    enclosing_fn: &dyn Fn(usize) -> Option<String>,
    reaches_sink: &dyn Fn(&str) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || !is_hash_use(&t.text, i) {
            continue;
        }
        // `map.iter()`-family method call, or a bare `for … in [&[mut]] map`.
        let dotted = tokens.get(i + 1).map(|n| n.is_op(".")).unwrap_or(false)
            && tokens
                .get(i + 2)
                .map(|m| {
                    m.kind == TokKind::Ident
                        && HASH_ITER_METHODS.contains(&m.text.as_str())
                        && tokens.get(i + 3).map(|p| p.is_op("(")).unwrap_or(false)
                })
                .unwrap_or(false);
        let for_in = (1..=2).any(|back| {
            i >= back
                && tokens
                    .get(i - back)
                    .map(|p| p.is_ident("in"))
                    .unwrap_or(false)
                && (back == 1
                    || tokens
                        .get(i - 1)
                        .map(|p| p.is_op("&") || p.is_ident("mut"))
                        .unwrap_or(false))
        });
        if !dotted && !for_in {
            continue;
        }
        let Some(caller) = enclosing_fn(i) else {
            continue;
        };
        if !reaches_sink(&caller) {
            continue;
        }
        // Excuse: the produced sequence is sorted within this statement
        // or the next one.
        let mut semis = 0;
        let mut sorted = false;
        let mut j = i + 1;
        while let Some(tk) = tokens.get(j) {
            if tk.is_op(";") {
                semis += 1;
                if semis == 2 {
                    break;
                }
            } else if tk.kind == TokKind::Ident && tk.text.starts_with("sort") {
                sorted = true;
                break;
            }
            j += 1;
        }
        if sorted {
            continue;
        }
        push(
            findings,
            RULE_NO_HASH_ITER,
            t.line,
            format!(
                "iteration over hash collection `{}` inside `{}`, which feeds a \
                 digest/trace/export sink; hash order is unspecified — use a BTreeMap \
                 or sort the collected entries",
                t.text, caller
            ),
        );
    }
}

/// Rule 9: no wall-clock reads in deterministic code.
///
/// Every guarantee in the repo — bit-identical traces, seed-paired
/// benches, resume digests — is stated over the slot clock.
/// `Instant::now()`/`SystemTime::now()` only belong in the allowlisted
/// timing set (bench harnesses measuring wall time); `allowed` is
/// decided per file from [`crate::LintConfig::wallclock_allowed`].
pub fn no_wallclock(tokens: &[Tok], allowed: bool, findings: &mut Vec<Finding>) {
    if allowed {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        let clock_type = t.is_ident("Instant") || t.is_ident("SystemTime");
        if !clock_type {
            continue;
        }
        let is_now_call = tokens.get(i + 1).map(|n| n.is_op("::")).unwrap_or(false)
            && tokens
                .get(i + 2)
                .map(|m| m.is_ident("now"))
                .unwrap_or(false)
            && tokens.get(i + 3).map(|p| p.is_op("(")).unwrap_or(false);
        if is_now_call {
            push(
                findings,
                RULE_NO_WALLCLOCK,
                t.line,
                format!(
                    "{}::now() in deterministic code; timestamps must come from the \
                     slot clock (obs::SlotClock) — wall time is allowlisted only for \
                     bench harnesses",
                    t.text
                ),
            );
        }
    }
}

/// Rule 2a: declared names (let-bindings, fn params, struct fields) that
/// denote physical quantities must carry a unit suffix.
/// Rule 2b: additive/comparison arithmetic between identifiers carrying
/// *different* unit suffixes is flagged (`x_hz + y_khz`).
pub fn unit_suffix_discipline(tokens: &[Tok], findings: &mut Vec<Finding>) {
    // 2a: declaration sites.
    let mut i = 0usize;
    while let Some(t) = tokens.get(i) {
        if t.is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).map(|n| n.is_ident("mut")).unwrap_or(false) {
                j += 1;
            }
            if let Some(name) = tokens.get(j).filter(|n| n.kind == TokKind::Ident) {
                check_declared_name(name, "binding", findings);
            }
        } else if t.is_ident("fn") {
            if let Some(close) = check_fn_params(tokens, i, findings) {
                i = close;
                continue;
            }
        } else if t.is_ident("struct") {
            if let Some(close) = check_struct_fields(tokens, i, findings) {
                i = close;
                continue;
            }
        }
        i += 1;
    }
    // 2b: mismatched-unit arithmetic.
    for (k, op) in tokens.iter().enumerate() {
        let mixing = matches!(
            op.text.as_str(),
            "+" | "-" | "+=" | "-=" | "==" | "!=" | "<" | "<=" | ">" | ">="
        );
        if op.kind != TokKind::Op || !mixing || k == 0 {
            continue;
        }
        let (prev, next) = (tokens.get(k - 1), tokens.get(k + 1));
        let lhs = prev
            .filter(|p| p.kind == TokKind::Ident)
            .and_then(|p| unit_suffix(&p.text));
        let rhs = next
            .filter(|n| n.kind == TokKind::Ident)
            .and_then(|n| unit_suffix(&n.text));
        if let (Some(a), Some(b)) = (lhs, rhs) {
            if a != b {
                push(
                    findings,
                    RULE_UNIT_SUFFIX,
                    op.line,
                    format!(
                        "arithmetic mixes units: `{}` ({a}) {} `{}` ({b})",
                        prev.map(|p| p.text.as_str()).unwrap_or("?"),
                        op.text,
                        next.map(|n| n.text.as_str()).unwrap_or("?"),
                    ),
                );
            }
        }
    }
}

fn check_declared_name(name: &Tok, what: &str, findings: &mut Vec<Finding>) {
    if needs_unit_suffix(&name.text) {
        push(
            findings,
            RULE_UNIT_SUFFIX,
            name.line,
            format!(
                "{what} `{}` holds a physical quantity but has no unit suffix \
                 (expected one of e.g. _hz, _khz, _db, _m_s, _pa, _celsius, _pct)",
                name.text
            ),
        );
    }
}

/// Check `fn name(params…)`: params are idents directly followed by `:`
/// at parenthesis depth 1. Returns the index just past the closing `)`.
fn check_fn_params(tokens: &[Tok], fn_idx: usize, findings: &mut Vec<Finding>) -> Option<usize> {
    let mut j = fn_idx + 1;
    // Skip the fn name and any generic parameter list.
    while let Some(t) = tokens.get(j) {
        if t.is_op("(") {
            break;
        }
        if t.is_op("{") || t.is_op(";") {
            return None;
        }
        j += 1;
    }
    let open = j;
    let mut depth = 0i32;
    let mut k = open;
    while let Some(t) = tokens.get(k) {
        if t.is_op("(") {
            depth += 1;
        } else if t.is_op(")") {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        } else if depth == 1
            && t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && tokens.get(k + 1).map(|n| n.is_op(":")).unwrap_or(false)
        {
            check_declared_name(t, "parameter", findings);
        }
        k += 1;
    }
    None
}

/// Check `struct Name { field: Ty, … }` bodies. Returns the index just
/// past the closing `}`.
fn check_struct_fields(
    tokens: &[Tok],
    struct_idx: usize,
    findings: &mut Vec<Finding>,
) -> Option<usize> {
    let mut j = struct_idx + 1;
    while let Some(t) = tokens.get(j) {
        if t.is_op("{") {
            break;
        }
        // Tuple structs / unit structs have no named fields.
        if t.is_op("(") || t.is_op(";") {
            return None;
        }
        j += 1;
    }
    let open = j;
    let mut depth = 0i32;
    let mut k = open;
    while let Some(t) = tokens.get(k) {
        if t.is_op("{") {
            depth += 1;
        } else if t.is_op("}") {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        } else if depth == 1
            && t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && tokens.get(k + 1).map(|n| n.is_op(":")).unwrap_or(false)
            && !tokens
                .get(k.wrapping_sub(1))
                .map(|p| p.is_op(":") || p.is_op("::") || p.is_op("<"))
                .unwrap_or(false)
        {
            check_declared_name(t, "field", findings);
        }
        k += 1;
    }
    None
}

/// Rule 3: `==`/`!=` with a float-literal operand, or between two
/// unit-suffixed identifiers (physical quantities are floats here), is
/// almost always a bug — compare against a tolerance instead.
pub fn no_float_eq(tokens: &[Tok], findings: &mut Vec<Finding>) {
    for (k, op) in tokens.iter().enumerate() {
        if op.kind != TokKind::Op || (op.text != "==" && op.text != "!=") || k == 0 {
            continue;
        }
        let (prev, next) = (tokens.get(k - 1), tokens.get(k + 1));
        let lit = |t: Option<&Tok>| t.map(|x| x.kind == TokKind::FloatLit).unwrap_or(false);
        let suffixed = |t: Option<&Tok>| {
            t.map(|x| x.kind == TokKind::Ident && unit_suffix(&x.text).is_some())
                .unwrap_or(false)
        };
        if lit(prev) || lit(next) || (suffixed(prev) && suffixed(next)) {
            push(
                findings,
                RULE_NO_FLOAT_EQ,
                op.line,
                format!(
                    "floating-point `{}` comparison; use (a - b).abs() < tol",
                    op.text
                ),
            );
        }
    }
}

/// Rule 4: a library crate root must carry `#![forbid(unsafe_code)]`.
pub fn deny_unsafe(tokens: &[Tok], findings: &mut Vec<Finding>) {
    let has = tokens.windows(8).any(|w| {
        w[0].is_op("#")
            && w[1].is_op("!")
            && w[2].is_op("[")
            && w[3].is_ident("forbid")
            && w[4].is_op("(")
            && w[5].is_ident("unsafe_code")
            && w[6].is_op(")")
            && w[7].is_op("]")
    });
    if !has {
        push(
            findings,
            RULE_DENY_UNSAFE,
            1,
            "library crate root is missing #![forbid(unsafe_code)]".to_string(),
        );
    }
}

/// Scan one file for `fn name(…) -> Result<…>` definitions, returning
/// `(name, line, is_pub, has_must_use)` for each.
pub fn result_fns(tokens: &[Tok]) -> Vec<(String, u32, bool, bool)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        // Find the parameter list and its matching close.
        let mut j = i + 2;
        let mut angle = 0i32;
        while let Some(tk) = tokens.get(j) {
            match tk.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "(" if angle <= 0 => break,
                "{" | ";" => return out,
                _ => {}
            }
            j += 1;
        }
        let mut depth = 0i32;
        while let Some(tk) = tokens.get(j) {
            if tk.is_op("(") {
                depth += 1;
            } else if tk.is_op(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        // Does the return type mention Result?
        let mut returns_result = false;
        if tokens.get(j + 1).map(|n| n.is_op("->")).unwrap_or(false) {
            let mut k = j + 2;
            while let Some(tk) = tokens.get(k) {
                if tk.is_op("{") || tk.is_op(";") || tk.is_ident("where") {
                    break;
                }
                if tk.is_ident("Result") || tk.is_ident("EcoResult") {
                    returns_result = true;
                }
                k += 1;
            }
        }
        if !returns_result {
            continue;
        }
        // Walk backwards over modifiers and attributes.
        let mut is_pub = false;
        let mut has_must_use = false;
        let mut b = i;
        while b > 0 {
            b -= 1;
            let Some(tk) = tokens.get(b) else { break };
            match tk.text.as_str() {
                "pub" => is_pub = true,
                "crate" | "super" | "in" | "const" | "async" | "extern" => {}
                "(" | ")" | "::" => {}
                "]" => {
                    // Scan back to the matching `[` collecting attr idents.
                    let mut d = 1i32;
                    let mut a = b;
                    while a > 0 && d > 0 {
                        a -= 1;
                        if let Some(at) = tokens.get(a) {
                            if at.is_op("]") {
                                d += 1;
                            } else if at.is_op("[") {
                                d -= 1;
                            } else if at.is_ident("must_use") {
                                has_must_use = true;
                            }
                        }
                    }
                    b = a;
                }
                _ => {
                    if tk.kind == TokKind::StrLit {
                        continue;
                    }
                    break;
                }
            }
        }
        out.push((name.text.clone(), name.line, is_pub, has_must_use));
    }
    out
}

/// Rule 5 (definitions): public library fns returning `Result` must be
/// `#[must_use]`.
pub fn must_use_definitions(tokens: &[Tok], findings: &mut Vec<Finding>) {
    for (name, line, is_pub, has_must_use) in result_fns(tokens) {
        if is_pub && !has_must_use {
            push(
                findings,
                RULE_MUST_USE,
                line,
                format!("pub fn `{name}` returns Result but is not #[must_use]"),
            );
        }
    }
}

/// Rule 5 (call sites): a statement that calls a known Result-returning
/// fn and throws the value away (`foo(…);` or `let _ = foo(…);`).
pub fn must_use_call_sites(
    tokens: &[Tok],
    known_result_fns: &dyn Fn(&str) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || !known_result_fns(&t.text) {
            continue;
        }
        if !tokens.get(i + 1).map(|n| n.is_op("(")).unwrap_or(false) {
            continue;
        }
        // Skip definitions: `fn name(`.
        if i > 0 && tokens.get(i - 1).map(|p| p.is_ident("fn")).unwrap_or(false) {
            continue;
        }
        // Find the matching close paren.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut close = None;
        while let Some(tk) = tokens.get(j) {
            if tk.is_op("(") {
                depth += 1;
            } else if tk.is_op(")") {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            j += 1;
        }
        let Some(close) = close else { continue };
        if !tokens.get(close + 1).map(|n| n.is_op(";")).unwrap_or(false) {
            continue;
        }
        // Walk back over the receiver chain to the statement boundary.
        let mut b = i;
        while b > 0 {
            let Some(prev) = tokens.get(b - 1) else { break };
            let chainy = prev.is_op(".")
                || prev.is_op("::")
                || prev.is_op("?")
                || prev.is_op(")")
                || prev.is_op("]")
                || (prev.kind == TokKind::Ident && !is_keyword(&prev.text));
            if chainy {
                b -= 1;
            } else {
                break;
            }
        }
        let boundary = if b == 0 { None } else { tokens.get(b - 1) };
        let at_statement_start = boundary
            .map(|tk| tk.is_op(";") || tk.is_op("{") || tk.is_op("}"))
            .unwrap_or(true);
        let let_underscore = b >= 2
            && tokens.get(b - 1).map(|tk| tk.is_op("=")).unwrap_or(false)
            && tokens
                .get(b - 2)
                .map(|tk| tk.is_ident("_"))
                .unwrap_or(false);
        if at_statement_start || let_underscore {
            push(
                findings,
                RULE_MUST_USE,
                t.line,
                format!(
                    "Result of `{}` is discarded; handle it, propagate with `?`, \
                     or map the error explicitly",
                    t.text
                ),
            );
        }
    }
}

/// Extracts `` (`tag`) `` markers from `#` heading lines of a markdown
/// document, with the 1-based line each tag sits on. Mirrors
/// `repro::manifest::tags_in_markdown` — duplicated here so the linter
/// stays dependency-free.
fn markdown_heading_tags(md: &str) -> Vec<(String, u32)> {
    let mut tags = Vec::new();
    for (idx, line) in md.lines().enumerate() {
        if !line.starts_with('#') {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("(`") {
            let tail = &rest[open + 2..];
            let Some(close) = tail.find("`)") else { break };
            let tag = &tail[..close];
            if !tag.is_empty() && tag.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                tags.push((tag.to_string(), idx as u32 + 1));
            }
            rest = &tail[close + 2..];
        }
    }
    tags
}

/// repro-manifest-coverage: every tagged EXPERIMENTS.md section and
/// every committed `BENCH_*.json` at the workspace root must appear as
/// a string literal in the repro manifest source — a purely textual
/// gate (the manifest's structural validity is covered by
/// `crates/repro/tests/repro_manifest.rs`). Skipped entirely when the
/// tree has no EXPERIMENTS.md (lint fixture corpora).
pub fn repro_manifest_coverage(root: &std::path::Path, findings: &mut Vec<Finding>) {
    const MANIFEST_REL: &str = "crates/repro/src/manifest.rs";
    let Ok(md) = std::fs::read_to_string(root.join("EXPERIMENTS.md")) else {
        return;
    };
    let tags = markdown_heading_tags(&md);
    let manifest_src = std::fs::read_to_string(root.join(MANIFEST_REL)).unwrap_or_default();
    if manifest_src.is_empty() {
        findings.push(Finding {
            file: "EXPERIMENTS.md".to_string(),
            line: 1,
            rule: RULE_REPRO_COVERAGE,
            msg: format!(
                "EXPERIMENTS.md carries experiment tags but `{MANIFEST_REL}` is missing \
                 or empty — the repro harness cannot gate these experiments"
            ),
        });
        return;
    }
    for (tag, line) in &tags {
        if !manifest_src.contains(&format!("\"{tag}\"")) {
            findings.push(Finding {
                file: "EXPERIMENTS.md".to_string(),
                line: *line,
                rule: RULE_REPRO_COVERAGE,
                msg: format!(
                    "experiment tag `{tag}` has no row in the repro manifest \
                     (`{MANIFEST_REL}`); add one so `cargo xtask repro` gates it"
                ),
            });
        }
    }
    // Every committed bench gate file needs its `bench_<stem>` row too.
    let mut bench_files: Vec<String> = std::fs::read_dir(root)
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    bench_files.sort();
    for file in bench_files {
        let stem = file.trim_start_matches("BENCH_").trim_end_matches(".json");
        let tag = format!("bench_{stem}");
        if !manifest_src.contains(&format!("\"{tag}\"")) {
            findings.push(Finding {
                file: MANIFEST_REL.to_string(),
                line: 1,
                rule: RULE_REPRO_COVERAGE,
                msg: format!(
                    "committed `{file}` has no `{tag}` row in the repro manifest; \
                     every bench gate file must be regenerable via `cargo xtask repro`"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run<F: Fn(&[Tok], &mut Vec<Finding>)>(src: &str, f: F) -> Vec<Finding> {
        let lexed = lex(src);
        let mut findings = Vec::new();
        f(&lexed.tokens, &mut findings);
        findings
    }

    #[test]
    fn unwrap_and_panic_fire() {
        let f = run("fn f() { x.unwrap(); panic!(\"no\"); }", |t, out| {
            no_panic_in_lib(t, false, out)
        });
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn unwrap_or_does_not_fire() {
        let f = run(
            "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); }",
            |t, out| no_panic_in_lib(t, false, out),
        );
        assert!(f.is_empty());
    }

    #[test]
    fn indexing_fires_only_on_hot_paths() {
        let src = "fn f(a: &[f64], i: usize) -> f64 { a[i] }";
        let cold = run(src, |t, out| no_panic_in_lib(t, false, out));
        let hot = run(src, |t, out| no_panic_in_lib(t, true, out));
        assert!(cold.is_empty());
        assert_eq!(hot.len(), 1);
    }

    #[test]
    fn array_types_and_macros_are_not_indexing() {
        let src = "fn f() { let x: [f64; 3] = [0.0; 3]; let v = vec![1]; }";
        let hot = run(src, |t, out| no_panic_in_lib(t, true, out));
        assert!(hot.is_empty(), "{hot:?}");
    }

    #[test]
    fn lock_fires_only_in_lock_hot_files() {
        let src = "fn f(m: &Mutex<u32>) { let g = m.lock(); drop(g); }";
        let cold = run(src, |t, out| no_lock_in_hotpath(t, false, out));
        let hot = run(src, |t, out| no_lock_in_hotpath(t, true, out));
        assert!(cold.is_empty());
        assert_eq!(hot.len(), 1);
        assert!(hot[0].msg.contains("serialise"));
    }

    #[test]
    fn lock_free_helpers_do_not_trip_the_lock_rule() {
        // A free fn named `lock`, or idents merely containing it, are fine.
        let src = "fn f() { let g = lock(&m); let unlocked = 1; deadlock(); }";
        let hot = run(src, |t, out| no_lock_in_hotpath(t, true, out));
        assert!(hot.is_empty(), "{hot:?}");
    }

    #[test]
    fn quantity_without_suffix_fires() {
        let f = run("fn f() { let carrier_freq = 2.0e6; }", |t, out| {
            unit_suffix_discipline(t, out)
        });
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("carrier_freq"));
    }

    #[test]
    fn suffixed_quantity_is_clean() {
        let f = run(
            "struct S { carrier_freq_hz: f64 } fn f(distance_m: f64) { let speed_m_s = 1.0; }",
            |t, out| unit_suffix_discipline(t, out),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn distortion_does_not_trip_dist_stem() {
        let f = run("fn f() { let distortion = 0.1; }", |t, out| {
            unit_suffix_discipline(t, out)
        });
        assert!(f.is_empty());
    }

    #[test]
    fn mixed_unit_arithmetic_fires() {
        let f = run("fn f() { let z = a_hz + b_khz; }", |t, out| {
            unit_suffix_discipline(t, out)
        });
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("_hz"));
    }

    #[test]
    fn same_unit_arithmetic_is_clean() {
        let f = run(
            "fn f() { let z = a_hz - b_hz; let q = t_mps + u_m_s; }",
            |t, out| unit_suffix_discipline(t, out),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_eq_fires_on_literals_and_suffixed_idents() {
        let f = run("fn f() { if x == 0.5 {} if a_hz != b_hz {} }", |t, out| {
            no_float_eq(t, out)
        });
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn int_eq_is_clean() {
        let f = run("fn f() { if n == 3 {} if name == other {} }", |t, out| {
            no_float_eq(t, out)
        });
        assert!(f.is_empty());
    }

    #[test]
    fn missing_forbid_unsafe_fires() {
        let bad = run("pub fn f() {}", |t, out| deny_unsafe(t, out));
        let good = run("#![forbid(unsafe_code)] pub fn f() {}", |t, out| {
            deny_unsafe(t, out)
        });
        assert_eq!(bad.len(), 1);
        assert!(good.is_empty());
    }

    #[test]
    fn result_fn_without_must_use_fires() {
        let f = run(
            "pub fn fallible(x: u32) -> Result<u32, E> { Ok(x) }",
            |t, out| must_use_definitions(t, out),
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn annotated_and_private_result_fns_are_clean() {
        let f = run(
            "#[must_use] pub fn a() -> Result<(), E> { Ok(()) } \
             fn b() -> Result<(), E> { Ok(()) }",
            |t, out| must_use_definitions(t, out),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn discarded_result_call_fires() {
        let lexed = lex("fn f() { fallible(); let _ = fallible(); let ok = fallible(); }");
        let mut out = Vec::new();
        must_use_call_sites(&lexed.tokens, &|n| n == "fallible", &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn consumed_result_call_is_clean() {
        let lexed = lex(
            "fn f() -> Result<(), E> { fallible()?; let r = fallible(); \
             return fallible(); }",
        );
        let mut out = Vec::new();
        must_use_call_sites(&lexed.tokens, &|n| n == "fallible", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
