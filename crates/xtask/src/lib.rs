//! `xtask` — workspace-wide static analysis for the EcoCapsule repo.
//!
//! Run as `cargo xtask lint` (aliased in `.cargo/config.toml`). The
//! engine is a **two-pass analyzer**:
//!
//! * **Pass 1** walks every `crates/*/src/**.rs`, `crates/*/tests/**.rs`,
//!   workspace `tests/`, and `examples/` file, lexes it with the
//!   dependency-free lexer in [`lexer`], and extracts per-file facts
//!   ([`workspace::FileFacts`]: fn spans, call sites, lock acquisitions,
//!   pool-task closure ranges, hash-typed bindings, re-export aliases),
//!   which fold into a workspace [`workspace::Model`] — a symbol table
//!   and approximate name-based call graph.
//! * **Pass 2** runs the rules in [`rules`] against each file and the
//!   model. `cargo xtask lint --list-rules` prints the authoritative
//!   rule list from [`rules::RULE_METAS`]; see DESIGN.md §7 for each
//!   rule's rationale.
//!
//! File classes scope the rules: library sources get everything; binary
//! targets (`src/bin/**`, `src/main.rs`, `examples/**`) are exempt from
//! the panic, float-eq, must-use, and wall-clock rules; integration-test
//! trees (`crates/*/tests/**`, workspace `tests/`) keep the determinism
//! rules (`rng-discipline`, `no-nondeterministic-iteration`,
//! `no-wallclock-in-deterministic`) plus directive hygiene, since tests
//! are exactly where nondeterminism hides as flakiness. Directories
//! named `fixtures` are skipped — lint corpora contain deliberate
//! violations. `#[cfg(test)]` regions inside library files stay exempt
//! from everything except directive hygiene.
//!
//! Any finding can be suppressed with `// lint:allow(<rule>) <reason>`
//! on the same line or the line above — the reason text is mandatory
//! and a missing reason is itself reported.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod workspace;

use lexer::{Lexed, Tok};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule identifier (see [`rules::ALL_RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source: all rules apply.
    Lib,
    /// Binary target source: exempt from panic/float-eq/must-use rules.
    Bin,
    /// Integration-test source (`crates/*/tests/`, workspace `tests/`):
    /// determinism rules and directive hygiene only.
    Test,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path suffixes (with `/` separators) of hot-path files where slice
    /// indexing is flagged by `no-panic-in-lib`.
    pub hot_paths: Vec<String>,
    /// Path suffixes of compute hot-path files where `.lock()` is flagged
    /// by `no-lock-in-hotpath`: code the sweep worker pool runs
    /// concurrently, where an unjustified mutex serialises the fleet.
    pub lock_hot_paths: Vec<String>,
    /// Path prefixes (relative to the workspace root, `/` separators)
    /// where wall-clock reads are legitimate: bench harnesses and timing
    /// shims that *measure* wall time. Everywhere else
    /// `no-wallclock-in-deterministic` bans `Instant::now`/
    /// `SystemTime::now` in favour of the slot clock.
    pub wallclock_allowed: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            hot_paths: vec![
                "dsp/src/fft.rs".to_string(),
                "dsp/src/correlate.rs".to_string(),
                // Queried once per slot per capsule inside every faulted
                // survey: a stray index panic here takes down the matrix.
                "faults/src/plan.rs".to_string(),
            ],
            lock_hot_paths: vec![
                "dsp/src/fft.rs".to_string(),
                "dsp/src/plan.rs".to_string(),
                "dsp/src/spectrogram.rs".to_string(),
                "dsp/src/correlate.rs".to_string(),
                "dsp/src/ddc.rs".to_string(),
                // The batched kernels sit on the survey inner loop; the
                // shared tone-bank caches may only take a lock on the
                // explicitly-annotated probe lines, never per sample.
                "dsp/src/batch.rs".to_string(),
                "exec/src/pool.rs".to_string(),
                // FaultPlan is shared read-only across sweep workers;
                // per-slot locking would serialise the whole pool.
                "faults/src/plan.rs".to_string(),
                "faults/src/digest.rs".to_string(),
                // The fleet scheduler and engine sit on every wall's
                // path through the pool: a mutex in either serialises
                // the whole fleet round.
                "fleet/src/scheduler.rs".to_string(),
                "fleet/src/engine.rs".to_string(),
                // The campaign engine drives one fleet round per epoch
                // and its per-epoch evolution/grading runs between
                // rounds on the same thread budget; a lock in either
                // stalls every wall of the epoch.
                "campaign/src/engine.rs".to_string(),
                "campaign/src/state.rs".to_string(),
                "campaign/src/grade.rs".to_string(),
                // The serve survey loop and its store ingest run on the
                // daemon's survey thread; readers see only published
                // snapshots, so these files may lock exclusively on the
                // annotated O(1) publish/snapshot swap lines.
                "serve/src/engine.rs".to_string(),
                "serve/src/store.rs".to_string(),
            ],
            // The bench harness and the vendored criterion shim exist to
            // measure wall time; everything else runs on the slot clock.
            wallclock_allowed: vec![
                "crates/bench/src/".to_string(),
                "crates/xcriterion/src/".to_string(),
                // The daemon's idle polling sleeps real time between
                // shutdown-flag checks; nothing digested depends on it.
                "crates/serve/src/daemon.rs".to_string(),
                // The repro harness reports per-row elapsed wall time;
                // timings are excluded from the run digest.
                "crates/repro/src/".to_string(),
            ],
        }
    }
}

/// A parsed `// lint:allow(rule) reason` directive.
#[derive(Debug, Clone)]
struct Directive {
    line: u32,
    rule: String,
    reason: String,
}

fn parse_directives(lexed: &Lexed, findings: &mut Vec<Finding>) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                file: String::new(),
                line: c.line,
                rule: rules::RULE_LINT_ALLOW,
                msg: "malformed lint:allow directive: missing `)`".to_string(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim().to_string();
        if !rules::ALL_RULES.contains(&rule.as_str()) {
            findings.push(Finding {
                file: String::new(),
                line: c.line,
                rule: rules::RULE_LINT_ALLOW,
                msg: format!(
                    "lint:allow names unknown rule `{rule}` (known: {})",
                    rules::ALL_RULES.join(", ")
                ),
            });
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding {
                file: String::new(),
                line: c.line,
                rule: rules::RULE_LINT_ALLOW,
                msg: format!("lint:allow({rule}) has no reason; a written reason is mandatory"),
            });
            continue;
        }
        out.push(Directive {
            line: c.line,
            rule,
            reason,
        });
    }
    out
}

/// Line ranges covered by `#[cfg(test)] mod … { … }` blocks.
fn test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while let Some(t) = tokens.get(i) {
        let cfg_test_attr = t.is_op("#")
            && tokens.get(i + 1).map(|x| x.is_op("[")).unwrap_or(false)
            && tokens
                .get(i + 2)
                .map(|x| x.is_ident("cfg"))
                .unwrap_or(false)
            && tokens
                .iter()
                .skip(i + 3)
                .take(8)
                .any(|x| x.is_ident("test"));
        if !cfg_test_attr {
            i += 1;
            continue;
        }
        // Find `mod <name> {` after the attribute (allowing further attrs).
        let mut j = i + 3;
        let mut found_mod = None;
        while let Some(tk) = tokens.get(j) {
            if tk.is_ident("mod") {
                found_mod = Some(j);
                break;
            }
            if tk.is_op(";") || tk.is_ident("fn") || tk.is_ident("use") || tk.is_ident("struct") {
                break;
            }
            j += 1;
        }
        let Some(mod_idx) = found_mod else {
            i += 1;
            continue;
        };
        // Find the opening brace and its match.
        let mut k = mod_idx;
        while let Some(tk) = tokens.get(k) {
            if tk.is_op("{") {
                break;
            }
            if tk.is_op(";") {
                break;
            }
            k += 1;
        }
        if !tokens.get(k).map(|tk| tk.is_op("{")).unwrap_or(false) {
            i = k;
            continue;
        }
        let start_line = t.line;
        let mut depth = 0i32;
        let mut end_line = start_line;
        while let Some(tk) = tokens.get(k) {
            if tk.is_op("{") {
                depth += 1;
            } else if tk.is_op("}") {
                depth -= 1;
                if depth == 0 {
                    end_line = tk.line;
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
        regions.push((start_line, end_line));
        i = k;
    }
    regions
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

struct SourceFile {
    rel_path: String,
    class: FileClass,
    is_lib_root: bool,
    is_hot: bool,
    is_lock_hot: bool,
    wallclock_ok: bool,
    lexed: Lexed,
    tests: Vec<(u32, u32)>,
}

/// Recursively collect `.rs` files under `dir`, skipping any directory
/// named `fixtures` — lint corpora are deliberately dirty.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().map(|n| n == "fixtures").unwrap_or(false) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

fn load_files(root: &Path, cfg: &LintConfig) -> std::io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let krate = entry?.path();
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
        // Per-crate integration tests are first-party code: the
        // determinism rules apply there (flaky tests are where captured
        // RNGs and wall-clock reads hide).
        let tests = krate.join("tests");
        if tests.is_dir() {
            collect_rs(&tests, &mut paths)?;
        }
    }
    // Workspace examples are first-party code too — linted as binaries
    // (the directory is absent from most fixture corpora, hence the
    // guard). Same for the workspace
    // integration-test crate at `tests/`.
    let examples_dir = root.join("examples");
    if examples_dir.is_dir() {
        collect_rs(&examples_dir, &mut paths)?;
    }
    let ws_tests = root.join("tests");
    if ws_tests.is_dir() {
        collect_rs(&ws_tests, &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let class = if rel.starts_with("tests/") || rel.contains("/tests/") {
            FileClass::Test
        } else if rel.starts_with("examples/")
            || rel.contains("/src/bin/")
            || rel.ends_with("/src/main.rs")
        {
            FileClass::Bin
        } else {
            FileClass::Lib
        };
        let is_lib_root = rel.ends_with("/src/lib.rs") && class == FileClass::Lib;
        let is_hot = cfg.hot_paths.iter().any(|h| rel.ends_with(h.as_str()));
        let is_lock_hot = cfg.lock_hot_paths.iter().any(|h| rel.ends_with(h.as_str()));
        let wallclock_ok = cfg
            .wallclock_allowed
            .iter()
            .any(|p| rel.starts_with(p.as_str()));
        let text = std::fs::read_to_string(&path)?;
        let lexed = lexer::lex(&text);
        let tests = test_regions(&lexed.tokens);
        files.push(SourceFile {
            rel_path: rel,
            class,
            is_lib_root,
            is_hot,
            is_lock_hot,
            wallclock_ok,
            lexed,
            tests,
        });
    }
    Ok(files)
}

/// Lint the workspace rooted at `root`. Returns all findings after
/// suppression; an empty vector means the tree is clean.
#[must_use]
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<Vec<Finding>> {
    let files = load_files(root, cfg)?;

    // Pass 1: per-file facts folded into the workspace model (symbol
    // table, re-export aliases, sink reachability, lock graph).
    let rel_paths: Vec<String> = files.iter().map(|f| f.rel_path.clone()).collect();
    let lib_mask: Vec<bool> = files.iter().map(|f| f.class == FileClass::Lib).collect();
    let facts: Vec<workspace::FileFacts> = files
        .iter()
        .map(|f| workspace::FileFacts::extract(&f.lexed.tokens))
        .collect();
    let model = workspace::Model::build(facts, &lib_mask);

    // Pass 2: per-file rules against the model, then the global rules,
    // then one suppression pass over everything.
    let mut all = Vec::new();
    let mut directives_by_file: BTreeMap<String, Vec<Directive>> = BTreeMap::new();
    for (idx, f) in files.iter().enumerate() {
        let mut raw: Vec<Finding> = Vec::new();
        let directives = {
            let mut dir_findings = Vec::new();
            let ds = parse_directives(&f.lexed, &mut dir_findings);
            raw.append(&mut dir_findings);
            ds
        };
        let facts = &model.files[idx];
        if f.class == FileClass::Lib {
            rules::no_panic_in_lib(&f.lexed.tokens, f.is_hot, &mut raw);
            rules::no_float_eq(&f.lexed.tokens, &mut raw);
            rules::must_use_definitions(&f.lexed.tokens, &mut raw);
            rules::must_use_call_sites(&f.lexed.tokens, &|n| model.returns_result(n), &mut raw);
            rules::no_lock_in_hotpath(&f.lexed.tokens, f.is_lock_hot, &mut raw);
        }
        if f.class != FileClass::Bin {
            // Determinism rules: library and test code. Binaries and
            // examples may demo wall-clock timing or iterate however
            // they like — their output is not digested.
            rules::no_wallclock(&f.lexed.tokens, f.wallclock_ok, &mut raw);
            rules::no_nondeterministic_iteration(
                &f.lexed.tokens,
                &|name, tok| facts.is_hash_use(name, tok),
                &|tok| facts.enclosing_fn(tok).map(|s| s.name.clone()),
                &|name| model.reaches_sink(name),
                &mut raw,
            );
        }
        // Seed discipline binds everywhere a pool task can be spawned.
        rules::rng_discipline(&f.lexed.tokens, &facts.task_regions, &mut raw);
        if f.class != FileClass::Test {
            rules::unit_suffix_discipline(&f.lexed.tokens, &mut raw);
        }
        if f.is_lib_root {
            rules::deny_unsafe(&f.lexed.tokens, &mut raw);
        }
        for mut finding in raw {
            finding.file = f.rel_path.clone();
            // Test regions are exempt from everything except directive
            // hygiene (a bad lint:allow is bad anywhere) and the
            // determinism rules, which exist to keep tests honest.
            let test_exempt = !matches!(
                finding.rule,
                rules::RULE_LINT_ALLOW
                    | rules::RULE_RNG_DISCIPLINE
                    | rules::RULE_NO_HASH_ITER
                    | rules::RULE_NO_WALLCLOCK
            );
            if test_exempt && in_regions(&f.tests, finding.line) {
                continue;
            }
            all.push(finding);
        }
        directives_by_file.insert(f.rel_path.clone(), directives);
    }

    // Global rules: findings already carry their anchor file/line.
    model.lock_order_cycles(&rel_paths, &mut all);
    rules::repro_manifest_coverage(root, &mut all);

    // Suppression: a matching directive on the same line or the line
    // directly above, in the finding's own file.
    all.retain(|finding| {
        if finding.rule == rules::RULE_LINT_ALLOW {
            return true;
        }
        let Some(directives) = directives_by_file.get(&finding.file) else {
            return true;
        };
        !directives.iter().any(|d| {
            d.rule == finding.rule
                && (d.line == finding.line || d.line + 1 == finding.line)
                && !d.reason.is_empty()
        })
    });
    all.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(all)
}

/// Renders findings as the `ecocapsule-lint/1` JSON report consumed by
/// CI: a stable schema name, a verdict, and one object per finding.
#[must_use]
pub fn findings_to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
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
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ecocapsule-lint/1\",\n");
    out.push_str(&format!("  \"clean\": {},\n", findings.is_empty()));
    out.push_str(&format!("  \"finding_count\": {},\n", findings.len()));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"msg\": \"{}\"}}",
            esc(&f.file),
            f.line,
            f.rule,
            esc(&f.msg)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_detection() {
        let src = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\n";
        let lexed = lexer::lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions.len(), 1);
        assert!(in_regions(&regions, 4));
        assert!(!in_regions(&regions, 1));
    }

    #[test]
    fn directive_parsing_demands_reason() {
        let lexed = lexer::lex(
            "// lint:allow(no-float-eq) sentinel compare is exact\n\
             // lint:allow(no-float-eq)\n\
             // lint:allow(not-a-rule) whatever\n",
        );
        let mut findings = Vec::new();
        let ds = parse_directives(&lexed, &mut findings);
        assert_eq!(ds.len(), 1);
        assert_eq!(findings.len(), 2);
    }
}
