//! Integration tests: the linter against the fixture corpora under
//! `tests/fixtures/` — every rule fires on the dirty tree, justified
//! suppressions keep the clean tree clean, and a reason-less suppression
//! is itself reported without suppressing anything.

use std::collections::BTreeSet;
use std::path::PathBuf;
use xtask::{lint_workspace, rules, LintConfig};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn hot_cfg() -> LintConfig {
    LintConfig {
        hot_paths: vec!["hotlib/src/lib.rs".to_string()],
        lock_hot_paths: vec!["hotlib/src/lib.rs".to_string()],
        wallclock_allowed: vec![],
    }
}

#[test]
fn every_rule_fires_on_the_dirty_corpus() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).expect("fixture tree reads");
    let fired: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    for rule in rules::ALL_RULES {
        assert!(
            fired.contains(rule),
            "rule {rule} did not fire: {findings:#?}"
        );
    }
}

#[test]
fn findings_carry_file_and_line() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let unwrap_hit = findings
        .iter()
        .find(|f| f.rule == rules::RULE_NO_PANIC && f.msg.contains("unwrap"))
        .expect("unwrap() finding");
    assert!(
        unwrap_hit.file.ends_with("badlib/src/lib.rs"),
        "{unwrap_hit:?}"
    );
    assert!(unwrap_hit.line > 1);
    let indexing = findings
        .iter()
        .find(|f| f.msg.contains("indexing"))
        .expect("hot-path indexing finding");
    assert!(indexing.file.ends_with("hotlib/src/lib.rs"), "{indexing:?}");
}

#[test]
fn hot_path_indexing_requires_configuration() {
    let cold = LintConfig {
        hot_paths: vec![],
        lock_hot_paths: vec![],
        wallclock_allowed: vec![],
    };
    let findings = lint_workspace(&fixture("dirty"), &cold).unwrap();
    assert!(
        !findings
            .iter()
            .any(|f| f.file.ends_with("hotlib/src/lib.rs")),
        "hotlib should be finding-free without hot-path config: {findings:#?}"
    );
}

#[test]
fn hot_path_lock_fires_once_and_respects_suppression() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let locks: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::RULE_NO_LOCK)
        .collect();
    assert_eq!(
        locks.len(),
        1,
        "exactly the in-loop lock should fire; the justified one is suppressed: {locks:#?}"
    );
    assert!(locks[0].file.ends_with("hotlib/src/lib.rs"));
}

#[test]
fn discarded_result_is_reported_at_the_call_site() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rules::RULE_MUST_USE && f.msg.contains("discarded")),
        "{findings:#?}"
    );
}

#[test]
fn discarded_result_through_a_reexport_alias_is_flagged() {
    // `reexbad` defines `decode_sample -> EcoResult` in one file,
    // renames it with `pub use … as read_sample` in another, and
    // discards the aliased call — only workspace resolution sees it.
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let hit = findings
        .iter()
        .find(|f| f.rule == rules::RULE_MUST_USE && f.file.ends_with("reexbad/src/lib.rs"))
        .expect("alias call-site finding");
    assert!(hit.msg.contains("read_sample"), "{hit:?}");
}

#[test]
fn ambiguous_names_are_skipped_not_guessed() {
    // The clean corpus defines two `gain` fns — one fallible, one not —
    // and discards a call to one of them; a resolver that guessed would
    // report it, so the corpus staying clean pins the skip behaviour.
    // (Covered by the clean-corpus test, but assert the precondition so
    // a fixture edit can't silently hollow this out.)
    let source = std::fs::read_to_string(fixture("clean/crates/goodlib/src/reexports.rs")).unwrap();
    assert!(
        source.contains("quiet::gain(3.0);"),
        "fixture lost its discarded ambiguous call"
    );
    let findings = lint_workspace(&fixture("clean"), &LintConfig::default()).unwrap();
    assert!(
        !findings.iter().any(|f| f.file.ends_with("reexports.rs")),
        "{findings:#?}"
    );
}

#[test]
fn justified_suppressions_keep_the_clean_corpus_clean() {
    let findings = lint_workspace(&fixture("clean"), &LintConfig::default()).unwrap();
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn reasonless_suppression_is_itself_a_finding_and_does_not_suppress() {
    let findings = lint_workspace(&fixture("badallow"), &LintConfig::default()).unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rules::RULE_LINT_ALLOW && f.msg.contains("reason")),
        "missing-reason directive must be reported: {findings:#?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == rules::RULE_NO_FLOAT_EQ),
        "the targeted finding must survive a reason-less directive: {findings:#?}"
    );
}

#[test]
fn integration_test_trees_are_scanned_for_determinism() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let rng_hit = findings
        .iter()
        .find(|f| f.rule == rules::RULE_RNG_DISCIPLINE && f.file.contains("/tests/"))
        .expect("rng-discipline finding inside a crate tests/ tree");
    assert!(
        rng_hit.file.ends_with("badlib/tests/flaky_test.rs"),
        "{rng_hit:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == rules::RULE_NO_WALLCLOCK
            && f.file.ends_with("badlib/tests/flaky_test.rs")),
        "wall-clock in a test tree must be flagged: {findings:#?}"
    );
    // Test class stays exempt from the library-shape rules: the corpus
    // test file has no panic/must-use findings despite unwrap-free
    // asserts being absent.
    assert!(
        !findings
            .iter()
            .any(|f| f.file.contains("/tests/") && f.rule == rules::RULE_NO_PANIC),
        "{findings:#?}"
    );
}

#[test]
fn rng_discipline_flags_all_three_shapes() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let rng: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::RULE_RNG_DISCIPLINE && f.file.contains("rngbad"))
        .collect();
    assert!(rng.iter().any(|f| f.msg.contains("captured")), "{rng:#?}");
    assert!(
        rng.iter()
            .any(|f| f.msg.contains("without exec::seed::derive")),
        "{rng:#?}"
    );
    assert!(
        rng.iter().any(|f| f.msg.contains("ambient entropy")),
        "{rng:#?}"
    );
}

#[test]
fn hash_iteration_feeding_a_digest_is_flagged() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let hit = findings
        .iter()
        .find(|f| f.rule == rules::RULE_NO_HASH_ITER)
        .expect("hash-iteration finding");
    assert!(hit.file.ends_with("iterbad/src/lib.rs"), "{hit:?}");
    assert!(hit.msg.contains("counts"), "{hit:?}");
}

#[test]
fn lock_order_cycle_is_reported_once_with_both_locks_named() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let cycles: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::RULE_LOCK_ORDER)
        .collect();
    assert_eq!(cycles.len(), 1, "{cycles:#?}");
    assert!(
        cycles[0].file.ends_with("lockbad/src/lib.rs"),
        "{cycles:#?}"
    );
    assert!(cycles[0].msg.contains("alpha_bank"), "{cycles:#?}");
    assert!(cycles[0].msg.contains("beta_bank"), "{cycles:#?}");
}

#[test]
fn violations_behind_lexer_edge_cases_are_still_seen() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let in_lexedge: Vec<_> = findings
        .iter()
        .filter(|f| f.file.ends_with("lexedge/src/lib.rs"))
        .collect();
    assert!(
        in_lexedge
            .iter()
            .any(|f| f.rule == rules::RULE_NO_FLOAT_EQ && f.line == 13),
        "float-eq after the raw string must fire on its own line: {in_lexedge:#?}"
    );
    assert!(
        in_lexedge
            .iter()
            .any(|f| f.rule == rules::RULE_NO_PANIC && f.msg.contains("unwrap")),
        "unwrap after the nested comment must fire: {in_lexedge:#?}"
    );
    assert!(
        in_lexedge
            .iter()
            .any(|f| f.rule == rules::RULE_NO_FLOAT_EQ && f.line > 20),
        "float-eq after the lifetime tick must fire: {in_lexedge:#?}"
    );
}

#[test]
fn wallclock_allowlist_is_a_path_prefix() {
    // The clean corpus's bench crate reads Instant::now(); it is clean
    // only because `crates/bench/src/` is on the default allowlist.
    let mut strict = LintConfig::default();
    strict.wallclock_allowed.clear();
    let findings = lint_workspace(&fixture("clean"), &strict).unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rules::RULE_NO_WALLCLOCK && f.file.contains("bench")),
        "without the allowlist the bench fixture must be flagged: {findings:#?}"
    );
}

#[test]
fn json_report_is_stable_and_carries_every_finding() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let json = xtask::findings_to_json(&findings);
    assert!(json.contains("\"schema\": \"ecocapsule-lint/1\""));
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains(&format!("\"finding_count\": {}", findings.len())));
    for f in &findings {
        assert!(json.contains(&format!("\"{}\"", f.rule)), "{}", f.rule);
    }
    let empty = xtask::findings_to_json(&[]);
    assert!(empty.contains("\"clean\": true"));
    assert!(empty.contains("\"findings\": []"));
}

#[test]
fn repro_coverage_names_the_missing_tag_and_bench_file() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let coverage: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::RULE_REPRO_COVERAGE)
        .collect();
    let md_gap = coverage
        .iter()
        .find(|f| f.file == "EXPERIMENTS.md")
        .expect("missing-tag finding anchored at EXPERIMENTS.md");
    assert!(md_gap.msg.contains("`figbb`"), "{md_gap:?}");
    assert!(
        md_gap.line > 1,
        "must anchor at the heading line: {md_gap:?}"
    );
    let bench_gap = coverage
        .iter()
        .find(|f| f.file == "crates/repro/src/manifest.rs")
        .expect("missing bench-row finding anchored at the manifest");
    assert!(bench_gap.msg.contains("BENCH_zz.json"), "{bench_gap:?}");
    assert!(bench_gap.msg.contains("`bench_zz`"), "{bench_gap:?}");
    // The covered tag must NOT be reported.
    assert!(
        !coverage.iter().any(|f| f.msg.contains("`figaa`")),
        "{coverage:#?}"
    );
}

#[test]
fn repro_coverage_skips_trees_without_experiments_md() {
    // The badallow corpus has no EXPERIMENTS.md; the rule must stay
    // silent rather than demanding a manifest from every tree.
    let findings = lint_workspace(&fixture("badallow"), &LintConfig::default()).unwrap();
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == rules::RULE_REPRO_COVERAGE),
        "{findings:#?}"
    );
}

#[test]
fn rule_metas_cover_every_rule() {
    let meta_names: BTreeSet<&str> = rules::RULE_METAS.iter().map(|m| m.name).collect();
    for rule in rules::ALL_RULES {
        assert!(meta_names.contains(rule), "no RuleMeta for {rule}");
    }
    assert!(meta_names.contains(rules::RULE_LINT_ALLOW));
    assert_eq!(meta_names.len(), rules::RULE_METAS.len(), "duplicate meta");
}

#[test]
fn workspace_examples_are_linted_as_binaries() {
    let findings = lint_workspace(&fixture("dirty"), &hot_cfg()).unwrap();
    let hit = findings
        .iter()
        .find(|f| f.rule == rules::RULE_UNIT_SUFFIX && f.file.contains("examples/"))
        .expect("unit-suffix finding inside examples/");
    assert!(hit.file.ends_with("examples/bad_example.rs"), "{hit:?}");
    // Examples are binary-class: the `println!`/shape rules that only
    // apply to library code must stay quiet there.
    assert!(
        !findings
            .iter()
            .any(|f| f.file.contains("examples/") && f.rule == rules::RULE_NO_PANIC),
        "{findings:#?}"
    );
}
