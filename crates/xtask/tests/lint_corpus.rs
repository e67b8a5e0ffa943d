//! The linter's fixture corpus and live-workspace self-test.
//!
//! `fixtures/good/` mirrors rule-scoped workspace paths with compliant code
//! (including a reasoned waiver and an allowlisted timing module) and must
//! lint clean. `fixtures/bad/` holds one known-bad file per rule and must
//! produce exactly the expected findings. Finally, the real workspace must
//! itself be lint-clean — the same invariant CI enforces.

use std::path::PathBuf;

use xtask::run_lint;

fn fixture_root(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

#[test]
fn good_corpus_is_clean() {
    let report = run_lint(&fixture_root("good"));
    assert!(
        report.is_clean(),
        "expected a clean good corpus, got: {:#?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 5);
}

#[test]
fn bad_corpus_triggers_every_rule() {
    let report = run_lint(&fixture_root("bad"));
    let hits = |rule: &str, rel_suffix: &str| {
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.rel.ends_with(rel_suffix))
            .count()
    };

    // panic: unwrap, expect, panic! in engine code.
    assert_eq!(hits("panic", "ppsim/src/batched2.rs"), 3);
    // determinism: hash-map for-loop, plus the ambient clock reads — the
    // telemetry probe pins that timing reads in ppsim outside the
    // sanctioned telemetry/clock.rs module still fail.
    assert_eq!(hits("determinism", "ssle-core/src/tally.rs"), 1);
    assert_eq!(hits("determinism", "ppsim/src/seeding.rs"), 1);
    assert_eq!(hits("determinism", "ppsim/src/telemetry_probe.rs"), 1);
    // dispatch: four EngineKind patterns across three match-arm lines.
    assert_eq!(hits("dispatch", "analysis/src/dispatch_site.rs"), 4);
    // unsafe: missing forbid attribute + relaxed ordering in vendored rayon.
    assert_eq!(hits("unsafe", "vendor/rayon/src/lib.rs"), 2);
    // rng: entropy seeding.
    assert_eq!(hits("rng", "ppsim/src/seeding.rs"), 1);
    // waiver: unknown rule + missing reason.
    assert_eq!(hits("waiver", "ssle-core/src/tally.rs"), 2);

    // 4 dispatch + 3 panic + 3 determinism + 2 unsafe + 2 waiver + 1 rng.
    let total: usize = report.findings.len();
    assert_eq!(
        total, 15,
        "unexpected extra findings: {:#?}",
        report.findings
    );
}

#[test]
fn live_workspace_is_lint_clean() {
    // crates/xtask -> crates -> workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf();
    let report = run_lint(&root);
    assert!(
        report.is_clean(),
        "the workspace must stay lint-clean; findings: {:#?}",
        report.findings
    );
    // Sanity: the walk actually saw the workspace, not an empty directory.
    assert!(
        report.files_scanned > 50,
        "only {} files",
        report.files_scanned
    );
}
