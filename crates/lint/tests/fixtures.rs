//! Rule self-tests over the fixture trees in `tests/fixtures/`, plus the
//! meta-test that the real workspace lints clean.
//!
//! Each tree is a miniature workspace (a `lint-budget.toml` plus `crates/*/src`
//! files) driven through the same [`lint_workspace`] entry point the CLI uses,
//! so these tests cover the directory walker, the suppression audit, and every
//! rule's positive (`violations/`) and negative (`clean/`) case.

use piccolo_lint::{lint_workspace, Budget, LintReport};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_tree(root: &Path) -> LintReport {
    let budget = Budget::load(&root.join("lint-budget.toml")).unwrap();
    lint_workspace(root, &budget).unwrap()
}

#[test]
fn violations_tree_trips_every_rule_at_the_exact_location() {
    let report = lint_tree(&fixture_root("violations"));
    let got: Vec<(&str, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.rel_path.as_str(), f.line))
        .collect();
    let expected: Vec<(&str, &str, u32)> = vec![
        ("no-wall-clock", "crates/accel/src/parallel.rs", 4),
        ("no-bare-eprintln", "crates/bench/src/lib.rs", 4),
        ("unknown-suppression", "crates/cache/src/audit.rs", 4),
        ("missing-suppression-reason", "crates/cache/src/audit.rs", 5),
        ("no-wall-clock", "crates/cache/src/lib.rs", 4),
        ("float-format-via-codec", "crates/cache/src/lib.rs", 6),
        ("no-hash-collections", "crates/graph/src/lib.rs", 4),
        ("safety-comment", "crates/graph/src/raw.rs", 4),
        ("panic-policy", "crates/io/src/lib.rs", 4),
        ("panic-policy", "crates/serve/src/protocol.rs", 4),
        ("unsafe-budget", "lint-budget.toml", 1),
    ];
    assert_eq!(got, expected, "full report: {:#?}", report.findings);
    assert!(report.suppressed.is_empty());
}

#[test]
fn violations_are_reported_with_file_line_col_diagnostics() {
    let report = lint_tree(&fixture_root("violations"));
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    // `HashMap` starts at column 31 of `    let m = std::collections::HashMap...`.
    assert!(
        rendered
            .iter()
            .any(|l| l.starts_with("crates/graph/src/lib.rs:4:31: no-hash-collections:")),
        "diagnostics: {rendered:#?}"
    );
}

#[test]
fn clean_tree_is_silent_and_audits_the_one_waiver() {
    let report = lint_tree(&fixture_root("clean"));
    assert_eq!(
        report.findings,
        vec![],
        "the clean tree must produce no findings"
    );
    assert_eq!(report.suppressed.len(), 1);
    let (file, line, rule, reason) = &report.suppressed[0];
    assert_eq!(file, "crates/graph/src/lib.rs");
    assert_eq!(*line, 21);
    assert_eq!(rule, "no-hash-collections");
    assert_eq!(reason, "fixture exercising an audited suppression");
}

#[test]
fn the_real_workspace_lints_clean() {
    // CARGO_MANIFEST_DIR is crates/lint; two levels up is the repository root.
    // This is the same invariant CI enforces with `piccolo-lint --deny`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let budget = Budget::load(&root.join("lint-budget.toml")).unwrap();
    let report = lint_workspace(&root, &budget).unwrap();
    assert_eq!(
        report.findings,
        vec![],
        "the committed workspace must lint clean; fix the finding or add an \
         audited `// lint: allow(rule, reason)`"
    );
    assert!(
        report.files > 50,
        "walker found only {} files",
        report.files
    );
}
