//! Rule self-tests over the fixture trees in `tests/fixtures/`, plus the
//! meta-tests that the real workspace lints clean and keeps the clippy policy
//! that enforces the rest of the catalog.
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

/// The repository root: two levels up from crates/lint.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of the TOML table headed `header`, trimmed, without blanks or
/// comments.
fn toml_table<'a>(text: &'a str, header: &str) -> Vec<&'a str> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
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
        ("no-wall-clock", "crates/bench/src/lib.rs", 4),
        ("unknown-suppression", "crates/cache/src/audit.rs", 4),
        ("missing-suppression-reason", "crates/cache/src/audit.rs", 5),
        ("unused-suppression", "crates/cache/src/audit.rs", 9),
        ("no-wall-clock", "crates/cache/src/lib.rs", 4),
        ("float-format-via-codec", "crates/cache/src/lib.rs", 6),
        ("unsafe-budget", "lint-budget.toml", 1),
    ];
    assert_eq!(got, expected, "full report: {:#?}", report.findings);
    assert!(report.suppressed.is_empty());
}

#[test]
fn violations_are_reported_with_file_line_col_diagnostics() {
    let report = lint_tree(&fixture_root("violations"));
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    // `Instant` starts at column 24 of `    let t = std::time::Instant::now();`.
    assert!(
        rendered
            .iter()
            .any(|l| l.starts_with("crates/cache/src/lib.rs:4:24: no-wall-clock:")),
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
    assert_eq!(*line, 14);
    assert_eq!(rule, "no-wall-clock");
    assert_eq!(reason, "fixture exercising an audited suppression");
}

#[test]
fn the_real_workspace_lints_clean() {
    // This is the same invariant CI enforces with `piccolo-lint --deny`.
    let root = workspace_root();
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

#[test]
fn the_clippy_policy_enforces_the_migrated_rules() {
    // Clippy, not piccolo-lint, rejects hash collections, bare stderr writes,
    // undocumented unsafe blocks and panics on untrusted input. Tier-1 never
    // runs clippy, so pin the configuration that makes it do so.
    let root = workspace_root();

    let clippy = read(&root.join("clippy.toml"));
    let disallowed: String = clippy
        .lines()
        .skip_while(|l| !l.starts_with("disallowed-types = ["))
        .take_while(|l| *l != "]")
        .collect();
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            disallowed.contains(&format!("path = \"{ty}\"")),
            "clippy.toml must list {ty} in disallowed-types"
        );
    }
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
    ] {
        assert!(
            clippy.lines().any(|l| l.trim() == format!("{key} = true")),
            "clippy.toml must set {key} = true"
        );
    }

    let manifest = read(&root.join("Cargo.toml"));
    let lints = toml_table(&manifest, "[workspace.lints.clippy]");
    for lint in [
        "print_stderr",
        "undocumented_unsafe_blocks",
        "allow_attributes_without_reason",
    ] {
        let want = format!("{lint} = \"warn\"");
        assert!(
            lints.contains(&want.as_str()),
            "[workspace.lints.clippy] must hold {want}; it holds {lints:?}"
        );
    }

    // piccolo-io's library and the four untrusted-text modules outside it.
    for file in [
        "crates/io/src/lib.rs",
        "crates/obs/src/json.rs",
        "crates/obs/src/linecodec.rs",
        "crates/serve/src/protocol.rs",
        "crates/serve/src/http.rs",
    ] {
        assert!(
            read(&root.join(file))
                .lines()
                .any(|l| l == "#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]"),
            "{file} must warn on unwrap_used, expect_used and panic"
        );
    }

    // The levels above reach a crate only through `[lints] workspace = true`.
    let members: Vec<&str> = toml_table(&manifest, "[workspace]")
        .into_iter()
        .skip_while(|l| *l != "members = [")
        .skip(1)
        .take_while(|l| *l != "]")
        .map(|l| l.trim_end_matches(',').trim_matches('"'))
        .collect();
    assert!(members.len() > 10, "workspace members: {members:?}");
    for dir in std::iter::once(".").chain(members) {
        let member = read(&root.join(dir).join("Cargo.toml"));
        assert_eq!(
            toml_table(&member, "[lints]"),
            ["workspace = true"],
            "{dir}/Cargo.toml must inherit [workspace.lints]"
        );
    }
}
