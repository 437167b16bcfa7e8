//! Workspace traversal: find every `.rs` file under a root, lex it, and run
//! the catalog. This is the library entry point the CLI, the self-tests, and
//! the CI meta-test all share.

use crate::budget::Budget;
use crate::rules::{check_file, check_unsafe_budget, rule_info, Finding};
use crate::source::{SourceFile, Suppression};
use std::path::{Path, PathBuf};

/// Directories never descended into. `fixtures` holds the rule self-tests'
/// deliberate violations (under `crates/lint/tests/fixtures/`); the rest are
/// build/VCS artifacts.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures"];

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that survived suppression, in path/line order.
    pub findings: Vec<Finding>,
    /// `(file, line, rule, reason)` of every applied suppression.
    pub suppressed: Vec<(String, u32, String, String)>,
    /// Number of files scanned.
    pub files: usize,
}

/// Recursively collects workspace-relative paths of every `.rs` file under
/// `root`, sorted for deterministic reports.
pub fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip {}: {e}", path.display()))?;
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root` against `budget`.
///
/// Every per-file rule runs over every `.rs` file (each rule applies its own
/// scope), suppression comments are applied (and audited: an allow naming an
/// unknown rule, missing a reason or covering no finding is itself a finding),
/// and the workspace-level unsafe budget is checked last.
pub fn lint_workspace(root: &Path, budget: &Budget) -> Result<LintReport, String> {
    let rel_paths = collect_rs_files(root)?;
    let mut files = Vec::with_capacity(rel_paths.len());
    for rel in &rel_paths {
        let text = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {}: {e}", rel.display()))?;
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::new(&rel_str, text));
    }
    let mut report = LintReport {
        files: files.len(),
        ..LintReport::default()
    };
    for file in &files {
        let mut applied: Vec<&Suppression> = Vec::new();
        for f in check_file(file) {
            match file.suppressed(f.rule, f.line) {
                Some(s) => {
                    applied.push(s);
                    report.suppressed.push((
                        file.rel_path.clone(),
                        f.line,
                        s.rule.clone(),
                        s.reason.clone(),
                    ));
                }
                None => report.findings.push(f),
            }
        }
        // Audit the suppression comments themselves.
        for s in file.suppressions() {
            let (rule, message) = if rule_info(&s.rule).is_none() {
                (
                    "unknown-suppression",
                    format!("lint: allow names unknown rule '{}'", s.rule),
                )
            } else if s.reason.is_empty() {
                (
                    "missing-suppression-reason",
                    format!(
                        "lint: allow({}) without a reason; write \
                         `// lint: allow({}, why)`",
                        s.rule, s.rule
                    ),
                )
            } else if !applied.iter().any(|a| std::ptr::eq(*a, s)) {
                (
                    "unused-suppression",
                    format!(
                        "lint: allow({}) covers no {} finding; delete it",
                        s.rule, s.rule
                    ),
                )
            } else {
                continue;
            };
            report.findings.push(Finding {
                rule,
                rel_path: file.rel_path.clone(),
                line: s.line,
                col: 1,
                message,
            });
        }
    }
    report.findings.extend(check_unsafe_budget(&files, budget));
    report
        .findings
        .sort_by(|a, b| (&a.rel_path, a.line, a.col).cmp(&(&b.rel_path, b.line, b.col)));
    Ok(report)
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing `lint-budget.toml` (committed at the root) appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint-budget.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
