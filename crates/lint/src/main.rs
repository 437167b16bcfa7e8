//! The `piccolo-lint` CLI.
//!
//! ```text
//! piccolo-lint [--deny] [--root DIR] [--verbose]   lint the workspace
//! piccolo-lint --list                              print the rule catalog
//! piccolo-lint --explain RULE                      print a rule's rationale
//! ```
//!
//! Without `--deny` findings are printed as warnings and the exit code stays
//! 0 (developer mode); with `--deny` any finding exits 2 (the CI mode). Exit
//! code 1 is reserved for operational errors (unreadable tree, bad budget
//! file), so CI can tell "violations found" from "tool broke".

#![forbid(unsafe_code)]
#![expect(
    clippy::print_stderr,
    reason = "the CLI's summary line, usage and operational errors belong on stderr"
)]

use piccolo_lint::{find_root, lint_workspace, rules, Budget};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut verbose = false;
    let mut root: Option<PathBuf> = None;
    let mut list = false;
    let mut explain: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--verbose" => verbose = true,
            "--list" => list = true,
            "--explain" => match args.next() {
                Some(rule) => explain = Some(rule),
                None => return usage("--explain needs a rule name"),
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    if list {
        for r in rules::RULES {
            println!("{:<24} {}", r.name, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = explain {
        return match rules::rule_info(&name) {
            Some(r) => {
                println!("{}: {}\n\n{}", r.name, r.summary, r.explain);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("piccolo-lint: no rule named '{name}' (try --list for the catalog)");
                ExitCode::FAILURE
            }
        };
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
        Some(r) => r,
        None => {
            eprintln!(
                "piccolo-lint: no workspace root found (no lint-budget.toml up the \
                 tree); pass --root"
            );
            return ExitCode::FAILURE;
        }
    };

    let budget = match Budget::load(&root.join("lint-budget.toml")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("piccolo-lint: lint-budget.toml: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = match lint_workspace(&root, &budget) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("piccolo-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    for f in &report.findings {
        println!("{f}");
    }
    if verbose {
        for (path, line, rule, reason) in &report.suppressed {
            eprintln!("piccolo-lint: allowed {rule} at {path}:{line} ({reason})");
        }
    }
    eprintln!(
        "piccolo-lint: {} file(s), {} finding(s), {} suppression(s) applied{}",
        report.files,
        report.findings.len(),
        report.suppressed.len(),
        if deny { " [deny]" } else { "" }
    );

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else if deny {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("piccolo-lint: {err}");
    }
    eprintln!(
        "usage: piccolo-lint [--deny] [--root DIR] [--verbose]\n       \
         piccolo-lint --list | --explain RULE"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
