//! `piccolo-lint` — the workspace's determinism checks that clippy has no
//! lint for.
//!
//! The workspace's core guarantee — byte-identical `results.json` across any
//! `--jobs` / shard / resume split — is protected after the fact by property
//! tests. Clippy protects most of it before the fact: `clippy.toml` and
//! `[workspace.lints.clippy]` reject `HashMap`/`HashSet`, bare `eprintln!`,
//! `unsafe` blocks without a `// SAFETY:` comment, and panics in the modules
//! that parse untrusted input. This crate checks the rest: a hand-rolled,
//! comment- and string-aware Rust lexer ([`lexer`]) feeds a rule catalog
//! ([`rules`]) that rejects wall-clock reads outside the profiler, lossy float
//! formatting outside the codec, and unbudgeted unsafe growth. It also walks
//! `perfbench/`, a separate Cargo workspace that clippy never lints.
//!
//! Diagnostics are `file:line:col: rule: message`; individual findings can be
//! waived with an inline `// lint: allow(rule-name, reason)` comment on the
//! same line or directly above (the reason is mandatory, and a waiver that
//! covers no finding is itself reported). See
//! `docs/static-analysis.md` for the catalog, which tool enforces each rule,
//! and the how-to-add-a-rule walkthrough.

#![forbid(unsafe_code)]

pub mod budget;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use budget::Budget;
pub use rules::{Finding, RuleInfo, RULES};
pub use source::SourceFile;
pub use workspace::{find_root, lint_workspace, LintReport};
