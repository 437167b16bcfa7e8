//! `piccolo-lint` — a workspace-wide determinism & safety analyzer.
//!
//! The workspace's core guarantee — byte-identical `results.json` across any
//! `--jobs` / shard / resume split — is protected after the
//! fact by property tests. This crate protects it *before* the fact: a
//! hand-rolled, comment- and string-aware Rust lexer ([`lexer`]) feeds a rule
//! catalog ([`rules`]) that statically rejects the classic regressions
//! (nondeterministic `HashMap` iteration in a result path, wall-clock reads
//! outside the profiler, lossy float formatting outside the codec, `unsafe`
//! without a safety argument, unbudgeted unsafe growth, panics in the typed
//! I/O error path).
//!
//! The offline stable-only toolchain rules out Miri and nightly sanitizers,
//! so — in the same spirit as the in-crate PRNG, JSON writer, and DEFLATE
//! inflater — the analysis lives in the workspace itself and runs in CI in
//! `--deny` mode.
//!
//! Diagnostics are `file:line:col: rule: message`; individual findings can be
//! waived with an inline `// lint: allow(rule-name, reason)` comment on the
//! same line or directly above (the reason is mandatory and audited). See
//! `docs/static-analysis.md` for the catalog and the how-to-add-a-rule
//! walkthrough.

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
