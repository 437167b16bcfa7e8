//! The rule catalog.
//!
//! Every rule is grounded in the headline guarantee that `results.json` is
//! byte-identical across any `--jobs` / shard / resume split. The catalog
//! holds only what clippy cannot check (the clippy-enforced part of the policy
//! lives in `clippy.toml` and `[workspace.lints.clippy]`). The rules are
//! token-level analyses over [`SourceFile`]s: no type information, so each
//! rule documents its heuristic precisely and `// lint: allow(rule, reason)`
//! is the escape hatch for the false positives a heuristic admits.

use crate::budget::Budget;
use crate::lexer::{TokKind, Token};
use crate::source::{FileRole, SourceFile};

/// One diagnostic: `file:line:col: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub rel_path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.rel_path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Name, one-line summary, and `--explain` rationale for a rule.
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
    pub explain: &'static str,
}

/// The crates whose output feeds `results.json` / the journal / shard docs.
/// A lossy float print in any of these can break the byte-identity guarantee.
pub const RESULT_CRATES: &[&str] = &[
    "piccolo-graph",
    "piccolo-accel",
    "piccolo-cache",
    "piccolo-dram",
    "piccolo",
    "piccolo-io",
    "piccolo-serve",
];

/// Files allowed to call `Instant::now` / `SystemTime::now`: the phase
/// wall-profiler in the pipeline (its numbers flow out through piccolo-obs,
/// never into results.json), `repro`'s stats-line timer (printed, never
/// written to a document), and the serve coordinator (lease deadlines and
/// heartbeat timeouts are liveness mechanics — they decide *when* work is
/// re-dispatched, never what any result contains). piccolo-obs (which owns
/// event timestamps) is exempted wholesale by crate name, and tests and
/// benches by file role, not listed here.
pub const WALL_CLOCK_ALLOWED_FILES: &[&str] = &[
    "crates/accel/src/pipeline.rs",
    "crates/bench/src/bin/repro.rs",
    "crates/serve/src/coordinator.rs",
];

/// Files allowed to format floats: the unit-result codec built on the lossless
/// shortest-round-trip JSON writer (`crates/obs/src/json.rs`, outside the
/// result-producing crates and hence outside the rule's scope).
pub const FLOAT_FORMAT_ALLOWED_FILES: &[&str] = &["crates/core/src/campaign/codec.rs"];

/// The full catalog, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-wall-clock",
        summary: "Instant::now/SystemTime::now only in obs, benches and allowlisted files",
        explain: "\
Wall-clock reads are the classic nondeterminism leak: a timestamp that flows
into an output document, a timing-dependent branch, or an ordering decision
makes two identical runs differ. Simulated time in this workspace is derived
from DRAM clocks (RunResult::elapsed_ns = accel_cycles / clock_ghz), so
library code never needs a real clock. The only legitimate consumers are
tests and benches, piccolo-obs (event timestamps and phase durations are its
product, and they only ever flow OUT into obs artifacts), the pipeline phase
wall-profiler (crates/accel/src/pipeline.rs, whose numbers reach
stderr/events, never results.json), repro's stats-line timer
(crates/bench/src/bin/repro.rs, printed and never written to a document),
and the serve coordinator
(crates/serve/src/coordinator.rs, whose lease deadlines decide when units
are re-dispatched — at-least-once execution with by-slot dedup makes the
result bytes independent of that timing). Everything else is an error.",
    },
    RuleInfo {
        name: "float-format-via-codec",
        summary: "float formatting outside the lossless codec files",
        explain: "\
`{}`/`{:?}`/precision formatting of an f64 is lossy ({} prints the shortest
string that still round-trips, but {:.3} and friends do not), and hand-rolled
float prints are how a value that no longer round-trips reaches results.json
or the journal. Every float that lands in an output document must go through
crates/obs/src/json.rs (shortest-round-trip writer) or the unit-result
codec built on it (crates/core/src/campaign/codec.rs). This rule is a
heuristic over tokens in the result-producing crates: it flags (a) format
placeholders whose argument expression contains a float literal, an
`as f64`/`as f32` cast, or an identifier declared with type f64/f32 in the
same file; (b) any placeholder using precision or exponent specs ({:.3},
{:e}) — precision formatting is float formatting in practice; (c)
`.to_string()` called directly on such an expression. Human-facing CLI
output that genuinely wants a rounded float takes an allow comment with a
reason stating it is never parsed back.",
    },
    RuleInfo {
        name: "unsafe-budget",
        summary: "per-crate unsafe counts must match lint-budget.toml",
        explain: "\
lint-budget.toml at the workspace root commits the number of `unsafe` tokens
per crate. The linter counts actual occurrences (all files of the crate,
tests included — token-level, so comments and strings never count) and
errors on any drift in either direction: new unsafe requires an explicit
budget bump in the same diff (a reviewable, greppable event), and removed
unsafe requires the budget to come down so it stays honest. Crates at zero
also carry #![forbid(unsafe_code)], making the zero compiler-enforced.",
    },
];

/// Looks up a rule by name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Runs every per-file rule on `file`. Suppressions are applied by the
/// caller (so it can also audit unused allows).
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    no_wall_clock(file, &mut out);
    float_format_via_codec(file, &mut out);
    out
}

/// Runs the workspace-level rule: per-crate unsafe counts vs the budget.
pub fn check_unsafe_budget(files: &[SourceFile], budget: &Budget) -> Vec<Finding> {
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in files {
        let n = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text(&f.text) == "unsafe")
            .count();
        *counts.entry(f.crate_name.as_str()).or_insert(0) += n;
    }
    let mut out = Vec::new();
    for (krate, &actual) in &counts {
        match budget.get(krate) {
            Some(allowed) if allowed == actual => {}
            Some(allowed) => out.push(Finding {
                rule: "unsafe-budget",
                rel_path: "lint-budget.toml".to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "crate {krate} has {actual} unsafe token(s) but the budget says \
                     {allowed}; change requires an explicit lint-budget.toml update"
                ),
            }),
            None => {
                if actual > 0 {
                    out.push(Finding {
                        rule: "unsafe-budget",
                        rel_path: "lint-budget.toml".to_string(),
                        line: 1,
                        col: 1,
                        message: format!(
                            "crate {krate} has {actual} unsafe token(s) but no \
                             lint-budget.toml entry"
                        ),
                    });
                }
            }
        }
    }
    for krate in budget.crates() {
        if !counts.contains_key(krate.as_str()) {
            out.push(Finding {
                rule: "unsafe-budget",
                rel_path: "lint-budget.toml".to_string(),
                line: 1,
                col: 1,
                message: format!("budget entry for unknown crate {krate}"),
            });
        }
    }
    out
}

fn finding(rule: &'static str, file: &SourceFile, tok: &Token, message: String) -> Finding {
    Finding {
        rule,
        rel_path: file.rel_path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

fn ident_is(file: &SourceFile, i: usize, s: &str) -> bool {
    file.tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text(&file.text) == s)
}

fn punct_is(file: &SourceFile, i: usize, s: &str) -> bool {
    file.tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text(&file.text) == s)
}

// ---------------------------------------------------------------------------
// Rule: no-wall-clock
// ---------------------------------------------------------------------------

fn no_wall_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.crate_name == "piccolo-obs"
        || WALL_CLOCK_ALLOWED_FILES.contains(&file.rel_path.as_str())
        || file.role == FileRole::TestOrBench
    {
        return;
    }
    for i in 0..file.tokens.len() {
        let t = &file.tokens[i];
        if t.kind != TokKind::Ident || file.in_test_code(t.start) {
            continue;
        }
        let name = t.text(&file.text);
        if (name == "Instant" || name == "SystemTime")
            && punct_is(file, i + 1, ":")
            && punct_is(file, i + 2, ":")
            && ident_is(file, i + 3, "now")
        {
            out.push(finding(
                "no-wall-clock",
                file,
                t,
                format!(
                    "{name}::now outside piccolo-obs, benches and the allowlisted \
                     files; derive time from simulated clocks"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: float-format-via-codec
// ---------------------------------------------------------------------------

const FORMAT_MACROS: &[&str] = &[
    "format",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "format_args",
];

/// Macros whose first argument is a writer, not the format string.
const WRITER_FIRST: &[&str] = &["write", "writeln"];

fn float_format_via_codec(file: &SourceFile, out: &mut Vec<Finding>) {
    if !RESULT_CRATES.contains(&file.crate_name.as_str())
        || file.role != FileRole::Library
        || FLOAT_FORMAT_ALLOWED_FILES.contains(&file.rel_path.as_str())
    {
        return;
    }
    let floats = local_float_idents(file);
    let toks = &file.tokens;

    // `.to_string()` on a float literal or known-float identifier.
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test_code(tok.start) {
            continue;
        }
        let receiver_is_float = match tok.kind {
            TokKind::Float => true,
            TokKind::Ident => floats.contains(&tok.text(&file.text).to_string()),
            _ => false,
        };
        if receiver_is_float
            && punct_is(file, i + 1, ".")
            && ident_is(file, i + 2, "to_string")
            && punct_is(file, i + 3, "(")
        {
            out.push(finding(
                "float-format-via-codec",
                file,
                &toks[i],
                "float .to_string() outside the codec; floats reaching output \
                 documents must use the shortest-round-trip writer (json.rs)"
                    .to_string(),
            ));
        }
    }

    // Format macro calls.
    let mut i = 0;
    while i + 2 < toks.len() {
        let is_macro = toks[i].kind == TokKind::Ident
            && FORMAT_MACROS.contains(&toks[i].text(&file.text))
            && punct_is(file, i + 1, "!")
            && punct_is(file, i + 2, "(");
        if !is_macro || file.in_test_code(toks[i].start) {
            i += 1;
            continue;
        }
        let macro_tok = i;
        let name = toks[i].text(&file.text);
        // Collect tokens of the balanced (…) region and split depth-1 commas.
        let mut depth = 0i32;
        let mut args: Vec<Vec<usize>> = vec![Vec::new()];
        let mut j = i + 2;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text(&file.text) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "," if depth == 1 => {
                        args.push(Vec::new());
                        j += 1;
                        continue;
                    }
                    _ => {}
                }
            }
            if depth >= 1 && !(depth == 1 && t.text(&file.text) == "(" && j == i + 2) {
                args.last_mut().expect("non-empty").push(j);
            }
            j += 1;
        }
        let end = j;
        let mut arg_slices: Vec<&[usize]> = args.iter().map(Vec::as_slice).collect();
        if WRITER_FIRST.contains(&name) && !arg_slices.is_empty() {
            arg_slices.remove(0);
        }
        let Some(fmt_slice) = arg_slices.first().copied() else {
            i = end.max(i + 1);
            continue;
        };
        let fmt_tok = fmt_slice
            .iter()
            .map(|&k| &toks[k])
            .find(|t| t.kind == TokKind::Str);
        if let Some(fmt_tok) = fmt_tok {
            let positional: Vec<&[usize]> = arg_slices
                .iter()
                .skip(1)
                .filter(|s| !is_named_arg(file, s))
                .copied()
                .collect();
            let named: Vec<(&str, &[usize])> = arg_slices
                .iter()
                .skip(1)
                .filter(|s| is_named_arg(file, s))
                .map(|s| (toks[s[0]].text(&file.text), &s[2..]))
                .collect();
            check_placeholders(file, &floats, fmt_tok, &positional, &named, macro_tok, out);
        }
        i = end.max(i + 1);
    }
}

/// `name = expr` at the top level of a format arg.
fn is_named_arg(file: &SourceFile, slice: &[usize]) -> bool {
    slice.len() >= 3
        && file.tokens[slice[0]].kind == TokKind::Ident
        && punct_is(file, slice[1], "=")
        && !punct_is(file, slice[2], "=")
}

/// Everything the float heuristic can see in one expression slice.
fn expr_is_floatish(file: &SourceFile, floats: &[String], slice: &[usize]) -> bool {
    for (k, &idx) in slice.iter().enumerate() {
        let t = &file.tokens[idx];
        match t.kind {
            TokKind::Float => return true,
            TokKind::Ident => {
                let s = t.text(&file.text);
                if (s == "f64" || s == "f32") && k > 0 && ident_is(file, slice[k - 1], "as") {
                    return true;
                }
                if floats.contains(&s.to_string()) {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Walks the placeholders of a format-string literal and flags float-ish ones.
fn check_placeholders(
    file: &SourceFile,
    floats: &[String],
    fmt_tok: &Token,
    positional: &[&[usize]],
    named: &[(&str, &[usize])],
    macro_tok: usize,
    out: &mut Vec<Finding>,
) {
    let raw = fmt_tok.text(&file.text);
    // Strip the quotes (and any r#/b prefix) to get the literal body.
    let body = raw
        .trim_start_matches(['b', 'r', '#'])
        .trim_start_matches('"')
        .trim_end_matches('#')
        .trim_end_matches('"');
    let mut next_positional = 0usize;
    let bytes = body.as_bytes();
    let mut k = 0usize;
    while k < bytes.len() {
        if bytes[k] == b'{' {
            if bytes.get(k + 1) == Some(&b'{') {
                k += 2;
                continue;
            }
            let Some(close_rel) = body[k + 1..].find('}') else {
                break;
            };
            let inner = &body[k + 1..k + 1 + close_rel];
            k += close_rel + 2;
            let (arg_ref, spec) = match inner.split_once(':') {
                Some((a, s)) => (a, s),
                None => (inner, ""),
            };
            let precision_spec = spec_implies_float(spec);
            // Resolve the argument expression this placeholder formats.
            let floatish_arg = if arg_ref.is_empty() {
                let r = positional
                    .get(next_positional)
                    .is_some_and(|s| expr_is_floatish(file, floats, s));
                next_positional += 1;
                r
            } else if let Ok(pos) = arg_ref.parse::<usize>() {
                positional
                    .get(pos)
                    .is_some_and(|s| expr_is_floatish(file, floats, s))
            } else if let Some((_, s)) = named.iter().find(|(n, _)| *n == arg_ref) {
                expr_is_floatish(file, floats, s)
            } else {
                // Inline capture `{x}` / `{x:?}`.
                floats.contains(&arg_ref.to_string())
            };
            if floatish_arg || precision_spec {
                let why = if floatish_arg {
                    format!("placeholder {{{inner}}} formats a float-typed expression")
                } else {
                    format!(
                        "placeholder {{{inner}}} uses a precision/exponent spec \
                         (float formatting in practice)"
                    )
                };
                let t = &file.tokens[macro_tok];
                out.push(finding(
                    "float-format-via-codec",
                    file,
                    t,
                    format!(
                        "{why}; floats reaching output documents must use the \
                         shortest-round-trip writer (json.rs / campaign/codec.rs)"
                    ),
                ));
            }
        } else {
            k += 1;
        }
    }
}

/// Precision (`.3`, `.*`, `.prec$`) or exponent (`e`/`E` type) specs.
fn spec_implies_float(spec: &str) -> bool {
    if spec.ends_with('e') || spec.ends_with('E') {
        return true;
    }
    spec.find('.')
        .is_some_and(|dot| matches!(spec.as_bytes().get(dot + 1), Some(b'0'..=b'9') | Some(b'*')))
}

/// Identifiers declared with an explicit `: f64` / `: f32` in this file —
/// let bindings, fn params, and struct fields all match the same
/// `ident : f64` token triple.
fn local_float_idents(file: &SourceFile) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..file.tokens.len() {
        if file.tokens[i].kind == TokKind::Ident
            && punct_is(file, i + 1, ":")
            && !punct_is(file, i + 2, ":")
            && (ident_is(file, i + 2, "f64") || ident_is(file, i + 2, "f32"))
            && !punct_is(file, i + 3, ":")
        {
            let name = file.tokens[i].text(&file.text).to_string();
            if !out.contains(&name) {
                out.push(name);
            }
        }
    }
    out
}
