//! The rule catalog.
//!
//! Every rule is grounded in an invariant the workspace already relies on —
//! mostly the headline guarantee that `results.json` is byte-identical across
//! any `--jobs` / shard / resume split. The rules are
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
/// A nondeterministic iteration or a lossy float print in any of these can
/// break the byte-identity guarantee.
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
/// never into results.json), and the serve coordinator (lease deadlines and
/// heartbeat timeouts are liveness mechanics — they decide *when* work is
/// re-dispatched, never what any result contains). The bench harness crate
/// and piccolo-obs (which owns event timestamps) are exempted wholesale by
/// crate name, not listed here.
pub const WALL_CLOCK_ALLOWED_FILES: &[&str] = &[
    "crates/accel/src/pipeline.rs",
    "crates/serve/src/coordinator.rs",
];

/// Files allowed to format floats: the unit-result codec built on the lossless
/// shortest-round-trip JSON writer (`crates/obs/src/json.rs`, outside the
/// result-producing crates and hence outside the rule's scope).
pub const FLOAT_FORMAT_ALLOWED_FILES: &[&str] = &["crates/core/src/campaign/codec.rs"];

/// Library files outside piccolo-io that parse untrusted text — journal and
/// event lines, wire frames, HTTP requests — and so fall under panic-policy.
pub const PANIC_POLICY_FILES: &[&str] = &[
    "crates/obs/src/json.rs",
    "crates/obs/src/linecodec.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/http.rs",
];

/// The full catalog, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-hash-collections",
        summary: "std HashMap/HashSet forbidden in result-producing crates",
        explain: "\
std::collections::HashMap and HashSet use SipHash with a per-process random
seed: iterating one yields a different order every run. A single iteration
order leaking into anything that feeds results.json, the run journal, or a
shard document silently breaks the byte-identity guarantee the campaign
tests, shard merge, and resume all depend on. In the result-producing crates
(piccolo-graph, -accel, -cache, -dram, piccolo, -io, -serve) use BTreeMap/BTreeSet,
a Vec, or a key-indexed table instead — lookups stay O(log n) and every
iteration is sorted, hence deterministic. The rule is name-based (any
identifier token `HashMap`/`HashSet` outside comments, strings, and
#[cfg(test)] code), so a deliberately deterministic wrapper with the same
name still needs an allow comment.",
    },
    RuleInfo {
        name: "no-wall-clock",
        summary: "Instant::now/SystemTime::now only in bench + the phase profiler",
        explain: "\
Wall-clock reads are the classic nondeterminism leak: a timestamp that flows
into an output document, a timing-dependent branch, or an ordering decision
makes two identical runs differ. Simulated time in this workspace is derived
from DRAM clocks (RunResult::elapsed_ns = accel_cycles / clock_ghz), so
library code never needs a real clock. The only legitimate consumers are the
bench harness crate (wall time IS its product), piccolo-obs (event
timestamps and phase durations are its product, and they only ever flow OUT
into obs artifacts), the pipeline phase wall-profiler
(crates/accel/src/pipeline.rs, whose numbers reach stderr/events/BENCH.json,
never results.json), and the serve coordinator
(crates/serve/src/coordinator.rs, whose lease deadlines decide when units
are re-dispatched — at-least-once execution with by-slot dedup makes the
result bytes independent of that timing). Everything else is an error.",
    },
    RuleInfo {
        name: "no-bare-eprintln",
        summary: "driver crates must log through the piccolo-obs stderr sink",
        explain: "\
The repro binary, the bench harness, and the graphtool CLI route their
diagnostics through the piccolo-obs stderr sink, so `--log-level quiet`
really silences them and every message carries a level. A bare `eprintln!`
(or `eprint!`) bypasses the sink: it ignores the level filter, garbles the
`--progress` renderer's line rewriting, and is invisible to any attached
event sink. This rule forbids the two macros in the driver surfaces —
piccolo-bench outside tests/, piccolo-io's src/bin/ CLIs, and all of
piccolo-serve (the daemon and worker are driver surfaces end to end) — where
obs::error/warn/info/debug are the drop-in replacements. Library crates are
out of scope (they do not print), as is piccolo-obs itself (the stderr sink
is the one legitimate writer).",
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
        name: "safety-comment",
        summary: "every `unsafe` needs an immediately preceding // SAFETY: comment",
        explain: "\
The workspace's unsafe code is concentrated in the hand-rolled mmap wrapper,
the zero-copy .pcsr section casts, and the SharedSlice storage layer — all
places where the safety argument is a real proof obligation (alignment,
lifetime of the mapping, Send/Sync of a raw pointer). The convention those
sites established is a `// SAFETY:` comment directly above each unsafe
token. This rule pins the convention: every `unsafe` occurrence (block, fn,
impl, trait) must have a comment containing `SAFETY:` either earlier on the
same line or in the contiguous comment block on the lines immediately above.
Two adjacent unsafe impls need two comments — each site carries its own
argument.",
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
    RuleInfo {
        name: "panic-policy",
        summary: "no unwrap/expect/panic! in code that parses untrusted input",
        explain: "\
piccolo-io parses untrusted bytes: text graphs, snapshots, manifests — a
corrupt file must surface as the typed IoError the callers match on (corrupt
snapshots are re-parsed), never as a process abort. The same holds for the
text that reaches the rest of the workspace from files and sockets: the JSON
parser (crates/obs/src/json.rs) and line codec (crates/obs/src/linecodec.rs)
read journals, event logs and wire frames, and the coordinator's frame and
HTTP handling (crates/serve/src/protocol.rs, crates/serve/src/http.rs) faces
the network, where one panic is a remote abort. This rule forbids
`.unwrap()`, `.expect(…)`, and `panic!` in piccolo-io library code (src/,
excluding src/bin/ CLI tools) and in those four files, outside #[cfg(test)]
modules. Infallible conversions should be restructured so the
infallibility is in the types (e.g. fixed-size array reads) rather than
asserted at runtime; where that is genuinely impossible, an allow comment
must state why the panic is unreachable.",
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
    no_hash_collections(file, &mut out);
    no_wall_clock(file, &mut out);
    no_bare_eprintln(file, &mut out);
    float_format_via_codec(file, &mut out);
    safety_comment(file, &mut out);
    panic_policy(file, &mut out);
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
// Rule: no-hash-collections
// ---------------------------------------------------------------------------

fn no_hash_collections(file: &SourceFile, out: &mut Vec<Finding>) {
    if !RESULT_CRATES.contains(&file.crate_name.as_str())
        || !matches!(file.role, FileRole::Library { .. })
    {
        return;
    }
    for t in &file.tokens {
        if t.kind != TokKind::Ident || file.in_test_code(t.start) {
            continue;
        }
        let name = t.text(&file.text);
        if name == "HashMap" || name == "HashSet" {
            out.push(finding(
                "no-hash-collections",
                file,
                t,
                format!(
                    "{name} iteration order is nondeterministic; use \
                     BTreeMap/BTreeSet or a Vec (byte-identical results.json)"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-wall-clock
// ---------------------------------------------------------------------------

fn no_wall_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.crate_name == "piccolo-bench"
        || file.crate_name == "piccolo-obs"
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
                    "{name}::now outside the bench harness / phase profiler; \
                     derive time from simulated clocks"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-bare-eprintln
// ---------------------------------------------------------------------------

fn no_bare_eprintln(file: &SourceFile, out: &mut Vec<Finding>) {
    // Driver surfaces only: the bench harness / repro binary (everything in
    // piccolo-bench outside tests/) and piccolo-io's src/bin CLIs. piccolo-obs
    // itself — the stderr sink — is the one legitimate eprintln writer.
    let in_scope = match file.crate_name.as_str() {
        "piccolo-bench" => !file.rel_path.contains("/tests/"),
        "piccolo-io" => file.role == (FileRole::Library { is_bin: true }),
        // The serve daemon and worker are driver surfaces end to end.
        "piccolo-serve" => true,
        _ => false,
    };
    if !in_scope {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test_code(t.start) {
            continue;
        }
        let name = t.text(&file.text);
        if (name == "eprintln" || name == "eprint") && punct_is(file, i + 1, "!") {
            out.push(finding(
                "no-bare-eprintln",
                file,
                t,
                format!(
                    "{name}! in a driver crate bypasses the piccolo-obs stderr \
                     sink; use obs::error/warn/info/debug so --log-level applies"
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
        || !matches!(file.role, FileRole::Library { .. })
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
#[allow(clippy::too_many_arguments)]
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

// ---------------------------------------------------------------------------
// Rule: safety-comment
// ---------------------------------------------------------------------------

fn safety_comment(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text(&file.text) != "unsafe" {
            continue;
        }
        if has_safety_comment(file, i) {
            continue;
        }
        out.push(finding(
            "safety-comment",
            file,
            t,
            "unsafe without an immediately preceding // SAFETY: comment".to_string(),
        ));
    }
}

/// A comment containing `SAFETY:` either earlier on the same line as token
/// `i`, or in the contiguous comment-block on the lines directly above it
/// (no code lines in between).
fn has_safety_comment(file: &SourceFile, i: usize) -> bool {
    let tok = &file.tokens[i];
    // Same-line: any comment before this token on its line.
    for t in &file.tokens {
        if t.start >= tok.start {
            break;
        }
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
            && t.end_line(&file.text) == tok.line
            && t.text(&file.text).contains("SAFETY:")
        {
            return true;
        }
    }
    // Lines above: walk up while each line ends a comment token (attributes
    // between a SAFETY comment and the unsafe token are not bridged — the
    // comment must sit directly on top of the item).
    let mut line = tok.line;
    while line > 1 {
        line -= 1;
        let mut line_tokens = file
            .tokens
            .iter()
            .filter(|t| t.line <= line && t.end_line(&file.text) >= line)
            .peekable();
        if line_tokens.peek().is_none() {
            return false; // blank line breaks the block
        }
        let mut all_comments = true;
        let mut has_safety = false;
        for t in line_tokens {
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => {
                    if t.text(&file.text).contains("SAFETY:") {
                        has_safety = true;
                    }
                }
                _ => all_comments = false,
            }
        }
        if !all_comments {
            return false;
        }
        if has_safety {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: panic-policy
// ---------------------------------------------------------------------------

fn panic_policy(file: &SourceFile, out: &mut Vec<Finding>) {
    let io_library =
        file.crate_name == "piccolo-io" && file.role == (FileRole::Library { is_bin: false });
    if !io_library && !PANIC_POLICY_FILES.contains(&file.rel_path.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test_code(t.start) {
            continue;
        }
        let name = t.text(&file.text);
        let hit = match name {
            "unwrap" | "expect" => {
                i > 0 && punct_is(file, i - 1, ".") && punct_is(file, i + 1, "(")
            }
            "panic" => punct_is(file, i + 1, "!"),
            _ => false,
        };
        if hit {
            out.push(finding(
                "panic-policy",
                file,
                t,
                format!(
                    "{name} in code that parses untrusted input; corrupt input must \
                     surface as a typed error, not a panic"
                ),
            ));
        }
    }
}
