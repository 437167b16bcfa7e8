//! A lexed source file plus the structural facts rules share: which crate the
//! file belongs to, which byte ranges are `#[cfg(test)]` code, and where
//! `// lint: allow(…)` suppression comments sit.

use crate::lexer::{lex, TokKind, Token};

/// Where in the workspace a file sits — rules scope themselves by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// `src/**` of a library or binary target.
    Library,
    /// `tests/**`, `benches/**`, or `examples/**` — integration-test-adjacent
    /// code that most rules skip.
    TestOrBench,
}

/// A lexed file with its workspace-relative path and derived facts.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Cargo package name owning the file (e.g. `piccolo-io`), derived from
    /// the directory layout (`crates/<dir>/…`; the repo root is the umbrella).
    pub crate_name: String,
    pub role: FileRole,
    pub text: String,
    pub tokens: Vec<Token>,
    /// Byte ranges of `#[cfg(test)]`-gated items (modules or single items).
    test_ranges: Vec<(usize, usize)>,
    /// Parsed `// lint: allow(rule, reason)` comments.
    suppressions: Vec<Suppression>,
}

/// One `// lint: allow(rule-name, reason)` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rule: String,
    pub reason: String,
    /// Line the comment ends on; it suppresses findings on this line and the
    /// next ones up through the first non-comment line.
    pub line: u32,
}

/// Maps a workspace-relative path to its Cargo package name. Mirrors the
/// actual layout: `crates/<dir>` packages are named in each `Cargo.toml`, but
/// only two differ from `piccolo-<dir>` (`crates/core` is `piccolo`; the root
/// is the umbrella `piccolo-repro`).
pub fn crate_of(rel_path: &str) -> String {
    match rel_path.split('/').nth(1) {
        Some(dir) if rel_path.starts_with("crates/") => match dir {
            "core" => "piccolo".to_string(),
            other => format!("piccolo-{other}"),
        },
        _ => "piccolo-repro".to_string(),
    }
}

fn role_of(rel_path: &str) -> FileRole {
    let within = match rel_path.strip_prefix("crates/") {
        Some(rest) => rest.split_once('/').map_or(rest, |(_, r)| r),
        None => rel_path,
    };
    if within.starts_with("tests/")
        || within.starts_with("benches/")
        || within.starts_with("examples/")
    {
        FileRole::TestOrBench
    } else {
        FileRole::Library
    }
}

impl SourceFile {
    /// Lexes `text` and computes the derived facts.
    pub fn new(rel_path: &str, text: String) -> Self {
        let tokens = lex(&text);
        let test_ranges = find_test_ranges(&text, &tokens);
        let suppressions = find_suppressions(&text, &tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_of(rel_path),
            role: role_of(rel_path),
            text,
            tokens,
            test_ranges,
            suppressions,
        }
    }

    /// True when the byte offset falls inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, offset: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// Returns the suppression covering `line` for `rule`, if any. A
    /// suppression comment covers its own line and every following line up to
    /// and including the first non-comment line (so a comment block directly
    /// above the flagged statement works, as does a trailing same-line
    /// comment).
    pub fn suppressed(&self, rule: &str, line: u32) -> Option<&Suppression> {
        self.suppressions.iter().find(|s| {
            if s.rule != rule {
                return false;
            }
            // A trailing comment (code before it on the same line) covers only
            // that line; a comment-only line covers forward over further
            // comment-only lines through the first code line.
            let mut covered = s.line;
            if self.line_is_comment_only(s.line) {
                loop {
                    let next = covered + 1;
                    if next > s.line + 32 {
                        break; // bound the scan; 32 comment lines is plenty
                    }
                    covered = next;
                    if !self.line_is_comment_only(next) {
                        break;
                    }
                }
            }
            line >= s.line && line <= covered
        })
    }

    fn line_is_comment_only(&self, line: u32) -> bool {
        let mut saw = false;
        for t in &self.tokens {
            if t.line > line {
                break;
            }
            if t.end_line(&self.text) < line {
                continue;
            }
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => saw = true,
                _ => return false,
            }
        }
        saw
    }

    /// All suppressions (for the suppression audit in `lint_workspace`).
    pub fn suppressions(&self) -> &[Suppression] {
        &self.suppressions
    }
}

/// Finds every `#[cfg(test)]` attribute and the byte range of the item it
/// gates. The attribute match is exact — `cfg(test)`, nothing else — so
/// `#[cfg(not(test))]` code stays linted.
fn find_test_ranges(text: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(text, tokens, i) {
            // Skip the 7 attribute tokens: # [ cfg ( test ) ]
            let mut j = i + 7;
            // Skip any further attributes (`#[…]`) and comments before the item.
            loop {
                while j < tokens.len()
                    && matches!(tokens[j].kind, TokKind::LineComment | TokKind::BlockComment)
                {
                    j += 1;
                }
                if j + 1 < tokens.len()
                    && tokens[j].kind == TokKind::Punct
                    && tokens[j].text(text) == "#"
                    && tokens[j + 1].text(text) == "["
                {
                    j = match skip_balanced(text, tokens, j + 1, "[", "]") {
                        Some(next) => next,
                        None => break,
                    };
                } else {
                    break;
                }
            }
            // The item body: everything to the matching `}` of its first
            // top-level `{`, or to a `;` that arrives first (`mod tests;`).
            let start = tokens[i].start;
            let mut depth_paren = 0i32;
            let mut end = None;
            let mut k = j;
            while k < tokens.len() {
                let t = &tokens[k];
                if t.kind == TokKind::Punct {
                    match t.text(text) {
                        "(" | "[" => depth_paren += 1,
                        ")" | "]" => depth_paren -= 1,
                        ";" if depth_paren == 0 => {
                            end = Some(t.end);
                            break;
                        }
                        "{" if depth_paren == 0 => {
                            end = skip_balanced(text, tokens, k, "{", "}")
                                .map(|next| tokens[next - 1].end);
                            break;
                        }
                        _ => {}
                    }
                }
                k += 1;
            }
            if let Some(e) = end {
                out.push((start, e));
                i = k;
            }
        }
        i += 1;
    }
    out
}

/// True when tokens[i..] start an exact `#[cfg(test)]` attribute.
fn is_cfg_test_attr(text: &str, tokens: &[Token], i: usize) -> bool {
    let want = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + want.len()
        && want
            .iter()
            .enumerate()
            .all(|(k, w)| tokens[i + k].text(text) == *w)
}

/// Starting at the index of an `open` token, returns the index one past its
/// matching `close`.
fn skip_balanced(
    text: &str,
    tokens: &[Token],
    open_idx: usize,
    open: &str,
    close: &str,
) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.kind == TokKind::Punct {
            let s = t.text(text);
            if s == open {
                depth += 1;
            } else if s == close {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
        }
    }
    None
}

/// Parses every `// lint: allow(rule-name, reason)` comment. The reason is
/// mandatory: an allow without one is itself reported by the driver.
fn find_suppressions(text: &str, tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        // The directive must be the comment's content, not a prose mention of
        // the syntax: strip the comment markers and require `lint: allow(`
        // first. (Doc comments *describing* the syntax thus never match.)
        let body = t
            .text(text)
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim();
        if !body.starts_with("lint: allow(") {
            continue;
        }
        let rest = &body["lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let inner = &rest[..close];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        out.push(Suppression {
            rule: rule.to_string(),
            reason: reason.to_string(),
            line: t.end_line(text),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_names_follow_the_layout() {
        assert_eq!(crate_of("crates/io/src/pcsr.rs"), "piccolo-io");
        assert_eq!(crate_of("crates/core/src/json.rs"), "piccolo");
        assert_eq!(crate_of("src/lib.rs"), "piccolo-repro");
        assert_eq!(crate_of("tests/end_to_end.rs"), "piccolo-repro");
        assert_eq!(crate_of("examples/quickstart.rs"), "piccolo-repro");
    }

    #[test]
    fn roles_split_library_from_tests_and_bins() {
        assert_eq!(
            role_of("crates/bench/src/bin/graphtool.rs"),
            FileRole::Library
        );
        assert_eq!(role_of("crates/io/src/pcsr.rs"), FileRole::Library);
        assert_eq!(
            role_of("crates/io/tests/roundtrip.rs"),
            FileRole::TestOrBench
        );
        assert_eq!(role_of("tests/end_to_end.rs"), FileRole::TestOrBench);
        assert_eq!(role_of("examples/quickstart.rs"), FileRole::TestOrBench);
        assert_eq!(
            role_of("crates/bench/benches/figures.rs"),
            FileRole::TestOrBench
        );
    }

    #[test]
    fn cfg_test_modules_are_ranged() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let x = 1; }\n}\nfn after() {}\n";
        let f = SourceFile::new("crates/io/src/x.rs", src.to_string());
        let live = src.find("live").unwrap();
        let inside = src.find("let x").unwrap();
        let after = src.find("after").unwrap();
        assert!(!f.in_test_code(live));
        assert!(f.in_test_code(inside));
        assert!(!f.in_test_code(after));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_range() {
        let src = "#[cfg(not(test))]\nmod real { fn f() {} }\n";
        let f = SourceFile::new("crates/io/src/x.rs", src.to_string());
        assert!(!f.in_test_code(src.find("fn f").unwrap()));
    }

    #[test]
    fn cfg_test_with_extra_attribute_between() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\n";
        let f = SourceFile::new("crates/io/src/x.rs", src.to_string());
        assert!(f.in_test_code(src.find("fn t").unwrap()));
    }

    #[test]
    fn suppressions_cover_same_line_and_next_code_line() {
        let src = "\
// lint: allow(no-wall-clock, timing the CLI banner)
let t = Instant::now();
let u = Instant::now(); // lint: allow(no-wall-clock, same line)
let v = Instant::now();
";
        let f = SourceFile::new("crates/io/src/x.rs", src.to_string());
        assert!(f.suppressed("no-wall-clock", 2).is_some());
        assert!(f.suppressed("no-wall-clock", 3).is_some());
        assert!(f.suppressed("no-wall-clock", 4).is_none());
        assert!(f.suppressed("some-other-rule", 2).is_none());
    }

    #[test]
    fn suppression_reason_is_parsed() {
        let f = SourceFile::new(
            "crates/io/src/x.rs",
            "// lint: allow(no-wall-clock, timing the CLI banner)\nlet x = 1;\n".to_string(),
        );
        let s = &f.suppressions()[0];
        assert_eq!(s.rule, "no-wall-clock");
        assert_eq!(s.reason, "timing the CLI banner");
    }
}
