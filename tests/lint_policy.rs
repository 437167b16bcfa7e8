//! Pins the lint configuration that enforces the workspace's determinism and
//! safety rules. Tier-1 never runs clippy, so this test checks that the
//! settings which make rustc and clippy reject a violation are still in place
//! (see docs/static-analysis.md).

use std::path::{Path, PathBuf};

/// The repository root, which is this umbrella package's manifest directory.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
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

/// The text of the `key = [ … ]` array in `clippy.toml`.
fn toml_array(text: &str, key: &str) -> String {
    text.lines()
        .skip_while(|l| !l.starts_with(&format!("{key} = [")))
        .take_while(|l| *l != "]")
        .collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The inner attributes (`#![…]`) of a source file, each from `#![` to its
/// closing `)]`.
fn inner_attributes(text: &str) -> Vec<&str> {
    text.match_indices("#![")
        .map(|(at, _)| {
            let rest = &text[at..];
            &rest[..rest.find(")]").map_or(rest.len(), |end| end + 2)]
        })
        .collect()
}

#[test]
fn the_clippy_policy_enforces_the_migrated_rules() {
    // Rustc and clippy reject hash collections, wall-clock reads, bare stderr
    // writes, unsafe code, undocumented unsafe blocks and panics on untrusted
    // input. Tier-1 never runs clippy, so pin the configuration that makes
    // them do so.
    let root = workspace_root();

    let clippy = read(&root.join("clippy.toml"));
    let disallowed_types = toml_array(&clippy, "disallowed-types");
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            disallowed_types.contains(&format!("path = \"{ty}\"")),
            "clippy.toml must list {ty} in disallowed-types"
        );
    }
    let disallowed_methods = toml_array(&clippy, "disallowed-methods");
    for method in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            disallowed_methods.contains(&format!("path = \"{method}\"")),
            "clippy.toml must list {method} in disallowed-methods"
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
    let rust_lints = toml_table(&manifest, "[workspace.lints.rust]");
    assert!(
        rust_lints.contains(&"unsafe_code = \"deny\""),
        "[workspace.lints.rust] must hold unsafe_code = \"deny\"; it holds {rust_lints:?}"
    );
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

    // piccolo-io's library and the two untrusted-text modules outside it.
    for file in [
        "crates/io/src/lib.rs",
        "crates/obs/src/json.rs",
        "crates/obs/src/linecodec.rs",
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
    assert!(members.len() >= 9, "workspace members: {members:?}");
    for dir in std::iter::once(".").chain(members.iter().copied()) {
        let member = read(&root.join(dir).join("Cargo.toml"));
        assert_eq!(
            toml_table(&member, "[lints]"),
            ["workspace = true"],
            "{dir}/Cargo.toml must inherit [workspace.lints]"
        );
    }

    // Each clock waiver sits on the one function or statement that reads the
    // clock. A crate- or module-level `disallowed_methods` expectation would
    // also admit a clock read into the code beside it, such as piccolo-obs's
    // codecs, whose bytes reach results.json and the run journal.
    let mut sources = Vec::new();
    for dir in &members {
        rust_files(&root.join(dir).join("src"), &mut sources);
    }
    assert!(sources.contains(&root.join("crates/obs/src/lib.rs")));
    for file in &sources {
        for attr in inner_attributes(&read(file)) {
            assert!(
                !attr.contains("disallowed_methods"),
                "{}: `{attr}` waives the clock rule for a whole crate or module; \
                 put the #[expect] on the function that reads the clock",
                file.display()
            );
        }
    }
}
