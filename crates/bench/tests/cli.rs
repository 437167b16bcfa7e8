//! Argument and input errors of the driver binaries: each one exits 2, and a refused
//! invocation leaves no file behind. A run writes only the files its flags name.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("piccolo-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    let dir = scratch("help");
    for (bin, prog) in [
        (env!("CARGO_BIN_EXE_repro"), "repro"),
        (env!("CARGO_BIN_EXE_graphtool"), "graphtool"),
    ] {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin)
                .current_dir(&dir)
                .arg(flag)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(0), "{prog} {flag}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                stdout.starts_with(&format!("usage: {prog} ")),
                "{prog} {flag}: {stdout}"
            );
            assert_eq!(String::from_utf8_lossy(&out.stderr), "", "{prog} {flag}");
        }
    }
    assert!(entries(&dir).is_empty(), "help wrote {:?}", entries(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_refuses_an_output_that_is_not_pcsr() {
    let dir = scratch("convert");
    std::fs::write(dir.join("g.tsv"), "0\t1\n1\t2\n2\t0\n").unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_graphtool"))
        .current_dir(&dir)
        .args(["convert", "g.tsv", "x.pcsr.d", "--log-level", "quiet"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2), "a usage error");
    assert_eq!(entries(&dir), ["g.tsv"], "nothing is written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_needs_a_journal_and_takes_no_out() {
    let dir = scratch("shard");
    for args in [
        &["fig09", "--shard", "0/2"][..],
        &[
            "fig09", "--shard", "0/2", "--resume", "j.jsonl", "--out", "r.json",
        ],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .args(args)
            .args(["--log-level", "quiet"])
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "{args:?}");
        assert!(
            entries(&dir).is_empty(),
            "{args:?} wrote {:?}",
            entries(&dir)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_figure_is_a_usage_error() {
    let dir = scratch("figure");
    for args in [
        &["fig99", "--quick", "--out", "r.json"][..],
        &["fig09", "fig99"],
        &["fig09", "--metrics", "m.json"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .args(["--log-level", "quiet"])
            .args(args)
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "{args:?}");
        assert!(
            entries(&dir).is_empty(),
            "{args:?} wrote {:?}",
            entries(&dir)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--events` writes the event log and nothing else beside `--out`, and the log
/// checks clean.
#[test]
fn an_events_run_writes_only_the_named_files() {
    let dir = scratch("events");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["fig09", "area", "--quick", "--events", "e.jsonl"])
        .args(["--out", "r.json", "--log-level", "quiet"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(entries(&dir), ["e.jsonl", "r.json"]);
    let report = piccolo_obs::check::check_events(&dir.join("e.jsonl")).unwrap();
    assert!(report.clean(), "{report}\n{}", report.errors.join("\n"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty external graph is refused after it was loaded through the snapshot cache;
/// neither the snapshot that load wrote nor the snapshot dir it created may outlive
/// the refusal.
#[test]
fn an_empty_external_graph_leaves_no_snapshot() {
    let dir = scratch("empty");
    std::fs::write(dir.join("empty.tsv"), "").unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["--quick", "--external", "e=empty.tsv"])
        .args(["--snapshot-dir", "snaps", "--out", "r.json"])
        .args(["--log-level", "quiet"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2), "an input error");
    assert_eq!(
        entries(&dir),
        ["empty.tsv"],
        "no results and no snapshot dir"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An input error names the input and exits 2 without the usage line; an unknown
/// figure is a usage error and prints it.
#[test]
fn only_usage_errors_print_the_usage_line() {
    let dir = scratch("usage");
    std::fs::write(dir.join("empty.tsv"), "").unwrap();
    let stderr = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        String::from_utf8(out.stderr).unwrap()
    };
    let empty = stderr(&[
        "--quick",
        "--external",
        "e=empty.tsv",
        "--snapshot-dir",
        "s",
    ]);
    assert!(
        empty.contains("is empty") && !empty.contains("usage:"),
        "{empty}"
    );
    let merge = stderr(&["fig09", "--quick", "--merge", "missing.jsonl"]);
    assert!(
        merge.contains("missing.jsonl") && !merge.contains("usage:"),
        "{merge}"
    );
    let usage = stderr(&["fig99"]);
    assert!(usage.contains("unknown figure 'fig99'"), "{usage}");
    assert!(usage.contains("usage: repro"), "{usage}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A compressed input whose name starts with `-` is a file, not decoder options.
#[test]
fn compressed_inputs_named_like_options_load_as_files() {
    let dir = scratch("dash");
    std::fs::write(dir.join("n.tsv"), "0\t1\n1\t2\n2\t0\n0\t2\n").unwrap();
    let convert = |input: &str, output: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_graphtool"))
            .current_dir(&dir)
            .args(["convert", input, output, "--log-level", "quiet"])
            .output()
            .unwrap();
        assert!(out.status.success(), "convert {input}: {out:?}");
        std::fs::read(dir.join(output)).unwrap()
    };
    let plain = convert("n.tsv", "plain.pcsr");
    for (tool, input) in [("gzip", "-n.tsv.gz"), ("zstd", "-n.tsv.zst")] {
        let compressed = match Command::new(tool)
            .arg("-c")
            .stdin(std::fs::File::open(dir.join("n.tsv")).unwrap())
            .output()
        {
            Ok(out) => out,
            // zstd is optional off CI; gzip is required.
            Err(e) if tool == "zstd" && e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => panic!("{tool}: {e}"),
        };
        assert!(compressed.status.success(), "{tool} -c failed");
        std::fs::write(dir.join(input), compressed.stdout).unwrap();
        assert_eq!(convert(input, &format!("{tool}.pcsr")), plain, "{input}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
