//! Generate, convert, inspect and validate graph files.
//!
//! ```text
//! graphtool gen          <out> --vertices N --edges M [--seed S]
//! graphtool convert      <in> <out.pcsr> [--format edgelist|snap|mtx]
//! graphtool info         <file>          [--format edgelist|snap|mtx]
//! graphtool verify       <file.pcsr>
//! graphtool events-check <events.jsonl>
//! ```
//!
//! `gen` writes a deterministic uniform-random graph — a weighted TSV edge list, or a
//! `.pcsr` snapshot if the output ends in `.pcsr` — for CI jobs that need a graph of a
//! known size without shipping one. `convert` parses a text graph (plain, `.gz` or
//! `.zst` — sniffed by magic bytes) or re-validates an existing snapshot, then writes
//! a `.pcsr` snapshot. `info` prints vertex/edge counts and degree statistics for any
//! supported input. `verify` fully checks a snapshot's magic, version, checksums and
//! structural invariants. `events-check` validates a `piccolo-events/v1` log written
//! by `repro --events` — checksums, schema, span balance and the unit count against
//! the campaign plan (`docs/observability.md`). Exit codes: 0 success, 1 bad input
//! file, 2 usage error.
//! Diagnostics go through the `piccolo-obs` stderr sink (`--log-level quiet|error|
//! warn|info|debug`); results stay on stdout. Usage/unknown-flag errors follow the
//! shared driver surface ([`piccolo_bench::cli`]), uniform across all binaries.

#![forbid(unsafe_code)]

use piccolo_bench::cli::{CliParser, CommonOpts, FlagSet};
use piccolo_graph::Csr;
use piccolo_io::{load_pcsr, load_text, save_pcsr, IoError, TextFormat};
use piccolo_obs as obs;
use std::io::Write;
use std::path::Path;

fn parser() -> CliParser {
    CliParser::new(
        "graphtool",
        format!(
            "graphtool gen <out> --vertices N --edges M [--seed S]\n       \
             graphtool convert <in> <out.pcsr> [--format edgelist|snap|mtx]\n       \
             graphtool info <file> [--format edgelist|snap|mtx]\n       \
             graphtool verify <file.pcsr>\n       \
             graphtool events-check <events.jsonl>\n       \
             common: {}",
            FlagSet {
                log_level: true,
                ..FlagSet::default()
            }
            .usage_fragment()
        ),
    )
}

fn fail(err: &IoError) -> ! {
    obs::error(format!("graphtool: {err}"));
    obs::flush_sinks();
    std::process::exit(1);
}

fn is_pcsr(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some("pcsr")
}

/// Loads any supported file: `.pcsr` directly, everything else through the text
/// parsers (no snapshot cache — the tool always reads what it is pointed at).
fn load_any(path: &Path, format: Option<TextFormat>) -> Result<Csr, IoError> {
    if is_pcsr(path) {
        load_pcsr(path)
    } else {
        let format = format.unwrap_or_else(|| TextFormat::from_path(path));
        Ok(load_text(path, format)?.into_csr())
    }
}

fn print_info(path: &Path, g: &Csr) {
    println!("file:        {}", path.display());
    println!("vertices:    {}", g.num_vertices());
    println!("edges:       {}", g.num_edges());
    println!("avg degree:  {:.3}", g.average_degree());
    println!("max degree:  {}", g.max_degree());
}

/// Writes `g` as a weighted TSV edge list (`src\tdst\tweight`), the round-trippable
/// text form of the graph: re-ingesting it through any text path reproduces the exact
/// CSR, so CI can compare compressed and converted pipelines byte-for-byte.
fn write_tsv(path: &Path, g: &Csr) -> Result<(), IoError> {
    let wrap = |e: std::io::Error| IoError::Io {
        path: path.to_path_buf(),
        source: e,
    };
    let file = std::fs::File::create(path).map_err(wrap)?;
    let mut out = std::io::BufWriter::new(file);
    for e in g.iter_edges() {
        writeln!(out, "{}\t{}\t{}", e.src, e.dst, e.weight).map_err(wrap)?;
    }
    out.flush().map_err(wrap)
}

fn main() {
    obs::init_stderr(obs::LevelFilter::Info);
    let cli = parser();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = CommonOpts::new(FlagSet {
        log_level: true,
        ..FlagSet::default()
    });
    let mut positional: Vec<&str> = Vec::new();
    let mut format: Option<TextFormat> = None;
    let mut vertices: Option<u32> = None;
    let mut edges: Option<u64> = None;
    let mut seed: u64 = 1;
    fn num_flag(
        it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
        name: &str,
        cli: &CliParser,
    ) -> u64 {
        match it.next().and_then(|v| v.parse::<u64>().ok()) {
            Some(n) if n > 0 => n,
            _ => cli.fail(&format!("{name} needs a positive integer")),
        }
    }
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if opts.accept(arg, &mut it, &cli) {
            continue;
        }
        match arg.as_str() {
            "--format" => match it.next().map(|v| TextFormat::parse_name(v)) {
                Some(Some(f)) => format = Some(f),
                _ => cli.fail("--format expects edgelist|snap|mtx"),
            },
            "--vertices" => match u32::try_from(num_flag(&mut it, "--vertices", &cli)) {
                Ok(v) => vertices = Some(v),
                Err(_) => cli.fail("--vertices value does not fit in u32"),
            },
            "--edges" => edges = Some(num_flag(&mut it, "--edges", &cli)),
            "--seed" => seed = num_flag(&mut it, "--seed", &cli),
            other if other.starts_with("--") => cli.unknown_flag(other),
            other => positional.push(other),
        }
    }

    match positional.as_slice() {
        ["gen", output] => {
            let output = Path::new(output);
            let (Some(vertices), Some(edges)) = (vertices, edges) else {
                cli.fail("gen needs --vertices and --edges")
            };
            let g = piccolo_graph::generate::uniform(vertices, edges, seed);
            if is_pcsr(output) {
                save_pcsr(output, &g).unwrap_or_else(|e| fail(&e));
            } else {
                write_tsv(output, &g).unwrap_or_else(|e| fail(&e));
            }
            println!(
                "wrote {} ({} vertices, {} edges, seed {seed})",
                output.display(),
                g.num_vertices(),
                g.num_edges()
            );
        }
        ["convert", input, output] => {
            let input = Path::new(input);
            let output = Path::new(output);
            // Every reader picks the snapshot path by extension, so any other name
            // would write a snapshot that nothing can read back.
            if !is_pcsr(output) {
                cli.fail("convert writes a .pcsr snapshot; name the output *.pcsr");
            }
            let g = load_any(input, format).unwrap_or_else(|e| fail(&e));
            save_pcsr(output, &g).unwrap_or_else(|e| fail(&e));
            println!(
                "wrote {} ({} vertices, {} edges)",
                output.display(),
                g.num_vertices(),
                g.num_edges()
            );
        }
        ["info", file] => {
            let file = Path::new(file);
            let g = load_any(file, format).unwrap_or_else(|e| fail(&e));
            print_info(file, &g);
        }
        ["verify", file] => {
            let file = Path::new(file);
            if !is_pcsr(file) {
                cli.fail("verify expects a .pcsr file");
            }
            // load_pcsr checks magic, version, every section checksum, and the CSR
            // structural invariants (monotone offsets, in-range columns).
            let g = load_pcsr(file).unwrap_or_else(|e| fail(&e));
            println!(
                "OK: {} ({} vertices, {} edges, checksums valid)",
                file.display(),
                g.num_vertices(),
                g.num_edges()
            );
        }
        ["events-check", file] => {
            // Checksums, header schema, span balance, monotone seq/t_ns, and the
            // unit-span count against the campaign plan (`piccolo_obs::check`).
            let report = obs::check::check_events(Path::new(file)).unwrap_or_else(|e| {
                obs::error(format!("graphtool: cannot read {file}: {e}"));
                obs::flush_sinks();
                std::process::exit(1);
            });
            println!("{file}: {report}");
            for err in &report.errors {
                obs::error(format!("  {err}"));
            }
            if report.errors_truncated > 0 {
                obs::error(format!(
                    "  ... and {} more error(s)",
                    report.errors_truncated
                ));
            }
            if report.clean() {
                println!("OK: event log is schema-valid, checksum-clean and span-balanced");
            } else {
                obs::flush_sinks();
                std::process::exit(1);
            }
        }
        _ => cli.fail("expected one subcommand: gen|convert|info|verify|events-check"),
    }
    obs::flush_sinks();
}
