//! Benchmarks: one (small-scale) benchmark per paper figure/table.
//!
//! The harness (`harness = false` in `Cargo.toml`) runs each figure's [`ExperimentSpec`]
//! once, at a tiny scale, through one [`SweepRunner`] campaign, and extracts the
//! deterministic Piccolo-vs-baseline speedup metrics from the figures' rows (see
//! `piccolo_bench::figure_metrics`). It times nothing: host speed is measured by
//! perfbench (`perfbench/`), and `repro` prints a campaign's wall-clock on its stats
//! line. The harness can emit everything as `BENCH.json` and gate on the checked-in
//! regression floors:
//!
//! ```text
//! cargo bench                                   # all figures
//! cargo bench -- fig10                          # filter by name substring
//! cargo bench -- --jobs 2                       # 2 workers
//! cargo bench -- --json BENCH.json --check crates/bench/baselines.json
//! cargo bench -- --external web=web.tsv        # bench a real graph (external figure)
//! ```
//!
//! (`--check` exits non-zero if any tracked speedup falls below its floor; CI's
//! bench-smoke job runs exactly that. `--external NAME=PATH`, repeatable, loads real
//! graphs through the `piccolo-io` snapshot cache and appends the `external` figure —
//! PR+BFS on both engines — so external graphs get `BENCH.json` rows and their
//! `external/gm_{vc,ec}_piccolo` metrics can carry `baselines.json` floors.)
//!
//! Besides the hand-set floors, `--check` ratchets against the best committed values
//! in the sibling `trajectory.json`: deterministic speedup metrics must never fall
//! below the best the model has achieved. `--allow-regression` downgrades ratchet
//! failures to warnings (static floors stay hard); `--update-ratchet` writes improved
//! bests back to the file.
//!
//! Diagnostics go through the `piccolo-obs` stderr sink; `--log-level quiet` (or
//! `error`/`warn`/`info`/`debug`) controls them (`docs/observability.md`). Tables and
//! check verdicts stay on stdout. `--events PATH` streams the campaign and unit
//! spans as the same checksummed `piccolo-events/v1` log `repro` writes;
//! `graphtool events-check`
//! validates it. Common flags are the shared CLI surface ([`piccolo_bench::cli`]);
//! only `--json`/`--check`/`--allow-regression`/`--update-ratchet` are the harness's
//! own.

use piccolo::experiments::{self, Scale};
use piccolo::json::Json;
use piccolo::sweep::{ExperimentSpec, SweepRunner};
use piccolo_algo::Algorithm;
use piccolo_bench::cli::{CliParser, CommonOpts, FlagSet};
use piccolo_bench::{
    bench_json, check_floors, check_trajectory, figure_metrics, updated_trajectory,
};
use piccolo_graph::Dataset;
use piccolo_obs as obs;
use std::path::Path;

fn tiny() -> Scale {
    Scale {
        scale_shift: 13,
        seed: 7,
        max_iterations: 2,
    }
}

/// The benched figure set: every spec at a tiny scale with one dataset/algorithm.
fn bench_specs() -> Vec<ExperimentSpec> {
    let ds = [Dataset::Sinaweibo];
    let algs = [Algorithm::Bfs];
    vec![
        experiments::fig03_spec(tiny(), &ds),
        experiments::fig09_spec(),
        experiments::fig10_spec(tiny(), &ds, &algs),
        experiments::fig11_spec(tiny(), &ds, &algs),
        experiments::fig12_spec(tiny(), &ds, &algs),
        experiments::fig13_spec(tiny(), &ds, &algs),
        experiments::fig14_spec(tiny(), &ds, &algs),
        experiments::fig15_spec(tiny(), Dataset::Sinaweibo, &algs),
        experiments::fig16_spec(tiny(), Dataset::Sinaweibo, &algs),
        experiments::fig17_spec(tiny(), Dataset::Sinaweibo, &algs),
        experiments::fig18_spec(tiny()),
        experiments::fig19a_spec(tiny(), &ds),
        experiments::fig19b_spec(5_000),
        experiments::fig20a_spec(tiny(), Dataset::Sinaweibo, &algs),
        experiments::fig20b_spec(tiny(), &ds),
        experiments::table2_spec(tiny()),
        experiments::area_spec(),
    ]
}

/// The common flags the harness accepts — the shared driver surface minus the
/// output/progress knobs it replaces with `--json`.
fn flags() -> FlagSet {
    FlagSet {
        jobs: true,
        external: true,
        snapshot_dir: true,
        events: true,
        log_level: true,
        ..FlagSet::default()
    }
}

fn parser() -> CliParser {
    CliParser::new(
        "bench",
        format!(
            "cargo bench -- [filter ...] {} [--json PATH] [--check PATH] \
             [--allow-regression] [--update-ratchet]",
            flags().usage_fragment()
        ),
    )
}

/// Resolves an input path against the cwd, the bench crate and the workspace root, in
/// that order — `cargo bench` runs this binary with cwd = `crates/bench`, but CI and
/// humans pass workspace-root-relative paths like `crates/bench/baselines.json`.
fn resolve_input(path: &str) -> std::path::PathBuf {
    let direct = std::path::PathBuf::from(path);
    if direct.exists() || direct.is_absolute() {
        return direct;
    }
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for base in [manifest.to_path_buf(), manifest.join("../..")] {
        let candidate = base.join(path);
        if candidate.exists() {
            return candidate;
        }
    }
    direct
}

fn main() {
    obs::init_stderr(obs::LevelFilter::Info);
    let cli = parser();
    let fail = |msg: &str| -> ! { cli.fail(msg) };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = CommonOpts::new(flags());
    opts.jobs = 1; // the sequential reference path unless --jobs says otherwise
    let mut filter: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut allow_regression = false;
    let mut update_ratchet = false;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if opts.accept(arg, &mut it, &cli) {
            continue;
        }
        match arg.as_str() {
            "--allow-regression" => allow_regression = true,
            "--update-ratchet" => update_ratchet = true,
            "--json" => json_path = Some(cli.value("--json", &mut it).to_string()),
            "--check" => check_path = Some(cli.value("--check", &mut it).to_string()),
            // `cargo bench` passes --bench through to harness = false benches.
            "--bench" => {}
            other if other.starts_with("--") => cli.unknown_flag(other),
            other => filter.push(other.to_string()),
        }
    }

    // The events stream (`--events`): the same checksummed `piccolo-events/v1`
    // log as `repro`. Attached before the campaign so the log covers it.
    opts.attach_sinks(&cli);
    let runner = SweepRunner::new(opts.jobs);

    // External graphs join the bench set as the `external` figure (PR+BFS, both
    // engines, via `experiments::external_spec`), subject to the same name filter —
    // `cargo bench -- --external web=web.tsv external` benches only the real graph.
    // Anchor a relative --snapshot-dir at the workspace root (not the cwd cargo bench
    // sets, crates/bench), so `repro --snapshot-dir snaps` and the bench share a cache.
    let snapshot_dir = match opts.snapshot_dir.take() {
        Some(dir) if dir.is_relative() => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(dir),
        Some(dir) => dir,
        None => piccolo_io::default_snapshot_dir(),
    };
    // Skip the (potentially huge) load entirely when the name filter would drop the
    // external figure anyway — no point parsing gigabytes to discard the spec.
    let wants_external =
        filter.is_empty() || filter.iter().any(|p| "external".contains(p.as_str()));
    let external_datasets = if wants_external {
        // `cargo bench` runs with cwd = crates/bench; resolve graph paths like
        // `--check` does (cwd, then the bench crate, then the workspace root).
        let resolved: Vec<(String, std::path::PathBuf)> = opts
            .externals
            .iter()
            .map(|(name, path)| (name.clone(), resolve_input(path)))
            .collect();
        piccolo_bench::load_externals(&resolved, &snapshot_dir).unwrap_or_else(|e| fail(&e))
    } else {
        Vec::new()
    };
    let mut all_specs = bench_specs();
    if !external_datasets.is_empty() {
        all_specs.push(experiments::external_spec(tiny(), &external_datasets));
    }
    let specs: Vec<ExperimentSpec> = all_specs
        .into_iter()
        .filter(|spec| filter.is_empty() || filter.iter().any(|p| spec.name().contains(p.as_str())))
        .collect();

    // One campaign over every selected figure: each distinct graph is built exactly
    // once across all figures.
    let campaign = runner.run_campaign(&specs);
    let figures = &campaign.figures;
    println!("{:<28} {:>8}", "benchmark", "rows");
    for figure in figures {
        println!("{:<28} {:>8}", figure.name, figure.points.len());
    }
    let stats = campaign.stats;
    println!(
        "campaign capture: {} distinct graph(s) built once, {} build(s) saved vs per-figure scheduling; \
         phases: {} scatter / {} apply DRAM clock(s)",
        stats.graphs_built, stats.builds_saved, stats.scatter_mem_clocks, stats.apply_mem_clocks
    );

    let metrics = figure_metrics(figures);
    if !metrics.is_empty() {
        println!();
        println!("{:<28} {:>12}", "metric", "value");
        for (name, value) in &metrics {
            println!("{name:<28} {value:>12.4}");
        }
    }

    if let Some(path) = &json_path {
        let doc = bench_json(runner.jobs(), figures, &stats);
        if let Err(e) = std::fs::write(path, doc) {
            fail(&format!("cannot write {path}: {e}"));
        }
        obs::info(format!("wrote {path}"));
    }

    // A name filter skips figures entirely; their floors and bests must not fail as
    // "not measured". Scope both checks to the figures that actually ran (metric keys
    // are "<figure>/<metric>"). The unfiltered CI run still checks every entry.
    let scope_to_run = |doc: &mut Json| {
        if filter.is_empty() {
            return;
        }
        if let Json::Obj(pairs) = doc {
            pairs.retain(|(key, _)| {
                figures
                    .iter()
                    .any(|f| key.starts_with(&format!("{}/", f.name)))
            });
        }
    };

    if let Some(path) = &check_path {
        let resolved = resolve_input(path);
        let text = std::fs::read_to_string(&resolved)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", resolved.display())));
        let mut baselines = piccolo::json::parse(&text)
            .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
        scope_to_run(&mut baselines);
        let failures = check_floors(&metrics, &baselines)
            .unwrap_or_else(|e| fail(&format!("bad baselines file {path}: {e}")));
        if failures.is_empty() {
            println!(
                "\nall {} regression floors hold",
                baselines.as_object().map(<[_]>::len).unwrap_or(0)
            );
        } else {
            obs::error(format!("speedup regression(s) against {path}:"));
            for f in &failures {
                obs::error(format!("  {f}"));
            }
            obs::flush_sinks();
            std::process::exit(1);
        }

        // Trajectory ratchet: the sibling trajectory.json carries the best committed
        // value of every tracked metric. Static floors above are the hard safety
        // net; the ratchet additionally refuses silent give-back of achieved model
        // quality (--allow-regression downgrades it to a warning, --update-ratchet
        // commits improvements).
        let trajectory_path = resolved.with_file_name("trajectory.json");
        if trajectory_path.exists() {
            let text = std::fs::read_to_string(&trajectory_path).unwrap_or_else(|e| {
                fail(&format!("cannot read {}: {e}", trajectory_path.display()))
            });
            let full = piccolo::json::parse(&text).unwrap_or_else(|e| {
                fail(&format!("cannot parse {}: {e}", trajectory_path.display()))
            });
            let mut trajectory = full.clone();
            scope_to_run(&mut trajectory);
            let (failures, improved) =
                check_trajectory(&metrics, &trajectory).unwrap_or_else(|e| {
                    fail(&format!(
                        "bad trajectory file {}: {e}",
                        trajectory_path.display()
                    ))
                });
            if failures.is_empty() {
                println!(
                    "trajectory ratchet holds ({} best value(s))",
                    trajectory.as_object().map(<[_]>::len).unwrap_or(0)
                );
            } else {
                let head = format!(
                    "trajectory regression(s) against {}:",
                    trajectory_path.display()
                );
                if allow_regression {
                    obs::warn(head);
                    for f in &failures {
                        obs::warn(format!("  {f}"));
                    }
                    obs::warn("continuing despite trajectory regressions (--allow-regression)");
                } else {
                    obs::error(head);
                    for f in &failures {
                        obs::error(format!("  {f}"));
                    }
                    obs::error("re-run with --allow-regression to downgrade these to warnings");
                    obs::flush_sinks();
                    std::process::exit(1);
                }
            }
            if update_ratchet && !improved.is_empty() {
                // Update against the unfiltered file so a name filter can never drop
                // other figures' committed bests.
                let mut doc = updated_trajectory(&metrics, &full).to_string();
                doc.push('\n');
                if let Err(e) = std::fs::write(&trajectory_path, doc) {
                    fail(&format!("cannot write {}: {e}", trajectory_path.display()));
                }
                println!(
                    "ratcheted {} metric(s) in {}",
                    improved.len(),
                    trajectory_path.display()
                );
            }
        }
    }
    obs::flush_sinks();
}
