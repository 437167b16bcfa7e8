//! Reproduces the paper's tables and figures and prints their rows.
//!
//! Usage: `repro [figure ...] [--quick|--full] [--jobs N] [--out results.json]
//! [--external NAME=PATH ...] [--snapshot-dir DIR]
//! [--resume JOURNAL [--shard I/N]] [--merge JOURNAL...]
//! [--events PATH] [--progress]
//! [--log-level LEVEL]` where `figure` is one of `fig03 fig09 fig10 fig11 fig12
//! fig13 fig14 fig15 fig16 fig17 fig18 fig19a fig19b fig20a fig20b table2 area`
//! or `all` (default when no `--external` is given). The common flags are the
//! shared driver surface ([`piccolo_bench::cli`]); only resume/shard/merge are
//! repro's own.
//!
//! All requested figures run as **one campaign** (`piccolo::campaign`): their grids are
//! flattened into a single global work queue, `--jobs N` shards it across `N` worker
//! threads (default: all cores, `--jobs 1` forces the sequential reference path), and
//! each distinct graph is built exactly once across the whole run. Output — both the
//! printed rows and the optional `results.json` — is bit-identical for every worker
//! count; CI diffs the outputs to enforce it. Scheduling stats (graphs built vs saved,
//! wall-clock) go to stderr as well, so they stay visible when stdout is redirected.
//!
//! Beyond threads, a campaign also splits across **OS processes** and **invocations**,
//! all through one file format, the run journal (`docs/results-schema.md`):
//!
//! * `--resume JOURNAL` journals one checksummed line per completed unit and, on
//!   re-invocation, replays verified entries instead of re-running them — a killed
//!   campaign finishes in the time of its missing units, with identical bytes.
//! * `--shard I/N --resume JOURNAL` executes only the grid slots with
//!   `unit_index % N == I` that the journal does not already hold, and appends them
//!   to it; the journal is the shard's output (`--out` is refused, and `--shard`
//!   without `--resume` exits 2). Every shard builds exactly the graphs its own
//!   units need. A killed shard re-invocation, or several shards sharing one journal,
//!   merge to the same bytes either way. Shards on separate machines each keep their
//!   own journal and copy it to the merging machine.
//! * `--merge A.jsonl B.jsonl ...` fills the grid from any set of journals — shards'
//!   or a resumed run's — verifying every line
//!   against *this* invocation's plan (figures and scale), evaluates derived rows
//!   once, and writes a `results.json` byte-identical to an unsharded run. It executes
//!   nothing: a unit that no journal holds is an error. `--merge` is exclusive with
//!   `--shard` and `--resume`.
//!
//! `--external NAME=PATH` (repeatable) loads a real graph — plain edge list, SNAP TSV,
//! MatrixMarket or an existing `.pcsr` snapshot — through the `piccolo-io` snapshot
//! cache and appends the `external` figure (PR+BFS on both engines) over every loaded
//! graph to the campaign. With `--external` and no explicit figures, only the
//! `external` figure runs. Each load reports `snapshot cache hit|miss` (or `direct`
//! for `.pcsr` inputs) on stderr; the second run of the same file always hits.
//!
//! **Observability** (`docs/observability.md`) — all host-side, never in results:
//!
//! * `--events PATH` streams the run's span/event log as checksummed
//!   `piccolo-events/v1` JSONL (validate with `graphtool events-check PATH`).
//! * `--progress` renders a live one-line status (units done per figure, active
//!   builds, evictions, an ETA from the campaign's own unit-cost estimates).
//! * `--log-level quiet|error|warn|info|debug` filters the stderr log (`quiet`
//!   silences the drivers entirely; `debug` additionally prints span traffic).
//!
//! None of these flags change a single deterministic byte: `results.json` and
//! journals are `cmp`-identical with observability on or off (pinned by
//! `tests/observability.rs` and the obs-smoke CI job).

use piccolo::campaign::{merge_journals, CampaignStats, ResumeRun, Shard};
use piccolo::experiments::Scale;
use piccolo::report::{results_json, FigureRows};
use piccolo::sweep::SweepRunner;
use piccolo_bench::cli::{build_campaign, CliParser, CommonOpts, FlagSet};
use piccolo_obs as obs;
use std::path::{Path, PathBuf};

fn parser() -> CliParser {
    CliParser::new(
        "repro",
        format!(
            "repro [figure ...] {} \
             [--resume JOURNAL [--shard I/N]] [--merge JOURNAL...]",
            FlagSet::all().usage_fragment()
        ),
    )
}

/// Prints figure rows and the closing summary table.
fn print_figures(figures: &[FigureRows]) {
    for figure in figures {
        println!("== {} ==", figure.title);
        for p in &figure.points {
            println!("{p}");
        }
        println!();
    }
    println!("== Summary ==");
    println!("{:<40} {:>12}", "figure", "rows");
    for f in figures {
        println!("{:<40} {:>12}", f.title, f.points.len());
    }
}

/// Formats the campaign scheduling stats line printed to stdout *and* stderr (CI
/// redirects stdout to /dev/null; the stats must stay visible in its logs).
fn stats_line(stats: &CampaignStats, jobs: usize, scale: Scale, secs: f64) -> String {
    format!(
        "campaign: {} figure(s), {} sim run(s), {} measure unit(s); \
         {} distinct graph(s) built once, {} build(s) saved vs per-figure scheduling, \
         {} evicted when their last consumer finished; \
         phases: {} scatter / {} apply DRAM clock(s); \
         {} worker(s), scale shift {}, {secs:.1} s",
        stats.figures,
        stats.sim_runs,
        stats.measure_units,
        stats.graphs_built,
        stats.builds_saved,
        stats.graphs_evicted,
        stats.scatter_mem_clocks,
        stats.apply_mem_clocks,
        jobs,
        scale.scale_shift,
    )
}

/// The line `--resume` prints after a campaign or shard run (the `repro-resume` CI
/// job greps it).
fn resume_note(journal: &Path, run: &ResumeRun) -> String {
    let (corrupt, mismatched) = (run.corrupt, run.mismatched);
    let ignored = if corrupt + mismatched > 0 {
        format!(" ({corrupt} corrupt line(s) and {mismatched} foreign entr(ies) ignored)")
    } else {
        String::new()
    };
    format!(
        "resume: {} unit(s) replayed from {}, {} executed this run, \
         {} journaled graph build(s) skipped{ignored}",
        run.replayed,
        journal.display(),
        run.executed,
        run.builds_skipped
    )
}

fn write_out(path: &str, doc: &str) {
    if let Err(e) = std::fs::write(path, doc) {
        obs::error(format!("repro: cannot write {path}: {e}"));
        obs::flush_sinks();
        std::process::exit(1);
    }
    obs::info(format!("wrote {path}"));
}

fn main() {
    // Attach the leveled stderr sink before anything can log (including argument
    // errors); --log-level re-applies the filter once parsed.
    obs::init_stderr(obs::LevelFilter::Info);
    let cli = parser();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = CommonOpts::new(FlagSet::all());
    let mut shard: Option<Shard> = None;
    let mut merge_paths: Vec<PathBuf> = Vec::new();
    let mut resume_path: Option<PathBuf> = None;

    // Space-separated flag values only (`--jobs 4`); the shared surface is
    // piccolo_bench::cli, only the shard/merge/resume modes are repro's own.
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if opts.accept(arg, &mut it, &cli) {
            continue;
        }
        match arg.as_str() {
            "--shard" => {
                let v = cli.value("--shard", &mut it);
                if shard.is_some() {
                    cli.fail("--shard given twice");
                }
                shard = Some(Shard::parse(v).unwrap_or_else(|e| cli.fail(&e)));
            }
            "--merge" => {
                // Greedy: every following token up to the next flag is a journal.
                while let Some(v) = it.peek() {
                    if v.starts_with("--") {
                        break;
                    }
                    merge_paths.push(PathBuf::from(it.next().unwrap()));
                }
                if merge_paths.is_empty() {
                    cli.fail("--merge needs at least one journal");
                }
            }
            "--resume" => resume_path = Some(PathBuf::from(cli.value("--resume", &mut it))),
            other if other.starts_with("--") => cli.unknown_flag(other),
            other => opts.figures.push(other.to_string()),
        }
    }

    // --merge recombines other runs' journals; it cannot also execute a shard or
    // replay a journal. A shard's output is its journal: derived rows need the whole
    // grid, so a shard has no results.json of its own.
    if !merge_paths.is_empty() && (shard.is_some() || resume_path.is_some()) {
        cli.fail("--merge is exclusive with --shard and --resume");
    }
    if shard.is_some() && (resume_path.is_none() || opts.out.is_some()) {
        cli.fail(
            "--shard writes its --resume JOURNAL and takes no --out; merge journals with --merge",
        );
    }

    // Observability sinks. Attached before any campaign work so the event log sees
    // the whole run.
    opts.attach_sinks(&cli);

    let runner = SweepRunner::new(opts.jobs);
    #[expect(
        clippy::disallowed_methods,
        reason = "times the run for the stats line, which is printed and never written to a document"
    )]
    let started = std::time::Instant::now();
    let setup = build_campaign(&opts).unwrap_or_else(|e| cli.campaign_error(&e));
    let (scale, specs) = (setup.scale, setup.specs);
    let out_path = opts.out.clone();

    // --merge: no campaign runs here — fill the grid from the journals, verifying
    // every line against this invocation's plan (same figures and scale).
    if !merge_paths.is_empty() {
        let merged = merge_journals(scale, &specs, &merge_paths)
            .unwrap_or_else(|e| cli.input_error(&format!("merge: {e}")));
        print_figures(&merged);
        let doc = results_json(scale, &merged);
        write_out(out_path.as_deref().unwrap_or("results.json"), &doc);
        let line = format!(
            "merged {} journal(s) into {} figure(s), {:.1} s",
            merge_paths.len(),
            merged.len(),
            started.elapsed().as_secs_f64()
        );
        println!("{line}");
        obs::info(line);
        obs::flush_sinks();
        return;
    }

    // One campaign over every requested figure (or one shard of it): one global worker
    // pool, each distinct graph built exactly once across the whole run. With
    // --resume, completed units are replayed from / appended to the journal.
    let (campaign, resume_note) = match &resume_path {
        Some(journal) => {
            let resumed = match shard {
                Some(shard) => runner.run_campaign_shard(scale, &specs, shard, journal),
                None => runner.run_campaign_resumed(scale, &specs, journal),
            }
            .unwrap_or_else(|e| {
                cli.input_error(&format!("cannot use journal {}: {e}", journal.display()))
            });
            let note = resume_note(journal, &resumed);
            (resumed.run, Some(note))
        }
        None => (runner.run_campaign(&specs), None),
    };
    // A shard has no figures: derived rows need the whole grid (`--merge`).
    if shard.is_none() {
        print_figures(&campaign.figures);
    }

    if let Some(path) = &out_path {
        let doc = results_json(scale, &campaign.figures);
        write_out(path, &doc);
    }

    let line = format!(
        "{}{}",
        shard.map(|s| format!("shard {s}: ")).unwrap_or_default(),
        stats_line(
            &campaign.stats,
            runner.jobs(),
            scale,
            started.elapsed().as_secs_f64(),
        )
    );
    println!("{line}");
    // CI's parity jobs redirect stdout to /dev/null; keep the dedup and resume stats
    // visible in their logs so regressions are easy to spot.
    obs::info(line);
    if let Some(note) = resume_note {
        println!("{note}");
        obs::info(note);
    }
    obs::flush_sinks();
}
