//! The campaign coordinator daemon.
//!
//! Usage: `piccolo-serve [figure ...] [--quick|--full] [--out PATH]
//! [--external NAME=PATH ...] [--snapshot-dir DIR]
//! [--events PATH] [--events-max-bytes N] [--metrics PATH]
//! [--log-level LEVEL] [--addr HOST:PORT] [--port-file PATH] [--lease N]
//! [--heartbeat-timeout-ms N] [--journal PATH] [--bench-out PATH]
//! [--exit-when-done]`
//!
//! The common flags are the shared driver surface ([`piccolo_bench::cli`]) and
//! mean exactly what they mean to `repro`: figures, scale, externals and the
//! snapshot dir **shape the campaign plan**, and the coordinator forwards them
//! to every worker over the wire ([`CommonOpts::to_wire_json`]), so workers
//! never re-specify them — they inherit them, rebuild the plan, and must land
//! on the same hash. Paths travel verbatim; external graph files and
//! snapshot dirs must resolve on the worker's filesystem.
//!
//! The coordinator's own flags:
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:0`: loopback, OS
//!   picks the port). Workers and HTTP clients share the one port.
//! * `--port-file PATH` — write the bound address (one line) once listening;
//!   how scripts that passed `:0` find the port.
//! * `--lease N` — units per work lease (default 2).
//! * `--heartbeat-timeout-ms N` — a lease unheard-of for this long is
//!   re-dispatched (default 2000).
//! * `--journal PATH` — the streamed server-side journal (default
//!   `serve.journal`). Restarting with the same journal resumes: completed
//!   units replay, only the rest are re-dispatched.
//! * `--bench-out PATH` — also write the derived `BENCH.json` on completion.
//! * `--exit-when-done` — shut down after writing results (the default is to
//!   keep serving HTTP until killed).
//!
//! `--out` names the merged `results.json` (default `results.json`) — by
//! construction byte-identical to `repro --jobs 1` with the same plan flags.

#![forbid(unsafe_code)]

use piccolo::campaign::PlannedCampaign;
use piccolo_bench::cli::{build_campaign, CliParser, CommonOpts, FlagSet};
use piccolo_obs as obs;
use piccolo_serve::{Coordinator, CoordinatorConfig};
use std::path::PathBuf;
use std::time::Duration;

fn flags() -> FlagSet {
    FlagSet {
        scale: true,
        out: true,
        external: true,
        snapshot_dir: true,
        events: true,
        metrics: true,
        log_level: true,
        ..FlagSet::default()
    }
}

fn parser() -> CliParser {
    CliParser::new(
        "piccolo-serve",
        format!(
            "piccolo-serve [figure ...] {} \
             [--addr HOST:PORT] [--port-file PATH] [--lease N] \
             [--heartbeat-timeout-ms N] [--journal PATH] [--bench-out PATH] \
             [--exit-when-done]",
            flags().usage_fragment()
        ),
    )
}

fn main() {
    obs::init_stderr(obs::LevelFilter::Info);
    obs::metrics::reset_metrics();
    let cli = parser();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = CommonOpts::new(flags());
    let mut cfg = CoordinatorConfig::default();
    let mut port_file: Option<PathBuf> = None;
    let mut exit_when_done = false;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if opts.accept(arg, &mut it, &cli) {
            continue;
        }
        match arg.as_str() {
            "--addr" => cfg.addr = cli.value("--addr", &mut it).to_string(),
            "--port-file" => {
                port_file = Some(PathBuf::from(cli.value("--port-file", &mut it)));
            }
            "--lease" => {
                let v = cli.value("--lease", &mut it);
                cfg.lease_size = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| cli.fail(&format!("invalid --lease value '{v}'")));
            }
            "--heartbeat-timeout-ms" => {
                let v = cli.value("--heartbeat-timeout-ms", &mut it);
                let ms: u64 = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    cli.fail(&format!("invalid --heartbeat-timeout-ms value '{v}'"))
                });
                cfg.heartbeat_timeout = Duration::from_millis(ms);
            }
            "--journal" => cfg.journal = PathBuf::from(cli.value("--journal", &mut it)),
            "--bench-out" => {
                cfg.bench_out = Some(PathBuf::from(cli.value("--bench-out", &mut it)));
            }
            "--exit-when-done" => exit_when_done = true,
            other if other.starts_with("--") => cli.unknown_flag(other),
            other => opts.figures.push(other.to_string()),
        }
    }
    opts.attach_sinks(&cli);
    if let Some(out) = &opts.out {
        cfg.results_out = PathBuf::from(out);
    }

    // Build the plan locally — the coordinator never executes a unit, but it
    // must know the grid (to lease it) and the plan hash (to vet workers).
    // `setup.datasets` keeps external graph registrations alive for the
    // daemon's lifetime.
    let setup = build_campaign(&opts).unwrap_or_else(|e| cli.campaign_error(&e));
    let campaign = PlannedCampaign::new(setup.scale, setup.specs);
    let wire = opts.to_wire_json();
    let _datasets = setup.datasets;

    let coordinator = Coordinator::start(campaign, &wire, cfg).unwrap_or_else(|e| {
        obs::error(format!("piccolo-serve: cannot start coordinator: {e}"));
        obs::flush_sinks();
        std::process::exit(1);
    });
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", coordinator.addr())) {
            obs::error(format!(
                "piccolo-serve: cannot write port file {}: {e}",
                path.display()
            ));
            obs::flush_sinks();
            std::process::exit(1);
        }
    }

    match coordinator.wait_complete() {
        Ok(outcome) => {
            let line = format!(
                "campaign complete: {} unit(s) ({} replayed from journal, {} executed by \
                 {} worker(s)); {} duplicate(s) discarded, {} lease timeout(s)",
                outcome.replayed + outcome.executed,
                outcome.replayed,
                outcome.executed,
                outcome.workers,
                outcome.duplicates,
                outcome.lease_timeouts,
            );
            println!("{line}");
            obs::info(line);
        }
        Err(e) => {
            obs::error(format!("piccolo-serve: merge failed: {e}"));
            obs::flush_sinks();
            std::process::exit(1);
        }
    }
    if let Some(path) = &opts.metrics {
        match obs::metrics::write_metrics_file(path) {
            Ok(()) => obs::info(format!("wrote {}", path.display())),
            Err(e) => obs::error(format!(
                "piccolo-serve: cannot write {}: {e}",
                path.display()
            )),
        }
    }
    obs::flush_sinks();
    if exit_when_done {
        coordinator.shutdown();
        // Joining the connection handlers above produced the worker spans'
        // close events; push them to disk before exiting.
        obs::flush_sinks();
    } else {
        // Keep serving /results.json, /BENCH.json, /status and /events until
        // killed; late workers get `done` and exit cleanly.
        obs::info("campaign served; coordinator stays up (no --exit-when-done)");
        obs::flush_sinks();
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}
