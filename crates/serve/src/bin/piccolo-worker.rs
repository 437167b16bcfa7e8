//! The campaign worker: executes leases for a `piccolo-serve` coordinator.
//!
//! Usage: `piccolo-worker HOST:PORT [--jobs N] [--events PATH]
//! [--events-max-bytes N] [--log-level LEVEL] [--name NAME] [--retry N]
//! [--backoff-ms N]`
//!
//! The worker specifies **no campaign flags** — figures, scale, externals and
//! the snapshot dir all arrive over the wire from the coordinator
//! ([`CommonOpts::from_wire_json`]), the worker rebuilds the plan and must
//! land on the coordinator's hash before it gets a single lease. Only
//! execution-local knobs live here:
//!
//! * `--jobs N` — worker threads for this process's leases (0 = all cores),
//!   exactly `repro --jobs`.
//! * `--events PATH` / `--events-max-bytes N` — this worker's own local event
//!   log; independent of the relay (every worker always forwards its event
//!   stream to the coordinator for per-worker attribution).
//! * `--name NAME` — reported in `hello`; defaults to `worker-<pid>`. Shows
//!   up in the coordinator's per-worker spans and log lines.
//! * `--retry N` / `--backoff-ms N` — connection attempts and the pause
//!   between them (default 30 x 200 ms), so a worker can launch before its
//!   coordinator finishes binding.

#![forbid(unsafe_code)]

use piccolo_bench::cli::{CliParser, CommonOpts, FlagSet};
use piccolo_obs as obs;
use piccolo_serve::{run_worker, WorkerConfig};
use std::time::Duration;

fn flags() -> FlagSet {
    FlagSet {
        jobs: true,
        events: true,
        log_level: true,
        ..FlagSet::default()
    }
}

fn parser() -> CliParser {
    CliParser::new(
        "piccolo-worker",
        format!(
            "piccolo-worker HOST:PORT {} [--name NAME] [--retry N] [--backoff-ms N]",
            flags().usage_fragment()
        ),
    )
}

fn main() {
    obs::init_stderr(obs::LevelFilter::Info);
    let cli = parser();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = CommonOpts::new(flags());
    let mut cfg = WorkerConfig {
        name: format!("worker-{}", std::process::id()),
        ..WorkerConfig::default()
    };
    let mut addr: Option<String> = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if opts.accept(arg, &mut it, &cli) {
            continue;
        }
        match arg.as_str() {
            "--name" => cfg.name = cli.value("--name", &mut it).to_string(),
            "--retry" => {
                let v = cli.value("--retry", &mut it);
                cfg.connect_retries = v
                    .parse()
                    .unwrap_or_else(|_| cli.fail(&format!("invalid --retry value '{v}'")));
            }
            "--backoff-ms" => {
                let v = cli.value("--backoff-ms", &mut it);
                let ms: u64 = v
                    .parse()
                    .unwrap_or_else(|_| cli.fail(&format!("invalid --backoff-ms value '{v}'")));
                cfg.retry_backoff = Duration::from_millis(ms);
            }
            other if other.starts_with("--") => cli.unknown_flag(other),
            other if addr.is_none() => addr = Some(other.to_string()),
            other => cli.fail(&format!("unexpected argument '{other}'")),
        }
    }
    let Some(addr) = addr else {
        cli.fail("missing coordinator address (HOST:PORT)");
    };
    opts.attach_sinks(&cli);
    cfg.jobs = opts.jobs;

    match run_worker(&addr, &cfg) {
        Ok(summary) => {
            let line = format!(
                "{}: done ({} lease(s), {} unit(s))",
                cfg.name, summary.leases, summary.units
            );
            println!("{line}");
            obs::flush_sinks();
        }
        Err(e) => {
            obs::error(format!("piccolo-worker: {e}"));
            obs::flush_sinks();
            std::process::exit(1);
        }
    }
}
