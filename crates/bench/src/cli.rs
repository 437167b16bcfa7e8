//! One flag surface for every driver: `repro`, the bench harness and
//! `graphtool` all parse the shared options (`--jobs`, `--external`,
//! `--snapshot-dir`, `--events`, `--metrics`, `--log-level`, `--out`,
//! `--quick`/`--full`, `--progress`) through [`CommonOpts`], so a flag spelled
//! the same way means the same thing everywhere and unknown-flag / usage errors
//! render identically across binaries.
//!
//! Each driver enables only the subset it supports ([`FlagSet`]); a disabled
//! common flag falls through to the driver's unknown-flag error exactly like a
//! misspelled one.

use piccolo::experiments::{default_specs, external_spec, Scale, FIGURES};
use piccolo::sweep::ExperimentSpec;
use piccolo_graph::Dataset;
use piccolo_obs as obs;
use std::iter::Peekable;
use std::path::PathBuf;
use std::slice::Iter;

/// Uniform error/usage reporting for one binary: every parse failure goes
/// through [`CliParser::fail`], so all drivers exit the same way (message +
/// usage on the leveled stderr sink, exit code 2). An input the arguments name
/// but the binary refuses (a graph, a journal) exits through
/// [`CliParser::input_error`] instead: the same exit code, no usage line.
#[derive(Debug)]
pub struct CliParser {
    prog: &'static str,
    usage: String,
}

impl CliParser {
    /// A parser for binary `prog` whose usage line is `usage`.
    #[must_use]
    pub fn new(prog: &'static str, usage: impl Into<String>) -> Self {
        Self {
            prog,
            usage: usage.into(),
        }
    }

    /// Reports `msg` plus the usage line and exits with status 2 — the uniform
    /// argument-error path of every driver.
    pub fn fail(&self, msg: &str) -> ! {
        obs::error(format!("{}: {msg}", self.prog));
        obs::error(format!("usage: {}", self.usage));
        obs::flush_sinks();
        std::process::exit(2);
    }

    /// Reports `msg` and exits with status 2, without the usage line: the path of
    /// input errors, which no respelling of the arguments fixes.
    pub fn input_error(&self, msg: &str) -> ! {
        obs::error(format!("{}: {msg}", self.prog));
        obs::flush_sinks();
        std::process::exit(2);
    }

    /// Exits on a refused campaign: [`Self::fail`] for a usage error,
    /// [`Self::input_error`] for an input error.
    pub fn campaign_error(&self, e: &CampaignError) -> ! {
        match e {
            CampaignError::Usage(msg) => self.fail(msg),
            CampaignError::Input(msg) => self.input_error(msg),
        }
    }

    /// The uniform unknown-flag error.
    pub fn unknown_flag(&self, flag: &str) -> ! {
        self.fail(&format!("unknown flag '{flag}'"));
    }

    /// Fetches a flag's space-separated value or fails uniformly.
    pub fn value<'a>(&self, flag: &str, it: &mut Peekable<Iter<'a, String>>) -> &'a str {
        match it.next() {
            Some(v) => v,
            None => self.fail(&format!("{flag} needs a value")),
        }
    }
}

/// Which common flags a driver accepts. A flag outside the set falls through
/// [`CommonOpts::accept`] to the driver's unknown-flag error.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlagSet {
    /// `--quick` / `--full`.
    pub scale: bool,
    /// `--jobs N`.
    pub jobs: bool,
    /// `--out PATH`.
    pub out: bool,
    /// `--external NAME=PATH` (repeatable).
    pub external: bool,
    /// `--snapshot-dir DIR`.
    pub snapshot_dir: bool,
    /// `--events PATH`.
    pub events: bool,
    /// `--metrics PATH`.
    pub metrics: bool,
    /// `--progress`.
    pub progress: bool,
    /// `--log-level LEVEL` (applied to the stderr sink as soon as parsed).
    pub log_level: bool,
}

impl FlagSet {
    /// Every common flag — the `repro` driver's surface.
    #[must_use]
    pub fn all() -> Self {
        Self {
            scale: true,
            jobs: true,
            out: true,
            external: true,
            snapshot_dir: true,
            events: true,
            metrics: true,
            progress: true,
            log_level: true,
        }
    }

    /// The usage-line fragment for the enabled flags, in canonical order.
    #[must_use]
    pub fn usage_fragment(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.scale {
            parts.push("[--quick|--full]");
        }
        if self.jobs {
            parts.push("[--jobs N]");
        }
        if self.out {
            parts.push("[--out PATH]");
        }
        if self.external {
            parts.push("[--external NAME=PATH ...]");
        }
        if self.snapshot_dir {
            parts.push("[--snapshot-dir DIR]");
        }
        if self.events {
            parts.push("[--events PATH]");
        }
        if self.metrics {
            parts.push("[--metrics PATH]");
        }
        if self.progress {
            parts.push("[--progress]");
        }
        if self.log_level {
            parts.push("[--log-level LEVEL]");
        }
        parts.join(" ")
    }
}

/// The options shared by every driver. Construct with [`CommonOpts::new`],
/// feed each argument through [`CommonOpts::accept`] inside the driver's parse
/// loop, then use the fields (or [`build_campaign`] / `attach_sinks`).
#[derive(Debug, Clone)]
pub struct CommonOpts {
    enabled: FlagSet,
    /// Requested figure names (positional; the driver pushes them).
    pub figures: Vec<String>,
    /// `--quick` (vs the `--full` default): the CI-sized scale.
    pub quick: bool,
    /// `--jobs N` worker threads; 0 = all cores.
    pub jobs: usize,
    /// `--out PATH` output override.
    pub out: Option<String>,
    /// `--external NAME=PATH` pairs, in order, names deduplicated.
    pub externals: Vec<(String, String)>,
    /// `--snapshot-dir DIR` override for the `.pcsr` cache.
    pub snapshot_dir: Option<PathBuf>,
    /// `--events PATH`: the `piccolo-events/v1` JSONL stream.
    pub events: Option<PathBuf>,
    /// `--metrics PATH`: the `piccolo-metrics/v1` aggregate registry.
    pub metrics: Option<PathBuf>,
    /// `--progress`: live one-line status renderer.
    pub progress: bool,
}

impl CommonOpts {
    /// Fresh defaults with the given enabled set.
    #[must_use]
    pub fn new(enabled: FlagSet) -> Self {
        Self {
            enabled,
            figures: Vec::new(),
            quick: false,
            jobs: 0,
            out: None,
            externals: Vec::new(),
            snapshot_dir: None,
            events: None,
            metrics: None,
            progress: false,
        }
    }

    /// Tries to consume `arg` (plus its value, if any) as a common flag.
    /// Returns `false` when `arg` is not an **enabled** common flag, leaving
    /// the driver to handle its own flags and positionals — or to report the
    /// uniform unknown-flag error.
    pub fn accept(
        &mut self,
        arg: &str,
        it: &mut Peekable<Iter<'_, String>>,
        cli: &CliParser,
    ) -> bool {
        match arg {
            "--quick" if self.enabled.scale => self.quick = true,
            "--full" if self.enabled.scale => self.quick = false,
            "--jobs" if self.enabled.jobs => {
                let v = cli.value("--jobs", it);
                self.jobs = v
                    .parse()
                    .unwrap_or_else(|_| cli.fail(&format!("invalid --jobs value '{v}'")));
            }
            "--out" if self.enabled.out => self.out = Some(cli.value("--out", it).to_string()),
            "--external" if self.enabled.external => {
                let v = cli.value("--external", it);
                match v.split_once('=') {
                    Some((name, path)) if !name.is_empty() && !path.is_empty() => {
                        if self.externals.iter().any(|(n, _)| n == name) {
                            cli.fail(&format!("duplicate external name '{name}'"));
                        }
                        self.externals.push((name.to_string(), path.to_string()));
                    }
                    _ => cli.fail("--external expects NAME=PATH"),
                }
            }
            "--snapshot-dir" if self.enabled.snapshot_dir => {
                self.snapshot_dir = Some(PathBuf::from(cli.value("--snapshot-dir", it)));
            }
            "--events" if self.enabled.events => {
                self.events = Some(PathBuf::from(cli.value("--events", it)));
            }
            "--metrics" if self.enabled.metrics => {
                self.metrics = Some(PathBuf::from(cli.value("--metrics", it)));
            }
            "--progress" if self.enabled.progress => self.progress = true,
            "--log-level" if self.enabled.log_level => {
                let v = cli.value("--log-level", it);
                match obs::LevelFilter::parse(v) {
                    Some(filter) => obs::init_stderr(filter),
                    None => cli.fail(&format!(
                        "invalid --log-level '{v}' (quiet|error|warn|info|debug)"
                    )),
                }
            }
            _ => return false,
        }
        true
    }

    /// The scale selected by `--quick`/`--full`.
    #[must_use]
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::default_repro()
        }
    }

    /// Attaches the observability sinks these options request: the events file
    /// and the progress renderer. With `--events` and no explicit `--metrics`,
    /// the aggregate registry defaults to `metrics.json` beside the run — every
    /// driver behaves the same way.
    pub fn attach_sinks(&mut self, cli: &CliParser) {
        if let Some(path) = &self.events {
            if let Err(e) = obs::add_events_file(path) {
                cli.fail(&format!(
                    "cannot create events file {}: {e}",
                    path.display()
                ));
            }
            if self.metrics.is_none() {
                self.metrics = Some(PathBuf::from("metrics.json"));
            }
        }
        if self.progress {
            obs::add_progress();
        }
    }
}

/// Everything needed to run (or plan) the campaign these options describe.
#[derive(Debug)]
pub struct CampaignSetup {
    /// The selected scale.
    pub scale: Scale,
    /// The spec list, externals appended last — the plan-hash identity.
    pub specs: Vec<ExperimentSpec>,
    /// The loaded external datasets (kept alive for the campaign's duration).
    pub datasets: Vec<Dataset>,
}

/// Why [`build_campaign`] refused a set of options.
#[derive(Debug)]
pub enum CampaignError {
    /// An unknown figure name: the invocation itself is wrong.
    Usage(String),
    /// An external graph that cannot be loaded or is refused.
    Input(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Usage(msg) | Self::Input(msg) => f.write_str(msg),
        }
    }
}

/// Resolves options into a concrete campaign: applies the default-figure rule
/// (everything, unless only externals were requested), resolves the figure
/// names, loads external graphs through the snapshot cache, and builds the spec
/// list. Every shard of a campaign calls this with the same options, which is
/// what makes their plan hashes agree.
///
/// # Errors
///
/// Names the first unknown figure ([`CampaignError::Usage`]) before any graph is
/// loaded; reports external-graph load failures verbatim ([`CampaignError::Input`]).
pub fn build_campaign(opts: &CommonOpts) -> Result<CampaignSetup, CampaignError> {
    let scale = opts.scale();
    let mut figures = opts.figures.clone();
    if figures.iter().any(|f| f == "all") || (figures.is_empty() && opts.externals.is_empty()) {
        figures = FIGURES.iter().map(|s| (*s).to_string()).collect();
    }
    let mut specs = default_specs(&figures, scale).map_err(CampaignError::Usage)?;
    let snapshot_dir = opts
        .snapshot_dir
        .clone()
        .unwrap_or_else(piccolo_io::default_snapshot_dir);
    let external_paths: Vec<(String, PathBuf)> = opts
        .externals
        .iter()
        .map(|(name, path)| (name.clone(), PathBuf::from(path)))
        .collect();
    let datasets =
        crate::load_externals(&external_paths, &snapshot_dir).map_err(CampaignError::Input)?;
    if !datasets.is_empty() {
        specs.push(external_spec(scale, &datasets));
    }
    Ok(CampaignSetup {
        scale,
        specs,
        datasets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    fn parse_all(args: &[&str]) -> CommonOpts {
        let cli = CliParser::new("test", "test");
        let args = strings(args);
        let mut opts = CommonOpts::new(FlagSet::all());
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            assert!(
                opts.accept(arg, &mut it, &cli),
                "flag {arg} not accepted by the full set"
            );
        }
        opts
    }

    #[test]
    fn common_flags_parse_into_their_fields() {
        let opts = parse_all(&[
            "--quick",
            "--jobs",
            "4",
            "--out",
            "r.json",
            "--external",
            "web=graph.txt",
            "--snapshot-dir",
            "snaps",
            "--events",
            "ev.jsonl",
            "--metrics",
            "m.json",
        ]);
        assert!(opts.quick);
        assert_eq!(opts.jobs, 4);
        assert_eq!(opts.out.as_deref(), Some("r.json"));
        assert_eq!(opts.externals, vec![("web".into(), "graph.txt".into())]);
        assert_eq!(opts.snapshot_dir.as_deref(), Some(Path::new("snaps")));
        assert_eq!(opts.events.as_deref(), Some(Path::new("ev.jsonl")));
        assert_eq!(opts.metrics.as_deref(), Some(Path::new("m.json")));
    }

    use std::path::Path;

    #[test]
    fn disabled_flags_fall_through_to_the_driver() {
        let cli = CliParser::new("test", "test");
        let args = strings(&["--jobs"]);
        let mut opts = CommonOpts::new(FlagSet {
            log_level: true,
            ..FlagSet::default()
        });
        let mut it = args.iter().peekable();
        let arg = it.next().unwrap();
        assert!(!opts.accept(arg, &mut it, &cli));
        assert_eq!(it.next(), None); // the value was not consumed either
    }

    #[test]
    fn usage_fragment_lists_only_enabled_flags() {
        let frag = FlagSet {
            jobs: true,
            log_level: true,
            ..FlagSet::default()
        }
        .usage_fragment();
        assert_eq!(frag, "[--jobs N] [--log-level LEVEL]");
        assert!(FlagSet::all()
            .usage_fragment()
            .contains("[--events PATH] [--metrics PATH]"));
    }
}
