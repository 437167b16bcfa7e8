//! Support library for the benchmark harness and the `repro` binary: deterministic
//! speedup metrics extracted from figure rows, `BENCH.json` serialization, and the
//! regression-floor check against the checked-in `baselines.json`.
//!
//! The bench-smoke CI job runs the harness, uploads `BENCH.json` as an artifact, and
//! fails the build if any tracked Piccolo-vs-baseline speedup drops below its floor.
//! Floors live in `crates/bench/baselines.json` — a flat JSON object mapping metric
//! name to the minimum acceptable value. Metrics are **model outputs** (cycle ratios),
//! not wall-clock, so they are deterministic and safe to gate CI on. Host speed is
//! measured by perfbench (`perfbench/`), not here.

pub mod cli;

use piccolo::campaign::CampaignStats;
use piccolo::experiments::{geomean, Point};
use piccolo::json::Json;
use piccolo::report::FigureRows;
use piccolo_graph::Dataset;
use piccolo_obs as obs;
use std::path::{Path, PathBuf};

/// Loads `--external NAME=PATH` graphs (paths pre-resolved by the caller — the bench
/// harness and `repro` resolve differently) through the `piccolo-io` snapshot cache
/// and registers them in `piccolo_graph::external`, printing one status line per graph
/// to stderr (`snapshot cache hit|miss|direct`, which CI greps). Returns the dataset
/// handles in input order, so registry ids — and therefore output — are deterministic.
///
/// An empty graph is refused, and the snapshot this load wrote or hit for it is
/// deleted, with the snapshot dir if this load created it, so a refused graph leaves
/// nothing in the cache.
pub fn load_externals(
    externals: &[(String, PathBuf)],
    snapshot_dir: &Path,
) -> Result<Vec<Dataset>, String> {
    let mut datasets = Vec::new();
    for (name, path) in externals {
        let cache_span = obs::spans_enabled()
            .then(|| obs::span("snapshot_cache", vec![("graph", name.as_str().into())]));
        let dir_existed = snapshot_dir.is_dir();
        let loaded = piccolo_io::load_graph_with(path, None, snapshot_dir)
            .map_err(|e| format!("cannot load external graph '{name}': {e}"))?;
        if loaded.graph.num_vertices() == 0 {
            if let Some(snapshot) = &loaded.snapshot {
                let _ = std::fs::remove_file(snapshot);
                if !dir_existed {
                    // `remove_dir` refuses a dir that holds anything else.
                    let _ = std::fs::remove_dir(snapshot_dir);
                }
            }
            return Err(format!(
                "external graph '{name}' ({}) is empty",
                path.display()
            ));
        }
        if let Some(span) = cache_span {
            span.close(vec![("status", loaded.status.to_string().into())]);
        }
        obs::info(format!(
            "external '{name}': {} ({} vertices, {} edges) snapshot cache {}",
            path.display(),
            loaded.graph.num_vertices(),
            loaded.graph.num_edges(),
            loaded.status
        ));
        datasets.push(piccolo_graph::external::register(name, loaded.graph));
    }
    Ok(datasets)
}

fn gm_of<'a>(
    points: &'a [Point],
    key: &str,
    select: impl Fn(&str) -> bool + 'a,
) -> Vec<(String, f64)> {
    let vals: Vec<f64> = points
        .iter()
        .filter(|p| select(&p.label))
        .map(|p| p.value)
        .collect();
    if vals.is_empty() {
        Vec::new()
    } else {
        vec![(key.to_string(), geomean(&vals))]
    }
}

/// Extracts the deterministic Piccolo-vs-baseline speedup metrics tracked by the
/// bench-smoke CI job from one figure's rows. Figures without a meaningful
/// Piccolo-vs-baseline ratio contribute no metrics.
pub fn speedup_metrics(figure: &str, points: &[Point]) -> Vec<(String, f64)> {
    match figure {
        // FIM microbenchmark: conventional-vs-FIM service-time ratio per stride case.
        "fig09" => gm_of(points, "fig09/gm_fim_speedup", |_| true),
        // Overall speedup: the figure's own geometric-mean row.
        "fig10" => points
            .iter()
            .find(|p| p.label == "GM/Piccolo")
            .map(|p| vec![("fig10/gm_piccolo".to_string(), p.value)])
            .unwrap_or_default(),
        // Cache-design sweep: the default Piccolo cache (LRU) vs the conventional base.
        "fig11" => gm_of(points, "fig11/gm_piccolo_lru", |l| {
            l.ends_with("/Piccolo (LRU)")
        }),
        // Synthetic graphs.
        "fig18" => gm_of(points, "fig18/gm_piccolo", |l| l.ends_with("/Piccolo")),
        // Piccolo vs the vertex-centric conventional baseline, for both traversal
        // orders. The EC rows gate the edge-centric Best-tiling search: a regression to
        // a fixed family-default factor shows up here.
        "fig19a" => {
            let mut m = gm_of(points, "fig19a/gm_vc_piccolo", |l| {
                l.ends_with("/VC/Piccolo")
            });
            m.extend(gm_of(points, "fig19a/gm_ec_piccolo", |l| {
                l.ends_with("/EC/Piccolo")
            }));
            m
        }
        // OLAP column scans.
        "fig19b" => gm_of(points, "fig19b/gm_olap", |_| true),
        // External graphs (`--external NAME=PATH`): Piccolo vs the vertex-centric
        // conventional baseline on both engines, so real datasets can carry
        // `baselines.json` floors just like the paper figures.
        "external" => {
            let mut m = gm_of(points, "external/gm_vc_piccolo", |l| {
                l.ends_with("/VC/Piccolo")
            });
            m.extend(gm_of(points, "external/gm_ec_piccolo", |l| {
                l.ends_with("/EC/Piccolo")
            }));
            m
        }
        // Enhanced-FIM sweep: plain Piccolo rows only (not "Piccolo enhanced").
        "fig20a" => gm_of(points, "fig20a/gm_piccolo", |l| l.ends_with("/Piccolo")),
        _ => Vec::new(),
    }
}

/// The tracked speedup metrics of every figure, in figure order: the `metrics` object
/// of `BENCH.json` and the values `--check` gates.
pub fn figure_metrics(figures: &[FigureRows]) -> Vec<(String, f64)> {
    figures
        .iter()
        .flat_map(|f| speedup_metrics(&f.name, &f.points))
        .collect()
}

/// Peak memory of this process so far, from `/proc/self/status` (Linux): `VmHWM` is
/// the resident-set high-water mark, `VmPeak` the address-space peak (the bound a
/// `ulimit -v` cap enforces). `None` off Linux or if the fields are missing — callers
/// omit the section rather than report zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// `VmHWM`: peak resident set size, in KiB.
    pub peak_rss_kb: u64,
    /// `VmPeak`: peak virtual address-space size, in KiB.
    pub vm_peak_kb: u64,
}

/// Reads [`MemoryStats`] for the current process. See the struct docs for semantics.
pub fn memory_stats() -> Option<MemoryStats> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<u64> {
        status
            .lines()
            .find(|l| l.starts_with(name))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    };
    Some(MemoryStats {
        peak_rss_kb: field("VmHWM:")?,
        vm_peak_kb: field("VmPeak:")?,
    })
}

/// Serializes a bench run into the `BENCH.json` document (schema `piccolo-bench/v2`):
/// each figure's name, title and row count, and its [`figure_metrics`].
///
/// The document times nothing and is never byte-compared; CI uploads it as an
/// artifact. `campaign` records the scheduling stats of the campaign that produced
/// the rows (graphs built once vs builds saved), so dedup regressions are visible in
/// the artifact history. On Linux a `memory` section reports the process peak RSS /
/// address space ([`memory_stats`], sampled at serialization time — after every
/// figure has run), which the out-of-core CI job greps to prove a capped run stayed
/// capped.
pub fn bench_json(jobs: usize, figures: &[FigureRows], campaign: &CampaignStats) -> String {
    let mut pairs: Vec<(&str, Json)> = vec![
        ("schema", Json::str("piccolo-bench/v2")),
        ("jobs", Json::Num(jobs as f64)),
        (
            "campaign",
            Json::obj([
                ("figures", Json::Num(campaign.figures as f64)),
                ("sim_runs", Json::Num(campaign.sim_runs as f64)),
                ("graphs_built", Json::Num(campaign.graphs_built as f64)),
                ("builds_saved", Json::Num(campaign.builds_saved as f64)),
                ("graphs_evicted", Json::Num(campaign.graphs_evicted as f64)),
                // Per-phase DRAM-clock breakdown of the captured campaign. Decimal
                // strings like the results codec's counters, so they can never
                // round past 2^53.
                (
                    "scatter_mem_clocks",
                    Json::str(campaign.scatter_mem_clocks.to_string()),
                ),
                (
                    "apply_mem_clocks",
                    Json::str(campaign.apply_mem_clocks.to_string()),
                ),
            ]),
        ),
    ];
    if let Some(memory) = memory_stats() {
        pairs.push((
            "memory",
            Json::obj([
                ("peak_rss_kb", Json::str(memory.peak_rss_kb.to_string())),
                ("vm_peak_kb", Json::str(memory.vm_peak_kb.to_string())),
            ]),
        ));
    }
    pairs.extend([
        (
            "figures",
            Json::Arr(
                figures
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("name", Json::str(&f.name)),
                            ("title", Json::str(&f.title)),
                            ("rows", Json::Num(f.points.len() as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(
                figure_metrics(figures)
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    let mut out = Json::obj(pairs).to_string();
    out.push('\n');
    out
}

/// Checks measured metrics against the floors of a parsed `baselines.json` (a flat
/// object mapping metric name to minimum acceptable value).
///
/// Returns the list of failure messages — empty means every floor holds. A floor whose
/// metric was not measured is a failure too, so silently dropping a figure from the
/// bench cannot fade a regression gate out.
pub fn check_floors(metrics: &[(String, f64)], baselines: &Json) -> Result<Vec<String>, String> {
    let pairs = baselines
        .as_object()
        .ok_or("baselines.json must be a flat JSON object of metric -> floor")?;
    let mut failures = Vec::new();
    for (name, floor) in pairs {
        let floor = floor
            .as_f64()
            .ok_or_else(|| format!("baseline '{name}' is not a number"))?;
        match metrics.iter().find(|(k, _)| k == name) {
            None => failures.push(format!("metric '{name}' was not measured (floor {floor})")),
            Some((_, value)) if *value < floor => failures.push(format!(
                "metric '{name}' regressed: {value:.4} < floor {floor:.4}"
            )),
            Some(_) => {}
        }
    }
    Ok(failures)
}

/// Tolerance of the trajectory ratchet: deterministic metrics reproduce exactly, so
/// this only absorbs shortest-round-trip printing of the committed bests.
pub const TRAJECTORY_EPS: f64 = 1e-9;

/// Checks measured metrics against the best previously committed values
/// (`crates/bench/trajectory.json`, a flat metric -> best-value object). Unlike
/// [`check_floors`]' hand-set static floors, the trajectory is a **ratchet**: the
/// committed value is the best the model has ever achieved, and any measured value
/// below it (beyond [`TRAJECTORY_EPS`]) is a regression. Metrics are deterministic
/// model outputs, so "slightly below best" is a real behavior change, not noise.
///
/// Returns `(failures, improvements)`: failure messages (a tracked metric regressed
/// or was not measured at all) and the metrics that beat their committed best (or are
/// new), for `--update-ratchet`.
#[expect(
    clippy::type_complexity,
    reason = "the (failures, improvements) pair is returned here and nowhere else"
)]
pub fn check_trajectory(
    metrics: &[(String, f64)],
    trajectory: &Json,
) -> Result<(Vec<String>, Vec<(String, f64)>), String> {
    let pairs = trajectory
        .as_object()
        .ok_or("trajectory.json must be a flat JSON object of metric -> best value")?;
    let mut failures = Vec::new();
    let mut improved = Vec::new();
    for (name, best) in pairs {
        let best = best
            .as_f64()
            .ok_or_else(|| format!("trajectory entry '{name}' is not a number"))?;
        match metrics.iter().find(|(k, _)| k == name) {
            None => failures.push(format!(
                "metric '{name}' was not measured (trajectory best {best})"
            )),
            Some((_, value)) if *value < best - TRAJECTORY_EPS => failures.push(format!(
                "metric '{name}' fell below its best committed value: {value:.6} < {best:.6}"
            )),
            Some((_, value)) if *value > best + TRAJECTORY_EPS => {
                improved.push((name.clone(), *value));
            }
            Some(_) => {}
        }
    }
    for (name, value) in metrics {
        if !pairs.iter().any(|(k, _)| k == name) {
            improved.push((name.clone(), *value));
        }
    }
    Ok((failures, improved))
}

/// Builds the trajectory document that `--update-ratchet` writes back: every
/// committed best raised to the measured value where the measurement beat it, plus
/// newly measured metrics appended in measurement order. Existing keys keep their
/// order, so the diff of an update is minimal.
pub fn updated_trajectory(metrics: &[(String, f64)], trajectory: &Json) -> Json {
    let existing = trajectory.as_object().unwrap_or(&[]);
    let mut pairs: Vec<(String, Json)> = existing
        .iter()
        .map(|(name, best)| {
            let best = best.as_f64().unwrap_or(f64::NEG_INFINITY);
            let value = match metrics.iter().find(|(k, _)| k == name) {
                Some((_, v)) if *v > best + TRAJECTORY_EPS => *v,
                _ => best,
            };
            (name.clone(), Json::Num(value))
        })
        .collect();
    for (name, value) in metrics {
        if !pairs.iter().any(|(k, _)| k == name) {
            pairs.push((name.clone(), Json::Num(*value)));
        }
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo::json::parse;

    fn pt(label: &str, value: f64) -> Point {
        Point {
            label: label.to_string(),
            value,
        }
    }

    #[test]
    fn fig10_metric_is_the_gm_row() {
        let points = [pt("BFS/SW/Piccolo", 3.0), pt("GM/Piccolo", 2.5)];
        let m = speedup_metrics("fig10", &points);
        assert_eq!(m, vec![("fig10/gm_piccolo".to_string(), 2.5)]);
    }

    #[test]
    fn fig20a_metric_excludes_enhanced_rows() {
        let points = [
            pt("PR/DDR4x4/Piccolo", 2.0),
            pt("PR/DDR4x4/Piccolo enhanced", 8.0),
        ];
        let m = speedup_metrics("fig20a", &points);
        assert_eq!(m.len(), 1);
        assert!((m[0].1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn figures_without_ratios_contribute_nothing() {
        assert!(speedup_metrics("table2", &[pt("SW/paper-edges", 1.0)]).is_empty());
        assert!(speedup_metrics("fig10", &[]).is_empty());
    }

    #[test]
    fn external_figure_tracks_both_traversal_orders() {
        let points = [
            pt("PR/web/VC/Piccolo", 2.0),
            pt("BFS/web/VC/Piccolo", 8.0),
            pt("PR/web/EC/Piccolo", 1.5),
            pt("PR/web/VC/Conventional", 1.0),
        ];
        let m = speedup_metrics("external", &points);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].0, "external/gm_vc_piccolo");
        assert!((m[0].1 - 4.0).abs() < 1e-12); // geomean(2, 8)
        assert_eq!(m[1], ("external/gm_ec_piccolo".to_string(), 1.5));
    }

    #[test]
    fn fig19a_tracks_both_traversal_orders() {
        let points = [
            pt("PR/TW/VC/Piccolo", 2.0),
            pt("PR/TW/EC/Piccolo", 1.5),
            pt("PR/TW/EC/Conventional", 0.5),
        ];
        let m = speedup_metrics("fig19a", &points);
        assert_eq!(
            m,
            vec![
                ("fig19a/gm_vc_piccolo".to_string(), 2.0),
                ("fig19a/gm_ec_piccolo".to_string(), 1.5),
            ]
        );
    }

    #[test]
    fn floors_pass_fail_and_catch_missing_metrics() {
        let baselines = parse(r#"{"fig10/gm_piccolo": 2.0, "fig09/gm_fim_speedup": 3.0}"#).unwrap();
        let ok = check_floors(
            &[
                ("fig10/gm_piccolo".to_string(), 2.4),
                ("fig09/gm_fim_speedup".to_string(), 3.5),
            ],
            &baselines,
        )
        .unwrap();
        assert!(ok.is_empty());
        let bad = check_floors(&[("fig10/gm_piccolo".to_string(), 1.5)], &baselines).unwrap();
        assert_eq!(bad.len(), 2, "{bad:?}"); // one regression + one missing metric
        assert!(check_floors(&[], &parse("[1,2]").unwrap()).is_err());
    }

    #[test]
    fn bench_json_roundtrips() {
        let doc = bench_json(
            4,
            &[FigureRows {
                name: "fig10".to_string(),
                title: "Fig. 10".to_string(),
                points: vec![pt("BFS/SW/Piccolo", 3.0), pt("GM/Piccolo", 2.5)],
            }],
            &CampaignStats {
                figures: 1,
                sim_runs: 11,
                measure_units: 0,
                graphs_built: 1,
                builds_saved: 0,
                graphs_evicted: 1,
                scatter_mem_clocks: (1 << 54) + 1, // not representable as f64
                apply_mem_clocks: 12,
            },
        );
        let v = parse(doc.trim()).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("piccolo-bench/v2")
        );
        assert_eq!(
            v.get("campaign")
                .and_then(|c| c.get("graphs_built"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            v.get("campaign")
                .and_then(|c| c.get("scatter_mem_clocks"))
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<u64>().ok()),
            Some((1 << 54) + 1),
            "phase clocks ride as decimal strings"
        );
        assert_eq!(
            v.get("metrics").and_then(Json::as_object).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("fig10/gm_piccolo"))
                .and_then(Json::as_f64),
            Some(2.5)
        );
        let figure = &v.get("figures").unwrap().as_array().unwrap()[0];
        assert_eq!(figure.get("rows").and_then(Json::as_f64), Some(2.0));
        // The document times nothing: host speed is perfbench's to measure.
        for key in ["samples", "host", "min_ms", "mean_ms"] {
            assert!(!doc.contains(&format!("\"{key}\"")), "{key} in {doc}");
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn bench_json_reports_peak_memory_on_linux() {
        let stats = memory_stats().expect("/proc/self/status has VmHWM and VmPeak");
        assert!(stats.peak_rss_kb > 0);
        assert!(stats.vm_peak_kb >= stats.peak_rss_kb);
        let doc = bench_json(1, &[], &CampaignStats::default());
        let memory = parse(doc.trim()).unwrap();
        let memory = memory.get("memory").expect("memory section on linux");
        let kb = memory
            .get("peak_rss_kb")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap();
        assert!(kb >= stats.peak_rss_kb, "peak rss only grows");
    }

    #[test]
    fn trajectory_ratchet_passes_fails_and_reports_improvements() {
        let trajectory = parse(r#"{"fig10/gm_piccolo": 2.0, "fig18/gm_piccolo": 1.0}"#).unwrap();
        // Matching the best exactly passes; beating it is an improvement; a brand-new
        // metric is an improvement too.
        let (failures, improved) = check_trajectory(
            &[
                ("fig10/gm_piccolo".to_string(), 2.0),
                ("fig18/gm_piccolo".to_string(), 1.5),
                ("fig11/gm_piccolo_lru".to_string(), 3.0),
            ],
            &trajectory,
        )
        .unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(
            improved,
            vec![
                ("fig18/gm_piccolo".to_string(), 1.5),
                ("fig11/gm_piccolo_lru".to_string(), 3.0),
            ]
        );
        // Falling below the best — or not measuring a tracked metric — fails.
        let (failures, _) =
            check_trajectory(&[("fig10/gm_piccolo".to_string(), 1.999)], &trajectory).unwrap();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("below its best"));
        assert!(failures[1].contains("not measured"));
        // Sub-eps jitter is absorbed.
        let (failures, improved) = check_trajectory(
            &[
                ("fig10/gm_piccolo".to_string(), 2.0 - 1e-12),
                ("fig18/gm_piccolo".to_string(), 1.0 + 1e-12),
            ],
            &trajectory,
        )
        .unwrap();
        assert!(failures.is_empty());
        assert!(improved.is_empty());
        assert!(check_trajectory(&[], &parse("[]").unwrap()).is_err());
    }

    #[test]
    fn updated_trajectory_raises_bests_and_appends_new_metrics() {
        let trajectory = parse(r#"{"a": 2.0, "b": 1.0}"#).unwrap();
        let updated = updated_trajectory(
            &[
                ("b".to_string(), 1.5),  // improved -> raised
                ("a".to_string(), 0.5),  // regressed -> best kept
                ("c".to_string(), 4.25), // new -> appended
            ],
            &trajectory,
        );
        let pairs = updated.as_object().unwrap();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0, "a");
        assert_eq!(pairs[0].1.as_f64(), Some(2.0));
        assert_eq!(pairs[1].1.as_f64(), Some(1.5));
        assert_eq!(pairs[2].0, "c");
        assert_eq!(pairs[2].1.as_f64(), Some(4.25));
    }

    #[test]
    fn external_campaign_replays_in_full_from_a_warm_cache() {
        use piccolo::experiments::{external_spec, Scale};
        use piccolo::report::results_json;
        use piccolo::sweep::SweepRunner;
        use piccolo_graph::generate;
        use std::io::Write as _;

        let dir = std::env::temp_dir().join(format!("piccolo-bench-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let edge_file = dir.join("warm.tsv");
        let cache_dir = dir.join("snaps");
        let graph = generate::kronecker(11, 5, 31);
        {
            let mut f = std::fs::File::create(&edge_file).unwrap();
            for e in graph.iter_edges() {
                writeln!(f, "{}\t{}\t{}", e.src, e.dst, e.weight).unwrap();
            }
        }
        let externals = [("bench-warm-ext".to_string(), edge_file.clone())];

        // First invocation: no snapshot yet, so the load misses and writes one.
        let ds = load_externals(&externals, &cache_dir).unwrap()[0];
        // The text round trip may drop trailing isolated vertices, so the loaded
        // graph — not the generator output — is the reference content.
        let expected = (*ds.build_shared(0, 0)).clone();
        let snapshot = piccolo_io::snapshot_path(
            &edge_file,
            piccolo_io::TextFormat::from_path(&edge_file),
            &cache_dir,
        )
        .unwrap();
        assert!(snapshot.is_file(), "the first load wrote a snapshot");

        // Journal a full campaign over the external graph.
        let scale = Scale {
            scale_shift: 13,
            seed: 7,
            max_iterations: 2,
        };
        let specs = [external_spec(scale, &[ds])];
        let journal = dir.join("journal.jsonl");
        let first = SweepRunner::sequential()
            .run_campaign_resumed(scale, &specs, &journal)
            .unwrap();
        assert!(first.executed > 0);

        // Second invocation: the snapshot hits, and re-registration keeps the id …
        let ds2 = load_externals(&externals, &cache_dir).unwrap()[0];
        assert_eq!(ds2, ds, "re-registration keeps the id");
        assert_eq!(*ds.build_shared(0, 0), expected);
        assert_eq!(ds.spec().paper_edges, expected.num_edges());
        let cached: Vec<_> = std::fs::read_dir(&cache_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(cached, [snapshot], "the cache holds the snapshot alone");

        // … and a fully-replayed resume finishes the campaign without executing a
        // unit or building a graph: same bytes.
        let resumed = SweepRunner::sequential()
            .run_campaign_resumed(scale, &specs, &journal)
            .unwrap();
        assert_eq!(resumed.executed, 0);
        assert_eq!(resumed.replayed, first.executed + first.replayed);
        assert_eq!(resumed.run.stats.graphs_built, 0);
        assert_eq!(
            results_json(scale, &resumed.run.figures),
            results_json(scale, &first.run.figures),
            "replayed results are byte-identical"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
