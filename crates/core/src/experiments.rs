//! Experiment drivers reproducing every table and figure of the paper's evaluation.
//!
//! Each figure is declared as an [`ExperimentSpec`] (see [`crate::sweep`]): a grid of
//! independent simulation runs plus the derived output rows (speedups, ratios, geometric
//! means) computed from the completed grid. A [`SweepRunner`](crate::sweep::SweepRunner)
//! executes one or many specs through the cross-figure campaign scheduler
//! ([`crate::campaign`]) over a single worker pool with bit-identical output for any
//! worker count, building each distinct graph exactly once campaign-wide. The `piccolo-bench`
//! crate exposes the specs through the `repro` binary (`--jobs N`, global across
//! figures) and the hand-rolled bench harness, both of which also emit the
//! machine-readable `results.json` / `BENCH.json`.

use crate::olap::{self, OlapQuery};
use crate::report::SimReport;
use crate::sweep::{ExperimentSpec, RunConfig, RunHandle, TraversalKind};
use piccolo_accel::{CacheKind, SimConfig, SystemKind, TilingPolicy};
use piccolo_algo::Algorithm;
use piccolo_dram::{DramConfig, MemoryKind};
use piccolo_graph::Dataset;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Right shift applied to the paper's dataset sizes (and to the on-chip structures).
    pub scale_shift: u32,
    /// RNG seed for the synthetic stand-ins.
    pub seed: u64,
    /// Iteration cap per run.
    pub max_iterations: u32,
}

impl Scale {
    /// A quick scale suitable for CI and the bench harness (seconds per figure).
    pub fn quick() -> Self {
        Self {
            scale_shift: 13,
            seed: 7,
            max_iterations: 3,
        }
    }

    /// The default reproduction scale (datasets shrunk 4096x, a few minutes per figure).
    pub fn default_repro() -> Self {
        Self {
            scale_shift: 12,
            seed: 7,
            max_iterations: 5,
        }
    }

    /// Folds this scale into a campaign plan hash (see [`crate::campaign::plan_hash`]):
    /// `Measure` units close over the scale invisibly, so the scale must be part of any
    /// fingerprint that claims two plans are interchangeable.
    pub(crate) fn fingerprint(&self, h: &mut piccolo_obs::hash::Fnv64) {
        h.update(
            format!(
                "scale shift={} seed={} iters={}\0",
                self.scale_shift, self.seed, self.max_iterations
            )
            .as_bytes(),
        );
    }
}

/// One measured data point: a label (matching the paper's x-axis) and a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Row label, e.g. "PR/TW/Piccolo".
    pub label: String,
    /// Value (speedup, cycles, GB/s, normalized energy ... depending on the figure).
    pub value: f64,
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // lint: allow(float-format-via-codec, stdout summary table only — results.json takes Point.value through Json::Num)
        write!(f, "{:<40} {:>12.4}", self.label, self.value)
    }
}

fn config(system: SystemKind, scale: Scale) -> SimConfig {
    SimConfig::for_system(system, scale.scale_shift).with_max_iterations(scale.max_iterations)
}

/// Vertex-centric run description at `scale`.
fn vc(d: Dataset, scale: Scale, alg: Algorithm, cfg: SimConfig) -> RunConfig {
    RunConfig::new(
        d,
        scale.scale_shift,
        scale.seed,
        alg,
        TraversalKind::VertexCentric,
        cfg,
    )
}

/// Edge-centric run description at `scale`.
fn ec(d: Dataset, scale: Scale, alg: Algorithm, cfg: SimConfig) -> RunConfig {
    RunConfig::new(
        d,
        scale.scale_shift,
        scale.seed,
        alg,
        TraversalKind::EdgeCentric,
        cfg,
    )
}

/// Geometric mean with values clamped to `1e-12` (0.0 for an empty slice) — the
/// aggregation every "GM" figure row uses. Exported so the bench harness's speedup
/// metrics aggregate exactly the way the figures themselves do.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Every figure/table name the reproduction knows, in the order `repro all` runs them.
pub const FIGURES: [&str; 17] = [
    "table2", "fig03", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19a", "fig19b", "fig20a", "fig20b", "area",
];

/// Builds the spec for `name` with the default dataset/algorithm selection the `repro`
/// binary uses; `None` for unknown names.
pub fn default_spec(name: &str, scale: Scale) -> Option<ExperimentSpec> {
    let datasets = Dataset::REAL_WORLD;
    let algorithms = Algorithm::ALL;
    let one_alg = [Algorithm::PageRank, Algorithm::Bfs];
    Some(match name {
        "table2" => table2_spec(scale),
        "fig03" => fig03_spec(
            scale,
            &[Dataset::Twitter, Dataset::Sinaweibo, Dataset::Friendster],
        ),
        "fig09" => fig09_spec(),
        "fig10" => fig10_spec(scale, &datasets, &algorithms),
        "fig11" => fig11_spec(scale, &[Dataset::Sinaweibo, Dataset::Friendster], &one_alg),
        "fig12" => fig12_spec(scale, &datasets, &algorithms),
        "fig13" => fig13_spec(scale, &[Dataset::Sinaweibo], &algorithms),
        "fig14" => fig14_spec(scale, &[Dataset::Sinaweibo, Dataset::Friendster], &one_alg),
        "fig15" => fig15_spec(scale, Dataset::Sinaweibo, &algorithms),
        "fig16" => fig16_spec(scale, Dataset::Sinaweibo, &algorithms),
        "fig17" => fig17_spec(scale, Dataset::Sinaweibo, &algorithms),
        "fig18" => fig18_spec(scale),
        "fig19a" => fig19a_spec(scale, &datasets),
        "fig19b" => fig19b_spec(200_000),
        "fig20a" => fig20a_spec(scale, Dataset::Sinaweibo, &one_alg),
        "fig20b" => fig20b_spec(scale, &datasets),
        "area" => area_spec(),
        _ => return None,
    })
}

/// Resolves figure names to their default specs, preserving request order. The
/// resulting list is what the `repro` binary hands to
/// [`SweepRunner::run_campaign`](crate::campaign) as one campaign.
///
/// # Errors
///
/// Names the first figure that matches nothing.
pub fn default_specs(names: &[String], scale: Scale) -> Result<Vec<ExperimentSpec>, String> {
    names
        .iter()
        .map(|name| default_spec(name, scale).ok_or_else(|| format!("unknown figure '{name}'")))
        .collect()
}

/// Fig. 3 — motivational experiment: useful vs unuseful off-chip traffic and RD/WR
/// transactions for BFS on the baseline, without tiling and with perfect tiling.
pub fn fig03_spec(scale: Scale, datasets: &[Dataset]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig03", "Fig. 3 (motivation)");
    for &d in datasets {
        for (mode, tiling) in [
            ("Non-Tiling", TilingPolicy::None),
            ("Perfect", TilingPolicy::Perfect),
        ] {
            let cfg = config(SystemKind::GraphDynsCache, scale)
                .with_tiling(tiling)
                .with_max_iterations(40);
            let h = b.sim(vc(d, scale, Algorithm::Bfs, cfg));
            b.point(format!("BFS/{}/{mode}/useful%", d.short_name()), move |r| {
                100.0 * r.run(h).mem_stats.useful_fraction()
            });
            b.point(format!("BFS/{}/{mode}/read_tx", d.short_name()), move |r| {
                r.run(h).mem_stats.read_transactions as f64
            });
            b.point(
                format!("BFS/{}/{mode}/write_tx", d.short_name()),
                move |r| r.run(h).mem_stats.write_transactions as f64,
            );
        }
    }
    b.build()
}

/// One (stride pattern, stride) case of the Fig. 9 strided-read microbenchmark.
fn fig09_point(case: &'static str, span: u64, stride: u64) -> Point {
    use piccolo_dram::{AddressMapper, MemRequest, MemorySystem, Region};
    let cfg = DramConfig::new(MemoryKind::Ddr4X16, 1, 4);
    let mapper = AddressMapper::new(&cfg);
    let items = 16 * 1024 * 1024 / (stride * 8) / 64; // scaled-down 16 MB / 64
    let addr_of = |i: u64| i * stride * 8 * span.max(1);
    let mut conv = MemorySystem::new(cfg);
    let t_conv = conv
        .service_batch((0..items).map(|i| MemRequest::Read {
            addr: addr_of(i),
            useful_bytes: 8,
            region: Region::Other,
        }))
        .elapsed_clocks();
    let fim_cfg = DramConfig::new(MemoryKind::Ddr4X16, 1, 4).with_fim();
    let mut fim = MemorySystem::new(fim_cfg);
    let mut by_row: std::collections::BTreeMap<_, Vec<u16>> = std::collections::BTreeMap::new();
    let mut order = Vec::new();
    for i in 0..items {
        let a = addr_of(i);
        let loc = mapper.decompose(a);
        let row = mapper.row_id_of(&loc);
        by_row
            .entry(row)
            .or_insert_with(|| {
                order.push(row);
                Vec::new()
            })
            .push(loc.word_offset());
    }
    let mut reqs = Vec::new();
    for row in order {
        for chunk in by_row[&row].chunks(8) {
            reqs.push(MemRequest::GatherFim {
                row,
                offsets: chunk.to_vec(),
                region: Region::Other,
            });
        }
    }
    let t_fim = fim.service_batch(reqs).elapsed_clocks();
    Point {
        label: format!("{case}/stride{stride}/speedup"),
        value: t_conv as f64 / t_fim.max(1) as f64,
    }
}

/// Fig. 9 — strided-read microbenchmark on the DRAM model (single-row vs multi-row).
pub fn fig09_spec() -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig09", "Fig. 9 (FIM microbenchmark)");
    for (case, span) in [("single-row", 1u64), ("multi-row", 64)] {
        for stride in [4u64, 8, 16, 32] {
            b.measure(move || vec![fig09_point(case, span, stride)]);
        }
    }
    b.build()
}

/// Fig. 10 — overall speedup of every system over GraphDyns (Cache), per algorithm and
/// dataset, plus the geometric mean.
pub fn fig10_spec(scale: Scale, datasets: &[Dataset], algorithms: &[Algorithm]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig10", "Fig. 10 (overall speedup)");
    let mut per_system: Vec<(SystemKind, Vec<(RunHandle, RunHandle)>)> =
        SystemKind::ALL.iter().map(|&s| (s, Vec::new())).collect();
    for &alg in algorithms {
        for &d in datasets {
            let base = b.sim(vc(d, scale, alg, config(SystemKind::GraphDynsCache, scale)));
            for system in SystemKind::ALL {
                let h = if system == SystemKind::GraphDynsCache {
                    base
                } else {
                    b.sim(vc(d, scale, alg, config(system, scale)))
                };
                per_system
                    .iter_mut()
                    .find(|(s, _)| *s == system)
                    .unwrap()
                    .1
                    .push((base, h));
                b.point(
                    format!("{}/{}/{}", alg.short_name(), d.short_name(), system.name()),
                    move |r| r.speedup(base, h),
                );
            }
        }
    }
    for (system, pairs) in per_system {
        b.point(format!("GM/{}", system.name()), move |r| {
            let speedups: Vec<f64> = pairs.iter().map(|&(bh, h)| r.speedup(bh, h)).collect();
            geomean(&speedups)
        });
    }
    b.build()
}

/// Fig. 11 — fine-grained cache designs on top of Piccolo-FIM, normalized to the
/// conventional-cache baseline.
pub fn fig11_spec(scale: Scale, datasets: &[Dataset], algorithms: &[Algorithm]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig11", "Fig. 11 (cache designs)");
    for &alg in algorithms {
        for &d in datasets {
            let base = b.sim(vc(d, scale, alg, config(SystemKind::GraphDynsCache, scale)));
            for cache in CacheKind::FIG11 {
                let cfg = config(SystemKind::Piccolo, scale).with_cache(cache);
                let h = b.sim(vc(d, scale, alg, cfg));
                b.point(
                    format!("{}/{}/{}", alg.short_name(), d.short_name(), cache.name()),
                    move |r| r.speedup(base, h),
                );
            }
        }
    }
    b.build()
}

/// Fig. 12 — normalized off-chip memory accesses (reads and writes) of Piccolo relative
/// to the baseline.
pub fn fig12_spec(scale: Scale, datasets: &[Dataset], algorithms: &[Algorithm]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig12", "Fig. 12 (memory accesses)");
    for &alg in algorithms {
        for &d in datasets {
            let base = b.sim(vc(d, scale, alg, config(SystemKind::GraphDynsCache, scale)));
            let pic = b.sim(vc(d, scale, alg, config(SystemKind::Piccolo, scale)));
            b.point(
                format!("{}/{}/read", alg.short_name(), d.short_name()),
                move |r| {
                    r.run(pic).mem_stats.read_transactions as f64
                        / r.run(base).mem_stats.total_transactions().max(1) as f64
                },
            );
            b.point(
                format!("{}/{}/write", alg.short_name(), d.short_name()),
                move |r| {
                    r.run(pic).mem_stats.write_transactions as f64
                        / r.run(base).mem_stats.total_transactions().max(1) as f64
                },
            );
        }
    }
    b.build()
}

/// Fig. 13 — off-chip and DRAM-internal bandwidth of the baseline, PIM and Piccolo.
pub fn fig13_spec(scale: Scale, datasets: &[Dataset], algorithms: &[Algorithm]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig13", "Fig. 13 (bandwidth)");
    for &alg in algorithms {
        for &d in datasets {
            for system in [
                SystemKind::GraphDynsCache,
                SystemKind::Pim,
                SystemKind::Piccolo,
            ] {
                let h = b.sim(vc(d, scale, alg, config(system, scale)));
                b.point(
                    format!(
                        "{}/{}/{}/offchip GB-s",
                        alg.short_name(),
                        d.short_name(),
                        system.name()
                    ),
                    move |r| r.run(h).offchip_bandwidth_gbps(),
                );
                if system != SystemKind::GraphDynsCache {
                    b.point(
                        format!(
                            "{}/{}/{}/internal GB-s",
                            alg.short_name(),
                            d.short_name(),
                            system.name()
                        ),
                        move |r| r.run(h).internal_bandwidth_gbps(),
                    );
                }
            }
        }
    }
    b.build()
}

/// The Fig. 14 energy categories, keyed by the label fragment the figure uses.
const ENERGY_CATEGORIES: [&str; 6] = ["acc", "cache", "dram_rd", "dram_wr", "dram_io", "others"];

fn energy_component(e: &crate::report::EnergyBreakdown, name: &str) -> f64 {
    match name {
        "acc" => e.accelerator_nj,
        "cache" => e.cache_nj,
        "dram_rd" => e.dram_read_nj,
        "dram_wr" => e.dram_write_nj,
        "dram_io" => e.dram_io_nj,
        "others" => e.others_nj,
        _ => unreachable!("unknown energy category {name}"),
    }
}

/// Fig. 14 — normalized energy breakdown of Piccolo relative to the baseline.
pub fn fig14_spec(scale: Scale, datasets: &[Dataset], algorithms: &[Algorithm]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig14", "Fig. 14 (energy)");
    for &alg in algorithms {
        for &d in datasets {
            let base_cfg = config(SystemKind::GraphDynsCache, scale);
            let pic_cfg = config(SystemKind::Piccolo, scale);
            let hb = b.sim(vc(d, scale, alg, base_cfg));
            let hp = b.sim(vc(d, scale, alg, pic_cfg));
            for name in ENERGY_CATEGORIES {
                b.point(
                    format!("{}/{}/base/{}", alg.short_name(), d.short_name(), name),
                    move |r| {
                        let base = SimReport::from_run(r.run(hb).clone(), &base_cfg.dram).energy;
                        energy_component(&base, name) / base.total_nj().max(1e-9)
                    },
                );
                b.point(
                    format!("{}/{}/piccolo/{}", alg.short_name(), d.short_name(), name),
                    move |r| {
                        let base = SimReport::from_run(r.run(hb).clone(), &base_cfg.dram).energy;
                        let pic = SimReport::from_run(r.run(hp).clone(), &pic_cfg.dram).energy;
                        energy_component(&pic, name) / base.total_nj().max(1e-9)
                    },
                );
            }
        }
    }
    b.build()
}

/// Fig. 15 — memory-type sensitivity (cycles, baseline vs Piccolo) on one dataset.
pub fn fig15_spec(scale: Scale, dataset: Dataset, algorithms: &[Algorithm]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig15", "Fig. 15 (memory types)");
    for &alg in algorithms {
        for kind in MemoryKind::ALL {
            for system in [SystemKind::GraphDynsCache, SystemKind::Piccolo] {
                let mut dram = DramConfig::new(kind, 2, 4).with_row_bytes(1024);
                if system == SystemKind::Piccolo {
                    dram = dram.with_fim();
                }
                let cfg = config(system, scale).with_dram(dram);
                let h = b.sim(vc(dataset, scale, alg, cfg));
                b.point(
                    format!(
                        "{}/{}/{}/cycles",
                        alg.short_name(),
                        kind.name(),
                        system.name()
                    ),
                    move |r| r.run(h).accel_cycles as f64,
                );
            }
        }
    }
    b.build()
}

/// Fig. 16 — channel/rank sensitivity (cycles) on one dataset.
pub fn fig16_spec(scale: Scale, dataset: Dataset, algorithms: &[Algorithm]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig16", "Fig. 16 (channels/ranks)");
    for &alg in algorithms {
        for channels in [1u32, 2] {
            for ranks in [1u32, 2, 4] {
                for system in [SystemKind::GraphDynsCache, SystemKind::Piccolo] {
                    let mut dram =
                        DramConfig::new(MemoryKind::Ddr4X16, channels, ranks).with_row_bytes(1024);
                    if system == SystemKind::Piccolo {
                        dram = dram.with_fim();
                    }
                    let cfg = config(system, scale).with_dram(dram);
                    let h = b.sim(vc(dataset, scale, alg, cfg));
                    b.point(
                        format!(
                            "{}/ch{}ra{}/{}/cycles",
                            alg.short_name(),
                            channels,
                            ranks,
                            system.name()
                        ),
                        move |r| r.run(h).accel_cycles as f64,
                    );
                }
            }
        }
    }
    b.build()
}

/// Fig. 17 — tile-size sensitivity (normalized cycles vs scaling factor) on one dataset.
pub fn fig17_spec(scale: Scale, dataset: Dataset, algorithms: &[Algorithm]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig17", "Fig. 17 (tile size)");
    for &alg in algorithms {
        let base_ref = b.sim(vc(
            dataset,
            scale,
            alg,
            config(SystemKind::GraphDynsCache, scale).with_tiling(TilingPolicy::Perfect),
        ));
        for factor in [1u32, 2, 4, 8, 16] {
            for system in [SystemKind::GraphDynsCache, SystemKind::Piccolo] {
                let cfg = config(system, scale).with_tiling(TilingPolicy::Scaled(factor));
                let h = b.sim(vc(dataset, scale, alg, cfg));
                b.point(
                    format!(
                        "{}/x{}/{}/norm-cycles",
                        alg.short_name(),
                        factor,
                        system.name()
                    ),
                    move |r| {
                        r.run(h).accel_cycles as f64 / r.run(base_ref).accel_cycles.max(1) as f64
                    },
                );
            }
        }
    }
    b.build()
}

/// Fig. 18 — synthetic-graph speedups (PR) over the baseline for Watts–Strogatz and
/// Kronecker stand-ins at increasing scales.
pub fn fig18_spec(scale: Scale) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig18", "Fig. 18 (synthetic graphs)");
    let datasets = [
        Dataset::WattsStrogatz { scale: 26 },
        Dataset::WattsStrogatz { scale: 27 },
        Dataset::Kronecker { scale: 25 },
        Dataset::Kronecker { scale: 26 },
        Dataset::Kronecker { scale: 27 },
        Dataset::Kronecker { scale: 28 },
    ];
    for d in datasets {
        let base = b.sim(vc(
            d,
            scale,
            Algorithm::PageRank,
            config(SystemKind::GraphDynsCache, scale),
        ));
        for system in [
            SystemKind::GraphDynsSpm,
            SystemKind::GraphDynsCache,
            SystemKind::Nmp,
            SystemKind::Pim,
            SystemKind::Piccolo,
        ] {
            let h = if system == SystemKind::GraphDynsCache {
                base
            } else {
                b.sim(vc(d, scale, Algorithm::PageRank, config(system, scale)))
            };
            b.point(
                format!("PR/{}/{}", d.short_name(), system.name()),
                move |r| r.speedup(base, h),
            );
        }
    }
    b.build()
}

/// Fig. 19a — edge-centric vs vertex-centric, conventional vs Piccolo (PR speedup over
/// the vertex-centric conventional baseline).
pub fn fig19a_spec(scale: Scale, datasets: &[Dataset]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig19a", "Fig. 19a (edge-centric)");
    for &d in datasets {
        let alg = Algorithm::PageRank;
        let vc_base = b.sim(vc(d, scale, alg, config(SystemKind::GraphDynsCache, scale)));
        let vc_pic = b.sim(vc(d, scale, alg, config(SystemKind::Piccolo, scale)));
        let ec_base = b.sim(ec(d, scale, alg, config(SystemKind::GraphDynsCache, scale)));
        let ec_pic = b.sim(ec(d, scale, alg, config(SystemKind::Piccolo, scale)));
        for (name, h) in [
            ("VC/Conventional", vc_base),
            ("VC/Piccolo", vc_pic),
            ("EC/Conventional", ec_base),
            ("EC/Piccolo", ec_pic),
        ] {
            b.point(format!("PR/{}/{}", d.short_name(), name), move |r| {
                r.speedup(vc_base, h)
            });
        }
    }
    b.build()
}

/// Fig. 19b — OLAP column-scan speedups (Qa–Qd).
pub fn fig19b_spec(tuples: u64) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig19b", "Fig. 19b (OLAP)");
    for q in OlapQuery::suite(tuples) {
        b.measure(move || {
            vec![Point {
                label: format!("OLAP/{}", q.name),
                value: olap::speedup(&q, DramConfig::ddr4_2400_x16()),
            }]
        });
    }
    b.build()
}

/// Fig. 20a — enhanced FIM designs on DDR4x4 and HBM (speedup over the baseline).
pub fn fig20a_spec(scale: Scale, dataset: Dataset, algorithms: &[Algorithm]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig20a", "Fig. 20a (enhanced designs)");
    for &alg in algorithms {
        for kind in [MemoryKind::Ddr4X4, MemoryKind::Hbm] {
            let base_cfg = config(SystemKind::GraphDynsCache, scale)
                .with_dram(DramConfig::new(kind, 2, 4).with_row_bytes(1024));
            let base = b.sim(vc(dataset, scale, alg, base_cfg));
            for (name, enhanced) in [("Piccolo", false), ("Piccolo enhanced", true)] {
                let mut dram = DramConfig::new(kind, 2, 4).with_row_bytes(1024);
                dram = if enhanced {
                    dram.with_enhanced_fim()
                } else {
                    dram.with_fim()
                };
                let cfg = config(SystemKind::Piccolo, scale).with_dram(dram);
                let h = b.sim(vc(dataset, scale, alg, cfg));
                b.point(
                    format!("{}/{}/{}", alg.short_name(), kind.name(), name),
                    move |r| r.speedup(base, h),
                );
            }
        }
    }
    b.build()
}

/// Fig. 20b — effect of disabling prefetching (normalized performance, PR).
pub fn fig20b_spec(scale: Scale, datasets: &[Dataset]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("fig20b", "Fig. 20b (prefetch disabled)");
    for &d in datasets {
        let with = b.sim(vc(
            d,
            scale,
            Algorithm::PageRank,
            config(SystemKind::Piccolo, scale),
        ));
        let without = b.sim(vc(
            d,
            scale,
            Algorithm::PageRank,
            config(SystemKind::Piccolo, scale).without_prefetch(),
        ));
        b.point(
            format!("PR/{}/no-prefetch norm-perf", d.short_name()),
            move |r| r.run(with).accel_cycles as f64 / r.run(without).accel_cycles.max(1) as f64,
        );
    }
    b.build()
}

/// External datasets — the configurable figure subset `repro --external` runs over
/// loaded graphs: PR and BFS on both traversal engines, conventional baseline vs
/// Piccolo, every row a speedup over that algorithm's vertex-centric conventional run
/// (the Fig. 19a convention). `datasets` are [`Dataset::External`] handles from
/// [`piccolo_graph::external::register`], but any dataset works.
pub fn external_spec(scale: Scale, datasets: &[Dataset]) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("external", "External datasets (PR+BFS, both engines)");
    for &d in datasets {
        for alg in [Algorithm::PageRank, Algorithm::Bfs] {
            let vc_base = b.sim(vc(d, scale, alg, config(SystemKind::GraphDynsCache, scale)));
            let vc_pic = b.sim(vc(d, scale, alg, config(SystemKind::Piccolo, scale)));
            let ec_base = b.sim(ec(d, scale, alg, config(SystemKind::GraphDynsCache, scale)));
            let ec_pic = b.sim(ec(d, scale, alg, config(SystemKind::Piccolo, scale)));
            for (name, h) in [
                ("VC/Conventional", vc_base),
                ("VC/Piccolo", vc_pic),
                ("EC/Conventional", ec_base),
                ("EC/Piccolo", ec_pic),
            ] {
                b.point(
                    format!("{}/{}/{}", alg.short_name(), d.short_name(), name),
                    move |r| r.speedup(vc_base, h),
                );
            }
        }
    }
    b.build()
}

/// Table II — dataset inventory (paper sizes vs stand-in sizes).
pub fn table2_spec(scale: Scale) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("table2", "Table II (datasets)");
    for d in Dataset::REAL_WORLD {
        b.measure(move || {
            let spec = d.spec();
            let g = d.build(scale.scale_shift, scale.seed);
            vec![
                Point {
                    label: format!("{}/paper-edges", d.short_name()),
                    value: spec.paper_edges as f64,
                },
                Point {
                    label: format!("{}/standin-edges", d.short_name()),
                    value: g.num_edges() as f64,
                },
                Point {
                    label: format!("{}/standin-avg-degree", d.short_name()),
                    value: g.average_degree(),
                },
            ]
        });
    }
    b.build()
}

/// Section VII-F — area report rows (accelerator area, DRAM die and tag overheads).
pub fn area_spec() -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("area", "Area (Section VII-F)");
    b.measure(|| {
        let a = crate::report::area_report();
        vec![
            Point {
                label: "baseline accelerator/mm2".to_string(),
                value: a.baseline_accelerator_mm2,
            },
            Point {
                label: "piccolo accelerator/mm2".to_string(),
                value: a.piccolo_accelerator_mm2,
            },
            Point {
                label: "onchip overhead/%".to_string(),
                value: 100.0 * a.onchip_overhead_fraction,
            },
            Point {
                label: "DRAM die overhead/%".to_string(),
                value: 100.0 * a.dram_overhead_fraction,
            },
            Point {
                label: "piccolo-cache tag overhead/%".to_string(),
                value: 100.0 * a.piccolo_tag_overhead,
            },
            Point {
                label: "8B-line cache tag overhead/%".to_string(),
                value: 100.0 * a.line8_tag_overhead,
            },
        ]
    });
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepRunner;

    fn tiny() -> Scale {
        Scale {
            scale_shift: 15,
            seed: 3,
            max_iterations: 2,
        }
    }

    #[test]
    fn fig10_reports_all_systems_and_gm() {
        let spec = fig10_spec(tiny(), &[Dataset::Sinaweibo], &[Algorithm::Bfs]);
        let pts = SweepRunner::sequential().run(&spec);
        assert_eq!(pts.len(), 6 + 6);
        let gm_piccolo = pts
            .iter()
            .find(|p| p.label == "GM/Piccolo")
            .expect("GM row present");
        assert!(gm_piccolo.value > 0.5);
        let base = pts
            .iter()
            .find(|p| p.label == "GM/GraphDyns (Cache)")
            .unwrap();
        assert!((base.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig09_single_row_speedup_is_large() {
        let pts = SweepRunner::sequential().run(&fig09_spec());
        let p = pts
            .iter()
            .find(|p| p.label == "single-row/stride8/speedup")
            .unwrap();
        assert!(p.value > 2.0, "{}", p.value);
        assert!(!format!("{p}").is_empty());
    }

    #[test]
    fn fig19b_olap_speedups_are_positive() {
        let pts = SweepRunner::sequential().run(&fig19b_spec(20_000));
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|p| p.value > 1.0));
    }

    #[test]
    fn table2_preserves_relative_sizes() {
        let pts = SweepRunner::sequential().run(&table2_spec(tiny()));
        assert_eq!(pts.len(), 15);
    }

    #[test]
    fn default_spec_covers_every_figure() {
        for name in FIGURES {
            let spec = default_spec(name, tiny()).expect(name);
            assert_eq!(spec.name(), name);
            assert!(!spec.title().is_empty());
        }
        assert!(default_spec("fig99", tiny()).is_none());
    }

    #[test]
    fn default_specs_resolves_known_names_and_reports_unknown_ones() {
        let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let specs = default_specs(&names(&["fig10", "table2"]), tiny()).unwrap();
        assert_eq!(
            specs.iter().map(ExperimentSpec::name).collect::<Vec<_>>(),
            ["fig10", "table2"]
        );
        assert_eq!(
            default_specs(&names(&["fig10", "fig99", "table2", "fig98"]), tiny()).unwrap_err(),
            "unknown figure 'fig99'"
        );
    }

    #[test]
    fn external_spec_covers_both_algorithms_and_engines() {
        use piccolo_graph::{external, generate};

        let ds = external::register("experiments-test-ext", generate::kronecker(10, 4, 31));
        let spec = external_spec(tiny(), &[ds]);
        assert_eq!(spec.name(), "external");
        assert_eq!(spec.num_runs(), 2 * 4); // PR+BFS x {VC,EC} x {base,Piccolo}
        let pts = SweepRunner::sequential().run(&spec);
        assert_eq!(pts.len(), 8);
        for alg in ["PR", "BFS"] {
            let base = pts
                .iter()
                .find(|p| p.label == format!("{alg}/experiments-test-ext/VC/Conventional"))
                .expect("baseline row present");
            assert!(
                (base.value - 1.0).abs() < 1e-9,
                "{}: {}",
                base.label,
                base.value
            );
        }
        assert!(pts.iter().all(|p| p.value > 0.0));
    }

    #[test]
    fn parallel_figure_output_matches_sequential() {
        // The acceptance-critical property at figure granularity: a parallel sweep of a
        // real figure produces the exact same rows as the sequential reference.
        let spec = fig10_spec(tiny(), &[Dataset::Sinaweibo], &[Algorithm::Bfs]);
        let seq = SweepRunner::sequential().run(&spec);
        let par = SweepRunner::new(8).run(&spec);
        assert_eq!(seq, par);
        let spec17 = fig17_spec(tiny(), Dataset::Sinaweibo, &[Algorithm::Bfs]);
        assert_eq!(
            SweepRunner::sequential().run(&spec17),
            SweepRunner::new(3).run(&spec17)
        );
    }
}
