//! Generic design-space sweep engine: declarative experiment grids executed by a
//! hand-rolled worker pool with deterministic result ordering.
//!
//! The paper's evaluation is dominated by sweeps over independent simulation runs
//! (systems x algorithms x datasets x cache designs x DRAM configurations). Each figure
//! used to be a hand-rolled sequential loop; this module splits every figure into
//!
//! 1. a **grid** of independent work units — fully-owned [`RunConfig`]s (one simulation
//!    each) or self-contained [`measure`](SpecBuilder::measure) closures (DRAM
//!    microbenchmarks, OLAP queries, dataset inventories), and
//! 2. a list of **derived points**: closures that compute each output row from the
//!    completed grid (speedups over a baseline run, geometric means, traffic ratios).
//!
//! An [`ExperimentSpec`] packages both; a [`SweepRunner`] executes the grid across a
//! scoped `std::thread` worker pool ([`run_indexed`]) and then evaluates the derived
//! points. Because every unit is independent and results are collected *by index*, the
//! output is bit-identical for any worker count — `--jobs 1` and `--jobs $(nproc)` must
//! (and do) produce the same bytes, which CI enforces.
//!
//! Execution itself lives in [`crate::campaign`]: [`SweepRunner::run`] is a campaign of
//! one figure, and [`SweepRunner::run_campaign`](crate::campaign) flattens many figures
//! into one global queue that builds each distinct graph exactly once campaign-wide.
//!
//! Like [`piccolo_graph::rng`], the pool is hand-rolled on `std` only: the build
//! environment has no access to crates.io, so there is no rayon/crossbeam here — just
//! `std::thread::scope`, an atomic work index and per-slot mutexes.
//!
//! # Example
//!
//! ```
//! use piccolo::sweep::{ExperimentSpec, RunConfig, SweepRunner, TraversalKind};
//! use piccolo::{SimConfig, SystemKind};
//! use piccolo_algo::Algorithm;
//! use piccolo_graph::Dataset;
//!
//! let mut b = ExperimentSpec::builder("demo", "BFS speedup demo");
//! let cfg = |s| SimConfig::for_system(s, 14).with_max_iterations(2);
//! let base = b.sim(RunConfig::new(
//!     Dataset::Sinaweibo, 14, 7, Algorithm::Bfs,
//!     TraversalKind::VertexCentric, cfg(SystemKind::GraphDynsCache),
//! ));
//! let pic = b.sim(RunConfig::new(
//!     Dataset::Sinaweibo, 14, 7, Algorithm::Bfs,
//!     TraversalKind::VertexCentric, cfg(SystemKind::Piccolo),
//! ));
//! b.point("BFS/SW/speedup", move |r| {
//!     r.run(base).accel_cycles as f64 / r.run(pic).accel_cycles.max(1) as f64
//! });
//! let spec = b.build();
//! let sequential = SweepRunner::sequential().run(&spec);
//! let parallel = SweepRunner::new(4).run(&spec);
//! assert_eq!(sequential, parallel); // deterministic for any worker count
//! ```

use crate::experiments::Point;
use piccolo_accel::{simulate, simulate_edge_centric, RunResult, SimConfig};
use piccolo_algo::{Algorithm, Bfs, ConnectedComponents, PageRank, Sssp, Sswp};
use piccolo_graph::{Csr, Dataset};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The graph-identity key `(dataset, scale_shift, seed)` under which the campaign
/// scheduler deduplicates graph builds: two runs with equal keys traverse the same
/// deterministic stand-in graph.
pub type GraphKey = (Dataset, u32, u64);

/// Which traversal order a run uses (Fig. 19a compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraversalKind {
    /// Destination-interval tiles walked by the active frontier (the default engine).
    VertexCentric,
    /// 2-D grid blocks streaming the whole edge set every iteration (Section VII-H).
    EdgeCentric,
}

/// A fully-owned description of one independent simulation run in a sweep grid.
///
/// Every field is a value (no borrows, no shared state): a `RunConfig` can be shipped to
/// any worker thread and executed there without touching anything but its own graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Graph to build (stand-in datasets are deterministic given shift and seed).
    pub dataset: Dataset,
    /// Right shift applied to the paper's dataset size.
    pub scale_shift: u32,
    /// RNG seed for the synthetic stand-in.
    pub seed: u64,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Traversal order.
    pub traversal: TraversalKind,
    /// Full simulation configuration (system, cache, DRAM, tiling, iteration cap).
    pub cfg: SimConfig,
}

impl RunConfig {
    /// Creates a run description.
    pub fn new(
        dataset: Dataset,
        scale_shift: u32,
        seed: u64,
        algorithm: Algorithm,
        traversal: TraversalKind,
        cfg: SimConfig,
    ) -> Self {
        Self {
            dataset,
            scale_shift,
            seed,
            algorithm,
            traversal,
            cfg,
        }
    }

    /// The graph-identity key under which each distinct graph is built exactly once
    /// across a whole campaign (see [`crate::campaign`]).
    pub fn graph_key(&self) -> GraphKey {
        (self.dataset, self.scale_shift, self.seed)
    }

    /// Executes this run against an already-built graph.
    pub fn execute(&self, graph: &Csr) -> RunResult {
        match (self.traversal, self.algorithm) {
            (TraversalKind::VertexCentric, Algorithm::PageRank) => {
                simulate(graph, &PageRank::default(), &self.cfg)
            }
            (TraversalKind::VertexCentric, Algorithm::Bfs) => {
                simulate(graph, &Bfs::new(0), &self.cfg)
            }
            (TraversalKind::VertexCentric, Algorithm::ConnectedComponents) => {
                simulate(graph, &ConnectedComponents::new(), &self.cfg)
            }
            (TraversalKind::VertexCentric, Algorithm::Sssp) => {
                simulate(graph, &Sssp::new(0), &self.cfg)
            }
            (TraversalKind::VertexCentric, Algorithm::Sswp) => {
                simulate(graph, &Sswp::new(0), &self.cfg)
            }
            (TraversalKind::EdgeCentric, Algorithm::PageRank) => {
                simulate_edge_centric(graph, &PageRank::default(), &self.cfg)
            }
            (TraversalKind::EdgeCentric, Algorithm::Bfs) => {
                simulate_edge_centric(graph, &Bfs::new(0), &self.cfg)
            }
            (TraversalKind::EdgeCentric, Algorithm::ConnectedComponents) => {
                simulate_edge_centric(graph, &ConnectedComponents::new(), &self.cfg)
            }
            (TraversalKind::EdgeCentric, Algorithm::Sssp) => {
                simulate_edge_centric(graph, &Sssp::new(0), &self.cfg)
            }
            (TraversalKind::EdgeCentric, Algorithm::Sswp) => {
                simulate_edge_centric(graph, &Sswp::new(0), &self.cfg)
            }
        }
    }
}

/// Opaque handle to a registered simulation run; index into the sweep's result vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHandle(usize);

/// One independent unit of work in a sweep grid.
pub(crate) enum Unit {
    /// A full simulation run.
    Sim(Box<RunConfig>),
    /// A self-contained measurement producing points directly (microbenchmarks,
    /// analytical models, inventories).
    Measure(Box<dyn Fn() -> Vec<Point> + Send + Sync>),
}

impl std::fmt::Debug for Unit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unit::Sim(rc) => f.debug_tuple("Sim").field(rc).finish(),
            Unit::Measure(_) => f.write_str("Measure(..)"),
        }
    }
}

/// Output of one executed unit.
#[derive(Debug, Clone)]
pub(crate) enum UnitResult {
    Run(Box<RunResult>),
    Points(Vec<Point>),
}

/// One output row of a spec.
enum Output {
    /// A derived point: label plus a closure over the completed grid.
    Derived {
        label: String,
        compute: Box<dyn Fn(&SweepResults<'_>) -> f64 + Send + Sync>,
    },
    /// Splices in the points a `Measure` unit produced, in registration order.
    Splice(usize),
}

impl std::fmt::Debug for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Output::Derived { label, .. } => f.debug_tuple("Derived").field(label).finish(),
            Output::Splice(i) => f.debug_tuple("Splice").field(i).finish(),
        }
    }
}

/// Read-only view of a completed grid, handed to derived-point closures.
#[derive(Debug)]
pub struct SweepResults<'a> {
    units: &'a [UnitResult],
}

impl SweepResults<'_> {
    /// The result of a registered simulation run.
    pub fn run(&self, h: RunHandle) -> &RunResult {
        match &self.units[h.0] {
            UnitResult::Run(r) => r,
            UnitResult::Points(_) => unreachable!("RunHandle points at a measure unit"),
        }
    }

    /// Cycles-ratio speedup of `over` relative to `base` (i.e. `base cycles / over
    /// cycles`), the metric most figures report.
    pub fn speedup(&self, base: RunHandle, over: RunHandle) -> f64 {
        self.run(base).accel_cycles as f64 / self.run(over).accel_cycles.max(1) as f64
    }
}

/// A declarative experiment: a named grid of independent units plus the derived output
/// rows computed from the completed grid.
#[derive(Debug)]
pub struct ExperimentSpec {
    name: String,
    title: String,
    units: Vec<Unit>,
    outputs: Vec<Output>,
}

impl ExperimentSpec {
    /// Starts building a spec. `name` is the machine-readable identifier (`fig10`),
    /// `title` the human-readable heading (`Fig. 10 (overall speedup)`).
    pub fn builder(name: impl Into<String>, title: impl Into<String>) -> SpecBuilder {
        SpecBuilder {
            spec: ExperimentSpec {
                name: name.into(),
                title: title.into(),
                units: Vec::new(),
                outputs: Vec::new(),
            },
        }
    }

    /// Machine-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of independent units in the grid.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Number of full simulation runs in the grid.
    pub fn num_runs(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u, Unit::Sim(_)))
            .count()
    }

    /// The grid units, in registration order (the campaign scheduler flattens these
    /// into its global work queue).
    pub(crate) fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Folds a stable fingerprint of this spec — name, title, every unit's full
    /// configuration and every output row's shape — into `h`. Two spec lists with equal
    /// fingerprints (under the same [`crate::experiments::Scale`]) describe the same
    /// campaign plan, which is what lets run journals from separate processes be
    /// validated against each other (see [`crate::campaign::plan_hash`]).
    ///
    /// `Measure` closures are opaque, so they contribute only their position; the spec
    /// name plus the scale (hashed by the caller) pins their behavior in practice.
    pub(crate) fn fingerprint(&self, h: &mut piccolo_obs::hash::Fnv64) {
        let mut fold = |s: &str| {
            h.update(s.as_bytes());
            h.update(b"\0");
        };
        fold("spec");
        fold(&self.name);
        fold(&self.title);
        for unit in &self.units {
            match unit {
                // RunConfig is plain data (enums, integers, floats); its Debug output
                // is deterministic across processes and toolchain runs.
                Unit::Sim(rc) => fold(&format!("sim {rc:?}")),
                Unit::Measure(_) => fold("measure"),
            }
        }
        for output in &self.outputs {
            match output {
                Output::Derived { label, .. } => fold(&format!("derived {label}")),
                Output::Splice(idx) => fold(&format!("splice {idx}")),
            }
        }
    }

    /// Evaluates the derived output rows from this spec's completed grid (`units[i]` is
    /// the result of `self.units()[i]`). Pure arithmetic — always sequential.
    pub(crate) fn evaluate(&self, units: &[UnitResult]) -> Vec<Point> {
        let view = SweepResults { units };
        let mut out = Vec::new();
        for output in &self.outputs {
            match output {
                Output::Derived { label, compute } => out.push(Point {
                    label: label.clone(),
                    value: compute(&view),
                }),
                Output::Splice(idx) => match &units[*idx] {
                    UnitResult::Points(pts) => out.extend(pts.iter().cloned()),
                    UnitResult::Run(_) => unreachable!("splice points at a sim unit"),
                },
            }
        }
        out
    }
}

/// Builder for an [`ExperimentSpec`].
#[derive(Debug)]
pub struct SpecBuilder {
    spec: ExperimentSpec,
}

impl SpecBuilder {
    /// Registers a simulation run and returns its handle for derived points.
    pub fn sim(&mut self, rc: RunConfig) -> RunHandle {
        self.spec.units.push(Unit::Sim(Box::new(rc)));
        RunHandle(self.spec.units.len() - 1)
    }

    /// Registers a derived output row: `compute` receives the completed grid.
    pub fn point(
        &mut self,
        label: impl Into<String>,
        compute: impl Fn(&SweepResults<'_>) -> f64 + Send + Sync + 'static,
    ) {
        self.spec.outputs.push(Output::Derived {
            label: label.into(),
            compute: Box::new(compute),
        });
    }

    /// Registers a self-contained measurement unit; the points it returns are spliced
    /// into the output at this position.
    pub fn measure(&mut self, f: impl Fn() -> Vec<Point> + Send + Sync + 'static) {
        self.spec.units.push(Unit::Measure(Box::new(f)));
        let idx = self.spec.units.len() - 1;
        self.spec.outputs.push(Output::Splice(idx));
    }

    /// Finishes the spec.
    pub fn build(self) -> ExperimentSpec {
        self.spec
    }
}

/// Executes `n` indexed tasks across up to `jobs` scoped worker threads and returns the
/// outputs in input order (slot `i` holds `task(i)`), independent of scheduling.
///
/// With `jobs <= 1` (or a single task) everything runs inline on the caller thread. A
/// panicking task stops its worker (the others drain the remaining queue), and once the
/// scope has joined every thread the caller resumes the panic of the **lowest-indexed**
/// failed task with its original payload — so panic propagation is as deterministic as
/// the results themselves.
pub fn run_indexed<T, F>(jobs: usize, n: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)));
                let failed = out.is_err();
                *slots[i].lock().unwrap() = Some(out);
                if failed {
                    break;
                }
            });
        }
    });
    let mut results = Vec::with_capacity(n);
    for slot in slots {
        // A `None` slot can only follow an earlier `Err` slot (workers claim indices in
        // increasing order and only stop early on panic), so it is never reached.
        match slot
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner())
            .expect("every worker stopped before claiming this slot")
        {
            Ok(v) => results.push(v),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    results
}

/// Executes [`ExperimentSpec`]s over a worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with `jobs` workers; `0` means [`std::thread::available_parallelism`].
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        Self { jobs: jobs.max(1) }
    }

    /// A single-threaded runner (the reference execution order).
    pub fn sequential() -> Self {
        Self { jobs: 1 }
    }

    /// The worker count this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every unit of `spec` (sharded across the pool), then evaluates the derived
    /// points. Output is identical for every worker count.
    ///
    /// This is a campaign of one figure: the same scheduler that executes multi-figure
    /// campaigns ([`crate::campaign`]) runs the grid, so there is exactly one execution
    /// spine — graph builds are schedulable units and each distinct graph is built once.
    pub fn run(&self, spec: &ExperimentSpec) -> Vec<Point> {
        self.run_campaign(std::slice::from_ref(spec))
            .figures
            .pop()
            .expect("a campaign of one spec yields one figure")
            .points
    }
}

impl Default for SweepRunner {
    /// Defaults to all available cores.
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_accel::SystemKind;

    fn demo_spec(units: usize) -> ExperimentSpec {
        let mut b = ExperimentSpec::builder("demo", "worker pool demo");
        for i in 0..units {
            b.measure(move || {
                vec![Point {
                    label: format!("unit{i}"),
                    value: i as f64,
                }]
            });
        }
        b.build()
    }

    #[test]
    fn ordering_is_deterministic_across_worker_counts() {
        let spec = demo_spec(23);
        let reference = SweepRunner::sequential().run(&spec);
        assert_eq!(reference.len(), 23);
        for jobs in [1, 2, 8] {
            let got = SweepRunner::new(jobs).run(&spec);
            assert_eq!(got, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn sim_grid_is_deterministic_across_worker_counts() {
        let mut b = ExperimentSpec::builder("sim-demo", "tiny sim grid");
        let cfg = |s| SimConfig::for_system(s, 15).with_max_iterations(2);
        let base = b.sim(RunConfig::new(
            Dataset::Sinaweibo,
            15,
            7,
            Algorithm::Bfs,
            TraversalKind::VertexCentric,
            cfg(SystemKind::GraphDynsCache),
        ));
        for system in [SystemKind::Piccolo, SystemKind::Pim] {
            let h = b.sim(RunConfig::new(
                Dataset::Sinaweibo,
                15,
                7,
                Algorithm::Bfs,
                TraversalKind::VertexCentric,
                cfg(system),
            ));
            b.point(format!("{}/speedup", system.name()), move |r| {
                r.speedup(base, h)
            });
        }
        let spec = b.build();
        assert_eq!(spec.num_runs(), 3);
        let seq = SweepRunner::sequential().run(&spec);
        let par = SweepRunner::new(8).run(&spec);
        assert_eq!(seq, par);
        assert!(seq.iter().all(|p| p.value > 0.0));
    }

    #[test]
    fn empty_grid_produces_no_points() {
        let spec = demo_spec(0);
        assert_eq!(spec.num_units(), 0);
        for jobs in [1, 4] {
            assert!(SweepRunner::new(jobs).run(&spec).is_empty());
        }
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let mut b = ExperimentSpec::builder("panic", "panic propagation");
        b.measure(Vec::new);
        b.measure(|| panic!("worker exploded"));
        let spec = b.build();
        for jobs in [1, 4] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                SweepRunner::new(jobs).run(&spec)
            }));
            let err = result.expect_err("panic must propagate");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(msg.contains("worker exploded"), "jobs={jobs}: {msg}");
        }
    }

    #[test]
    fn run_indexed_covers_every_slot_in_order() {
        for jobs in [1, 2, 8] {
            let out = run_indexed(jobs, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn runner_resolves_worker_counts() {
        assert!(SweepRunner::new(0).jobs() >= 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(SweepRunner::new(0).jobs(), cores, "0 means every core");
        assert_eq!(SweepRunner::sequential().jobs(), 1);
        assert_eq!(SweepRunner::new(7).jobs(), 7);
    }
}
