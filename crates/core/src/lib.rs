//! End-to-end public API of the Piccolo reproduction.
//!
//! Piccolo (HPCA 2025) is a graph-processing accelerator built on three ideas:
//! **Piccolo-FIM** (in-DRAM random scatter/gather without arithmetic units),
//! **Piccolo-cache** (an 8 B-sector cache with split fine-grained tags) and a
//! **collection-extended MSHR** that turns same-row misses into single in-memory
//! operations. This crate exposes:
//!
//! * [`Simulation`] — a builder that runs one workload (graph x algorithm x system) and
//!   returns a [`SimReport`] with cycles, traffic and the Fig. 14 energy breakdown,
//! * [`experiments`] — declarative drivers ([`sweep::ExperimentSpec`]) reproducing every
//!   table and figure of the paper,
//! * [`sweep`] — the parallel design-space sweep engine (worker pool, deterministic
//!   result ordering) behind the `repro --jobs N` binary and the bench harness,
//! * [`campaign`] — the cross-figure campaign scheduler: one global work queue over all
//!   requested figures, building each distinct graph exactly once campaign-wide, with
//!   journal-based incremental re-runs and deterministic multi-process sharding
//!   ([`campaign::Shard`], [`campaign::merge_journals`]; `repro --resume` / `--shard` /
//!   `--merge`),
//! * [`json`] — the workspace's hand-rolled JSON writer/parser (`results.json`,
//!   `BENCH.json`, `baselines.json`, journals), re-exported from
//!   `piccolo-obs`,
//! * [`olap`] — the OLAP column-scan workload of Fig. 19b,
//! * [`report::area_report`] — the Section VII-F area numbers.
//!
//! # Quickstart
//!
//! ```
//! use piccolo::{Simulation, SystemKind};
//! use piccolo_algo::Bfs;
//! use piccolo_graph::generate;
//!
//! let graph = generate::kronecker(11, 4, 1);
//! let baseline = Simulation::new(SystemKind::GraphDynsCache).run(&graph, &Bfs::new(0));
//! let piccolo = Simulation::new(SystemKind::Piccolo).run(&graph, &Bfs::new(0));
//! assert!(piccolo.run.accel_cycles > 0);
//! let _speedup = piccolo.speedup_over(&baseline);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod experiments;
pub mod olap;
pub mod report;
pub mod sweep;

pub use campaign::{merge_journals, plan_hash, CampaignRun, CampaignStats, ResumeRun, Shard};
pub use experiments::{Point, Scale};
pub use piccolo_accel::{
    take_thread_phase_profile, CacheKind, PhaseBreakdown, PhaseProfile, SimConfig, SystemKind,
    TilingPolicy,
};
pub use piccolo_obs::json;
pub use report::{area_report, AreaReport, EnergyBreakdown, FigureRows, SimReport};
pub use sweep::{ExperimentSpec, GraphKey, RunConfig, SweepRunner, TraversalKind};

use piccolo_algo::VertexProgram;
use piccolo_graph::Csr;

/// Builder for a single end-to-end simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    cfg: SimConfig,
}

impl Simulation {
    /// Creates a simulation of `system` at the default scaled-down configuration.
    pub fn new(system: SystemKind) -> Self {
        Self {
            cfg: SimConfig::for_system(system, 12).with_max_iterations(40),
        }
    }

    /// Creates a simulation from an explicit configuration.
    pub fn with_config(cfg: SimConfig) -> Self {
        Self { cfg }
    }

    /// The configuration this simulation will use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Replaces the configuration (builder style).
    pub fn configure(mut self, f: impl FnOnce(SimConfig) -> SimConfig) -> Self {
        self.cfg = f(self.cfg);
        self
    }

    /// Runs `program` on `graph` and returns the full report.
    pub fn run<P: VertexProgram + Sync>(&self, graph: &Csr, program: &P) -> SimReport {
        let result = piccolo_accel::simulate(graph, program, &self.cfg);
        SimReport::from_run(result, &self.cfg.dram)
    }

    /// Runs `program` with the edge-centric accelerator variant (Fig. 19a).
    pub fn run_edge_centric<P: VertexProgram + Sync>(&self, graph: &Csr, program: &P) -> SimReport {
        let result = piccolo_accel::simulate_edge_centric(graph, program, &self.cfg);
        SimReport::from_run(result, &self.cfg.dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_algo::Bfs;
    use piccolo_graph::generate;

    #[test]
    fn simulation_builder_runs_and_reports_energy() {
        let g = generate::kronecker(10, 4, 2);
        let rep = Simulation::new(SystemKind::Piccolo)
            .configure(|c| c.with_max_iterations(5))
            .run(&g, &Bfs::new(0));
        assert!(rep.run.accel_cycles > 0);
        assert!(rep.energy.total_nj() > 0.0);
        assert_eq!(rep.run.system, SystemKind::Piccolo);
    }

    #[test]
    fn edge_centric_builder_runs() {
        let g = generate::kronecker(9, 4, 2);
        let rep = Simulation::new(SystemKind::GraphDynsCache)
            .configure(|c| c.with_max_iterations(3))
            .run_edge_centric(&g, &Bfs::new(0));
        assert!(rep.run.accel_cycles > 0);
    }
}
