//! The vertex-centric simulation engine.
//!
//! [`simulate`] runs a vertex program on a graph through one of the six evaluated systems
//! and returns cycle counts plus memory/cache statistics. All iteration driving, frontier
//! management and memory-request plumbing lives in the shared [`pipeline`]
//! module; this file contributes only the *vertex-centric traversal order*
//! ([`VertexCentric`]): destination-interval tiles, per-tile frontier walks over the CSR
//! slices, and the topology/source-property streams that accompany them.
//!
//! ## Modelling simplifications (documented in `DESIGN.md`)
//!
//! * Sequential streams (topology, source properties, apply sweeps) bypass the vertex
//!   cache through stream buffers, as in Graphicionado/GraphDyns, and are issued as
//!   contiguous 64 B reads.
//! * The apply phase charges 16 B of sequential read per *touched* destination and 8 B of
//!   write per updated vertex (on-chip for scratchpad systems except the final write).
//! * `TilingPolicy::Best` performs the exhaustive search the paper grants every system:
//!   fine-grained systems simulate each candidate scaling factor and keep the fastest
//!   ([`simulate`]); conventional caches always prefer tiles that just fit. The full
//!   sweep behind the candidate set is reproduced by the Fig. 17 experiment.

use crate::config::SimConfig;
use crate::layout::{EDGE_BYTES, PROP_BYTES};
use crate::pipeline::{self, ScatterContext, Traversal};
use piccolo_algo::vcm::VertexProgram;
use piccolo_dram::Region;
use piccolo_graph::{tiling, Csr, Tiling};

pub use crate::pipeline::{resolve_tiling, RunResult};

/// Vertex-centric traversal: Algorithm 1's tile-by-tile walk of the active frontier.
#[derive(Debug)]
pub struct VertexCentric {
    tiling: Tiling,
    tile_slices: Vec<Csr>,
}

impl VertexCentric {
    /// Partitions `graph` by the tiling `cfg` resolves to.
    pub fn new(graph: &Csr, cfg: &SimConfig) -> Self {
        let tiling = resolve_tiling(cfg, graph.num_vertices());
        let tile_slices = tiling::partition_csr(graph, &tiling);
        Self {
            tiling,
            tile_slices,
        }
    }
}

impl<P: VertexProgram> Traversal<P> for VertexCentric {
    fn shape(&self) -> (u32, u32) {
        (self.tiling.tile_width(), self.tiling.num_tiles())
    }

    fn num_chunks(&self) -> usize {
        self.tile_slices.len()
    }

    fn scatter_chunk(&self, chunk: usize, ctx: &mut ScatterContext<'_, P>) {
        let slice = &self.tile_slices[chunk];
        if slice.num_edges() == 0 {
            return;
        }
        let tile = self.tiling.tile(chunk as u32);
        ctx.begin_chunk(tile.width() as u64 * PROP_BYTES);

        let mut sources_with_edges = 0u64;
        let mut edge_bytes = 0u64;
        for &u in ctx.frontier() {
            let deg = slice.out_degree(u);
            if deg == 0 {
                continue;
            }
            sources_with_edges += 1;
            edge_bytes += deg * EDGE_BYTES;
            for (v, w) in slice.neighbors(u) {
                ctx.process_edge(u, v, w);
            }
        }

        // Topology and source-property accesses for this tile (dense frontiers
        // stream, sparse frontiers scatter — the pipeline owns that policy).
        ctx.frontier_reads(chunk, sources_with_edges);
        ctx.stream(
            ctx.layout().columns_base,
            (chunk as u64 * 64) % (1 << 20),
            edge_bytes,
            false,
            Region::TopologyCol,
        );

        ctx.end_chunk();
    }
}

/// Runs `program` on `graph` under the configuration `cfg` and returns timing and traffic
/// statistics.
///
/// [`TilingPolicy::Best`](crate::config::TilingPolicy::Best) on a fine-grained system
/// (Piccolo/NMP) performs the exhaustive search its documentation promises, via the
/// shared [`pipeline::run_with_best_search`]: the run is simulated once per
/// [`pipeline::BEST_TILING_FACTORS`] candidate and the fastest result wins (smallest
/// factor on a tie). Conventional systems always prefer factor 1 and skip the search.
pub fn simulate<P: VertexProgram>(graph: &Csr, program: &P, cfg: &SimConfig) -> RunResult {
    pipeline::run_with_best_search(graph, program, cfg, VertexCentric::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheKind, SimConfig, SystemKind, TilingPolicy};
    use piccolo_algo::{run_vcm, Bfs, PageRank};
    use piccolo_graph::generate;

    fn small_graph() -> Csr {
        // Large enough that the destination-property array spans many DRAM rows (so FIM
        // gathers enjoy bank parallelism) and clearly exceeds the scaled on-chip cache —
        // the regime the paper evaluates.
        generate::kronecker(13, 8, 7)
    }

    fn cfg(system: SystemKind) -> SimConfig {
        SimConfig::for_system(system, 12).with_max_iterations(2)
    }

    #[test]
    fn simulation_matches_functional_iteration_count() {
        let g = generate::kronecker(10, 4, 3);
        let cfg = SimConfig::for_system(SystemKind::Piccolo, 12).with_max_iterations(50);
        let sim = simulate(&g, &Bfs::new(0), &cfg);
        let func = run_vcm(&g, &Bfs::new(0), 50);
        assert_eq!(sim.iterations, func.iterations);
        assert_eq!(sim.edges_processed, func.total_edges_traversed());
    }

    #[test]
    fn piccolo_beats_conventional_baseline_on_pagerank() {
        let g = small_graph();
        let base = simulate(&g, &PageRank::default(), &cfg(SystemKind::GraphDynsCache));
        let pic = simulate(&g, &PageRank::default(), &cfg(SystemKind::Piccolo));
        assert!(
            pic.accel_cycles < base.accel_cycles,
            "Piccolo ({}) should beat GraphDyns Cache ({})",
            pic.accel_cycles,
            base.accel_cycles
        );
        // And it must move fewer off-chip bytes.
        assert!(pic.mem_stats.offchip_bytes < base.mem_stats.offchip_bytes);
    }

    #[test]
    fn pim_is_slower_than_cache_baseline() {
        let g = small_graph();
        let base = simulate(&g, &PageRank::default(), &cfg(SystemKind::GraphDynsCache));
        let pim = simulate(&g, &PageRank::default(), &cfg(SystemKind::Pim));
        assert!(pim.accel_cycles > base.accel_cycles);
        assert!(pim.mem_stats.pim_updates > 0);
    }

    #[test]
    fn all_systems_produce_nonzero_results() {
        let g = generate::kronecker(10, 4, 9);
        for system in SystemKind::ALL {
            let r = simulate(&g, &Bfs::new(0), &cfg(system).with_max_iterations(20));
            assert!(r.accel_cycles > 0, "{:?}", system);
            assert!(r.iterations > 0, "{:?}", system);
            assert!(r.elapsed_ns > 0.0, "{:?}", system);
        }
    }

    #[test]
    fn fine_grain_cache_variants_run() {
        let g = generate::kronecker(10, 4, 9);
        for cache in [
            CacheKind::Sectored,
            CacheKind::Line8,
            CacheKind::PiccoloRrip,
        ] {
            let c = cfg(SystemKind::Piccolo).with_cache(cache);
            let r = simulate(&g, &PageRank::default(), &c);
            assert!(r.accel_cycles > 0, "{:?}", cache);
        }
    }

    #[test]
    fn prefetch_disabled_is_slower() {
        let g = small_graph();
        let with = simulate(&g, &PageRank::default(), &cfg(SystemKind::Piccolo));
        let without = simulate(
            &g,
            &PageRank::default(),
            &cfg(SystemKind::Piccolo).without_prefetch(),
        );
        assert!(without.accel_cycles > with.accel_cycles);
    }

    #[test]
    fn scratchpad_systems_have_no_random_offchip_traffic() {
        let g = generate::kronecker(10, 4, 5);
        let r = simulate(&g, &PageRank::default(), &cfg(SystemKind::GraphDynsSpm));
        // All scatter-phase random accesses were absorbed by the scratchpad.
        assert_eq!(r.cache_stats.misses, 0);
        assert!(r.cache_stats.hits > 0);
    }

    #[test]
    fn tiling_policies_resolve_sensibly() {
        let c = SimConfig::for_system(SystemKind::Piccolo, 12);
        let t_none = resolve_tiling(&c.with_tiling(TilingPolicy::None), 10_000);
        assert_eq!(t_none.num_tiles(), 1);
        let t_perfect = resolve_tiling(&c.with_tiling(TilingPolicy::Perfect), 1_000_000);
        let t_scaled = resolve_tiling(&c.with_tiling(TilingPolicy::Scaled(4)), 1_000_000);
        assert_eq!(t_scaled.tile_width(), 4 * t_perfect.tile_width());
        let t_best = resolve_tiling(&c.with_tiling(TilingPolicy::Best), 1_000_000);
        assert!(t_best.tile_width() >= t_perfect.tile_width());
    }
}
