//! Edge-centric accelerator model (Section VII-H, Fig. 19a).
//!
//! Edge-centric accelerators (ForeGraph/FabGraph/MOMS style) stream the whole edge set in
//! 2-D grid blocks every iteration: topology access is perfectly sequential (no row-offset
//! indirection), source properties are read per block, and destination properties are
//! updated randomly within the block's destination tile — which is where Piccolo-FIM and
//! Piccolo-cache help, exactly as in the vertex-centric case.
//!
//! Everything but the traversal order — grid blocks instead of frontier tiles — is shared
//! with the vertex-centric engine through [`pipeline`].

use crate::config::SimConfig;
use crate::engine::{resolve_tiling, RunResult};
use crate::layout::{EDGE_BYTES, PROP_BYTES};
use crate::pipeline::{self, ScatterContext, Traversal};
use piccolo_algo::edge_centric::GridEdges;
use piccolo_algo::vcm::VertexProgram;
use piccolo_dram::Region;
use piccolo_graph::Csr;

/// Edge-centric traversal: every iteration streams all 2-D grid blocks of the edge set.
///
/// The destination tile width follows the same on-chip-capacity rule as the
/// vertex-centric engine; the source tile width is fixed at the same size (square
/// blocks).
#[derive(Debug)]
pub struct EdgeCentric {
    grid: GridEdges,
    width: u32,
}

impl EdgeCentric {
    /// Partitions `graph` into square grid blocks sized by `cfg`'s tiling rule.
    pub fn new(graph: &Csr, cfg: &SimConfig) -> Self {
        let width = resolve_tiling(cfg, graph.num_vertices())
            .tile_width()
            .max(1);
        let grid = GridEdges::new(graph, width, width);
        Self { grid, width }
    }
}

impl<P: VertexProgram> Traversal<P> for EdgeCentric {
    fn shape(&self) -> (u32, u32) {
        (self.width, self.grid.num_blocks() as u32)
    }

    fn num_chunks(&self) -> usize {
        self.grid.num_blocks() as usize
    }

    fn scatter_chunk(&self, chunk: usize, ctx: &mut ScatterContext<'_, P>) {
        let edges = self.grid.block(chunk as u64);
        if edges.is_empty() {
            return;
        }
        ctx.begin_chunk(self.width as u64 * PROP_BYTES);
        // The whole block's edges are streamed sequentially every iteration.
        ctx.stream(
            ctx.layout().columns_base + chunk as u64 * 64,
            0,
            edges.len() as u64 * EDGE_BYTES,
            false,
            Region::TopologyCol,
        );
        // Source properties of the block's source tile.
        ctx.stream(
            ctx.layout().vprop_base,
            0,
            self.width as u64 * PROP_BYTES,
            false,
            Region::PropertySequential,
        );
        if ctx.active().len() == ctx.num_vertices() {
            // All-active fast path (PageRank every iteration): skip the per-edge
            // membership probe — it is always true.
            for e in edges {
                ctx.process_edge(e.src, e.dst, e.weight);
            }
        } else {
            for e in edges {
                if !ctx.active().contains(e.src) {
                    continue;
                }
                ctx.process_edge(e.src, e.dst, e.weight);
            }
        }
        ctx.end_chunk();
    }
}

/// Runs `program` with edge-centric traversal on the given system configuration.
///
/// [`TilingPolicy::Best`](crate::config::TilingPolicy::Best) on a fine-grained system
/// performs the same exhaustive search as the vertex-centric engine (via
/// [`pipeline::run_with_best_search`]): every [`pipeline::BEST_TILING_FACTORS`]
/// candidate sizes the grid blocks, and the fastest result wins. Edge-centric systems
/// are tiling-sensitive by construction — the block width sets both the sequential
/// re-read volume and the destination-tile locality — so a fixed family-default factor
/// was mis-calibrated for part of the Fig. 19a rows.
pub fn simulate_edge_centric<P: VertexProgram>(
    graph: &Csr,
    program: &P,
    cfg: &SimConfig,
) -> RunResult {
    pipeline::run_with_best_search(graph, program, cfg, EdgeCentric::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, SystemKind};
    use crate::engine::simulate;
    use piccolo_algo::PageRank;
    use piccolo_graph::generate;

    #[test]
    fn edge_centric_runs_for_baseline_and_piccolo() {
        let g = generate::kronecker(13, 6, 11);
        let base_cfg = SimConfig::for_system(SystemKind::GraphDynsCache, 12).with_max_iterations(2);
        let pic_cfg = SimConfig::for_system(SystemKind::Piccolo, 12).with_max_iterations(2);
        let base = simulate_edge_centric(&g, &PageRank::default(), &base_cfg);
        let pic = simulate_edge_centric(&g, &PageRank::default(), &pic_cfg);
        assert!(base.accel_cycles > 0);
        assert!(pic.accel_cycles > 0);
        assert!(
            pic.mem_stats.offchip_bytes < base.mem_stats.offchip_bytes,
            "Piccolo must reduce off-chip traffic in the edge-centric setting too"
        );
    }

    #[test]
    fn best_tiling_really_searches_on_the_edge_centric_path() {
        use crate::config::TilingPolicy;
        use crate::pipeline::BEST_TILING_FACTORS;
        let g = generate::kronecker(12, 6, 4);
        let cfg = SimConfig::for_system(SystemKind::Piccolo, 12).with_max_iterations(2);
        assert_eq!(cfg.tiling, TilingPolicy::Best);
        let best = simulate_edge_centric(&g, &PageRank::default(), &cfg);
        let fastest_fixed = BEST_TILING_FACTORS
            .into_iter()
            .map(|f| {
                let fixed = cfg.with_tiling(TilingPolicy::Scaled(f));
                simulate_edge_centric(&g, &PageRank::default(), &fixed).accel_cycles
            })
            .min()
            .unwrap();
        assert_eq!(
            best.accel_cycles, fastest_fixed,
            "Best must match the fastest candidate factor, not a fixed family default"
        );

        // Conventional systems skip the search and keep tiles that just fit.
        let conv = SimConfig::for_system(SystemKind::GraphDynsCache, 12).with_max_iterations(2);
        let conv_best = simulate_edge_centric(&g, &PageRank::default(), &conv);
        let conv_fit = simulate_edge_centric(
            &g,
            &PageRank::default(),
            &conv.with_tiling(TilingPolicy::Scaled(1)),
        );
        assert_eq!(conv_best.accel_cycles, conv_fit.accel_cycles);
    }

    #[test]
    fn edge_centric_processes_same_edges_as_vertex_centric() {
        let g = generate::kronecker(9, 4, 2);
        let cfg = SimConfig::for_system(SystemKind::Piccolo, 12).with_max_iterations(3);
        let vc = simulate(&g, &PageRank::default(), &cfg);
        let ec = simulate_edge_centric(&g, &PageRank::default(), &cfg);
        assert_eq!(vc.edges_processed, ec.edges_processed);
        assert_eq!(vc.iterations, ec.iterations);
    }
}
