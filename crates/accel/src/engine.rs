//! The vertex-centric simulation engine.
//!
//! [`simulate`] runs a vertex program on a graph through one of the six evaluated systems
//! and returns cycle counts plus memory/cache statistics. All iteration driving, frontier
//! management and memory-request plumbing lives in the shared [`pipeline`]
//! module; this file contributes only the *vertex-centric traversal order*
//! ([`VertexCentric`]): destination-interval tiles, per-tile frontier walks read in place
//! from the CSR, and the topology/source-property streams that accompany them.
//!
//! ## Modelling simplifications
//!
//! * Sequential streams (topology, source properties, apply sweeps) bypass the vertex
//!   cache through stream buffers, as in Graphicionado/GraphDyns, and are issued as
//!   contiguous 64 B reads.
//! * The apply phase charges 16 B of sequential read per *touched* destination and 8 B of
//!   write per updated vertex (on-chip for scratchpad systems except the final write).
//! * `TilingPolicy::Best` gives every system the result of the exhaustive search the
//!   paper grants it: fine-grained systems keep the fastest candidate scaling factor
//!   ([`simulate`]), the two candidates run at once when a core is free (one after the
//!   other, family default first, when none is), and a candidate stops as soon as it
//!   provably cannot win; conventional caches always prefer tiles that just fit. The
//!   full sweep behind the candidate set is reproduced by the Fig. 17 experiment.

use crate::config::SimConfig;
use crate::layout::{EDGE_BYTES, PROP_BYTES};
use crate::pipeline::{self, ScatterContext, Traversal};
use piccolo_algo::vcm::VertexProgram;
use piccolo_dram::Region;
use piccolo_graph::{Csr, Tiling, VertexId, Weight};
use std::cell::RefCell;

pub use crate::pipeline::{resolve_tiling, RunResult};

/// Vertex-centric traversal: Algorithm 1's tile-by-tile walk of the active frontier.
///
/// The tiles are read in place from the CSR. Every row ascends by destination (a
/// [`Csr`] invariant), so a source's edges inside one destination tile are one
/// contiguous run of its row, and the runs of consecutive tiles follow each other. A
/// per-vertex cursor marks where the next tile's run starts: chunk 0 sets it to the row
/// start for every frontier vertex, and each tile's walk advances it past that tile's
/// run. The walk therefore relies on the chunks of an iteration running in ascending
/// order from 0, which [`Traversal`] guarantees.
#[derive(Debug)]
pub struct VertexCentric<'g> {
    graph: &'g Csr,
    tiling: Tiling,
    /// Edges per destination tile; a tile without edges is skipped.
    tile_edges: Vec<u64>,
    /// Per vertex, the position in its row where the next tile's run starts and the
    /// destination there ([`PAST_ROW`] at the row's end), so a tile the vertex has no
    /// edges in costs one read.
    cursor: RefCell<Vec<(usize, VertexId)>>,
}

/// The cursor's destination once a row is used up: no tile ends above it, so every
/// later tile skips the vertex.
const PAST_ROW: VertexId = VertexId::MAX;

impl<'g> VertexCentric<'g> {
    /// Tiles `graph` by the tiling `cfg` resolves to.
    pub fn new(graph: &'g Csr, cfg: &SimConfig) -> Self {
        Self::with_tiling(graph, resolve_tiling(cfg, graph.num_vertices()))
    }

    fn with_tiling(graph: &'g Csr, tiling: Tiling) -> Self {
        let mut tile_edges = vec![0; tiling.num_tiles() as usize];
        for &v in graph.col_indices() {
            tile_edges[tiling.tile_of(v) as usize] += 1;
        }
        Self {
            graph,
            tiling,
            tile_edges,
            cursor: RefCell::new(vec![(0, PAST_ROW); graph.num_vertices() as usize]),
        }
    }

    /// The destination at position `at` of `u`'s row, or [`PAST_ROW`] past its end.
    fn dst_at(&self, u: VertexId, at: usize) -> VertexId {
        let row_end = self.graph.row_offsets()[u as usize + 1] as usize;
        if at < row_end {
            self.graph.col_indices()[at]
        } else {
            PAST_ROW
        }
    }

    /// Opens tile `chunk` for the frontier and returns whether the tile has edges. Tile
    /// 0 sets every frontier vertex's cursor to its row start, whether or not it has
    /// edges itself.
    fn enter_tile(&self, chunk: usize, frontier: &[VertexId]) -> bool {
        if chunk == 0 {
            let offsets = self.graph.row_offsets();
            let mut cursor = self.cursor.borrow_mut();
            for &u in frontier {
                let start = offsets[u as usize] as usize;
                cursor[u as usize] = (start, self.dst_at(u, start));
            }
        }
        self.tile_edges[chunk] > 0
    }

    /// Walks tile `chunk` for the frontier, calling `edge(src, dst, weight)` in frontier
    /// order and then row order, and returns the number of frontier vertices with edges
    /// in the tile and their edge count. Every tile of the iteration must have been
    /// entered in ascending order up to this one ([`Self::enter_tile`]).
    fn walk_tile(
        &self,
        chunk: usize,
        frontier: &[VertexId],
        mut edge: impl FnMut(VertexId, VertexId, Weight),
    ) -> (u64, u64) {
        let end = self.tiling.tile(chunk as u32).end;
        let offsets = self.graph.row_offsets();
        let cols = self.graph.col_indices();
        let weights = self.graph.weights();
        let mut cursor = self.cursor.borrow_mut();
        let (mut sources, mut edges) = (0u64, 0u64);
        for &u in frontier {
            let (at, next) = &mut cursor[u as usize];
            if *next >= end {
                continue;
            }
            let row_end = offsets[u as usize + 1] as usize;
            let start = *at;
            while *at < row_end && cols[*at] < end {
                edge(u, cols[*at], weights[*at]);
                *at += 1;
            }
            *next = self.dst_at(u, *at);
            sources += 1;
            edges += (*at - start) as u64;
        }
        (sources, edges)
    }
}

impl<P: VertexProgram> Traversal<P> for VertexCentric<'_> {
    fn shape(&self) -> (u32, u32) {
        (self.tiling.tile_width(), self.tiling.num_tiles())
    }

    fn num_chunks(&self) -> usize {
        self.tile_edges.len()
    }

    fn scatter_chunk(&self, chunk: usize, ctx: &mut ScatterContext<'_, P>) {
        let frontier = ctx.frontier();
        if !self.enter_tile(chunk, frontier) {
            return;
        }
        let tile = self.tiling.tile(chunk as u32);
        ctx.begin_chunk(tile.width() as u64 * PROP_BYTES);

        let (sources_with_edges, edges) =
            self.walk_tile(chunk, frontier, |u, v, w| ctx.process_edge(u, v, w));
        let edge_bytes = edges * EDGE_BYTES;

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
/// (Piccolo/NMP) returns the result of the fastest [`pipeline::BEST_TILING_FACTORS`]
/// candidate (smallest factor on a tie), exactly as the exhaustive search its
/// documentation promises would. The shared [`pipeline::run_with_best_search`] runs the
/// second candidate on a spare core when one is free, and stops every candidate as soon
/// as a lower bound on its cycles shows it cannot beat a finished one. Conventional
/// systems always prefer factor 1 and skip the search.
pub fn simulate<P: VertexProgram + Sync>(graph: &Csr, program: &P, cfg: &SimConfig) -> RunResult {
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

    /// Per tile: `None` for a tile without edges, else its `(src, dst, weight)`
    /// sequence, the frontier vertices with edges in it and their edge bytes.
    type TileWalk = Option<(Vec<(VertexId, VertexId, Weight)>, u64, u64)>;

    /// The walk over `partition_csr`'s per-tile copies that the in-place walk replaced.
    fn sliced_walk(graph: &Csr, tiling: &Tiling, frontier: &[VertexId]) -> Vec<TileWalk> {
        let slices = piccolo_graph::tiling::partition_csr(graph, tiling);
        let walk = |slice: &Csr| {
            let (mut edges, mut sources, mut bytes) = (Vec::new(), 0, 0);
            for &u in frontier {
                let deg = slice.out_degree(u);
                if deg > 0 {
                    sources += 1;
                    bytes += deg * EDGE_BYTES;
                    edges.extend(slice.neighbors(u).map(|(v, w)| (u, v, w)));
                }
            }
            (edges, sources, bytes)
        };
        slices
            .iter()
            .map(|slice| (slice.num_edges() > 0).then(|| walk(slice)))
            .collect()
    }

    /// One iteration of the in-place walk, in the order `scatter_chunk` takes it.
    fn in_place_walk(vc: &VertexCentric<'_>, frontier: &[VertexId]) -> Vec<TileWalk> {
        (0..vc.tile_edges.len())
            .map(|chunk| {
                vc.enter_tile(chunk, frontier).then(|| {
                    let mut edges = Vec::new();
                    let (sources, count) =
                        vc.walk_tile(chunk, frontier, |u, v, w| edges.push((u, v, w)));
                    (edges, sources, count * EDGE_BYTES)
                })
            })
            .collect()
    }

    /// The in-place walk visits exactly the edges, sources and bytes of a walk over
    /// `partition_csr`'s slices and skips the same tiles, on Kronecker, Watts–Strogatz
    /// (duplicate edges), uniform and star graphs (no edge into tile 0 at width 1), at
    /// tile widths 1, 7, 64 and `n`, for an all-active and a sparse frontier walked one
    /// iteration after the other.
    #[test]
    fn in_place_tiles_match_the_partitioned_slices() {
        let graphs = [
            ("kronecker", generate::kronecker(9, 8, 3)),
            ("watts-strogatz", generate::watts_strogatz(9, 6, 0.3, 5)),
            ("uniform", generate::uniform(600, 3000, 7)),
            ("star", generate::star(300)),
        ];
        let mut empty_first_tile = false;
        for (name, g) in &graphs {
            let n = g.num_vertices();
            let all: Vec<VertexId> = (0..n).collect();
            let sparse: Vec<VertexId> = (0..n).filter(|v| v % 13 == 5).collect();
            for width in [1, 7, 64, n] {
                let tiling = Tiling::by_tile_width(n, width);
                let vc = VertexCentric::with_tiling(g, tiling.clone());
                for (label, frontier) in [("all-active", &all), ("sparse", &sparse)] {
                    let want = sliced_walk(g, &tiling, frontier);
                    let got = in_place_walk(&vc, frontier);
                    assert!(want.iter().any(Option::is_some), "{name}: no edges");
                    assert_eq!(got, want, "{name}, width {width}, {label} frontier");
                    empty_first_tile |= want[0].is_none();
                }
            }
        }
        assert!(empty_first_tile, "no walk starts at a tile without edges");
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
