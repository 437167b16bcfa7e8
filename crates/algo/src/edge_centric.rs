//! Edge-centric edge order (Section VII-H).
//!
//! Edge-centric accelerators (ForeGraph, FabGraph, MOMS) stream the edge set grouped into
//! 2-D grid blocks instead of walking the CSR of active vertices. Per iteration every edge
//! is visited once (filtered on active sources), which trades redundant edge reads for
//! perfectly sequential topology access. The semantics are identical to the vertex-centric
//! model; this module provides the block order the accelerator model's edge-centric
//! traversal (`piccolo_accel::EdgeCentric`) streams.

use piccolo_graph::tiling::GridPartition;
use piccolo_graph::{Csr, Edge};

/// An edge set reordered into grid-block order.
#[derive(Debug, Clone)]
pub struct GridEdges {
    /// The grid partition the edges are ordered by.
    pub grid: GridPartition,
    /// Edges sorted by block id (row-major over source tiles), then source.
    pub edges: Vec<Edge>,
    /// Start offset of each block within `edges` (length `num_blocks() + 1`).
    pub block_offsets: Vec<usize>,
}

impl GridEdges {
    /// Reorders the edges of `graph` into grid blocks of the given tile widths.
    pub fn new(graph: &Csr, src_width: u32, dst_width: u32) -> Self {
        let grid = GridPartition::new(graph.num_vertices().max(1), src_width, dst_width);
        let mut tagged: Vec<(u64, Edge)> = graph
            .iter_edges()
            .map(|e| (grid.block_of(e.src, e.dst), e))
            .collect();
        tagged.sort_by_key(|(b, e)| (*b, e.src, e.dst));
        let num_blocks = grid.num_blocks() as usize;
        let mut block_offsets = vec![0usize; num_blocks + 1];
        for (b, _) in &tagged {
            block_offsets[*b as usize + 1] += 1;
        }
        for i in 0..num_blocks {
            block_offsets[i + 1] += block_offsets[i];
        }
        let edges = tagged.into_iter().map(|(_, e)| e).collect();
        Self {
            grid,
            edges,
            block_offsets,
        }
    }

    /// Edges belonging to block `b`.
    pub fn block(&self, b: u64) -> &[Edge] {
        &self.edges[self.block_offsets[b as usize]..self.block_offsets[b as usize + 1]]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u64 {
        self.grid.num_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_graph::generate;

    #[test]
    fn grid_edges_partition_the_edge_set() {
        let g = generate::kronecker(8, 4, 4);
        let ge = GridEdges::new(&g, 64, 32);
        let total: usize = (0..ge.num_blocks()).map(|b| ge.block(b).len()).sum();
        assert_eq!(total as u64, g.num_edges());
        for b in 0..ge.num_blocks() {
            for e in ge.block(b) {
                assert_eq!(ge.grid.block_of(e.src, e.dst), b);
            }
        }
    }
}
