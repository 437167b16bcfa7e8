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
    ///
    /// Every CSR row ascends by destination, so CSR order is `(src, dst)` order, and a
    /// stable counting sort by block id gives `(block, src, dst)` order, with duplicate
    /// edges kept in CSR order.
    pub fn new(graph: &Csr, src_width: u32, dst_width: u32) -> Self {
        let grid = GridPartition::new(graph.num_vertices().max(1), src_width, dst_width);
        let num_blocks = grid.num_blocks() as usize;
        let mut block_offsets = vec![0usize; num_blocks + 1];
        for e in graph.iter_edges() {
            block_offsets[grid.block_of(e.src, e.dst) as usize + 1] += 1;
        }
        for i in 0..num_blocks {
            block_offsets[i + 1] += block_offsets[i];
        }
        let mut next = block_offsets[..num_blocks].to_vec();
        let mut edges = vec![Edge::new(0, 0, 0); graph.num_edges() as usize];
        for e in graph.iter_edges() {
            let slot = &mut next[grid.block_of(e.src, e.dst) as usize];
            edges[*slot] = e;
            *slot += 1;
        }
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

    /// The counting sort gives the order of a stable sort of `(block, edge)` copies by
    /// `(block, src, dst)`, duplicate edges included (Watts–Strogatz keeps them).
    #[test]
    fn counting_sort_matches_the_tagged_sort() {
        let graphs = [
            generate::kronecker(9, 4, 3),
            generate::kronecker(8, 16, 11),
            generate::watts_strogatz(9, 6, 0.3, 5),
            generate::watts_strogatz(8, 4, 0.9, 17),
        ];
        let mut duplicates = false;
        for g in &graphs {
            duplicates |= g
                .iter_edges()
                .zip(g.iter_edges().skip(1))
                .any(|(a, b)| (a.src, a.dst) == (b.src, b.dst));
            let n = g.num_vertices();
            for (sw, dw) in [(1, 1), (7, 64), (64, 7), (37, 37), (n, n), (n, 1)] {
                let ge = GridEdges::new(g, sw, dw);
                let mut tagged: Vec<(u64, Edge)> = g
                    .iter_edges()
                    .map(|e| (ge.grid.block_of(e.src, e.dst), e))
                    .collect();
                tagged.sort_by_key(|(b, e)| (*b, e.src, e.dst));
                let want: Vec<Edge> = tagged.iter().map(|&(_, e)| e).collect();
                assert_eq!(ge.edges, want, "widths {sw} x {dw}");
                let mut counts = vec![0; ge.num_blocks() as usize];
                for &(b, _) in &tagged {
                    counts[b as usize] += 1;
                }
                for (b, &count) in counts.iter().enumerate() {
                    assert_eq!(ge.block(b as u64).len(), count, "block {b}, {sw} x {dw}");
                }
            }
        }
        assert!(duplicates, "no graph has a duplicate edge");
    }
}
