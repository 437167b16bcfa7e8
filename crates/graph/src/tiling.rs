//! Graph tiling: destination-interval tiles and 2-D grid partitioning.
//!
//! Tiling (Section II-B, Fig. 2b of the paper) restricts the destination vertices
//! processed in one pass to a contiguous range so that the per-tile random working set
//! (`Vtemp[dst_range]`) fits in on-chip memory. The cost is that the topology and the
//! sequential source-property stream are re-read once per tile.
//!
//! *Perfect tiling* sizes the tile so the destination properties fit entirely in the
//! on-chip memory (every random access hits except cold misses). Piccolo instead prefers
//! tiles that are a *scaling factor* larger than perfect (Fig. 17), because its cache only
//! stores useful 8 B sectors.

use crate::VertexId;

/// A single destination-interval tile: destinations in `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tile {
    /// First destination vertex (inclusive).
    pub start: VertexId,
    /// One past the last destination vertex (exclusive).
    pub end: VertexId,
}

impl Tile {
    /// Number of destination vertices covered by the tile.
    pub fn width(&self) -> u32 {
        self.end - self.start
    }

    /// Returns `true` if `v` falls inside the tile.
    pub fn contains(&self, v: VertexId) -> bool {
        v >= self.start && v < self.end
    }

    /// The destination range as a `Range`.
    pub fn range(&self) -> std::ops::Range<VertexId> {
        self.start..self.end
    }
}

/// A partition of the destination-vertex space into equal-width tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tiling {
    num_vertices: u32,
    tile_width: u32,
}

impl Tiling {
    /// Creates a tiling of `num_vertices` destinations into tiles of `tile_width`.
    ///
    /// # Panics
    ///
    /// Panics if `tile_width == 0`.
    pub fn by_tile_width(num_vertices: u32, tile_width: u32) -> Self {
        assert!(tile_width > 0, "tile width must be positive");
        Self {
            num_vertices,
            tile_width,
        }
    }

    /// Single tile covering all destinations (the "non-tiling" configuration of Fig. 3).
    pub fn single_tile(num_vertices: u32) -> Self {
        Self {
            num_vertices,
            tile_width: num_vertices.max(1),
        }
    }

    /// Perfect tiling for an on-chip memory of `onchip_bytes` holding `bytes_per_vertex`
    /// of temporary property per destination (Section II-B): the tile width is chosen so
    /// the whole destination slice fits on chip.
    pub fn perfect(num_vertices: u32, onchip_bytes: u64, bytes_per_vertex: u32) -> Self {
        let width = (onchip_bytes / bytes_per_vertex as u64).max(1) as u32;
        Self::by_tile_width(num_vertices, width.min(num_vertices.max(1)))
    }

    /// Perfect tiling scaled by `factor` (the x-axis of Fig. 17). `factor = 1` is perfect
    /// tiling, larger factors mean proportionally wider tiles.
    pub fn scaled(
        num_vertices: u32,
        onchip_bytes: u64,
        bytes_per_vertex: u32,
        factor: u32,
    ) -> Self {
        assert!(factor > 0, "scaling factor must be positive");
        let perfect = Self::perfect(num_vertices, onchip_bytes, bytes_per_vertex);
        let width = perfect
            .tile_width
            .saturating_mul(factor)
            .min(num_vertices.max(1));
        Self::by_tile_width(num_vertices, width)
    }

    /// Number of destination vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Width of each tile (the last tile may be narrower).
    pub fn tile_width(&self) -> u32 {
        self.tile_width
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> u32 {
        if self.num_vertices == 0 {
            1
        } else {
            self.num_vertices.div_ceil(self.tile_width)
        }
    }

    /// Returns the `idx`-th tile.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_tiles()`.
    pub fn tile(&self, idx: u32) -> Tile {
        assert!(idx < self.num_tiles(), "tile index out of range");
        let start = idx * self.tile_width;
        let end = (start + self.tile_width).min(self.num_vertices.max(start));
        Tile { start, end }
    }

    /// Tile index owning destination `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn tile_of(&self, v: VertexId) -> u32 {
        assert!(v < self.num_vertices, "vertex out of range");
        v / self.tile_width
    }

    /// Iterates over all tiles in destination order.
    pub fn iter(&self) -> impl Iterator<Item = Tile> + '_ {
        (0..self.num_tiles()).map(|i| self.tile(i))
    }
}

/// Splits a graph into per-tile CSR slices in a single pass over the edges (every edge
/// lands in exactly one slice, keyed by its destination tile). This is how tiled
/// accelerators store the topology: one row-index array and one column array per tile.
///
/// The simulator no longer copies the graph this way: the vertex-centric engine
/// (`piccolo_accel::VertexCentric`) reads each tile in place from the CSR, as a
/// contiguous run of every row. These slices are the reference its walk is tested
/// against, and the layout an out-of-program replay can rebuild a tile walk from.
pub fn partition_csr(graph: &crate::Csr, tiling: &Tiling) -> Vec<crate::Csr> {
    let n = graph.num_vertices();
    let mut per_tile: Vec<crate::EdgeList> = (0..tiling.num_tiles())
        .map(|_| crate::EdgeList::new(n))
        .collect();
    for e in graph.iter_edges() {
        per_tile[tiling.tile_of(e.dst) as usize].push(e);
    }
    per_tile.iter().map(crate::Csr::from_edge_list).collect()
}

/// A 2-D grid partition of the edge set used by edge-centric accelerators (Section VII-H):
/// edges are grouped into `src_tiles x dst_tiles` blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPartition {
    /// Tiling of the source dimension.
    pub src: Tiling,
    /// Tiling of the destination dimension.
    pub dst: Tiling,
}

impl GridPartition {
    /// Creates a grid partition with the given source/destination tile widths.
    pub fn new(num_vertices: u32, src_width: u32, dst_width: u32) -> Self {
        Self {
            src: Tiling::by_tile_width(num_vertices, src_width),
            dst: Tiling::by_tile_width(num_vertices, dst_width),
        }
    }

    /// Total number of grid blocks.
    pub fn num_blocks(&self) -> u64 {
        self.src.num_tiles() as u64 * self.dst.num_tiles() as u64
    }

    /// The block (row-major over source tiles) owning an edge `(src, dst)`.
    pub fn block_of(&self, src: VertexId, dst: VertexId) -> u64 {
        self.src.tile_of(src) as u64 * self.dst.num_tiles() as u64 + self.dst.tile_of(dst) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_all_vertices_without_overlap() {
        let t = Tiling::by_tile_width(1000, 128);
        assert_eq!(t.num_tiles(), 8);
        let mut covered = 0u32;
        let mut prev_end = 0;
        for tile in t.iter() {
            assert_eq!(tile.start, prev_end);
            covered += tile.width();
            prev_end = tile.end;
        }
        assert_eq!(covered, 1000);
        assert_eq!(t.tile(7).width(), 1000 - 7 * 128);
    }

    #[test]
    fn tile_of_is_consistent_with_contains() {
        let t = Tiling::by_tile_width(500, 64);
        for v in [0u32, 63, 64, 499] {
            let idx = t.tile_of(v);
            assert!(t.tile(idx).contains(v));
        }
    }

    #[test]
    fn perfect_tiling_matches_onchip_capacity() {
        // 4 KiB of on-chip memory, 8 B per vertex -> 512-vertex tiles.
        let t = Tiling::perfect(10_000, 4096, 8);
        assert_eq!(t.tile_width(), 512);
        assert_eq!(t.num_tiles(), 20);
    }

    #[test]
    fn scaled_tiling_multiplies_width() {
        let t1 = Tiling::scaled(10_000, 4096, 8, 1);
        let t4 = Tiling::scaled(10_000, 4096, 8, 4);
        assert_eq!(t4.tile_width(), 4 * t1.tile_width());
        // Factor large enough to exceed |V| clamps to a single tile.
        let tbig = Tiling::scaled(10_000, 4096, 8, 1000);
        assert_eq!(tbig.num_tiles(), 1);
    }

    #[test]
    fn single_tile_spans_everything() {
        let t = Tiling::single_tile(777);
        assert_eq!(t.num_tiles(), 1);
        assert_eq!(t.tile(0).range(), 0..777);
    }

    #[test]
    fn grid_partition_blocks() {
        let g = GridPartition::new(100, 25, 50);
        assert_eq!(g.num_blocks(), 4 * 2);
        assert_eq!(g.block_of(0, 0), 0);
        assert_eq!(g.block_of(99, 99), 7);
        assert_eq!(g.block_of(30, 10), 2);
    }

    #[test]
    fn partition_csr_distributes_every_edge_once() {
        let g = crate::generate::kronecker(8, 4, 3);
        let tiling = Tiling::by_tile_width(g.num_vertices(), 37);
        let slices = partition_csr(&g, &tiling);
        assert_eq!(slices.len(), tiling.num_tiles() as usize);
        let total: u64 = slices.iter().map(|s| s.num_edges()).sum();
        assert_eq!(total, g.num_edges());
        for (i, slice) in slices.iter().enumerate() {
            let tile = tiling.tile(i as u32);
            assert!(slice.iter_edges().all(|e| tile.contains(e.dst)));
        }
    }

    #[test]
    fn empty_graph_has_one_tile() {
        let t = Tiling::single_tile(0);
        assert_eq!(t.num_tiles(), 1);
    }
}
