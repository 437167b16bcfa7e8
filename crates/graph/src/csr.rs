//! Compressed sparse row (CSR) graph representation.
//!
//! The paper's accelerators stream the graph topology in CSR form: a row-offset array
//! proportional to `|V|` and a column-index (+ weight) array proportional to `|E|`
//! (Section II-B). This module provides the push-oriented (out-edge) CSR. Every row
//! ascends by destination, so a tiling accelerator finds a source's edges inside one
//! destination tile as one contiguous run of its row.

use crate::{Edge, EdgeList, GraphError, VertexId, Weight};

/// A directed graph in compressed sparse row form, ordered by source vertex.
///
/// # Example
///
/// ```
/// use piccolo_graph::{Csr, Edge, EdgeList};
/// let mut el = EdgeList::new(3);
/// el.push(Edge::new(0, 1, 10));
/// el.push(Edge::new(0, 2, 20));
/// el.push(Edge::new(2, 0, 5));
/// let g = Csr::from_edge_list(&el);
/// assert_eq!(g.out_degree(0), 2);
/// let neighbors: Vec<u32> = g.neighbors(0).map(|(v, _)| v).collect();
/// assert_eq!(neighbors, vec![1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `row_offsets[v]..row_offsets[v + 1]` indexes the out-edges of `v`.
    row_offsets: Vec<u64>,
    /// Destination vertex per edge.
    col_indices: Vec<VertexId>,
    /// Weight per edge, parallel to `col_indices`.
    weights: Vec<Weight>,
}

impl Csr {
    /// Builds a CSR from an edge list. Edges are sorted by `(src, dst)`.
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        edges.clone().into_csr()
    }

    /// The CSR build behind [`EdgeList::into_csr`]: sorts `sorted` in place by
    /// `(src, dst)`, then lays out the offsets, columns and weights. Endpoints are
    /// below `num_vertices`, as every [`EdgeList`] guarantees.
    pub(crate) fn build(num_vertices: u32, mut sorted: Vec<Edge>) -> Self {
        let n = num_vertices as usize;
        sorted.sort_unstable_by_key(|e| (e.src, e.dst));

        let mut row_offsets = vec![0u64; n + 1];
        for e in &sorted {
            row_offsets[e.src as usize + 1] += 1;
        }
        for i in 0..n {
            row_offsets[i + 1] += row_offsets[i];
        }
        let col_indices: Vec<VertexId> = sorted.iter().map(|e| e.dst).collect();
        let weights: Vec<Weight> = sorted.iter().map(|e| e.weight).collect();
        Self {
            row_offsets,
            col_indices,
            weights,
        }
    }

    /// Builds a CSR directly from raw arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (offsets not monotone, lengths mismatch, or
    /// a column index out of range). Use [`Csr::try_from_raw`] on ingestion paths where
    /// the input is untrusted (files, network) and a typed error is needed instead.
    pub fn from_raw(
        row_offsets: Vec<u64>,
        col_indices: Vec<VertexId>,
        weights: Vec<Weight>,
    ) -> Self {
        match Self::try_from_raw(row_offsets, col_indices, weights) {
            Ok(csr) => csr,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked variant of [`Csr::from_raw`]: validates that `row_offsets` is non-empty
    /// and monotone, that its last entry equals the edge count, that `col_indices` and
    /// `weights` agree in length, that every column index is in range and that every
    /// row's destinations ascend (equal neighbours allowed), the order every other
    /// constructor produces. Every file ingestion path (`piccolo-io`) routes through
    /// this, so a malformed snapshot fails with a [`GraphError`] instead of a panic or
    /// silent corruption. An out-of-range column is reported before an unsorted row.
    pub fn try_from_raw(
        row_offsets: Vec<u64>,
        col_indices: Vec<VertexId>,
        weights: Vec<Weight>,
    ) -> Result<Self, GraphError> {
        if row_offsets.is_empty() {
            return Err(GraphError::EmptyOffsets);
        }
        if col_indices.len() != weights.len() {
            return Err(GraphError::WeightLengthMismatch {
                col_indices: col_indices.len(),
                weights: weights.len(),
            });
        }
        if let Some(index) = row_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(GraphError::NonMonotonicOffsets { index });
        }
        let last = *row_offsets.last().unwrap();
        if last != col_indices.len() as u64 {
            return Err(GraphError::OffsetEdgeMismatch {
                last_offset: last,
                num_edges: col_indices.len(),
            });
        }
        let n = (row_offsets.len() - 1) as u32;
        // One pass over the columns finds their maximum, for the range check, and counts
        // the places where a destination is below the one before it. Such a descent is
        // allowed only where a row starts; the exact fault is looked up only on failure.
        let (max, descents) = col_indices.windows(2).fold(
            (col_indices.first().copied().unwrap_or(0), 0usize),
            |(max, descents), w| (max.max(w[1]), descents + usize::from(w[0] > w[1])),
        );
        if max >= n {
            if let Some(edge) = col_indices.iter().position(|&c| c >= n) {
                return Err(GraphError::ColIndexOutOfRange {
                    edge,
                    dst: col_indices[edge],
                    num_vertices: n,
                });
            }
        }
        let rows = || row_offsets.windows(2).map(|w| w[0] as usize..w[1] as usize);
        let row_start_descents: usize = rows()
            .filter(|r| r.start > 0 && r.start < r.end)
            .map(|r| usize::from(col_indices[r.start - 1] > col_indices[r.start]))
            .sum();
        if descents != row_start_descents {
            if let Some(vertex) = rows().position(|r| !col_indices[r].is_sorted()) {
                return Err(GraphError::UnsortedRow {
                    vertex: vertex as VertexId,
                });
            }
        }
        Ok(Self {
            row_offsets,
            col_indices,
            weights,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.row_offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.col_indices.len() as u64
    }

    /// Average out-degree.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_degree(&self, v: VertexId) -> u64 {
        let v = v as usize;
        self.row_offsets[v + 1] - self.row_offsets[v]
    }

    /// The row offset array (length `|V| + 1`).
    pub fn row_offsets(&self) -> &[u64] {
        &self.row_offsets
    }

    /// The column index array (length `|E|`).
    pub fn col_indices(&self) -> &[VertexId] {
        &self.col_indices
    }

    /// The edge weight array (length `|E|`).
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Iterates over `(dst, weight)` out-neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        let v = v as usize;
        let start = self.row_offsets[v] as usize;
        let end = self.row_offsets[v + 1] as usize;
        Neighbors {
            cols: &self.col_indices[start..end],
            weights: &self.weights[start..end],
            idx: 0,
        }
    }

    /// Iterates over the edge indices (positions in the column array) of `v`'s out-edges.
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<u64> {
        let v = v as usize;
        self.row_offsets[v]..self.row_offsets[v + 1]
    }

    /// Iterates over all edges as [`Edge`] values in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices())
            .flat_map(move |u| self.neighbors(u).map(move |(v, w)| Edge::new(u, v, w)))
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> u64 {
        (0..self.num_vertices())
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// Iterator over `(dst, weight)` pairs produced by [`Csr::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    cols: &'a [VertexId],
    weights: &'a [Weight],
    idx: usize,
}

impl Iterator for Neighbors<'_> {
    type Item = (VertexId, Weight);

    fn next(&mut self) -> Option<Self::Item> {
        if self.idx < self.cols.len() {
            let item = (self.cols[self.idx], self.weights[self.idx]);
            self.idx += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.cols.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        let mut el = EdgeList::new(5);
        for (s, d, w) in [
            (0, 1, 1),
            (0, 4, 2),
            (1, 2, 3),
            (3, 0, 4),
            (3, 4, 5),
            (4, 3, 6),
        ] {
            el.push(Edge::new(s, d, w));
        }
        Csr::from_edge_list(&el)
    }

    #[test]
    fn degrees_and_counts() {
        let g = small();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted_by_destination() {
        let g = small();
        let n: Vec<_> = g.neighbors(3).collect();
        assert_eq!(n, vec![(0, 4), (4, 5)]);
        assert_eq!(g.neighbors(3).len(), 2);
    }

    #[test]
    fn from_raw_validates_and_matches_builder() {
        let g = small();
        let g2 = Csr::from_raw(
            g.row_offsets().to_vec(),
            g.col_indices().to_vec(),
            g.weights().to_vec(),
        );
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic]
    fn from_raw_rejects_bad_offsets() {
        Csr::from_raw(vec![0, 2, 1], vec![0, 0], vec![1, 1]);
    }

    #[test]
    fn try_from_raw_reports_typed_errors() {
        assert_eq!(
            Csr::try_from_raw(vec![], vec![], vec![]),
            Err(GraphError::EmptyOffsets)
        );
        assert_eq!(
            Csr::try_from_raw(vec![0, 2, 1], vec![0, 0], vec![1, 1]),
            Err(GraphError::NonMonotonicOffsets { index: 1 })
        );
        assert_eq!(
            Csr::try_from_raw(vec![0, 1], vec![0], vec![]),
            Err(GraphError::WeightLengthMismatch {
                col_indices: 1,
                weights: 0
            })
        );
        assert_eq!(
            Csr::try_from_raw(vec![0, 3], vec![0], vec![1]),
            Err(GraphError::OffsetEdgeMismatch {
                last_offset: 3,
                num_edges: 1
            })
        );
        assert_eq!(
            Csr::try_from_raw(vec![0, 1], vec![5], vec![1]),
            Err(GraphError::ColIndexOutOfRange {
                edge: 0,
                dst: 5,
                num_vertices: 1
            })
        );
        // Column range is reported before row order, wherever each fault sits.
        assert_eq!(
            Csr::try_from_raw(vec![0, 2, 3], vec![1, 0, 9], vec![1, 1, 1]),
            Err(GraphError::ColIndexOutOfRange {
                edge: 2,
                dst: 9,
                num_vertices: 2
            })
        );
        // The empty graph (one offset, no edges) is valid.
        let empty = Csr::try_from_raw(vec![0], vec![], vec![]).unwrap();
        assert_eq!(empty.num_vertices(), 0);
        assert!(!format!("{}", GraphError::EmptyOffsets).is_empty());
    }

    #[test]
    fn try_from_raw_rejects_a_descending_row() {
        // Vertex 1's destinations descend; vertex 0's repeat, which is allowed.
        let offsets = vec![0, 2, 4, 4];
        let weights = vec![1; 4];
        assert_eq!(
            Csr::try_from_raw(offsets.clone(), vec![1, 1, 2, 0], weights.clone()),
            Err(GraphError::UnsortedRow { vertex: 1 })
        );
        let fixed = Csr::try_from_raw(offsets, vec![1, 1, 0, 2], weights).unwrap();
        assert_eq!(
            fixed.neighbors(1).map(|(v, _)| v).collect::<Vec<_>>(),
            [0, 2]
        );
        // Every constructor's output passes the check.
        let g = crate::generate::watts_strogatz(8, 4, 0.3, 5);
        let raw = (
            g.row_offsets().to_vec(),
            g.col_indices().to_vec(),
            g.weights().to_vec(),
        );
        assert_eq!(Csr::try_from_raw(raw.0, raw.1, raw.2), Ok(g));
        assert!(format!("{}", GraphError::UnsortedRow { vertex: 1 }).contains("vertex 1"));
    }

    #[test]
    fn edge_range_matches_degree() {
        let g = small();
        assert_eq!(g.edge_range(0), 0..2);
        let r = g.edge_range(2);
        assert_eq!(r.end - r.start, g.out_degree(2));
    }
}
