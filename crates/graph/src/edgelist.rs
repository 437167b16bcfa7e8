//! Edge-list graph representation and helpers.

use crate::{GraphError, VertexId, Weight};

/// A single directed, weighted edge `(src, dst, weight)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (random `0..=255` for originally-unweighted graphs, per the paper).
    pub weight: Weight,
}

impl Edge {
    /// Creates a new edge.
    pub fn new(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        Self { src, dst, weight }
    }
}

/// A growable directed edge list with an explicit vertex count.
///
/// This is the construction-time representation; the simulator converts it into a
/// [`crate::Csr`] before running.
///
/// # Example
///
/// ```
/// use piccolo_graph::{Edge, EdgeList};
/// let mut el = EdgeList::new(4);
/// el.push(Edge::new(0, 1, 7));
/// el.push(Edge::new(1, 2, 3));
/// let csr = el.to_csr();
/// assert_eq!(csr.out_degree(0), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    num_vertices: u32,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates an edge list from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if any edge endpoint is `>= num_vertices`. Use
    /// [`EdgeList::try_from_edges`] on ingestion paths where the input is untrusted.
    pub fn from_edges(num_vertices: u32, edges: Vec<Edge>) -> Self {
        match Self::try_from_edges(num_vertices, edges) {
            Ok(el) => el,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked variant of [`EdgeList::from_edges`]: rejects any edge whose endpoint is
    /// `>= num_vertices` with a typed [`GraphError`] instead of panicking. File parsers
    /// (`piccolo-io`) route through this so a malformed edge list fails cleanly.
    pub fn try_from_edges(num_vertices: u32, edges: Vec<Edge>) -> Result<Self, GraphError> {
        if let Some(index) = edges
            .iter()
            .position(|e| e.src >= num_vertices || e.dst >= num_vertices)
        {
            let e = edges[index];
            return Err(GraphError::EdgeOutOfRange {
                index,
                src: e.src,
                dst: e.dst,
                num_vertices,
            });
        }
        Ok(Self {
            num_vertices,
            edges,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Appends an edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn push(&mut self, edge: Edge) {
        assert!(
            edge.src < self.num_vertices && edge.dst < self.num_vertices,
            "edge ({}, {}) out of range for {} vertices",
            edge.src,
            edge.dst,
            self.num_vertices
        );
        self.edges.push(edge);
    }

    /// Borrow the edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Sorts edges by `(src, dst)` and removes duplicate `(src, dst)` pairs, keeping the
    /// first weight, and removes self-loops. Returns the number of removed edges.
    pub fn dedup_and_clean(&mut self) -> usize {
        let before = self.edges.len();
        self.edges.retain(|e| e.src != e.dst);
        self.edges.sort_unstable_by_key(|e| (e.src, e.dst));
        self.edges.dedup_by_key(|e| (e.src, e.dst));
        before - self.edges.len()
    }

    /// Converts to compressed sparse row form (sorted by source).
    pub fn to_csr(&self) -> crate::Csr {
        crate::Csr::from_edge_list(self)
    }

    /// Converts to compressed sparse row form like [`EdgeList::to_csr`], sorting the
    /// owned edges in place instead of a copy of them. Both sort the same sequence the
    /// same way, so they build the same CSR, duplicate `(src, dst)` pairs included.
    pub fn into_csr(self) -> crate::Csr {
        crate::Csr::build(self.num_vertices, self.edges)
    }

    /// Average out-degree (`|E| / |V|`).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.edges.len() as f64 / self.num_vertices as f64
        }
    }
}

impl FromIterator<Edge> for EdgeList {
    /// Builds an edge list sized to the maximum endpoint seen.
    fn from_iter<I: IntoIterator<Item = Edge>>(iter: I) -> Self {
        let edges: Vec<Edge> = iter.into_iter().collect();
        let num_vertices = edges
            .iter()
            .map(|e| e.src.max(e.dst) + 1)
            .max()
            .unwrap_or(0);
        Self {
            num_vertices,
            edges,
        }
    }
}

impl Extend<Edge> for EdgeList {
    fn extend<I: IntoIterator<Item = Edge>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut el = EdgeList::new(3);
        el.push(Edge::new(0, 1, 1));
        el.push(Edge::new(1, 2, 2));
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.num_vertices(), 3);
        assert!((el.average_degree() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn push_out_of_range_panics() {
        let mut el = EdgeList::new(2);
        el.push(Edge::new(0, 2, 1));
    }

    #[test]
    fn dedup_removes_loops_and_duplicates() {
        let mut el = EdgeList::new(4);
        el.push(Edge::new(0, 1, 1));
        el.push(Edge::new(0, 1, 9));
        el.push(Edge::new(2, 2, 5));
        el.push(Edge::new(3, 0, 2));
        let removed = el.dedup_and_clean();
        assert_eq!(removed, 2);
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.edges()[0], Edge::new(0, 1, 1));
    }

    #[test]
    fn from_iterator_sizes_vertices() {
        let el: EdgeList = vec![Edge::new(0, 5, 1), Edge::new(2, 3, 1)]
            .into_iter()
            .collect();
        assert_eq!(el.num_vertices(), 6);
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn from_edges_validates() {
        let el = EdgeList::from_edges(3, vec![Edge::new(0, 2, 1)]);
        assert_eq!(el.num_edges(), 1);
    }

    #[test]
    fn try_from_edges_reports_the_offending_edge() {
        let err = EdgeList::try_from_edges(2, vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1)])
            .expect_err("edge (1, 2) is out of range");
        assert_eq!(
            err,
            GraphError::EdgeOutOfRange {
                index: 1,
                src: 1,
                dst: 2,
                num_vertices: 2
            }
        );
        assert!(EdgeList::try_from_edges(3, vec![Edge::new(0, 2, 1)]).is_ok());
    }
}
