//! Structural validation errors for graph construction.
//!
//! The raw constructors ([`crate::Csr::from_raw`], [`crate::EdgeList::from_edges`])
//! historically trusted their inputs and panicked on inconsistency — fine for
//! generator-produced graphs, fatal for file ingestion. The checked variants
//! ([`crate::Csr::try_from_raw`], [`crate::EdgeList::try_from_edges`]) return a
//! [`GraphError`] instead, so `piccolo-io` can turn a malformed file into a typed error
//! with context rather than a panic or silent corruption.

/// Why a raw CSR / edge-list construction was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// `row_offsets` was empty (a valid CSR has at least one entry, `[0]`).
    EmptyOffsets,
    /// `row_offsets[index] > row_offsets[index + 1]` — offsets must be monotone.
    NonMonotonicOffsets {
        /// Index of the first offending entry.
        index: usize,
    },
    /// The last row offset disagrees with the column-array length.
    OffsetEdgeMismatch {
        /// Value of `row_offsets.last()`.
        last_offset: u64,
        /// Length of `col_indices`.
        num_edges: usize,
    },
    /// `col_indices` and `weights` have different lengths.
    WeightLengthMismatch {
        /// Length of `col_indices`.
        col_indices: usize,
        /// Length of `weights`.
        weights: usize,
    },
    /// A column index references a vertex outside `0..num_vertices`.
    ColIndexOutOfRange {
        /// Position in the column array.
        edge: usize,
        /// The offending destination id.
        dst: u32,
        /// The vertex count implied by `row_offsets`.
        num_vertices: u32,
    },
    /// A row's destinations descend: every CSR row is sorted by destination.
    UnsortedRow {
        /// The first source vertex whose row is out of order.
        vertex: u32,
    },
    /// An edge endpoint references a vertex outside `0..num_vertices`.
    EdgeOutOfRange {
        /// Position in the edge vector.
        index: usize,
        /// Source id of the offending edge.
        src: u32,
        /// Destination id of the offending edge.
        dst: u32,
        /// The declared vertex count.
        num_vertices: u32,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::EmptyOffsets => write!(f, "row_offsets must have at least one entry"),
            GraphError::NonMonotonicOffsets { index } => {
                write!(
                    f,
                    "row offsets must be monotone (violated at index {index})"
                )
            }
            GraphError::OffsetEdgeMismatch {
                last_offset,
                num_edges,
            } => write!(
                f,
                "last row offset ({last_offset}) must equal edge count ({num_edges})"
            ),
            GraphError::WeightLengthMismatch {
                col_indices,
                weights,
            } => write!(
                f,
                "col/weight length mismatch ({col_indices} column indices, {weights} weights)"
            ),
            GraphError::ColIndexOutOfRange {
                edge,
                dst,
                num_vertices,
            } => write!(
                f,
                "column index out of range: edge {edge} targets vertex {dst} of {num_vertices}"
            ),
            GraphError::UnsortedRow { vertex } => {
                write!(f, "row of vertex {vertex} is not sorted by destination")
            }
            GraphError::EdgeOutOfRange {
                index,
                src,
                dst,
                num_vertices,
            } => write!(
                f,
                "edge {index} ({src}, {dst}) out of range for {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for GraphError {}
