//! Graph substrate for the Piccolo reproduction.
//!
//! This crate provides everything the accelerator simulator needs on the *data* side:
//!
//! * [`EdgeList`] and [`Csr`] graph representations (push/out-edge oriented),
//! * synthetic graph generators matching the paper's evaluation graphs
//!   ([`generate::kronecker`] for the R-MAT/Kronecker power-law family,
//!   [`generate::watts_strogatz`] for small-world graphs, plus simple uniform/path/star
//!   helpers),
//! * named dataset stand-ins mirroring Table II of the paper ([`datasets`]),
//! * a registry for externally-loaded graphs ([`external`]) so real files ingested by
//!   `piccolo-io` flow through the same [`Dataset`] plumbing as the stand-ins,
//! * destination-interval [`tiling`] used by the tiling-based accelerators, and
//! * vertex property storage and active-vertex frontiers ([`props`]).
//!
//! # Example
//!
//! ```
//! use piccolo_graph::generate::kronecker;
//! use piccolo_graph::tiling::Tiling;
//!
//! let graph = kronecker(12, 8, 42); // 2^12 vertices, average degree 8
//! assert!(graph.num_edges() > 0);
//! let tiling = Tiling::by_tile_width(graph.num_vertices(), 1024);
//! assert_eq!(tiling.num_tiles() as usize, (graph.num_vertices() as usize + 1023) / 1024);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitset;
pub mod csr;
pub mod datasets;
pub mod edgelist;
pub mod error;
pub mod external;
pub mod generate;
pub mod props;
pub mod rng;
pub mod tiling;

pub use bitset::BitSet;
pub use csr::Csr;
pub use datasets::{Dataset, DatasetSpec};
pub use edgelist::{Edge, EdgeList};
pub use error::GraphError;
pub use props::{ActiveSet, VertexProps};
pub use tiling::{Tile, Tiling};

/// Vertex identifier. Graphs in this crate are addressed by dense `u32` ids.
pub type VertexId = u32;

/// Edge weight type. The paper assigns random integer weights in `0..=255` to unweighted
/// real-world graphs; we keep weights as `u32`.
pub type Weight = u32;
