//! Graph algorithms for the Piccolo reproduction.
//!
//! The paper evaluates five algorithms expressed in the vertex-centric model (VCM) of
//! Algorithm 1 — PageRank (PR), Breadth-First Search (BFS), Connected Components (CC),
//! Single-Source Shortest Path (SSSP) and Single-Source Widest Path (SSWP) — plus an
//! edge-centric variant (Section VII-H).
//!
//! This crate provides:
//!
//! * the [`vcm::VertexProgram`] trait capturing the `Process` / `Reduce` / `Apply`
//!   operators and a functional iteration driver [`vcm::run_vcm`],
//! * the five vertex programs ([`pagerank`], [`bfs`], [`cc`], [`sssp`], [`sswp`]),
//! * the [`edge_centric`] grid-block edge order that the simulator's edge-centric
//!   traversal streams, and
//! * straightforward [`reference`](mod@reference) CPU implementations used as ground truth in tests.
//!
//! The accelerator simulator (crate `piccolo-accel`) re-uses the same vertex programs to
//! generate memory-access traces, so functional results and simulated traffic always refer
//! to the same computation.
//!
//! # Example
//!
//! ```
//! use piccolo_algo::{bfs::Bfs, vcm::run_vcm};
//! use piccolo_graph::generate;
//!
//! let g = generate::path(8);
//! let result = run_vcm(&g, &Bfs::new(0), 40);
//! assert_eq!(result.props[7], 7); // the path end is 7 hops away
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bfs;
pub mod cc;
pub mod edge_centric;
pub mod pagerank;
pub mod reference;
pub mod sssp;
pub mod sswp;
pub mod vcm;

pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use pagerank::PageRank;
pub use sssp::Sssp;
pub use sswp::Sswp;
pub use vcm::{run_vcm, Algorithm, VcmResult, VertexProgram};

/// "Infinite" distance marker used by BFS/SSSP (`u32::MAX` would overflow when an edge
/// weight is added, so we reserve a large sentinel instead).
pub const UNREACHED: u32 = u32::MAX / 2;
