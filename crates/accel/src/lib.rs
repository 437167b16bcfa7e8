//! Graph-processing accelerator models for the Piccolo reproduction.
//!
//! This crate ties the substrates together into the six systems the paper evaluates
//! (Fig. 10): Graphicionado, GraphDyns (SPM), GraphDyns (Cache), NMP, PIM and Piccolo,
//! plus the fine-grained cache variants of Fig. 11 and the edge-centric accelerator of
//! Fig. 19a.
//!
//! The central entry point is [`engine::simulate`], which executes a vertex program
//! functionally while pushing its memory accesses through the system's on-chip memory
//! path ([`path::MemoryPath`]) and the command-level DRAM model of `piccolo-dram`.
//!
//! # Example
//!
//! ```
//! use piccolo_accel::{simulate, SimConfig, SystemKind};
//! use piccolo_algo::Bfs;
//! use piccolo_graph::generate;
//!
//! let graph = generate::kronecker(10, 4, 1);
//! let cfg = SimConfig::for_system(SystemKind::Piccolo, 12).with_max_iterations(10);
//! let result = simulate(&graph, &Bfs::new(0), &cfg);
//! assert!(result.accel_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod edge_centric;
pub mod engine;
pub mod layout;
pub mod path;
pub mod pipeline;
pub mod profile;

pub use config::{AccelConfig, CacheKind, SimConfig, SystemKind, TilingPolicy};
pub use edge_centric::{simulate_edge_centric, EdgeCentric};
pub use engine::{simulate, VertexCentric};
pub use layout::GraphLayout;
pub use path::MemoryPath;
pub use pipeline::{
    resolve_tiling, run_with_best_search, PhaseBreakdown, RunResult, ScatterContext, Traversal,
    BEST_TILING_FACTORS,
};
pub use profile::{record_run_profile, take_thread_phase_profile, PhaseProfile};
