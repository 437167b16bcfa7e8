//! Workspace-level umbrella crate: re-exports the public API of the Piccolo reproduction
//! for the examples and integration tests at the repository root.
//!
//! The workspace crates are available directly (`piccolo`, `piccolo_graph`,
//! `piccolo_algo`, `piccolo_io`, ...); see `examples/external_dataset.rs` for the
//! real-graph ingestion path end to end.
//!
//! # Example
//!
//! ```
//! use piccolo_repro::{Simulation, SystemKind};
//! use piccolo_algo::Bfs;
//! use piccolo_graph::generate;
//!
//! let graph = generate::kronecker(9, 4, 1);
//! let report = Simulation::new(SystemKind::Piccolo).run(&graph, &Bfs::new(0));
//! assert!(report.run.accel_cycles > 0);
//! ```

pub use piccolo::{Simulation, SystemKind};
