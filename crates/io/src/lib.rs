//! Real-graph ingestion for the Piccolo reproduction.
//!
//! Every graph the simulator ran before this crate existed was a synthetic stand-in;
//! `piccolo-io` opens the pipeline to real traces. It has four layers:
//!
//! * **Text parsers** ([`text`]) — streaming readers for plain whitespace edge lists
//!   and SNAP-style TSV (comment lines, optional weights), which parse canonical lines
//!   straight out of the read buffer, and a line-buffered reader for MatrixMarket
//!   `coordinate` files, producing [`piccolo_graph::EdgeList`] /
//!   [`piccolo_graph::Csr`] through the checked constructors, with typed [`IoError`]s
//!   carrying line/field context instead of panics.
//! * **Binary snapshots** ([`pcsr`]) — the `.pcsr` format: magic + version + counts +
//!   checksummed `row_offsets` / `col_indices` / `weights` sections in a deterministic
//!   little-endian layout (full spec in `docs/pcsr-format.md`). One reader,
//!   [`read_pcsr`], loads a snapshot into owned memory: it checks the input length
//!   against the header before reading a section, allocates each section at its
//!   exact size and verifies every checksum, so a loaded graph never changes when
//!   its file does.
//! * **Compressed ingestion** ([`compress`]) — gzip and zstd text inputs, sniffed by
//!   magic bytes, decoded by the system `gzip` or `zstd` binary and handed to the
//!   same text parsers.
//! * **The snapshot cache** ([`snapshot`]) — a content-hash-keyed directory of
//!   snapshots, so the second load of any external graph skips parsing entirely and
//!   editing a source file invalidates its snapshot automatically. The key hashes
//!   *decompressed* content, so `graph.tsv`, `graph.tsv.gz` and `graph.tsv.zst`
//!   share one cache entry.
//!
//! The `graphtool` binary (`gen` / `convert` / `info` / `verify`) exposes the same
//! machinery on the command line, and `repro --external NAME=PATH` runs loaded graphs
//! through the whole campaign pipeline via [`piccolo_graph::external`].
//!
//! # Example
//!
//! ```no_run
//! use piccolo_io::{default_snapshot_dir, load_graph_with, SnapshotStatus};
//!
//! let path = std::path::Path::new("twitter.tsv");
//! let loaded = load_graph_with(path, None, &default_snapshot_dir()).unwrap();
//! assert!(matches!(loaded.status, SnapshotStatus::Hit | SnapshotStatus::Miss));
//! println!("{} vertices", loaded.graph.num_vertices());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod bytes;

pub mod compress;
pub mod error;
pub mod hash;
pub mod pcsr;
pub mod snapshot;
pub mod text;

pub use compress::{sniff_file, strip_extension, Compression};
pub use error::IoError;
pub use pcsr::{load_pcsr, read_pcsr, save_pcsr, write_pcsr};
pub use snapshot::{
    default_snapshot_dir, load_graph_with, snapshot_path, LoadedGraph, SnapshotStatus,
};
pub use text::{load_text, read_text, TextFormat};
