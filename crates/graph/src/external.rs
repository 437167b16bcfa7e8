//! Process-global registry of externally-loaded graphs.
//!
//! The synthetic stand-ins of [`crate::datasets`] are pure functions of
//! `(dataset, scale_shift, seed)`, so a [`crate::Dataset`] value alone identifies a
//! graph anywhere in the stack (campaign graph store, `results.json` rows, bench
//! metrics). Real graphs loaded from disk (`piccolo-io`) have no such recipe — the
//! bytes live in memory after parsing. This registry bridges the two worlds: a loaded
//! [`Csr`] is [`register`]ed under a name and receives a stable small id, and
//! [`Dataset::External`] wraps that id so every downstream consumer (graph keys,
//! experiment grids, reports) works unchanged.
//!
//! Ids are assigned in registration order, so a driver that registers its `--external`
//! graphs in CLI order gets deterministic ids (and therefore deterministic output) for
//! any worker count. Re-registering an existing name replaces the graph and keeps the
//! id, so a repeated load is idempotent. The registry owns each graph for the life of
//! the process; consumers share it through the `Arc` that [`graph`] hands out.
//!
//! # Example
//!
//! ```
//! use piccolo_graph::{external, generate, Dataset};
//!
//! let g = generate::kronecker(10, 4, 1);
//! let ds = external::register("demo-doc", g.clone());
//! assert_eq!(ds.short_name(), "demo-doc");
//! assert_eq!(ds.build(0, 0), g); // shift/seed are ignored for external graphs
//! ```

use crate::{Csr, Dataset};
use std::sync::{Arc, Mutex, MutexGuard};

struct Entry {
    name: String,
    graph: Arc<Csr>,
    /// [`csr_fingerprint`] of `graph`, computed once at [`register`] time so plan
    /// fingerprints over external graphs are a constant-size fold per invocation.
    fingerprint: u64,
}

/// FNV-1a 64 over the graph's structure: vertex/edge counts and every `(src, dst,
/// weight)` triple in CSR order, each folded as little-endian `u64` bytes. Stable
/// across platforms. Public so tools that hold a CSR can compute the fingerprint a
/// registration records.
///
/// The fold is inline, with the constants of `piccolo_obs::hash::Fnv64`, because this
/// crate has no dependencies and perfbench's separately locked workspace records that.
pub fn csr_fingerprint(graph: &Csr) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    fold(graph.num_vertices() as u64);
    fold(graph.num_edges());
    for e in graph.iter_edges() {
        fold(e.src as u64);
        fold(e.dst as u64);
        fold(e.weight as u64);
    }
    h
}

static ENTRIES: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// Locks the entry table, tolerating poison: every mutation of the table is a single
/// whole-entry write, so a panic elsewhere never leaves a half-updated entry behind.
fn entries() -> MutexGuard<'static, Vec<Entry>> {
    ENTRIES.lock().unwrap_or_else(|e| e.into_inner())
}

/// Registers `graph` under `name` and returns the [`Dataset::External`] handle for it.
///
/// If `name` is already registered, its graph is replaced and the existing id is
/// reused, so repeated loads of the same source are idempotent and ids stay stable
/// for the life of the process.
pub fn register(name: &str, graph: Csr) -> Dataset {
    let entry = Entry {
        name: name.to_string(),
        fingerprint: csr_fingerprint(&graph),
        graph: Arc::new(graph),
    };
    let mut entries = entries();
    let id = match entries.iter().position(|e| e.name == name) {
        Some(id) => {
            entries[id] = entry;
            id
        }
        None => {
            entries.push(entry);
            entries.len() - 1
        }
    };
    Dataset::External { id: id as u32 }
}

/// The name `id` was registered under, if any.
pub fn name(id: u32) -> Option<String> {
    entries().get(id as usize).map(|e| e.name.clone())
}

/// Vertex and edge counts of `id`'s graph, if registered.
pub fn vertices_edges(id: u32) -> Option<(u64, u64)> {
    entries()
        .get(id as usize)
        .map(|e| (e.graph.num_vertices() as u64, e.graph.num_edges()))
}

/// The registered graph for `id`, if any. The `Arc` is shared with the registry, so
/// handing it to a consumer does not copy the CSR.
pub fn graph(id: u32) -> Option<Arc<Csr>> {
    entries().get(id as usize).map(|e| Arc::clone(&e.graph))
}

/// The structural content hash of `id`'s registered graph, if any — computed once at
/// [`register`] time. Two registrations with equal fingerprints hold identical graphs
/// (same counts, same `(src, dst, weight)` sequence), which is what campaign plan
/// hashing folds in so stale journal entries computed over an edited external source
/// are refused without re-hashing the graph per invocation.
pub fn content_fingerprint(id: u32) -> Option<u64> {
    entries().get(id as usize).map(|e| e.fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    /// Journals and plan hashes over external graphs written by earlier builds must
    /// keep matching, so the value is a literal recorded from an earlier build.
    #[test]
    fn csr_fingerprint_is_pinned() {
        let g = generate::kronecker(8, 4, 7);
        assert_eq!(csr_fingerprint(&g), 0xdb4c_e5c8_c5cd_88c6);
    }

    #[test]
    fn register_assigns_stable_ids_and_replaces_by_name() {
        let g1 = generate::uniform(100, 300, 1);
        let g2 = generate::uniform(200, 500, 2);
        let a = register("ext-test-a", g1.clone());
        let b = register("ext-test-b", g2.clone());
        assert_ne!(a, b);
        let Dataset::External { id: ida } = a else {
            panic!("register returns an External dataset");
        };
        assert_eq!(name(ida).as_deref(), Some("ext-test-a"));
        assert_eq!(*graph(ida).unwrap(), g1);
        assert_eq!(
            vertices_edges(ida),
            Some((g1.num_vertices() as u64, g1.num_edges()))
        );
        // Re-registering the same name keeps the id and replaces the graph — and the
        // content fingerprint follows the content, not the id.
        let fp1 = content_fingerprint(ida).unwrap();
        let a2 = register("ext-test-a", g2.clone());
        assert_eq!(a, a2);
        assert_eq!(*graph(ida).unwrap(), g2);
        let fp2 = content_fingerprint(ida).unwrap();
        assert_ne!(fp1, fp2, "different content, different fingerprint");
        register("ext-test-a", g1);
        assert_eq!(
            content_fingerprint(ida).unwrap(),
            fp1,
            "identical content restores the fingerprint"
        );
    }

    #[test]
    fn unknown_ids_and_names_are_none() {
        assert_eq!(name(u32::MAX), None);
        assert!(graph(u32::MAX).is_none());
        assert!(content_fingerprint(u32::MAX).is_none());
        assert!(vertices_edges(u32::MAX).is_none());
    }
}
