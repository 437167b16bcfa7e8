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
//! id, so a repeated load is idempotent.
//!
//! # Lazy registration
//!
//! A graph can also be registered by **metadata only** ([`register_lazy`]): name,
//! structural fingerprint and vertex/edge counts, plus a loader closure that produces
//! the CSR on demand. Everything identity-shaped — [`name`], [`lookup`],
//! [`content_fingerprint`], [`vertices_edges`], and therefore campaign plan hashing
//! and `Dataset::spec()` — works without materializing the graph. The loader runs on
//! the first [`graph`] call; until then a resumed campaign whose journal already
//! covers every unit of that graph never pays the load. The loaded CSR is verified
//! against the registered fingerprint and counts, so a stale loader source is an
//! error, never silent wrong results.
//!
//! # Reclaim
//!
//! The registry pins a loaded graph by default. [`release`] downgrades a
//! lazily-registered graph's pin to a weak handle, so its memory is returned to the
//! allocator as soon as the last consumer drops its `Arc` — the campaign graph store
//! calls this when it evicts an external graph, and the retained loader transparently
//! re-materializes the graph if it is ever needed again. [`deregister`] removes a name
//! outright, leaving a tombstone so ids (which are positional) never shift or alias.
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
//! assert_eq!(external::lookup("demo-doc"), Some(ds));
//! ```

use crate::{Csr, Dataset};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

/// Materialization state of a registry entry.
enum GraphState {
    /// The CSR is in memory and pinned by the registry (eager registration, or a lazy
    /// load that completed and has not been [`release`]d).
    Loaded(Arc<Csr>),
    /// The registry holds only a weak handle: consumers that still hold the `Arc`
    /// keep sharing it, but once the last one drops, the memory is returned to the
    /// allocator. A later [`graph`] call upgrades the weak handle if anyone still
    /// holds the graph, and re-runs the retained loader otherwise.
    Cached(Weak<Csr>),
    /// A thread is running the lazy loader right now; other accessors block on the
    /// registry condvar until it finishes.
    Loading,
    /// Registered by metadata only; the retained loader runs on first [`graph`]
    /// access.
    Unloaded,
    /// The lazy loader panicked (or produced content that contradicts the registered
    /// fingerprint); every subsequent access propagates the failure.
    Failed,
    /// Tombstone left by [`deregister`]: the id stays allocated (ids are positional
    /// and must never shift) but the name, metadata and graph are gone.
    Deregistered,
}

struct Entry {
    name: String,
    state: GraphState,
    /// Reloader for lazily-registered graphs, retained across loads so a released
    /// graph can be materialized again ([`GraphState::Cached`] → dead weak →
    /// reload). `None` for eager registrations, whose registry `Arc` is the owner.
    loader: Option<Arc<dyn Fn() -> Csr + Send + Sync>>,
    /// Structural content hash: computed at [`register`] time (O(edges)), or supplied
    /// by the caller of [`register_lazy`] and verified when the loader runs. Either
    /// way, plan fingerprints over external graphs are a constant-size fold per
    /// invocation and never force a load.
    fingerprint: u64,
    vertices: u64,
    edges: u64,
}

/// FNV-1a 64 over the graph's structure: vertex/edge counts and every `(src, dst,
/// weight)` triple in CSR order, each folded as little-endian `u64` bytes. Stable
/// across platforms. Public so callers of [`register_lazy`] that already hold the CSR
/// (tests, tools) can produce the exact fingerprint the loader will be verified against.
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

struct Registry {
    entries: Mutex<Vec<Entry>>,
    /// Signalled whenever an entry leaves the [`GraphState::Loading`] state.
    loaded: Condvar,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        entries: Mutex::new(Vec::new()),
        loaded: Condvar::new(),
    })
}

/// Locks the entry table, tolerating poison: every mutation of the table is a single
/// whole-entry or whole-state write, so a panic elsewhere (e.g. a [`GraphState::Failed`]
/// propagation) never leaves a half-updated entry behind.
fn lock_entries(reg: &Registry) -> std::sync::MutexGuard<'_, Vec<Entry>> {
    reg.entries.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether an entry is live (not a [`GraphState::Deregistered`] tombstone).
fn is_live(e: &Entry) -> bool {
    !matches!(e.state, GraphState::Deregistered)
}

/// Inserts `entry` under its name: replaces in place (keeping the id) if the name is
/// already registered, appends (assigning the next id) otherwise. Deregistered
/// tombstones never match by name, so re-registering a deregistered name allocates a
/// fresh id.
fn insert(entry: Entry) -> Dataset {
    let reg = registry();
    let mut entries = lock_entries(reg);
    if let Some(id) = entries
        .iter()
        .position(|e| is_live(e) && e.name == entry.name)
    {
        entries[id] = entry;
        return Dataset::External { id: id as u32 };
    }
    entries.push(entry);
    Dataset::External {
        id: (entries.len() - 1) as u32,
    }
}

/// Registers `graph` under `name` and returns the [`Dataset::External`] handle for it.
///
/// If `name` is already registered, its graph is replaced and the existing id is
/// reused, so repeated loads of the same source are idempotent and ids stay stable
/// for the life of the process.
pub fn register(name: &str, graph: Csr) -> Dataset {
    let fingerprint = csr_fingerprint(&graph);
    let vertices = graph.num_vertices() as u64;
    let edges = graph.num_edges();
    insert(Entry {
        name: name.to_string(),
        state: GraphState::Loaded(Arc::new(graph)),
        loader: None,
        fingerprint,
        vertices,
        edges,
    })
}

/// Registers a graph by metadata only; `loader` runs on the first [`graph`] access
/// (and again only if the graph was [`release`]d and every consumer dropped it).
///
/// `fingerprint`, `vertices` and `edges` must describe the graph `loader` will
/// produce — they come from a previous full load of the same content (the bench
/// drivers persist them in a snapshot sidecar). The loaded CSR is checked against all
/// three on every load; a mismatch poisons the entry and panics, because silently
/// simulating a different graph than the one the campaign plan was hashed over would
/// corrupt results. Name/id semantics match [`register`].
pub fn register_lazy(
    name: &str,
    fingerprint: u64,
    vertices: u64,
    edges: u64,
    loader: impl Fn() -> Csr + Send + Sync + 'static,
) -> Dataset {
    insert(Entry {
        name: name.to_string(),
        state: GraphState::Unloaded,
        loader: Some(Arc::new(loader)),
        fingerprint,
        vertices,
        edges,
    })
}

/// Looks up a previously registered name; `None` if it was never registered (or has
/// been [`deregister`]ed).
pub fn lookup(name: &str) -> Option<Dataset> {
    lock_entries(registry())
        .iter()
        .position(|e| is_live(e) && e.name == name)
        .map(|id| Dataset::External { id: id as u32 })
}

/// The name `id` was registered under, if any.
pub fn name(id: u32) -> Option<String> {
    lock_entries(registry())
        .get(id as usize)
        .filter(|e| is_live(e))
        .map(|e| e.name.clone())
}

/// Vertex and edge counts of `id`'s graph, if registered — available without
/// materializing a lazily-registered graph.
pub fn vertices_edges(id: u32) -> Option<(u64, u64)> {
    lock_entries(registry())
        .get(id as usize)
        .filter(|e| is_live(e))
        .map(|e| (e.vertices, e.edges))
}

/// Whether `id`'s graph is currently materialized in memory. `None` if `id` was never
/// registered. Lazily-registered graphs report `false` until the first [`graph`] call;
/// a [`release`]d graph reports `true` only while some consumer still holds its `Arc`.
pub fn is_loaded(id: u32) -> Option<bool> {
    lock_entries(registry())
        .get(id as usize)
        .filter(|e| is_live(e))
        .map(|e| match &e.state {
            GraphState::Loaded(_) => true,
            GraphState::Cached(w) => w.strong_count() > 0,
            _ => false,
        })
}

/// The registered graph for `id`, if any. The `Arc` is shared with the registry, so
/// handing it to a consumer does not copy the CSR.
///
/// A lazily-registered graph is materialized here: the loader runs **outside** the
/// registry lock (other names stay accessible during a long parse), concurrent callers
/// for the same id block until it finishes, and the result is verified against the
/// registered fingerprint and counts before anyone sees it.
///
/// # Panics
///
/// If the lazy loader panics or produces content that does not match the registered
/// metadata — on the loading thread and on every subsequent access to the same id.
pub fn graph(id: u32) -> Option<Arc<Csr>> {
    let reg = registry();
    let mut entries = lock_entries(reg);
    loop {
        let entry = entries.get_mut(id as usize)?;
        match &mut entry.state {
            GraphState::Loaded(g) => return Some(Arc::clone(g)),
            GraphState::Cached(w) => {
                if let Some(g) = w.upgrade() {
                    return Some(g);
                }
                // Last consumer dropped the graph; fall through to a reload.
                entry.state = GraphState::Unloaded;
            }
            GraphState::Deregistered => return None,
            GraphState::Failed => {
                let name = entry.name.clone();
                // Release the lock before panicking so the registry stays usable for
                // other graphs (and other tests in the same process).
                drop(entries);
                panic!("lazy load of external graph '{name}' failed");
            }
            GraphState::Loading => {
                entries = reg.loaded.wait(entries).unwrap_or_else(|e| e.into_inner());
            }
            GraphState::Unloaded => {
                let Some(loader) = entry.loader.clone() else {
                    // Unreachable by construction (Unloaded entries always retain a
                    // loader), but a poisoned entry beats a deadlock.
                    entry.state = GraphState::Failed;
                    continue;
                };
                entry.state = GraphState::Loading;
                let name = entry.name.clone();
                let expected = (entry.fingerprint, entry.vertices, entry.edges);
                drop(entries);

                // If the loader (or the verification below) panics, mark the entry
                // failed and wake waiters before the panic continues unwinding —
                // otherwise concurrent callers would block on `Loading` forever.
                struct FailGuard(u32);
                impl Drop for FailGuard {
                    fn drop(&mut self) {
                        let reg = registry();
                        if let Some(e) = lock_entries(reg).get_mut(self.0 as usize) {
                            e.state = GraphState::Failed;
                        }
                        reg.loaded.notify_all();
                    }
                }
                let guard = FailGuard(id);
                let graph = loader();
                let actual = (
                    csr_fingerprint(&graph),
                    graph.num_vertices() as u64,
                    graph.num_edges(),
                );
                assert_eq!(
                    actual, expected,
                    "lazy loader for external graph '{name}' produced different content \
                     (fingerprint, vertices, edges) than was registered"
                );
                std::mem::forget(guard);

                let graph = Arc::new(graph);
                let mut entries = lock_entries(reg);
                if let Some(e) = entries.get_mut(id as usize) {
                    e.state = GraphState::Loaded(Arc::clone(&graph));
                }
                reg.loaded.notify_all();
                return Some(graph);
            }
        }
    }
}

/// Releases the registry's strong pin on `id`'s graph, downgrading it to a weak
/// handle so the memory is returned once the last consumer drops its `Arc`.
///
/// Only meaningful for lazily-registered graphs, whose retained loader can
/// materialize the graph again on a later [`graph`] call; an eager [`register`]
/// entry keeps its pin (the registry *is* the owner there) and reports `false`.
/// Returns `true` when the entry no longer holds a strong reference. The campaign
/// graph store calls this on eviction, so finishing the last unit of an external
/// graph returns its memory mid-process instead of holding it until exit.
pub fn release(id: u32) -> bool {
    let mut entries = lock_entries(registry());
    let Some(entry) = entries.get_mut(id as usize) else {
        return false;
    };
    match &entry.state {
        GraphState::Loaded(g) if entry.loader.is_some() => {
            entry.state = GraphState::Cached(Arc::downgrade(g));
            true
        }
        GraphState::Cached(_) | GraphState::Unloaded => true,
        _ => false,
    }
}

/// Removes `name` from the registry: its id becomes a tombstone (ids are positional
/// and never shift), every accessor returns `None` for it, and the graph, loader and
/// metadata are dropped immediately — consumers still holding the `Arc` keep it alive
/// until they drop it. Re-registering the same name later allocates a fresh id.
/// Returns whether the name was registered.
pub fn deregister(name: &str) -> bool {
    let mut entries = lock_entries(registry());
    let Some(entry) = entries.iter_mut().find(|e| is_live(e) && e.name == name) else {
        return false;
    };
    entry.state = GraphState::Deregistered;
    entry.loader = None;
    true
}

/// The structural content hash of `id`'s registered graph, if any — computed once at
/// [`register`] time (or carried over from the sidecar for [`register_lazy`]). Two
/// registrations with equal fingerprints hold identical graphs (same counts, same
/// `(src, dst, weight)` sequence), which is what campaign plan hashing folds in so
/// stale shard files / journal entries computed over an edited external source are
/// refused without re-hashing — or even loading — the graph per invocation.
pub fn content_fingerprint(id: u32) -> Option<u64> {
    lock_entries(registry())
        .get(id as usize)
        .map(|e| e.fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        assert_eq!(lookup("ext-test-a"), Some(a));
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
        assert_eq!(lookup("ext-test-never-registered"), None);
        assert_eq!(name(u32::MAX), None);
        assert!(graph(u32::MAX).is_none());
        assert!(content_fingerprint(u32::MAX).is_none());
        assert!(vertices_edges(u32::MAX).is_none());
        assert!(is_loaded(u32::MAX).is_none());
    }

    #[test]
    fn lazy_registration_defers_the_load_until_first_graph_access() {
        let g = generate::uniform(300, 1200, 5);
        let fp = csr_fingerprint(&g);
        let loads = Arc::new(AtomicUsize::new(0));
        let loader = {
            let g = g.clone();
            let loads = Arc::clone(&loads);
            move || {
                loads.fetch_add(1, Ordering::SeqCst);
                g.clone()
            }
        };
        let ds = register_lazy(
            "ext-test-lazy",
            fp,
            g.num_vertices() as u64,
            g.num_edges(),
            loader,
        );
        let Dataset::External { id } = ds else {
            panic!("register_lazy returns an External dataset");
        };

        // Everything identity-shaped works without running the loader.
        assert_eq!(lookup("ext-test-lazy"), Some(ds));
        assert_eq!(name(id).as_deref(), Some("ext-test-lazy"));
        assert_eq!(content_fingerprint(id), Some(fp));
        assert_eq!(
            vertices_edges(id),
            Some((g.num_vertices() as u64, g.num_edges()))
        );
        assert_eq!(is_loaded(id), Some(false));
        assert_eq!(loads.load(Ordering::SeqCst), 0, "no access, no load");

        // First graph() call materializes; later calls share the Arc.
        assert_eq!(*graph(id).unwrap(), g);
        assert_eq!(is_loaded(id), Some(true));
        assert_eq!(*graph(id).unwrap(), g);
        assert_eq!(
            loads.load(Ordering::SeqCst),
            1,
            "the loader ran exactly once"
        );
    }

    #[test]
    fn lazy_loader_with_wrong_content_poisons_the_entry() {
        let real = generate::uniform(128, 400, 9);
        let other = generate::uniform(128, 400, 10);
        let ds = register_lazy(
            "ext-test-lazy-bad",
            csr_fingerprint(&real),
            real.num_vertices() as u64,
            real.num_edges(),
            move || other.clone(),
        );
        let Dataset::External { id } = ds else {
            panic!("register_lazy returns an External dataset");
        };
        let first = std::panic::catch_unwind(|| graph(id));
        assert!(first.is_err(), "fingerprint mismatch must panic");
        // The entry is poisoned: later accesses fail too instead of hanging.
        let second = std::panic::catch_unwind(|| graph(id));
        assert!(second.is_err(), "a failed load stays failed");
    }

    #[test]
    fn release_returns_memory_and_the_loader_reloads_on_demand() {
        let g = generate::uniform(256, 900, 21);
        let loads = Arc::new(AtomicUsize::new(0));
        let ds = {
            let g = g.clone();
            let loads = Arc::clone(&loads);
            register_lazy(
                "ext-test-release",
                csr_fingerprint(&g),
                g.num_vertices() as u64,
                g.num_edges(),
                move || {
                    loads.fetch_add(1, Ordering::SeqCst);
                    g.clone()
                },
            )
        };
        let Dataset::External { id } = ds else {
            panic!("register_lazy returns an External dataset");
        };

        // Releasing before any load is a no-op that still reports "no strong pin".
        assert!(release(id));
        assert_eq!(loads.load(Ordering::SeqCst), 0);

        let held = graph(id).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 1);
        assert_eq!(is_loaded(id), Some(true));

        // Release while a consumer still holds the Arc: the graph stays shared (no
        // reload for the next access) until that consumer drops it.
        assert!(release(id));
        assert_eq!(is_loaded(id), Some(true), "consumer still pins the graph");
        let again = graph(id).unwrap();
        assert!(Arc::ptr_eq(&held, &again), "weak upgrade shares the Arc");
        assert_eq!(loads.load(Ordering::SeqCst), 1, "no reload while held");
        drop(again);
        drop(held);

        // Last consumer gone: memory is back with the allocator, and the retained
        // loader materializes the graph again on demand.
        assert_eq!(is_loaded(id), Some(false));
        assert_eq!(*graph(id).unwrap(), g);
        assert_eq!(loads.load(Ordering::SeqCst), 2, "reload after full release");
        assert_eq!(is_loaded(id), Some(true), "reload re-pins the graph");
    }

    #[test]
    fn release_keeps_eager_registrations_pinned() {
        let g = generate::uniform(64, 200, 7);
        let Dataset::External { id } = register("ext-test-release-eager", g.clone()) else {
            panic!("register returns an External dataset");
        };
        assert!(!release(id), "no loader, nothing to reload from");
        assert_eq!(is_loaded(id), Some(true));
        assert_eq!(*graph(id).unwrap(), g);
        assert!(!release(u32::MAX), "unknown ids are a no-op");
    }

    #[test]
    fn deregister_tombstones_the_id_and_reregistration_gets_a_fresh_one() {
        let g1 = generate::uniform(90, 250, 3);
        let g2 = generate::uniform(110, 320, 4);
        let Dataset::External { id: old } = register("ext-test-dereg", g1.clone()) else {
            panic!("register returns an External dataset");
        };
        let held = graph(old).unwrap();
        let Dataset::External { id: other } = register("ext-test-dereg-other", g2.clone()) else {
            panic!("register returns an External dataset");
        };

        assert!(deregister("ext-test-dereg"));
        assert!(!deregister("ext-test-dereg"), "already gone");
        assert_eq!(lookup("ext-test-dereg"), None);
        assert_eq!(name(old), None);
        assert!(graph(old).is_none());
        assert_eq!(vertices_edges(old), None);
        assert_eq!(is_loaded(old), None);
        // Consumers holding the Arc keep it alive; ids of other entries never shift.
        assert_eq!(*held, g1);
        assert_eq!(name(other).as_deref(), Some("ext-test-dereg-other"));
        assert_eq!(*graph(other).unwrap(), g2);

        // Re-registering the name allocates a fresh id — the tombstone stays dead, so
        // stale Dataset::External values from before the deregistration can never
        // silently alias new content.
        let Dataset::External { id: new } = register("ext-test-dereg", g2.clone()) else {
            panic!("register returns an External dataset");
        };
        assert_ne!(new, old, "tombstoned ids are never reused");
        assert!(graph(old).is_none());
        assert_eq!(*graph(new).unwrap(), g2);
    }
}
