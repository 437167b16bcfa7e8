//! On-chip cache models and miss-handling architecture for the Piccolo reproduction.
//!
//! This crate implements the on-chip half of Piccolo and of the designs it is compared
//! against in Fig. 11 of the paper:
//!
//! * [`SetAssocCache`] — the conventional 64 B cache, the ideal 8 B-line cache, and
//!   reduced-effective-capacity approximations of Amoeba/Scrabble/Graphfire,
//! * [`SectoredCache`] — the classic sectored design (one tag per line, per-sector valid),
//! * [`PiccoloCache`] — the paper's fg-tag cache with way partitioning (Section V),
//! * [`CollectionMshr`] — the collection-extended MSHR that turns 8 B misses into
//!   in-memory gather/scatter operations (Section V-C),
//! * [`area`] — the tag/metadata overhead model behind Fig. 5's percentages.
//!
//! # Example
//!
//! ```
//! use piccolo_cache::{PiccoloCache, SectorCache};
//!
//! let mut cache = PiccoloCache::with_capacity(64 * 1024);
//! // Misses append their fills and write-backs to a buffer the caller owns and reuses.
//! let mut actions = Vec::new();
//! assert!(!cache.access(0x1000, 8, false, &mut actions));
//! assert_eq!(actions.len(), 1, "one 8 B sector fill");
//! actions.clear();
//! assert!(cache.access(0x1000, 8, false, &mut actions));
//! assert!(actions.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod collection_mshr;
mod divisor;
pub mod piccolo;
mod row_index;
pub mod sectored;
pub mod setassoc;
pub mod stats;
pub mod traits;
mod ways;

pub use collection_mshr::{CollectionMshr, CollectionMshrStats, ScatterGatherKind};
pub use piccolo::{PiccoloCache, PiccoloCacheConfig};
pub use sectored::SectoredCache;
pub use setassoc::SetAssocCache;
pub use stats::CacheStats;
pub use traits::{MissAction, ReplacementPolicy, SectorCache};

#[cfg(test)]
mod send_audit {
    //! Parallel sweeps (`piccolo::sweep`) ship per-run simulation state — including the
    //! boxed cache models inside the accelerator's memory path — to worker threads.
    //! These assertions fail to compile if a cache model grows shared mutability
    //! (`Rc`, `RefCell`, raw pointers) instead of per-run ownership.
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn every_cache_model_is_send() {
        assert_send::<SetAssocCache>();
        assert_send::<SectoredCache>();
        assert_send::<PiccoloCache>();
        assert_send::<CollectionMshr>();
        assert_send::<CacheStats>();
        assert_send::<Box<dyn SectorCache>>();
    }
}
