//! The interface every on-chip vertex-cache model implements.
//!
//! Caches operate on fine-grained accesses (typically 8 B vertex properties). They do not
//! talk to DRAM directly: a miss produces [`MissAction`]s (fills and writebacks) that the
//! accelerator's memory path translates into conventional 64 B bursts, or — for Piccolo
//! and NMP — feeds into the collection-extended MSHR to become in-memory scatter/gather
//! operations. This split mirrors Fig. 7 of the paper and lets Fig. 11 evaluate every
//! cache design "on top of Piccolo-FIM".

use crate::stats::CacheStats;

/// What a cache needs from the memory system after an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissAction {
    /// Bring `bytes` at `addr` on chip; only `useful` of them were actually requested by
    /// the program (the rest is over-fetch, counted as "unuseful" in Fig. 3).
    Fill {
        /// Byte address of the fill (aligned to the fill granularity).
        addr: u64,
        /// Total bytes to fetch.
        bytes: u32,
        /// Bytes of the fetch the program asked for.
        useful: u32,
    },
    /// Write `bytes` of dirty data at `addr` back to memory.
    Writeback {
        /// Byte address of the writeback.
        addr: u64,
        /// Bytes to write back.
        bytes: u32,
    },
}

impl MissAction {
    /// Returns the address of the action.
    pub fn addr(&self) -> u64 {
        match self {
            MissAction::Fill { addr, .. } | MissAction::Writeback { addr, .. } => *addr,
        }
    }

    /// Returns `true` for fills.
    pub fn is_fill(&self) -> bool {
        matches!(self, MissAction::Fill { .. })
    }
}

/// Replacement policies evaluated for Piccolo-cache (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Least recently used.
    Lru,
    /// Re-reference interval prediction (2-bit RRPV).
    Rrip,
}

/// The interface shared by every cache model in this crate.
///
/// Memory actions go into a buffer the caller owns: [`SectorCache::access`] and
/// [`SectorCache::flush`] append to `out` and never clear it, so one buffer cleared
/// between calls serves a whole run without allocating per access.
///
/// `Send` is a supertrait: parallel design-space sweeps (`piccolo::sweep`) execute one
/// simulation per worker thread, so every cache model — including boxed trait objects
/// inside the accelerator's memory path — must be shippable to a worker. All models are
/// plain owned data, so this costs nothing; it exists to keep it that way.
pub trait SectorCache: Send {
    /// Accesses `bytes` bytes at `addr`; `write == true` marks the data dirty. Returns
    /// whether the data was already on chip. On a miss, appends the fill and any
    /// write-backs to `out`, in the order the memory path must perform them.
    fn access(&mut self, addr: u64, bytes: u32, write: bool, out: &mut Vec<MissAction>) -> bool;

    /// Appends a write-back of all dirty data to `out` and invalidates the cache (used
    /// between tiles or at the end of a run).
    fn flush(&mut self, out: &mut Vec<MissAction>);

    /// Informs the cache that a new tile begins, with `distinct_tags` distinct cache-line
    /// tags covering the tile's destination range (Piccolo-cache uses this for way
    /// partitioning; other designs ignore it).
    fn begin_tile(&mut self, distinct_tags: u32) {
        let _ = distinct_tags;
    }

    /// Accumulated statistics.
    fn stats(&self) -> &CacheStats;

    /// Human-readable design name (used in reports).
    fn name(&self) -> &'static str;

    /// Total data capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Bytes of address space covered by one line tag (relevant to way partitioning:
    /// a tile spanning `N x tag_coverage_bytes()` contains `N` distinct tags). Designs
    /// without a split tag return `u64::MAX` so a tile always maps to one "tag".
    fn tag_coverage_bytes(&self) -> u64 {
        u64::MAX
    }
}

/// One access with a fresh action buffer: the hit flag and the actions.
#[cfg(test)]
pub(crate) fn access_once(
    cache: &mut impl SectorCache,
    addr: u64,
    write: bool,
) -> (bool, Vec<MissAction>) {
    let mut out = Vec::new();
    let hit = cache.access(addr, 8, write, &mut out);
    (hit, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_action_accessors() {
        let f = MissAction::Fill {
            addr: 64,
            bytes: 64,
            useful: 8,
        };
        assert!(f.is_fill());
        assert_eq!(f.addr(), 64);
        let w = MissAction::Writeback { addr: 8, bytes: 8 };
        assert!(!w.is_fill());
        assert_eq!(w.addr(), 8);
    }
}
