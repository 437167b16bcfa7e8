//! Collection-extended MSHR (Section V-C, Fig. 7).
//!
//! The collection-extended MSHR turns fine-grained cache misses into Piccolo-FIM
//! operations. It is indexed by DRAM row address; half of its entries collect read misses
//! (GA-MSHR — gathers) and half collect write-backs (SC-MSHR — scatters). When an entry
//! accumulates `items_per_op` column offsets (eight for DDR4), the corresponding
//! gather/scatter request is emitted. Entries evicted to make room emit a partially
//! filled operation. Reads that hit a pending scatter entry are served from the
//! write-back data without touching memory (the controller flow on the right of Fig. 7).
//!
//! Each half keeps its entries in a `Vec` in insertion order, which is the eviction and
//! drain order, and finds a row's entry through an open-addressing row index
//! (`RowIndex`). So a push costs one index probe, capacity eviction takes the first
//! live entry, and a drain emits entries as they lie. An emitted entry leaves an empty
//! slot behind; a drain clears them, and a half compacts itself once they outnumber its
//! live entries.

use crate::row_index::RowIndex;
use crate::stats::CacheStats;
use piccolo_dram::{MemRequest, Region, RowId};

/// Statistics specific to the collection-extended MSHR.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionMshrStats {
    /// Read misses pushed into GA-MSHR.
    pub read_pushes: u64,
    /// Write-backs pushed into SC-MSHR.
    pub write_pushes: u64,
    /// Reads served directly from pending write-back data (SC-MSHR hits).
    pub forwarded_from_writeback: u64,
    /// Reads merged into an existing pending gather (GA-MSHR subentry hits).
    pub merged_reads: u64,
    /// Full (8-offset) operations emitted.
    pub full_ops: u64,
    /// Partially filled operations emitted due to capacity eviction or draining.
    pub partial_ops: u64,
}

/// Whether an emitted memory operation should use the Piccolo-FIM path or the NMP
/// (buffer-chip) path. The MSHR logic is identical; only the request type differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterGatherKind {
    /// Emit [`MemRequest::GatherFim`] / [`MemRequest::ScatterFim`].
    Fim,
    /// Emit [`MemRequest::GatherNmp`] / [`MemRequest::ScatterNmp`].
    Nmp,
}

impl ScatterGatherKind {
    fn request(self, region: Region, row: RowId, offsets: Vec<u16>, scatter: bool) -> MemRequest {
        match (self, scatter) {
            (Self::Fim, false) => MemRequest::GatherFim {
                row,
                offsets,
                region,
            },
            (Self::Fim, true) => MemRequest::ScatterFim {
                row,
                offsets,
                region,
            },
            (Self::Nmp, false) => MemRequest::GatherNmp {
                row,
                offsets,
                region,
            },
            (Self::Nmp, true) => MemRequest::ScatterNmp {
                row,
                offsets,
                region,
            },
        }
    }
}

/// One half of the MSHR (GA or SC): its entries in insertion order and their row index.
#[derive(Debug, Clone, Default)]
struct Half {
    /// `(row, offsets)` entries, oldest first. A live entry holds at least one offset; an
    /// emitted one stays behind with none until the half is drained or compacted.
    entries: Vec<(RowId, Vec<u16>)>,
    /// Every entry before this one has been emitted.
    head: usize,
    /// The position in `entries` of each live entry's row.
    index: RowIndex,
}

impl Half {
    /// The number of live entries.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// The offsets pending for `row`, if it has an entry.
    fn offsets(&self, row: RowId) -> Option<&[u16]> {
        let at = self.index.get(row)?;
        Some(&self.entries[at as usize].1)
    }

    /// The position of `row`'s entry, which is appended as the newest (with no offsets
    /// yet) if the row has none.
    fn entry(&mut self, row: RowId) -> usize {
        // Emitted entries are dropped once they outnumber the live ones, so a half that
        // fills operations for long without a drain stays bounded.
        if self.entries.len() >= 2 * self.len() + 16 {
            self.compact();
        }
        let at = self.index.get_or_insert(row, self.entries.len() as u32) as usize;
        if at == self.entries.len() {
            self.entries.push((row, Vec::with_capacity(8)));
        }
        at
    }

    /// Emits the live entry at `at`, returning its offsets.
    fn take(&mut self, at: usize) -> Vec<u16> {
        let (row, offsets) = &mut self.entries[at];
        self.index.remove(*row);
        std::mem::take(offsets)
    }

    /// Emits the oldest live entry.
    fn pop_oldest(&mut self) -> Option<(RowId, Vec<u16>)> {
        while let Some((row, offsets)) = self.entries.get_mut(self.head) {
            self.head += 1;
            if !offsets.is_empty() {
                self.index.remove(*row);
                return Some((*row, std::mem::take(offsets)));
            }
        }
        None
    }

    /// Emits every live entry, oldest first, leaving the half empty.
    fn drain(&mut self) -> impl Iterator<Item = (RowId, Vec<u16>)> + '_ {
        self.index.clear();
        let head = std::mem::take(&mut self.head);
        self.entries
            .drain(..)
            .skip(head)
            .filter(|(_, offsets)| !offsets.is_empty())
    }

    /// Drops the emitted entries and re-indexes the live ones, keeping their order.
    fn compact(&mut self) {
        self.entries.retain(|(_, offsets)| !offsets.is_empty());
        self.head = 0;
        self.index.clear();
        for (at, &(row, _)) in self.entries.iter().enumerate() {
            self.index.get_or_insert(row, at as u32);
        }
    }
}

/// The collection-extended MSHR.
#[derive(Debug, Clone)]
pub struct CollectionMshr {
    kind: ScatterGatherKind,
    region: Region,
    items_per_op: u32,
    capacity_entries: usize,
    gather: Half,
    scatter: Half,
    stats: CollectionMshrStats,
}

impl CollectionMshr {
    /// Creates a collection-extended MSHR.
    ///
    /// `capacity_entries` is the total number of row entries (split evenly between the
    /// gather and scatter halves, following the 16-entry buffer of Fig. 7 scaled to the
    /// 4 K entries used in the evaluation). `items_per_op` is how many offsets trigger an
    /// operation (8 for DDR4).
    pub fn new(
        kind: ScatterGatherKind,
        region: Region,
        capacity_entries: usize,
        items_per_op: u32,
    ) -> Self {
        Self {
            kind,
            region,
            items_per_op: items_per_op.max(1),
            capacity_entries: capacity_entries.max(2),
            gather: Half::default(),
            scatter: Half::default(),
            stats: CollectionMshrStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &CollectionMshrStats {
        &self.stats
    }

    /// Number of row entries currently occupied (both halves).
    pub fn occupancy(&self) -> usize {
        self.gather.len() + self.scatter.len()
    }

    /// Evicts the oldest entry of the fuller half if the MSHR is over capacity, emitting a
    /// partially filled operation.
    fn evict_if_needed(&mut self, out: &mut Vec<MemRequest>) {
        while self.occupancy() > self.capacity_entries {
            let from_gather = self.gather.len() >= self.scatter.len();
            let half = if from_gather {
                &mut self.gather
            } else {
                &mut self.scatter
            };
            let Some((row, offsets)) = half.pop_oldest() else {
                break;
            };
            self.stats.partial_ops += 1;
            out.push(self.kind.request(self.region, row, offsets, !from_gather));
        }
    }

    /// Registers a read miss for `offset` (8-byte word index) in `row`, appending any
    /// memory requests that became ready (a full gather, or evictions) to `out`.
    pub fn push_read(&mut self, row: RowId, offset: u16, out: &mut Vec<MemRequest>) {
        self.stats.read_pushes += 1;

        // Controller flow (Fig. 7): a read whose column offset is pending in SC-MSHR is
        // served by the write-back data.
        if self
            .scatter
            .offsets(row)
            .is_some_and(|pending| pending.contains(&offset))
        {
            self.stats.forwarded_from_writeback += 1;
            return;
        }
        // A read already pending in GA-MSHR just adds a subentry.
        let at = self.gather.entry(row);
        let offsets = &mut self.gather.entries[at].1;
        if offsets.contains(&offset) {
            self.stats.merged_reads += 1;
            return;
        }
        offsets.push(offset);
        if offsets.len() >= self.items_per_op as usize {
            let offsets = self.gather.take(at);
            self.stats.full_ops += 1;
            out.push(self.kind.request(self.region, row, offsets, false));
        }
        self.evict_if_needed(out);
    }

    /// Registers a write-back of `offset` in `row`, appending any memory requests that
    /// became ready (a full scatter, or evictions) to `out`.
    pub fn push_write(&mut self, row: RowId, offset: u16, out: &mut Vec<MemRequest>) {
        self.stats.write_pushes += 1;

        let at = self.scatter.entry(row);
        let offsets = &mut self.scatter.entries[at].1;
        if !offsets.contains(&offset) {
            offsets.push(offset);
        }
        if offsets.len() >= self.items_per_op as usize {
            let offsets = self.scatter.take(at);
            self.stats.full_ops += 1;
            out.push(self.kind.request(self.region, row, offsets, true));
        }
        self.evict_if_needed(out);
    }

    /// Drains every pending entry (end of a tile/iteration), appending partially filled
    /// operations to `out`: the gathers, then the scatters, each oldest first.
    pub fn drain(&mut self, out: &mut Vec<MemRequest>) {
        for (half, is_scatter) in [(&mut self.gather, false), (&mut self.scatter, true)] {
            for (row, offsets) in half.drain() {
                self.stats.partial_ops += 1;
                out.push(self.kind.request(self.region, row, offsets, is_scatter));
            }
        }
    }

    /// Converts the MSHR statistics into generic cache statistics (for reporting).
    pub fn as_cache_stats(&self) -> CacheStats {
        CacheStats {
            accesses: self.stats.read_pushes + self.stats.write_pushes,
            hits: self.stats.forwarded_from_writeback + self.stats.merged_reads,
            misses: self.stats.read_pushes + self.stats.write_pushes
                - self.stats.forwarded_from_writeback
                - self.stats.merged_reads,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mshr(cap: usize) -> CollectionMshr {
        CollectionMshr::new(ScatterGatherKind::Fim, Region::PropertyRandom, cap, 8)
    }

    #[test]
    fn eight_reads_in_one_row_emit_one_gather() {
        let mut m = mshr(64);
        let row = RowId(7);
        let mut emitted = Vec::new();
        for off in 0..8u16 {
            m.push_read(row, off, &mut emitted);
        }
        assert_eq!(emitted.len(), 1);
        match &emitted[0] {
            MemRequest::GatherFim {
                row: r, offsets, ..
            } => {
                assert_eq!(*r, row);
                assert_eq!(offsets.len(), 8);
            }
            other => panic!("unexpected request {other:?}"),
        }
        assert_eq!(m.stats().full_ops, 1);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn duplicate_read_offsets_merge() {
        let mut m = mshr(64);
        let row = RowId(1);
        let mut out = Vec::new();
        m.push_read(row, 3, &mut out);
        m.push_read(row, 3, &mut out);
        assert!(out.is_empty());
        assert_eq!(m.stats().merged_reads, 1);
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn read_hitting_pending_writeback_is_forwarded() {
        let mut m = mshr(64);
        let row = RowId(2);
        let mut out = Vec::new();
        m.push_write(row, 5, &mut out);
        m.push_read(row, 5, &mut out);
        assert!(out.is_empty());
        assert_eq!(m.stats().forwarded_from_writeback, 1);
    }

    #[test]
    fn capacity_eviction_emits_partial_op() {
        let mut m = mshr(2);
        let mut out = Vec::new();
        m.push_read(RowId(1), 0, &mut out);
        m.push_read(RowId(2), 0, &mut out);
        m.push_read(RowId(3), 0, &mut out);
        assert_eq!(out.len(), 1, "third row evicts the oldest entry");
        assert_eq!(m.stats().partial_ops, 1);
        assert!(m.occupancy() <= 2);
    }

    #[test]
    fn drain_flushes_everything_in_insertion_order() {
        let mut m = mshr(64);
        let mut out = Vec::new();
        m.push_read(RowId(10), 1, &mut out);
        m.push_read(RowId(11), 2, &mut out);
        m.push_write(RowId(12), 3, &mut out);
        assert!(out.is_empty());
        m.drain(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(m.occupancy(), 0);
        assert!(matches!(
            out[0],
            MemRequest::GatherFim { row: RowId(10), .. }
        ));
        assert!(matches!(
            out[2],
            MemRequest::ScatterFim { row: RowId(12), .. }
        ));
    }

    #[test]
    fn nmp_kind_emits_nmp_requests() {
        let mut m = CollectionMshr::new(ScatterGatherKind::Nmp, Region::PropertyRandom, 16, 4);
        let mut out = Vec::new();
        for off in 0..4u16 {
            m.push_write(RowId(9), off, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], MemRequest::ScatterNmp { .. }));
        let cs = m.as_cache_stats();
        assert_eq!(cs.accesses, 4);
    }
}
