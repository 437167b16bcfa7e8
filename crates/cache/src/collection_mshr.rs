//! Collection-extended MSHR (Section V-C, Fig. 7).
//!
//! The collection-extended MSHR turns fine-grained cache misses into Piccolo-FIM
//! operations. It is indexed by DRAM row address; half of its entries collect read misses
//! (GA-MSHR — gathers) and half collect write-backs (SC-MSHR — scatters). When an entry
//! accumulates `items_per_op` column offsets (eight for DDR4), the corresponding
//! gather/scatter request is emitted. Entries evicted to make room emit a partially
//! filled operation. Reads that hit a pending scatter entry are served from the
//! write-back data without touching memory (the controller flow on the right of Fig. 7).

use crate::stats::CacheStats;
use piccolo_dram::{MemRequest, Region, RowId};
use std::collections::BTreeMap;

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

#[derive(Debug, Clone, Default)]
struct Entry {
    offsets: Vec<u16>,
    /// Insertion order used as an LRU proxy for capacity eviction.
    stamp: u64,
}

/// The collection-extended MSHR.
#[derive(Debug, Clone)]
pub struct CollectionMshr {
    kind: ScatterGatherKind,
    region: Region,
    items_per_op: u32,
    capacity_entries: usize,
    gather: BTreeMap<RowId, Entry>,
    scatter: BTreeMap<RowId, Entry>,
    clock: u64,
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
            gather: BTreeMap::new(),
            scatter: BTreeMap::new(),
            clock: 0,
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

    fn make_request(&self, row: RowId, offsets: Vec<u16>, is_scatter: bool) -> MemRequest {
        match (self.kind, is_scatter) {
            (ScatterGatherKind::Fim, false) => MemRequest::GatherFim {
                row,
                offsets,
                region: self.region,
            },
            (ScatterGatherKind::Fim, true) => MemRequest::ScatterFim {
                row,
                offsets,
                region: self.region,
            },
            (ScatterGatherKind::Nmp, false) => MemRequest::GatherNmp {
                row,
                offsets,
                region: self.region,
            },
            (ScatterGatherKind::Nmp, true) => MemRequest::ScatterNmp {
                row,
                offsets,
                region: self.region,
            },
        }
    }

    /// Evicts the oldest entry of the fuller half if the MSHR is over capacity, emitting a
    /// partially filled operation.
    fn evict_if_needed(&mut self, out: &mut Vec<MemRequest>) {
        while self.gather.len() + self.scatter.len() > self.capacity_entries {
            let from_gather = self.gather.len() >= self.scatter.len();
            let map = if from_gather {
                &mut self.gather
            } else {
                &mut self.scatter
            };
            if let Some((&row, _)) = map.iter().min_by_key(|(_, e)| e.stamp) {
                let entry = map.remove(&row).expect("entry exists");
                self.stats.partial_ops += 1;
                out.push(self.make_request(row, entry.offsets, !from_gather));
            } else {
                break;
            }
        }
    }

    /// Registers a read miss for `offset` (8-byte word index) in `row`, appending any
    /// memory requests that became ready (a full gather, or evictions) to `out`.
    pub fn push_read(&mut self, row: RowId, offset: u16, out: &mut Vec<MemRequest>) {
        self.clock += 1;
        self.stats.read_pushes += 1;

        // Controller flow (Fig. 7): a read whose column offset is pending in SC-MSHR is
        // served by the write-back data.
        if let Some(entry) = self.scatter.get(&row) {
            if entry.offsets.contains(&offset) {
                self.stats.forwarded_from_writeback += 1;
                return;
            }
        }
        // A read already pending in GA-MSHR just adds a subentry.
        if let Some(entry) = self.gather.get(&row) {
            if entry.offsets.contains(&offset) {
                self.stats.merged_reads += 1;
                return;
            }
        }

        let clock = self.clock;
        let entry = self.gather.entry(row).or_insert_with(|| Entry {
            offsets: Vec::with_capacity(8),
            stamp: clock,
        });
        entry.offsets.push(offset);
        if entry.offsets.len() >= self.items_per_op as usize {
            let entry = self.gather.remove(&row).expect("entry exists");
            self.stats.full_ops += 1;
            out.push(self.make_request(row, entry.offsets, false));
        }
        self.evict_if_needed(out);
    }

    /// Registers a write-back of `offset` in `row`, appending any memory requests that
    /// became ready (a full scatter, or evictions) to `out`.
    pub fn push_write(&mut self, row: RowId, offset: u16, out: &mut Vec<MemRequest>) {
        self.clock += 1;
        self.stats.write_pushes += 1;

        let clock = self.clock;
        let entry = self.scatter.entry(row).or_insert_with(|| Entry {
            offsets: Vec::with_capacity(8),
            stamp: clock,
        });
        if !entry.offsets.contains(&offset) {
            entry.offsets.push(offset);
        }
        if entry.offsets.len() >= self.items_per_op as usize {
            let entry = self.scatter.remove(&row).expect("entry exists");
            self.stats.full_ops += 1;
            out.push(self.make_request(row, entry.offsets, true));
        }
        self.evict_if_needed(out);
    }

    /// Drains every pending entry (end of a tile/iteration), appending partially filled
    /// operations to `out`.
    pub fn drain(&mut self, out: &mut Vec<MemRequest>) {
        let mut gathers: Vec<(RowId, Entry)> =
            std::mem::take(&mut self.gather).into_iter().collect();
        gathers.sort_by_key(|(_, e)| e.stamp);
        for (row, entry) in gathers {
            self.stats.partial_ops += 1;
            out.push(self.make_request(row, entry.offsets, false));
        }
        let mut scatters: Vec<(RowId, Entry)> =
            std::mem::take(&mut self.scatter).into_iter().collect();
        scatters.sort_by_key(|(_, e)| e.stamp);
        for (row, entry) in scatters {
            self.stats.partial_ops += 1;
            out.push(self.make_request(row, entry.offsets, true));
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
