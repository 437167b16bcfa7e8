//! Sectored cache (Liptay-style), one of the alternatives Piccolo-cache is compared
//! against in Fig. 5/6/11.
//!
//! A sectored cache keeps one address tag per (64 B) line but validity/dirtiness per 8 B
//! sector, so it can fetch at sector granularity. Its weakness — the reason it loses to
//! Piccolo-cache — is that a *new tag* still allocates an entire line even if only one
//! sector will ever be used, wasting capacity on sparse random accesses (Section V-B).

use crate::divisor::Divisor;
use crate::stats::CacheStats;
use crate::traits::{MissAction, SectorCache};
use crate::ways;

const SECTOR_BYTES: u32 = 8;

/// Sectored cache: per-line tag, per-sector valid/dirty.
///
/// Line state is flat: per-line tags, LRU stamps and sector masks (bit `s` for sector
/// `s`), `ways` per set, and a per-set way mask of valid lines.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    line_bytes: Divisor,
    ways: u32,
    sets: Divisor,
    tags: Vec<u64>,
    lru: Vec<u64>,
    valid: Vec<u64>,
    sector_valid: Vec<u64>,
    sector_dirty: Vec<u64>,
    lru_clock: u64,
    stats: CacheStats,
}

impl SectoredCache {
    /// Creates a sectored cache with 64 B lines of 8 B sectors.
    pub fn new(capacity_bytes: u64, ways: u32) -> Self {
        Self::with_line_size(capacity_bytes, 64, ways)
    }

    /// Creates a sectored cache with an explicit line size (must be a multiple of 8).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a multiple of 8 between 8 and 512, or `ways` is 0 or
    /// above 64.
    pub fn with_line_size(capacity_bytes: u64, line_bytes: u32, ways: u32) -> Self {
        assert!(
            (8..=64 * SECTOR_BYTES).contains(&line_bytes) && line_bytes.is_multiple_of(8),
            "line must be a multiple of 8 B, at most 64 sectors"
        );
        assert!(
            ways > 0 && ways <= ways::MAX_WAYS,
            "ways must be between 1 and 64"
        );
        let sets = (capacity_bytes / (line_bytes as u64 * ways as u64)).max(1);
        let lines = (sets * ways as u64) as usize;
        Self {
            line_bytes: Divisor::new(line_bytes.into()),
            ways,
            sets: Divisor::new(sets),
            tags: vec![0; lines],
            lru: vec![0; lines],
            valid: vec![0; sets as usize],
            sector_valid: vec![0; lines],
            sector_dirty: vec![0; lines],
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Appends a write-back of every dirty sector of `line`, whose first byte is at
    /// `line_base_addr`.
    fn write_back_line(&mut self, line: usize, line_base_addr: u64, out: &mut Vec<MissAction>) {
        for sector in ways::bits(self.sector_valid[line] & self.sector_dirty[line]) {
            out.push(MissAction::Writeback {
                addr: line_base_addr + (sector as u64) * SECTOR_BYTES as u64,
                bytes: SECTOR_BYTES,
            });
            self.stats.writeback_bytes += SECTOR_BYTES as u64;
        }
    }
}

impl SectorCache for SectoredCache {
    fn access(&mut self, addr: u64, bytes: u32, write: bool, out: &mut Vec<MissAction>) -> bool {
        self.stats.accesses += 1;
        self.lru_clock += 1;
        let (line_addr, offset) = self.line_bytes.div_rem(addr);
        let (tag, set) = self.sets.div_rem(line_addr);
        let set = set as usize;
        let sector = offset / SECTOR_BYTES as u64;
        let sector_bit = 1u64 << sector;
        let dirty_bit = u64::from(write) << sector;
        let fill = MissAction::Fill {
            addr: addr & !(SECTOR_BYTES as u64 - 1),
            bytes: SECTOR_BYTES,
            useful: bytes.min(SECTOR_BYTES),
        };
        let first = set * self.ways as usize;
        let tags = &self.tags[first..first + self.ways as usize];

        // Tag match?
        let hits = ways::mask(tags.iter().map(|&t| t == tag)) & self.valid[set];
        if hits != 0 {
            let line = first + hits.trailing_zeros() as usize;
            self.lru[line] = self.lru_clock;
            if self.sector_valid[line] & sector_bit != 0 {
                self.sector_dirty[line] |= dirty_bit;
                self.stats.hits += 1;
                return true;
            }
            // Sector miss within a present line: fetch just the sector.
            self.stats.misses += 1;
            self.sector_valid[line] |= sector_bit;
            self.sector_dirty[line] = (self.sector_dirty[line] & !sector_bit) | dirty_bit;
            self.stats.fill_bytes += SECTOR_BYTES as u64;
            out.push(fill);
            return false;
        }

        // Line miss: allocate a whole line for this single sector (the sectored cache's
        // fundamental inefficiency).
        self.stats.misses += 1;
        let all = ways::all(self.ways);
        let lru = &self.lru[first..];
        let way = ways::victim(!self.valid[set] & all, all, |w| lru[w]);
        let line = first + way;
        if self.valid[set] & (1 << way) != 0 {
            let base = (self.tags[line] * self.sets.get() + set as u64) * self.line_bytes.get();
            self.write_back_line(line, base, out);
            self.stats.line_evictions += 1;
        }
        self.valid[set] |= 1 << way;
        self.tags[line] = tag;
        self.lru[line] = self.lru_clock;
        self.sector_valid[line] = sector_bit;
        self.sector_dirty[line] = dirty_bit;
        self.stats.fill_bytes += SECTOR_BYTES as u64;
        out.push(fill);
        false
    }

    fn flush(&mut self, out: &mut Vec<MissAction>) {
        for set in 0..self.sets.get() as usize {
            for way in ways::bits(self.valid[set]) {
                let line = set * self.ways as usize + way;
                let base = (self.tags[line] * self.sets.get() + set as u64) * self.line_bytes.get();
                self.write_back_line(line, base, out);
            }
        }
        self.valid.fill(0);
        self.sector_valid.fill(0);
        self.sector_dirty.fill(0);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "Sectored"
    }

    fn capacity_bytes(&self) -> u64 {
        self.sets.get() * self.ways as u64 * self.line_bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::access_once as access;

    #[test]
    fn sector_fills_are_fine_grained() {
        let mut c = SectoredCache::new(1024, 4);
        let (hit, actions) = access(&mut c, 0, false);
        assert!(!hit);
        assert!(matches!(actions[0], MissAction::Fill { bytes: 8, .. }));
        // A different sector of the same line: still a miss, but no line eviction.
        assert!(!access(&mut c, 8, false).0);
        assert_eq!(c.stats().line_evictions, 0);
        // Now both sectors hit.
        assert!(access(&mut c, 0, false).0);
        assert!(access(&mut c, 8, false).0);
    }

    #[test]
    fn new_tag_evicts_entire_line() {
        // 1 set, 1 way of 64 B: two different line tags collide.
        let mut c = SectoredCache::with_line_size(64, 64, 1);
        access(&mut c, 0, true);
        access(&mut c, 8, true);
        let (hit, actions) = access(&mut c, 64, false);
        assert!(!hit);
        // Both dirty sectors of the evicted line are written back.
        let wbs = actions.iter().filter(|a| !a.is_fill()).count();
        assert_eq!(wbs, 2);
        assert_eq!(c.stats().line_evictions, 1);
    }

    #[test]
    fn flush_invalidates_and_writes_back() {
        let mut c = SectoredCache::new(512, 2);
        access(&mut c, 16, true);
        let mut wb = Vec::new();
        c.flush(&mut wb);
        assert_eq!(wb.len(), 1);
        assert!(!access(&mut c, 16, false).0);
    }
}
