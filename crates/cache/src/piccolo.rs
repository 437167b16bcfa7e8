//! Piccolo-cache (Section V of the paper).
//!
//! Piccolo-cache stores 8 B sectors inside 128 B lines (16 sectors). Each line carries one
//! address *tag*; each sector additionally carries an 8-bit *fine-grained tag* (fg-tag),
//! so the sectors of one line may come from anywhere in a 32 KiB window (fg-tag 8 bits +
//! fg-offset 4 bits + byte offset 3 bits) that shares the line tag. This keeps the tag
//! overhead near a conventional cache (≈2 % line tags + 12.5 % fg-tags) while behaving
//! almost like the ideal 8 B-line cache.
//!
//! Address split (paper example: 48-bit addresses, 4 MiB, 8-way):
//!
//! ```text
//!  | tag | fg-tag | set index | fg-offset | byte offset |
//!  |  21 |      8 |        12 |         4 |           3 |
//! ```
//!
//! The same tag may occupy several ways of a set; lookups search the ways sequentially
//! (cheap, throughput-oriented). Replacement follows Section V-B: on an fg-tag miss the
//! victim is a *sector* of the LRU line with the same tag, unless the tag occupies fewer
//! ways than its way-partitioning allocation, in which case a whole line of another tag
//! is evicted to install a new line for this tag.

use crate::divisor::Divisor;
use crate::stats::CacheStats;
use crate::traits::{MissAction, ReplacementPolicy, SectorCache};
use crate::ways;

const SECTOR_BYTES: u64 = 8;

/// Geometry of a [`PiccoloCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PiccoloCacheConfig {
    /// Total data capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (16 sectors of 8 B by default).
    pub line_bytes: u32,
    /// Number of fg-tag bits (8 in the paper).
    pub fg_tag_bits: u32,
    /// Replacement policy among same-tag lines / victim lines.
    pub policy: ReplacementPolicy,
}

impl Default for PiccoloCacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 4 << 20,
            ways: 8,
            line_bytes: 128,
            fg_tag_bits: 8,
            policy: ReplacementPolicy::Lru,
        }
    }
}

/// The Piccolo-cache model.
///
/// Line state is flat. Per line, `ways` per set: the tag, the LRU stamp and the RRPV.
/// Per set: a way mask of valid lines. Per (set, sector) slot: way masks of valid and
/// dirty sectors, and the fg-tags of the slot's `ways` sectors side by side, so one
/// lookup reads one contiguous run of fg-tags.
#[derive(Debug, Clone)]
pub struct PiccoloCache {
    cfg: PiccoloCacheConfig,
    sets: Divisor,
    sectors_per_line: Divisor,
    tags: Vec<u64>,
    lru: Vec<u64>,
    /// 2-bit re-reference prediction values used by RRIP replacement.
    rrpv: Vec<u8>,
    valid: Vec<u64>,
    sector_valid: Vec<u64>,
    sector_dirty: Vec<u64>,
    /// Indexed `(set * sectors_per_line + sector) * ways + way`.
    fg_tags: Vec<u16>,
    lru_clock: u64,
    /// Ways each tag may occupy in a set (equal way partitioning over the tags of the
    /// current tile); `ways` when tiling information is absent.
    allocated_ways_per_tag: u32,
    stats: CacheStats,
}

impl PiccoloCache {
    /// Creates a Piccolo-cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero or more than 64 ways, line
    /// smaller than a sector).
    pub fn new(cfg: PiccoloCacheConfig) -> Self {
        assert!(
            cfg.ways > 0 && cfg.ways <= ways::MAX_WAYS,
            "ways must be between 1 and 64"
        );
        assert!(
            cfg.line_bytes as u64 >= SECTOR_BYTES && cfg.line_bytes.is_multiple_of(8),
            "line must be a multiple of 8 B"
        );
        let sets = (cfg.capacity_bytes / (cfg.line_bytes as u64 * cfg.ways as u64)).max(1);
        let sectors_per_line = cfg.line_bytes / SECTOR_BYTES as u32;
        let lines = (sets * cfg.ways as u64) as usize;
        let slots = (sets * sectors_per_line as u64) as usize;
        Self {
            cfg,
            sets: Divisor::new(sets),
            sectors_per_line: Divisor::new(sectors_per_line.into()),
            tags: vec![0; lines],
            lru: vec![0; lines],
            rrpv: vec![3; lines],
            valid: vec![0; sets as usize],
            sector_valid: vec![0; slots],
            sector_dirty: vec![0; slots],
            fg_tags: vec![0; lines * sectors_per_line as usize],
            lru_clock: 0,
            allocated_ways_per_tag: cfg.ways,
            stats: CacheStats::default(),
        }
    }

    /// Creates a Piccolo-cache with the given capacity, 8 ways, LRU, 128 B lines.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        Self::new(PiccoloCacheConfig {
            capacity_bytes,
            ..Default::default()
        })
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets.get()
    }

    /// Sectors per line, which is also the number of sector slots of one set.
    fn sectors(&self) -> usize {
        self.sectors_per_line.get() as usize
    }

    /// The address fields `(tag, fg_tag, set, fg_offset)` of an 8 B-aligned address.
    fn fields(&self, addr: u64) -> (u64, u16, u64, usize) {
        let (rest, fg_offset) = self.sectors_per_line.div_rem(addr / SECTOR_BYTES);
        let (rest, set) = self.sets.div_rem(rest);
        let fg_mask = (1u64 << self.cfg.fg_tag_bits) - 1;
        let fg_tag = (rest & fg_mask) as u16;
        let tag = rest >> self.cfg.fg_tag_bits;
        (tag, fg_tag, set, fg_offset as usize)
    }

    /// Reconstructs the byte address of a sector from its stored coordinates.
    fn sector_addr(&self, tag: u64, fg_tag: u16, set: u64, fg_offset: usize) -> u64 {
        let rest = (tag << self.cfg.fg_tag_bits) | fg_tag as u64;
        let word = (rest * self.sets.get() + set) * self.sectors_per_line.get() + fg_offset as u64;
        word * SECTOR_BYTES
    }

    fn touch(&mut self, line: usize) {
        self.lru_clock += 1;
        self.lru[line] = self.lru_clock;
        self.rrpv[line] = 0;
    }

    /// Replacement order: the smallest key is evicted first.
    fn victim_key(&self, line: usize) -> u64 {
        match self.cfg.policy {
            ReplacementPolicy::Lru => self.lru[line],
            // Higher RRPV = evict first; fall back to LRU order.
            ReplacementPolicy::Rrip => (u64::from(3 - self.rrpv[line]) << 60) | self.lru[line],
        }
    }

    /// Appends a write-back of sector `sector` of `way` in `set` when it holds dirty data.
    fn write_back_sector(
        &mut self,
        set: u64,
        sector: usize,
        way: usize,
        out: &mut Vec<MissAction>,
    ) {
        let ways = self.cfg.ways as usize;
        let slot = set as usize * self.sectors() + sector;
        if (self.sector_valid[slot] & self.sector_dirty[slot]) >> way & 1 != 0 {
            let tag = self.tags[set as usize * ways + way];
            let fg_tag = self.fg_tags[slot * ways + way];
            out.push(MissAction::Writeback {
                addr: self.sector_addr(tag, fg_tag, set, sector),
                bytes: SECTOR_BYTES as u32,
            });
            self.stats.writeback_bytes += SECTOR_BYTES;
        }
    }
}

impl SectorCache for PiccoloCache {
    fn access(&mut self, addr: u64, bytes: u32, write: bool, out: &mut Vec<MissAction>) -> bool {
        self.stats.accesses += 1;
        let (tag, fg_tag, set, fg_offset) = self.fields(addr);
        let set_index = set as usize;
        let ways = self.cfg.ways as usize;
        let first = set_index * ways;
        let slot = set_index * self.sectors() + fg_offset;
        let tags = &self.tags[first..first + ways];
        let fg_tags = &self.fg_tags[slot * ways..(slot + 1) * ways];

        // Every way is compared at once (Section V-A's sequential search, as a mask).
        let same_tag = ways::mask(tags.iter().map(|&t| t == tag)) & self.valid[set_index];
        let hits =
            same_tag & self.sector_valid[slot] & ways::mask(fg_tags.iter().map(|&f| f == fg_tag));
        if hits != 0 {
            let way = hits.trailing_zeros() as usize;
            self.touch(first + way);
            self.sector_dirty[slot] |= u64::from(write) << way;
            self.stats.hits += 1;
            return true;
        }

        self.stats.misses += 1;

        // Decide between installing a new line (way partitioning allows it) or replacing
        // a sector inside an existing same-tag line.
        let way = if same_tag.count_ones() < self.allocated_ways_per_tag {
            // An invalid way, else a whole line of another tag, chosen by LRU/RRIP. A tag
            // below its allocation leaves at least one such way.
            let all = ways::all(self.cfg.ways);
            let way = ways::victim(!self.valid[set_index] & all, all & !same_tag, |w| {
                self.victim_key(first + w)
            });
            let bit = 1u64 << way;
            if self.valid[set_index] & bit != 0 {
                // Whole-line eviction (write back every dirty sector).
                for sector in 0..self.sectors() {
                    self.write_back_sector(set, sector, way, out);
                    let s = set_index * self.sectors() + sector;
                    self.sector_valid[s] &= !bit;
                    self.sector_dirty[s] &= !bit;
                }
                self.stats.line_evictions += 1;
            }
            self.valid[set_index] |= bit;
            self.tags[first + way] = tag;
            way
        } else {
            // Sector replacement among the same-tag lines (Fig. 6 right): prefer a line
            // whose target sector slot is still invalid (no data lost), otherwise the
            // LRU/RRIP line, whose sector is evicted.
            let way = ways::victim(same_tag & !self.sector_valid[slot], same_tag, |w| {
                self.victim_key(first + w)
            });
            if self.sector_valid[slot] >> way & 1 != 0 {
                self.write_back_sector(set, fg_offset, way, out);
                self.stats.sector_evictions += 1;
            }
            way
        };

        // Install the new sector.
        let bit = 1u64 << way;
        self.sector_valid[slot] |= bit;
        self.sector_dirty[slot] = (self.sector_dirty[slot] & !bit) | (u64::from(write) << way);
        self.fg_tags[slot * ways + way] = fg_tag;
        self.touch(first + way);
        self.stats.fill_bytes += SECTOR_BYTES;
        out.push(MissAction::Fill {
            addr: addr & !(SECTOR_BYTES - 1),
            bytes: SECTOR_BYTES as u32,
            useful: bytes.min(SECTOR_BYTES as u32),
        });
        false
    }

    fn flush(&mut self, out: &mut Vec<MissAction>) {
        for set in 0..self.sets.get() {
            for way in ways::bits(self.valid[set as usize]) {
                for sector in 0..self.sectors() {
                    self.write_back_sector(set, sector, way, out);
                }
            }
        }
        self.valid.fill(0);
        self.sector_valid.fill(0);
        self.sector_dirty.fill(0);
    }

    fn begin_tile(&mut self, distinct_tags: u32) {
        // Equal way partitioning over the tags of the tile (Section V-B).
        self.allocated_ways_per_tag = (self.cfg.ways / distinct_tags.max(1)).max(1);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        match self.cfg.policy {
            ReplacementPolicy::Lru => "Piccolo (LRU)",
            ReplacementPolicy::Rrip => "Piccolo (RRIP)",
        }
    }

    fn capacity_bytes(&self) -> u64 {
        self.sets.get() * self.cfg.ways as u64 * self.cfg.line_bytes as u64
    }

    fn tag_coverage_bytes(&self) -> u64 {
        // Addresses sharing one line tag span fg-tag x set x fg-offset x 8 B
        // (32 KiB for the paper's 4 MiB geometry).
        (1u64 << self.cfg.fg_tag_bits)
            * self.sets.get()
            * self.sectors_per_line.get()
            * SECTOR_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::access_once as access;

    fn small() -> PiccoloCache {
        PiccoloCache::new(PiccoloCacheConfig {
            capacity_bytes: 4096,
            ways: 4,
            line_bytes: 128,
            fg_tag_bits: 8,
            policy: ReplacementPolicy::Lru,
        })
    }

    #[test]
    fn address_field_roundtrip() {
        let c = small();
        for addr in [0u64, 8, 4096, 123456 & !7, (1 << 30) + 8 * 77] {
            let (tag, fg, set, off) = c.fields(addr);
            assert_eq!(c.sector_addr(tag, fg, set, off), addr & !7);
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small();
        assert!(!access(&mut c, 64, false).0);
        assert!(access(&mut c, 64, false).0);
        assert!(access(&mut c, 64, true).0);
    }

    #[test]
    fn fills_are_sector_sized() {
        let mut c = small();
        let (_, actions) = access(&mut c, 1 << 20, false);
        assert!(matches!(
            actions.last().unwrap(),
            MissAction::Fill {
                bytes: 8,
                useful: 8,
                ..
            }
        ));
    }

    #[test]
    fn same_tag_different_fgtag_evicts_sector_not_line() {
        let mut c = small();
        // Two addresses with the same (tag, set, fg-offset) but different fg-tags: the
        // fg-tag stride is sets * sectors_per_line * 8 bytes.
        let stride = c.sets() * 16 * 8;
        access(&mut c, 0, true);
        c.begin_tile(4); // one way per tag -> forces sector replacement for same tag
                         // Fill the allowed way, then force an fg-tag conflict.
        let (hit, actions) = access(&mut c, stride, false);
        assert!(!hit);
        // Second access to the first address misses again (its sector was replaced) but
        // the line itself was reused, not evicted.
        assert_eq!(c.stats().line_evictions, 0);
        assert!(c.stats().sector_evictions >= 1);
        // The dirty evicted sector produced a writeback.
        assert!(actions
            .iter()
            .any(|a| matches!(a, MissAction::Writeback { addr: 0, bytes: 8 })));
    }

    #[test]
    fn different_tags_can_coexist_across_ways() {
        let mut c = small();
        c.begin_tile(2);
        // Two different tags map to the same set; with 4 ways and 2 tags each may hold 2.
        let tag_stride = c.sets() * 16 * 8 * 256; // beyond the fg-tag range -> new tag
        access(&mut c, 0, false);
        access(&mut c, tag_stride, false);
        assert!(access(&mut c, 0, false).0);
        assert!(access(&mut c, tag_stride, false).0);
    }

    #[test]
    fn way_partitioning_limits_ways_per_tag() {
        let mut c = small();
        c.begin_tile(4);
        assert_eq!(c.allocated_ways_per_tag, 1);
        c.begin_tile(1);
        assert_eq!(c.allocated_ways_per_tag, 4);
        c.begin_tile(100);
        assert_eq!(c.allocated_ways_per_tag, 1);
    }

    #[test]
    fn flush_writes_back_dirty_sectors() {
        let mut c = small();
        access(&mut c, 8, true);
        access(&mut c, 80, false);
        let mut wb = Vec::new();
        c.flush(&mut wb);
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].addr(), 8);
        assert!(!access(&mut c, 8, false).0);
    }

    #[test]
    fn rrip_variant_works() {
        let mut c = PiccoloCache::new(PiccoloCacheConfig {
            capacity_bytes: 2048,
            ways: 2,
            policy: ReplacementPolicy::Rrip,
            ..Default::default()
        });
        assert_eq!(c.name(), "Piccolo (RRIP)");
        for i in 0..64 {
            access(&mut c, i * 8, i % 2 == 0);
        }
        assert!(c.stats().accesses == 64);
    }

    #[test]
    fn behaves_like_8b_cache_for_dense_working_set_within_capacity() {
        // A dense working set smaller than capacity should be fully held after a warm-up
        // pass, like the ideal 8B-line cache.
        let mut c = PiccoloCache::with_capacity(64 * 1024);
        let words = 4096u64; // 32 KiB of 8 B words
        for i in 0..words {
            access(&mut c, i * 8, false);
        }
        let misses_before = c.stats().misses;
        for i in 0..words {
            access(&mut c, i * 8, false);
        }
        let misses_after = c.stats().misses;
        assert_eq!(misses_before, words, "first pass all cold misses");
        assert_eq!(misses_after, misses_before, "second pass must be all hits");
    }
}
