//! The on-chip memory path: how random vertex-property accesses reach DRAM.
//!
//! Each evaluated system differs mainly in this path:
//!
//! * **Conventional** (GraphDyns Cache): a 64 B-line cache; misses become 64 B reads and
//!   dirty evictions 64 B writes.
//! * **Fine-grained** (Piccolo, NMP, and every Fig. 11 cache variant): an 8 B-granular
//!   cache; misses and write-backs are collected per DRAM row by the collection-extended
//!   MSHR and emitted as FIM (Piccolo) or rank-level (NMP) scatter/gather operations.
//! * **Scratchpad** (Graphicionado, GraphDyns SPM): the destination slice lives on chip;
//!   random accesses generate no off-chip traffic (the per-tile sequential load/drain is
//!   added by the engine).
//! * **PIM**: every random update is executed near-bank ([`MemRequest::PimUpdate`]).

use crate::config::{AccelConfig, CacheKind, SystemKind};
use piccolo_cache::{
    CacheStats, CollectionMshr, MissAction, PiccoloCache, PiccoloCacheConfig, ReplacementPolicy,
    ScatterGatherKind, SectorCache, SectoredCache, SetAssocCache,
};
use piccolo_dram::{AddressMapper, DramConfig, MemRequest, Region};

/// Builds the cache model for a [`CacheKind`].
pub fn build_cache(kind: CacheKind, capacity_bytes: u64) -> Box<dyn SectorCache> {
    let ways = 8;
    match kind {
        CacheKind::Conventional => Box::new(SetAssocCache::conventional(capacity_bytes, ways)),
        CacheKind::Sectored => Box::new(SectoredCache::new(capacity_bytes, ways)),
        CacheKind::Amoeba => Box::new(SetAssocCache::amoeba(capacity_bytes, ways)),
        CacheKind::Scrabble => Box::new(SetAssocCache::scrabble(capacity_bytes, ways)),
        CacheKind::Graphfire => Box::new(SetAssocCache::graphfire(capacity_bytes, ways)),
        CacheKind::PiccoloLru => Box::new(PiccoloCache::new(PiccoloCacheConfig {
            capacity_bytes,
            ways,
            policy: ReplacementPolicy::Lru,
            ..Default::default()
        })),
        CacheKind::PiccoloRrip => Box::new(PiccoloCache::new(PiccoloCacheConfig {
            capacity_bytes,
            ways,
            policy: ReplacementPolicy::Rrip,
            ..Default::default()
        })),
        CacheKind::Line8 => Box::new(SetAssocCache::line8(capacity_bytes, ways)),
    }
}

/// The memory path of one simulated system.
pub enum MemoryPath {
    /// Conventional cache in front of plain 64 B reads/writes.
    Conventional {
        /// The vertex cache.
        cache: Box<dyn SectorCache>,
        /// The cache's actions for the current access, cleared and reused on every
        /// access so the path never allocates per access.
        misses: Vec<MissAction>,
    },
    /// Fine-grained cache in front of the collection-extended MSHR.
    FineGrain {
        /// The vertex cache.
        cache: Box<dyn SectorCache>,
        /// The collection-extended MSHR.
        mshr: CollectionMshr,
        /// The cache's actions for the current access, cleared and reused on every
        /// access so the path never allocates per access.
        misses: Vec<MissAction>,
    },
    /// On-chip scratchpad holding the whole destination tile.
    Scratchpad {
        /// Random accesses absorbed by the scratchpad (statistics only).
        stats: CacheStats,
    },
    /// Near-bank processing: updates run in memory.
    Pim {
        /// Statistics (every access is a "miss" that goes to memory).
        stats: CacheStats,
        /// Updates accumulated since the last operand/command burst was charged: the host
        /// must ship the source contribution and target address of every update to the
        /// in-memory units, which costs one 64 B burst per eight updates.
        pending_operands: u32,
    },
}

impl std::fmt::Debug for MemoryPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryPath::Conventional { cache, .. } => {
                write!(f, "Conventional({})", cache.name())
            }
            MemoryPath::FineGrain { cache, .. } => write!(f, "FineGrain({})", cache.name()),
            MemoryPath::Scratchpad { .. } => write!(f, "Scratchpad"),
            MemoryPath::Pim { .. } => write!(f, "Pim"),
        }
    }
}

impl MemoryPath {
    /// Builds the memory path for a system.
    pub fn new(
        system: SystemKind,
        cache_kind: CacheKind,
        accel: &AccelConfig,
        dram: &DramConfig,
    ) -> Self {
        match system {
            SystemKind::Graphicionado | SystemKind::GraphDynsSpm => MemoryPath::Scratchpad {
                stats: CacheStats::default(),
            },
            SystemKind::Pim => MemoryPath::Pim {
                stats: CacheStats::default(),
                pending_operands: 0,
            },
            SystemKind::GraphDynsCache => MemoryPath::Conventional {
                cache: build_cache(CacheKind::Conventional, accel.onchip_bytes),
                misses: Vec::new(),
            },
            SystemKind::Nmp | SystemKind::Piccolo => {
                let kind = if system == SystemKind::Nmp {
                    ScatterGatherKind::Nmp
                } else {
                    ScatterGatherKind::Fim
                };
                MemoryPath::FineGrain {
                    cache: build_cache(cache_kind, accel.onchip_bytes),
                    mshr: CollectionMshr::new(
                        kind,
                        Region::PropertyRandom,
                        accel.mshr_entries,
                        dram.fim.items_per_op,
                    ),
                    misses: Vec::new(),
                }
            }
        }
    }

    /// Performs one random property access (8 B read-modify-write when `write` is true),
    /// appending any resulting memory requests to `out`.
    pub fn random_access(
        &mut self,
        addr: u64,
        write: bool,
        mapper: &AddressMapper,
        out: &mut Vec<MemRequest>,
    ) {
        match self {
            MemoryPath::Conventional { cache, misses } => {
                misses.clear();
                cache.access(addr, 8, write, misses);
                for &action in misses.iter() {
                    match action {
                        MissAction::Fill {
                            addr,
                            bytes,
                            useful,
                        } => out.push(MemRequest::Read {
                            addr,
                            useful_bytes: useful.min(bytes),
                            region: Region::PropertyRandom,
                        }),
                        MissAction::Writeback { addr, bytes } => out.push(MemRequest::Write {
                            addr,
                            useful_bytes: bytes,
                            region: Region::PropertyRandom,
                        }),
                    }
                }
            }
            MemoryPath::FineGrain {
                cache,
                mshr,
                misses,
            } => {
                misses.clear();
                cache.access(addr, 8, write, misses);
                for &action in misses.iter() {
                    let loc = mapper.decompose(action.addr());
                    let row = mapper.row_id_of(&loc);
                    if action.is_fill() {
                        mshr.push_read(row, loc.word_offset(), out);
                    } else {
                        mshr.push_write(row, loc.word_offset(), out);
                    }
                }
            }
            MemoryPath::Scratchpad { stats } => {
                stats.accesses += 1;
                stats.hits += 1;
            }
            MemoryPath::Pim {
                stats,
                pending_operands,
            } => {
                stats.accesses += 1;
                stats.misses += 1;
                out.push(MemRequest::PimUpdate {
                    addr,
                    region: Region::PropertyRandom,
                });
                // Operand shipping: one 64 B command/data burst per eight updates.
                *pending_operands += 1;
                if *pending_operands == 8 {
                    *pending_operands = 0;
                    out.push(MemRequest::Write {
                        addr: addr & !63,
                        useful_bytes: 64,
                        region: Region::Other,
                    });
                }
            }
        }
    }

    /// Signals the start of a tile whose destination slice spans `tile_bytes` of `Vtemp`
    /// (used by Piccolo-cache way partitioning).
    pub fn begin_tile(&mut self, tile_bytes: u64) {
        if let MemoryPath::FineGrain { cache, .. } | MemoryPath::Conventional { cache, .. } = self {
            let coverage = cache.tag_coverage_bytes();
            let distinct = if coverage == u64::MAX {
                1
            } else {
                tile_bytes.div_ceil(coverage).max(1)
            };
            cache.begin_tile(distinct.min(u32::MAX as u64) as u32);
        }
    }

    /// Signals the end of a tile: drains pending collected operations.
    pub fn end_tile(&mut self, out: &mut Vec<MemRequest>) {
        if let MemoryPath::FineGrain { mshr, .. } = self {
            mshr.drain(out);
        }
    }

    /// Flushes everything at the end of the run (dirty data must reach memory).
    pub fn finish(&mut self, mapper: &AddressMapper, out: &mut Vec<MemRequest>) {
        match self {
            MemoryPath::Conventional { cache, misses } => {
                misses.clear();
                cache.flush(misses);
                for &action in misses.iter() {
                    if let MissAction::Writeback { addr, bytes } = action {
                        out.push(MemRequest::Write {
                            addr,
                            useful_bytes: bytes,
                            region: Region::PropertyRandom,
                        });
                    }
                }
            }
            MemoryPath::FineGrain {
                cache,
                mshr,
                misses,
            } => {
                misses.clear();
                cache.flush(misses);
                for &action in misses.iter() {
                    if let MissAction::Writeback { addr, .. } = action {
                        let loc = mapper.decompose(addr);
                        mshr.push_write(mapper.row_id_of(&loc), loc.word_offset(), out);
                    }
                }
                mshr.drain(out);
            }
            MemoryPath::Scratchpad { .. } | MemoryPath::Pim { .. } => {}
        }
    }

    /// Cache statistics of the path.
    pub fn cache_stats(&self) -> CacheStats {
        match self {
            MemoryPath::Conventional { cache, .. } | MemoryPath::FineGrain { cache, .. } => {
                *cache.stats()
            }
            MemoryPath::Scratchpad { stats } | MemoryPath::Pim { stats, .. } => *stats,
        }
    }

    /// Whether random accesses are absorbed on chip (scratchpad systems).
    pub fn is_scratchpad(&self) -> bool {
        matches!(self, MemoryPath::Scratchpad { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_dram::DramConfig;

    fn mapper() -> AddressMapper {
        AddressMapper::new(&DramConfig::ddr4_2400_x16())
    }

    #[test]
    fn conventional_path_emits_64b_reads() {
        let accel = AccelConfig::scaled(8);
        let dram = DramConfig::ddr4_2400_x16();
        let mut p = MemoryPath::new(
            SystemKind::GraphDynsCache,
            CacheKind::Conventional,
            &accel,
            &dram,
        );
        let mut out = Vec::new();
        p.random_access(0x1_0008, true, &mapper(), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            MemRequest::Read {
                useful_bytes: 8,
                ..
            }
        ));
        out.clear();
        p.random_access(0x1_0008, true, &mapper(), &mut out);
        assert!(out.is_empty(), "second access hits");
    }

    #[test]
    fn piccolo_path_collects_gathers() {
        let accel = AccelConfig::scaled(8);
        let dram = DramConfig::ddr4_2400_x16().with_fim();
        let m = mapper();
        let mut p = MemoryPath::new(SystemKind::Piccolo, CacheKind::PiccoloLru, &accel, &dram);
        let mut out = Vec::new();
        // Eight cold misses within one DRAM row (same 8 KiB row, different words).
        for i in 0..8u64 {
            p.random_access(i * 8, false, &m, &mut out);
        }
        assert_eq!(
            out.len(),
            1,
            "eight same-row misses collapse into one gather"
        );
        assert!(matches!(out[0], MemRequest::GatherFim { .. }));
        // Draining with nothing pending emits nothing further.
        out.clear();
        p.end_tile(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn nmp_path_emits_nmp_requests_and_pim_emits_updates() {
        let accel = AccelConfig::scaled(8);
        let dram = DramConfig::ddr4_2400_x16().with_fim();
        let m = mapper();
        let mut nmp = MemoryPath::new(SystemKind::Nmp, CacheKind::PiccoloLru, &accel, &dram);
        let mut out = Vec::new();
        nmp.random_access(64, false, &m, &mut out);
        nmp.end_tile(&mut out);
        assert!(matches!(out.last(), Some(MemRequest::GatherNmp { .. })));

        let mut pim = MemoryPath::new(SystemKind::Pim, CacheKind::PiccoloLru, &accel, &dram);
        out.clear();
        pim.random_access(64, true, &m, &mut out);
        assert!(matches!(out[0], MemRequest::PimUpdate { .. }));
    }

    #[test]
    fn scratchpad_path_absorbs_accesses() {
        let accel = AccelConfig::scaled(8);
        let dram = DramConfig::ddr4_2400_x16();
        let m = mapper();
        let mut spm = MemoryPath::new(
            SystemKind::Graphicionado,
            CacheKind::PiccoloLru,
            &accel,
            &dram,
        );
        let mut out = Vec::new();
        for i in 0..100u64 {
            spm.random_access(i * 8, true, &m, &mut out);
        }
        assert!(out.is_empty());
        assert!(spm.is_scratchpad());
        assert_eq!(spm.cache_stats().hits, 100);
    }

    #[test]
    fn finish_writes_back_dirty_data() {
        let accel = AccelConfig::scaled(8);
        let dram = DramConfig::ddr4_2400_x16().with_fim();
        let m = mapper();
        let mut p = MemoryPath::new(SystemKind::Piccolo, CacheKind::PiccoloLru, &accel, &dram);
        let mut out = Vec::new();
        p.random_access(128, true, &m, &mut out);
        out.clear();
        p.finish(&m, &mut out);
        assert!(
            out.iter()
                .any(|r| matches!(r, MemRequest::ScatterFim { .. })),
            "dirty sector must be scattered back on finish"
        );
    }
}
