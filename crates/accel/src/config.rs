//! Accelerator and system-level configuration.

use piccolo_dram::DramConfig;

/// The six systems compared in Fig. 10, plus the cache-design variants of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Graphicionado: scratchpad + perfect tiling, no active-vertex compaction in the
    /// prefetcher.
    Graphicionado,
    /// GraphDyns with a scratchpad (perfect tiling, active-vertex compaction).
    GraphDynsSpm,
    /// GraphDyns with a conventional 64 B cache (the paper's primary baseline).
    GraphDynsCache,
    /// Near-memory processing: rank-level scatter/gather in a buffer chip, with on-chip
    /// fine-grained cache support.
    Nmp,
    /// Processing-in-memory: Process/Reduce/Apply executed near-bank, no on-chip cache.
    Pim,
    /// Piccolo: Piccolo-cache + collection-extended MSHR + Piccolo-FIM.
    Piccolo,
}

impl SystemKind {
    /// All systems in the order Fig. 10 uses.
    pub const ALL: [SystemKind; 6] = [
        SystemKind::Graphicionado,
        SystemKind::GraphDynsSpm,
        SystemKind::GraphDynsCache,
        SystemKind::Nmp,
        SystemKind::Pim,
        SystemKind::Piccolo,
    ];

    /// Display name matching the figures.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Graphicionado => "Graphicionado",
            SystemKind::GraphDynsSpm => "GraphDyns (SPM)",
            SystemKind::GraphDynsCache => "GraphDyns (Cache)",
            SystemKind::Nmp => "NMP",
            SystemKind::Pim => "PIM",
            SystemKind::Piccolo => "Piccolo",
        }
    }

    /// Whether this system uses a scratchpad with perfect tiling.
    pub fn uses_scratchpad(&self) -> bool {
        matches!(self, SystemKind::Graphicionado | SystemKind::GraphDynsSpm)
    }
}

/// Fine-grained cache designs evaluated on top of Piccolo-FIM in Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// Conventional 64 B cache.
    Conventional,
    /// Sectored cache.
    Sectored,
    /// Amoeba-cache approximation.
    Amoeba,
    /// Scrabble-cache approximation.
    Scrabble,
    /// Graphfire approximation.
    Graphfire,
    /// Piccolo-cache with LRU replacement (the default).
    PiccoloLru,
    /// Piccolo-cache with RRIP replacement.
    PiccoloRrip,
    /// Ideal 8 B-line cache.
    Line8,
}

impl CacheKind {
    /// The designs in the order Fig. 11 uses.
    pub const FIG11: [CacheKind; 7] = [
        CacheKind::Sectored,
        CacheKind::Amoeba,
        CacheKind::Scrabble,
        CacheKind::Graphfire,
        CacheKind::PiccoloLru,
        CacheKind::PiccoloRrip,
        CacheKind::Line8,
    ];

    /// Display name matching Fig. 11.
    pub fn name(&self) -> &'static str {
        match self {
            CacheKind::Conventional => "Conventional",
            CacheKind::Sectored => "Sectored",
            CacheKind::Amoeba => "Amoeba",
            CacheKind::Scrabble => "Scrabble",
            CacheKind::Graphfire => "Graphfire",
            CacheKind::PiccoloLru => "Piccolo (LRU)",
            CacheKind::PiccoloRrip => "Piccolo (RRIP)",
            CacheKind::Line8 => "8B-Line",
        }
    }
}

/// Tile-width policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TilingPolicy {
    /// No tiling (a single tile spans all destinations).
    None,
    /// Perfect tiling: the destination slice of `Vtemp` fits in on-chip memory.
    Perfect,
    /// Perfect tiling scaled by a factor (the x-axis of Fig. 17).
    Scaled(u32),
    /// Search a small set of scaling factors and keep the fastest (the "exhaustive
    /// search" the paper grants every baseline).
    Best,
}

/// Accelerator front-end configuration (Section VII-A: 8 PEs x 8-way SIMD at 1 GHz,
/// 4 MiB cache or 4.5 MiB scratchpad, 4 K-entry collection-extended MSHR).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Number of processing elements.
    pub pes: u32,
    /// SIMD lanes per PE.
    pub simd_lanes: u32,
    /// Accelerator clock in GHz.
    pub clock_ghz: f64,
    /// On-chip vertex memory (cache or scratchpad) in bytes.
    pub onchip_bytes: u64,
    /// Collection-extended MSHR entries.
    pub mshr_entries: usize,
    /// Whether the topology/property prefetcher is enabled (Fig. 20b disables it).
    pub prefetch: bool,
}

impl AccelConfig {
    /// The paper's configuration at full scale (4 MiB on-chip memory).
    pub fn paper_scale() -> Self {
        Self {
            pes: 8,
            simd_lanes: 8,
            clock_ghz: 1.0,
            onchip_bytes: 4 << 20,
            mshr_entries: 4096,
            prefetch: true,
        }
    }

    /// A scaled-down configuration matching a graph that was shrunk by `2^scale_shift`
    /// relative to the paper's datasets: the on-chip memory and MSHR shrink by the same
    /// factor so the working-set-to-cache ratio is preserved (the dataset stand-ins of
    /// `piccolo_graph::datasets` are divided by `2^scale_shift` too).
    pub fn scaled(scale_shift: u32) -> Self {
        let full = Self::paper_scale();
        Self {
            onchip_bytes: (full.onchip_bytes >> scale_shift).max(8 << 10),
            // The collection-extended MSHR must cover roughly as many DRAM rows as the
            // largest tile spans, so it shrinks more slowly than the cache.
            mshr_entries: ((full.mshr_entries as u64 >> scale_shift) as usize).max(256),
            ..full
        }
    }

    /// Cycles the PE array needs to process `edges` edges and `vertices` apply
    /// operations.
    pub fn compute_cycles(&self, edges: u64, vertices: u64) -> u64 {
        let lanes = (self.pes * self.simd_lanes) as u64;
        edges.div_ceil(lanes) + vertices.div_ceil(lanes)
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self::scaled(8)
    }
}

/// Full simulation configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Which system to simulate.
    pub system: SystemKind,
    /// Which on-chip cache design to use for fine-grained systems (ignored by
    /// scratchpad/PIM systems).
    pub cache: CacheKind,
    /// Accelerator front-end parameters.
    pub accel: AccelConfig,
    /// Memory system parameters.
    pub dram: DramConfig,
    /// Tiling policy.
    pub tiling: TilingPolicy,
    /// Iteration cap (the paper uses up to 40).
    pub max_iterations: u32,
}

impl SimConfig {
    /// Configuration for a named system with sensible defaults at the given scale shift.
    ///
    /// Besides shrinking the on-chip structures, the DRAM row size is reduced (to 1 KiB)
    /// so that a tile's destination slice still spans many DRAM rows, as it does at the
    /// paper's full scale — otherwise in-memory gathers would be starved of bank-level
    /// parallelism purely as an artifact of the scaling.
    pub fn for_system(system: SystemKind, scale_shift: u32) -> Self {
        let row_bytes = if scale_shift >= 6 { 1024 } else { 8192 };
        let dram = match system {
            SystemKind::Piccolo | SystemKind::Nmp => DramConfig::ddr4_2400_x16()
                .with_fim()
                .with_row_bytes(row_bytes),
            _ => DramConfig::ddr4_2400_x16().with_row_bytes(row_bytes),
        };
        let accel = AccelConfig::scaled(scale_shift);
        // Scratchpad systems get the slightly larger on-chip memory the paper grants them
        // (4.5 MiB vs 4 MiB) and must use perfect tiling.
        let (accel, tiling) = match system {
            SystemKind::Graphicionado | SystemKind::GraphDynsSpm => (
                AccelConfig {
                    onchip_bytes: accel.onchip_bytes * 9 / 8,
                    ..accel
                },
                TilingPolicy::Perfect,
            ),
            SystemKind::GraphDynsCache => (
                AccelConfig {
                    onchip_bytes: accel.onchip_bytes * 9 / 8,
                    ..accel
                },
                TilingPolicy::Best,
            ),
            SystemKind::Pim => (accel, TilingPolicy::None),
            SystemKind::Nmp | SystemKind::Piccolo => (accel, TilingPolicy::Best),
        };
        let cache = match system {
            SystemKind::GraphDynsCache => CacheKind::Conventional,
            _ => CacheKind::PiccoloLru,
        };
        Self {
            system,
            cache,
            accel,
            dram,
            tiling,
            max_iterations: 40,
        }
    }

    /// Overrides the cache design (Fig. 11).
    pub fn with_cache(mut self, cache: CacheKind) -> Self {
        self.cache = cache;
        self
    }

    /// Overrides the DRAM configuration (Fig. 15/16/20a).
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }

    /// Overrides the tiling policy (Fig. 17).
    pub fn with_tiling(mut self, tiling: TilingPolicy) -> Self {
        self.tiling = tiling;
        self
    }

    /// Caps the number of iterations simulated.
    pub fn with_max_iterations(mut self, max: u32) -> Self {
        self.max_iterations = max;
        self
    }

    /// Disables the prefetcher (Fig. 20b).
    pub fn without_prefetch(mut self) -> Self {
        self.accel.prefetch = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_names_and_flags() {
        assert_eq!(SystemKind::ALL.len(), 6);
        assert!(SystemKind::Graphicionado.uses_scratchpad());
        assert!(!SystemKind::Piccolo.uses_scratchpad());
        assert_eq!(SystemKind::Piccolo.name(), "Piccolo");
        assert_eq!(CacheKind::FIG11.len(), 7);
    }

    #[test]
    fn scaled_config_shrinks_onchip_memory() {
        let full = AccelConfig::paper_scale();
        let scaled = AccelConfig::scaled(8);
        assert_eq!(scaled.onchip_bytes, full.onchip_bytes >> 8);
        assert!(AccelConfig::scaled(30).onchip_bytes >= 8 << 10);
    }

    #[test]
    fn compute_cycles_scale_with_work() {
        let a = AccelConfig::paper_scale();
        assert_eq!(a.compute_cycles(64, 0), 1);
        assert_eq!(a.compute_cycles(65, 0), 2);
        assert!(a.compute_cycles(1000, 1000) > a.compute_cycles(1000, 0));
    }

    #[test]
    fn for_system_picks_expected_memory_and_tiling() {
        let pic = SimConfig::for_system(SystemKind::Piccolo, 8);
        assert!(pic.dram.fim.enabled);
        assert_eq!(pic.cache, CacheKind::PiccoloLru);
        let base = SimConfig::for_system(SystemKind::GraphDynsCache, 8);
        assert!(!base.dram.fim.enabled);
        assert_eq!(base.cache, CacheKind::Conventional);
        let spm = SimConfig::for_system(SystemKind::Graphicionado, 8);
        assert_eq!(spm.tiling, TilingPolicy::Perfect);
        let pim = SimConfig::for_system(SystemKind::Pim, 8);
        assert_eq!(pim.tiling, TilingPolicy::None);
    }
}
