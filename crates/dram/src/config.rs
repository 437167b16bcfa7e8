//! Memory-system configuration: device kinds, organization and timing parameters.
//!
//! The paper evaluates Piccolo on DDR4 x4/x8/x16 (default: four-rank DDR4-2400R x16),
//! LPDDR4, GDDR5 and HBM (Fig. 15), with channel/rank sweeps (Fig. 16). Timing values are
//! expressed in memory-controller clock cycles (`nCK`), mirroring how Ramulator and the
//! DDR4 specification state them.

/// The memory device families evaluated in Fig. 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// DDR4-2400 with x4 devices (16 chips per rank).
    Ddr4X4,
    /// DDR4-2400 with x8 devices (8 chips per rank).
    Ddr4X8,
    /// DDR4-2400 with x16 devices (4 chips per rank) — the paper's default.
    Ddr4X16,
    /// LPDDR4 (32 B effective burst granularity).
    Lpddr4,
    /// GDDR5 (32 B effective burst granularity).
    Gddr5,
    /// HBM (many narrow channels, 32 B burst granularity).
    Hbm,
}

impl MemoryKind {
    /// All kinds, in the order Fig. 15 uses.
    pub const ALL: [MemoryKind; 6] = [
        MemoryKind::Ddr4X4,
        MemoryKind::Ddr4X8,
        MemoryKind::Ddr4X16,
        MemoryKind::Lpddr4,
        MemoryKind::Gddr5,
        MemoryKind::Hbm,
    ];

    /// Display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            MemoryKind::Ddr4X4 => "DDR4x4",
            MemoryKind::Ddr4X8 => "DDR4x8",
            MemoryKind::Ddr4X16 => "DDR4x16",
            MemoryKind::Lpddr4 => "LPDDR4",
            MemoryKind::Gddr5 => "GDDR5",
            MemoryKind::Hbm => "HBM",
        }
    }
}

/// DRAM timing parameters in memory-clock cycles (`nCK`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// ACT to internal RD/WR delay.
    pub t_rcd: u64,
    /// PRE to ACT delay.
    pub t_rp: u64,
    /// ACT to PRE minimum.
    pub t_ras: u64,
    /// ACT to ACT (same bank) minimum.
    pub t_rc: u64,
    /// CAS latency (RD command to first data).
    pub t_cl: u64,
    /// CAS write latency (WR command to first data).
    pub t_cwl: u64,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: u64,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: u64,
    /// Data burst duration on the bus.
    pub t_burst: u64,
    /// Write recovery (end of write data to PRE).
    pub t_wr: u64,
    /// Read to PRE delay.
    pub t_rtp: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// ACT to ACT, different bank same rank.
    pub t_rrd: u64,
    /// Average refresh interval.
    pub t_refi: u64,
    /// Refresh cycle time.
    pub t_rfc: u64,
}

/// Physical organization of the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Organization {
    /// Number of independent channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// DRAM chips ganged into one rank (64-bit data path / device width).
    pub chips_per_rank: u32,
    /// Banks visible per rank (all chips operate in lockstep).
    pub banks_per_rank: u32,
    /// Bank groups per rank (tCCD_L applies within a group).
    pub bank_groups: u32,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Row (page) size in bytes at rank level (per-chip page × chips).
    pub row_bytes: u64,
    /// Bytes transferred by one burst on the channel.
    pub burst_bytes: u64,
    /// Device (chip) data width in bits.
    pub device_width_bits: u32,
}

impl Organization {
    /// Total banks across the whole memory system.
    pub fn total_banks(&self) -> u64 {
        self.channels as u64 * self.ranks_per_channel as u64 * self.banks_per_rank as u64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_banks() * self.rows_per_bank * self.row_bytes
    }
}

/// Piccolo-FIM configuration (Section IV/VI and the enhanced designs of Fig. 20a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FimConfig {
    /// Whether the memory devices implement the Piccolo-FIM offset/data buffers.
    pub enabled: bool,
    /// Bits per column offset written to the offset buffer (16 by default; 11 in the
    /// "enhanced" design for narrow devices, Section VIII-B).
    pub offset_bits: u32,
    /// Number of 8 B items collected per FIM operation (8 for 64 B-burst DDR4; 4 for
    /// 32 B-burst LPDDR/GDDR/HBM unless the enhanced long-burst mode is enabled).
    pub items_per_op: u32,
    /// Enhanced design: allow a longer burst so 32 B-burst devices still move 8 items per
    /// operation (Fig. 20a, HBM case).
    pub long_burst: bool,
}

impl FimConfig {
    /// FIM disabled (conventional memory).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            offset_bits: 16,
            items_per_op: 8,
            long_burst: false,
        }
    }

    /// Number of offset-buffer write bursts needed for one FIM operation: the offsets are
    /// duplicated across all chips of the rank (Section IV-B).
    pub fn offset_bursts(&self, org: &Organization) -> u64 {
        let bits = self.offset_bits as u64 * self.items_per_op as u64 * org.chips_per_rank as u64;
        bits.div_ceil(org.burst_bytes * 8).max(1)
    }

    /// Number of data bursts per FIM operation (1 unless `items_per_op * 8` bytes exceeds
    /// the burst size, e.g. long-burst mode keeps it at 1 by widening the burst).
    pub fn data_bursts(&self, org: &Organization) -> u64 {
        if self.long_burst {
            1
        } else {
            (self.items_per_op as u64 * 8)
                .div_ceil(org.burst_bytes)
                .max(1)
        }
    }
}

/// Complete memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Device family.
    pub kind: MemoryKind,
    /// Timing parameters.
    pub timing: Timing,
    /// Physical organization.
    pub org: Organization,
    /// Memory-controller clock in GHz (command-rate clock; data rate is 2x).
    pub clock_ghz: f64,
    /// Piccolo-FIM settings.
    pub fim: FimConfig,
    /// FR-FCFS scheduling window: how many outstanding requests of a batch, across all
    /// channels, the scheduler considers at once (one window for the whole system, not one
    /// per channel). Values below 1 act as 1.
    pub queue_depth: usize,
}

impl DramConfig {
    /// The paper's default system: four-rank DDR4-2400R x16, two channels.
    pub fn ddr4_2400_x16() -> Self {
        Self::new(MemoryKind::Ddr4X16, 2, 4)
    }

    /// Builds a configuration for `kind` with the requested channel/rank counts
    /// (Fig. 15/16 sweeps).
    pub fn new(kind: MemoryKind, channels: u32, ranks_per_channel: u32) -> Self {
        let (timing, org, clock_ghz) = match kind {
            MemoryKind::Ddr4X4 => (
                Self::ddr4_timing(),
                Organization {
                    channels,
                    ranks_per_channel,
                    chips_per_rank: 16,
                    banks_per_rank: 16,
                    bank_groups: 4,
                    rows_per_bank: 1 << 17,
                    row_bytes: 8192,
                    burst_bytes: 64,
                    device_width_bits: 4,
                },
                1.2,
            ),
            MemoryKind::Ddr4X8 => (
                Self::ddr4_timing(),
                Organization {
                    channels,
                    ranks_per_channel,
                    chips_per_rank: 8,
                    banks_per_rank: 16,
                    bank_groups: 4,
                    rows_per_bank: 1 << 16,
                    row_bytes: 8192,
                    burst_bytes: 64,
                    device_width_bits: 8,
                },
                1.2,
            ),
            MemoryKind::Ddr4X16 => (
                Self::ddr4_timing(),
                Organization {
                    channels,
                    ranks_per_channel,
                    chips_per_rank: 4,
                    banks_per_rank: 8,
                    bank_groups: 2,
                    rows_per_bank: 1 << 16,
                    row_bytes: 8192,
                    burst_bytes: 64,
                    device_width_bits: 16,
                },
                1.2,
            ),
            MemoryKind::Lpddr4 => (
                Timing {
                    t_rcd: 29,
                    t_rp: 34,
                    t_ras: 68,
                    t_rc: 102,
                    t_cl: 28,
                    t_cwl: 14,
                    t_ccd_l: 8,
                    t_ccd_s: 8,
                    t_burst: 8,
                    t_wr: 34,
                    t_rtp: 12,
                    t_faw: 64,
                    t_rrd: 8,
                    t_refi: 12480,
                    t_rfc: 448,
                },
                Organization {
                    channels,
                    ranks_per_channel,
                    chips_per_rank: 2,
                    banks_per_rank: 8,
                    bank_groups: 1,
                    rows_per_bank: 1 << 16,
                    row_bytes: 4096,
                    burst_bytes: 32,
                    device_width_bits: 16,
                },
                1.6,
            ),
            MemoryKind::Gddr5 => (
                Timing {
                    t_rcd: 18,
                    t_rp: 18,
                    t_ras: 42,
                    t_rc: 60,
                    t_cl: 18,
                    t_cwl: 6,
                    t_ccd_l: 3,
                    t_ccd_s: 2,
                    t_burst: 2,
                    t_wr: 18,
                    t_rtp: 4,
                    t_faw: 28,
                    t_rrd: 7,
                    t_refi: 4680,
                    t_rfc: 260,
                },
                Organization {
                    channels,
                    ranks_per_channel,
                    chips_per_rank: 2,
                    banks_per_rank: 16,
                    bank_groups: 4,
                    rows_per_bank: 1 << 15,
                    row_bytes: 4096,
                    burst_bytes: 32,
                    device_width_bits: 32,
                },
                1.5,
            ),
            MemoryKind::Hbm => (
                Timing {
                    t_rcd: 14,
                    t_rp: 14,
                    t_ras: 34,
                    t_rc: 48,
                    t_cl: 14,
                    t_cwl: 2,
                    t_ccd_l: 4,
                    t_ccd_s: 2,
                    t_burst: 2,
                    t_wr: 16,
                    t_rtp: 4,
                    t_faw: 30,
                    t_rrd: 4,
                    t_refi: 3900,
                    t_rfc: 350,
                },
                Organization {
                    // HBM exposes many narrow channels; we model 4x the requested channel
                    // count at 128-bit width via 32 B bursts.
                    channels: channels * 4,
                    ranks_per_channel,
                    chips_per_rank: 1,
                    banks_per_rank: 16,
                    bank_groups: 4,
                    rows_per_bank: 1 << 14,
                    row_bytes: 2048,
                    burst_bytes: 32,
                    device_width_bits: 128,
                },
                1.0,
            ),
        };
        let fim = FimConfig {
            enabled: false,
            offset_bits: 16,
            items_per_op: if org.burst_bytes >= 64 { 8 } else { 4 },
            long_burst: false,
        };
        Self {
            kind,
            timing,
            org,
            clock_ghz,
            fim,
            queue_depth: 32,
        }
    }

    fn ddr4_timing() -> Timing {
        // DDR4-2400R (JESD79-4) nominal values in nCK at 1200 MHz.
        Timing {
            t_rcd: 16,
            t_rp: 16,
            t_ras: 39,
            t_rc: 55,
            t_cl: 16,
            t_cwl: 12,
            t_ccd_l: 6,
            t_ccd_s: 4,
            t_burst: 4,
            t_wr: 18,
            t_rtp: 9,
            t_faw: 26,
            t_rrd: 6,
            t_refi: 9360,
            t_rfc: 420,
        }
    }

    /// Enables Piccolo-FIM on this configuration.
    pub fn with_fim(mut self) -> Self {
        self.fim.enabled = true;
        self
    }

    /// Shrinks the per-bank row (page) size, keeping capacity by adding rows. Scaled-down
    /// experiments use this so that the ratio of a tile's working set to the DRAM row size
    /// matches the paper's full-scale setup: with the paper's 4 MiB
    /// cache a tile spans thousands of rows, so in-bank gathers enjoy full bank-level
    /// parallelism; a scaled cache needs proportionally smaller rows to stay in the same
    /// regime.
    pub fn with_row_bytes(mut self, row_bytes: u64) -> Self {
        assert!(row_bytes >= 128 && row_bytes.is_power_of_two());
        let factor = self.org.row_bytes / row_bytes.min(self.org.row_bytes);
        self.org.rows_per_bank *= factor.max(1);
        self.org.row_bytes = row_bytes.min(self.org.row_bytes);
        self
    }

    /// Enables the "enhanced" FIM design of Fig. 20a: short offsets for narrow devices,
    /// long bursts for 32 B-burst devices.
    pub fn with_enhanced_fim(mut self) -> Self {
        self.fim.enabled = true;
        self.fim.offset_bits = 11;
        if self.org.burst_bytes < 64 {
            self.fim.long_burst = true;
            self.fim.items_per_op = 8;
        }
        self
    }

    /// Duration of one memory-controller clock in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Peak off-chip bandwidth in GB/s across all channels (double data rate).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        let bytes_per_clock = self.org.burst_bytes as f64 / self.timing.t_burst as f64;
        bytes_per_clock * self.clock_ghz * self.org.channels as f64
    }

    /// The time window created by the virtual-row trick (`tWR + tRP + tRCD`, Section VI)
    /// in memory clocks.
    pub fn fim_gap_clocks(&self) -> u64 {
        self.timing.t_wr + self.timing.t_rp + self.timing.t_rcd
    }

    /// Internal time needed by the in-bank gather/scatter (`items_per_op x tCCD_L`).
    pub fn fim_internal_clocks(&self) -> u64 {
        self.fim.items_per_op as u64 * self.timing.t_ccd_l
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_2400_x16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_configuration() {
        let c = DramConfig::default();
        assert_eq!(c.kind, MemoryKind::Ddr4X16);
        assert_eq!(c.org.ranks_per_channel, 4);
        assert_eq!(c.org.burst_bytes, 64);
        assert!(!c.fim.enabled);
        assert!(c.with_fim().fim.enabled);
    }

    #[test]
    fn fim_gap_exceeds_internal_time_for_ddr4() {
        // Section VI: 8 x tCCD_L (48 nCK = 40 ns) fits within tWR + tRP + tRCD (50 nCK).
        let c = DramConfig::ddr4_2400_x16().with_fim();
        assert!(c.fim_gap_clocks() >= c.fim_internal_clocks());
    }

    #[test]
    fn offset_bursts_grow_with_narrow_devices() {
        // Section IV-B: x16 needs one offset burst, x8 two, x4 four.
        let x16 = DramConfig::new(MemoryKind::Ddr4X16, 1, 1).with_fim();
        let x8 = DramConfig::new(MemoryKind::Ddr4X8, 1, 1).with_fim();
        let x4 = DramConfig::new(MemoryKind::Ddr4X4, 1, 1).with_fim();
        assert_eq!(x16.fim.offset_bursts(&x16.org), 1);
        assert_eq!(x8.fim.offset_bursts(&x8.org), 2);
        assert_eq!(x4.fim.offset_bursts(&x4.org), 4);
    }

    #[test]
    fn enhanced_design_reduces_offset_bursts_on_x4() {
        let x4 = DramConfig::new(MemoryKind::Ddr4X4, 1, 1).with_fim();
        let x4e = DramConfig::new(MemoryKind::Ddr4X4, 1, 1).with_enhanced_fim();
        assert!(x4e.fim.offset_bursts(&x4e.org) < x4.fim.offset_bursts(&x4.org));
    }

    #[test]
    fn enhanced_design_enables_long_burst_on_hbm() {
        let hbm = DramConfig::new(MemoryKind::Hbm, 1, 1).with_fim();
        assert_eq!(hbm.fim.items_per_op, 4);
        let hbme = DramConfig::new(MemoryKind::Hbm, 1, 1).with_enhanced_fim();
        assert_eq!(hbme.fim.items_per_op, 8);
        assert_eq!(hbme.fim.data_bursts(&hbme.org), 1);
    }

    #[test]
    fn peak_bandwidth_is_sane() {
        let c = DramConfig::ddr4_2400_x16();
        // 2 channels x 19.2 GB/s.
        assert!((c.peak_bandwidth_gbps() - 38.4).abs() < 0.1);
        let hbm = DramConfig::new(MemoryKind::Hbm, 2, 1);
        assert!(hbm.peak_bandwidth_gbps() > c.peak_bandwidth_gbps());
    }

    #[test]
    fn capacity_and_bank_counts() {
        let c = DramConfig::ddr4_2400_x16();
        assert_eq!(c.org.total_banks(), 2 * 4 * 8);
        assert!(c.org.capacity_bytes() > 1 << 30);
    }
}
