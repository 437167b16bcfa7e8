//! Physical-address to DRAM-coordinate mapping.
//!
//! The mapping interleaves consecutive bursts across channels, keeps a DRAM row contiguous
//! in the physical address space (so sequential streams stay in an open row), and spreads
//! higher address bits over banks, ranks and rows — the conventional
//! row:rank:bank:column:channel:offset layout used by graph accelerator studies.

use crate::config::DramConfig;

/// Fully decomposed DRAM coordinates of a byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Bank group of the bank (derived from the bank index).
    pub bank_group: u32,
    /// Row within the bank.
    pub row: u64,
    /// Byte offset within the row.
    pub row_offset: u64,
}

impl Location {
    /// Column offset of this address within its row, in 8-byte words — the unit the
    /// Piccolo offset buffer uses (16-bit offsets cover an 8 KiB row).
    pub fn word_offset(&self) -> u16 {
        (self.row_offset / 8) as u16
    }
}

/// A globally unique identifier of one DRAM row: `(channel, rank, bank, row)` packed into
/// a single integer so it can key hash maps cheaply.
///
/// The high half is the global bank index `(channel * ranks + rank) * banks + bank` and the
/// low half the row within that bank (see [`AddressMapper::row_id_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

impl RowId {
    /// The global bank index (the high half) and the row within the bank (the low half).
    pub(crate) fn bank_and_row(self) -> (usize, u64) {
        ((self.0 >> 32) as usize, self.0 & 0xFFFF_FFFF)
    }
}

/// Address mapper derived from a [`DramConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddressMapper {
    burst_bits: u32,
    channel_bits: u32,
    column_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
    channels: u32,
    ranks: u32,
    banks: u32,
    bank_groups: u32,
    row_bytes: u64,
}

fn bits_for(n: u64) -> u32 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

/// `v % n` for a `v` read from a `bits_for(n)`-bit field. Such a `v` is below `2n`, so one
/// conditional subtract is exact, also when `n` is not a power of two. (With `n` 0 or 1 the
/// field is empty and `v` is 0.)
fn field_mod(v: u64, n: u32) -> u32 {
    let n = u64::from(n);
    debug_assert!(v < 2 * n.max(1));
    (if v >= n { v - n } else { v }) as u32
}

impl AddressMapper {
    /// Builds the mapper for a configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        let org = &cfg.org;
        Self {
            burst_bits: bits_for(org.burst_bytes),
            channel_bits: bits_for(org.channels as u64),
            column_bits: bits_for(org.row_bytes / org.burst_bytes),
            bank_bits: bits_for(org.banks_per_rank as u64),
            rank_bits: bits_for(org.ranks_per_channel as u64),
            channels: org.channels,
            ranks: org.ranks_per_channel,
            banks: org.banks_per_rank,
            bank_groups: org.bank_groups,
            row_bytes: org.row_bytes,
        }
    }

    /// Decomposes a byte address into DRAM coordinates.
    pub fn decompose(&self, addr: u64) -> Location {
        let offset_in_burst = addr & ((1 << self.burst_bits) - 1);
        let mut a = addr >> self.burst_bits;
        let channel = field_mod(a & ((1 << self.channel_bits) - 1), self.channels);
        a >>= self.channel_bits;
        let column = a & ((1 << self.column_bits) - 1);
        a >>= self.column_bits;
        let bank = field_mod(a & ((1 << self.bank_bits) - 1), self.banks);
        a >>= self.bank_bits;
        let rank = field_mod(a & ((1 << self.rank_bits) - 1), self.ranks);
        a >>= self.rank_bits;
        let row = a;
        let bank_group = bank % self.bank_groups.max(1);
        let row_offset = column * (1 << self.burst_bits) + offset_in_burst;
        debug_assert!(row_offset < self.row_bytes);
        Location {
            channel,
            rank,
            bank,
            bank_group,
            row,
            row_offset,
        }
    }

    /// Returns the packed [`RowId`] of an address.
    pub fn row_id(&self, addr: u64) -> RowId {
        let loc = self.decompose(addr);
        self.row_id_of(&loc)
    }

    /// Packs a [`Location`]'s row coordinates.
    pub fn row_id_of(&self, loc: &Location) -> RowId {
        RowId(
            (((loc.channel as u64 * self.ranks as u64 + loc.rank as u64) * self.banks as u64
                + loc.bank as u64)
                << 32)
                | loc.row,
        )
    }

    /// Unpacks a [`RowId`] back into `(channel, rank, bank, row)`.
    pub fn unpack_row_id(&self, id: RowId) -> (u32, u32, u32, u64) {
        let row = id.0 & 0xFFFF_FFFF;
        let mut rest = id.0 >> 32;
        let bank = (rest % self.banks as u64) as u32;
        rest /= self.banks as u64;
        let rank = (rest % self.ranks as u64) as u32;
        rest /= self.ranks as u64;
        let channel = rest as u32;
        (channel, rank, bank, row)
    }

    /// Number of bytes a row holds (all addresses with the same [`RowId`]).
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DramConfig, MemoryKind};

    #[test]
    fn sequential_addresses_alternate_channels_then_stay_in_row() {
        let cfg = DramConfig::ddr4_2400_x16();
        let m = AddressMapper::new(&cfg);
        let a = m.decompose(0);
        let b = m.decompose(64);
        assert_ne!(
            a.channel, b.channel,
            "adjacent bursts interleave across channels"
        );
        let c = m.decompose(128);
        assert_eq!(a.channel, c.channel);
        assert_eq!(a.row, c.row);
        assert_eq!(a.bank, c.bank);
        assert_eq!(c.row_offset, 64);
    }

    #[test]
    fn row_id_roundtrip() {
        let cfg = DramConfig::ddr4_2400_x16();
        let m = AddressMapper::new(&cfg);
        for addr in [0u64, 64, 4096, 1 << 20, (1 << 30) + 8192] {
            let loc = m.decompose(addr);
            let id = m.row_id(addr);
            let (ch, ra, ba, ro) = m.unpack_row_id(id);
            assert_eq!((ch, ra, ba, ro), (loc.channel, loc.rank, loc.bank, loc.row));
        }
    }

    /// The conditional subtract equals `%` on every value of a `bits_for(n)`-bit field.
    #[test]
    fn field_mod_matches_the_remainder() {
        for n in 0..=65u32 {
            for v in 0..(1u64 << bits_for(u64::from(n))) {
                assert_eq!(
                    field_mod(v, n),
                    (v % u64::from(n.max(1))) as u32,
                    "{v} % {n}"
                );
            }
        }
    }

    /// With channel, rank and bank counts that are not powers of two, the high half of a
    /// row id is still the global bank index of the decomposed address, and its low half
    /// the row.
    #[test]
    fn row_id_high_half_is_the_global_bank_index() {
        let mut cfg = DramConfig::ddr4_2400_x16();
        cfg.org.channels = 3;
        cfg.org.ranks_per_channel = 3;
        cfg.org.banks_per_rank = 12;
        let m = AddressMapper::new(&cfg);
        for i in 0..4096u64 {
            let addr = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 30;
            let loc = m.decompose(addr);
            assert!(
                loc.channel < 3 && loc.rank < 3 && loc.bank < 12,
                "{addr:#x}"
            );
            let bank = (loc.channel * 3 + loc.rank) * 12 + loc.bank;
            assert_eq!(m.row_id(addr).bank_and_row(), (bank as usize, loc.row));
        }
    }

    #[test]
    fn same_row_addresses_share_row_id() {
        let cfg = DramConfig::ddr4_2400_x16();
        let m = AddressMapper::new(&cfg);
        // Two addresses within one row (offsets 0 and row_bytes/2 of the same row) map to
        // the same RowId; crossing the row boundary changes it.
        let base = 1u64 << 22;
        let l0 = m.decompose(base);
        let mut same = 0;
        let mut diff = 0;
        for w in 0..(cfg.org.row_bytes / 8) {
            let probe = base + w * 8;
            let l = m.decompose(probe);
            if m.row_id_of(&l) == m.row_id_of(&l0) {
                same += 1;
            } else {
                diff += 1;
            }
        }
        // All words that stay within the row share the id; channel interleaving means not
        // every consecutive word is in the same row, but a majority of one channel's are.
        assert!(same > 0);
        assert!(same + diff == cfg.org.row_bytes / 8);
    }

    #[test]
    fn word_offset_fits_16_bits() {
        let cfg = DramConfig::ddr4_2400_x16();
        let m = AddressMapper::new(&cfg);
        let loc = m.decompose(123456789);
        assert!(u64::from(loc.word_offset()) < cfg.org.row_bytes / 8);
    }

    #[test]
    fn bank_spread_is_reasonable_for_strided_accesses() {
        let cfg = DramConfig::new(MemoryKind::Ddr4X16, 1, 1);
        let m = AddressMapper::new(&cfg);
        let mut banks = std::collections::BTreeSet::new();
        for i in 0..64u64 {
            banks.insert(m.decompose(i * cfg.org.row_bytes).bank);
        }
        assert!(
            banks.len() >= 4,
            "row-granularity strides should hit several banks"
        );
    }
}
