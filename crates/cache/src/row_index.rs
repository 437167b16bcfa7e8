//! The collection MSHR's row index: an open-addressing map from a DRAM row to a `u32`.
//!
//! Slots live in one power-of-two `Vec` that is kept at most half full. A row's home slot
//! comes from Fibonacci hashing (a multiply by 2^64 / φ, then the top bits), which spreads
//! both halves of a [`RowId`] (bank and row within the bank); collisions probe linearly.
//! Removal shifts the rest of the probe chain back instead of leaving a tombstone, so
//! lookups never slow down as entries come and go.

use piccolo_dram::RowId;

/// The value of a free slot.
const FREE: u32 = u32::MAX;

/// A map from [`RowId`] to `u32` (any value but `u32::MAX`).
#[derive(Debug, Clone, Default)]
pub(crate) struct RowIndex {
    /// `(row, value)` pairs; a slot whose value is [`FREE`] holds no row. The length is
    /// zero or a power of two.
    slots: Vec<(RowId, u32)>,
    /// `64 - log2(slots.len())`: the shift that turns a hash into a home slot.
    shift: u32,
    len: usize,
}

impl RowIndex {
    const MIN_SLOTS: usize = 16;

    /// The number of rows in the map.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn home(&self, row: RowId) -> usize {
        (row.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The slot that holds `row`, or else the free slot that ends its probe chain. The
    /// table must have slots.
    fn probe(&self, row: RowId) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(row);
        loop {
            let (r, v) = self.slots[i];
            if v == FREE || r == row {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value of `row`, if present.
    pub(crate) fn get(&self, row: RowId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let v = self.slots[self.probe(row)].1;
        (v != FREE).then_some(v)
    }

    /// The value of `row`; if absent, `value` is inserted and returned.
    pub(crate) fn get_or_insert(&mut self, row: RowId, value: u32) -> u32 {
        debug_assert_ne!(value, FREE, "u32::MAX marks a free slot");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.probe(row);
        if self.slots[i].1 == FREE {
            self.slots[i] = (row, value);
            self.len += 1;
        }
        self.slots[i].1
    }

    /// Removes `row`, returning its value if it was present.
    pub(crate) fn remove(&mut self, row: RowId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut hole = self.probe(row);
        let value = self.slots[hole].1;
        if value == FREE {
            return None;
        }
        // Backward-shift deletion: walk the rest of the chain and move back into the hole
        // every entry whose home is not cyclically in `(hole, j]`, so each stays reachable
        // from its home without passing a free slot.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (r, v) = self.slots[j];
            if v == FREE {
                break;
            }
            if (j.wrapping_sub(self.home(r)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = (r, v);
                hole = j;
            }
        }
        self.slots[hole].1 = FREE;
        self.len -= 1;
        Some(value)
    }

    /// Removes every row, keeping the slots for reuse.
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill((RowId(0), FREE));
            self.len = 0;
        }
    }

    /// Doubles the slots (or allocates the first ones) and reinserts every row.
    fn grow(&mut self) {
        let n = (2 * self.slots.len()).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(RowId(0), FREE); n]);
        self.shift = 64 - n.trailing_zeros();
        for (row, value) in old {
            if value != FREE {
                let i = self.probe(row);
                self.slots[i] = (row, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_graph::rng::Rng64;
    use std::collections::BTreeMap;

    /// Checks every reference entry is found and the map holds nothing else.
    fn assert_same(index: &RowIndex, reference: &BTreeMap<RowId, u32>, keys: u64, step: usize) {
        assert_eq!(index.len(), reference.len(), "step {step}");
        for k in 0..keys {
            let row = RowId((k << 20) | k);
            assert_eq!(
                index.get(row),
                reference.get(&row).copied(),
                "step {step}, {row:?}"
            );
        }
    }

    /// A seeded stream of inserts, lookups and removals over a small key space, so probe
    /// chains form and removals land in their middle, agrees with a `BTreeMap` at every
    /// step: through table growth, and through reuse after `clear` (what a drain does).
    #[test]
    fn matches_a_btreemap_reference() {
        let mut rng = Rng64::seed_from_u64(0x0e1d);
        let mut index = RowIndex::default();
        let mut reference = BTreeMap::new();
        let (mut shifted, mut grown) = (0, 0);
        for round in 0..6 {
            // Each round lets the map grow to a different size before it is cleared.
            let keys = 8 << round;
            for step in 0..4000usize {
                let row = RowId({
                    let k = rng.gen_u64_below(keys);
                    (k << 20) | k
                });
                let slots = index.slots.len();
                match rng.gen_u64_below(3) {
                    0 => {
                        let value = rng.gen_u32_below(1 << 20);
                        let want = *reference.entry(row).or_insert(value);
                        assert_eq!(index.get_or_insert(row, value), want, "step {step}");
                    }
                    1 => {
                        // A removal that moves a later entry back proves it sat mid-chain.
                        let before = index.slots.clone();
                        assert_eq!(index.remove(row), reference.remove(&row), "step {step}");
                        let moved = before
                            .iter()
                            .zip(&index.slots)
                            .filter(|(a, b)| a != b)
                            .count();
                        shifted += usize::from(moved > 1);
                    }
                    _ => assert_eq!(index.get(row), reference.get(&row).copied()),
                }
                grown += usize::from(index.slots.len() > slots);
                assert!(2 * index.len() <= index.slots.len());
                if step % 97 == 0 {
                    assert_same(&index, &reference, keys, step);
                }
            }
            assert_same(&index, &reference, keys, 4000);
            index.clear();
            reference.clear();
            assert_same(&index, &reference, keys, 0);
        }
        assert!(
            shifted > 100,
            "only {shifted} removals shifted a chain back"
        );
        assert!(grown >= 5, "the table grew only {grown} times");
    }

    /// Three rows with one home slot form a chain; removing its middle row keeps the last
    /// one reachable, and removing the first moves the rest back.
    #[test]
    fn removal_in_the_middle_of_a_chain_keeps_the_rest_reachable() {
        let mut index = RowIndex::default();
        index.get_or_insert(RowId(0), 0);
        let home = index.home(RowId(0));
        let same: Vec<RowId> = (1..)
            .map(RowId)
            .filter(|&r| index.home(r) == home)
            .take(3)
            .collect();
        for (v, &row) in same.iter().enumerate() {
            index.get_or_insert(row, v as u32 + 1);
        }
        assert_eq!(index.remove(same[1]), Some(2));
        assert_eq!(index.get(same[1]), None);
        assert_eq!(index.get(same[2]), Some(3));
        assert_eq!(index.remove(RowId(0)), Some(0));
        assert_eq!(index.slots[home], (same[0], 1), "the chain moved back");
        assert_eq!((index.get(same[0]), index.get(same[2])), (Some(1), Some(3)));
        assert_eq!(index.remove(RowId(0)), None);
        assert_eq!(index.len(), 2);
    }
}
