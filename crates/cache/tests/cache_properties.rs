//! Property-style tests on the cache models: inclusion/consistency invariants that must
//! hold for any access sequence, and the relative behaviour the paper relies on
//! (Piccolo-cache ≈ 8 B-line cache; sectored cache wastes capacity under sparse access).
//!
//! No crates.io access in the build container, so instead of `proptest` these run seeded
//! random cases through [`piccolo_graph::rng::Rng64`]; a failing seed is printed in the
//! assertion message.
//!
//! The golden tests at the end pin the exact output (hit flags, every fill and
//! write-back in order, flushes, statistics) of every cache design and of the
//! collection-extended MSHR on one seeded stream each, so a layout or speed change to a
//! model cannot move a simulated byte unnoticed.

use piccolo_cache::{
    CollectionMshr, MissAction, PiccoloCache, PiccoloCacheConfig, ReplacementPolicy,
    ScatterGatherKind, SectorCache, SectoredCache, SetAssocCache,
};
use piccolo_dram::{MemRequest, Region, RowId};
use piccolo_graph::rng::Rng64;
use piccolo_obs::hash::Fnv64;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 32;

/// A simple oracle that tracks, per 8-byte word, the last written value origin so we can
/// verify write-back completeness: every dirty word must either still be in the cache or
/// have been written back exactly as many times as it was evicted dirty.
fn check_writeback_conservation<C: SectorCache>(mut cache: C, ops: &[(u64, bool)]) {
    check_writeback_conservation_inner(&mut cache, ops, true);
}

/// `strict_spurious` is false for coarse-grained caches, whose 64 B line write-backs
/// legitimately carry words that were never written (they travel with a dirty line).
fn check_writeback_conservation_inner<C: SectorCache>(
    cache: &mut C,
    ops: &[(u64, bool)],
    strict_spurious: bool,
) {
    let mut dirty_words: BTreeMap<u64, bool> = BTreeMap::new();
    let mut actions = Vec::new();
    for &(addr, write) in ops {
        let addr = addr & !7;
        cache.access(addr, 8, write, &mut actions);
        if write {
            dirty_words.insert(addr, true);
        }
    }
    cache.flush(&mut actions);
    let mut writebacks: Vec<u64> = Vec::new();
    for a in &actions {
        if let MissAction::Writeback { addr, bytes } = *a {
            assert_eq!(bytes % 8, 0);
            for w in 0..(bytes as u64 / 8) {
                writebacks.push(addr + w * 8);
            }
        }
    }
    // Every word that was ever written must appear among the write-backs at least once
    // (it cannot be silently dropped), and no word that was never written may be written
    // back.
    let written: BTreeSet<u64> = dirty_words.keys().copied().collect();
    if strict_spurious {
        for wb in &writebacks {
            assert!(
                written.contains(wb),
                "write-back of a never-written word {wb:#x}"
            );
        }
    }
    for w in &written {
        assert!(
            writebacks.contains(w),
            "dirty word {w:#x} was neither resident at flush nor written back"
        );
    }
}

/// Random access trace: 1..400 (address, is_write) pairs below `max_addr`.
fn random_ops(rng: &mut Rng64, max_addr: u64) -> Vec<(u64, bool)> {
    let len = 1 + rng.gen_index(399);
    (0..len)
        .map(|_| (rng.gen_u64_below(max_addr), rng.gen_bool(0.5)))
        .collect()
}

/// Dirty data is never lost by any cache design.
#[test]
fn writeback_conservation_conventional() {
    for seed in 0..CASES {
        let ops = random_ops(&mut Rng64::seed_from_u64(seed), 1 << 16);
        // 64 B line write-backs carry neighbouring never-written words, so only the
        // "no dirty data lost" direction is checked for the conventional cache.
        check_writeback_conservation_inner(&mut SetAssocCache::conventional(4096, 4), &ops, false);
    }
}

#[test]
fn writeback_conservation_line8() {
    for seed in 0..CASES {
        let ops = random_ops(&mut Rng64::seed_from_u64(seed), 1 << 16);
        check_writeback_conservation(SetAssocCache::line8(2048, 4), &ops);
    }
}

#[test]
fn writeback_conservation_sectored() {
    for seed in 0..CASES {
        let ops = random_ops(&mut Rng64::seed_from_u64(seed), 1 << 16);
        check_writeback_conservation(SectoredCache::new(4096, 4), &ops);
    }
}

/// Piccolo-cache runs each trace without tiling information and after `begin_tile(2)`
/// and `begin_tile(8)`: with 8 ways, the last leaves one way per tag, so most misses
/// replace a sector inside a same-tag line instead of installing a line.
fn check_piccolo_writeback_conservation(policy: ReplacementPolicy) {
    for seed in 0..CASES {
        let ops = random_ops(&mut Rng64::seed_from_u64(seed), 1 << 16);
        for tags in [None, Some(2), Some(8)] {
            let mut cache = PiccoloCache::new(PiccoloCacheConfig {
                capacity_bytes: 4096,
                policy,
                ..Default::default()
            });
            if let Some(tags) = tags {
                cache.begin_tile(tags);
            }
            check_writeback_conservation(cache, &ops);
        }
    }
}

#[test]
fn writeback_conservation_piccolo() {
    check_piccolo_writeback_conservation(ReplacementPolicy::Lru);
}

#[test]
fn writeback_conservation_piccolo_rrip() {
    check_piccolo_writeback_conservation(ReplacementPolicy::Rrip);
}

/// A second identical read always hits, in every design.
#[test]
fn immediate_rereference_hits() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let addr = rng.gen_u64_below(1 << 20) & !7;
        let mut caches: Vec<Box<dyn SectorCache>> = vec![
            Box::new(SetAssocCache::conventional(8192, 8)),
            Box::new(SetAssocCache::line8(8192, 8)),
            Box::new(SectoredCache::new(8192, 8)),
            Box::new(PiccoloCache::with_capacity(8192)),
        ];
        let mut actions = Vec::new();
        for cache in caches.iter_mut() {
            cache.access(addr, 8, false, &mut actions);
            assert!(
                cache.access(addr, 8, false, &mut actions),
                "seed {seed}: {} must hit",
                cache.name()
            );
        }
    }
}

/// Hit/miss counters always add up and fills never exceed accesses.
#[test]
fn stats_are_consistent() {
    for seed in 0..CASES {
        let ops = random_ops(&mut Rng64::seed_from_u64(seed), 1 << 18);
        let mut cache = PiccoloCache::with_capacity(8192);
        let mut actions = Vec::new();
        for &(addr, write) in &ops {
            actions.clear();
            cache.access(addr & !7, 8, write, &mut actions);
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, s.accesses, "seed {seed}");
        assert_eq!(s.accesses, ops.len() as u64, "seed {seed}");
        assert!(s.fill_bytes <= s.misses * 8, "seed {seed}");
    }
}

/// The headline claim of Fig. 11: under sparse random accesses Piccolo-cache hits nearly
/// as often as the ideal 8 B-line cache, and far more often than a sectored cache of the
/// same capacity.
#[test]
fn piccolo_cache_tracks_ideal_8b_cache_on_sparse_random_accesses() {
    let mut rng = Rng64::seed_from_u64(42);

    let capacity = 64 * 1024u64;
    let mut piccolo = PiccoloCache::with_capacity(capacity);
    let mut ideal = SetAssocCache::line8(capacity, 8);
    let mut sectored = SectoredCache::new(capacity, 8);

    // The 4 MiB access range spans two distinct Piccolo-cache line tags at this geometry;
    // the accelerator would announce that via way partitioning at the start of a tile.
    piccolo.begin_tile(2);
    ideal.begin_tile(2);
    sectored.begin_tile(2);

    // Sparse random accesses: 4K distinct hot words spread over a 4 MiB range (so 64 B
    // lines are mostly wasted), re-accessed with a skewed distribution.
    let hot: Vec<u64> = (0..4096).map(|_| rng.gen_u64_below(4 << 20) & !7).collect();
    let mut actions = Vec::new();
    for _ in 0..200_000 {
        let idx = (rng.gen_f64().powi(2) * hot.len() as f64) as usize;
        let addr = hot[idx.min(hot.len() - 1)];
        actions.clear();
        piccolo.access(addr, 8, false, &mut actions);
        ideal.access(addr, 8, false, &mut actions);
        sectored.access(addr, 8, false, &mut actions);
    }

    let hp = piccolo.stats().hit_rate();
    let hi = ideal.stats().hit_rate();
    let hs = sectored.stats().hit_rate();
    assert!(
        hp > hi - 0.08,
        "Piccolo-cache ({hp:.3}) should be within a few percent of the 8B-line cache ({hi:.3})"
    );
    assert!(
        hp > hs + 0.05,
        "Piccolo-cache ({hp:.3}) should clearly beat the sectored cache ({hs:.3})"
    );
}

/// Conventional 64 B caches waste most of their fetched bytes on sparse 8 B accesses
/// (the Fig. 3 motivation): the fill traffic is 8x the useful traffic.
#[test]
fn conventional_cache_overfetches_on_sparse_accesses() {
    let mut rng = Rng64::seed_from_u64(7);
    let mut conv = SetAssocCache::conventional(16 * 1024, 8);
    let mut useful = 0u64;
    let mut actions = Vec::new();
    for _ in 0..50_000 {
        let addr = rng.gen_u64_below(16 << 20) & !7;
        actions.clear();
        conv.access(addr, 8, false, &mut actions);
        for a in &actions {
            if let MissAction::Fill { useful: u, .. } = *a {
                useful += u as u64;
            }
        }
    }
    let s = conv.stats();
    assert!(
        s.fill_bytes >= useful * 7,
        "fills {} useful {}",
        s.fill_bytes,
        useful
    );
}

/// One step of the golden stream.
#[derive(Clone, Copy)]
enum Step {
    Access { addr: u64, write: bool },
    BeginTile(u32),
    Flush,
}

/// The golden stream: about 20k 8 B accesses, 30% writes. 85% of them go to a skewed hot
/// set of 128 B blocks spread over 2 MiB, which spans eight Piccolo-cache tag windows at
/// 8 KiB (just over seven at 9 KiB), so same-tag sector replacement and whole-line
/// eviction of another tag both occur; the rest are cold words from 16 MiB. A `begin_tile` call
/// precedes every 1000 accesses, cycling through 1, 2, 3, 8 and 100 distinct tags, and
/// one flush sits mid-stream.
fn golden_steps() -> Vec<Step> {
    let mut rng = Rng64::seed_from_u64(0x5eed_cace);
    let blocks: Vec<u64> = (0..384)
        .map(|_| rng.gen_u64_below(2 << 20) & !127)
        .collect();
    let tiles = [1, 2, 3, 8, 100];
    let mut steps = Vec::new();
    for i in 0..20_000usize {
        if i % 1000 == 0 {
            steps.push(Step::BeginTile(tiles[(i / 1000) % tiles.len()]));
        }
        if i == 10_000 {
            steps.push(Step::Flush);
        }
        let addr = if rng.gen_bool(0.85) {
            let b = (rng.gen_f64().powi(3) * blocks.len() as f64) as usize;
            blocks[b.min(blocks.len() - 1)] + 8 * rng.gen_u64_below(16)
        } else {
            rng.gen_u64_below(16 << 20) & !7
        };
        steps.push(Step::Access {
            addr,
            write: rng.gen_bool(0.3),
        });
    }
    steps
}

/// The eight designs the accelerator builds for its cache kinds (8 ways each).
fn every_design(capacity: u64) -> Vec<Box<dyn SectorCache>> {
    let piccolo = |policy| {
        PiccoloCache::new(PiccoloCacheConfig {
            capacity_bytes: capacity,
            ways: 8,
            policy,
            ..Default::default()
        })
    };
    vec![
        Box::new(SetAssocCache::conventional(capacity, 8)),
        Box::new(SectoredCache::new(capacity, 8)),
        Box::new(SetAssocCache::amoeba(capacity, 8)),
        Box::new(SetAssocCache::scrabble(capacity, 8)),
        Box::new(SetAssocCache::graphfire(capacity, 8)),
        Box::new(piccolo(ReplacementPolicy::Lru)),
        Box::new(piccolo(ReplacementPolicy::Rrip)),
        Box::new(SetAssocCache::line8(capacity, 8)),
    ]
}

fn fold_action(h: &mut Fnv64, action: &MissAction) {
    match *action {
        MissAction::Fill {
            addr,
            bytes,
            useful,
        } => {
            h.update(&[0]);
            h.update(&addr.to_le_bytes());
            h.update(&bytes.to_le_bytes());
            h.update(&useful.to_le_bytes());
        }
        MissAction::Writeback { addr, bytes } => {
            h.update(&[1]);
            h.update(&addr.to_le_bytes());
            h.update(&bytes.to_le_bytes());
        }
    }
}

/// Runs the golden stream through `cache`, folding every hit flag, every action in
/// emission order, the flush actions and the final statistics.
fn golden_digest(cache: &mut dyn SectorCache, steps: &[Step]) -> u64 {
    let mut h = Fnv64::new();
    let mut actions = Vec::new();
    for step in steps {
        actions.clear();
        match *step {
            Step::Access { addr, write } => {
                let hit = cache.access(addr, 8, write, &mut actions);
                h.update(&[u8::from(hit)]);
            }
            Step::BeginTile(tags) => cache.begin_tile(tags),
            Step::Flush => {
                h.update(b"flush");
                cache.flush(&mut actions);
            }
        }
        actions.iter().for_each(|a| fold_action(&mut h, a));
    }
    let s = cache.stats();
    for v in [
        s.accesses,
        s.hits,
        s.misses,
        s.line_evictions,
        s.sector_evictions,
        s.writeback_bytes,
        s.fill_bytes,
    ] {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

/// Compares each `(label, digest)` with the recorded table, reporting every mismatch.
fn assert_digests(got: &[(String, u64)], want: &[(&str, u64)]) {
    let table: Vec<String> = got
        .iter()
        .map(|(label, d)| format!("(\"{label}\", {d:#018x}),"))
        .collect();
    let matches = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gl, gd), (wl, wd))| gl == wl && gd == wd);
    assert!(matches, "digests differ; got:\n{}", table.join("\n"));
}

/// Golden pin of every cache design at a power-of-two and a non-power-of-two set count
/// (9 KiB is GraphDyns' 9/8 on-chip grant of 8 KiB). The digests were recorded from
/// the original per-line `Vec` implementation of the cache models.
#[test]
fn every_cache_design_matches_its_golden_digest() {
    let steps = golden_steps();
    let mut got = Vec::new();
    for capacity in [8 * 1024, 9 * 1024] {
        for mut cache in every_design(capacity) {
            let d = golden_digest(cache.as_mut(), &steps);
            got.push((format!("{} @ {capacity}", cache.name()), d));
        }
    }
    assert_digests(
        &got,
        &[
            ("Conventional64B @ 8192", 0x31f0d3e99e056d3b),
            ("Sectored @ 8192", 0x1eca20b9e98d6440),
            ("Amoeba @ 8192", 0x66e8fa459a4f9625),
            ("Scrabble @ 8192", 0x0803fb924e16e272),
            ("Graphfire @ 8192", 0xa6037702b8c13bde),
            ("Piccolo (LRU) @ 8192", 0xdce369fef7c71cd7),
            ("Piccolo (RRIP) @ 8192", 0xdce369fef7c71cd7),
            ("8B-Line @ 8192", 0x0189cae15331120e),
            ("Conventional64B @ 9216", 0x16d143b21b963cc3),
            ("Sectored @ 9216", 0x837c0287bb4a14e5),
            ("Amoeba @ 9216", 0x9811b4dfab9f3f27),
            ("Scrabble @ 9216", 0xb6ab933e8cd8b797),
            ("Graphfire @ 9216", 0x7716a49beaf8c9e1),
            ("Piccolo (LRU) @ 9216", 0xb309b704359587f8),
            ("Piccolo (RRIP) @ 9216", 0xb309b704359587f8),
            ("8B-Line @ 9216", 0xb11a75c8842cd327),
        ],
    );
}

/// Runs a seeded push stream through one MSHR, folding every emitted request, the
/// periodic and final drains, the statistics and the occupancy.
fn mshr_digest(kind: ScatterGatherKind, capacity: usize, items_per_op: u32) -> u64 {
    let mut rng = Rng64::seed_from_u64(0x3542_0c7e);
    let mut m = CollectionMshr::new(kind, Region::PropertyRandom, capacity, items_per_op);
    let mut h = Fnv64::new();
    let mut out = Vec::new();
    let fold = |h: &mut Fnv64, out: &mut Vec<MemRequest>| {
        for r in out.drain(..) {
            h.update(format!("{r:?}").as_bytes());
        }
    };
    let mut row = RowId(0);
    for i in 0..20_000u32 {
        // Runs of pushes to one row (mean length 4) over 16 offsets fill operations even
        // at capacity 2; 24 hot rows make merges and forwards common, and a cold tail of
        // rows forces capacity evictions.
        if rng.gen_bool(0.25) {
            row = if rng.gen_bool(0.8) {
                RowId(rng.gen_u64_below(24))
            } else {
                RowId(100 + rng.gen_u64_below(4096))
            };
        }
        let offset = rng.gen_u32_below(16) as u16;
        if rng.gen_bool(0.4) {
            m.push_write(row, offset, &mut out);
        } else {
            m.push_read(row, offset, &mut out);
        }
        fold(&mut h, &mut out);
        if i % 2500 == 2499 {
            h.update(b"drain");
            m.drain(&mut out);
            fold(&mut h, &mut out);
        }
    }
    h.update(b"final");
    m.drain(&mut out);
    fold(&mut h, &mut out);
    h.update(format!("{:?} {}", m.stats(), m.occupancy()).as_bytes());
    h.finish()
}

/// Golden pin of the collection-extended MSHR for both request kinds, three capacities
/// and both DDR4 operation widths.
#[test]
fn collection_mshr_matches_its_golden_digests() {
    let mut got = Vec::new();
    for kind in [ScatterGatherKind::Fim, ScatterGatherKind::Nmp] {
        for capacity in [2, 16, 256] {
            for items in [4, 8] {
                got.push((
                    format!("{kind:?} cap {capacity} items {items}"),
                    mshr_digest(kind, capacity, items),
                ));
            }
        }
    }
    assert_digests(
        &got,
        &[
            ("Fim cap 2 items 4", 0x47ce5737163eb4a2),
            ("Fim cap 2 items 8", 0x3aaeffe8f7f21643),
            ("Fim cap 16 items 4", 0xda7562c37d15872d),
            ("Fim cap 16 items 8", 0xf77dbd3aba30bd0e),
            ("Fim cap 256 items 4", 0xcdbe15b3db652492),
            ("Fim cap 256 items 8", 0x03687eac33ae3592),
            ("Nmp cap 2 items 4", 0x2e573706fb9f61d5),
            ("Nmp cap 2 items 8", 0x570c1bfbefbaebdf),
            ("Nmp cap 16 items 4", 0x0b8fab9469fe3075),
            ("Nmp cap 16 items 8", 0xe3fc108e3df366a5),
            ("Nmp cap 256 items 4", 0x6d79c97e2c026224),
            ("Nmp cap 256 items 8", 0x53b351a0501ca107),
        ],
    );
}
