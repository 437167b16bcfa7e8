//! Property-style tests for the graph substrate.
//!
//! No crates.io access in the build container, so instead of `proptest` these run seeded
//! random cases through [`piccolo_graph::rng::Rng64`]; a failing seed is printed in the
//! assertion message.

use piccolo_graph::rng::Rng64;
use piccolo_graph::{generate, tiling, BitSet, Edge, EdgeList, Tiling};

const CASES: u64 = 64;

/// An arbitrary small edge list: 2..200 vertices, up to 400 edges, weights in 0..256.
fn random_edge_list(rng: &mut Rng64) -> EdgeList {
    let n = 2 + rng.gen_u32_below(198);
    let edges = rng.gen_index(400);
    let mut el = EdgeList::new(n);
    for _ in 0..edges {
        el.push(Edge::new(
            rng.gen_u32_below(n),
            rng.gen_u32_below(n),
            rng.gen_u32_below(256),
        ));
    }
    el
}

/// CSR construction preserves the (deduplicated) edge multiset when built from a
/// cleaned edge list.
#[test]
fn csr_preserves_edges() {
    for seed in 0..CASES {
        let mut el = random_edge_list(&mut Rng64::seed_from_u64(seed));
        el.dedup_and_clean();
        let csr = el.to_csr();
        assert_eq!(csr.num_edges() as usize, el.num_edges(), "seed {seed}");
        let mut from_csr: Vec<Edge> = csr.iter_edges().collect();
        let mut from_el: Vec<Edge> = el.edges().to_vec();
        from_csr.sort();
        from_el.sort();
        assert_eq!(from_csr, from_el, "seed {seed}");
    }
}

/// Row offsets are monotone and the degree sum equals the edge count.
#[test]
fn csr_row_offsets_monotone() {
    for seed in 0..CASES {
        let el = random_edge_list(&mut Rng64::seed_from_u64(seed));
        let csr = el.to_csr();
        assert!(
            csr.row_offsets().windows(2).all(|w| w[0] <= w[1]),
            "seed {seed}"
        );
        let degree_sum: u64 = (0..csr.num_vertices()).map(|v| csr.out_degree(v)).sum();
        assert_eq!(degree_sum, csr.num_edges(), "seed {seed}");
    }
}

/// `tiling::partition_csr`, the per-tile split the engine's in-place walk is checked
/// against, gives each tile exactly the edges (as a multiset) whose destination lies in
/// that tile, so the slices together hold the whole edge set once. Sources keep their
/// ids: every slice spans all vertices.
#[test]
fn tiling_partitions_edges() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut el = random_edge_list(&mut rng);
        let width = 1 + rng.gen_u32_below(63);
        el.dedup_and_clean();
        let csr = el.to_csr();
        let tiling = Tiling::by_tile_width(csr.num_vertices(), width);
        let slices = tiling::partition_csr(&csr, &tiling);
        assert_eq!(slices.len(), tiling.num_tiles() as usize, "seed {seed}");
        let mut union: Vec<Edge> = Vec::new();
        for (tile, slice) in tiling.iter().zip(&slices) {
            assert_eq!(slice.num_vertices(), csr.num_vertices(), "seed {seed}");
            let mut want: Vec<Edge> = csr.iter_edges().filter(|e| tile.contains(e.dst)).collect();
            let mut got: Vec<Edge> = slice.iter_edges().collect();
            want.sort();
            got.sort();
            assert_eq!(got, want, "seed {seed}, {tile:?}");
            union.extend(got);
        }
        let mut whole: Vec<Edge> = csr.iter_edges().collect();
        whole.sort();
        union.sort();
        assert_eq!(union, whole, "seed {seed}");
    }
}

/// The bitset behaves like a reference `BTreeSet` under a sequence of inserts/removes.
#[test]
fn bitset_matches_hashset() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let ops = rng.gen_index(300);
        let mut bs = BitSet::new(500);
        let mut hs = std::collections::BTreeSet::new();
        for _ in 0..ops {
            let idx = rng.gen_index(500);
            if rng.gen_bool(0.5) {
                assert_eq!(bs.insert(idx), hs.insert(idx), "seed {seed}");
            } else {
                assert_eq!(bs.remove(idx), hs.remove(&idx), "seed {seed}");
            }
        }
        assert_eq!(bs.count(), hs.len(), "seed {seed}");
        let mut from_bs: Vec<usize> = bs.iter().collect();
        let mut from_hs: Vec<usize> = hs.into_iter().collect();
        from_bs.sort_unstable();
        from_hs.sort_unstable();
        assert_eq!(from_bs, from_hs, "seed {seed}");
    }
}

/// Watts–Strogatz always produces exactly n*k edges and no self loops.
#[test]
fn ws_edge_count() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let scale = 5 + rng.gen_u32_below(4);
        let k = 1 + rng.gen_u32_below(4);
        let beta = rng.gen_f64();
        let g = generate::watts_strogatz(scale, k, beta, rng.next_u64());
        assert_eq!(g.num_edges(), (1u64 << scale) * k as u64, "seed {seed}");
        assert!(g.iter_edges().all(|e| e.src != e.dst), "seed {seed}");
    }
}

/// Kronecker graphs stay within the vertex-id range and below the edge target.
#[test]
fn kronecker_bounds() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let scale = 5 + rng.gen_u32_below(5);
        let deg = 1 + rng.gen_u32_below(7);
        let g = generate::kronecker(scale, deg, rng.next_u64());
        let n = 1u32 << scale;
        assert_eq!(g.num_vertices(), n, "seed {seed}");
        assert!(g.num_edges() <= n as u64 * deg as u64, "seed {seed}");
        assert!(
            g.iter_edges().all(|e| e.src < n && e.dst < n),
            "seed {seed}"
        );
    }
}
