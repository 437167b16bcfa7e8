//! Property-style equivalence tests: the VCM programs must agree with the textbook
//! reference implementations.
//!
//! The container this repository builds in has no crates.io access, so instead of
//! `proptest` these run a fixed number of seeded-random cases through
//! [`piccolo_graph::rng::Rng64`]; the failing seed is part of the assertion message, so a
//! reproduction is one `Rng64::seed_from_u64` away.

use piccolo_algo::{reference, run_vcm, Bfs, ConnectedComponents, PageRank, Sssp, Sswp};
use piccolo_graph::rng::Rng64;
use piccolo_graph::{Csr, Edge, EdgeList};

const CASES: u64 = 48;

/// Random directed graph with 2..80 vertices, up to 500 edges, weights in 1..=255.
fn random_graph(rng: &mut Rng64) -> Csr {
    let n = 2 + rng.gen_u32_below(78);
    let edges = 1 + rng.gen_index(500);
    let mut el = EdgeList::new(n);
    for _ in 0..edges {
        let s = rng.gen_u32_below(n);
        let d = rng.gen_u32_below(n);
        let w = 1 + rng.gen_u32_below(255);
        if s != d {
            el.push(Edge::new(s, d, w));
        }
    }
    el.dedup_and_clean();
    el.to_csr()
}

/// Random *symmetric* graph (for CC) with 2..60 vertices and up to 300 edge pairs.
fn random_symmetric_graph(rng: &mut Rng64) -> Csr {
    let n = 2 + rng.gen_u32_below(58);
    let pairs = rng.gen_index(300);
    let mut el = EdgeList::new(n);
    for _ in 0..pairs {
        let a = rng.gen_u32_below(n);
        let b = rng.gen_u32_below(n);
        if a != b {
            el.push(Edge::new(a, b, 1));
            el.push(Edge::new(b, a, 1));
        }
    }
    el.dedup_and_clean();
    el.to_csr()
}

#[test]
fn bfs_matches_reference() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let src = rng.gen_u32_below(g.num_vertices());
        let vcm = run_vcm(&g, &Bfs::new(src), 10_000);
        let expected = reference::bfs_levels(&g, src);
        assert_eq!(vcm.props.as_slice(), expected.as_slice(), "seed {seed}");
    }
}

#[test]
fn sssp_matches_dijkstra() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let src = rng.gen_u32_below(g.num_vertices());
        let vcm = run_vcm(&g, &Sssp::new(src), 10_000);
        let expected = reference::dijkstra(&g, src);
        assert_eq!(vcm.props.as_slice(), expected.as_slice(), "seed {seed}");
    }
}

#[test]
fn sswp_matches_reference() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let src = rng.gen_u32_below(g.num_vertices());
        let vcm = run_vcm(&g, &Sswp::new(src), 10_000);
        let expected = reference::widest_path(&g, src);
        assert_eq!(vcm.props.as_slice(), expected.as_slice(), "seed {seed}");
    }
}

#[test]
fn cc_matches_union_find() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let g = random_symmetric_graph(&mut rng);
        let vcm = run_vcm(&g, &ConnectedComponents::new(), 10_000);
        let expected = reference::weakly_connected_components(&g);
        assert_eq!(vcm.props.as_slice(), expected.as_slice(), "seed {seed}");
    }
}

#[test]
fn pagerank_matches_power_iteration() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        // Compare a fixed number of iterations with epsilon=0 so both run the same count.
        let iters = 12;
        let pr = PageRank {
            damping: 0.85,
            epsilon: 0.0,
        };
        let vcm = run_vcm(&g, &pr, iters);
        let ranks = pr.ranks(&g, vcm.props.as_slice());
        let expected = reference::pagerank(&g, 0.85, iters);
        for v in 0..g.num_vertices() as usize {
            assert!(
                (ranks[v] - expected[v]).abs() < 1e-6,
                "seed {seed}: rank mismatch at {}: {} vs {}",
                v,
                ranks[v],
                expected[v]
            );
        }
    }
}
