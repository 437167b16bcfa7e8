//! Synthetic graph generators.
//!
//! The paper evaluates on large real-world graphs plus two families of synthetic graphs:
//! Kronecker (power-law, used for the scalability study) and Watts–Strogatz (small-world,
//! without a power-law degree distribution). Because the real traces are not available in
//! this environment, the dataset stand-ins in [`crate::datasets`] are built from the
//! generators in this module; that module says which generator stands in for which
//! dataset.

use crate::rng::Rng64;
use crate::{Edge, EdgeList, VertexId};

/// R-MAT / Kronecker-style power-law graph.
///
/// Generates `2^scale` vertices and roughly `avg_degree * 2^scale` directed edges using
/// the classic R-MAT recursion with the Graph500 partition probabilities
/// `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`, which is the standard instantiation of the
/// Kronecker generator referenced by the paper (Leskovec et al.).
///
/// Self-loops and duplicate edges are removed, so the exact edge count is slightly below
/// the target; weights are uniform in `0..=255` as the paper assigns to unweighted graphs.
///
/// # Example
///
/// ```
/// let g = piccolo_graph::generate::kronecker(10, 4, 1);
/// assert_eq!(g.num_vertices(), 1024);
/// assert!(g.num_edges() > 0);
/// ```
pub fn kronecker(scale: u32, avg_degree: u32, seed: u64) -> crate::Csr {
    rmat(scale, avg_degree, (0.57, 0.19, 0.19, 0.05), seed)
}

/// R-MAT generator with explicit quadrant probabilities.
///
/// # Panics
///
/// Panics if `scale >= 31` or the probabilities do not sum to (approximately) 1.
pub fn rmat(scale: u32, avg_degree: u32, probs: (f64, f64, f64, f64), seed: u64) -> crate::Csr {
    assert!(scale < 31, "scale {scale} too large for u32 vertex ids");
    let (a, b, c, d) = probs;
    assert!(
        (a + b + c + d - 1.0).abs() < 1e-6,
        "R-MAT probabilities must sum to 1"
    );
    let n: u64 = 1 << scale;
    let target_edges = n * avg_degree as u64;
    let mut rng = Rng64::seed_from_u64(seed);
    let mut el = EdgeList::new(n as u32);

    // The raw R-MAT recursion concentrates high-degree vertices at low vertex ids, which
    // would give coarse-grained caches artificial spatial locality that real-world vertex
    // numberings do not have (Graph500 likewise prescribes a vertex permutation). Shuffle
    // the id space with a random permutation before emitting edges.
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);

    for _ in 0..target_edges {
        let mut x_lo = 0u64;
        let mut y_lo = 0u64;
        let mut half = n / 2;
        while half >= 1 {
            let r: f64 = rng.gen_f64();
            // Add small per-level noise so the degree distribution is not perfectly
            // self-similar (standard R-MAT smoothing).
            let noise: f64 = rng.gen_f64_range(-0.05, 0.05);
            let aa = (a + noise * a).clamp(0.0, 1.0);
            let (dx, dy) = if r < aa {
                (0, 0)
            } else if r < aa + b {
                (0, 1)
            } else if r < aa + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            x_lo += dx * half;
            y_lo += dy * half;
            if half == 1 {
                break;
            }
            half /= 2;
        }
        let w = rng.gen_u32_below(256);
        el.push(Edge::new(perm[x_lo as usize], perm[y_lo as usize], w));
    }
    el.dedup_and_clean();
    el.into_csr()
}

/// Watts–Strogatz small-world graph.
///
/// Builds a ring lattice of `2^scale` vertices where each vertex connects to its `k`
/// clockwise neighbors, then rewires each edge's destination with probability `beta`.
/// This mirrors the WS graphs in Table II (average degree 5, i.e. `k = 5`).
///
/// # Example
///
/// ```
/// let g = piccolo_graph::generate::watts_strogatz(10, 5, 0.1, 7);
/// assert_eq!(g.num_vertices(), 1024);
/// assert_eq!(g.num_edges(), 1024 * 5);
/// ```
pub fn watts_strogatz(scale: u32, k: u32, beta: f64, seed: u64) -> crate::Csr {
    assert!(scale < 31, "scale {scale} too large for u32 vertex ids");
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let n: u64 = 1 << scale;
    assert!(k as u64 > 0 && (k as u64) < n, "k must be in 1..n");
    let mut rng = Rng64::seed_from_u64(seed);
    let mut el = EdgeList::new(n as u32);
    for u in 0..n {
        for j in 1..=k as u64 {
            let mut v = (u + j) % n;
            if rng.gen_bool(beta) {
                // Rewire to a uniformly random destination (avoiding a self-loop).
                loop {
                    v = rng.gen_u64_below(n);
                    if v != u {
                        break;
                    }
                }
            }
            let w = rng.gen_u32_below(256);
            el.push(Edge::new(u as VertexId, v as VertexId, w));
        }
    }
    el.into_csr()
}

/// Uniform (Erdős–Rényi-style) random directed graph with `num_vertices` vertices and
/// `num_edges` edges drawn uniformly at random (self-loops excluded, duplicates allowed
/// before cleanup).
pub fn uniform(num_vertices: u32, num_edges: u64, seed: u64) -> crate::Csr {
    assert!(num_vertices >= 2, "need at least two vertices");
    let mut rng = Rng64::seed_from_u64(seed);
    let mut el = EdgeList::new(num_vertices);
    for _ in 0..num_edges {
        let src = rng.gen_u32_below(num_vertices);
        let mut dst = rng.gen_u32_below(num_vertices);
        if dst == src {
            dst = (dst + 1) % num_vertices;
        }
        let w = rng.gen_u32_below(256);
        el.push(Edge::new(src, dst, w));
    }
    el.dedup_and_clean();
    el.into_csr()
}

/// A directed path `0 -> 1 -> ... -> n-1` with unit weights. Useful in tests where the
/// traversal order must be fully predictable.
pub fn path(num_vertices: u32) -> crate::Csr {
    let mut el = EdgeList::new(num_vertices.max(1));
    for v in 1..num_vertices {
        el.push(Edge::new(v - 1, v, 1));
    }
    el.into_csr()
}

/// A star graph: vertex 0 points at every other vertex, with unit weights.
pub fn star(num_vertices: u32) -> crate::Csr {
    let mut el = EdgeList::new(num_vertices.max(1));
    for v in 1..num_vertices {
        el.push(Edge::new(0, v, 1));
    }
    el.into_csr()
}

/// A 2-D grid graph of `rows x cols` vertices with edges to the right and down neighbors,
/// unit weights. Row-major vertex numbering.
pub fn grid(rows: u32, cols: u32) -> crate::Csr {
    let n = rows * cols;
    let mut el = EdgeList::new(n.max(1));
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                el.push(Edge::new(v, v + 1, 1));
            }
            if r + 1 < rows {
                el.push(Edge::new(v, v + cols, 1));
            }
        }
    }
    el.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kronecker_is_power_law_ish() {
        let g = kronecker(12, 8, 3);
        assert_eq!(g.num_vertices(), 4096);
        // Power-law: the max degree should be far above the average degree.
        assert!(g.max_degree() as f64 > 4.0 * g.average_degree());
        // Dedup keeps at least half of the target edges for this configuration.
        assert!(g.num_edges() > 4096 * 4);
    }

    #[test]
    fn kronecker_deterministic_per_seed() {
        let a = kronecker(8, 4, 11);
        let b = kronecker(8, 4, 11);
        let c = kronecker(8, 4, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn watts_strogatz_exact_edge_count_and_no_self_loops() {
        let g = watts_strogatz(9, 5, 0.2, 5);
        assert_eq!(g.num_edges(), 512 * 5);
        assert!(g.iter_edges().all(|e| e.src != e.dst));
    }

    #[test]
    fn watts_strogatz_beta_zero_is_ring_lattice() {
        let g = watts_strogatz(6, 2, 0.0, 0);
        for v in 0..g.num_vertices() {
            let nbrs: Vec<u32> = g.neighbors(v).map(|(d, _)| d).collect();
            let n = g.num_vertices();
            let mut expect = vec![(v + 1) % n, (v + 2) % n];
            expect.sort_unstable();
            let mut got = nbrs.clone();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let g = uniform(100, 1000, 9);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.num_edges() <= 1000);
        assert!(g
            .iter_edges()
            .all(|e| e.src < 100 && e.dst < 100 && e.src != e.dst));
    }

    #[test]
    fn path_star_grid_shapes() {
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.out_degree(4), 0);
        let s = star(6);
        assert_eq!(s.out_degree(0), 5);
        assert_eq!(s.num_edges(), 5);
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), (3 * 3 + 2 * 4) as u64);
    }
}
