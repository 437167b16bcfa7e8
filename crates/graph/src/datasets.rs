//! Named dataset stand-ins mirroring Table II of the paper.
//!
//! The paper evaluates on five real-world graphs (Uci-Uni, Sinaweibo, Twitter, Friendster,
//! Papers) and two synthetic families (Watts–Strogatz and Kronecker). The real traces are
//! tens of millions of vertices and billions of edges, which is neither available offline
//! nor tractable for a cycle-level software simulator in this environment. Each dataset is
//! therefore replaced by a synthetic stand-in that preserves the properties the
//! evaluation depends on:
//!
//! * the **degree distribution family** (power-law for the social/citation graphs,
//!   near-uniform low degree for Uci-Uni, ring+rewire for Watts–Strogatz),
//! * the **average degree** of Table II, and
//! * the **relative size ordering** between datasets.
//!
//! Sizes are divided by a scale factor (default 256). The accelerator configuration used
//! by the experiment drivers divides the on-chip cache/scratchpad by the same factor, so
//! the working-set-to-cache ratio — the quantity that actually determines hit rates and
//! the tiling trade-off — matches the paper.

use crate::external;
use crate::generate;
use crate::Csr;
use std::sync::Arc;

/// Fetches a registered external graph; registering is the caller's responsibility
/// (the `piccolo-io` drivers do it), so a missing id is a programming error.
fn registered_graph(id: u32) -> Arc<Csr> {
    external::graph(id).unwrap_or_else(|| panic!("external dataset id {id} was never registered"))
}

/// Identifier for the evaluation datasets of Table II (plus the synthetic families).
///
/// `Ord` exists so a `Dataset` (and the `GraphKey` tuples built from it) can key the
/// deterministic `BTreeMap`s the campaign layer uses — hash maps are banned
/// workspace-wide by clippy's `disallowed_types` (`clippy.toml`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataset {
    /// Uci-Uni (UU): Facebook friendship, 58 M vertices / 92 M edges, avg degree ≈ 1.6.
    UciUni,
    /// Sinaweibo (SW): 21 M vertices / 261 M edges, avg degree ≈ 12.
    Sinaweibo,
    /// Twitter (TW): 41 M vertices / 1 465 M edges, avg degree ≈ 36, dense clusters.
    Twitter,
    /// Friendster (FS): 65 M vertices / 1 806 M edges, avg degree ≈ 28, low locality.
    Friendster,
    /// Papers (PP): 111 M vertices / 1 615 M edges citation graph, avg degree ≈ 15.
    Papers,
    /// Watts–Strogatz synthetic graph at the given scale (paper uses 26 and 27).
    WattsStrogatz {
        /// log2 of the vertex count *in the paper*; the stand-in subtracts the
        /// global scale shift.
        scale: u32,
    },
    /// Kronecker synthetic graph at the given scale (paper uses 25–28).
    Kronecker {
        /// log2 of the vertex count *in the paper*; the stand-in subtracts the
        /// global scale shift.
        scale: u32,
    },
    /// An externally-loaded graph (edge-list / SNAP / MatrixMarket file ingested by
    /// `piccolo-io`), identified by its [`crate::external`] registry id. Scale shift
    /// and seed are ignored when building: the graph is whatever was registered.
    External {
        /// Registry id assigned by [`external::register`].
        id: u32,
    },
}

impl Dataset {
    /// The five real-world datasets of Table II, in the order the figures use.
    pub const REAL_WORLD: [Dataset; 5] = [
        Dataset::UciUni,
        Dataset::Twitter,
        Dataset::Sinaweibo,
        Dataset::Friendster,
        Dataset::Papers,
    ];

    /// Short name used in the paper's figures (UU/TW/SW/FS/PP, WS*, KN*).
    pub fn short_name(&self) -> String {
        match self {
            Dataset::UciUni => "UU".to_string(),
            Dataset::Sinaweibo => "SW".to_string(),
            Dataset::Twitter => "TW".to_string(),
            Dataset::Friendster => "FS".to_string(),
            Dataset::Papers => "PP".to_string(),
            Dataset::WattsStrogatz { scale } => format!("WS{scale}"),
            Dataset::Kronecker { scale } => format!("KN{scale}"),
            Dataset::External { id } => external::name(*id)
                .unwrap_or_else(|| panic!("external dataset id {id} was never registered")),
        }
    }

    /// Returns the specification (paper-scale sizes plus stand-in generator parameters).
    pub fn spec(&self) -> DatasetSpec {
        match *self {
            Dataset::UciUni => DatasetSpec {
                dataset: *self,
                paper_vertices: 58_000_000,
                paper_edges: 92_000_000,
                avg_degree: 2,
                family: Family::Uniform,
            },
            Dataset::Sinaweibo => DatasetSpec {
                dataset: *self,
                paper_vertices: 21_000_000,
                paper_edges: 261_000_000,
                avg_degree: 12,
                family: Family::PowerLaw,
            },
            Dataset::Twitter => DatasetSpec {
                dataset: *self,
                paper_vertices: 41_000_000,
                paper_edges: 1_465_000_000,
                avg_degree: 36,
                family: Family::PowerLawClustered,
            },
            Dataset::Friendster => DatasetSpec {
                dataset: *self,
                paper_vertices: 65_000_000,
                paper_edges: 1_806_000_000,
                avg_degree: 28,
                family: Family::PowerLaw,
            },
            Dataset::Papers => DatasetSpec {
                dataset: *self,
                paper_vertices: 111_000_000,
                paper_edges: 1_615_000_000,
                avg_degree: 15,
                family: Family::PowerLaw,
            },
            Dataset::WattsStrogatz { scale } => DatasetSpec {
                dataset: *self,
                paper_vertices: 1u64 << scale,
                paper_edges: (1u64 << scale) * 5,
                avg_degree: 5,
                family: Family::SmallWorld,
            },
            Dataset::Kronecker { scale } => DatasetSpec {
                dataset: *self,
                paper_vertices: 1u64 << scale,
                paper_edges: (1u64 << scale) * 10,
                avg_degree: 10,
                family: Family::PowerLaw,
            },
            Dataset::External { id } => {
                let (vertices, edges) = external::vertices_edges(id)
                    .unwrap_or_else(|| panic!("external dataset id {id} was never registered"));
                let avg_degree = if vertices == 0 {
                    0
                } else {
                    (edges as f64 / vertices as f64).round() as u32
                };
                DatasetSpec {
                    dataset: *self,
                    paper_vertices: vertices,
                    paper_edges: edges,
                    avg_degree,
                    family: Family::External,
                }
            }
        }
    }

    /// Builds the stand-in graph at a reduction of `1 / 2^scale_shift` of the paper's
    /// vertex count (the edge count follows via the preserved average degree).
    ///
    /// `scale_shift = 8` (the default used by the experiment drivers) reduces a
    /// 41 M-vertex graph to ~160 K vertices.
    pub fn build(&self, scale_shift: u32, seed: u64) -> Csr {
        self.spec().build(scale_shift, seed)
    }

    /// Like [`Dataset::build`], but returns a shared handle. For synthetic stand-ins
    /// this wraps a fresh build; for [`Dataset::External`] it hands out the registry's
    /// `Arc` directly, so loaded graphs are never copied per consumer — the campaign
    /// graph store builds on this.
    pub fn build_shared(&self, scale_shift: u32, seed: u64) -> Arc<Csr> {
        match *self {
            Dataset::External { id } => registered_graph(id),
            _ => Arc::new(self.build(scale_shift, seed)),
        }
    }
}

/// Degree-distribution family of a dataset stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Near-uniform low-degree graph (Uci-Uni).
    Uniform,
    /// Power-law graph generated with R-MAT / Kronecker recursion.
    PowerLaw,
    /// Power-law with stronger community structure (higher `a` quadrant probability),
    /// modelling the dense clusters the paper attributes to Twitter.
    PowerLawClustered,
    /// Watts–Strogatz small-world ring with rewiring.
    SmallWorld,
    /// An externally-loaded graph — no generator; `build` reads the
    /// [`crate::external`] registry.
    External,
}

/// Full specification of a dataset: paper-scale sizes plus stand-in parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Which dataset this describes.
    pub dataset: Dataset,
    /// Vertex count reported in Table II.
    pub paper_vertices: u64,
    /// Edge count reported in Table II.
    pub paper_edges: u64,
    /// Average degree (rounded) preserved by the stand-in.
    pub avg_degree: u32,
    /// Generator family for the stand-in.
    pub family: Family,
}

impl DatasetSpec {
    /// Vertex count of the stand-in graph for a given scale shift. External graphs are
    /// never scaled: their actual vertex count is returned unchanged.
    pub fn standin_vertices(&self, scale_shift: u32) -> u64 {
        if self.family == Family::External {
            return self.paper_vertices;
        }
        (self.paper_vertices >> scale_shift).max(1024)
    }

    /// Builds the stand-in graph.
    pub fn build(&self, scale_shift: u32, seed: u64) -> Csr {
        if let (Family::External, Dataset::External { id }) = (self.family, self.dataset) {
            return (*registered_graph(id)).clone();
        }
        let n = self.standin_vertices(scale_shift);
        // Round up to a power of two for the recursive generators.
        let scale = (64 - (n - 1).leading_zeros()).max(10);
        match self.family {
            Family::Uniform => {
                let vertices = n as u32;
                generate::uniform(vertices, n * self.avg_degree as u64, seed)
            }
            Family::PowerLaw => generate::kronecker(scale, self.avg_degree, seed),
            Family::PowerLawClustered => {
                generate::rmat(scale, self.avg_degree, (0.45, 0.22, 0.22, 0.11), seed)
            }
            Family::SmallWorld => generate::watts_strogatz(scale, self.avg_degree, 0.1, seed),
            Family::External => {
                unreachable!("Family::External only appears on Dataset::External specs")
            }
        }
    }
}

/// Convenience: builds all five real-world stand-ins at the given scale shift, in figure
/// order (UU, TW, SW, FS, PP).
pub fn real_world_suite(scale_shift: u32, seed: u64) -> Vec<(Dataset, Csr)> {
    Dataset::REAL_WORLD
        .iter()
        .map(|d| (*d, d.build(scale_shift, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_match_paper() {
        assert_eq!(Dataset::UciUni.short_name(), "UU");
        assert_eq!(Dataset::Twitter.short_name(), "TW");
        assert_eq!(Dataset::Kronecker { scale: 27 }.short_name(), "KN27");
        assert_eq!(Dataset::WattsStrogatz { scale: 26 }.short_name(), "WS26");
    }

    #[test]
    fn specs_preserve_relative_ordering() {
        let tw = Dataset::Twitter.spec();
        let uu = Dataset::UciUni.spec();
        assert!(tw.paper_edges > uu.paper_edges);
        assert!(tw.avg_degree > uu.avg_degree);
    }

    #[test]
    fn standin_build_has_expected_density() {
        let spec = Dataset::Sinaweibo.spec();
        let g = spec.build(12, 7);
        // Power-law generators lose some edges to dedup; density should still be in the
        // right ballpark (more than half the nominal average degree).
        assert!(g.average_degree() > spec.avg_degree as f64 * 0.5);
        assert!(g.num_vertices() >= 1024);
    }

    #[test]
    fn uu_standin_is_sparse() {
        let g = Dataset::UciUni.build(12, 3);
        assert!(g.average_degree() < 4.0);
    }

    #[test]
    fn suite_contains_five_graphs() {
        let suite = real_world_suite(14, 1);
        assert_eq!(suite.len(), 5);
        let names: Vec<String> = suite.iter().map(|(d, _)| d.short_name()).collect();
        assert_eq!(names, vec!["UU", "TW", "SW", "FS", "PP"]);
    }

    #[test]
    fn standin_vertices_has_floor() {
        let spec = Dataset::UciUni.spec();
        assert_eq!(spec.standin_vertices(40), 1024);
    }

    #[test]
    fn external_dataset_reflects_the_registered_graph() {
        let g = generate::uniform(2048, 8192, 11);
        let ds = external::register("dataset-test-ext", g.clone());
        assert_eq!(ds.short_name(), "dataset-test-ext");
        let spec = ds.spec();
        assert_eq!(spec.family, Family::External);
        assert_eq!(spec.paper_vertices, g.num_vertices() as u64);
        assert_eq!(spec.paper_edges, g.num_edges());
        // Scale shift and seed are ignored: the external graph is never re-generated.
        assert_eq!(spec.standin_vertices(13), g.num_vertices() as u64);
        assert_eq!(ds.build(13, 99), g);
        let shared = ds.build_shared(0, 0);
        assert_eq!(*shared, g);
    }
}
