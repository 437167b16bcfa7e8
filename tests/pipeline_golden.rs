//! Golden pin of the timed simulation pipeline.
//!
//! Each case folds the full `Debug` rendering of its `RunResult` (cycles, traffic,
//! cache and DRAM counters, per-phase clocks) through FNV-1a and compares it with a
//! digest recorded from a known-good build, so any change to a simulated byte fails
//! here. The cases cover both traversal orders and every branch of the shared
//! interior: multi-tile and sparse-frontier Piccolo runs, the edge-centric grid, a
//! conventional cache, Graphicionado's scratchpad with its always-dense frontier
//! reads, NMP's row gathers and PIM's in-memory updates.
//!
//! Every run must also obey the model's conservation identities, which hold for any
//! correct pipeline whatever its digest.

use piccolo_accel::{
    resolve_tiling, simulate, simulate_edge_centric, RunResult, SimConfig, SystemKind,
};
use piccolo_algo::{Bfs, PageRank, Sssp, VertexProgram};
use piccolo_dram::MemorySystem;
use piccolo_graph::{generate, Csr};
use piccolo_obs::hash::Fnv64;

fn config(system: SystemKind, max_iterations: u32) -> SimConfig {
    SimConfig::for_system(system, 12).with_max_iterations(max_iterations)
}

fn digest(result: &RunResult) -> u64 {
    let mut h = Fnv64::new();
    h.update(format!("{result:?}").as_bytes());
    h.finish()
}

/// Checks the conservation identities of one run.
fn assert_conserves(label: &str, cfg: &SimConfig, r: &RunResult) {
    let c = &r.cache_stats;
    assert_eq!(c.hits + c.misses, c.accesses, "{label}: hits + misses");
    let m = &r.mem_stats;
    assert!(
        m.useful_offchip_bytes <= m.offchip_bytes,
        "{label}: useful bytes exceed off-chip bytes"
    );
    let bursts = m.read_bursts + m.write_bursts;
    assert_eq!(
        bursts * cfg.dram.org.burst_bytes,
        m.offchip_bytes,
        "{label}: bursts x burst size"
    );
    assert_eq!(
        m.read_transactions + m.write_transactions,
        bursts,
        "{label}: transactions = bursts"
    );
    let busy_ns = MemorySystem::new(cfg.dram).clocks_to_ns(r.phases.total());
    assert_eq!(
        r.mem_ns.to_bits(),
        busy_ns.to_bits(),
        "{label}: phase clocks must sum to the memory busy time"
    );
}

/// Runs one case, checks its identities and returns it once its digest matches.
fn assert_golden<P: VertexProgram>(
    label: &str,
    expected: u64,
    graph: &Csr,
    program: &P,
    cfg: &SimConfig,
    run: fn(&Csr, &P, &SimConfig) -> RunResult,
) -> RunResult {
    let result = run(graph, program, cfg);
    assert!(
        result.phases.scatter_mem_clocks > 0,
        "{label}: scatter phase must account for memory clocks"
    );
    assert_conserves(label, cfg, &result);
    let got = digest(&result);
    assert_eq!(
        got, expected,
        "{label}: RunResult digest {got:#018x} differs from the golden {expected:#018x}"
    );
    result
}

#[test]
fn vertex_centric_multi_tile_runs_match_golden() {
    let g = generate::kronecker(13, 6, 11);
    let cfg = config(SystemKind::Piccolo, 4);
    assert!(
        resolve_tiling(&cfg, g.num_vertices()).num_tiles() > 1,
        "test graph must span multiple tiles"
    );
    assert_golden(
        "vc/pagerank",
        0x8453_faa2_b86d_0fa1,
        &g,
        &PageRank::default(),
        &cfg,
        simulate,
    );
    assert_golden(
        "vc/bfs",
        0xbe3e_8ffe_4dcf_4541,
        &g,
        &Bfs::new(0),
        &cfg,
        simulate,
    );
}

#[test]
fn vertex_centric_sparse_frontier_matches_golden() {
    // SSSP keeps the frontier sparse for many iterations, exercising the sparse
    // frontier-read path and partially-active tiles.
    let g = generate::kronecker(12, 5, 3);
    let cfg = config(SystemKind::Piccolo, 8);
    assert_golden(
        "vc/sssp",
        0x8052_9601_5ec4_e283,
        &g,
        &Sssp::new(0),
        &cfg,
        simulate,
    );
}

#[test]
fn edge_centric_runs_match_golden() {
    let g = generate::kronecker(12, 6, 4);
    let cfg = config(SystemKind::Piccolo, 3);
    let pr = PageRank::default();
    assert_golden(
        "ec/pagerank",
        0xe93b_aacf_c8ba_900a,
        &g,
        &pr,
        &cfg,
        simulate_edge_centric,
    );
    assert_golden(
        "ec/bfs",
        0xb347_2fef_72c8_f106,
        &g,
        &Bfs::new(0),
        &cfg,
        simulate_edge_centric,
    );
}

#[test]
fn baseline_systems_match_golden() {
    let g = generate::kronecker(12, 6, 9);
    let pr = PageRank::default();
    let cache = config(SystemKind::GraphDynsCache, 3);
    assert_golden(
        "conv/pagerank",
        0x4893_1604_6ce9_dfd2,
        &g,
        &pr,
        &cache,
        simulate,
    );
    let pim = assert_golden(
        "pim/pagerank",
        0xcd0e_4779_06cd_d0d7,
        &g,
        &pr,
        &config(SystemKind::Pim, 3),
        simulate,
    );
    assert!(pim.mem_stats.pim_updates > 0, "PIM must update in memory");

    // Sparse-frontier runs from a vertex that actually expands.
    let sparse = generate::kronecker(12, 5, 3);
    let src = (0..sparse.num_vertices())
        .max_by_key(|&v| sparse.out_degree(v))
        .expect("graph has vertices");
    let spm = assert_golden(
        "graphicionado/bfs",
        0xccc9_fe83_b9da_7afb,
        &sparse,
        &Bfs::new(src),
        &config(SystemKind::Graphicionado, 8),
        simulate,
    );
    assert_eq!(spm.cache_stats.misses, 0, "the scratchpad never misses");
    let nmp = assert_golden(
        "nmp/sssp",
        0x722a_3449_9372_88ea,
        &sparse,
        &Sssp::new(src),
        &config(SystemKind::Nmp, 8),
        simulate,
    );
    assert!(nmp.mem_stats.nmp_ops > 0, "NMP must gather rows in memory");
}
