//! Integration test comparing the evaluated systems end to end on a PageRank workload.

#![expect(
    clippy::print_stderr,
    reason = "the diagnostics print their comparison table for `--nocapture` readers"
)]

use piccolo_accel::{simulate, SimConfig, SystemKind};
use piccolo_algo::PageRank;
use piccolo_graph::generate;

fn run(system: SystemKind) -> piccolo_accel::RunResult {
    let g = generate::kronecker(14, 8, 7);
    let cfg = SimConfig::for_system(system, 12).with_max_iterations(2);
    simulate(&g, &PageRank::default(), &cfg)
}

#[test]
fn report_and_compare_systems() {
    let base = run(SystemKind::GraphDynsCache);
    let pic = run(SystemKind::Piccolo);
    let pim = run(SystemKind::Pim);
    for r in [&base, &pic, &pim] {
        eprintln!(
            "{:<18} cycles={:>10} compute={:>9} mem_ns={:>12.0} offchip={:>10} useful%={:>5.1} \
             rd={:>8} wr={:>7} act={:>8} gathers={:>7} scatters={:>6} hit%={:>5.1} tiles={}",
            r.system.name(),
            r.accel_cycles,
            r.compute_cycles,
            r.mem_ns,
            r.mem_stats.offchip_bytes,
            100.0 * r.mem_stats.useful_fraction(),
            r.mem_stats.read_transactions,
            r.mem_stats.write_transactions,
            r.mem_stats.activations,
            r.mem_stats.fim_gathers,
            r.mem_stats.fim_scatters,
            100.0 * r.cache_stats.hit_rate(),
            r.num_tiles,
        );
    }
    assert!(pic.mem_stats.offchip_bytes < base.mem_stats.offchip_bytes);
    assert!(pic.accel_cycles < base.accel_cycles);
    assert!(pim.accel_cycles > pic.accel_cycles);
}

#[test]
fn tile_factor_sweep_diagnostic() {
    use piccolo_accel::TilingPolicy;
    let g = generate::kronecker(13, 8, 7);
    for factor in [1u32, 2, 4] {
        let cfg = SimConfig::for_system(SystemKind::Piccolo, 12)
            .with_max_iterations(3)
            .with_tiling(TilingPolicy::Scaled(factor));
        let r = simulate(&g, &PageRank::default(), &cfg);
        eprintln!(
            "piccolo x{:<2} cycles={:>9} offchip={:>9} hit%={:>5.1} gathers={:>7} tiles={}",
            factor,
            r.accel_cycles,
            r.mem_stats.offchip_bytes,
            100.0 * r.cache_stats.hit_rate(),
            r.mem_stats.fim_gathers,
            r.num_tiles
        );
        let b = SimConfig::for_system(SystemKind::GraphDynsCache, 12)
            .with_max_iterations(3)
            .with_tiling(TilingPolicy::Scaled(factor));
        let rb = simulate(&g, &PageRank::default(), &b);
        eprintln!(
            "base    x{:<2} cycles={:>9} offchip={:>9} hit%={:>5.1} tiles={}",
            factor,
            rb.accel_cycles,
            rb.mem_stats.offchip_bytes,
            100.0 * rb.cache_stats.hit_rate(),
            rb.num_tiles
        );
    }
}

#[test]
fn sparse_algorithm_diagnostic() {
    use piccolo_algo::{Bfs, Sssp};
    let g = generate::kronecker(13, 8, 7);
    for (name, sys) in [
        ("base", SystemKind::GraphDynsCache),
        ("piccolo", SystemKind::Piccolo),
        ("nmp", SystemKind::Nmp),
        ("pim", SystemKind::Pim),
        ("spm", SystemKind::GraphDynsSpm),
    ] {
        let cfg = SimConfig::for_system(sys, 12).with_max_iterations(40);
        let b = simulate(&g, &Bfs::new(0), &cfg);
        let s = simulate(&g, &Sssp::new(0), &cfg);
        eprintln!("{name:<8} BFS cycles={:>9} offchip={:>9} hit%={:>5.1} | SSSP cycles={:>9} offchip={:>9} hit%={:>5.1}",
            b.accel_cycles, b.mem_stats.offchip_bytes, 100.0*b.cache_stats.hit_rate(),
            s.accel_cycles, s.mem_stats.offchip_bytes, 100.0*s.cache_stats.hit_rate());
    }
}
