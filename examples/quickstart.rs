//! Quickstart: run BFS on a synthetic power-law graph through the baseline accelerator
//! and through Piccolo, and print the speedup, traffic reduction and energy saving.
//!
//! Run with: `cargo run --release --example quickstart`

use piccolo::{Simulation, SystemKind};
use piccolo_algo::Bfs;
use piccolo_graph::generate;

fn main() {
    let graph = generate::kronecker(14, 8, 42);
    println!(
        "graph: {} vertices, {} edges (avg degree {:.1})",
        graph.num_vertices(),
        graph.num_edges(),
        graph.average_degree()
    );

    let baseline = Simulation::new(SystemKind::GraphDynsCache).run(&graph, &Bfs::new(0));
    let piccolo = Simulation::new(SystemKind::Piccolo).run(&graph, &Bfs::new(0));

    println!(
        "baseline (GraphDyns Cache): {:>12} cycles, {:>10} off-chip bytes, {:>10.1} uJ",
        baseline.run.accel_cycles,
        baseline.run.mem_stats.offchip_bytes,
        baseline.energy.total_nj() / 1000.0
    );
    println!(
        "piccolo                   : {:>12} cycles, {:>10} off-chip bytes, {:>10.1} uJ",
        piccolo.run.accel_cycles,
        piccolo.run.mem_stats.offchip_bytes,
        piccolo.energy.total_nj() / 1000.0
    );
    println!(
        "speedup {:.2}x, traffic {:.1} % of baseline, energy {:.1} % of baseline",
        piccolo.speedup_over(&baseline),
        100.0 * piccolo.run.mem_stats.offchip_bytes as f64
            / baseline.run.mem_stats.offchip_bytes.max(1) as f64,
        100.0 * piccolo.energy_ratio_over(&baseline)
    );
}
