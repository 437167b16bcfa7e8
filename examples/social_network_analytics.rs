//! Social-network analytics scenario: PageRank and Connected Components on stand-ins of
//! the paper's social graphs (Sinaweibo, Friendster), comparing every evaluated system.
//!
//! Run with: `cargo run --release --example social_network_analytics`

use piccolo::{SimConfig, Simulation, SystemKind};
use piccolo_algo::{ConnectedComponents, PageRank};
use piccolo_graph::Dataset;

fn main() {
    for dataset in [Dataset::Sinaweibo, Dataset::Friendster] {
        let graph = dataset.build(13, 7);
        println!(
            "== {} stand-in: {} vertices, {} edges ==",
            dataset.short_name(),
            graph.num_vertices(),
            graph.num_edges()
        );
        let total_for = |system: SystemKind| {
            let sim =
                Simulation::with_config(SimConfig::for_system(system, 13).with_max_iterations(5));
            let pr = sim.run(&graph, &PageRank::default());
            let cc = sim.run(&graph, &ConnectedComponents::new());
            pr.run.accel_cycles + cc.run.accel_cycles
        };
        // The baseline runs first: every row (including the ones listed before it in
        // SystemKind::ALL) is normalized against it.
        let baseline_cycles = total_for(SystemKind::GraphDynsCache);
        for system in SystemKind::ALL {
            let total = if system == SystemKind::GraphDynsCache {
                baseline_cycles
            } else {
                total_for(system)
            };
            println!(
                "  {:<18} PR+CC cycles {:>12}   speedup vs cache baseline {:>5.2}x",
                system.name(),
                total,
                baseline_cycles as f64 / total as f64
            );
        }
        println!();
    }
}
