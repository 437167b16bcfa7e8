//! Path-finding scenario: SSSP and SSWP (widest path) on a weighted small-world network,
//! validating the accelerator results against textbook CPU implementations and reporting
//! Piccolo's advantage on these frontier-driven workloads.
//!
//! Run with: `cargo run --release --example roadmap_shortest_paths`

use piccolo::{Simulation, SystemKind};
use piccolo_algo::{reference, run_vcm, Sssp, Sswp};
use piccolo_graph::generate;

fn main() {
    let graph = generate::watts_strogatz(14, 6, 0.2, 9);
    let source = 0;

    // Functional check first: the vertex programs agree with Dijkstra-style references.
    let sssp = run_vcm(&graph, &Sssp::new(source), 10_000);
    assert_eq!(
        sssp.props.as_slice(),
        reference::dijkstra(&graph, source).as_slice()
    );
    let sswp = run_vcm(&graph, &Sswp::new(source), 10_000);
    assert_eq!(
        sswp.props.as_slice(),
        reference::widest_path(&graph, source).as_slice()
    );
    println!("functional check passed: SSSP and SSWP match the reference implementations");

    for system in [
        SystemKind::GraphDynsCache,
        SystemKind::Nmp,
        SystemKind::Piccolo,
    ] {
        let sim = Simulation::new(system).configure(|c| c.with_max_iterations(40));
        let r_sssp = sim.run(&graph, &Sssp::new(source));
        let r_sswp = sim.run(&graph, &Sswp::new(source));
        println!(
            "{:<18} SSSP {:>11} cycles ({:>4.1} GB/s off-chip)   SSWP {:>11} cycles",
            system.name(),
            r_sssp.run.accel_cycles,
            r_sssp.run.offchip_bandwidth_gbps(),
            r_sswp.run.accel_cycles,
        );
    }
}
