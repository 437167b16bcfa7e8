//! End-to-end external-dataset walkthrough: generate an edge-list file, round-trip it
//! through the `.pcsr` snapshot format, and run PR + BFS on both traversal engines.
//!
//! ```text
//! cargo run --release --example external_dataset
//! ```

use piccolo::{Simulation, SystemKind};
use piccolo_algo::{Bfs, PageRank};
use piccolo_graph::generate;
use piccolo_io::{load_graph_with, load_pcsr, SnapshotStatus};
use std::io::Write as _;

fn main() {
    let dir = std::env::temp_dir().join(format!("piccolo-external-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let edge_file = dir.join("example.tsv");
    let cache_dir = dir.join("snapshots");

    // 1. Write a SNAP-style edge list to disk (in real use this file comes from a
    //    dataset archive; here a seeded generator stands in).
    let graph = generate::kronecker(12, 8, 2025);
    {
        let mut f = std::fs::File::create(&edge_file).expect("create edge file");
        writeln!(f, "# SNAP-style edge list: src<TAB>dst<TAB>weight").unwrap();
        for e in graph.iter_edges() {
            writeln!(f, "{}\t{}\t{}", e.src, e.dst, e.weight).unwrap();
        }
    }
    println!(
        "wrote {} ({} vertices, {} edges)",
        edge_file.display(),
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Load it through the snapshot cache: the first load parses the text and
    //    writes a .pcsr snapshot, the second skips parsing entirely.
    let first = load_graph_with(&edge_file, None, &cache_dir).expect("first load");
    assert_eq!(first.status, SnapshotStatus::Miss);
    let second = load_graph_with(&edge_file, None, &cache_dir).expect("second load");
    assert_eq!(second.status, SnapshotStatus::Hit);
    assert_eq!(first.graph, second.graph);
    let snapshot = second.snapshot.expect("cached loads have a snapshot");
    println!(
        "snapshot cache: first load = {}, second load = {} ({})",
        first.status,
        second.status,
        snapshot.display()
    );

    // 3. The snapshot is a standalone, checksummed binary CSR — reading it back gives
    //    the exact same graph the text parser produced.
    let from_snapshot = load_pcsr(&snapshot).expect("snapshot is valid");
    assert_eq!(from_snapshot, first.graph);
    println!(
        "round trip: .pcsr == parsed text ({} edges)",
        from_snapshot.num_edges()
    );

    // 4. Run PR and BFS on both engines, conventional baseline vs Piccolo.
    let loaded = first.graph;
    println!("\n{:<26} {:>14} {:>14}", "workload", "cycles", "speedup");
    for (alg_name, edge_centric) in [("PR", false), ("PR", true), ("BFS", false), ("BFS", true)] {
        let run = |system: SystemKind| {
            let sim = Simulation::new(system).configure(|c| c.with_max_iterations(5));
            let report = match (alg_name, edge_centric) {
                ("PR", false) => sim.run(&loaded, &PageRank::default()),
                ("PR", true) => sim.run_edge_centric(&loaded, &PageRank::default()),
                ("BFS", false) => sim.run(&loaded, &Bfs::new(0)),
                _ => sim.run_edge_centric(&loaded, &Bfs::new(0)),
            };
            report.run.accel_cycles
        };
        let base = run(SystemKind::GraphDynsCache);
        let pic = run(SystemKind::Piccolo);
        let engine = if edge_centric { "EC" } else { "VC" };
        println!(
            "{:<26} {:>14} {:>13.2}x",
            format!("{alg_name}/{engine}/Piccolo"),
            pic,
            base as f64 / pic.max(1) as f64
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
