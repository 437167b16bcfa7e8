//! Memory design-space exploration (Figs. 15-17 in miniature): memory type, channel/rank
//! count and tile-size sensitivity of Piccolo vs the baseline on one dataset.
//!
//! Run with: `cargo run --release --example memory_design_space`

use piccolo::experiments::{fig15_spec, fig16_spec, fig17_spec, Scale};
use piccolo::sweep::SweepRunner;
use piccolo_algo::Algorithm;
use piccolo_graph::Dataset;

fn main() {
    let scale = Scale {
        scale_shift: 13,
        seed: 7,
        max_iterations: 3,
    };
    let algs = [Algorithm::PageRank];
    let runner = SweepRunner::sequential();
    println!("-- memory type sensitivity (cycles) --");
    for p in runner.run(&fig15_spec(scale, Dataset::Sinaweibo, &algs)) {
        println!("{p}");
    }
    println!("\n-- channel/rank sensitivity (cycles) --");
    for p in runner.run(&fig16_spec(scale, Dataset::Sinaweibo, &algs)) {
        println!("{p}");
    }
    println!("\n-- tile-size sensitivity (normalized cycles) --");
    for p in runner.run(&fig17_spec(scale, Dataset::Sinaweibo, &algs)) {
        println!("{p}");
    }
}
