//! In-memory database scenario (Fig. 19b): OLAP column scans with and without
//! Piccolo-FIM.
//!
//! Run with: `cargo run --release --example olap_column_scan`

use piccolo::olap::{run_conventional, run_piccolo, OlapQuery};
use piccolo_dram::DramConfig;

fn main() {
    let cfg = DramConfig::ddr4_2400_x16();
    println!(
        "{:<4} {:>14} {:>14} {:>9}",
        "qry", "conv clocks", "piccolo clocks", "speedup"
    );
    for q in OlapQuery::suite(200_000) {
        let conv = run_conventional(&q, cfg);
        let pic = run_piccolo(&q, cfg);
        println!(
            "{:<4} {:>14} {:>14} {:>8.2}x",
            q.name,
            conv.clocks,
            pic.clocks,
            conv.clocks as f64 / pic.clocks.max(1) as f64
        );
    }
}
