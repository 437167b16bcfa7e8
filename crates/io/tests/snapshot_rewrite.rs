//! A loaded `.pcsr` graph owns its memory: rewriting or truncating the file it came
//! from afterwards leaves the graph exactly as it was validated. This is its own test
//! binary because a reader that borrowed the file's pages would not fail an assertion
//! on truncation; it would take the whole process down with SIGBUS.

use piccolo_graph::{generate, Csr};
use piccolo_io::{load_pcsr, save_pcsr};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "piccolo-snapshot-rewrite-{}-{name}",
        std::process::id()
    ))
}

/// Reads every section of `g` end to end.
fn section_sums(g: &Csr) -> (u64, u64, u64) {
    (
        g.row_offsets().iter().sum(),
        g.col_indices().iter().map(|&c| u64::from(c)).sum(),
        g.weights().iter().map(|&w| u64::from(w)).sum(),
    )
}

#[test]
fn rewriting_a_loaded_snapshot_leaves_the_graph_unchanged() {
    let path = scratch("rewrite.pcsr");
    let first = generate::kronecker(12, 8, 7);
    save_pcsr(&path, &first).unwrap();
    let loaded = load_pcsr(&path).unwrap();

    save_pcsr(&path, &generate::kronecker(13, 8, 9)).unwrap();
    let n = loaded.num_vertices();
    let out_of_range = loaded.col_indices().iter().filter(|&&c| c >= n).count();
    assert_eq!(
        out_of_range,
        0,
        "column indices of {} fell out of range",
        loaded.num_edges()
    );
    assert!(
        loaded == first,
        "the loaded graph followed its rewritten file"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncating_a_loaded_snapshot_leaves_every_section_readable() {
    let path = scratch("truncate.pcsr");
    let graph = generate::kronecker(12, 8, 7);
    save_pcsr(&path, &graph).unwrap();
    let loaded = load_pcsr(&path).unwrap();
    let before = section_sums(&loaded);

    drop(std::fs::File::create(&path).unwrap());
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    assert_eq!(section_sums(&loaded), before);
    assert!(loaded == graph, "the loaded graph changed with its file");
    let _ = std::fs::remove_file(&path);
}
