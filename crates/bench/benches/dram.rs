//! DRAM-model microbenchmark: host time of `MemorySystem::service_batch` per request.
//!
//! Hand-rolled like the figures harness (`harness = false`; no Criterion offline). For
//! every memory kind with Piccolo-FIM on, the harness services the same seeded batches
//! through a fresh [`MemorySystem`] a few times and prints the host nanoseconds per
//! request (minimum and median over the samples) and a digest of the batch results and
//! the final [`MemStats`](piccolo_dram::MemStats). The digest is a simulated output: it
//! must not change when only the host speed of the model does.
//!
//! The batches are shaped like the chunks the two simulating perfbench workloads send:
//! a sequential run of 64 B reads (a topology or property stream), then row-grouped FIM
//! and NMP gathers and scatters, PIM updates and single-line reads and write-backs, all
//! inside one tile-sized region so rows are revisited.
//!
//! ```text
//! cargo bench --bench dram              # 10 samples per kind
//! cargo bench --bench dram -- --quick   # 3 samples per kind
//! ```
//!
//! Every other argument is ignored, so flags meant for the figures harness do not stop a
//! plain `cargo bench -- ...` run.

#![forbid(unsafe_code)]

use piccolo_dram::{AddressMapper, DramConfig, MemRequest, MemoryKind, MemorySystem, Region};
use piccolo_graph::rng::Rng64;
use piccolo_obs::hash::Fnv64;
use std::hint::black_box;
use std::time::Instant;

/// Batches serviced per sample.
const BATCHES: usize = 256;
/// Bytes of the region one batch's random requests fall in (a tile's slice of `Vtemp`).
const TILE_BYTES: u64 = 4 << 20;

/// The seeded batches for `cfg`.
fn batches(cfg: &DramConfig) -> Vec<Vec<MemRequest>> {
    let mapper = AddressMapper::new(cfg);
    let mut rng = Rng64::seed_from_u64(0xd7a3_5eed);
    let mut stream_base = 1u64 << 30;
    (0..BATCHES)
        .map(|_| {
            let mut batch = Vec::new();
            let bursts = 32 + rng.gen_u64_below(64);
            batch.extend(
                (0..bursts).map(|i| MemRequest::read(stream_base + i * 64, Region::TopologyRow)),
            );
            stream_base += bursts * 64;
            let tile = rng.gen_u64_below(64) * TILE_BYTES;
            for _ in 0..128 + rng.gen_index(256) {
                let addr = tile + (rng.gen_u64_below(TILE_BYTES) & !7);
                batch.push(random_request(&mut rng, &mapper, addr));
            }
            batch
        })
        .collect()
}

/// One random request at `addr`: a FIM or NMP gather or scatter of 1 to 8 words of its
/// row, a PIM update, or a single-line read or write-back.
fn random_request(rng: &mut Rng64, mapper: &AddressMapper, addr: u64) -> MemRequest {
    let row = mapper.row_id(addr);
    let first = mapper.decompose(addr).word_offset();
    let words = (mapper.row_bytes() / 8) as u16;
    let offsets: Vec<u16> = (0..1 + rng.gen_index(8) as u16)
        .map(|i| (first + i * 3) % words)
        .collect();
    let region = Region::PropertyRandom;
    match rng.gen_u32_below(20) {
        0..=6 => MemRequest::GatherFim {
            row,
            offsets,
            region,
        },
        7..=9 => MemRequest::ScatterFim {
            row,
            offsets,
            region,
        },
        10..=11 => MemRequest::GatherNmp {
            row,
            offsets,
            region,
        },
        12 => MemRequest::ScatterNmp {
            row,
            offsets,
            region,
        },
        13..=15 => MemRequest::PimUpdate { addr, region },
        16..=17 => MemRequest::Read {
            addr,
            useful_bytes: 8,
            region,
        },
        _ => MemRequest::write(addr & !63, region),
    }
}

/// Services `batches` through a fresh system; returns the host nanoseconds it took, the
/// request count and the digest of the batch results and final counters.
#[expect(
    clippy::disallowed_methods,
    reason = "host time per request is what this bench measures; the digest holds only simulated values"
)]
fn sample(cfg: DramConfig, batches: Vec<Vec<MemRequest>>) -> (u128, u64, u64) {
    let mut mem = MemorySystem::new(cfg);
    let mut results = Vec::with_capacity(batches.len());
    let start = Instant::now();
    for batch in batches {
        results.push(mem.service_batch(black_box(batch)));
    }
    let ns = start.elapsed().as_nanos();
    let mut h = Fnv64::new();
    for r in black_box(&results) {
        for v in [r.start_clock, r.end_clock, r.requests] {
            h.update(&v.to_le_bytes());
        }
    }
    h.update(format!("{:?}", mem.stats()).as_bytes());
    (ns, results.iter().map(|r| r.requests).sum(), h.finish())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 3 } else { 10 };
    println!("DRAM service_batch: {samples} samples per memory kind, FIM on, 2 channels x 4 ranks");
    println!(
        "{:<8} {:>9} {:>14} {:>17} {:>18}",
        "kind", "requests", "ns/req (min)", "ns/req (median)", "digest"
    );
    for kind in MemoryKind::ALL {
        let cfg = DramConfig::new(kind, 2, 4).with_fim();
        let batches = batches(&cfg);
        let mut per_request = Vec::with_capacity(samples);
        let mut seen = None;
        for _ in 0..samples {
            let (ns, requests, digest) = sample(cfg, batches.clone());
            assert_eq!(
                *seen.get_or_insert((requests, digest)),
                (requests, digest),
                "{}: the model is not deterministic",
                kind.name()
            );
            per_request.push(ns as f64 / requests as f64);
        }
        per_request.sort_by(f64::total_cmp);
        let (requests, digest) = seen.expect("at least one sample");
        println!(
            "{:<8} {:>9} {:>14.1} {:>17.1} {:#018x}",
            kind.name(),
            requests,
            per_request[0],
            per_request[samples / 2],
            digest
        );
    }
}
