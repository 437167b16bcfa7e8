//! Property-style timing tests: arbitrary request mixes must never violate DDR timing
//! constraints, and higher-level invariants (traffic accounting, monotonic time) must
//! hold. This is the software stand-in for the paper's FPGA protocol validation
//! (Section VII-B).
//!
//! No crates.io access in the build container, so instead of `proptest` these run seeded
//! random cases through [`piccolo_graph::rng::Rng64`]; a failing seed is printed in the
//! assertion message.

use piccolo_dram::{
    check_trace, AddressMapper, BatchResult, CommandKind, CommandRecord, DramConfig, MemRequest,
    MemStats, MemoryKind, MemorySystem, Region,
};
use piccolo_graph::rng::Rng64;
use piccolo_io::hash::Fnv64;

const CASES: u64 = 48;

/// Generates `len` requests drawn uniformly over all seven request kinds. Half of the
/// addresses fall in the first 64 KiB, so row hits and FR-FCFS reordering occur; the rest
/// are anywhere in 256 MiB.
fn request_stream(rng: &mut Rng64, cfg: DramConfig, len: usize) -> Vec<MemRequest> {
    let mapper = AddressMapper::new(&cfg);
    (0..len)
        .map(|_| {
            let kind = rng.gen_u32_below(8);
            let space = if rng.gen_u32_below(2) == 0 {
                1u64 << 16
            } else {
                1u64 << 28
            };
            let addr = rng.gen_u64_below(space) & !7; // 8-byte aligned
            let items = 1 + rng.gen_index(8);
            let row = mapper.row_id(addr);
            let offsets: Vec<u16> = (0..items as u16).collect();
            let region = Region::PropertyRandom;
            match kind {
                0 | 1 => MemRequest::Read {
                    addr,
                    useful_bytes: 8,
                    region,
                },
                2 => MemRequest::Write {
                    addr,
                    useful_bytes: 8,
                    region,
                },
                3 => MemRequest::GatherFim {
                    row,
                    offsets,
                    region,
                },
                4 => MemRequest::ScatterFim {
                    row,
                    offsets,
                    region,
                },
                5 => MemRequest::GatherNmp {
                    row,
                    offsets,
                    region,
                },
                6 => MemRequest::ScatterNmp {
                    row,
                    offsets,
                    region,
                },
                _ => MemRequest::PimUpdate { addr, region },
            }
        })
        .collect()
}

/// Generates an arbitrary mix of 1..200 requests of every kind.
fn random_requests(rng: &mut Rng64, cfg: DramConfig) -> Vec<MemRequest> {
    let len = 1 + rng.gen_index(199);
    request_stream(rng, cfg, len)
}

/// No request mix may produce a command trace that violates DDR timing constraints.
#[test]
fn timing_constraints_hold_for_arbitrary_mixes() {
    for kind in MemoryKind::ALL {
        for seed in 0..CASES {
            let cfg = DramConfig::new(kind, 2, 4).with_fim();
            let reqs = random_requests(&mut Rng64::seed_from_u64(seed), cfg);
            let mut mem = MemorySystem::new(cfg);
            mem.enable_trace();
            mem.service_batch(reqs);
            let violations = check_trace(mem.config(), mem.trace().unwrap());
            assert!(
                violations.is_empty(),
                "{} seed {seed}: violations: {:?}",
                kind.name(),
                &violations[..violations.len().min(3)]
            );
        }
    }
}

/// The same holds for a single-channel single-rank configuration where contention is
/// maximal.
#[test]
fn timing_constraints_hold_on_minimal_config() {
    for kind in MemoryKind::ALL {
        for seed in 0..CASES {
            let cfg = DramConfig::new(kind, 1, 1).with_fim();
            let reqs = random_requests(&mut Rng64::seed_from_u64(seed), cfg);
            let mut mem = MemorySystem::new(cfg);
            mem.enable_trace();
            mem.service_batch(reqs);
            let violations = check_trace(mem.config(), mem.trace().unwrap());
            assert!(
                violations.is_empty(),
                "{} seed {seed}: violations: {:?}",
                kind.name(),
                &violations[..violations.len().min(3)]
            );
        }
    }
}

/// Useful bytes never exceed transferred bytes, time is monotonic, and the counters obey
/// their conservation identities.
#[test]
fn traffic_accounting_is_consistent() {
    for kind in MemoryKind::ALL {
        for seed in 0..CASES {
            let cfg = DramConfig::new(kind, 2, 4).with_fim();
            let reqs = random_requests(&mut Rng64::seed_from_u64(seed), cfg);
            let mut mem = MemorySystem::new(cfg);
            let n = reqs.len() as u64;
            let batch = mem.service_batch(reqs);
            let at = format!("{} seed {seed}", kind.name());
            assert_eq!(batch.requests, n, "{at}");
            assert!(batch.end_clock >= batch.start_clock, "{at}");
            let s = mem.stats();
            assert!(s.useful_offchip_bytes <= s.offchip_bytes, "{at}");
            // Every request opens its row exactly once.
            assert_eq!(s.row_hits + s.row_misses, n, "{at}");
            let bursts = s.read_bursts + s.write_bursts;
            assert_eq!(bursts * cfg.org.burst_bytes, s.offchip_bytes, "{at}");
            assert_eq!(s.read_transactions + s.write_transactions, bursts, "{at}");
        }
    }
}

/// Servicing requests in two batches takes at least as long as one batch (no lost
/// work), and produces identical traffic counters.
#[test]
fn batching_does_not_change_traffic() {
    for seed in 0..CASES {
        let cfg = DramConfig::ddr4_2400_x16();
        let reqs = random_requests(&mut Rng64::seed_from_u64(seed), cfg);
        let mut one = MemorySystem::new(cfg);
        one.service_batch(reqs.clone());
        let mut two = MemorySystem::new(cfg);
        let mid = reqs.len() / 2;
        two.service_batch(reqs[..mid].to_vec());
        two.service_batch(reqs[mid..].to_vec());
        assert_eq!(
            one.stats().offchip_bytes,
            two.stats().offchip_bytes,
            "seed {seed}"
        );
        assert_eq!(
            one.stats().read_transactions,
            two.stats().read_transactions,
            "seed {seed}"
        );
        assert_eq!(
            one.stats().write_transactions,
            two.stats().write_transactions,
            "seed {seed}"
        );
        // Note: elapsed time is *not* compared — the FR-FCFS window reorders requests, so
        // the makespan of one large batch is not necessarily shorter than two halves.
    }
}

/// Batches and requests per batch of the long seeded streams below: every channel sees
/// far more than the 256 bus intervals the model keeps, so the horizon fold is exercised.
const LONG_BATCHES: usize = 4;
const LONG_BATCH_LEN: usize = 750;

/// Every memory kind with FIM on, at one channel and rank and at two of each, plus the
/// enhanced FIM design on 1 KiB rows (the scaled experiments' setting) at two channels
/// of four ranks.
fn long_stream_configs() -> Vec<(String, DramConfig)> {
    let mut out = Vec::new();
    for kind in MemoryKind::ALL {
        for (channels, ranks) in [(1, 1), (2, 2)] {
            out.push((
                format!("{}/{channels}ch{ranks}r", kind.name()),
                DramConfig::new(kind, channels, ranks).with_fim(),
            ));
        }
        out.push((
            format!("{}/2ch4r-enhanced-1k", kind.name()),
            DramConfig::new(kind, 2, 4)
                .with_enhanced_fim()
                .with_row_bytes(1024),
        ));
    }
    out
}

/// What servicing a long seeded stream produced.
struct LongRun {
    batches: Vec<BatchResult>,
    stats: MemStats,
    trace: Option<Vec<CommandRecord>>,
}

/// Services [`LONG_BATCHES`] seeded batches of [`LONG_BATCH_LEN`] requests on `cfg`.
fn long_run(cfg: DramConfig, traced: bool) -> LongRun {
    let mut rng = Rng64::seed_from_u64(0x5eed_d7a3);
    let mut mem = MemorySystem::new(cfg);
    if traced {
        mem.enable_trace();
    }
    let batches = (0..LONG_BATCHES)
        .map(|_| mem.service_batch(request_stream(&mut rng, cfg, LONG_BATCH_LEN)))
        .collect();
    LongRun {
        batches,
        stats: *mem.stats(),
        trace: mem.trace().map(<[CommandRecord]>::to_vec),
    }
}

/// FNV-1a over every batch result, every final counter and every traced command.
fn digest(run: &LongRun) -> u64 {
    let mut h = Fnv64::new();
    let mut word = |v: u64| h.update(&v.to_le_bytes());
    for b in &run.batches {
        word(b.start_clock);
        word(b.end_clock);
        word(b.requests);
    }
    let s = &run.stats;
    for v in [
        s.activations,
        s.precharges,
        s.read_bursts,
        s.write_bursts,
        s.fim_gathers,
        s.fim_scatters,
        s.nmp_ops,
        s.pim_updates,
        s.offchip_bytes,
        s.useful_offchip_bytes,
        s.internal_bytes,
        s.read_transactions,
        s.write_transactions,
        s.row_hits,
        s.row_misses,
    ] {
        word(v);
    }
    for c in run.trace.as_deref().unwrap_or_default() {
        word(c.time);
        word(match c.kind {
            CommandKind::Act => 0,
            CommandKind::Pre => 1,
            CommandKind::Rd => 2,
            CommandKind::Wr => 3,
        });
        word(u64::from(c.channel));
        word(u64::from(c.rank));
        word(u64::from(c.bank));
        word(c.row);
        word(c.bus.0);
        word(c.bus.1);
    }
    h.finish()
}

/// Digests of [`long_run`] on each of [`long_stream_configs`], recorded from the
/// clone-plan-commit implementation of `MemorySystem` that the in-place servicing core
/// replaced. Any change to a timing decision, a counter or a traced command changes them.
const PINNED_DIGESTS: [(&str, u64); 18] = [
    ("DDR4x4/1ch1r", 0x06164cac3c063fd0),
    ("DDR4x4/2ch2r", 0x3c7e2d6f21c5416e),
    ("DDR4x4/2ch4r-enhanced-1k", 0xed6b4c92521c7147),
    ("DDR4x8/1ch1r", 0x7e06f752b2a70111),
    ("DDR4x8/2ch2r", 0x0ea7f10cdbfac10c),
    ("DDR4x8/2ch4r-enhanced-1k", 0xcb7dc04d215fd831),
    ("DDR4x16/1ch1r", 0xcbab768a079122b0),
    ("DDR4x16/2ch2r", 0x79073ad735a4f20d),
    ("DDR4x16/2ch4r-enhanced-1k", 0x3006dcb9ff5e58fe),
    ("LPDDR4/1ch1r", 0x37332c40cb12436a),
    ("LPDDR4/2ch2r", 0xd9d85c3ec28d8aeb),
    ("LPDDR4/2ch4r-enhanced-1k", 0x7a78cb09c22a6038),
    ("GDDR5/1ch1r", 0x386735e82830249a),
    ("GDDR5/2ch2r", 0x3d80676580ffdd39),
    ("GDDR5/2ch4r-enhanced-1k", 0x3c83fd8d0b9dd16b),
    ("HBM/1ch1r", 0x8c35c31c0e48e78e),
    ("HBM/2ch2r", 0x0d32e83ae04e8506),
    ("HBM/2ch4r-enhanced-1k", 0x50a45ecf37d9fba4),
];

/// Long multi-batch streams reproduce the pinned digests exactly, and tracing changes
/// no timing decision or counter.
#[test]
fn long_streams_match_pinned_digests() {
    let mut got = Vec::new();
    for (label, cfg) in long_stream_configs() {
        let traced = long_run(cfg, true);
        let plain = long_run(cfg, false);
        assert_eq!(traced.batches, plain.batches, "{label}");
        assert_eq!(traced.stats, plain.stats, "{label}");
        got.push((label, digest(&traced)));
    }
    let want: Vec<(String, u64)> = PINNED_DIGESTS
        .iter()
        .map(|&(label, d)| (label.to_string(), d))
        .collect();
    assert_eq!(got, want);
}

/// Long multi-batch streams obey every timing constraint, including across the bus
/// window's horizon fold.
#[test]
fn long_multi_batch_streams_obey_timing() {
    for (label, cfg) in long_stream_configs() {
        let run = long_run(cfg, true);
        let trace = run.trace.expect("traced");
        for channel in 0..cfg.org.channels {
            let bursts = trace
                .iter()
                .filter(|c| {
                    c.channel == channel && matches!(c.kind, CommandKind::Rd | CommandKind::Wr)
                })
                .count();
            assert!(
                bursts > 256,
                "{label}: channel {channel} saw {bursts} bursts"
            );
        }
        let violations = check_trace(&cfg, &trace);
        assert!(
            violations.is_empty(),
            "{label}: violations: {:?}",
            &violations[..violations.len().min(3)]
        );
    }
}

#[test]
fn fim_microbenchmark_speedup_is_close_to_4x_in_row() {
    // Fig. 9a: reading strided 8 B items that all sit in open rows approaches the
    // theoretical 4x bandwidth gain at stride 8 (64 B between items).
    let cfg = DramConfig::new(MemoryKind::Ddr4X16, 1, 4);
    let mapper = AddressMapper::new(&cfg);
    let items = 4096u64;
    let stride_bytes = 64u64;

    // Conventional: one 64 B read per 8 B item.
    let mut conv = MemorySystem::new(cfg);
    let t_conv = conv
        .service_batch((0..items).map(|i| MemRequest::Read {
            addr: i * stride_bytes,
            useful_bytes: 8,
            region: Region::Other,
        }))
        .elapsed_clocks();

    // Piccolo: gather 8 items per FIM op, grouped by row.
    let fim_cfg = DramConfig::new(MemoryKind::Ddr4X16, 1, 4).with_fim();
    let mut fim = MemorySystem::new(fim_cfg);
    let mut by_row: std::collections::HashMap<_, Vec<u16>> = std::collections::HashMap::new();
    let mut order = Vec::new();
    for i in 0..items {
        let addr = i * stride_bytes;
        let row = mapper.row_id(addr);
        let entry = by_row.entry(row).or_insert_with(|| {
            order.push(row);
            Vec::new()
        });
        entry.push(mapper.decompose(addr).word_offset());
    }
    let mut reqs = Vec::new();
    for row in order {
        for chunk in by_row[&row].chunks(8) {
            reqs.push(MemRequest::GatherFim {
                row,
                offsets: chunk.to_vec(),
                region: Region::Other,
            });
        }
    }
    let t_fim = fim.service_batch(reqs).elapsed_clocks();

    let speedup = t_conv as f64 / t_fim as f64;
    assert!(
        speedup > 2.0 && speedup < 4.5,
        "in-row strided gather speedup should be near 4x, got {speedup:.2} ({t_conv} vs {t_fim})"
    );
}
