//! Loopback networked campaigns: a `piccolo-serve` coordinator plus in-process
//! workers over 127.0.0.1 must produce `results.json` **byte-identical** to a
//! local sequential run — through worker death mid-lease, duplicate result
//! delivery, and a coordinator restart that resumes from its streamed journal
//! without re-executing a single completed unit. This is the test-scale pin of
//! the CI `serve-smoke` job (which exercises the same story through the real
//! binaries and `kill -9`).

use piccolo::campaign::{merge_journals, PlannedCampaign};
use piccolo::json::{parse, Json};
use piccolo::report::results_json;
use piccolo::sweep::SweepRunner;
use piccolo_bench::cli::{build_campaign, CommonOpts, FlagSet};
use piccolo_bench::figure_metrics;
use piccolo_serve::protocol;
use piccolo_serve::{run_worker, Coordinator, CoordinatorConfig, WorkerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

/// The campaign options every side (reference run, coordinator, workers)
/// derives its plan from: two measure-only figures at quick scale — 13 grid
/// units, no graph builds, so the whole loopback dance stays fast.
fn campaign_opts() -> CommonOpts {
    let mut opts = CommonOpts::new(FlagSet::all());
    opts.figures = vec!["fig09".to_string(), "table2".to_string()];
    opts.quick = true;
    opts
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("piccolo-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed HTTP response: {response:?}"));
    (head.to_string(), body.to_string())
}

/// A hand-rolled worker that dies mid-lease: completes the handshake, takes a
/// lease, streams its **first** unit's result twice (the duplicate-delivery
/// case), then drops the socket while still holding the rest of the lease (the
/// killed-mid-unit case). Returns the abandoned unit count.
fn saboteur_worker(addr: SocketAddr, campaign: &PlannedCampaign) -> usize {
    let mut stream = TcpStream::connect(addr).unwrap();
    protocol::send_msg(&mut stream, &protocol::hello_msg("saboteur")).unwrap();
    let job = protocol::recv_msg(&mut stream).unwrap().unwrap();
    let (kind, _) = protocol::parse_msg(&job).unwrap();
    assert_eq!(kind, "job");
    protocol::send_msg(&mut stream, &protocol::ready_msg(&campaign.plan_hex())).unwrap();
    protocol::send_msg(&mut stream, &protocol::next_msg()).unwrap();
    let reply = protocol::recv_msg(&mut stream).unwrap().unwrap();
    let (kind, doc) = protocol::parse_msg(&reply).unwrap();
    assert_eq!(kind, "lease", "a fresh grid must lease immediately");
    let units = protocol::lease_units(&doc).unwrap();
    assert!(
        units.len() > 1,
        "need a multi-unit lease to abandon part of it"
    );

    // Execute only the first leased unit, locally and sequentially.
    let first = units[0];
    let result = std::sync::Mutex::new(String::new());
    campaign
        .execute_units(1, &[first], &|_, result_json| {
            result.lock().unwrap().push_str(result_json);
        })
        .unwrap();
    let result = result.into_inner().unwrap();
    // Deliver it twice: at-least-once delivery means the second, byte-identical
    // copy must be discarded by slot, not double-counted.
    protocol::send_msg(&mut stream, &protocol::result_msg(first, &result)).unwrap();
    protocol::send_msg(&mut stream, &protocol::result_msg(first, &result)).unwrap();
    // The socket drops here with the remaining lease units unfinished — the
    // coordinator must release and re-dispatch them.
    units.len() - 1
}

#[test]
fn networked_campaign_survives_worker_death_with_identical_bytes() {
    let dir = scratch("loopback");

    // The reference: the same plan, run locally and sequentially.
    let opts = campaign_opts();
    let setup = build_campaign(&opts).unwrap();
    let reference = SweepRunner::sequential().run_campaign(&setup.specs);
    let expected = results_json(setup.scale, &reference.figures);
    let num_units = reference.stats.sim_runs + reference.stats.measure_units;

    let setup = build_campaign(&opts).unwrap();
    let coordinator = Coordinator::start(
        PlannedCampaign::new(setup.scale, setup.specs),
        &opts.to_wire_json(),
        CoordinatorConfig {
            lease_size: 2,
            journal: dir.join("serve.journal"),
            results_out: dir.join("results.json"),
            bench_out: Some(dir.join("BENCH.json")),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr();

    // Before any worker: HTTP status serves, results do not (503).
    let (head, body) = http_get(addr, "/status");
    assert!(head.starts_with("HTTP/1.1 200"), "status head: {head}");
    assert!(body.contains("\"done\":false") && body.contains("\"completed\":0"));
    let (head, _) = http_get(addr, "/results.json");
    assert!(
        head.starts_with("HTTP/1.1 503"),
        "incomplete campaign: {head}"
    );
    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"));

    // A worker dies mid-lease first (deterministically, before anyone else can
    // drain the grid), then two healthy workers finish the campaign.
    let local_setup = build_campaign(&opts).unwrap();
    let local_campaign = PlannedCampaign::new(local_setup.scale, local_setup.specs);
    let abandoned = saboteur_worker(addr, &local_campaign);
    assert!(abandoned >= 1);

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                run_worker(
                    &addr,
                    &WorkerConfig {
                        jobs: 1 + i,
                        name: format!("loopback-{i}"),
                        ..WorkerConfig::default()
                    },
                )
            })
        })
        .collect();

    let outcome = coordinator.wait_complete().unwrap();
    assert_eq!(
        outcome.results_doc, expected,
        "networked == sequential bytes"
    );
    assert_eq!(outcome.replayed, 0);
    assert_eq!(outcome.executed, num_units);
    assert_eq!(outcome.duplicates, 1, "the saboteur's double delivery");
    assert_eq!(outcome.workers, 3, "saboteur + two healthy workers");

    let mut healthy_units = 0;
    for worker in workers {
        let summary = worker.join().unwrap().unwrap();
        healthy_units += summary.units;
    }
    // The healthy workers executed everything except the saboteur's one unit —
    // including the lease units it abandoned mid-flight.
    assert_eq!(healthy_units, num_units - 1);

    // The served document is the written document is the reference document.
    let (head, body) = http_get(addr, "/results.json");
    assert!(head.starts_with("HTTP/1.1 200"));
    assert_eq!(body, expected);
    assert_eq!(
        std::fs::read_to_string(dir.join("results.json")).unwrap(),
        expected
    );
    let (_, status) = http_get(addr, "/status");
    assert!(status.contains("\"done\":true"));
    let (head, bench) = http_get(addr, "/BENCH.json");
    assert!(head.starts_with("HTTP/1.1 200"));
    assert!(bench.contains("\"schema\":\"piccolo-bench/v2\""));
    // The served speedup metrics are the ones the sequential run derives.
    let expected_metrics = figure_metrics(&reference.figures);
    assert!(expected_metrics
        .iter()
        .any(|(name, _)| name == "fig09/gm_fim_speedup"));
    let served = parse(bench.trim()).unwrap();
    let served_metrics: Vec<(String, f64)> = served
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap()
        .iter()
        .map(|(name, value)| (name.clone(), value.as_f64().unwrap()))
        .collect();
    assert_eq!(served_metrics, expected_metrics);
    coordinator.shutdown();

    // The streamed journal is an ordinary run journal: merging it alone, as
    // `repro --merge serve.journal` does, gives the same bytes.
    let setup = build_campaign(&opts).unwrap();
    let merged = merge_journals(setup.scale, &setup.specs, &[dir.join("serve.journal")]).unwrap();
    assert_eq!(results_json(setup.scale, &merged), expected);

    // Restart: the streamed journal alone must finalize the campaign — zero
    // units re-executed — and serve/write the same bytes.
    let setup = build_campaign(&opts).unwrap();
    let restarted = Coordinator::start(
        PlannedCampaign::new(setup.scale, setup.specs),
        &opts.to_wire_json(),
        CoordinatorConfig {
            journal: dir.join("serve.journal"),
            results_out: dir.join("results-restart.json"),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let outcome = restarted.wait_complete().unwrap();
    assert_eq!(
        outcome.replayed, num_units,
        "everything replays from journal"
    );
    assert_eq!(outcome.executed, 0, "zero re-executed completed units");
    assert_eq!(outcome.results_doc, expected);
    assert_eq!(
        std::fs::read_to_string(dir.join("results-restart.json")).unwrap(),
        expected
    );
    // A late worker is told the campaign is done and exits clean and idle.
    let late = run_worker(
        &restarted.addr().to_string(),
        &WorkerConfig {
            name: "late".to_string(),
            ..WorkerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(late.units, 0);
    restarted.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_rejects_plan_and_version_mismatches() {
    let dir = scratch("reject");
    let opts = campaign_opts();
    let setup = build_campaign(&opts).unwrap();
    let coordinator = Coordinator::start(
        PlannedCampaign::new(setup.scale, setup.specs),
        &opts.to_wire_json(),
        CoordinatorConfig {
            journal: dir.join("serve.journal"),
            results_out: dir.join("results.json"),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr();

    // A worker whose plan hash differs (different figures, scale, code) must be
    // rejected before it can take a lease.
    let mut stream = TcpStream::connect(addr).unwrap();
    protocol::send_msg(&mut stream, &protocol::hello_msg("wrong-plan")).unwrap();
    let job = protocol::recv_msg(&mut stream).unwrap().unwrap();
    assert_eq!(protocol::parse_msg(&job).unwrap().0, "job");
    protocol::send_msg(&mut stream, &protocol::ready_msg("0000000000000000")).unwrap();
    let reply = protocol::recv_msg(&mut stream).unwrap().unwrap();
    let (kind, doc) = protocol::parse_msg(&reply).unwrap();
    assert_eq!(kind, "reject");
    assert!(doc
        .get("reason")
        .and_then(Json::as_str)
        .unwrap()
        .contains("plan mismatch"));

    // A hello nested past the parser's depth bound is dropped like any other
    // unparseable hello, instead of overflowing the connection thread's stack.
    let mut stream = TcpStream::connect(addr).unwrap();
    protocol::send_msg(&mut stream, &"[".repeat(100_000)).unwrap();
    assert!(matches!(protocol::recv_msg(&mut stream), Ok(None) | Err(_)));

    // A wrong protocol version is rejected at hello (the coordinator survived).
    let mut stream = TcpStream::connect(addr).unwrap();
    protocol::send_msg(
        &mut stream,
        r#"{"type":"hello","version":999,"worker":"future"}"#,
    )
    .unwrap();
    let reply = protocol::recv_msg(&mut stream).unwrap().unwrap();
    let (kind, _) = protocol::parse_msg(&reply).unwrap();
    assert_eq!(kind, "reject");

    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
