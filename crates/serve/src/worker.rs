//! The worker: connects to a coordinator, rebuilds the campaign plan from the
//! wire options, and executes leases until told `done`.
//!
//! The worker owns all the heavy machinery — graph builds, the simulator, the
//! figure sweeps — while the coordinator owns only the grid. The handshake
//! pins determinism end to end: the coordinator sends its [`CommonOpts`] wire
//! object, the worker rebuilds the campaign *independently* and answers with
//! its own plan hash, and a mismatch (different binary, different dataset
//! files behind the same `--external` paths) is rejected before any unit runs.
//!
//! Inside a lease, units stream back the moment each completes — the
//! [`PlannedCampaign::execute_units`] per-unit hook sends a `result` frame
//! under the write lock — so a worker killed mid-lease loses only its
//! unfinished units, never completed ones.
//!
//! A background heartbeat thread keeps the lease deadlines alive during long
//! graph builds and relays this worker's own event stream (spans, log lines)
//! to the coordinator as `event` frames, giving the coordinator's event log
//! per-worker attribution.
//!
//! [`CommonOpts`]: piccolo_bench::cli::CommonOpts

use crate::protocol::{
    self, event_msg, heartbeat_msg, hello_msg, lease_units, next_msg, parse_msg, ready_msg,
    result_msg,
};
use piccolo::campaign::PlannedCampaign;
use piccolo::json::Json;
use piccolo_bench::cli::{build_campaign, CommonOpts};
use piccolo_obs as obs;
use piccolo_obs::sink::RelaySink;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Worker tunables; every field has a driver flag.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Unit-level worker threads for each lease (the worker's `--jobs`; 0 means all
    /// cores).
    pub jobs: usize,
    /// Name reported in `hello` (shows up in the coordinator's worker spans).
    pub name: String,
    /// Connection attempts before giving up (the coordinator may still be
    /// starting when the worker launches).
    pub connect_retries: u32,
    /// Pause between connection attempts.
    pub retry_backoff: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            jobs: 1,
            name: "worker".to_string(),
            connect_retries: 30,
            retry_backoff: Duration::from_millis(200),
        }
    }
}

/// What one worker run accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases taken.
    pub leases: usize,
    /// Units executed and streamed back.
    pub units: usize,
}

fn connect(addr: &str, cfg: &WorkerConfig) -> Result<TcpStream, String> {
    let mut last_err = String::new();
    for attempt in 0..=cfg.connect_retries {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                if attempt > 0 {
                    obs::info(format!("{}: connected after {attempt} retries", cfg.name));
                }
                return Ok(stream);
            }
            Err(e) => {
                last_err = e.to_string();
                std::thread::sleep(cfg.retry_backoff);
            }
        }
    }
    Err(format!(
        "cannot connect to {addr} after {} attempts: {last_err}",
        cfg.connect_retries + 1
    ))
}

/// Guards a frame write: frames must never interleave, and the executor hook,
/// the main loop, and the heartbeat thread all send.
fn send_locked(stream: &Mutex<TcpStream>, payload: &str) -> std::io::Result<()> {
    let mut stream = stream.lock().unwrap_or_else(PoisonError::into_inner);
    protocol::send_msg(&mut *stream, payload)
}

/// Runs a worker against the coordinator at `addr` until the campaign is done
/// or the connection fails.
///
/// # Errors
///
/// Connection failures, protocol violations, a coordinator `reject`, and
/// execution errors, all as human-readable strings (the driver exits nonzero).
#[allow(clippy::too_many_lines)] // one connection's whole state machine, linear
pub fn run_worker(addr: &str, cfg: &WorkerConfig) -> Result<WorkerSummary, String> {
    let stream = connect(addr, cfg)?;
    let _ = stream.set_nodelay(true);
    let reader = Arc::new(Mutex::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?,
    ));
    let writer = Arc::new(Mutex::new(stream));

    send_locked(&writer, &hello_msg(&cfg.name)).map_err(|e| format!("hello failed: {e}"))?;
    let job = recv(&reader)?.ok_or("coordinator hung up before sending a job")?;
    let (kind, doc) = parse_msg(&job)?;
    let opts = match kind.as_str() {
        "job" => {
            let wire = doc.get("opts").ok_or("job frame has no opts")?;
            CommonOpts::from_wire_json(&wire.to_string())?
        }
        "reject" => return Err(reject_reason(&doc)),
        other => return Err(format!("expected job, got '{other}'")),
    };

    // Rebuild the campaign exactly as the coordinator did. `setup.datasets`
    // keeps externally registered graphs alive for the life of the run.
    let setup = build_campaign(&opts).map_err(|e| e.to_string())?;
    let campaign = PlannedCampaign::new(setup.scale, setup.specs);
    send_locked(&writer, &ready_msg(&campaign.plan_hex()))
        .map_err(|e| format!("ready failed: {e}"))?;
    obs::info(format!(
        "{}: plan {} ready ({} units in grid)",
        cfg.name,
        campaign.plan_hex(),
        campaign.num_units()
    ));

    // Heartbeat + event relay: keeps leases alive through long graph builds
    // and forwards this worker's own event stream for coordinator-side
    // attribution. Every frame counts as a heartbeat on the other end.
    let relay = Arc::new(RelaySink::new(4096));
    let relay_id = obs::add_sink(Arc::clone(&relay) as Arc<dyn obs::sink::Sink>);
    let stop = Arc::new(AtomicBool::new(false));
    let hb_writer = Arc::clone(&writer);
    let hb_relay = Arc::clone(&relay);
    let hb_stop = Arc::clone(&stop);
    let heartbeat = std::thread::spawn(move || {
        while !hb_stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(500));
            if hb_stop.load(Ordering::Acquire) {
                break;
            }
            for line in hb_relay.drain() {
                if send_locked(&hb_writer, &event_msg(&line)).is_err() {
                    return;
                }
            }
            if send_locked(&hb_writer, &heartbeat_msg()).is_err() {
                return;
            }
        }
    });
    let finish = |result: Result<WorkerSummary, String>| {
        stop.store(true, Ordering::Release);
        let _ = heartbeat.join();
        obs::remove_sink(relay_id);
        result
    };

    let mut summary = WorkerSummary {
        leases: 0,
        units: 0,
    };
    loop {
        if let Err(e) = send_locked(&writer, &next_msg()) {
            return finish(Err(format!("next failed: {e}")));
        }
        let reply = match recv(&reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                // EOF between frames after work was done is the coordinator
                // exiting; treat it as completion rather than an error.
                return finish(Ok(summary));
            }
            Err(e) => return finish(Err(e)),
        };
        let (kind, doc) = match parse_msg(&reply) {
            Ok(parsed) => parsed,
            Err(e) => return finish(Err(e)),
        };
        match kind.as_str() {
            "lease" => {
                let units = match lease_units(&doc) {
                    Ok(units) => units,
                    Err(e) => return finish(Err(e)),
                };
                summary.leases += 1;
                obs::debug(format!("{}: lease of {} unit(s)", cfg.name, units.len()));
                let send_failed = AtomicBool::new(false);
                let hook = |unit: usize, result_json: &str| {
                    if send_locked(&writer, &result_msg(unit, result_json)).is_err() {
                        send_failed.store(true, Ordering::Release);
                    }
                };
                match campaign.execute_units(cfg.jobs, &units, &hook) {
                    Ok(_) => summary.units += units.len(),
                    Err(e) => return finish(Err(format!("lease execution failed: {e}"))),
                }
                if send_failed.load(Ordering::Acquire) {
                    return finish(Err("coordinator connection lost mid-lease".to_string()));
                }
            }
            "wait" => {
                let ms = doc.get("ms").and_then(Json::as_f64).unwrap_or(100.0);
                std::thread::sleep(Duration::from_millis(ms as u64));
            }
            "done" => {
                obs::info(format!(
                    "{}: campaign complete ({} lease(s), {} unit(s) here)",
                    cfg.name, summary.leases, summary.units
                ));
                return finish(Ok(summary));
            }
            "reject" => return finish(Err(reject_reason(&doc))),
            other => return finish(Err(format!("unexpected message '{other}'"))),
        }
    }
}

fn recv(reader: &Mutex<TcpStream>) -> Result<Option<String>, String> {
    let mut stream = reader.lock().unwrap_or_else(PoisonError::into_inner);
    protocol::recv_msg(&mut *stream).map_err(|e| format!("recv failed: {e}"))
}

fn reject_reason(doc: &Json) -> String {
    format!(
        "coordinator rejected this worker: {}",
        doc.get("reason")
            .and_then(Json::as_str)
            .unwrap_or("unspecified")
    )
}
