//! The coordinator: leases the deterministic unit grid to TCP workers, streams
//! a resumable journal, and merges the completed grid into `results.json`.
//!
//! # Lease / heartbeat state machine
//!
//! Every grid slot is `Open`, `Leased { worker, deadline }` or `Done(bytes)`.
//! A `next` request takes the lowest-indexed `Open` slots (up to the lease
//! size) and stamps them with a deadline; **every** frame a worker sends —
//! results, heartbeats, relayed events — pushes its deadlines forward. The
//! reaper thread returns expired leases to `Open`, and a worker disconnect
//! releases its leases immediately, so a dead or slow worker's units are
//! re-dispatched to whoever asks next.
//!
//! Execution is therefore **at least once**, and that is safe by construction:
//! results land by global unit index, the grid is deterministic, and every
//! accepted result is normalized to canonical codec bytes
//! ([`PlannedCampaign::validate_result`]) — so a late duplicate from a slow
//! worker is necessarily byte-identical to the slot it finds already `Done`,
//! and is counted and discarded.
//!
//! Each accepted result is appended to the server-side journal **before** its
//! slot flips to `Done` — the exact `repro --resume` line format — so a killed
//! coordinator restarts by replaying its own journal and re-dispatches only
//! the missing units; completed units are never re-executed.
//!
//! When the grid completes, the coordinator evaluates it once
//! ([`PlannedCampaign::evaluate`]), making `results.json` byte-identical to a
//! local `--jobs 1` run; [`merge_journals`] over the server-side journal
//! (`repro --merge serve.journal`) gives the same bytes. The derived `BENCH.json`
//! carries the same deterministic speedup metrics a local run derives; its
//! scheduling stats are empty in networked mode (the coordinator builds no graph).
//!
//! [`merge_journals`]: piccolo::campaign::merge_journals

#![expect(
    clippy::disallowed_methods,
    reason = "lease deadlines decide when a unit is re-dispatched, never what any result contains"
)]

use crate::http;
use crate::protocol::{self, job_msg, parse_msg, reject_msg, result_fields, PROTOCOL_VERSION};
use piccolo::campaign::{CampaignJournal, PlannedCampaign};
use piccolo::json::{parse, Json};
use piccolo::report::results_json;
use piccolo_bench::bench_json;
use piccolo_obs as obs;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Coordinator tunables; every field has a driver flag.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see [`Coordinator::addr`]).
    pub addr: String,
    /// Units per lease. Small leases re-dispatch less on worker death; large
    /// leases amortize graph builds better.
    pub lease_size: usize,
    /// A lease unheard-of for this long goes back to `Open`.
    pub heartbeat_timeout: Duration,
    /// The streamed server-side journal (`repro --resume` line format).
    pub journal: PathBuf,
    /// Where to write `results.json` on completion.
    pub results_out: PathBuf,
    /// Where to write `BENCH.json` on completion (also served over HTTP).
    pub bench_out: Option<PathBuf>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            lease_size: 2,
            heartbeat_timeout: Duration::from_millis(2000),
            journal: PathBuf::from("serve.journal"),
            results_out: PathBuf::from("results.json"),
            bench_out: None,
        }
    }
}

/// One grid slot's lease state.
#[derive(Debug)]
enum Slot {
    Open,
    Leased { conn: u64, deadline: Instant },
    Done(String),
}

/// The mutable coordinator state, behind one mutex.
#[derive(Debug)]
struct Grid {
    slots: Vec<Slot>,
    completed: usize,
    /// Slots prefilled from the journal at startup — never re-executed.
    replayed: usize,
    duplicates: u64,
    lease_timeouts: u64,
    workers_seen: u64,
    /// `Some` once the campaign finalized (evaluation result or error).
    outcome: Option<Result<Finalized, String>>,
    shutting_down: bool,
}

#[derive(Debug, Clone)]
struct Finalized {
    results_doc: String,
    bench_doc: String,
}

/// What a completed campaign looked like from the coordinator's side.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The final `results.json` bytes.
    pub results_doc: String,
    /// Units replayed from the journal at startup (never re-executed).
    pub replayed: usize,
    /// Units executed by workers during this coordinator's lifetime.
    pub executed: usize,
    /// Duplicate results discarded by slot (late arrivals after re-dispatch).
    pub duplicates: u64,
    /// Leases that timed out and were re-dispatched.
    pub lease_timeouts: u64,
    /// Distinct worker connections that reached `ready`.
    pub workers: u64,
}

pub(crate) struct Shared {
    campaign: PlannedCampaign,
    opts_wire: Json,
    cfg: CoordinatorConfig,
    journal: CampaignJournal,
    grid: Mutex<Grid>,
    changed: Condvar,
    conn_ids: AtomicU64,
    /// Live connection-handler threads, joined on shutdown so every worker
    /// span closes (and reaches the sinks) before the process exits.
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A running coordinator. Dropping it does **not** stop the daemon threads;
/// call [`Coordinator::shutdown`] (or let the process exit).
pub struct Coordinator {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    reaper_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

fn lock_grid<'a>(shared: &'a Shared) -> std::sync::MutexGuard<'a, Grid> {
    shared.grid.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_conns<'a>(
    shared: &'a Shared,
) -> std::sync::MutexGuard<'a, Vec<std::thread::JoinHandle<()>>> {
    shared.conns.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Coordinator {
    /// Starts the coordinator: replays the journal (a missing file is an empty
    /// one), binds the listener, and begins accepting workers and HTTP clients.
    /// `opts_wire` is the campaign-shaping [`CommonOpts`] wire JSON sent to
    /// every worker — it must describe exactly the plan `campaign` was built
    /// from, or workers will compute a different plan hash and be rejected.
    ///
    /// # Errors
    ///
    /// Journal replay/open and listener bind errors.
    ///
    /// [`CommonOpts`]: piccolo_bench::cli::CommonOpts
    pub fn start(
        campaign: PlannedCampaign,
        opts_wire: &str,
        cfg: CoordinatorConfig,
    ) -> std::io::Result<Self> {
        let opts_wire = parse(opts_wire).map_err(|e| {
            std::io::Error::new(ErrorKind::InvalidInput, format!("bad options wire: {e}"))
        })?;
        let replay = campaign.replay_journal(&cfg.journal)?;
        if replay.corrupt + replay.mismatched > 0 {
            obs::warn(format!(
                "journal {}: ignored {} corrupt line(s) and {} foreign entr(ies)",
                cfg.journal.display(),
                replay.corrupt,
                replay.mismatched
            ));
        }
        let journal = campaign.open_journal(&cfg.journal)?;
        let mut slots: Vec<Slot> = (0..campaign.num_units()).map(|_| Slot::Open).collect();
        let mut completed = 0usize;
        for (gid, canonical) in replay.entries {
            slots[gid] = Slot::Done(canonical);
            completed += 1;
        }
        let grid = Grid {
            slots,
            completed,
            replayed: completed,
            duplicates: 0,
            lease_timeouts: 0,
            workers_seen: 0,
            outcome: None,
            shutting_down: false,
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            campaign,
            opts_wire,
            cfg,
            journal,
            grid: Mutex::new(grid),
            changed: Condvar::new(),
            conn_ids: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
        });
        obs::info(format!(
            "coordinator: plan {} on {local_addr}: {} unit(s), {} replayed from journal",
            shared.campaign.plan_hex(),
            shared.campaign.num_units(),
            completed,
        ));
        {
            // A journal that already covers the whole grid finalizes immediately
            // (the restart-resume path): zero units re-executed.
            let mut grid = lock_grid(&shared);
            if grid.completed == shared.campaign.num_units() {
                finalize(&shared, &mut grid);
            }
        }
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        let reaper_shared = Arc::clone(&shared);
        let reaper_thread = std::thread::spawn(move || reaper_loop(&reaper_shared));
        Ok(Self {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            reaper_thread: Some(reaper_thread),
        })
    }

    /// The bound address (with the OS-assigned port when `addr` ended in `:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until the campaign completes (every slot `Done`, results merged
    /// and written).
    ///
    /// # Errors
    ///
    /// The merge error, if the completed grid failed plan validation — an
    /// invariant breach, since every slot was validated on arrival.
    pub fn wait_complete(&self) -> Result<CampaignOutcome, String> {
        let mut grid = lock_grid(&self.shared);
        loop {
            if let Some(outcome) = &grid.outcome {
                return outcome
                    .as_ref()
                    .map_err(Clone::clone)
                    .map(|fin| CampaignOutcome {
                        results_doc: fin.results_doc.clone(),
                        replayed: grid.replayed,
                        executed: grid.completed - grid.replayed,
                        duplicates: grid.duplicates,
                        lease_timeouts: grid.lease_timeouts,
                        workers: grid.workers_seen,
                    });
            }
            grid = self
                .shared
                .changed
                .wait(grid)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops the accept and reaper threads, then joins every live connection
    /// handler. The joins are bounded: a worker's next request gets `done`,
    /// its next liveness frame breaks the handler, a silent socket hits the
    /// read timeout, and the `/events` streamer polls the shutdown flag —
    /// and joining is what guarantees every per-worker span closes (and
    /// reaches the sinks) before the process exits.
    pub fn shutdown(mut self) {
        {
            let mut grid = lock_grid(&self.shared);
            grid.shutting_down = true;
            self.shared.changed.notify_all();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reaper_thread.take() {
            let _ = t.join();
        }
        // The accept thread is gone, so no new handlers can appear under us.
        let handlers = std::mem::take(&mut *lock_conns(&self.shared));
        for t in handlers {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, peer)) = listener.accept() else {
            break;
        };
        if lock_grid(shared).shutting_down {
            break;
        }
        let conn_shared = Arc::clone(shared);
        // A connection thread exits when its socket closes, times out, or the
        // worker drains after `done`; the handle is kept so shutdown can join
        // the stragglers.
        let handle = std::thread::spawn(move || {
            // Sniff the first bytes: an HTTP client says "GET ", a worker's
            // first frame starts with a binary length prefix.
            let mut first = [0u8; 4];
            let is_http = matches!(stream.peek(&mut first), Ok(4) if &first == b"GET ");
            if is_http {
                http::handle(stream, &conn_shared);
            } else {
                handle_worker(stream, &conn_shared, peer);
            }
        });
        let mut conns = lock_conns(shared);
        // Retire finished handles so a long-lived daemon doesn't accumulate
        // one handle per connection it ever served.
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
    }
}

/// Returns expired leases to `Open`; runs until shutdown (and keeps running
/// through completion so late workers still get their leases reclaimed — they
/// only matter for the counters at that point).
fn reaper_loop(shared: &Arc<Shared>) {
    let tick = shared.cfg.heartbeat_timeout / 2;
    let mut grid = lock_grid(shared);
    while !grid.shutting_down {
        let (g, _) = shared
            .changed
            .wait_timeout(grid, tick)
            .unwrap_or_else(PoisonError::into_inner);
        grid = g;
        let now = Instant::now();
        let mut expired = 0;
        for slot in &mut grid.slots {
            if matches!(slot, Slot::Leased { deadline, .. } if *deadline <= now) {
                *slot = Slot::Open;
                expired += 1;
            }
        }
        grid.lease_timeouts += expired;
    }
}

/// Merges the completed grid and stores/writes the output documents. Caller
/// holds the grid lock; every slot is `Done`.
fn finalize(shared: &Shared, grid: &mut Grid) {
    let results: Vec<(usize, String)> = grid
        .slots
        .iter()
        .enumerate()
        .map(|(gid, slot)| match slot {
            Slot::Done(canonical) => (gid, canonical.clone()),
            _ => unreachable!("finalize called with a non-Done slot"),
        })
        .collect();
    let outcome = shared.campaign.evaluate(&results).map(|figures| {
        let results_doc = results_json(shared.campaign.scale(), &figures);
        // The coordinator runs no unit, so it has no campaign stats and its own
        // memory peak says nothing about the workers'.
        let bench_doc = bench_json(grid.workers_seen.max(1) as usize, &figures, None);
        Finalized {
            results_doc,
            bench_doc,
        }
    });
    match &outcome {
        Ok(fin) => {
            if let Err(e) = std::fs::write(&shared.cfg.results_out, &fin.results_doc) {
                obs::error(format!(
                    "coordinator: cannot write {}: {e}",
                    shared.cfg.results_out.display()
                ));
            } else {
                obs::info(format!("wrote {}", shared.cfg.results_out.display()));
            }
            if let Some(path) = &shared.cfg.bench_out {
                if let Err(e) = std::fs::write(path, &fin.bench_doc) {
                    obs::error(format!("coordinator: cannot write {}: {e}", path.display()));
                } else {
                    obs::info(format!("wrote {}", path.display()));
                }
            }
        }
        Err(e) => obs::error(format!("coordinator: merge failed: {e}")),
    }
    grid.outcome = Some(outcome);
}

/// Pushes every lease held by `conn` forward — called on any frame from it.
fn extend_leases(grid: &mut Grid, conn: u64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    for slot in &mut grid.slots {
        if let Slot::Leased {
            conn: holder,
            deadline: d,
        } = slot
        {
            if *holder == conn {
                *d = deadline;
            }
        }
    }
}

/// Releases every lease still held by `conn` — called on disconnect.
fn release_leases(grid: &mut Grid, conn: u64) -> usize {
    let mut released = 0;
    for slot in &mut grid.slots {
        if matches!(slot, Slot::Leased { conn: holder, .. } if *holder == conn) {
            *slot = Slot::Open;
            released += 1;
        }
    }
    released
}

fn send_or_break(stream: &mut TcpStream, payload: &str, worker: &str) -> bool {
    if let Err(e) = protocol::send_msg(stream, payload) {
        obs::warn(format!("coordinator: send to {worker} failed: {e}"));
        return false;
    }
    true
}

fn handle_worker(mut stream: TcpStream, shared: &Arc<Shared>, peer: SocketAddr) {
    let conn = shared.conn_ids.fetch_add(1, Ordering::Relaxed);
    // A worker silent for two timeouts is dead even if its socket lingers;
    // heartbeats arrive every timeout/3, so a healthy link never trips this.
    let _ = stream.set_read_timeout(Some(shared.cfg.heartbeat_timeout * 2));

    // Handshake: hello (version check) -> job (options) -> ready (plan check).
    let hello = match protocol::recv_msg(&mut stream) {
        Ok(Some(payload)) => payload,
        _ => return,
    };
    let worker_name = match parse_msg(&hello) {
        Ok((kind, doc)) if kind == "hello" => {
            let version = doc.get("version").and_then(Json::as_f64).unwrap_or(-1.0);
            if version != PROTOCOL_VERSION as f64 {
                let _ = protocol::send_msg(
                    &mut stream,
                    &reject_msg(&format!("protocol version {version} != {PROTOCOL_VERSION}")),
                );
                return;
            }
            doc.get("worker")
                .and_then(Json::as_str)
                .unwrap_or("anonymous")
                .to_string()
        }
        _ => {
            obs::warn(format!("coordinator: {peer} sent no hello; dropping"));
            return;
        }
    };
    if !send_or_break(&mut stream, &job_msg(&shared.opts_wire), &worker_name) {
        return;
    }
    match protocol::recv_msg(&mut stream) {
        Ok(Some(payload)) => match parse_msg(&payload) {
            Ok((kind, doc)) if kind == "ready" => {
                let plan = doc.get("plan").and_then(Json::as_str).unwrap_or("");
                let expected = shared.campaign.plan_hex();
                if plan != expected {
                    obs::warn(format!(
                        "coordinator: {worker_name} computed plan {plan}, expected {expected}; rejecting"
                    ));
                    let _ = protocol::send_msg(
                        &mut stream,
                        &reject_msg(&format!("plan mismatch: {plan} != {expected}")),
                    );
                    return;
                }
            }
            _ => return,
        },
        _ => return,
    }
    lock_grid(shared).workers_seen += 1;

    // Per-worker span attribution: every unit this worker completes and every
    // event it relays hangs off this span in the coordinator's own stream.
    let worker_span = obs::span(
        "worker",
        vec![
            ("worker", worker_name.clone().into()),
            ("peer", peer.to_string().into()),
        ],
    );
    let mut units_done = 0u64;
    let mut leases = 0u64;

    loop {
        let payload = match protocol::recv_msg(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(e) => {
                if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    obs::warn(format!("coordinator: {worker_name}: recv failed: {e}"));
                }
                break;
            }
        };
        let (kind, doc) = match parse_msg(&payload) {
            Ok(parsed) => parsed,
            Err(e) => {
                obs::warn(format!("coordinator: {worker_name}: {e}; dropping"));
                break;
            }
        };
        let mut grid = lock_grid(shared);
        extend_leases(&mut grid, conn, shared.cfg.heartbeat_timeout);
        // After shutdown, liveness frames no longer matter: break so the
        // handler (and its span) can retire instead of being kept alive by a
        // worker that heartbeats forever. `next` still answers `done` below,
        // and results are still accepted and journaled.
        if grid.shutting_down && matches!(kind.as_str(), "heartbeat" | "event") {
            break;
        }
        match kind.as_str() {
            "next" => {
                if grid.outcome.is_some() || grid.shutting_down {
                    drop(grid);
                    let _ = protocol::send_msg(&mut stream, &protocol::done_msg());
                    break;
                }
                let deadline = Instant::now() + shared.cfg.heartbeat_timeout;
                let mut units = Vec::with_capacity(shared.cfg.lease_size);
                for (gid, slot) in grid.slots.iter_mut().enumerate() {
                    if matches!(slot, Slot::Open) {
                        *slot = Slot::Leased { conn, deadline };
                        units.push(gid);
                        if units.len() == shared.cfg.lease_size {
                            break;
                        }
                    }
                }
                drop(grid);
                if units.is_empty() {
                    // Everything is leased or done; the straggler leases may
                    // yet time out, so tell the worker to ask again soon.
                    let ms = (shared.cfg.heartbeat_timeout.as_millis() / 4).max(10) as u64;
                    if !send_or_break(&mut stream, &protocol::wait_msg(ms), &worker_name) {
                        break;
                    }
                } else {
                    leases += 1;
                    if !send_or_break(&mut stream, &protocol::lease_msg(&units), &worker_name) {
                        break;
                    }
                }
            }
            "result" => {
                let (unit, result_json) = match result_fields(&doc) {
                    Ok(fields) => fields,
                    Err(e) => {
                        obs::warn(format!("coordinator: {worker_name}: {e}; dropping"));
                        break;
                    }
                };
                // Validation normalizes to canonical bytes — but never trust
                // the wire: a result failing validation costs the worker its
                // connection, and the slot goes back to Open via lease release.
                let canonical = match shared.campaign.validate_result(unit, &result_json) {
                    Ok(canonical) => canonical,
                    Err(e) => {
                        drop(grid);
                        obs::warn(format!("coordinator: {worker_name}: rejected result: {e}"));
                        break;
                    }
                };
                if matches!(grid.slots[unit], Slot::Done(_)) {
                    // At-least-once: a re-dispatched unit's late twin. The
                    // grid is deterministic, so the bytes are identical —
                    // count it and drop it by slot.
                    grid.duplicates += 1;
                    obs::debug(format!(
                        "coordinator: duplicate result for unit {unit} from {worker_name} discarded"
                    ));
                } else {
                    // Journal first: a crash between journal and slot flip
                    // costs nothing (replay fills the slot); the reverse order
                    // would lose the unit on restart.
                    shared.journal.record_result(unit, &canonical);
                    grid.slots[unit] = Slot::Done(canonical);
                    grid.completed += 1;
                    units_done += 1;
                    obs::point_with_parent(
                        "unit_received",
                        worker_span.id(),
                        vec![
                            ("unit", (unit as u64).into()),
                            ("worker", worker_name.clone().into()),
                        ],
                    );
                    if grid.completed == shared.campaign.num_units() {
                        finalize(shared, &mut grid);
                        shared.changed.notify_all();
                    }
                }
            }
            "heartbeat" => {}
            "event" => {
                // Relay: re-emit the worker's event line as a point under this
                // worker's span. The payload stays a string field, so the
                // coordinator's own stream stays span-balanced no matter what
                // the worker emitted.
                if let Some(line) = doc.get("payload").and_then(Json::as_str) {
                    obs::point_with_parent(
                        "relay",
                        worker_span.id(),
                        vec![
                            ("worker", worker_name.clone().into()),
                            ("payload", line.to_string().into()),
                        ],
                    );
                }
            }
            other => {
                obs::warn(format!(
                    "coordinator: {worker_name}: unknown message type '{other}'; ignoring"
                ));
            }
        }
    }

    let released = {
        let mut grid = lock_grid(shared);
        let released = release_leases(&mut grid, conn);
        if released > 0 {
            shared.changed.notify_all();
        }
        released
    };
    if released > 0 {
        obs::info(format!(
            "coordinator: {worker_name} disconnected holding {released} lease(s); re-dispatching"
        ));
    }
    worker_span.close(vec![
        ("units", units_done.into()),
        ("leases", leases.into()),
        ("released", (released as u64).into()),
    ]);
}

/// Read-only snapshot for the HTTP `/status` endpoint.
pub(crate) fn status_doc(shared: &Shared) -> String {
    let grid = lock_grid(shared);
    let leased = grid
        .slots
        .iter()
        .filter(|s| matches!(s, Slot::Leased { .. }))
        .count();
    Json::obj([
        ("schema", Json::str("piccolo-serve-status/v1")),
        ("plan", Json::str(shared.campaign.plan_hex())),
        ("units", Json::Num(shared.campaign.num_units() as f64)),
        ("completed", Json::Num(grid.completed as f64)),
        ("replayed", Json::Num(grid.replayed as f64)),
        ("leased", Json::Num(leased as f64)),
        ("duplicates", Json::Num(grid.duplicates as f64)),
        ("lease_timeouts", Json::Num(grid.lease_timeouts as f64)),
        ("workers", Json::Num(grid.workers_seen as f64)),
        ("done", Json::Bool(grid.outcome.is_some())),
    ])
    .to_string()
}

/// The finalized documents, if the campaign completed (for HTTP).
pub(crate) fn finalized_docs(shared: &Shared) -> Option<(String, String)> {
    let grid = lock_grid(shared);
    match &grid.outcome {
        Some(Ok(fin)) => Some((fin.results_doc.clone(), fin.bench_doc.clone())),
        _ => None,
    }
}

/// Whether shutdown was requested (ends the HTTP `/events` stream).
pub(crate) fn is_shutting_down(shared: &Shared) -> bool {
    lock_grid(shared).shutting_down
}
