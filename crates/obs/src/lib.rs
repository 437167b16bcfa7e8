//! Structured tracing and event-stream sinks for the Piccolo stack.
//!
//! `piccolo-obs` is where the workspace reads wall-clock time for reporting:
//! the event timestamp and the progress renderer, each with its own waiver
//! (clippy's `disallowed_methods` rejects `Instant::now` everywhere else in
//! this crate and, bar a few waived sites, the workspace). Everything it captures
//! flows **out** of the simulation — into an event log or stderr — and never
//! back into any deterministic artifact: `results.json`, run journals and plan
//! hashes are byte-identical with tracing on or off, at any `--jobs` / shard /
//! resume split. See `docs/observability.md`.
//!
//! The crate is hand-rolled and dependency-free, like the rest of the
//! workspace. It provides:
//!
//! * **Spans and events** — explicit-guard spans ([`span`], [`span_with_parent`],
//!   [`Span::close`]) with monotonic timestamps, parent ids and key/value
//!   [`Value`] fields, plus point events ([`point`]) and leveled log lines
//!   ([`log`], [`info`], …), all fanned out through a pluggable [`Sink`] trait.
//! * **Sinks** — a checksummed-line JSONL sink ([`sink::JsonlSink`], schema
//!   `piccolo-events/v1`, sharing the run journal's line codec in
//!   [`linecodec`]), a leveled stderr sink ([`sink::StderrSink`], the home of
//!   every driver log line), and a live progress renderer
//!   ([`progress::ProgressSink`]).
//! * **Validation** — [`check::check_events`], the library behind
//!   `graphtool events-check`.
//! * **Codecs** — the workspace's one JSON module ([`json`], re-exported as
//!   `piccolo::json`), its one FNV-1a hasher ([`hash`]) and the checksummed line
//!   codec ([`linecodec`]) that frames journals and event logs.
//!   They live here because this is the lowest crate that needs them. Unlike
//!   the tracing above, they do feed deterministic artifacts (`results.json`,
//!   journals, `.pcsr` checksums), so their output bytes are frozen.
//!
//! # Emission is free when nothing listens
//!
//! Span and point emission is gated on a relaxed atomic: with no sink
//! interested in spans (the default — the stderr sink only wants them at
//! `debug`), [`span`] returns an inert guard without taking any lock, so
//! instrumented hot paths cost one atomic load.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod hash;
pub mod json;
pub mod linecodec;
pub mod progress;
pub mod sink;

use sink::{Sink, StderrSink};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Schema identifier of the event log written by [`sink::JsonlSink`].
pub const EVENTS_SCHEMA: &str = "piccolo-events/v1";

/// Severity of a log line ([`log`] and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// A failure the driver is about to act on (usually by exiting non-zero).
    Error = 1,
    /// Something surprising that does not stop the run.
    Warn = 2,
    /// Normal operational notes (cache hits, resume summaries, output paths).
    Info = 3,
    /// High-volume detail, including rendered span traffic.
    Debug = 4,
}

impl Level {
    /// The lowercase tag the stderr sink prefixes lines with (`info: …`).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// A verbosity threshold for the stderr sink (`--log-level`).
///
/// `Quiet` silences everything, including errors; each other variant shows
/// lines at its level and below (so `Info` — the default — shows
/// `error`/`warn`/`info`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LevelFilter {
    /// Show nothing.
    Quiet = 0,
    /// Show `error` only.
    Error = 1,
    /// Show `error` and `warn`.
    Warn = 2,
    /// Show `error`, `warn` and `info` (the default).
    Info = 3,
    /// Show everything, including rendered span traffic.
    Debug = 4,
}

impl LevelFilter {
    /// Parses a `--log-level` argument (`quiet|error|warn|info|debug`).
    #[must_use]
    pub fn parse(name: &str) -> Option<LevelFilter> {
        Some(match name {
            "quiet" => LevelFilter::Quiet,
            "error" => LevelFilter::Error,
            "warn" => LevelFilter::Warn,
            "info" => LevelFilter::Info,
            "debug" => LevelFilter::Debug,
            _ => return None,
        })
    }

    /// Whether a line at `level` passes this filter.
    #[must_use]
    pub fn allows(self, level: Level) -> bool {
        self as u8 >= level as u8
    }
}

/// A field value attached to a span or point event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned counter/quantity. Serialized as a decimal *string* in JSON
    /// payloads — the workspace's lossless number codec (u64 can exceed 2^53).
    U64(u64),
    /// A short label (figure names, build specs, statuses).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

/// Named fields attached to one span or event.
pub type Fields = Vec<(&'static str, Value)>;

/// One record on the event stream, as delivered to every [`Sink`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global sequence number, 1-based, gapless per process in emission order.
    pub seq: u64,
    /// Monotonic nanoseconds since the first emission in this process.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The payload variants of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened.
    Open {
        /// Span name from the fixed taxonomy (`campaign`, `unit`, …).
        span: &'static str,
        /// Process-unique span id (1-based).
        id: u64,
        /// Id of the enclosing span, if any. Parents always precede children
        /// on the stream.
        parent: Option<u64>,
        /// Key/value details.
        fields: Fields,
    },
    /// A span closed (every open is eventually matched, panics included —
    /// guards close on drop).
    Close {
        /// Same name the matching `Open` carried.
        span: &'static str,
        /// Matching span id.
        id: u64,
        /// Host wall-clock duration of the span.
        dur_ns: u64,
        /// Key/value details recorded at close time.
        fields: Fields,
    },
    /// An instantaneous event.
    Point {
        /// Event name (`graph_evict`, `figure_plan`, …).
        name: &'static str,
        /// Enclosing span, if any.
        parent: Option<u64>,
        /// Key/value details.
        fields: Fields,
    },
    /// A human-oriented log line (the migrated `eprintln!` traffic).
    Log {
        /// Severity.
        level: Level,
        /// Message text, exactly as the driver formatted it.
        msg: String,
    },
}

impl Event {
    /// The compact single-line JSON payload of this event (without the line
    /// checksum — [`sink::JsonlSink`] adds that via [`linecodec::encode_line`]).
    #[must_use]
    pub fn json_payload(&self) -> String {
        use json::Json;
        let fields_val = |fields: &Fields| {
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| {
                        let val = match v {
                            Value::U64(n) => Json::Str(n.to_string()),
                            Value::Str(s) => Json::Str(s.clone()),
                        };
                        ((*k).to_string(), val)
                    })
                    .collect(),
            )
        };
        let opt_id = |id: Option<u64>| match id {
            Some(id) => Json::Num(id as f64),
            None => Json::Null,
        };
        let mut obj = vec![
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("t_ns".to_string(), Json::Str(self.t_ns.to_string())),
        ];
        match &self.kind {
            EventKind::Open {
                span,
                id,
                parent,
                fields,
            } => {
                obj.push(("ev".to_string(), Json::Str("open".to_string())));
                obj.push(("span".to_string(), Json::Str((*span).to_string())));
                obj.push(("id".to_string(), opt_id(Some(*id))));
                obj.push(("parent".to_string(), opt_id(*parent)));
                obj.push(("fields".to_string(), fields_val(fields)));
            }
            EventKind::Close {
                span,
                id,
                dur_ns,
                fields,
            } => {
                obj.push(("ev".to_string(), Json::Str("close".to_string())));
                obj.push(("span".to_string(), Json::Str((*span).to_string())));
                obj.push(("id".to_string(), opt_id(Some(*id))));
                obj.push(("dur_ns".to_string(), Json::Str(dur_ns.to_string())));
                obj.push(("fields".to_string(), fields_val(fields)));
            }
            EventKind::Point {
                name,
                parent,
                fields,
            } => {
                obj.push(("ev".to_string(), Json::Str("point".to_string())));
                obj.push(("name".to_string(), Json::Str((*name).to_string())));
                obj.push(("parent".to_string(), opt_id(*parent)));
                obj.push(("fields".to_string(), fields_val(fields)));
            }
            EventKind::Log { level, msg } => {
                obj.push(("ev".to_string(), Json::Str("log".to_string())));
                obj.push(("level".to_string(), Json::Str(level.tag().to_string())));
                obj.push(("msg".to_string(), Json::Str(msg.clone())));
            }
        }
        Json::Obj(obj).to_string()
    }
}

/// Opaque handle returned by [`add_sink`], used to detach the sink again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkId(u64);

struct Registry {
    sinks: Vec<(u64, Arc<dyn Sink>)>,
    next_sink: u64,
    seq: u64,
    next_span: u64,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    sinks: Vec::new(),
    next_sink: 1,
    seq: 0,
    next_span: 1,
});
/// Fast gate for log emission (any sink attached at all).
static SINK_COUNT: AtomicUsize = AtomicUsize::new(0);
/// Fast gate for span/point emission (any sink that wants span traffic).
static SPAN_INTEREST: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static STDERR: OnceLock<Arc<StderrSink>> = OnceLock::new();

thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

#[expect(
    clippy::disallowed_methods,
    reason = "event timestamps are what tracing reports, and they only flow out to sinks"
)]
fn now_ns() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

fn recompute_interest(reg: &Registry) {
    SINK_COUNT.store(reg.sinks.len(), Ordering::Release);
    let wants = reg.sinks.iter().any(|(_, s)| s.wants_spans());
    SPAN_INTEREST.store(wants, Ordering::Release);
}

/// Attaches a sink; every subsequent event is delivered to it (in emission
/// order — delivery happens under one global lock, so sinks need no ordering
/// logic of their own).
pub fn add_sink(sink: Arc<dyn Sink>) -> SinkId {
    let mut reg = registry();
    let id = reg.next_sink;
    reg.next_sink += 1;
    reg.sinks.push((id, sink));
    recompute_interest(&reg);
    SinkId(id)
}

/// Detaches a sink previously attached with [`add_sink`]. Returns the sink so
/// the caller can flush or inspect it; `None` if already removed.
pub fn remove_sink(id: SinkId) -> Option<Arc<dyn Sink>> {
    let mut reg = registry();
    let pos = reg.sinks.iter().position(|(sid, _)| *sid == id.0)?;
    let (_, sink) = reg.sinks.remove(pos);
    recompute_interest(&reg);
    Some(sink)
}

/// Flushes every attached sink (drivers call this before exiting — statics
/// never drop, so buffered sink state would otherwise be lost).
pub fn flush_sinks() {
    let sinks: Vec<Arc<dyn Sink>> = registry().sinks.iter().map(|(_, s)| s.clone()).collect();
    for s in sinks {
        s.flush();
    }
}

/// Re-evaluates span interest (called by sinks whose interest is dynamic,
/// e.g. the stderr sink after a level change).
pub fn refresh_interest() {
    let reg = registry();
    recompute_interest(&reg);
}

/// Ensures the process-wide stderr sink is attached and sets its level.
///
/// Drivers call this first thing in `main` (default `LevelFilter::Info`) and
/// again once `--log-level` is parsed. Idempotent.
pub fn init_stderr(filter: LevelFilter) {
    let sink = STDERR.get_or_init(|| {
        let sink = Arc::new(StderrSink::new(filter));
        add_sink(sink.clone());
        sink
    });
    sink.set_level(filter);
    refresh_interest();
}

/// Attaches a `piccolo-events/v1` JSONL sink writing to `path` (`--events`).
///
/// # Errors
///
/// Propagates the error from creating/truncating the file.
pub fn add_events_file(path: &Path) -> std::io::Result<SinkId> {
    Ok(add_sink(Arc::new(sink::JsonlSink::create(path)?)))
}

/// Attaches the live progress renderer (`--progress`).
pub fn add_progress() -> SinkId {
    add_sink(Arc::new(progress::ProgressSink::new()))
}

fn dispatch(make: impl FnOnce(u64, u64) -> Event) {
    let mut reg = registry();
    // Stamp time *inside* the lock: seq order and t_ns order agree in every
    // sink, so the event log is monotone in both (events-check enforces this).
    let t_ns = now_ns();
    reg.seq += 1;
    let event = make(reg.seq, t_ns);
    for (_, sink) in &reg.sinks {
        sink.emit(&event);
    }
}

/// Emits a log line at `level`. With no sink attached this is a no-op.
pub fn log(level: Level, msg: impl Into<String>) {
    if SINK_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    let msg = msg.into();
    dispatch(|seq, t_ns| Event {
        seq,
        t_ns,
        kind: EventKind::Log { level, msg },
    });
}

/// Logs at [`Level::Error`].
pub fn error(msg: impl Into<String>) {
    log(Level::Error, msg);
}
/// Logs at [`Level::Warn`].
pub fn warn(msg: impl Into<String>) {
    log(Level::Warn, msg);
}
/// Logs at [`Level::Info`].
pub fn info(msg: impl Into<String>) {
    log(Level::Info, msg);
}
/// Logs at [`Level::Debug`].
pub fn debug(msg: impl Into<String>) {
    log(Level::Debug, msg);
}

/// Whether span/point emission is currently live (some sink wants spans).
/// Instrumentation can use this to skip building expensive fields.
#[must_use]
pub fn spans_enabled() -> bool {
    SPAN_INTEREST.load(Ordering::Acquire)
}

/// An explicit span guard. Closes (emitting a `close` event) on [`Span::close`]
/// or on drop, whichever comes first, so panics cannot leave a span open.
///
/// Guards are thread-affine (`!Send`): the open and the close must happen on
/// the same thread, which is what keeps the per-thread parent inference in
/// [`span`] correct. Pass [`Span::id`] to [`span_with_parent`] /
/// [`point_with_parent`] to parent work running on *other* threads.
#[derive(Debug)]
pub struct Span {
    live: bool,
    id: u64,
    name: &'static str,
    start_ns: u64,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name`; the parent is the innermost span still open on
/// the *current thread* (explicit cross-thread parents: [`span_with_parent`]).
pub fn span(name: &'static str, fields: Fields) -> Span {
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    span_with_parent(name, parent, fields)
}

/// Opens a span with an explicit parent id (`None` for a root span).
pub fn span_with_parent(name: &'static str, parent: Option<u64>, fields: Fields) -> Span {
    if !spans_enabled() {
        return Span {
            live: false,
            id: 0,
            name,
            start_ns: 0,
            _not_send: PhantomData,
        };
    }
    let (id, start_ns) = {
        let mut reg = registry();
        let start_ns = now_ns();
        reg.seq += 1;
        reg.next_span += 1;
        let id = reg.next_span - 1;
        let event = Event {
            seq: reg.seq,
            t_ns: start_ns,
            kind: EventKind::Open {
                span: name,
                id,
                parent,
                fields,
            },
        };
        for (_, sink) in &reg.sinks {
            sink.emit(&event);
        }
        (id, start_ns)
    };
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span {
        live: true,
        id,
        name,
        start_ns,
        _not_send: PhantomData,
    }
}

impl Span {
    /// The span's id, for parenting work on other threads. `None` while
    /// emission is disabled.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.live.then_some(self.id)
    }

    /// Closes the span now, attaching `fields` to the close event.
    pub fn close(mut self, fields: Fields) {
        self.emit_close(fields);
    }

    fn emit_close(&mut self, fields: Fields) {
        if !self.live {
            return;
        }
        self.live = false;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let (name, id) = (self.name, self.id);
        dispatch(|seq, t_ns| Event {
            seq,
            t_ns,
            kind: EventKind::Close {
                span: name,
                id,
                dur_ns,
                fields,
            },
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit_close(Vec::new());
    }
}

/// Emits a point event parented to the innermost open span on this thread.
pub fn point(name: &'static str, fields: Fields) {
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    point_with_parent(name, parent, fields);
}

/// Emits a point event with an explicit parent id.
pub fn point_with_parent(name: &'static str, parent: Option<u64>, fields: Fields) {
    if !spans_enabled() {
        return;
    }
    dispatch(|seq, t_ns| Event {
        seq,
        t_ns,
        kind: EventKind::Point {
            name,
            parent,
            fields,
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sink::CollectSink;

    // The registry is process-global; obs unit tests that attach sinks
    // serialize on this lock so concurrently running tests cannot observe
    // each other's events.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_balance_with_parent_inference() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let collect = Arc::new(CollectSink::default());
        let id = add_sink(collect.clone());

        let outer = span("campaign", vec![("units", 2u64.into())]);
        let outer_id = outer.id().unwrap();
        {
            let inner = span("unit", vec![("unit", 0u64.into())]);
            assert_ne!(inner.id(), Some(outer_id));
            point("graph_evict", vec![("spec", "g".into())]);
        } // inner closes by drop
        outer.close(vec![("done", 1u64.into())]);

        remove_sink(id);
        let events = collect.take();
        assert_eq!(events.len(), 5);
        let (mut opens, mut closes) = (Vec::new(), Vec::new());
        for e in &events {
            match &e.kind {
                EventKind::Open {
                    span, id, parent, ..
                } => opens.push((*span, *id, *parent)),
                EventKind::Close { span, id, .. } => closes.push((*span, *id)),
                EventKind::Point { name, parent, .. } => {
                    assert_eq!(*name, "graph_evict");
                    // The point nests under the innermost open span.
                    assert_eq!(parent.unwrap(), opens[1].1);
                }
                EventKind::Log { .. } => panic!("no log events emitted"),
            }
        }
        assert_eq!(opens.len(), 2);
        assert_eq!(closes.len(), 2);
        // Parent inference: the unit span nests under the campaign span.
        assert_eq!(opens[1].2, Some(opens[0].1));
        // Sequence numbers are strictly increasing.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn disabled_emission_is_inert() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!spans_enabled());
        let s = span("campaign", vec![]);
        assert_eq!(s.id(), None);
        s.close(vec![]);
        point("graph_evict", vec![]);
        log(Level::Info, "dropped on the floor");
    }

    #[test]
    fn log_events_reach_sinks_even_without_span_interest() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let collect = Arc::new(CollectSink::logs_only());
        let id = add_sink(collect.clone());
        assert!(!spans_enabled());
        let inert = span("campaign", vec![]);
        assert_eq!(inert.id(), None);
        info("hello");
        remove_sink(id);
        let events = collect.take();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0].kind,
            EventKind::Log { level: Level::Info, msg } if msg == "hello"
        ));
    }

    #[test]
    fn json_payload_shapes() {
        let e = Event {
            seq: 3,
            t_ns: 1,
            kind: EventKind::Open {
                span: "unit",
                id: 7,
                parent: Some(2),
                fields: vec![("figure", "fig10".into()), ("cost", 9u64.into())],
            },
        };
        assert_eq!(
            e.json_payload(),
            r#"{"seq":3,"t_ns":"1","ev":"open","span":"unit","id":7,"parent":2,"fields":{"figure":"fig10","cost":"9"}}"#
        );
        let e = Event {
            seq: 4,
            t_ns: 2,
            kind: EventKind::Log {
                level: Level::Warn,
                msg: "a \"quoted\" path".to_string(),
            },
        };
        assert_eq!(
            e.json_payload(),
            r#"{"seq":4,"t_ns":"2","ev":"log","level":"warn","msg":"a \"quoted\" path"}"#
        );
    }

    #[test]
    fn level_filter_parses_and_orders() {
        assert_eq!(LevelFilter::parse("quiet"), Some(LevelFilter::Quiet));
        assert_eq!(LevelFilter::parse("debug"), Some(LevelFilter::Debug));
        assert_eq!(LevelFilter::parse("louder"), None);
        assert!(LevelFilter::Info.allows(Level::Error));
        assert!(LevelFilter::Info.allows(Level::Info));
        assert!(!LevelFilter::Info.allows(Level::Debug));
        assert!(!LevelFilter::Quiet.allows(Level::Error));
    }
}
