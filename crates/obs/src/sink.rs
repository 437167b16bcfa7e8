//! Event sinks: the pluggable receiving end of the event stream.
//!
//! Sinks receive every [`Event`] in emission order, under the dispatcher's
//! global lock — `emit` implementations must be quick and must not emit
//! events themselves. The crate ships three: [`StderrSink`] (leveled human
//! log), [`JsonlSink`] (the checksummed `piccolo-events/v1` log behind
//! `--events`) and [`crate::progress::ProgressSink`] (`--progress`), plus the
//! in-memory [`CollectSink`] for tests.

use crate::{linecodec, Event, EventKind, Level, LevelFilter};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// The receiving end of the event stream. See the module docs for the
/// delivery contract.
pub trait Sink: Send + Sync {
    /// Delivers one event.
    fn emit(&self, event: &Event);
    /// Whether this sink wants span/point traffic. When *no* attached sink
    /// does, span emission short-circuits to a relaxed atomic load, so
    /// instrumentation is effectively free (log lines are always delivered).
    fn wants_spans(&self) -> bool {
        true
    }
    /// Flushes buffered state (called by [`crate::flush_sinks`]).
    fn flush(&self) {}
}

impl std::fmt::Debug for dyn Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn Sink")
    }
}

/// The leveled human sink: renders log lines (and, at `debug`, span traffic)
/// to stderr with a greppable `level: ` tag prefix.
#[derive(Debug)]
pub struct StderrSink {
    level: AtomicU8,
}

impl StderrSink {
    /// Creates the sink with an initial filter.
    #[must_use]
    pub fn new(filter: LevelFilter) -> Self {
        Self {
            level: AtomicU8::new(filter as u8),
        }
    }

    /// Replaces the filter (the `--log-level` flag re-applies this).
    pub fn set_level(&self, filter: LevelFilter) {
        self.level.store(filter as u8, Ordering::Release);
    }

    fn filter(&self) -> LevelFilter {
        match self.level.load(Ordering::Acquire) {
            0 => LevelFilter::Quiet,
            1 => LevelFilter::Error,
            2 => LevelFilter::Warn,
            3 => LevelFilter::Info,
            _ => LevelFilter::Debug,
        }
    }
}

/// Renders `event` for a stderr filter of `filter`; `None` when filtered out.
/// Pure, so the formatting is unit-testable without capturing stderr.
#[must_use]
pub fn render_stderr_line(event: &Event, filter: LevelFilter) -> Option<String> {
    fn fields_suffix(out: &mut String, fields: &crate::Fields) {
        for (k, v) in fields {
            let _ = write!(out, " {k}={v}");
        }
    }
    match &event.kind {
        EventKind::Log { level, msg } => filter
            .allows(*level)
            .then(|| format!("{}: {msg}", level.tag())),
        _ if !filter.allows(Level::Debug) => None,
        EventKind::Open {
            span,
            id,
            parent,
            fields,
        } => {
            let mut line = format!("debug: span open {span}#{id}");
            if let Some(p) = parent {
                let _ = write!(line, " parent=#{p}");
            }
            fields_suffix(&mut line, fields);
            Some(line)
        }
        EventKind::Close {
            span,
            id,
            dur_ns,
            fields,
        } => {
            let mut line = format!("debug: span close {span}#{id} dur_ns={dur_ns}");
            fields_suffix(&mut line, fields);
            Some(line)
        }
        EventKind::Point { name, fields, .. } => {
            let mut line = format!("debug: event {name}");
            fields_suffix(&mut line, fields);
            Some(line)
        }
    }
}

impl Sink for StderrSink {
    fn emit(&self, event: &Event) {
        if let Some(line) = render_stderr_line(event, self.filter()) {
            eprintln!("{line}");
        }
    }

    fn wants_spans(&self) -> bool {
        self.filter().allows(Level::Debug)
    }
}

/// The `piccolo-events/v1` JSONL sink (`--events PATH`).
///
/// Writes one checksummed line per event through the run journal's line codec
/// ([`linecodec::encode_line`]), after a header line carrying the schema id.
/// Each line is appended with a single unbuffered write, so a killed process
/// costs at most its torn final line — exactly the journal's durability story.
/// Write errors are reported to stderr once and further events are dropped;
/// observability must never take down the run it is observing.
#[derive(Debug)]
pub struct JsonlSink {
    file: Mutex<std::fs::File>,
    path: PathBuf,
    failed: AtomicBool,
}

impl JsonlSink {
    /// Creates (truncating) `path` and writes the schema header line. No size
    /// cap: the file grows for the life of the run.
    ///
    /// # Errors
    ///
    /// Propagates file creation / header write errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let mut file = std::fs::File::create(path)?;
        let mut header =
            linecodec::encode_line(&format!(r#"{{"schema":"{}"}}"#, crate::EVENTS_SCHEMA));
        header.push('\n');
        file.write_all(header.as_bytes())?;
        Ok(Self {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            failed: AtomicBool::new(false),
        })
    }

    /// The path this sink writes to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        if self.failed.load(Ordering::Acquire) {
            return;
        }
        let mut line = linecodec::encode_line(&event.json_payload());
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = file.write_all(line.as_bytes()) {
            if !self.failed.swap(true, Ordering::AcqRel) {
                eprintln!(
                    "piccolo-obs: events sink {}: write failed ({e}); further events dropped",
                    self.path.display()
                );
            }
        }
    }

    fn flush(&self) {
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = file.flush();
    }
}

/// An in-memory sink for tests: collects every delivered event.
#[derive(Debug, Default)]
pub struct CollectSink {
    events: Mutex<Vec<Event>>,
    logs_only: bool,
}

impl CollectSink {
    /// A collector that declares no span interest (`wants_spans` = false),
    /// for testing the emission gate.
    #[must_use]
    pub fn logs_only() -> Self {
        Self {
            events: Mutex::new(Vec::new()),
            logs_only: true,
        }
    }

    /// Takes everything collected so far.
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Sink for CollectSink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }

    fn wants_spans(&self) -> bool {
        !self.logs_only
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_event(level: Level, msg: &str) -> Event {
        Event {
            seq: 1,
            t_ns: 0,
            kind: EventKind::Log {
                level,
                msg: msg.to_string(),
            },
        }
    }

    #[test]
    fn stderr_rendering_respects_the_filter() {
        let e = log_event(Level::Info, "snapshot cache hit");
        assert_eq!(
            render_stderr_line(&e, LevelFilter::Info).as_deref(),
            Some("info: snapshot cache hit")
        );
        assert_eq!(render_stderr_line(&e, LevelFilter::Warn), None);
        assert_eq!(render_stderr_line(&e, LevelFilter::Quiet), None);
        let err = log_event(Level::Error, "boom");
        assert_eq!(render_stderr_line(&err, LevelFilter::Quiet), None);
        assert_eq!(
            render_stderr_line(&err, LevelFilter::Error).as_deref(),
            Some("error: boom")
        );
    }

    #[test]
    fn span_traffic_renders_only_at_debug() {
        let open = Event {
            seq: 2,
            t_ns: 10,
            kind: EventKind::Open {
                span: "unit",
                id: 4,
                parent: Some(1),
                fields: vec![("figure", "fig10".into())],
            },
        };
        assert_eq!(render_stderr_line(&open, LevelFilter::Info), None);
        assert_eq!(
            render_stderr_line(&open, LevelFilter::Debug).as_deref(),
            Some("debug: span open unit#4 parent=#1 figure=fig10")
        );
    }

    #[test]
    fn jsonl_sink_writes_checksummed_header_and_events() {
        let dir = std::env::temp_dir().join(format!("piccolo-obs-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&log_event(Level::Info, "one"));
        sink.flush();
        let lines = linecodec::read_lines(&path).unwrap();
        assert_eq!(lines.corrupt, 0);
        assert_eq!(lines.payloads.len(), 2);
        assert_eq!(lines.payloads[0], r#"{"schema":"piccolo-events/v1"}"#);
        assert!(lines.payloads[1].contains(r#""ev":"log""#));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
