//! The live `--progress` renderer.
//!
//! A [`Sink`] that folds campaign events into running totals — units done per
//! figure, active graph builds, evictions — and renders a one-line status to
//! stderr. The ETA comes from the campaign's own deterministic unit-cost
//! estimates (the `cost` fields on `campaign`/`unit` events), scaled by
//! observed wall-clock: `eta = elapsed * remaining_cost / done_cost`.
//!
//! On a TTY the line redraws in place (`\r`); otherwise (CI logs) full lines
//! are printed, throttled to one per second plus one per figure completion so
//! logs stay readable.

use crate::sink::Sink;
use crate::{Event, EventKind, Fields, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::IsTerminal;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

fn field_u64(fields: &Fields, key: &str) -> Option<u64> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::U64(n) => Some(*n),
            _ => None,
        })
}

fn field_str<'a>(fields: &'a Fields, key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

/// Folded progress state. Public for rendering tests; drivers only ever
/// construct the sink via [`crate::add_progress`].
#[derive(Debug, Default)]
pub struct ProgressState {
    units_total: u64,
    units_done: u64,
    cost_total: u64,
    cost_done: u64,
    builds_total: u64,
    builds_done: u64,
    builds_active: u64,
    evicted: u64,
    /// figure name → (done, total), insertion-ordered by plan order.
    figures: BTreeMap<String, (u64, u64)>,
}

impl ProgressState {
    /// Folds one event; returns whether the display should refresh eagerly
    /// (figure/build transitions) rather than waiting for the throttle.
    pub fn apply(&mut self, event: &Event) -> bool {
        match &event.kind {
            EventKind::Open { span, fields, .. } => match *span {
                "campaign" => {
                    self.units_total += field_u64(fields, "units").unwrap_or(0);
                    self.cost_total += field_u64(fields, "cost_total").unwrap_or(0);
                    self.builds_total += field_u64(fields, "builds").unwrap_or(0);
                    true
                }
                "graph_build" => {
                    self.builds_active += 1;
                    true
                }
                _ => false,
            },
            EventKind::Close { span, fields, .. } => match *span {
                "graph_build" => {
                    self.builds_active = self.builds_active.saturating_sub(1);
                    self.builds_done += 1;
                    true
                }
                "unit" => {
                    self.units_done += 1;
                    self.cost_done += field_u64(fields, "cost").unwrap_or(0);
                    if let Some(fig) = field_str(fields, "figure") {
                        let entry = self.figures.entry(fig.to_string()).or_insert((0, 0));
                        entry.0 += 1;
                        entry.0 >= entry.1
                    } else {
                        false
                    }
                }
                "campaign" => true,
                _ => false,
            },
            EventKind::Point { name, fields, .. } => match *name {
                "figure_plan" => {
                    if let Some(fig) = field_str(fields, "figure") {
                        let entry = self.figures.entry(fig.to_string()).or_insert((0, 0));
                        entry.1 += field_u64(fields, "units").unwrap_or(0);
                    }
                    false
                }
                "graph_evict" => {
                    self.evicted += 1;
                    false
                }
                _ => false,
            },
            EventKind::Log { .. } => false,
        }
    }

    /// Renders the one-line status. `eta_secs` is appended when `Some`.
    #[must_use]
    pub fn render(&self, eta_secs: Option<u64>) -> String {
        let mut line = format!("progress: {}/{} unit(s)", self.units_done, self.units_total);
        // Show the figures currently in flight (started, unfinished) — there
        // are only ever a handful at a time, however many the campaign has.
        let in_flight: Vec<String> = self
            .figures
            .iter()
            .filter(|(_, (done, total))| *done > 0 && done < total)
            .take(4)
            .map(|(name, (done, total))| format!("{name} {done}/{total}"))
            .collect();
        if !in_flight.is_empty() {
            let _ = write!(line, " [{}]", in_flight.join(", "));
        }
        if self.builds_total > 0 {
            let _ = write!(line, ", builds {}/{}", self.builds_done, self.builds_total);
            if self.builds_active > 0 {
                let _ = write!(line, " ({} active)", self.builds_active);
            }
        }
        if self.evicted > 0 {
            let _ = write!(line, ", {} evicted", self.evicted);
        }
        if let Some(eta) = eta_secs {
            let _ = write!(line, ", eta {eta}s");
        }
        line
    }

    /// The ETA in whole seconds given elapsed wall-clock, from the cost model.
    #[must_use]
    pub fn eta_secs(&self, elapsed_secs: f64) -> Option<u64> {
        if self.cost_done == 0 || self.cost_total <= self.cost_done {
            return None;
        }
        let eta = (elapsed_secs * (self.cost_total - self.cost_done) as f64 / self.cost_done as f64)
            .ceil() as u64;
        Some(eta)
    }

    /// Whether every planned unit has completed.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.units_total > 0 && self.units_done >= self.units_total
    }
}

struct Inner {
    state: ProgressState,
    started: Option<Instant>,
    last_render: Option<Instant>,
    last_width: usize,
}

/// The `--progress` sink. See the module docs.
pub struct ProgressSink {
    inner: Mutex<Inner>,
    tty: bool,
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSink")
            .field("tty", &self.tty)
            .finish()
    }
}

impl ProgressSink {
    /// Creates the sink, detecting whether stderr is a TTY.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                state: ProgressState::default(),
                started: None,
                last_render: None,
                last_width: 0,
            }),
            tty: std::io::stderr().is_terminal(),
        }
    }
}

impl Default for ProgressSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink for ProgressSink {
    #[expect(
        clippy::disallowed_methods,
        reason = "the elapsed time and the render throttle only reach the progress line on stderr"
    )]
    #[expect(clippy::print_stderr, reason = "the progress line is drawn on stderr")]
    fn emit(&self, event: &Event) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let started = *inner.started.get_or_insert_with(Instant::now);
        let eager = inner.state.apply(event);
        let finished = inner.state.finished()
            && matches!(&event.kind, EventKind::Close { span, .. } if *span == "campaign");
        let due = inner
            .last_render
            .is_none_or(|t| t.elapsed().as_millis() >= if self.tty { 100 } else { 1000 });
        if !(eager || finished || due) {
            return;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let eta = if finished {
            None
        } else {
            inner.state.eta_secs(elapsed)
        };
        let line = inner.state.render(eta);
        if self.tty {
            let width = line.len();
            eprint!("\r{line:<pad$}", pad = inner.last_width.max(width));
            inner.last_width = width;
            if finished {
                eprintln!();
            }
        } else {
            eprintln!("{line}");
        }
        inner.last_render = Some(Instant::now());
    }

    #[expect(
        clippy::print_stderr,
        reason = "ends an unfinished progress line on stderr"
    )]
    fn flush(&self) {
        if self.tty {
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if inner.last_width > 0 && !inner.state.finished() {
                eprintln!();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn ev(kind: EventKind) -> Event {
        Event {
            seq: 0,
            t_ns: 0,
            kind,
        }
    }

    #[test]
    fn state_folds_a_campaign_and_estimates_eta() {
        let mut st = ProgressState::default();
        st.apply(&ev(EventKind::Open {
            span: "campaign",
            id: 1,
            parent: None,
            fields: vec![
                ("units", 4u64.into()),
                ("cost_total", 100u64.into()),
                ("builds", 2u64.into()),
            ],
        }));
        st.apply(&ev(EventKind::Point {
            name: "figure_plan",
            parent: Some(1),
            fields: vec![("figure", "fig10".into()), ("units", 4u64.into())],
        }));
        st.apply(&ev(EventKind::Open {
            span: "graph_build",
            id: 2,
            parent: Some(1),
            fields: vec![],
        }));
        assert_eq!(
            st.render(None),
            "progress: 0/4 unit(s), builds 0/2 (1 active)"
        );
        st.apply(&ev(EventKind::Close {
            span: "graph_build",
            id: 2,
            dur_ns: 5,
            fields: vec![],
        }));
        st.apply(&ev(EventKind::Close {
            span: "unit",
            id: 3,
            dur_ns: 5,
            fields: vec![("figure", "fig10".into()), ("cost", 25u64.into())],
        }));
        st.apply(&ev(EventKind::Point {
            name: "graph_evict",
            parent: Some(1),
            fields: vec![],
        }));
        // 25 of 100 cost units done in 1s → 3s remaining.
        assert_eq!(st.eta_secs(1.0), Some(3));
        assert_eq!(
            st.render(st.eta_secs(1.0)),
            "progress: 1/4 unit(s) [fig10 1/4], builds 1/2, 1 evicted, eta 3s"
        );
        assert!(!st.finished());
        for _ in 0..3 {
            st.apply(&ev(EventKind::Close {
                span: "unit",
                id: 9,
                dur_ns: 5,
                fields: vec![("figure", "fig10".into()), ("cost", 25u64.into())],
            }));
        }
        assert!(st.finished());
        assert_eq!(st.eta_secs(4.0), None);
    }
}
