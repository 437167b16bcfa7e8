//! Event-log validation — the library behind `graphtool events-check`.
//!
//! Verifies a `piccolo-events/v1` file end to end: line checksums (via the
//! shared [`crate::linecodec`]), the schema header, per-event shape, sequence
//! and timestamp monotonicity, span balance (every open eventually closed,
//! close names matching, parents open before their children), and the
//! unit-count cross-check (closed `unit` spans == the `units` planned by the
//! `campaign` spans).

use crate::json::{parse, Json};
use crate::linecodec;
use std::collections::BTreeMap;
use std::path::Path;

/// Cap on recorded error strings; past this, further errors only bump
/// [`EventsReport::errors_truncated`].
const MAX_ERRORS: usize = 20;

/// The outcome of [`check_events`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventsReport {
    /// Checksum-verified payload lines, including the schema header.
    pub lines: usize,
    /// Lines whose checksum or framing failed (a clean log has zero).
    pub corrupt: usize,
    /// Parsed event records (excludes the header).
    pub events: usize,
    /// `open` records seen.
    pub spans_opened: usize,
    /// `close` records seen.
    pub spans_closed: usize,
    /// `log` records seen.
    pub log_lines: usize,
    /// Closed spans named `unit`.
    pub unit_spans: usize,
    /// Units planned by `campaign` span opens (summed), if any campaign ran.
    pub campaign_units: Option<u64>,
    /// Validation failures, in file order (capped at `MAX_ERRORS`).
    pub errors: Vec<String>,
    /// Errors beyond the cap, counted but not recorded.
    pub errors_truncated: usize,
}

impl EventsReport {
    /// Whether the log is fully valid: checksum-clean and error-free.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.corrupt == 0 && self.errors.is_empty()
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        } else {
            self.errors_truncated += 1;
        }
    }
}

impl std::fmt::Display for EventsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} line(s), {} corrupt, {} event(s): {} open / {} close ({} unit(s){}), {} log line(s)",
            self.lines,
            self.corrupt,
            self.events,
            self.spans_opened,
            self.spans_closed,
            self.unit_spans,
            match self.campaign_units {
                Some(planned) => format!(" of {planned} planned"),
                None => String::new(),
            },
            self.log_lines,
        )
    }
}

fn get_u64(obj: &Json, key: &str) -> Option<u64> {
    obj.get(key).and_then(Json::as_u64)
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(Json::as_str)
}

/// Validates the event log at `path`. See the module docs for what is checked;
/// all findings land in the report ([`EventsReport::clean`] summarizes), so a
/// partially damaged log still yields full diagnostics.
///
/// # Errors
///
/// Only I/O errors reading the file propagate.
pub fn check_events(path: &Path) -> std::io::Result<EventsReport> {
    let scanned = linecodec::read_lines(path)?;
    let mut report = EventsReport {
        lines: scanned.payloads.len(),
        corrupt: scanned.corrupt,
        ..EventsReport::default()
    };

    let mut payloads = scanned.payloads.iter();
    match payloads.next() {
        Some(header) => match parse(header) {
            Ok(doc) => match get_str(&doc, "schema") {
                Some(crate::EVENTS_SCHEMA) => {}
                Some(other) => report.error(format!(
                    "header schema is '{other}', expected '{}'",
                    crate::EVENTS_SCHEMA
                )),
                None => report.error("header line carries no \"schema\" field".to_string()),
            },
            Err(e) => report.error(format!("header line is not valid JSON: {e}")),
        },
        None => {
            report.error("empty log: no schema header line".to_string());
            return Ok(report);
        }
    }

    // Open spans: id → name. BTreeMap so leftover-span reporting is ordered.
    let mut open: BTreeMap<u64, String> = BTreeMap::new();
    let mut ever_opened: BTreeMap<u64, ()> = BTreeMap::new();
    let mut last_seq: Option<u64> = None;
    let mut last_t_ns: Option<u64> = None;
    let mut campaign_units: Option<u64> = None;

    for (index, payload) in payloads.enumerate() {
        let record = index + 2; // 1-based line-of-interest, after the header
        let doc = match parse(payload) {
            Ok(doc) => doc,
            Err(e) => {
                report.error(format!("record {record}: not valid JSON: {e}"));
                continue;
            }
        };
        report.events += 1;

        match get_u64(&doc, "seq") {
            Some(seq) => {
                if let Some(prev) = last_seq {
                    if seq <= prev {
                        report.error(format!(
                            "record {record}: seq {seq} not greater than previous {prev}"
                        ));
                    }
                }
                last_seq = Some(seq);
            }
            None => report.error(format!("record {record}: missing seq")),
        }
        match get_u64(&doc, "t_ns") {
            Some(t_ns) => {
                if let Some(prev) = last_t_ns {
                    if t_ns < prev {
                        report.error(format!(
                            "record {record}: t_ns {t_ns} earlier than previous {prev}"
                        ));
                    }
                }
                last_t_ns = Some(t_ns);
            }
            None => report.error(format!("record {record}: missing t_ns")),
        }

        let parent_ok = |doc: &Json, open: &BTreeMap<u64, String>| -> Result<(), String> {
            match doc.get("parent") {
                None => Err("missing parent field".to_string()),
                Some(Json::Null) => Ok(()),
                Some(v) => match v.as_u64() {
                    Some(pid) if open.contains_key(&pid) => Ok(()),
                    Some(pid) => Err(format!("parent #{pid} is not an open span")),
                    None => Err("parent is neither null nor a span id".to_string()),
                },
            }
        };

        match get_str(&doc, "ev") {
            Some("open") => {
                report.spans_opened += 1;
                let span = get_str(&doc, "span").unwrap_or("");
                if span.is_empty() {
                    report.error(format!("record {record}: open without span name"));
                }
                if let Err(e) = parent_ok(&doc, &open) {
                    report.error(format!("record {record}: open {span}: {e}"));
                }
                match get_u64(&doc, "id") {
                    Some(id) => {
                        if ever_opened.insert(id, ()).is_some() {
                            report.error(format!("record {record}: span id #{id} reused"));
                        }
                        open.insert(id, span.to_string());
                    }
                    None => report.error(format!("record {record}: open without id")),
                }
                if span == "campaign" {
                    if let Some(units) = doc.get("fields").and_then(|f| get_u64(f, "units")) {
                        campaign_units = Some(campaign_units.unwrap_or(0) + units);
                    }
                }
            }
            Some("close") => {
                report.spans_closed += 1;
                let span = get_str(&doc, "span").unwrap_or("");
                if span == "unit" {
                    report.unit_spans += 1;
                }
                if get_u64(&doc, "dur_ns").is_none() {
                    report.error(format!("record {record}: close without dur_ns"));
                }
                match get_u64(&doc, "id") {
                    Some(id) => match open.remove(&id) {
                        Some(opened_as) if opened_as == span => {}
                        Some(opened_as) => report.error(format!(
                            "record {record}: close '{span}' does not match open '{opened_as}' for span #{id}"
                        )),
                        None => report.error(format!(
                            "record {record}: close of span #{id} which is not open"
                        )),
                    },
                    None => report.error(format!("record {record}: close without id")),
                }
            }
            Some("point") => {
                if get_str(&doc, "name").is_none_or(str::is_empty) {
                    report.error(format!("record {record}: point without name"));
                }
                if let Err(e) = parent_ok(&doc, &open) {
                    report.error(format!("record {record}: point: {e}"));
                }
            }
            Some("log") => {
                report.log_lines += 1;
                let level = get_str(&doc, "level").unwrap_or("");
                if !matches!(level, "error" | "warn" | "info" | "debug") {
                    report.error(format!("record {record}: unknown log level '{level}'"));
                }
                if get_str(&doc, "msg").is_none() {
                    report.error(format!("record {record}: log without msg"));
                }
            }
            Some(other) => report.error(format!("record {record}: unknown ev kind '{other}'")),
            None => report.error(format!("record {record}: missing ev kind")),
        }
    }

    for (id, name) in &open {
        report.error(format!("span {name}#{id} never closed"));
    }
    report.campaign_units = campaign_units;
    if let Some(planned) = campaign_units {
        if planned != report.unit_spans as u64 {
            report.error(format!(
                "campaign planned {planned} unit(s) but {} unit span(s) closed",
                report.unit_spans
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::JsonlSink;
    use crate::sink::Sink as _;
    use crate::{Event, EventKind, Level};
    use std::sync::PoisonError;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("piccolo-obs-check-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ev(seq: u64, t_ns: u64, kind: EventKind) -> Event {
        Event { seq, t_ns, kind }
    }

    /// A canonical well-formed stream: campaign(unit, point, log) then close.
    fn well_formed(sink: &JsonlSink) {
        sink.emit(&ev(
            1,
            10,
            EventKind::Open {
                span: "campaign",
                id: 1,
                parent: None,
                fields: vec![("units", 1u64.into()), ("cost_total", 5u64.into())],
            },
        ));
        sink.emit(&ev(
            2,
            11,
            EventKind::Point {
                name: "figure_plan",
                parent: Some(1),
                fields: vec![("figure", "fig10".into()), ("units", 1u64.into())],
            },
        ));
        sink.emit(&ev(
            3,
            12,
            EventKind::Open {
                span: "unit",
                id: 2,
                parent: Some(1),
                fields: vec![("unit", 0u64.into())],
            },
        ));
        sink.emit(&ev(
            4,
            13,
            EventKind::Log {
                level: Level::Info,
                msg: "halfway".to_string(),
            },
        ));
        sink.emit(&ev(
            5,
            14,
            EventKind::Close {
                span: "unit",
                id: 2,
                dur_ns: 2,
                fields: vec![("figure", "fig10".into()), ("cost", 5u64.into())],
            },
        ));
        sink.emit(&ev(
            6,
            15,
            EventKind::Close {
                span: "campaign",
                id: 1,
                dur_ns: 5,
                fields: vec![],
            },
        ));
    }

    #[test]
    fn a_well_formed_log_checks_clean() {
        let dir = temp_dir("clean");
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        well_formed(&sink);
        let report = check_events(&path).unwrap();
        assert!(report.clean(), "errors: {:?}", report.errors);
        assert_eq!(report.lines, 7);
        assert_eq!(report.events, 6);
        assert_eq!(report.spans_opened, 2);
        assert_eq!(report.spans_closed, 2);
        assert_eq!(report.unit_spans, 1);
        assert_eq!(report.campaign_units, Some(1));
        assert_eq!(report.log_lines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_tolerated_but_reported() {
        let dir = temp_dir("corrupt");
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        well_formed(&sink);
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"garbage without a checksum\n").unwrap();
        }
        let report = check_events(&path).unwrap();
        // The remaining records still validate fully — corruption costs one
        // line, never the scan — but the log is no longer clean.
        assert_eq!(report.corrupt, 1);
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        assert!(!report.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbalanced_and_misparented_spans_are_flagged() {
        let dir = temp_dir("unbalanced");
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&ev(
            1,
            10,
            EventKind::Open {
                span: "campaign",
                id: 1,
                parent: None,
                fields: vec![],
            },
        ));
        // Child of a span that was never opened.
        sink.emit(&ev(
            2,
            11,
            EventKind::Open {
                span: "unit",
                id: 2,
                parent: Some(99),
                fields: vec![],
            },
        ));
        // Close with a mismatched name.
        sink.emit(&ev(
            3,
            12,
            EventKind::Close {
                span: "graph_build",
                id: 2,
                dur_ns: 1,
                fields: vec![],
            },
        ));
        // Campaign never closes, and seq goes backwards.
        sink.emit(&ev(
            2,
            12,
            EventKind::Log {
                level: Level::Info,
                msg: "x".to_string(),
            },
        ));
        let report = check_events(&path).unwrap();
        assert!(!report.clean());
        let text = report.errors.join("\n");
        assert!(text.contains("parent #99 is not an open span"), "{text}");
        assert!(text.contains("does not match open"), "{text}");
        assert!(text.contains("never closed"), "{text}");
        assert!(text.contains("not greater than previous"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unit_count_must_match_the_campaign_plan() {
        let dir = temp_dir("unitcount");
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&ev(
            1,
            10,
            EventKind::Open {
                span: "campaign",
                id: 1,
                parent: None,
                fields: vec![("units", 3u64.into())],
            },
        ));
        sink.emit(&ev(
            2,
            11,
            EventKind::Close {
                span: "campaign",
                id: 1,
                dur_ns: 1,
                fields: vec![],
            },
        ));
        let report = check_events(&path).unwrap();
        assert!(!report.clean());
        assert!(
            report
                .errors
                .iter()
                .any(|e| e.contains("planned 3 unit(s) but 0")),
            "errors: {:?}",
            report.errors
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_schema_headers_are_flagged() {
        let dir = temp_dir("schema");
        let path = dir.join("events.jsonl");
        {
            let mut f = std::fs::File::create(&path).unwrap();
            crate::linecodec::append_line(&mut f, r#"{"schema":"piccolo-events/v999"}"#).unwrap();
        }
        let report = check_events(&path).unwrap();
        assert!(report.errors[0].contains("piccolo-events/v999"));

        // The real emission path (global dispatcher → JsonlSink) produces a
        // clean, correctly-headed log; exercised under the crate test lock.
        let _guard = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let live = dir.join("live.jsonl");
        let id = crate::add_events_file(&live).unwrap();
        {
            let campaign = crate::span("campaign", vec![("units", 1u64.into())]);
            let unit = crate::span_with_parent("unit", campaign.id(), vec![]);
            unit.close(vec![]);
            campaign.close(vec![]);
        }
        let sink = crate::remove_sink(id).unwrap();
        sink.flush();
        let report = check_events(&live).unwrap();
        assert!(report.clean(), "errors: {:?}", report.errors);
        assert_eq!(report.unit_spans, 1);
        assert_eq!(report.campaign_units, Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
