//! The campaign run journal: one checksummed line per completed grid unit, so a
//! killed or partially-failed campaign resumes in the time of its *missing* units.
//!
//! Each line (format: [`piccolo_obs::linecodec`], FNV-checksummed like `.pcsr` sections)
//! carries a compact JSON payload — a completed unit, or a graph build:
//!
//! ```text
//! {"plan":"<16-hex plan hash>","unit":<global unit index>,"result":{...}}
//! {"plan":"<16-hex plan hash>","built":"<graph key spec>"}
//! ```
//!
//! `plan` is [`super::plan_hash`] over the campaign's scale and spec list — an entry
//! replays **only** into the exact plan that wrote it; entries from a different figure
//! set, scale, or spec revision are counted and ignored. `result` is the lossless
//! unit codec ([`super::codec`]), so a replayed slot is byte-for-byte the slot the
//! original process would have produced, and `repro --resume` output is identical to
//! an uninterrupted run. Corrupt lines (torn tail from a kill, flipped bytes) fail
//! their checksum and simply cost a re-run of that unit.
//!
//! `built` entries record which graphs an invocation materialized. Replayed units
//! never schedule a build (builds are keyed off the units actually executed), so these
//! entries carry no replay obligation — they exist so a resumed invocation can report
//! how many journaled builds it *skipped* (graphs whose every unit replayed), making
//! the out-of-core win visible in the resume summary.
//!
//! Appends happen from worker threads behind a mutex, one line per completed unit or
//! build, in completion order — ordering never matters because every unit entry names
//! its slot.

use super::codec::{kind_matches, unit_result_from_json, unit_result_to_json};
use super::plan_hex;
use crate::json::{parse, Json};
use crate::sweep::{ExperimentSpec, UnitResult};
use piccolo_obs::linecodec as lines;
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::Path;
use std::sync::Mutex;

/// What a journal scan recovered for one campaign plan.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// Verified entries by global unit index (first entry per slot wins; results are
    /// deterministic, so duplicates are necessarily identical).
    pub entries: BTreeMap<usize, UnitResult>,
    /// Lines dropped by the checksum / framing check.
    pub corrupt: usize,
    /// Well-formed entries for a *different* plan hash, an out-of-range slot, or a
    /// kind-mismatched slot — ignored, never replayed.
    pub mismatched: usize,
    /// Graph-key specs of `built` entries that verified against this plan, deduplicated
    /// (a graph rebuilt by a partially-resumed invocation is journaled again).
    pub builds: Vec<String>,
}

/// Scans `path` and returns every entry that verifies against `plan` and the spec
/// list's grid shape. A missing file is an empty journal, not an error.
pub(crate) fn read_replay(
    path: &Path,
    plan: u64,
    specs: &[ExperimentSpec],
    unit_index: &[(usize, usize)],
) -> std::io::Result<Replay> {
    let scanned = match lines::read_lines(path) {
        Ok(scanned) => scanned,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => return Err(e),
    };
    let mut replay = Replay {
        corrupt: scanned.corrupt,
        ..Replay::default()
    };
    let expected_plan = plan_hex(plan);
    for payload in &scanned.payloads {
        let Ok(doc) = parse(payload) else {
            replay.corrupt += 1;
            continue;
        };
        let plan_ok = doc.get("plan").and_then(Json::as_str) == Some(expected_plan.as_str());
        if let Some(spec) = doc.get("built").and_then(Json::as_str) {
            if !plan_ok {
                replay.mismatched += 1;
            } else if !replay.builds.iter().any(|b| b == spec) {
                replay.builds.push(spec.to_string());
            }
            continue;
        }
        let unit = doc
            .get("unit")
            .and_then(Json::as_f64)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| n as usize);
        let result = doc.get("result");
        let (Some(unit), Some(result)) = (unit, result) else {
            replay.mismatched += 1;
            continue;
        };
        let in_grid = unit < unit_index.len() && {
            let (figure, u) = unit_index[unit];
            kind_matches(result, &specs[figure].units()[u])
        };
        if !plan_ok || !in_grid {
            replay.mismatched += 1;
            continue;
        }
        if let std::collections::btree_map::Entry::Vacant(slot) = replay.entries.entry(unit) {
            match unit_result_from_json(result) {
                Ok(r) => {
                    slot.insert(r);
                }
                Err(_) => replay.mismatched += 1,
            }
        }
    }
    Ok(replay)
}

/// Thread-safe appender: one encoded line per completed unit.
pub(crate) struct Writer {
    file: Mutex<std::fs::File>,
    plan: String,
}

impl Writer {
    /// Opens (or creates) `path` for appending under `plan`.
    pub fn append_to(path: &Path, plan: u64) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        Ok(Self {
            file: Mutex::new(file),
            plan: plan_hex(plan),
        })
    }

    /// Records one completed unit. Called from worker threads; a failed write panics
    /// (loudly aborting the campaign) rather than silently producing a journal that
    /// would re-run completed units on resume.
    pub fn record(&self, unit: usize, result: &UnitResult) {
        let payload = Json::obj([
            ("plan", Json::str(&self.plan)),
            ("unit", Json::Num(unit as f64)),
            ("result", unit_result_to_json(result)),
        ])
        .to_string();
        let mut file = self.file.lock().unwrap();
        lines::append_line(&mut *file, &payload)
            .unwrap_or_else(|e| panic!("cannot append to run journal: {e}"));
    }

    /// Records one completed graph build (its [`super::build_spec`] string). Same
    /// failure policy as [`Writer::record`].
    pub fn record_build(&self, spec: &str) {
        let payload =
            Json::obj([("plan", Json::str(&self.plan)), ("built", Json::str(spec))]).to_string();
        let mut file = self.file.lock().unwrap();
        lines::append_line(&mut *file, &payload)
            .unwrap_or_else(|e| panic!("cannot append to run journal: {e}"));
    }
}

impl std::fmt::Debug for Writer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writer").field("plan", &self.plan).finish()
    }
}
