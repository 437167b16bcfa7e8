//! Workspace-level tests for the observability invariant: attaching any
//! `piccolo-obs` sink, at any `--jobs` / shard / resume split, must not change a
//! single byte of `results.json`, the run journal, or a journal merge — while the
//! captured event log itself must be schema-valid, checksum-clean, and
//! span-balanced (`docs/observability.md`).
//!
//! The obs dispatcher is process-global, so every test here serializes on a
//! file-local mutex.

use piccolo::campaign::{merge_journals, Shard};
use piccolo::experiments::{self, Scale};
use piccolo::report::results_json;
use piccolo::sweep::{ExperimentSpec, SweepRunner};
use piccolo_algo::Algorithm;
use piccolo_graph::Dataset;
use piccolo_obs as obs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A panicking test must not wedge the others; the sink registry is left clean
    // by every path that can poison the lock.
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A small multi-figure campaign (shared graphs + a measure-only figure), the
/// same shape the sharded-campaign determinism tests pin.
fn specs_for(scale: Scale) -> Vec<ExperimentSpec> {
    let ds = [Dataset::Sinaweibo];
    let algs = [Algorithm::Bfs];
    vec![
        experiments::fig10_spec(scale, &ds, &algs),
        experiments::fig12_spec(scale, &ds, &algs),
        experiments::table2_spec(scale),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("piccolo-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_clean(report: &obs::check::EventsReport) {
    assert!(
        report.clean(),
        "event log must check clean: {report}\n{}",
        report.errors.join("\n")
    );
}

#[test]
fn event_capture_never_changes_a_result_byte() {
    let _g = lock();
    let dir = scratch("identity");
    let scale = Scale {
        scale_shift: 15,
        seed: 9,
        max_iterations: 2,
    };
    let specs = specs_for(scale);
    let reference = SweepRunner::sequential().run_campaign(&specs);
    let expected = results_json(scale, &reference.figures);
    let planned = reference.stats.sim_runs + reference.stats.measure_units;

    for jobs in [1usize, 2, 8] {
        // Sink off: the plain run at this worker count.
        let plain = SweepRunner::new(jobs).run_campaign(&specs);
        assert_eq!(
            results_json(scale, &plain.figures),
            expected,
            "jobs {jobs}: plain run must match the sequential reference"
        );

        // Sink on: same run with the full event stream captured.
        let events = dir.join(format!("events-{jobs}.jsonl"));
        let id = obs::add_events_file(&events).unwrap();
        let traced = SweepRunner::new(jobs).run_campaign(&specs);
        obs::flush_sinks();
        obs::remove_sink(id);
        assert_eq!(
            results_json(scale, &traced.figures),
            expected,
            "jobs {jobs}: tracing must not change a result byte"
        );

        // And the capture itself is valid: balanced spans, one closed unit
        // span per planned unit, checksums good.
        let report = obs::check::check_events(&events).unwrap();
        assert_clean(&report);
        assert_eq!(report.spans_opened, report.spans_closed);
        assert_eq!(report.unit_spans, planned, "jobs {jobs}");
        assert_eq!(report.campaign_units, Some(planned as u64));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharding_and_resume_stay_byte_identical_under_tracing() {
    let _g = lock();
    let dir = scratch("splits");
    let scale = Scale {
        scale_shift: 15,
        seed: 23,
        max_iterations: 2,
    };
    let specs = specs_for(scale);
    let expected = results_json(
        scale,
        &SweepRunner::sequential().run_campaign(&specs).figures,
    );

    // Untraced sequential journal run: the reference journal bytes. (Worker
    // counts > 1 interleave journal lines by completion order, so the
    // byte-for-byte journal comparison pins the sequential path.)
    let plain_journal = dir.join("plain-journal.jsonl");
    let plain = SweepRunner::sequential()
        .run_campaign_resumed(scale, &specs, &plain_journal)
        .unwrap();
    assert_eq!(results_json(scale, &plain.run.figures), expected);

    let events = dir.join("events.jsonl");
    let id = obs::add_events_file(&events).unwrap();

    // Traced sharded run merges to the same bytes.
    let journals: Vec<PathBuf> = (0..2)
        .map(|index| {
            let journal = dir.join(format!("shard-{index}.jsonl"));
            SweepRunner::new(2)
                .run_campaign_shard(scale, &specs, Shard { index, count: 2 }, &journal)
                .unwrap();
            journal
        })
        .collect();
    let merged = merge_journals(scale, &specs, &journals).unwrap();
    assert_eq!(
        results_json(scale, &merged),
        expected,
        "traced shard merge must be byte-identical"
    );

    // Traced journal run: results AND journal bytes match the untraced run.
    let traced_journal = dir.join("traced-journal.jsonl");
    let traced = SweepRunner::sequential()
        .run_campaign_resumed(scale, &specs, &traced_journal)
        .unwrap();
    assert_eq!(results_json(scale, &traced.run.figures), expected);
    assert_eq!(
        std::fs::read(&traced_journal).unwrap(),
        std::fs::read(&plain_journal).unwrap(),
        "tracing must not change a journal byte"
    );

    // Traced resume over a truncated journal still finishes to the same bytes.
    let lines: Vec<String> = std::fs::read_to_string(&traced_journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let keep = lines.len() / 2;
    let part = dir.join("truncated-journal.jsonl");
    std::fs::write(&part, format!("{}\n", lines[..keep].join("\n"))).unwrap();
    let resumed = SweepRunner::new(2)
        .run_campaign_resumed(scale, &specs, &part)
        .unwrap();
    assert_eq!(
        results_json(scale, &resumed.run.figures),
        expected,
        "traced resume must be byte-identical"
    );

    obs::flush_sinks();
    obs::remove_sink(id);

    // Everything above went into one event log: shard campaigns, journal
    // replays, the journal merge — all spans balanced, every planned unit
    // accounted for exactly once across the campaigns.
    let report = obs::check::check_events(&events).unwrap();
    assert_clean(&report);
    assert_eq!(report.spans_opened, report.spans_closed);
    assert_eq!(report.campaign_units, Some(report.unit_spans as u64));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_event_line_is_tolerated_but_reported() {
    let _g = lock();
    let dir = scratch("corrupt");
    let scale = Scale {
        scale_shift: 15,
        seed: 2,
        max_iterations: 1,
    };
    let specs = vec![experiments::table2_spec(scale)];
    let events = dir.join("events.jsonl");
    let id = obs::add_events_file(&events).unwrap();
    SweepRunner::sequential().run_campaign(&specs);
    obs::flush_sinks();
    obs::remove_sink(id);

    let clean = obs::check::check_events(&events).unwrap();
    assert_clean(&clean);

    // Flip one checksum nibble in a non-structural line (a log or point —
    // damaging an open/close would unbalance the spans, which is the point of
    // a *separate* checker error). Here: corrupt the final close line and
    // expect the checker to flag the then-unclosed span too.
    let text = std::fs::read_to_string(&events).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let last = lines.len() - 1;
    let mut bytes = lines[last].clone().into_bytes();
    bytes[0] = if bytes[0] == b'0' { b'1' } else { b'0' };
    lines[last] = String::from_utf8(bytes).unwrap();
    std::fs::write(&events, format!("{}\n", lines.join("\n"))).unwrap();

    let report = obs::check::check_events(&events).unwrap();
    assert_eq!(report.corrupt, 1, "exactly the damaged line is corrupt");
    assert!(!report.clean());
    assert_eq!(
        report.events,
        clean.events - 1,
        "the other lines still parse"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
