//! Workspace-level determinism tests for sharded and resumable campaigns: the merged
//! output of any shard count, and the final output of any resume split (including
//! resumes over corrupted journals), must be **byte-identical** to a single-process
//! `--jobs 1` run — the invariant the sharded CI repro matrix enforces on the full
//! quick campaign, pinned here at test scale with property-style (Rng64-seeded) loops.

use piccolo::campaign::{merge_journals, Shard};
use piccolo::experiments::{self, Scale};
use piccolo::report::results_json;
use piccolo::sweep::{ExperimentSpec, SweepRunner};
use piccolo_algo::Algorithm;
use piccolo_graph::rng::Rng64;
use piccolo_graph::Dataset;
use std::path::PathBuf;

/// A small multi-figure campaign: sim grids that share graphs across figures plus a
/// measure-only figure, so shard projections hit every unit kind.
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
    let dir = std::env::temp_dir().join(format!("piccolo-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn merged_shards_match_the_jobs1_run_for_every_shard_count() {
    // Property-style loop: random scales (seed/iteration cap) from a deterministic
    // Rng64 stream, and for each, merge(shard 0/N .. N-1/N) must be byte-for-byte the
    // sequential single-process run, for N in {1, 2, 3, 5} (5 > the smallest figure's
    // unit count, so some figures contribute nothing to some shards).
    let dir = scratch("merge");
    let mut rng = Rng64::seed_from_u64(0x5eed_5a4d);
    for trial in 0..3 {
        let scale = Scale {
            scale_shift: 15,
            seed: rng.next_u64() % 64,
            max_iterations: 1 + (rng.next_u64() % 2) as u32,
        };
        let specs = specs_for(scale);
        let reference = SweepRunner::sequential().run_campaign(&specs);
        let expected = results_json(scale, &reference.figures);
        for count in [1usize, 2, 3, 5] {
            let mut journals = Vec::new();
            let mut executed = 0;
            for index in 0..count {
                let jobs = 1 + (rng.next_u64() % 3) as usize; // worker count never matters
                let journal = dir.join(format!("trial-{trial}-shard-{index}-of-{count}.jsonl"));
                let run = SweepRunner::new(jobs)
                    .run_campaign_shard(scale, &specs, Shard { index, count }, &journal)
                    .unwrap();
                assert_eq!(run.replayed, 0, "a fresh journal replays nothing");
                executed += run.executed;
                // Each shard builds only what its own units need and evicts all of it.
                assert_eq!(run.run.stats.graphs_evicted, run.run.stats.graphs_built);
                journals.push(journal);
            }
            assert_eq!(
                executed,
                reference.stats.sim_runs + reference.stats.measure_units,
                "trial {trial}: shards 0..{count} partition the unit grid"
            );
            let merged = merge_journals(scale, &specs, &journals)
                .unwrap_or_else(|e| panic!("trial {trial}, {count} shards: {e}"));
            assert_eq!(
                results_json(scale, &merged),
                expected,
                "trial {trial}: merge of {count} shards must be byte-identical"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_finishes_a_truncated_journal_with_identical_bytes() {
    let dir = scratch("resume");
    let scale = Scale {
        scale_shift: 15,
        seed: 11,
        max_iterations: 2,
    };
    let specs = specs_for(scale);
    let runner = SweepRunner::new(2);

    // A full journaled run is the reference: one line per unit.
    let journal = dir.join("journal.jsonl");
    let full = runner
        .run_campaign_resumed(scale, &specs, &journal)
        .unwrap();
    let expected = results_json(scale, &full.run.figures);
    let total = full.executed;
    let lines: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(
        lines.len(),
        total + full.run.stats.graphs_built,
        "one journal line per completed unit or graph build"
    );

    // Killing the campaign after any prefix of completed lines (here: several Rng64-
    // chosen truncation points) must leave a journal that resumes to the same bytes.
    // A prefix holds a mix of unit and graph-build lines; only the units replay.
    let mut rng = Rng64::seed_from_u64(42);
    for trial in 0..3 {
        let keep = (rng.next_u64() as usize) % lines.len();
        let kept_units = lines[..keep]
            .iter()
            .filter(|l| !l.contains("\"built\":"))
            .count();
        let part = dir.join(format!("journal-trunc-{trial}.jsonl"));
        std::fs::write(&part, format!("{}\n", lines[..keep].join("\n"))).unwrap();
        let resumed = runner.run_campaign_resumed(scale, &specs, &part).unwrap();
        assert_eq!(resumed.replayed, kept_units, "trial {trial} (keep {keep})");
        assert_eq!(resumed.executed, total - kept_units);
        assert_eq!(resumed.corrupt, 0);
        assert_eq!(
            results_json(scale, &resumed.run.figures),
            expected,
            "trial {trial}: resume after {keep}/{total} units must be byte-identical"
        );
        // The journal is now complete again: a further resume replays everything.
        let again = runner.run_campaign_resumed(scale, &specs, &part).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.replayed, total);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_journal_entries_are_ignored_and_rerun() {
    let dir = scratch("corrupt");
    let scale = Scale {
        scale_shift: 15,
        seed: 29,
        max_iterations: 2,
    };
    let specs = specs_for(scale);
    let runner = SweepRunner::new(2);

    let journal = dir.join("journal.jsonl");
    let full = runner
        .run_campaign_resumed(scale, &specs, &journal)
        .unwrap();
    let expected = results_json(scale, &full.run.figures);
    let total = full.executed;
    let lines: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();

    // Flip one checksum nibble in a few Rng64-chosen *unit* lines: each corrupted
    // entry must be ignored (never a wrong result), its unit re-run, and the output
    // unchanged. (Build lines are exercised separately below — they carry no replay
    // obligation, so corrupting one must not re-run anything.)
    let mut rng = Rng64::seed_from_u64(7);
    for trial in 0..3 {
        let n_corrupt = 1 + (rng.next_u64() as usize) % 3;
        let mut damaged = lines.clone();
        let mut hit = std::collections::BTreeSet::new();
        while hit.len() < n_corrupt {
            let i = (rng.next_u64() as usize) % damaged.len();
            if !damaged[i].contains("\"built\":") {
                hit.insert(i);
            }
        }
        for &i in &hit {
            let mut bytes = damaged[i].clone().into_bytes();
            bytes[0] = if bytes[0] == b'0' { b'1' } else { b'0' };
            damaged[i] = String::from_utf8(bytes).unwrap();
        }
        let path = dir.join(format!("journal-corrupt-{trial}.jsonl"));
        std::fs::write(&path, format!("{}\n", damaged.join("\n"))).unwrap();
        let resumed = runner.run_campaign_resumed(scale, &specs, &path).unwrap();
        assert_eq!(resumed.corrupt, n_corrupt, "trial {trial}");
        assert_eq!(resumed.executed, n_corrupt, "corrupt entries are re-run");
        assert_eq!(resumed.replayed, total - n_corrupt);
        assert_eq!(
            results_json(scale, &resumed.run.figures),
            expected,
            "trial {trial}: {n_corrupt} corrupt line(s) must not change a byte"
        );
    }

    // A corrupted graph-*build* line costs nothing: it is dropped as corrupt, but no
    // unit re-runs and every graph build is still skipped via the surviving units.
    if let Some(build_idx) = lines.iter().position(|l| l.contains("\"built\":")) {
        let mut damaged = lines.clone();
        let mut bytes = damaged[build_idx].clone().into_bytes();
        bytes[0] = if bytes[0] == b'0' { b'1' } else { b'0' };
        damaged[build_idx] = String::from_utf8(bytes).unwrap();
        let path = dir.join("journal-corrupt-build.jsonl");
        std::fs::write(&path, format!("{}\n", damaged.join("\n"))).unwrap();
        let resumed = runner.run_campaign_resumed(scale, &specs, &path).unwrap();
        assert_eq!(resumed.corrupt, 1);
        assert_eq!(resumed.executed, 0, "no unit re-runs for a lost build line");
        assert_eq!(resumed.replayed, total);
        assert_eq!(results_json(scale, &resumed.run.figures), expected);
    }

    // Foreign garbage appended to a journal is also just skipped.
    let mut with_garbage = lines;
    with_garbage.push("0123456789abcdef not-a-real-entry".to_string());
    with_garbage.push("trailing noise without a checksum".to_string());
    let path = dir.join("journal-garbage.jsonl");
    std::fs::write(&path, format!("{}\n", with_garbage.join("\n"))).unwrap();
    let resumed = runner.run_campaign_resumed(scale, &specs, &path).unwrap();
    assert_eq!(resumed.replayed, total);
    assert_eq!(resumed.executed, 0);
    assert_eq!(results_json(scale, &resumed.run.figures), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_files_from_a_different_plan_never_merge() {
    // The guard CI relies on: shard journals can only merge into the exact plan
    // (figure set + scale) that produced them.
    let dir = scratch("foreign");
    let scale_a = Scale {
        scale_shift: 15,
        seed: 3,
        max_iterations: 2,
    };
    let scale_b = Scale {
        scale_shift: 15,
        seed: 4,
        max_iterations: 2,
    };
    let specs_full = specs_for(scale_a);
    let journals: Vec<PathBuf> = (0..2)
        .map(|index| {
            let journal = dir.join(format!("shard-{index}.jsonl"));
            SweepRunner::sequential()
                .run_campaign_shard(scale_a, &specs_full, Shard { index, count: 2 }, &journal)
                .unwrap();
            journal
        })
        .collect();
    // Different scale: rejected. Different figure subset: rejected. Every entry is
    // counted as foreign, none fills a slot.
    for (scale, specs) in [(scale_b, &specs_full[..]), (scale_a, &specs_full[..2])] {
        let err = merge_journals(scale, specs, &journals).unwrap_err();
        assert!(err.contains("unit 0 is in no journal"), "{err}");
        assert!(!err.contains(" 0 foreign entr(ies)"), "{err}");
    }
    // The matching plan still merges fine.
    assert!(merge_journals(scale_a, &specs_full, &journals).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_and_resume_compose_to_identical_bytes() {
    // `--shard I/N --resume JOURNAL` composes: journal entries carry global unit
    // indices, so a shard projection replays exactly its own journaled slots and
    // executes only the rest. Property-style: truncate a full run's journal at
    // Rng64-chosen points, then finish the campaign as N resumed shards *sharing*
    // that journal — merging it must be byte-identical to the sequential run, and a
    // second pass over the (now complete) journal must execute nothing.
    let dir = scratch("shard-resume");
    let scale = Scale {
        scale_shift: 15,
        seed: 17,
        max_iterations: 2,
    };
    let specs = specs_for(scale);
    let runner = SweepRunner::new(2);

    let journal = dir.join("journal.jsonl");
    let full = runner
        .run_campaign_resumed(scale, &specs, &journal)
        .unwrap();
    let expected = results_json(scale, &full.run.figures);
    let total = full.executed;
    let lines: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();

    let mut rng = Rng64::seed_from_u64(0xc0de);
    for trial in 0..3 {
        let count = 2 + (rng.next_u64() as usize) % 2; // 2 or 3 shards
        let keep = (rng.next_u64() as usize) % lines.len();
        let kept_units = lines[..keep]
            .iter()
            .filter(|l| !l.contains("\"built\":"))
            .count();
        let part = dir.join(format!("journal-{trial}.jsonl"));
        std::fs::write(&part, format!("{}\n", lines[..keep].join("\n"))).unwrap();

        let mut replayed = 0;
        let mut executed = 0;
        for index in 0..count {
            let shard = Shard { index, count };
            let resumed = runner
                .run_campaign_shard(scale, &specs, shard, &part)
                .unwrap();
            assert_eq!(resumed.corrupt, 0, "trial {trial} shard {shard}");
            replayed += resumed.replayed;
            executed += resumed.executed;
        }
        // Shards partition the grid, so their replayed/executed counts partition
        // the journal's units and the remainder. (Later shards never replay an
        // earlier shard's appends: those units belong to other projections.)
        assert_eq!(replayed, kept_units, "trial {trial}");
        assert_eq!(executed, total - kept_units, "trial {trial}");
        let merged = merge_journals(scale, &specs, std::slice::from_ref(&part)).unwrap();
        assert_eq!(
            results_json(scale, &merged),
            expected,
            "trial {trial}: {count} resumed shards over a journal cut at {keep} \
             must merge to the sequential bytes"
        );

        // The shared journal is complete now: every shard replays, none executes.
        for index in 0..count {
            let again = runner
                .run_campaign_shard(scale, &specs, Shard { index, count }, &part)
                .unwrap();
            assert_eq!(again.executed, 0, "trial {trial}: complete journal");
            assert_eq!(again.run.stats.graphs_built, 0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
