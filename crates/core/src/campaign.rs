//! Cross-figure campaign scheduler: one global work queue for many figures, building
//! each distinct graph exactly once across the whole campaign — shardable across OS
//! processes and resumable across invocations.
//!
//! The paper's evaluation sweeps many figure grids over the same handful of graphs. A
//! per-figure runner rebuilds each `(dataset, scale_shift, seed)` graph once *per
//! figure* and parallelizes only *within* a figure, which leaves a long sequential tail
//! on the all-figure run. This module flattens every requested figure's
//! [`ExperimentSpec`] grid into **one** queue executed by a single
//! [`run_indexed`] pool:
//!
//! 1. **Graph builds are schedulable units.** The queue starts with one build task per
//!    distinct [`GraphKey`] needed by the scheduled units — most expensive first, so the
//!    twitter-scale CSR starts before the cheap graphs — followed by every scheduled
//!    grid unit, ordered measure-units-first and then by ascending estimated cost of
//!    the graph they need (results are un-permuted into `(figure, unit)` slots
//!    afterwards, so scheduling order never shows in the output). Workers claim indices
//!    in increasing order, so every build is claimed before any grid unit, and the
//!    units claimed first are the ones whose graphs finish earliest — while one worker
//!    builds the largest CSR, the others build the remaining graphs and then drain
//!    units of the already-built ones instead of blocking behind the big build.
//! 2. **A shared graph store** hands finished graphs to simulation units. A unit whose
//!    graph is still being built blocks on that slot's condvar; the builder is
//!    guaranteed to be a live worker (builds occupy the lowest queue indices), so the
//!    wait always terminates. A panicking build marks its slot failed and wakes all
//!    waiters, which panic in turn; [`run_indexed`] then resumes the **lowest-indexed**
//!    payload — the build's original panic — on the caller. Slots are **refcounted**
//!    by their scheduled consumer count: the last grid unit to finish with a graph
//!    evicts it from the store, so a graph's CSR is dropped the moment nothing in the
//!    campaign needs it instead of staying pinned until the campaign ends. (Evicting an
//!    external graph drops only the store's handle: the [`piccolo_graph::external`]
//!    registry owns the graph until the process exits.) Eviction can never cause a
//!    rebuild — a post-eviction wait is a loud panic, not a rebuild, and
//!    the build-counting tests pin exactly one build per key with eviction active.
//! 3. **Results land by `(figure, unit index)` slot**, and derived rows (speedups,
//!    geomeans) are evaluated per figure from its completed grid, so campaign output is
//!    byte-identical for any worker count — the property CI enforces on the sharded
//!    repro matrix.
//!
//! # Sharding and resuming
//!
//! The flattened grid gives every unit a stable **global unit index** (figure-major
//! registration order), and [`plan_hash`] fingerprints the whole plan — scale, spec
//! names, every unit's configuration. On top of those two invariants:
//!
//! * [`SweepRunner::run_campaign_resumed`] journals one checksummed line per completed
//!   unit (the `campaign/journal.rs` module; line format `piccolo_obs::linecodec`) and
//!   pre-fills matching slots on the next invocation, scheduling only the remainder —
//!   a killed campaign finishes in the time of its missing units, with the same output
//!   bytes (`repro --resume`).
//! * [`SweepRunner::run_campaign_shard`] does the same for the deterministic shard
//!   projection `unit index % count == index` ([`Shard`]) (`repro --shard I/N --resume
//!   JOURNAL`). Each shard schedules exactly the graph builds its own units need, with
//!   refcounts scoped to the shard, so eviction stats stay exact per shard.
//! * [`merge_journals`] fills the grid from any set of journals — shards' or resumed
//!   runs' — evaluates derived rows once over the merged grid, and yields figures
//!   whose `results.json` is **byte-identical** to a single-process run of any worker
//!   count (`repro --merge`). Journals are plain files, so shards on separate
//!   machines split a campaign by copying them to one place before the merge.
//!
//! [`SweepRunner::run`] is a campaign of one figure, so every figure spec in
//! [`crate::experiments`] runs on this scheduler.

mod codec;
mod journal;

use crate::experiments::Scale;
use crate::report::FigureRows;
use crate::sweep::{run_indexed, ExperimentSpec, GraphKey, SweepRunner, Unit, UnitResult};
use piccolo_graph::Csr;
use piccolo_obs as obs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Deterministic estimate of a graph build's cost — the paper's edge count shrunk by
/// the run's scale shift. Orders the schedule only; it never affects any result.
fn build_cost((dataset, scale_shift, _seed): GraphKey) -> u64 {
    dataset
        .spec()
        .paper_edges
        .checked_shr(scale_shift)
        .unwrap_or(0)
}

/// Scheduling statistics of one executed campaign (all deterministic counts — safe to
/// log anywhere without breaking output parity). On a sharded or resumed campaign the
/// counts cover the units this process actually **executed** — replayed journal slots
/// and other shards' units are not in them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignStats {
    /// Figures in the campaign plan.
    pub figures: usize,
    /// Full simulation runs executed (each references one shared graph).
    pub sim_runs: usize,
    /// Self-contained measure units executed.
    pub measure_units: usize,
    /// Distinct graphs actually built (exactly once each).
    pub graphs_built: usize,
    /// Builds avoided relative to per-figure scheduling (the sum over figures of their
    /// distinct keys among executed units, minus the distinct keys overall). Zero for a
    /// single figure.
    pub builds_saved: usize,
    /// Graphs evicted from the shared store mid-campaign, when their last scheduled
    /// consumer finished. Always equals `graphs_built` on a completed campaign.
    /// Synthetic stand-ins are freed outright at that point; external graphs stay
    /// owned by the `piccolo_graph::external` registry until the process exits.
    pub graphs_evicted: usize,
    /// Simulated DRAM clocks the executed runs spent in the scatter phase (summed
    /// over this process's executed simulation units — deterministic, like every
    /// other field).
    pub scatter_mem_clocks: u64,
    /// Simulated DRAM clocks the executed runs spent in the apply phase.
    pub apply_mem_clocks: u64,
}

/// Output of [`SweepRunner::run_campaign`]: every figure's rows plus scheduling stats.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// One entry per requested figure, in request order.
    pub figures: Vec<FigureRows>,
    /// Scheduling statistics (graphs built vs saved, unit counts).
    pub stats: CampaignStats,
}

/// One shard of a campaign's unit grid: the slots whose global unit index satisfies
/// `index % count == index_of_this_shard`. `Shard { index: 0, count: 1 }` is the whole
/// campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's position, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the campaign is split into.
    pub count: usize,
}

impl Shard {
    /// Parses the `repro --shard` syntax `I/N` (e.g. `0/3`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let err = || format!("shard must be I/N with 0 <= I < N, got '{s}'");
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        let shard = Shard {
            index: i.parse().map_err(|_| err())?,
            count: n.parse().map_err(|_| err())?,
        };
        if shard.index < shard.count {
            Ok(shard)
        } else {
            Err(err())
        }
    }

    /// Whether this shard executes the unit with global index `unit`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed shard (`count == 0` or `index >= count`) — hand-built
    /// values bypass [`Shard::parse`], so the invariant is asserted with intent here
    /// rather than surfacing as a bare divide-by-zero inside the scheduler.
    pub fn selects(&self, unit: usize) -> bool {
        assert!(
            self.index < self.count,
            "malformed shard {}/{} (need 0 <= index < count)",
            self.index,
            self.count
        );
        unit % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Fingerprint of a campaign plan: the scale plus every spec's name, title, unit grid
/// and output shape, folded through FNV-1a 64. Two invocations with equal plan hashes
/// execute interchangeable unit grids — the property that lets journal entries
/// ([`SweepRunner::run_campaign_resumed`], [`merge_journals`]) written by separate
/// processes be validated before any slot is trusted.
///
/// External graphs ([`piccolo_graph::external`]) have no `(dataset, shift, seed)`
/// recipe — a `RunConfig` names only a registry id — so each distinct external's name
/// and **full edge content** is folded in as well. Editing an external's source file
/// between runs therefore changes the plan, and stale journal entries computed over
/// the old graph are refused instead of silently mixed in.
pub fn plan_hash(scale: Scale, specs: &[ExperimentSpec]) -> u64 {
    let mut h = piccolo_obs::hash::Fnv64::new();
    h.update(b"piccolo-plan/v1\0");
    scale.fingerprint(&mut h);
    for spec in specs {
        spec.fingerprint(&mut h);
    }
    let mut seen_externals: Vec<u32> = Vec::new();
    for spec in specs {
        for unit in spec.units() {
            if let Unit::Sim(rc) = unit {
                if let piccolo_graph::Dataset::External { id } = rc.dataset {
                    if !seen_externals.contains(&id) {
                        seen_externals.push(id);
                        h.update(format!("external {id} ").as_bytes());
                        if let Some(name) = piccolo_graph::external::name(id) {
                            h.update(name.as_bytes());
                        }
                        h.update(b"\0");
                        // The registry hashed the graph's structure once at register
                        // time, so this stays a constant-size fold per invocation
                        // even for multi-billion-edge externals.
                        if let Some(fp) = piccolo_graph::external::content_fingerprint(id) {
                            h.update(&fp.to_le_bytes());
                        }
                    }
                }
            }
        }
    }
    h.finish()
}

pub(crate) fn plan_hex(plan: u64) -> String {
    format!("{plan:016x}")
}

/// State of one graph slot in the shared store.
enum SlotState {
    /// The build task has not finished yet.
    Pending,
    /// The graph is available to every simulation unit that needs it.
    Ready(Arc<Csr>),
    /// The build task panicked; waiters must panic too (the build's own payload is the
    /// one the pool re-raises).
    Failed,
    /// Every consumer has finished and the graph has been dropped. Reaching this slot
    /// from [`GraphStore::wait`] is a refcounting bug — eviction must never force a
    /// rebuild, so the store panics loudly instead of rebuilding silently.
    Evicted,
}

struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
    /// Grid units still needing this graph; the last one to finish evicts it.
    remaining: AtomicUsize,
}

/// Shared graph store: one slot per distinct [`GraphKey`] of the scheduled units,
/// refcounted by the number of grid units that consume each graph so the `Csr` is
/// dropped the moment its last consumer finishes (no graph stays pinned for the whole
/// campaign).
struct GraphStore {
    slots: BTreeMap<GraphKey, Slot>,
}

impl GraphStore {
    fn new(keys: &[(GraphKey, usize)]) -> Self {
        Self {
            slots: keys
                .iter()
                .map(|&(k, consumers)| {
                    (
                        k,
                        Slot {
                            state: Mutex::new(SlotState::Pending),
                            ready: Condvar::new(),
                            remaining: AtomicUsize::new(consumers),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Publishes a finished graph and wakes every waiting simulation unit.
    fn fulfill(&self, key: GraphKey, graph: Arc<Csr>) {
        let slot = &self.slots[&key];
        *slot.state.lock().unwrap() = SlotState::Ready(graph);
        slot.ready.notify_all();
    }

    /// Marks a build as failed and wakes waiters so they can propagate the failure.
    fn fail(&self, key: GraphKey) {
        let slot = &self.slots[&key];
        let mut state = slot.state.lock().unwrap();
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Failed;
        }
        drop(state);
        slot.ready.notify_all();
    }

    /// Blocks until `key`'s graph is built and returns it. Panics if the build failed
    /// or the graph was already evicted (the latter would mean the consumer refcount
    /// under-counted — a scheduler bug, never a reason to rebuild).
    fn wait(&self, key: GraphKey) -> Arc<Csr> {
        let slot = &self.slots[&key];
        let mut state = slot.state.lock().unwrap();
        loop {
            match &*state {
                SlotState::Ready(graph) => return Arc::clone(graph),
                SlotState::Failed => panic!("graph build for {key:?} panicked"),
                SlotState::Evicted => {
                    panic!("graph {key:?} evicted while consumers remained (refcount bug)")
                }
                SlotState::Pending => state = slot.ready.wait(state).unwrap(),
            }
        }
    }

    /// Signals that one consumer of `key` has finished; the last consumer drops the
    /// graph. Eviction only moves `Ready -> Evicted` — a failed slot stays failed.
    fn release(&self, key: GraphKey) {
        let slot = &self.slots[&key];
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut state = slot.state.lock().unwrap();
            if matches!(*state, SlotState::Ready(_)) {
                *state = SlotState::Evicted;
                if obs::spans_enabled() {
                    obs::point("graph_evict", vec![("graph", build_spec(key).into())]);
                }
            }
        }
    }

    /// Number of slots whose graph has been evicted.
    fn evicted_count(&self) -> usize {
        self.slots
            .values()
            .filter(|s| matches!(*s.state.lock().unwrap(), SlotState::Evicted))
            .count()
    }
}

/// Marks the slot [`SlotState::Failed`] unless disarmed — keeps a panicking build from
/// leaving waiters blocked forever.
struct FailGuard<'a> {
    store: &'a GraphStore,
    key: GraphKey,
    armed: bool,
}

impl Drop for FailGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.store.fail(self.key);
        }
    }
}

/// Output of one global queue slot.
enum TaskOut {
    /// A graph-build unit completed (its product lives in the store).
    Built,
    /// A grid unit completed.
    Unit(UnitResult),
}

/// The flattened unit grid: global unit index -> `(figure, unit-within-figure)`, in
/// figure-major registration order. This ordering is the contract behind shard
/// projections and journal entries — it depends only on the spec list.
fn flatten_units(specs: &[ExperimentSpec]) -> Vec<(usize, usize)> {
    let mut unit_index = Vec::new();
    for (figure, spec) in specs.iter().enumerate() {
        unit_index.extend((0..spec.units().len()).map(|u| (figure, u)));
    }
    unit_index
}

/// Evaluates every figure's derived rows from a fully-populated grid (`unit_results`
/// in global unit order). Pure arithmetic — identical however the grid was populated
/// (one process, merged shards, or a journal-resumed run).
fn evaluate_figures(specs: &[ExperimentSpec], unit_results: &[UnitResult]) -> Vec<FigureRows> {
    let mut figures = Vec::with_capacity(specs.len());
    let mut offset = 0usize;
    for spec in specs {
        let grid = &unit_results[offset..offset + spec.units().len()];
        offset += spec.units().len();
        figures.push(FigureRows {
            name: spec.name().to_string(),
            title: spec.title().to_string(),
            points: spec.evaluate(grid),
        });
    }
    figures
}

/// The grid's results in global unit order, or the index of the first empty slot.
fn filled(slots: Vec<Option<UnitResult>>) -> Result<Vec<UnitResult>, usize> {
    slots
        .into_iter()
        .enumerate()
        .map(|(gid, slot)| slot.ok_or(gid))
        .collect()
}

/// The journal hook [`execute_selected`] calls from worker threads as each unit
/// completes (global unit index + the finished result).
type OnUnitDone<'a> = &'a (dyn Fn(usize, &UnitResult) + Sync);

/// Executes the `selected` global unit indices (ascending) over one [`run_indexed`]
/// pool, building exactly the distinct graphs those units need. Returns the results by
/// global unit index (`None` for unscheduled slots) plus the scheduling stats.
fn execute_selected(
    jobs: usize,
    specs: &[ExperimentSpec],
    unit_index: &[(usize, usize)],
    selected: &[usize],
    build: &(impl Fn(GraphKey) -> Arc<Csr> + Sync),
    on_done: Option<OnUnitDone<'_>>,
) -> (Vec<Option<UnitResult>>, CampaignStats) {
    let unit_at = |gid: usize| {
        let (figure, unit) = unit_index[gid];
        &specs[figure].units()[unit]
    };

    // Distinct graph keys in first-appearance order (deterministic) with their
    // scheduled consumer counts (for eviction), plus the number of builds a per-figure
    // scheduler would have performed over the same units, for the stats.
    let mut keys: Vec<GraphKey> = Vec::new();
    let mut consumers: BTreeMap<GraphKey, usize> = BTreeMap::new();
    let mut figure_keys: Vec<Vec<GraphKey>> = vec![Vec::new(); specs.len()];
    let mut sim_runs = 0usize;
    let mut measure_units = 0usize;
    for &gid in selected {
        let (figure, _) = unit_index[gid];
        match unit_at(gid) {
            Unit::Sim(rc) => {
                sim_runs += 1;
                let key = rc.graph_key();
                if !figure_keys[figure].contains(&key) {
                    figure_keys[figure].push(key);
                }
                if !keys.contains(&key) {
                    keys.push(key);
                }
                *consumers.entry(key).or_insert(0) += 1;
            }
            Unit::Measure(_) => measure_units += 1,
        }
    }
    let per_figure_builds: usize = figure_keys.iter().map(Vec::len).sum();

    // Deterministic unit-cost estimate for progress/ETA accounting only — it mirrors
    // the scheduling key below (measure units are cheap, sims carry their graph's
    // build cost) and never feeds any result.
    let unit_cost = |gid: usize| -> u64 {
        match unit_at(gid) {
            Unit::Measure(_) => 1,
            Unit::Sim(rc) => 1 + build_cost(rc.graph_key()),
        }
    };

    // The campaign span roots this run's event tree. Its guard lives on the calling
    // thread for the whole schedule (this function blocks on the pool below), so
    // worker-thread spans attach to it through the explicit-parent API.
    let campaign_span = obs::span(
        "campaign",
        vec![
            ("figures", (specs.len() as u64).into()),
            ("units", (selected.len() as u64).into()),
            ("builds", (keys.len() as u64).into()),
            (
                "cost_total",
                selected.iter().map(|&g| unit_cost(g)).sum::<u64>().into(),
            ),
        ],
    );
    let campaign_id = campaign_span.id();
    if obs::spans_enabled() {
        for (figure, spec) in specs.iter().enumerate() {
            let in_figure = selected
                .iter()
                .filter(|&&g| unit_index[g].0 == figure)
                .count() as u64;
            if in_figure > 0 {
                obs::point_with_parent(
                    "figure_plan",
                    campaign_id,
                    vec![("figure", spec.name().into()), ("units", in_figure.into())],
                );
            }
        }
    }

    // The most expensive builds go first so they start (are claimed) earliest and
    // overlap the most of the remaining campaign. Stable sort: ties keep
    // first-appearance order, so the schedule stays deterministic.
    let n_builds = keys.len();
    keys.sort_by_key(|&key| std::cmp::Reverse(build_cost(key)));

    // Schedule the selected units behind the build tasks: measure units (always
    // runnable) and cheap-graph sims first, so workers drain units whose graphs finish
    // earliest instead of blocking behind the largest build; results are un-permuted
    // below, so scheduling order never shows in the output.
    let mut schedule: Vec<usize> = selected.to_vec();
    schedule.sort_by_key(|&gid| match unit_at(gid) {
        Unit::Measure(_) => 0,
        Unit::Sim(rc) => 1 + build_cost(rc.graph_key()),
    });

    let keyed: Vec<(GraphKey, usize)> = keys.iter().map(|&k| (k, consumers[&k])).collect();
    let store = GraphStore::new(&keyed);
    let outputs = run_indexed(jobs, n_builds + schedule.len(), |i| {
        if i < n_builds {
            let key = keys[i];
            let mut guard = FailGuard {
                store: &store,
                key,
                armed: true,
            };
            let build_span = obs::spans_enabled().then(|| {
                obs::span_with_parent(
                    "graph_build",
                    campaign_id,
                    vec![
                        ("graph", build_spec(key).into()),
                        ("cost", build_cost(key).into()),
                    ],
                )
            });
            let graph = build(key);
            store.fulfill(key, graph);
            guard.armed = false;
            if let Some(span) = build_span {
                span.close(Vec::new());
            }
            TaskOut::Built
        } else {
            let gid = schedule[i - n_builds];
            let emit = obs::spans_enabled();
            let unit_span = emit.then(|| {
                let (figure, _) = unit_index[gid];
                obs::span_with_parent(
                    "unit",
                    campaign_id,
                    vec![
                        ("unit", (gid as u64).into()),
                        ("figure", specs[figure].name().into()),
                        (
                            "kind",
                            match unit_at(gid) {
                                Unit::Sim(_) => "sim",
                                Unit::Measure(_) => "measure",
                            }
                            .into(),
                        ),
                        ("cost", unit_cost(gid).into()),
                    ],
                )
            });
            // Drain phase timings left over from earlier work on this worker thread,
            // so the capture after the run is exactly this unit's.
            let _ = piccolo_accel::take_thread_phase_profile();
            let result = match unit_at(gid) {
                Unit::Sim(rc) => {
                    let key = rc.graph_key();
                    let graph = store.wait(key);
                    let result = UnitResult::Run(Box::new(rc.execute(&graph)));
                    // This unit is done with the graph: drop our handle, then let the
                    // store evict the slot if we were the last consumer.
                    drop(graph);
                    store.release(key);
                    result
                }
                Unit::Measure(f) => UnitResult::Points(f()),
            };
            let host = piccolo_accel::take_thread_phase_profile();
            if let UnitResult::Run(run) = &result {
                record_run_metrics(run);
                if emit {
                    emit_phase_spans(unit_span.as_ref().and_then(obs::Span::id), run, host);
                }
            }
            if let Some(hook) = on_done {
                hook(gid, &result);
            }
            if let Some(span) = unit_span {
                let (figure, _) = unit_index[gid];
                span.close(vec![
                    ("figure", specs[figure].name().into()),
                    ("cost", unit_cost(gid).into()),
                ]);
            }
            TaskOut::Unit(result)
        }
    });
    let graphs_evicted = store.evicted_count();

    // Un-permute the scheduled outputs back into global unit order.
    let mut slots: Vec<Option<UnitResult>> = unit_index.iter().map(|_| None).collect();
    for (j, out) in outputs.into_iter().skip(n_builds).enumerate() {
        match out {
            TaskOut::Unit(result) => slots[schedule[j]] = Some(result),
            TaskOut::Built => unreachable!("build outputs precede unit outputs"),
        }
    }

    // Per-phase DRAM-clock totals over the executed runs, for the campaign stats
    // line and BENCH.json (sums of deterministic per-run values, so output parity
    // across worker counts is preserved).
    let mut scatter_mem_clocks = 0u64;
    let mut apply_mem_clocks = 0u64;
    for slot in slots.iter().flatten() {
        if let UnitResult::Run(run) = slot {
            scatter_mem_clocks += run.phases.scatter_mem_clocks;
            apply_mem_clocks += run.phases.apply_mem_clocks;
        }
    }

    let stats = CampaignStats {
        figures: specs.len(),
        sim_runs,
        measure_units,
        // One build unit per distinct key by construction; a panicking build aborts
        // the whole campaign, so a returned run always built all of them.
        graphs_built: n_builds,
        builds_saved: per_figure_builds - n_builds,
        // Every key has >= 1 consumer (keys come from scheduled sim units), so a
        // completed campaign has evicted every graph it built.
        graphs_evicted,
        scatter_mem_clocks,
        apply_mem_clocks,
    };
    obs::metrics::counter_add("campaign/units_executed", selected.len() as u64);
    obs::metrics::counter_add("campaign/sim_runs", stats.sim_runs as u64);
    obs::metrics::counter_add("campaign/measure_units", stats.measure_units as u64);
    obs::metrics::counter_add("campaign/graphs_built", stats.graphs_built as u64);
    obs::metrics::counter_add("campaign/graphs_evicted", stats.graphs_evicted as u64);
    campaign_span.close(vec![
        ("sim_runs", (stats.sim_runs as u64).into()),
        ("measure_units", (stats.measure_units as u64).into()),
        ("graphs_built", (stats.graphs_built as u64).into()),
        ("graphs_evicted", (stats.graphs_evicted as u64).into()),
        ("builds_saved", (stats.builds_saved as u64).into()),
    ]);
    (slots, stats)
}

/// Folds one executed run's deterministic simulator counters into the metrics
/// registry. Exact u64 additions only, so the per-campaign aggregates are
/// byte-identical for any `--jobs` split of the same plan.
fn record_run_metrics(run: &piccolo_accel::RunResult) {
    obs::metrics::counter_add("sim/dram_activations", run.mem_stats.activations);
    obs::metrics::counter_add("sim/dram_read_bursts", run.mem_stats.read_bursts);
    obs::metrics::counter_add("sim/dram_write_bursts", run.mem_stats.write_bursts);
    obs::metrics::counter_add("sim/offchip_bytes", run.mem_stats.offchip_bytes);
    obs::metrics::counter_add("sim/cache_accesses", run.cache_stats.accesses);
    obs::metrics::counter_add("sim/cache_hits", run.cache_stats.hits);
    obs::metrics::counter_add("sim/cache_misses", run.cache_stats.misses);
    obs::metrics::counter_add("sim/edges_processed", run.edges_processed);
    obs::metrics::counter_add("sim/iterations", u64::from(run.iterations));
}

/// Retrospective per-phase child spans of one completed unit: simulated DRAM
/// clocks from the run plus host wall-clock captured by the thread-local phase
/// profiler. Emitted after the run (each span opens and closes back-to-back;
/// the payload rides in the fields, not in `dur_ns`).
fn emit_phase_spans(
    parent: Option<u64>,
    run: &piccolo_accel::RunResult,
    host: piccolo_accel::PhaseProfile,
) {
    let phases: [(&'static str, Option<u64>, Option<u64>); 4] = [
        (
            "scatter",
            Some(host.scatter_ns),
            Some(run.phases.scatter_mem_clocks),
        ),
        (
            "apply",
            Some(host.apply_ns),
            Some(run.phases.apply_mem_clocks),
        ),
        ("flush", None, Some(run.phases.flush_mem_clocks)),
        ("frontier", Some(host.frontier_ns), None),
    ];
    for (name, host_ns, mem_clocks) in phases {
        let mut fields: obs::Fields = Vec::new();
        if let Some(ns) = host_ns {
            fields.push(("host_ns", ns.into()));
        }
        if let Some(clocks) = mem_clocks {
            fields.push(("mem_clocks", clocks.into()));
        }
        obs::span_with_parent(name, parent, fields).close(Vec::new());
    }
}

/// The default graph-build function: `build_shared` hands out the registry's Arc for
/// external graphs instead of cloning the CSR, and wraps a fresh build for the
/// synthetic stand-ins.
fn default_build((dataset, shift, seed): GraphKey) -> Arc<Csr> {
    dataset.build_shared(shift, seed)
}

/// Stable one-line description of a graph key for `built` journal entries. External
/// datasets ride on their registry id alone — the plan hash already folds the name and
/// full content per id, so within one plan the id identifies the graph exactly.
fn build_spec((dataset, shift, seed): GraphKey) -> String {
    format!("{} shift={shift} seed={seed}", dataset.short_name())
}

impl SweepRunner {
    /// Executes `specs` as one campaign: a single global [`run_indexed`] pool over all
    /// graph builds and grid units, building each distinct [`GraphKey`] exactly once
    /// campaign-wide. Returns each figure's rows (derived points evaluated per figure)
    /// plus scheduling stats. Output is byte-identical for every worker count.
    pub fn run_campaign(&self, specs: &[ExperimentSpec]) -> CampaignRun {
        run_campaign_with(self.jobs(), specs, default_build)
    }

    /// Executes the campaign with a run journal at `journal_path`: slots recovered
    /// from the journal (matching plan hash, verified checksum) are **replayed**
    /// without executing, only the remainder is scheduled, and every newly completed
    /// unit is appended — so a killed invocation re-run with the same journal finishes
    /// in the time of its missing units and produces byte-identical figures. A missing
    /// journal file starts an empty one (a plain run that journals as it goes).
    pub fn run_campaign_resumed(
        &self,
        scale: Scale,
        specs: &[ExperimentSpec],
        journal_path: &Path,
    ) -> std::io::Result<ResumeRun> {
        let whole = Shard { index: 0, count: 1 };
        let (mut resumed, slots) = self.run_journaled(scale, specs, whole, journal_path)?;
        let unit_results =
            filled(slots).expect("every unit was executed or replayed from the journal");
        resumed.run.figures = evaluate_figures(specs, &unit_results);
        Ok(resumed)
    }

    /// Executes one [`Shard`] of the campaign with a run journal at `journal_path`:
    /// exactly the grid units whose global index satisfies `index % count`, minus the
    /// ones the journal already holds, building only the graphs those units need
    /// (refcounts — and therefore eviction stats — scoped to the shard). Every
    /// executed unit is appended to the journal, which is the shard's output:
    /// [`merge_journals`] recombines the shards' journals into output byte-identical
    /// to an unsharded run. The returned `run.figures` is empty, because derived rows
    /// need the whole grid.
    ///
    /// Journal entries carry global unit indices, so several shards may share one
    /// journal, and a killed shard re-run with its journal executes only what is
    /// missing.
    pub fn run_campaign_shard(
        &self,
        scale: Scale,
        specs: &[ExperimentSpec],
        shard: Shard,
        journal_path: &Path,
    ) -> std::io::Result<ResumeRun> {
        Ok(self.run_journaled(scale, specs, shard, journal_path)?.0)
    }

    /// The journaled executor behind [`SweepRunner::run_campaign_resumed`] and
    /// [`SweepRunner::run_campaign_shard`]: replays the shard projection's journaled
    /// slots, executes the rest, and appends each executed unit and graph build.
    /// Returns the run (no figures) and the grid by global unit index, filled on the
    /// shard's projection.
    fn run_journaled(
        &self,
        scale: Scale,
        specs: &[ExperimentSpec],
        shard: Shard,
        journal_path: &Path,
    ) -> std::io::Result<(ResumeRun, Vec<Option<UnitResult>>)> {
        let plan = plan_hash(scale, specs);
        let unit_index = flatten_units(specs);
        let replay_span = obs::span("journal_replay", Vec::new());
        let mut replay = journal::read_replay(journal_path, plan, specs, &unit_index)?;
        let projection: Vec<usize> = (0..unit_index.len())
            .filter(|&gid| shard.selects(gid))
            .collect();
        let selected: Vec<usize> = projection
            .iter()
            .copied()
            .filter(|gid| !replay.entries.contains_key(gid))
            .collect();
        let replayed = projection.len() - selected.len();
        replay_span.close(vec![
            ("replayed", (replayed as u64).into()),
            ("corrupt", (replay.corrupt as u64).into()),
            ("mismatched", (replay.mismatched as u64).into()),
            ("builds", (replay.builds.len() as u64).into()),
        ]);
        obs::metrics::counter_add("campaign/journal_lines_replayed", replayed as u64);
        let writer = journal::Writer::append_to(journal_path, plan)?;
        let on_done = |gid: usize, result: &UnitResult| writer.record(gid, result);
        // Journal builds as they happen and remember this invocation's keys, so the
        // summary can report how many journaled builds were *skipped* — graphs whose
        // every unit replayed are never scheduled, hence never rebuilt.
        let built_now: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let build = |key: GraphKey| {
            let spec = build_spec(key);
            writer.record_build(&spec);
            built_now.lock().unwrap().push(spec);
            default_build(key)
        };
        let (mut slots, stats) = execute_selected(
            self.jobs(),
            specs,
            &unit_index,
            &selected,
            &build,
            Some(&on_done),
        );
        let built_now = built_now.into_inner().unwrap();
        let builds_skipped = replay
            .builds
            .iter()
            .filter(|spec| !built_now.contains(spec))
            .count();
        for gid in projection {
            if slots[gid].is_none() {
                slots[gid] = replay.entries.remove(&gid);
            }
        }
        let resumed = ResumeRun {
            run: CampaignRun {
                figures: Vec::new(),
                stats,
            },
            replayed,
            executed: selected.len(),
            corrupt: replay.corrupt,
            mismatched: replay.mismatched,
            builds_skipped,
        };
        Ok((resumed, slots))
    }
}

/// Output of [`SweepRunner::run_campaign_resumed`] and
/// [`SweepRunner::run_campaign_shard`]: the run plus what the journal contributed.
#[derive(Debug)]
pub struct ResumeRun {
    /// The completed campaign (figures identical to an uninterrupted run, or empty
    /// for a shard; stats cover the units this invocation executed).
    pub run: CampaignRun,
    /// Slots pre-filled from the journal. Journal entries outside a shard's
    /// projection are left untouched (other shards replay them).
    pub replayed: usize,
    /// Units executed (and appended to the journal) by this invocation.
    pub executed: usize,
    /// Journal lines dropped by the checksum check — each costs one re-run, nothing
    /// else.
    pub corrupt: usize,
    /// Well-formed entries ignored because they belong to a different plan (figure
    /// set, scale, or spec revision) or name an impossible slot.
    pub mismatched: usize,
    /// Journaled graph builds this invocation did **not** repeat: every unit of those
    /// graphs replayed, so the graphs were never scheduled — the build-skip that makes
    /// a fully-replayed resume O(journal), not O(graph).
    pub builds_skipped: usize,
}

/// Recombines run journals into the campaign's figures: the journals of a complete
/// shard set, a resumed run's journal, or any mix.
/// Every line is verified as on resume — checksum, plan hash against *this* process's
/// `scale` + `specs`, a slot in range whose kind matches the grid — and the first
/// verified entry for each slot wins (results are deterministic, so later duplicates
/// are identical). Nothing is executed: a slot that no journal fills is an error.
/// Derived rows are evaluated once over the merged grid, so `results.json` built from
/// the returned figures is byte-identical to a single-process run at any worker count.
///
/// # Errors
///
/// An empty path list, an unreadable journal (a missing file is an error here, unlike
/// on resume), or an unfilled slot — the error names the first missing unit and the
/// corrupt and foreign line counts.
pub fn merge_journals(
    scale: Scale,
    specs: &[ExperimentSpec],
    journals: &[PathBuf],
) -> Result<Vec<FigureRows>, String> {
    if journals.is_empty() {
        return Err("no journals to merge".to_string());
    }
    // Closed explicitly on success; an early error return closes it via drop.
    let merge_span = obs::span(
        "shard_merge",
        vec![("journals", (journals.len() as u64).into())],
    );
    let plan = plan_hash(scale, specs);
    let unit_index = flatten_units(specs);
    let mut slots: Vec<Option<UnitResult>> = unit_index.iter().map(|_| None).collect();
    let (mut corrupt, mut mismatched) = (0, 0);
    for path in journals {
        let err = |e: std::io::Error| format!("cannot read journal {}: {e}", path.display());
        std::fs::metadata(path).map_err(err)?;
        let replay = journal::read_replay(path, plan, specs, &unit_index).map_err(err)?;
        corrupt += replay.corrupt;
        mismatched += replay.mismatched;
        for (gid, result) in replay.entries {
            slots[gid].get_or_insert(result);
        }
    }
    let missing = slots.iter().filter(|slot| slot.is_none()).count();
    let unit_results = filled(slots).map_err(|gid| {
        format!(
            "unit {gid} is in no journal ({missing} of {} unit(s) missing; {corrupt} \
             corrupt line(s) and {mismatched} foreign entr(ies) ignored — a foreign entry \
             belongs to another figure set or scale)",
            unit_index.len()
        )
    })?;
    merge_span.close(vec![("units", (unit_results.len() as u64).into())]);
    Ok(evaluate_figures(specs, &unit_results))
}

/// A campaign plan with a stable identity: the spec list and its flattened unit grid,
/// pinned by [`plan_hash`]. It reads a run journal back as canonical codec bytes per
/// slot ([`PlannedCampaign::replay_journal`]), so a caller outside this crate can
/// inspect what `repro --resume` or `repro --shard` journaled without decoding the
/// codec itself.
#[derive(Debug)]
pub struct PlannedCampaign {
    specs: Vec<ExperimentSpec>,
    plan: u64,
    unit_index: Vec<(usize, usize)>,
}

impl PlannedCampaign {
    /// Plans a campaign over `specs` at `scale`, computing the plan hash and the
    /// flattened unit grid.
    #[must_use]
    pub fn new(scale: Scale, specs: Vec<ExperimentSpec>) -> Self {
        let plan = plan_hash(scale, &specs);
        let unit_index = flatten_units(&specs);
        Self {
            specs,
            plan,
            unit_index,
        }
    }

    /// Scans the journal at `path` and returns every entry that verifies against this
    /// plan, as canonical codec bytes by global unit index. A missing file is an
    /// empty journal, not an error.
    ///
    /// # Errors
    ///
    /// Propagates read errors other than a missing file.
    pub fn replay_journal(&self, path: &Path) -> std::io::Result<JournalReplay> {
        let replay = journal::read_replay(path, self.plan, &self.specs, &self.unit_index)?;
        Ok(JournalReplay {
            entries: replay
                .entries
                .into_iter()
                .map(|(gid, result)| (gid, codec::unit_result_to_json(&result).to_string()))
                .collect(),
            corrupt: replay.corrupt,
            mismatched: replay.mismatched,
        })
    }
}

/// What [`PlannedCampaign::replay_journal`] recovered: canonical codec bytes per
/// verified slot, plus the damage counters.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Verified entries by global unit index, re-serialized to canonical bytes.
    pub entries: BTreeMap<usize, String>,
    /// Lines dropped by the checksum / framing check.
    pub corrupt: usize,
    /// Well-formed entries for a different plan or an impossible slot.
    pub mismatched: usize,
}

/// Campaign executor parameterized over the graph-build function, so tests can count
/// builds per key or inject failing builds without touching the scheduler itself.
pub(crate) fn run_campaign_with(
    jobs: usize,
    specs: &[ExperimentSpec],
    build: impl Fn(GraphKey) -> Arc<Csr> + Sync,
) -> CampaignRun {
    let unit_index = flatten_units(specs);
    let selected: Vec<usize> = (0..unit_index.len()).collect();
    let (slots, stats) = execute_selected(jobs, specs, &unit_index, &selected, &build, None);
    let unit_results = filled(slots).expect("every unit was scheduled");
    CampaignRun {
        figures: evaluate_figures(specs, &unit_results),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{self, Scale};
    use crate::report::results_json;
    use piccolo_algo::Algorithm;
    use piccolo_graph::Dataset;

    fn tiny() -> Scale {
        Scale {
            scale_shift: 15,
            seed: 3,
            max_iterations: 2,
        }
    }

    /// A small multi-figure campaign whose figures share one graph key.
    fn shared_graph_specs() -> Vec<ExperimentSpec> {
        let ds = [Dataset::Sinaweibo];
        let algs = [Algorithm::Bfs];
        vec![
            experiments::fig10_spec(tiny(), &ds, &algs),
            experiments::fig12_spec(tiny(), &ds, &algs),
            experiments::fig19a_spec(tiny(), &ds),
        ]
    }

    #[test]
    fn campaign_results_json_is_byte_identical_across_worker_counts() {
        let specs = shared_graph_specs();
        let reference = SweepRunner::sequential().run_campaign(&specs);
        assert!(
            reference.stats.scatter_mem_clocks > 0,
            "executed sim runs must report scatter-phase clocks"
        );
        let doc = results_json(tiny(), &reference.figures);
        for jobs in [2, 8] {
            let parallel = SweepRunner::new(jobs).run_campaign(&specs);
            assert_eq!(
                results_json(tiny(), &parallel.figures),
                doc,
                "jobs={jobs} must be byte-identical to jobs=1"
            );
            assert_eq!(
                parallel.stats, reference.stats,
                "stats are deterministic too"
            );
        }
    }

    #[test]
    fn each_distinct_graph_is_built_exactly_once_campaign_wide() {
        // Eviction is always active, so this doubles as the eviction-never-rebuilds
        // pin: if the refcounted store dropped a graph too early, a remaining unit
        // would panic; if it somehow triggered a rebuild, the count would exceed 1.
        let specs = shared_graph_specs();
        for jobs in [1, 4] {
            let counts: Mutex<BTreeMap<GraphKey, usize>> = Mutex::new(BTreeMap::new());
            let run = run_campaign_with(jobs, &specs, |(dataset, shift, seed)| {
                *counts
                    .lock()
                    .unwrap()
                    .entry((dataset, shift, seed))
                    .or_insert(0) += 1;
                Arc::new(dataset.build(shift, seed))
            });
            let counts = counts.into_inner().unwrap();
            // All three figures use the same (Sinaweibo, 15, 3) graph.
            assert_eq!(
                counts.len(),
                1,
                "jobs={jobs}: one distinct key campaign-wide"
            );
            assert!(
                counts.values().all(|&c| c == 1),
                "jobs={jobs}: every distinct graph_key is built exactly once, got {counts:?}"
            );
            assert_eq!(run.stats.graphs_built, 1);
            // Per-figure scheduling would have built the graph once per figure.
            assert_eq!(run.stats.builds_saved, specs.len() - 1);
            assert_eq!(run.stats.figures, specs.len());
            assert!(run.stats.sim_runs > run.stats.graphs_built);
            // The last consumer evicted the graph — nothing stays pinned.
            assert_eq!(run.stats.graphs_evicted, run.stats.graphs_built);
        }
    }

    #[test]
    fn eviction_drops_the_store_arc_after_the_last_consumer() {
        // Keep a weak handle to every Arc the build function produced: the stats pin
        // that every slot reached Evicted (the graph was dropped when its last
        // consumer finished, not when the campaign ended), and the weak handles prove
        // no clone leaked past the campaign.
        let specs = shared_graph_specs();
        let weaks: Mutex<Vec<std::sync::Weak<Csr>>> = Mutex::new(Vec::new());
        let run = run_campaign_with(2, &specs, |(dataset, shift, seed)| {
            let graph = Arc::new(dataset.build(shift, seed));
            weaks.lock().unwrap().push(Arc::downgrade(&graph));
            graph
        });
        assert_eq!(run.stats.graphs_evicted, run.stats.graphs_built);
        // The store is gone (run_campaign_with returned) and every unit released its
        // handle, so no graph can be alive anywhere.
        for weak in weaks.into_inner().unwrap() {
            assert!(
                weak.upgrade().is_none(),
                "a graph outlived the campaign despite eviction"
            );
        }
    }

    #[test]
    fn figure_rows_do_not_depend_on_campaign_composition() {
        // A figure's rows must be identical whether it runs alone or shares a campaign
        // (and its graphs) with other figures — otherwise `repro fig10` and
        // `repro all` would disagree.
        let specs = shared_graph_specs();
        let alone = SweepRunner::sequential().run_campaign(&specs[..1]);
        assert_eq!(alone.stats.builds_saved, 0);
        let together = SweepRunner::new(4).run_campaign(&specs);
        assert_eq!(alone.figures[0].points, together.figures[0].points);
        // And the rows satisfy a figure-level invariant computed by independent code:
        // fig10's baseline-over-baseline geomean row is exactly 1.
        let gm_base = alone.figures[0]
            .points
            .iter()
            .find(|p| p.label == "GM/GraphDyns (Cache)")
            .expect("fig10 has a baseline GM row");
        assert!((gm_base.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn graph_build_panic_propagates_with_its_original_payload() {
        let specs = shared_graph_specs();
        for jobs in [1, 4] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_campaign_with(jobs, &specs, |key: GraphKey| -> Arc<Csr> {
                    panic!("graph build exploded for {key:?}")
                })
            }));
            let err = result.expect_err("build panic must propagate");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(
                msg.contains("graph build exploded"),
                "jobs={jobs}: the build's own payload must win, got '{msg}'"
            );
        }
    }

    #[test]
    fn empty_campaign_is_empty() {
        let run = SweepRunner::new(4).run_campaign(&[]);
        assert!(run.figures.is_empty());
        assert_eq!(run.stats.graphs_built, 0);
        assert_eq!(run.stats.builds_saved, 0);
        assert_eq!(run.stats.graphs_evicted, 0);
    }

    #[test]
    fn external_datasets_flow_through_the_campaign_unchanged() {
        // An external graph registered under a name behaves exactly like a stand-in:
        // it gets a graph key, is "built" (fetched) once, evicted at the end, and the
        // rows are byte-identical for any worker count.
        use piccolo_graph::{external, generate};

        let g = generate::kronecker(10, 4, 23);
        let ds = external::register("campaign-test-ext", g);
        let algs = [Algorithm::Bfs];
        let specs = vec![
            experiments::fig10_spec(tiny(), &[ds], &algs),
            experiments::fig12_spec(tiny(), &[ds], &algs),
        ];
        let reference = SweepRunner::sequential().run_campaign(&specs);
        assert_eq!(reference.stats.graphs_built, 1);
        assert_eq!(reference.stats.builds_saved, 1);
        assert_eq!(reference.stats.graphs_evicted, 1);
        // Every per-dataset row (everything but the GM aggregates) names the external.
        assert!(reference.figures[0]
            .points
            .iter()
            .filter(|p| !p.label.starts_with("GM/"))
            .all(|p| p.label.contains("campaign-test-ext")));
        let parallel = SweepRunner::new(4).run_campaign(&specs);
        assert_eq!(
            results_json(tiny(), &parallel.figures),
            results_json(tiny(), &reference.figures)
        );
    }

    #[test]
    fn shard_parse_accepts_valid_and_rejects_invalid() {
        assert_eq!(Shard::parse("0/3"), Ok(Shard { index: 0, count: 3 }));
        assert_eq!(Shard::parse("2/3"), Ok(Shard { index: 2, count: 3 }));
        assert_eq!(Shard { index: 1, count: 4 }.to_string(), "1/4");
        for bad in ["3/3", "4/3", "-1/3", "a/3", "1/", "/3", "1", "1/0"] {
            assert!(Shard::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn plan_hash_is_stable_and_sensitive() {
        let specs = shared_graph_specs();
        assert_eq!(plan_hash(tiny(), &specs), plan_hash(tiny(), &specs));
        // A different scale, figure subset, or figure order is a different plan.
        let other_scale = Scale {
            scale_shift: 14,
            ..tiny()
        };
        assert_ne!(plan_hash(tiny(), &specs), plan_hash(other_scale, &specs));
        assert_ne!(plan_hash(tiny(), &specs), plan_hash(tiny(), &specs[..2]));
        let mut reordered = shared_graph_specs();
        reordered.reverse();
        assert_ne!(plan_hash(tiny(), &specs), plan_hash(tiny(), &reordered));
    }

    #[test]
    fn plan_hash_tracks_external_graph_content() {
        use piccolo_graph::{external, generate};

        // Re-registering a name keeps the registry id, so RunConfig's Debug output is
        // identical for both graphs — only the content fold can tell them apart. A
        // journal computed over the old graph must not replay into a campaign over
        // the new one.
        let ds = external::register("plan-hash-ext", generate::kronecker(9, 4, 1));
        let specs = vec![experiments::fig12_spec(tiny(), &[ds], &[Algorithm::Bfs])];
        let original = plan_hash(tiny(), &specs);
        external::register("plan-hash-ext", generate::kronecker(9, 4, 2));
        assert_ne!(plan_hash(tiny(), &specs), original);
        // Restoring identical content restores the plan.
        external::register("plan-hash-ext", generate::kronecker(9, 4, 1));
        assert_eq!(plan_hash(tiny(), &specs), original);
    }

    /// A fresh, empty scratch directory for one test's journals.
    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("piccolo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn merged_shards_are_byte_identical_to_the_unsharded_run() {
        let dir = fresh_dir("campaign-merge");
        let specs = shared_graph_specs();
        let reference = SweepRunner::new(4).run_campaign(&specs);
        let doc = results_json(tiny(), &reference.figures);
        for count in [1, 3] {
            let mut sim_runs = 0;
            let mut journals = Vec::new();
            for index in 0..count {
                let journal = dir.join(format!("shard-{index}-of-{count}.jsonl"));
                let shard = Shard { index, count };
                let run = SweepRunner::new(2)
                    .run_campaign_shard(tiny(), &specs, shard, &journal)
                    .unwrap();
                assert!(
                    run.run.figures.is_empty(),
                    "derived rows need the whole grid"
                );
                assert_eq!(run.replayed, 0);
                // Each shard built only what it needed and evicted all of it.
                assert_eq!(run.run.stats.graphs_evicted, run.run.stats.graphs_built);
                if count == 1 {
                    assert_eq!(run.run.stats, reference.stats, "one shard is the campaign");
                }
                sim_runs += run.run.stats.sim_runs;
                journals.push(journal);
            }
            assert_eq!(
                sim_runs, reference.stats.sim_runs,
                "shards partition the grid"
            );
            let merged = merge_journals(tiny(), &specs, &journals).expect("merge succeeds");
            assert_eq!(results_json(tiny(), &merged), doc, "{count} shard(s)");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_foreign_incomplete_and_duplicate_shards() {
        let dir = fresh_dir("campaign-merge-reject");
        let specs = shared_graph_specs();
        let journals: Vec<PathBuf> = (0..2)
            .map(|index| {
                let journal = dir.join(format!("shard-{index}.jsonl"));
                SweepRunner::sequential()
                    .run_campaign_shard(tiny(), &specs, Shard { index, count: 2 }, &journal)
                    .unwrap();
                journal
            })
            .collect();
        // The happy path works, in any order...
        assert!(merge_journals(tiny(), &specs, &journals).is_ok());
        let reversed: Vec<PathBuf> = journals.iter().rev().cloned().collect();
        assert!(merge_journals(tiny(), &specs, &reversed).is_ok());
        // ...but a missing shard, a duplicated shard, a foreign plan, garbage, an
        // absent file and an empty list all fail with a descriptive error instead of
        // producing wrong output.
        let missing = merge_journals(tiny(), &specs, &journals[..1]).unwrap_err();
        assert!(missing.contains("in no journal"), "{missing}");
        let dup = merge_journals(tiny(), &specs, &[journals[0].clone(), journals[0].clone()]);
        assert!(dup.unwrap_err().contains("in no journal"));
        let foreign_scale = Scale {
            scale_shift: 14,
            ..tiny()
        };
        let foreign = merge_journals(foreign_scale, &specs, &journals).unwrap_err();
        assert!(foreign.contains("unit 0 is in no journal"), "{foreign}");
        assert!(foreign.contains(" 0 corrupt line(s)"), "{foreign}");
        assert!(!foreign.contains(" 0 foreign entr(ies)"), "{foreign}");
        let garbage = dir.join("garbage.jsonl");
        std::fs::write(&garbage, "not json\n").unwrap();
        let garbage = merge_journals(tiny(), &specs, &[garbage]).unwrap_err();
        assert!(garbage.contains("1 corrupt line(s)"), "{garbage}");
        let absent = merge_journals(tiny(), &specs, &[dir.join("absent.jsonl")]);
        assert!(absent.unwrap_err().contains("cannot read journal"));
        assert!(merge_journals(tiny(), &specs, &[]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_journal_replays_completed_units() {
        let dir = std::env::temp_dir().join(format!("piccolo-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("resume-unit-test.jsonl");
        let _ = std::fs::remove_file(&journal);

        let specs = shared_graph_specs();
        let runner = SweepRunner::new(2);
        let first = runner
            .run_campaign_resumed(tiny(), &specs, &journal)
            .unwrap();
        assert_eq!(first.replayed, 0);
        assert!(first.executed > 0);
        let doc = results_json(tiny(), &first.run.figures);

        // A second invocation replays everything, executes nothing, and skips every
        // journaled build (the ROADMAP "builds are not journaled" residual, pinned).
        let second = runner
            .run_campaign_resumed(tiny(), &specs, &journal)
            .unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.replayed, first.executed);
        assert_eq!(second.run.stats.graphs_built, 0);
        assert_eq!(second.builds_skipped, first.run.stats.graphs_built);
        assert_eq!(results_json(tiny(), &second.run.figures), doc);

        // A different plan ignores every entry — unit and build lines alike
        // (mismatched, not replayed).
        let other_scale = Scale {
            max_iterations: 1,
            ..tiny()
        };
        let other_journal = dir.join("resume-unit-test-other.jsonl");
        let _ = std::fs::remove_file(&other_journal);
        std::fs::copy(&journal, &other_journal).unwrap();
        let foreign = runner
            .run_campaign_resumed(other_scale, &specs, &other_journal)
            .unwrap();
        assert_eq!(foreign.replayed, 0);
        assert_eq!(
            foreign.mismatched,
            first.executed + first.run.stats.graphs_built
        );
        assert_eq!(foreign.executed, first.executed);
        assert_eq!(foreign.builds_skipped, 0);

        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&other_journal);
    }

    #[test]
    fn partial_resume_rebuilds_only_graphs_with_missing_units() {
        // Kill simulation targeting one graph: drop exactly the journal entries of
        // units that need graph B. The resumed invocation must rebuild B (its units
        // re-run) but skip graph A outright — per-graph build skipping, not
        // all-or-nothing.
        let dir =
            std::env::temp_dir().join(format!("piccolo-campaign-partial-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("resume-partial.jsonl");
        let _ = std::fs::remove_file(&journal);

        let a = Dataset::UciUni;
        let b = Dataset::Sinaweibo;
        let specs = vec![experiments::fig12_spec(tiny(), &[a, b], &[Algorithm::Bfs])];
        let runner = SweepRunner::new(2);
        let first = runner
            .run_campaign_resumed(tiny(), &specs, &journal)
            .unwrap();
        assert_eq!(first.run.stats.graphs_built, 2);
        let doc = results_json(tiny(), &first.run.figures);

        // Identify graph B's units from the grid and strip their journal lines.
        let unit_index = flatten_units(&specs);
        let b_units: Vec<usize> = (0..unit_index.len())
            .filter(|&gid| {
                let (figure, u) = unit_index[gid];
                matches!(&specs[figure].units()[u], Unit::Sim(rc) if rc.dataset == b)
            })
            .collect();
        assert!(!b_units.is_empty());
        let kept: Vec<String> = std::fs::read_to_string(&journal)
            .unwrap()
            .lines()
            .filter(|line| {
                !b_units
                    .iter()
                    .any(|gid| line.contains(&format!("\"unit\":{gid},")))
            })
            .map(str::to_string)
            .collect();
        std::fs::write(&journal, kept.join("\n") + "\n").unwrap();

        let resumed = runner
            .run_campaign_resumed(tiny(), &specs, &journal)
            .unwrap();
        assert_eq!(resumed.executed, b_units.len());
        assert_eq!(
            resumed.run.stats.graphs_built, 1,
            "only the graph with missing units is rebuilt"
        );
        assert_eq!(
            resumed.builds_skipped, 1,
            "the fully-replayed graph's journaled build is skipped"
        );
        assert_eq!(results_json(tiny(), &resumed.run.figures), doc);

        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn planned_campaign_journal_streams_and_replays() {
        // The reader perfbench's campaign-mix uses: a journal written by a resumed
        // run replays as the exact bytes each line carries, and a journal for a
        // different plan contributes nothing.
        let dir = fresh_dir("planned");
        let journal_path = dir.join("planned.jsonl");
        let specs = shared_graph_specs();
        let run = SweepRunner::new(2)
            .run_campaign_resumed(tiny(), &specs, &journal_path)
            .unwrap();
        let journaled = run.executed + run.run.stats.graphs_built;

        let campaign = PlannedCampaign::new(tiny(), shared_graph_specs());
        let replay = campaign.replay_journal(&journal_path).unwrap();
        assert_eq!((replay.corrupt, replay.mismatched), (0, 0));
        assert_eq!(replay.entries.len(), run.executed);
        let lines = obs::linecodec::read_lines(&journal_path).unwrap();
        assert_eq!(lines.payloads.len(), journaled);
        let plan = plan_hex(plan_hash(tiny(), &specs));
        for (gid, result_json) in &replay.entries {
            let line = format!("{{\"plan\":\"{plan}\",\"unit\":{gid},\"result\":{result_json}}}");
            assert!(
                lines.payloads.contains(&line),
                "unit {gid} replays as the exact journaled bytes"
            );
        }

        // A plan with a different scale verifies none of the entries, unit and build
        // lines alike.
        let other_scale = Scale {
            max_iterations: 1,
            ..tiny()
        };
        assert_ne!(plan_hash(other_scale, &specs), plan_hash(tiny(), &specs));
        let other = PlannedCampaign::new(other_scale, shared_graph_specs());
        let foreign = other.replay_journal(&journal_path).unwrap();
        assert!(foreign.entries.is_empty());
        assert_eq!(foreign.mismatched, journaled);

        // A missing journal is an empty replay, not an error (fresh start).
        let fresh = campaign.replay_journal(&dir.join("absent.jsonl")).unwrap();
        assert!(fresh.entries.is_empty() && fresh.corrupt == 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
