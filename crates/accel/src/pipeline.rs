//! The shared simulation pipeline behind both accelerator models.
//!
//! [`engine::simulate`](crate::engine::simulate) (vertex-centric) and
//! [`edge_centric::simulate_edge_centric`](crate::edge_centric::simulate_edge_centric)
//! perform the same computation per iteration — initialise `Vtemp`, scatter contributions
//! along edges, apply, rebuild the frontier — and push the same kinds of traffic through
//! the same on-chip [`MemoryPath`] into the same DRAM model. The only genuine difference
//! between them is *traversal order*: which edges a chunk of work contains and which
//! sequential streams (topology, frontier, source properties) accompany it.
//!
//! This module owns everything that is traversal-independent:
//!
//! * the **iteration driver** [`run`] — functional state, convergence, the apply phase,
//!   compute/memory overlap timing, the final dirty flush and [`RunResult`] assembly;
//! * **frontier management** — the active set handed to each iteration and the
//!   dense/sparse frontier-read policy ([`ScatterContext::frontier_reads`]);
//! * **property-access plumbing** — turning per-edge destination updates and sequential
//!   streams into [`MemoryPath`]/[`MemRequest`] traffic
//!   ([`ScatterContext::process_edge`], [`ScatterContext::stream`]).
//!
//! A traversal order implements [`Traversal`]: it numbers its chunks (destination-interval
//! tiles for the vertex-centric engine, 2-D grid blocks for the edge-centric one) and
//! executes any single chunk on demand through a [`ScatterContext`]. Adding a new
//! execution strategy (sharded, asynchronous, multi-backend) means adding a new
//! `Traversal` implementation — not a new engine.
//!
//! The interior of a run is serial by construction: chunks execute in ascending order
//! through one memory path (vertex cache, MSHR, PIM operand buffer) and one DRAM model,
//! because the simulated result depends on the order in which requests reach them.
//! Only a [`TilingPolicy::Best`] search uses a second thread: its two candidates are
//! independent runs, and [`run_with_best_search`] runs the second on a spare core when
//! one is free.
//!
//! Every piece of state [`run`] touches — the memory path (with its boxed cache model),
//! the DRAM system, the functional property arrays — is constructed inside the call and
//! owned by it, so whole runs are freely shippable to worker threads: the parallel sweep
//! engine (`piccolo::sweep`) executes one `run` per worker. The `send_audit` test below
//! keeps this property from regressing.

use crate::config::{SimConfig, SystemKind, TilingPolicy};
use crate::layout::{GraphLayout, PROP_BYTES, ROW_OFFSET_BYTES};
use crate::path::MemoryPath;
use crate::profile;
use piccolo_algo::vcm::VertexProgram;
use piccolo_cache::CacheStats;
use piccolo_dram::{AddressMapper, MemRequest, MemStats, MemorySystem, Region, RowId};
use piccolo_graph::{ActiveSet, BitSet, Csr, Tiling, VertexId, VertexProps, Weight};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Simulated DRAM-clock cycles split by pipeline phase.
///
/// The three components sum to the run's total memory busy time; they are deterministic
/// simulation outputs (not host timings) and ride through the results codec so hot-loop
/// work can be profile-guided from any committed `BENCH.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    /// DRAM clocks servicing scatter-phase traffic (per-chunk batches).
    pub scatter_mem_clocks: u64,
    /// DRAM clocks servicing apply-phase traffic.
    pub apply_mem_clocks: u64,
    /// DRAM clocks servicing the final dirty flush.
    pub flush_mem_clocks: u64,
}

impl PhaseBreakdown {
    /// Total DRAM clocks across all phases (equals the run's memory busy time).
    pub fn total(&self) -> u64 {
        self.scatter_mem_clocks + self.apply_mem_clocks + self.flush_mem_clocks
    }
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The simulated system.
    pub system: SystemKind,
    /// Total accelerator cycles (at the accelerator clock).
    pub accel_cycles: u64,
    /// Cycles spent in the PE array (compute component).
    pub compute_cycles: u64,
    /// DRAM busy time in nanoseconds.
    pub mem_ns: f64,
    /// Wall-clock of the run in nanoseconds (accelerator cycles / clock).
    pub elapsed_ns: f64,
    /// Iterations executed.
    pub iterations: u32,
    /// Edges processed across all iterations.
    pub edges_processed: u64,
    /// Memory-system statistics.
    pub mem_stats: MemStats,
    /// Vertex cache/scratchpad statistics.
    pub cache_stats: CacheStats,
    /// Tile width used.
    pub tile_width: u32,
    /// Number of tiles.
    pub num_tiles: u32,
    /// Per-phase breakdown of the simulated DRAM busy time.
    pub phases: PhaseBreakdown,
}

impl RunResult {
    /// Average off-chip bandwidth in GB/s over the run.
    pub fn offchip_bandwidth_gbps(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            0.0
        } else {
            self.mem_stats.offchip_bytes as f64 / self.elapsed_ns
        }
    }

    /// Average DRAM-internal bandwidth in GB/s over the run (data moved by FIM/NMP/PIM
    /// operations that never crosses the channel).
    pub fn internal_bandwidth_gbps(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            0.0
        } else {
            self.mem_stats.internal_bytes as f64 / self.elapsed_ns
        }
    }
}

/// The tile-scaling factors [`TilingPolicy::Best`] searches on fine-grained systems.
///
/// Fig. 17's sweep shows two regimes for Piccolo/NMP: factor 1 (tiles that just fit)
/// wins when random destination traffic dominates (dense frontiers, high-degree
/// graphs), factor 2 when the per-tile frontier streams dominate (sparse frontiers,
/// low-degree graphs). Conventional caches always prefer factor 1 — over-sized tiles
/// thrash 64 B lines — so only the fine-grained systems search.
pub const BEST_TILING_FACTORS: [u32; 2] = [1, 2];

/// The factor `TilingPolicy::Best` resolves to without a search: 2 on fine-grained
/// systems, 1 otherwise.
fn family_default_factor(system: SystemKind) -> u32 {
    match system {
        SystemKind::Nmp | SystemKind::Piccolo => 2,
        _ => 1,
    }
}

/// Chooses the tiling for a run.
///
/// `TilingPolicy::Best` resolves to the *default* factor of the system family here
/// (factor 2 for fine-grained systems, 1 otherwise). This arm only matters for callers
/// that construct a [`Traversal`] directly from a `Best` config: both engine entry
/// points — [`engine::simulate`](crate::engine::simulate) and
/// [`edge_centric::simulate_edge_centric`](crate::edge_centric::simulate_edge_centric)
/// — implement Best's documented search through [`run_with_best_search`], which
/// replaces `Best` with each [`BEST_TILING_FACTORS`] candidate before any tiling is
/// resolved.
pub fn resolve_tiling(cfg: &SimConfig, num_vertices: u32) -> Tiling {
    let factor = match cfg.tiling {
        TilingPolicy::None => return Tiling::single_tile(num_vertices),
        TilingPolicy::Perfect => {
            return Tiling::perfect(num_vertices, cfg.accel.onchip_bytes, PROP_BYTES as u32)
        }
        TilingPolicy::Scaled(f) => f,
        TilingPolicy::Best => family_default_factor(cfg.system),
    };
    Tiling::scaled(
        num_vertices,
        cfg.accel.onchip_bytes,
        PROP_BYTES as u32,
        factor,
    )
}

/// Runs `program` under `cfg`, giving [`TilingPolicy::Best`] its documented search on
/// fine-grained systems (Piccolo/NMP): the result is that of the
/// [`BEST_TILING_FACTORS`] candidate with the fewest `accel_cycles` (the smaller factor
/// on a tie) — `make` rebuilds the traversal for each resolved candidate config. Which
/// factor wins depends on the workload: dense frontiers (PR/CC) and high-degree graphs
/// favor tiles that just fit, sparse frontiers and low-degree graphs favor 2x tiles —
/// so a fixed factor is measurably mis-calibrated for part of the figure suite, in the
/// edge-centric setting just as in the vertex-centric one (grid blocks are sized by the
/// same capacity rule). Conventional systems always prefer factor 1 — over-sized tiles
/// thrash 64 B lines — and skip the search.
///
/// The search is bounded. Every candidate stops as soon as a lower bound on its final
/// `accel_cycles` shows that it cannot beat the best finished candidate on
/// `(accel_cycles, factor)`. The bound is the cycles of the candidate's finished
/// iterations plus the cycles of the scatter clocks its current iteration has spent so
/// far, checked after every chunk and every iteration. Accelerator cycles never decrease
/// during a run, so the winner always finishes, and a candidate is either finished or
/// discarded: the result is exactly that of running every candidate to the end, ties
/// included.
///
/// The process counts the simulations in progress. When one more still fits in
/// [`std::thread::available_parallelism`], the second candidate runs on a scoped helper
/// thread while the caller runs the family default factor (the one [`resolve_tiling`]
/// gives `Best`), and the two check one shared bound. Otherwise — every core already
/// simulates, as in a campaign with one unit worker per core, or the spawn fails — the
/// candidates run one after the other, family default first. Every candidate's host
/// profile, a stopped one's included, is recorded on the calling thread, and a panic on
/// the helper is re-raised there.
///
/// Both engines funnel through here, so "Best" means the same thing on every traversal
/// order.
pub fn run_with_best_search<'g, P, T, M>(
    graph: &'g Csr,
    program: &P,
    cfg: &SimConfig,
    make: M,
) -> RunResult
where
    P: VertexProgram + Sync,
    T: Traversal<P>,
    M: Fn(&'g Csr, &SimConfig) -> T + Sync,
{
    best_search(graph, program, cfg, make, Spare::WhenFree)
}

/// Whether a Best search runs its second candidate on a helper thread.
#[derive(Debug, Clone, Copy)]
enum Spare {
    /// When one more simulation fits in the host's cores.
    WhenFree,
    /// Always (tests).
    #[cfg(test)]
    Always,
    /// Never: the candidates run one after the other (tests).
    #[cfg(test)]
    Never,
}

/// [`run_with_best_search`] with the helper rule given.
fn best_search<'g, P, T, M>(
    graph: &'g Csr,
    program: &P,
    cfg: &SimConfig,
    make: M,
    spare: Spare,
) -> RunResult
where
    P: VertexProgram + Sync,
    T: Traversal<P>,
    M: Fn(&'g Csr, &SimConfig) -> T + Sync,
{
    let _running = Simulating::start();
    if cfg.tiling != TilingPolicy::Best
        || !matches!(cfg.system, SystemKind::Nmp | SystemKind::Piccolo)
    {
        return run(graph, program, cfg, &make(graph, cfg));
    }
    let first = family_default_factor(cfg.system);
    let order: Vec<u32> = std::iter::once(first)
        .chain(BEST_TILING_FACTORS.into_iter().filter(|&f| f != first))
        .collect();
    let helper = match spare {
        Spare::WhenFree => Simulating::spare_core(),
        #[cfg(test)]
        Spare::Always => Some(Simulating::start()),
        #[cfg(test)]
        Spare::Never => None,
    };
    best_of(&order, helper, |factor, bound| {
        let candidate = cfg.with_tiling(TilingPolicy::Scaled(factor));
        let stop = Some(Stop { bound, factor });
        run_bounded(graph, program, &candidate, &make(graph, &candidate), stop)
    })
}

/// Simulations in progress in this process, Best-search helpers included.
static SIMULATIONS: AtomicUsize = AtomicUsize::new(0);

/// One simulation counted in [`SIMULATIONS`] until it is dropped.
#[derive(Debug)]
struct Simulating;

impl Simulating {
    fn start() -> Self {
        SIMULATIONS.fetch_add(1, Ordering::Relaxed);
        Simulating
    }

    /// Counts one more simulation if it still fits in the host's cores.
    fn spare_core() -> Option<Self> {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES
            .get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
        SIMULATIONS
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cores).then_some(n + 1)
            })
            .ok()
            .map(|_| Simulating)
    }
}

impl Drop for Simulating {
    fn drop(&mut self) {
        SIMULATIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The least `(accel_cycles, factor)` of a finished candidate, shared by the candidates
/// of one Best search. Every update is one assignment, so a poisoned lock still holds a
/// valid key.
#[derive(Debug, Default)]
struct SearchBound(Mutex<Option<(u64, u32)>>);

impl SearchBound {
    fn best(&self) -> Option<(u64, u32)> {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a finished candidate.
    fn finish(&self, key: (u64, u32)) {
        let mut best = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if best.is_none_or(|best| key < best) {
            *best = Some(key);
        }
    }
}

/// The stop rule of one Best-search candidate: its search's bound and its own factor.
#[derive(Debug, Clone, Copy)]
struct Stop<'a> {
    bound: &'a SearchBound,
    factor: u32,
}

impl Stop<'_> {
    /// Whether a candidate whose final `accel_cycles` are at least `lower` cannot win.
    fn cannot_win(self, lower: u64) -> bool {
        self.bound
            .best()
            .is_some_and(|best| (lower, self.factor) > best)
    }
}

/// What one candidate of [`best_of`] returns: its result unless it stopped, and its host
/// profile.
type Outcome = (Option<RunResult>, profile::PhaseProfile);

/// Runs `candidate(factor, bound)` for every factor in `order` against one shared
/// [`SearchBound`] and returns the finished result with the least
/// `(accel_cycles, factor)`; a candidate that stops returns `None`.
///
/// With a `helper` slot the first factor runs on the calling thread while a scoped
/// helper runs the rest; without one, or when the spawn fails, every factor runs on the
/// calling thread in `order`. Every candidate's profile is recorded on the calling
/// thread, and a helper's panic is resumed there once its own candidate is done.
fn best_of<C>(order: &[u32], helper: Option<Simulating>, candidate: C) -> RunResult
where
    C: Fn(u32, &SearchBound) -> Outcome + Sync,
{
    let bound = SearchBound::default();
    let run_each = |factors: &[u32]| -> Vec<(u32, Outcome)> {
        factors
            .iter()
            .map(|&factor| {
                let outcome = candidate(factor, &bound);
                if let Some(result) = &outcome.0 {
                    bound.finish((result.accel_cycles, factor));
                }
                (factor, outcome)
            })
            .collect()
    };
    let (first, rest) = order.split_at(1);
    let outcomes = match helper {
        None => run_each(order),
        Some(slot) => std::thread::scope(|s| {
            let spawned = std::thread::Builder::new().spawn_scoped(s, || {
                let _slot = slot;
                run_each(rest)
            });
            match spawned {
                Ok(helper) => {
                    let mut outcomes = run_each(first);
                    match helper.join() {
                        Ok(theirs) => outcomes.extend(theirs),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                    outcomes
                }
                Err(_) => run_each(order),
            }
        }),
    };
    let mut best: Option<((u64, u32), RunResult)> = None;
    for (factor, (result, host)) in outcomes {
        profile::record_run_profile(host);
        if let Some(result) = result {
            let key = (result.accel_cycles, factor);
            if best.as_ref().is_none_or(|&(best, _)| key < best) {
                best = Some((key, result));
            }
        }
    }
    best.expect("the search has a candidate").1
}

/// A traversal order: how one iteration's scatter phase walks the graph.
///
/// Implementations chunk the edge set (destination-interval tiles for the vertex-centric
/// engine, 2-D grid blocks for the edge-centric one), emit each chunk's sequential
/// streams, and feed every traversed edge to [`ScatterContext::process_edge`]. Everything
/// else — functional semantics, caching, DRAM timing, apply, convergence — is shared and
/// lives in [`run`].
pub trait Traversal<P: VertexProgram> {
    /// `(tile_width, num_tiles)` reported in the [`RunResult`].
    fn shape(&self) -> (u32, u32);

    /// Number of scatter chunks per iteration; [`run`] executes chunks
    /// `0..num_chunks()` in ascending order, starting from 0 in every iteration (a stopped
    /// Best-search candidate may end an iteration early), which the vertex-centric
    /// engine's in-place tile walk relies on.
    fn num_chunks(&self) -> usize;

    /// Executes scatter chunk `chunk` through `ctx`.
    ///
    /// A non-empty chunk must call [`ScatterContext::begin_chunk`], generate the chunk's
    /// streams and edge work, then [`ScatterContext::end_chunk`]; an empty chunk must
    /// leave `ctx` untouched.
    fn scatter_chunk(&self, chunk: usize, ctx: &mut ScatterContext<'_, P>);
}

/// Per-iteration view of the pipeline handed to a [`Traversal`].
///
/// Owns the request buffer of the chunk in flight plus mutable access to the functional
/// state (`Vtemp`, touched set), the memory path and the DRAM model; exposes read-only
/// access to the frontier and `Vprop`.
pub struct ScatterContext<'a, P: VertexProgram> {
    program: &'a P,
    cfg: &'a SimConfig,
    layout: &'a GraphLayout,
    mapper: &'a AddressMapper,
    num_vertices: u32,
    props: &'a [P::Value],
    active: &'a ActiveSet,
    frontier: &'a [VertexId],
    temp: &'a mut [P::Value],
    touched: &'a mut BitSet,
    /// `layout.vtemp_base`, hoisted so the per-edge path is one multiply-add.
    vtemp_base: u64,
    iter_edges: u64,
    path: &'a mut MemoryPath,
    mem: &'a mut MemorySystem,
    /// Requests of the chunk in flight, in a buffer the run reuses.
    reqs: &'a mut Vec<MemRequest>,
    /// Row-grouping buffers of the sparse-frontier gathers, reused by the run.
    gathers: &'a mut GatherBuffers,
    /// Whether `gathers.frontier` holds this iteration's sparse-frontier requests.
    sparse_frontier_built: bool,
    /// DRAM clocks of this iteration's serviced chunk batches.
    mem_clocks: u64,
}

impl<P: VertexProgram> std::fmt::Debug for ScatterContext<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScatterContext")
            .field("system", &self.cfg.system)
            .field("pending_requests", &self.reqs.len())
            .field("iter_edges", &self.iter_edges)
            .finish()
    }
}

impl<'a, P: VertexProgram> ScatterContext<'a, P> {
    /// The simulation configuration of this run.
    pub fn cfg(&self) -> &SimConfig {
        self.cfg
    }

    /// The DRAM layout of the graph arrays.
    pub fn layout(&self) -> &GraphLayout {
        self.layout
    }

    /// The active-vertex frontier of this iteration.
    pub fn active(&self) -> &ActiveSet {
        self.active
    }

    /// The frontier in ascending vertex order, built once per iteration by the driver
    /// (so per-chunk walks do not re-scan the active bitset).
    ///
    /// The returned slice borrows the iteration, not this context, so it can be walked
    /// while calling `&mut self` methods like [`Self::process_edge`].
    pub fn frontier(&self) -> &'a [VertexId] {
        self.frontier
    }

    /// Number of vertices in the graph.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Opens a chunk whose destination slice spans `tile_bytes` of `Vtemp` (drives
    /// Piccolo-cache way partitioning).
    pub fn begin_chunk(&mut self, tile_bytes: u64) {
        self.path.begin_tile(tile_bytes);
    }

    /// Closes the chunk: drains the collection MSHR and services the chunk's request
    /// batch through the DRAM model.
    pub fn end_chunk(&mut self) {
        self.path.end_tile(self.reqs);
        if !self.reqs.is_empty() {
            let batch = self.mem.service_batch(self.reqs.drain(..));
            self.mem_clocks += batch.elapsed_clocks();
        }
    }

    /// Processes one traversed edge `src --(weight)--> dst`: applies
    /// `Reduce(Vtemp[dst], Process(weight, Vprop[src]))` functionally, marks the
    /// destination touched, and pushes the 8 B random read-modify-write of `Vtemp[dst]`
    /// through the on-chip memory path.
    pub fn process_edge(&mut self, src: VertexId, dst: VertexId, weight: Weight) {
        let res = self.program.process(weight, self.props[src as usize]);
        let slot = &mut self.temp[dst as usize];
        *slot = self.program.reduce(*slot, res);
        self.touched.insert(dst as usize);
        self.iter_edges += 1;
        let addr = self.vtemp_base + dst as u64 * PROP_BYTES;
        self.path.random_access(addr, true, self.mapper, self.reqs);
    }

    /// Emits `bytes` of sequential stream traffic starting at `base + offset` as 64 B
    /// bursts (reads, or writes when `write` is set), every byte useful.
    pub fn stream(&mut self, base: u64, offset: u64, bytes: u64, write: bool, region: Region) {
        stream_requests(self.reqs, base, offset, bytes, write, region);
    }

    /// Emits the row-offset and `Vprop` reads of this iteration's frontier for one chunk.
    ///
    /// Dense frontiers (PageRank, early CC iterations — or always, for Graphicionado,
    /// which has no active-vertex compaction in its prefetcher) stream sequentially.
    /// Sparse frontiers are isolated 4/8 B reads scattered over large arrays (the Fig. 3
    /// situation for BFS): a conventional memory system still fetches a 64 B burst per
    /// touched line, whereas Piccolo/NMP gather up to eight useful words per DRAM row
    /// through the same in-memory scatter/gather machinery used for the destination
    /// properties.
    ///
    /// `chunk_idx` decorrelates the per-chunk re-reads in the address map;
    /// `sources_with_edges` is the number of frontier vertices with edges in this chunk.
    pub fn frontier_reads(&mut self, chunk_idx: usize, sources_with_edges: u64) {
        let n = self.num_vertices as u64;
        let dense =
            self.active.len() as u64 * 16 >= n || self.cfg.system == SystemKind::Graphicionado;
        if dense {
            let row_vertices = if self.cfg.system == SystemKind::Graphicionado {
                n
            } else {
                self.active.len() as u64
            };
            self.stream(
                self.layout.row_offsets_base,
                (chunk_idx as u64 * n * ROW_OFFSET_BYTES) % (1 << 28),
                row_vertices * ROW_OFFSET_BYTES,
                false,
                Region::TopologyRow,
            );
            self.stream(
                self.layout.vprop_base,
                0,
                sources_with_edges * PROP_BYTES,
                false,
                Region::PropertySequential,
            );
        } else {
            // The sparse reads depend on the frontier, the layout and the mapper, never
            // on the chunk: build them once per iteration and copy them into every chunk.
            if !self.sparse_frontier_built {
                let fine = matches!(self.cfg.system, SystemKind::Piccolo | SystemKind::Nmp);
                let nmp = self.cfg.system == SystemKind::Nmp;
                let layout = *self.layout;
                let items_per_op = self.cfg.dram.fim.items_per_op;
                // The frontier slice is the active set in ascending order; walking it
                // beats re-scanning the bitset and produces the identical address
                // sequence.
                let addrs = self.frontier.iter().flat_map(move |&u| {
                    [
                        (layout.row_offset_addr(u), ROW_OFFSET_BYTES as u32),
                        (layout.vprop_addr(u), PROP_BYTES as u32),
                    ]
                });
                let mut built = std::mem::take(&mut self.gathers.frontier);
                built.clear();
                sparse_frontier_requests(
                    &mut built,
                    addrs,
                    fine,
                    nmp,
                    self.mapper,
                    items_per_op,
                    self.gathers,
                );
                self.gathers.frontier = built;
                self.sparse_frontier_built = true;
            }
            self.reqs.extend_from_slice(&self.gathers.frontier);
        }
    }
}

/// Emits `bytes` of sequential stream traffic starting at `base + offset` as 64 B reads
/// (or writes), marking every byte useful.
pub(crate) fn stream_requests(
    out: &mut Vec<MemRequest>,
    base: u64,
    offset: u64,
    bytes: u64,
    write: bool,
    region: Region,
) {
    if bytes == 0 {
        return;
    }
    let start = (base + offset) & !63;
    let bursts = bytes.div_ceil(64);
    for i in 0..bursts {
        let addr = start + i * 64;
        out.push(if write {
            MemRequest::Write {
                addr,
                useful_bytes: 64,
                region,
            }
        } else {
            MemRequest::Read {
                addr,
                useful_bytes: 64,
                region,
            }
        });
    }
}

/// Reusable buffers of the sparse-frontier reads: [`sparse_frontier_requests`]'s row
/// grouping and the iteration's built requests.
#[derive(Debug, Default)]
pub(crate) struct GatherBuffers {
    /// The sparse-frontier requests of the iteration, copied into each of its chunks.
    frontier: Vec<MemRequest>,
    /// `(row, arrival, word offset)` of every frontier address.
    items: Vec<(RowId, u32, u16)>,
    /// `(first arrival, start, end)` of each row's run in the sorted `items`.
    rows: Vec<(u32, usize, usize)>,
    /// One row's offsets, deduplicated in first-seen order.
    offsets: Vec<u16>,
}

/// Emits the per-tile reads of isolated (sparse-frontier) 4/8 B accesses: row-grouped
/// in-memory gathers on fine-grained systems, one 64 B line read per touched line
/// otherwise.
///
/// A gather row's requests follow the order in which rows are first seen. Within a row the
/// offsets are deduplicated in first-seen order and split into requests of at most
/// `items_per_op`. One sort of the `(row, arrival, offset)` triples groups each row's
/// offsets in arrival order; the rows are then emitted by their first arrival.
pub(crate) fn sparse_frontier_requests(
    out: &mut Vec<MemRequest>,
    addrs: impl Iterator<Item = (u64, u32)>,
    fine_grained: bool,
    nmp: bool,
    mapper: &AddressMapper,
    items_per_op: u32,
    buffers: &mut GatherBuffers,
) {
    if fine_grained {
        let GatherBuffers {
            items,
            rows,
            offsets,
            ..
        } = buffers;
        items.clear();
        for (arrival, (addr, _useful)) in addrs.enumerate() {
            let loc = mapper.decompose(addr);
            let arrival = u32::try_from(arrival).expect("a chunk's frontier addresses fit u32");
            items.push((mapper.row_id_of(&loc), arrival, loc.word_offset()));
        }
        // The items are in arrival order, so a stable sort by row orders them by
        // `(row, arrival)` while comparing rows only.
        items.sort_by_key(|&(row, _, _)| row);
        rows.clear();
        let mut start = 0;
        for run in items.chunk_by(|a, b| a.0 == b.0) {
            rows.push((run[0].1, start, start + run.len()));
            start += run.len();
        }
        rows.sort_unstable();
        for &(_, start, end) in rows.iter() {
            let run = &items[start..end];
            offsets.clear();
            for &(_, _, off) in run {
                if !offsets.contains(&off) {
                    offsets.push(off);
                }
            }
            let row = run[0].0;
            for chunk in offsets.chunks(items_per_op.max(1) as usize) {
                out.push(if nmp {
                    MemRequest::GatherNmp {
                        row,
                        offsets: chunk.to_vec(),
                        region: Region::TopologyRow,
                    }
                } else {
                    MemRequest::GatherFim {
                        row,
                        offsets: chunk.to_vec(),
                        region: Region::TopologyRow,
                    }
                });
            }
        }
    } else {
        let mut last_line = u64::MAX;
        for (addr, useful) in addrs {
            let line = addr & !63;
            if line == last_line {
                continue;
            }
            last_line = line;
            out.push(MemRequest::Read {
                addr: line,
                useful_bytes: useful,
                region: Region::TopologyRow,
            });
        }
    }
}

/// Runs `program` on `graph` under `cfg` with the given traversal order and returns
/// timing and traffic statistics.
///
/// ## Timing model
///
/// Per iteration the driver accumulates the DRAM service time of all generated requests
/// (per-chunk batches) and the PE-array compute time; with prefetching enabled the two
/// overlap (`max`), without it they serialize (`+`), which reproduces the ~20 % penalty
/// of Fig. 20b. The graph-processing accelerators the paper builds on are throughput
/// oriented: per-request latency is hidden by deep prefetch/miss queues, so makespan
/// rather than per-access latency determines performance.
///
/// ## Apply-phase traffic
///
/// Scratchpad accelerators apply over every vertex of every tile (Algorithm 1 line 6):
/// the whole `Vprop` array is re-read each iteration. Cache-based systems read the
/// `Vtemp`/`Vprop` pair of touched destinations only. Updated entries are written back
/// in both cases. This policy is shared by every traversal order.
pub fn run<P, T>(graph: &Csr, program: &P, cfg: &SimConfig, traversal: &T) -> RunResult
where
    P: VertexProgram,
    T: Traversal<P>,
{
    let (result, host) = run_bounded(graph, program, cfg, traversal, None);
    profile::record_run_profile(host);
    result.expect("a run without a bound finishes")
}

/// Accelerator cycles of `clocks` DRAM clocks.
fn mem_accel_cycles(mem: &MemorySystem, clocks: u64, cfg: &SimConfig) -> u64 {
    (mem.clocks_to_ns(clocks) * cfg.accel.clock_ghz).ceil() as u64
}

/// [`run`], stopped with `None` as soon as `stop` says the run cannot win a Best search.
/// Returns the run's host profile beside the result, stopped or not, for the caller to
/// record.
#[expect(
    clippy::disallowed_methods,
    reason = "the host phase profile times each phase; it is published through piccolo-obs and never reaches RunResult"
)]
fn run_bounded<P, T>(
    graph: &Csr,
    program: &P,
    cfg: &SimConfig,
    traversal: &T,
    stop: Option<Stop<'_>>,
) -> (Option<RunResult>, profile::PhaseProfile)
where
    P: VertexProgram,
    T: Traversal<P>,
{
    let cannot_win = |lower: u64| stop.is_some_and(|s| s.cannot_win(lower));
    let n = graph.num_vertices();
    let layout = GraphLayout::new(graph);
    let mut path = MemoryPath::new(cfg.system, cfg.cache, &cfg.accel, &cfg.dram);
    let mut mem = MemorySystem::new(cfg.dram);
    let mapper = *mem.mapper();

    // Functional state (mirrors piccolo_algo::run_vcm).
    let mut props = VertexProps::new(n, program.initial_value(0, graph));
    for v in 0..n {
        props[v] = program.initial_value(v, graph);
    }
    let mut active = program.initial_active(graph);

    // Per-iteration scratch, allocated once and reused (arena-style): `Vtemp`, the
    // touched-destination set, the sorted frontier list, the gather-grouping buffers and
    // one request buffer shared by every scatter chunk, apply phase and the final flush.
    let mut temp = VertexProps::new(n, program.temp_identity(0, graph));
    let mut touched = BitSet::new(n as usize);
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut gathers = GatherBuffers::default();
    let mut reqs: Vec<MemRequest> = Vec::new();

    let num_chunks = traversal.num_chunks();

    let mut total_mem_clocks = 0u64;
    let mut compute_cycles = 0u64;
    let mut accel_cycles = 0u64;
    let mut edges_processed = 0u64;
    let mut iterations = 0u32;
    let mut phases = PhaseBreakdown::default();
    // Host wall-clock per phase, accumulated run-locally and returned for the caller to
    // publish via `profile::record_run_profile` into its thread's accumulator, so the
    // campaign can attribute timings to this specific run.
    let mut host_profile = profile::PhaseProfile::default();
    let all_active_algorithm = program.algorithm().is_all_active();
    let mut stopped = false;

    for _iter in 0..cfg.max_iterations {
        if active.is_empty() {
            break;
        }
        iterations += 1;

        // Frontier + scratch rebuild (word-level bitset scan; reused allocations).
        let t_frontier = Instant::now();
        frontier.clear();
        active.for_each_sorted(|v| frontier.push(v));
        for v in 0..n {
            temp[v] = program.temp_identity(v, graph);
        }
        touched.clear();
        host_profile.frontier_ns += t_frontier.elapsed().as_nanos() as u64;

        // Scatter phase (Algorithm 1 lines 1-5), in the traversal's order.
        let t_scatter = Instant::now();
        let mut ctx = ScatterContext {
            program,
            cfg,
            layout: &layout,
            mapper: &mapper,
            num_vertices: n,
            props: props.as_slice(),
            active: &active,
            frontier: &frontier,
            temp: temp.as_mut_slice(),
            touched: &mut touched,
            vtemp_base: layout.vtemp_base,
            iter_edges: 0,
            path: &mut path,
            mem: &mut mem,
            reqs: &mut reqs,
            gathers: &mut gathers,
            sparse_frontier_built: false,
            mem_clocks: 0,
        };
        for chunk in 0..num_chunks {
            traversal.scatter_chunk(chunk, &mut ctx);
            // The scatter clocks so far bound this iteration's cycles from below.
            stopped = cannot_win(accel_cycles + mem_accel_cycles(ctx.mem, ctx.mem_clocks, cfg));
            if stopped {
                break;
            }
        }
        debug_assert!(ctx.reqs.is_empty(), "traversal left an unclosed chunk");
        if !ctx.reqs.is_empty() {
            // Fail closed in release builds: a traversal that forgot its final
            // end_chunk() must not silently drop traffic from the timing model.
            ctx.end_chunk();
        }
        let (iter_scatter_clocks, iter_edges) = (ctx.mem_clocks, ctx.iter_edges);
        host_profile.scatter_ns += t_scatter.elapsed().as_nanos() as u64;
        if stopped {
            break;
        }

        // Apply phase (Algorithm 1 lines 6-10), functionally over every vertex, with
        // memory traffic charged for touched destinations only.
        let t_apply = Instant::now();
        let mut next_active = ActiveSet::new(n);
        let mut updated = 0u64;
        for v in 0..n {
            let new = program.apply(props[v], temp[v], program.vconst(v, graph));
            if program.changed(props[v], new) {
                props[v] = new;
                next_active.activate(v);
                updated += 1;
            }
        }
        let touched_count = touched.count() as u64;
        if path.is_scratchpad() {
            stream_requests(
                &mut reqs,
                layout.vprop_base,
                0,
                n as u64 * PROP_BYTES,
                false,
                Region::PropertySequential,
            );
        } else {
            stream_requests(
                &mut reqs,
                layout.vtemp_base,
                0,
                touched_count * 2 * PROP_BYTES,
                false,
                Region::PropertySequential,
            );
        }
        stream_requests(
            &mut reqs,
            layout.vprop_base,
            0,
            updated * PROP_BYTES,
            true,
            Region::PropertySequential,
        );
        let mut iter_apply_clocks = 0u64;
        if !reqs.is_empty() {
            iter_apply_clocks += mem.service_batch(reqs.drain(..)).elapsed_clocks();
        }
        host_profile.apply_ns += t_apply.elapsed().as_nanos() as u64;

        // Timing: compute overlaps memory when the prefetcher is enabled.
        let iter_mem_clocks = iter_scatter_clocks + iter_apply_clocks;
        let iter_compute = cfg
            .accel
            .compute_cycles(iter_edges, touched_count + updated);
        let iter_mem_accel_cycles = mem_accel_cycles(&mem, iter_mem_clocks, cfg);
        accel_cycles += if cfg.accel.prefetch {
            iter_compute.max(iter_mem_accel_cycles)
        } else {
            iter_compute + iter_mem_accel_cycles
        };
        compute_cycles += iter_compute;
        total_mem_clocks += iter_mem_clocks;
        phases.scatter_mem_clocks += iter_scatter_clocks;
        phases.apply_mem_clocks += iter_apply_clocks;
        edges_processed += iter_edges;
        stopped = cannot_win(accel_cycles);
        if stopped {
            break;
        }

        let t_rebuild = Instant::now();
        active = if all_active_algorithm && updated > 0 {
            ActiveSet::all(n)
        } else if all_active_algorithm {
            ActiveSet::new(n)
        } else {
            next_active
        };
        host_profile.frontier_ns += t_rebuild.elapsed().as_nanos() as u64;
    }
    if !stopped {
        // Final flush: dirty vertex data must reach memory.
        path.finish(&mapper, &mut reqs);
        if !reqs.is_empty() {
            let batch = mem.service_batch(reqs.drain(..));
            total_mem_clocks += batch.elapsed_clocks();
            phases.flush_mem_clocks += batch.elapsed_clocks();
            accel_cycles += (mem.clocks_to_ns(batch.elapsed_clocks()) * cfg.accel.clock_ghz) as u64;
        }
        stopped = cannot_win(accel_cycles);
    }
    if stopped {
        return (None, host_profile);
    }

    let (tile_width, num_tiles) = traversal.shape();
    let mem_ns = mem.clocks_to_ns(total_mem_clocks);
    let result = RunResult {
        system: cfg.system,
        accel_cycles,
        compute_cycles,
        mem_ns,
        elapsed_ns: accel_cycles as f64 / cfg.accel.clock_ghz,
        iterations,
        edges_processed,
        mem_stats: *mem.stats(),
        cache_stats: path.cache_stats(),
        tile_width,
        num_tiles,
        phases,
    };
    (Some(result), host_profile)
}

#[cfg(test)]
mod send_audit {
    //! Compile-time audit that the whole simulation pipeline is per-run owned: a worker
    //! thread must be able to own a run's memory path (with its boxed cache), DRAM
    //! system and result. Fails to compile if any layer grows shared mutability.
    use super::*;
    use crate::config::SimConfig;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn simulation_state_is_send() {
        assert_send::<MemoryPath>();
        assert_send::<MemorySystem>();
        assert_send::<RunResult>();
        assert_send::<SimConfig>();
        // Shared read-only inputs of a sweep: one graph serves many worker threads.
        assert_sync::<Csr>();
        assert_sync::<SimConfig>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_centric::{simulate_edge_centric, EdgeCentric};
    use crate::engine::{simulate, VertexCentric};
    use crate::profile::PhaseProfile;
    use piccolo_algo::{Bfs, ConnectedComponents, PageRank, Sssp};
    use piccolo_dram::DramConfig;
    use piccolo_graph::generate;
    use piccolo_graph::rng::Rng64;
    use std::cell::Cell;

    type Simulate<P> = fn(&Csr, &P, &SimConfig) -> RunResult;

    /// The search the bounded one must reproduce: every factor runs to the end, and the
    /// least `(accel_cycles, factor)` wins. Returns the winning factor and its result.
    fn exhaustive<P: VertexProgram>(
        graph: &Csr,
        program: &P,
        cfg: &SimConfig,
        simulate: Simulate<P>,
    ) -> (u32, RunResult) {
        BEST_TILING_FACTORS
            .into_iter()
            .map(|f| {
                let fixed = cfg.with_tiling(TilingPolicy::Scaled(f));
                (f, simulate(graph, program, &fixed))
            })
            .min_by_key(|(f, r)| (r.accel_cycles, *f))
            .expect("BEST_TILING_FACTORS is non-empty")
    }

    /// One engine's Best search under the helper rule `spare`.
    fn search<P: VertexProgram + Sync>(
        edge_centric: bool,
        graph: &Csr,
        program: &P,
        cfg: &SimConfig,
        spare: Spare,
    ) -> RunResult {
        if edge_centric {
            best_search(graph, program, cfg, EdgeCentric::new, spare)
        } else {
            best_search(graph, program, cfg, VertexCentric::new, spare)
        }
    }

    /// Checks both engines' Best search, with the second candidate on a helper thread
    /// and without one, against [`exhaustive`] and records the winners.
    fn assert_exhaustive<P: VertexProgram + Sync>(
        label: &str,
        graph: &Csr,
        program: &P,
        cfg: &SimConfig,
        winners: &mut Vec<u32>,
    ) {
        let engines: [(&str, Simulate<P>, bool); 2] = [
            ("vertex-centric", simulate::<P>, false),
            ("edge-centric", simulate_edge_centric::<P>, true),
        ];
        for (engine, simulate, edge_centric) in engines {
            let (factor, want) = exhaustive(graph, program, cfg, simulate);
            for spare in [Spare::Always, Spare::Never] {
                let got = search(edge_centric, graph, program, cfg, spare);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{label}, {engine}, {spare:?}: factor {factor} wins the exhaustive search"
                );
            }
            winners.push(factor);
        }
    }

    /// The bounded Best search returns exactly the exhaustive search's `RunResult` on
    /// both traversals, NMP and Piccolo, and four programs, whether its candidates run at
    /// once or one after the other. The graphs make both factors
    /// win: factor 2 on the low-degree Kronecker graph, factor 1 on PageRank over the
    /// uniform graph and (by the tie rule, one tile either way) on the small dense one.
    #[test]
    fn best_search_returns_the_exhaustive_result() {
        let graphs = [
            ("kronecker(11, 4)", generate::kronecker(11, 4, 3)),
            ("kronecker(10, 8)", generate::kronecker(10, 8, 7)),
            ("uniform(2048, 6000)", generate::uniform(2048, 6000, 5)),
        ];
        let mut winners = Vec::new();
        for (name, g) in &graphs {
            let source = (0..g.num_vertices())
                .max_by_key(|&v| g.out_degree(v))
                .unwrap_or(0);
            for system in [SystemKind::Nmp, SystemKind::Piccolo] {
                let cfg = SimConfig::for_system(system, 12).with_max_iterations(4);
                assert_eq!(cfg.tiling, TilingPolicy::Best);
                let label = |program: &str| format!("{name}, {system:?}, {program}");
                let w = &mut winners;
                assert_exhaustive(&label("BFS"), g, &Bfs::new(source), &cfg, w);
                assert_exhaustive(&label("SSSP"), g, &Sssp::new(source), &cfg, w);
                assert_exhaustive(&label("PR"), g, &PageRank::default(), &cfg, w);
                assert_exhaustive(&label("CC"), g, &ConnectedComponents, &cfg, w);
            }
        }
        for factor in BEST_TILING_FACTORS {
            assert!(
                winners.contains(&factor),
                "factor {factor} never wins: {winners:?}"
            );
        }
    }

    /// A result that differs from others only in its cycles and tile width.
    fn fake(accel_cycles: u64, factor: u32) -> RunResult {
        RunResult {
            system: SystemKind::Piccolo,
            accel_cycles,
            compute_cycles: 0,
            mem_ns: 0.0,
            elapsed_ns: 0.0,
            iterations: 1,
            edges_processed: 0,
            mem_stats: MemStats::default(),
            cache_stats: CacheStats::default(),
            tile_width: factor,
            num_tiles: 1,
            phases: PhaseBreakdown::default(),
        }
    }

    /// Equal cycles keep the smaller factor whichever factor runs first, whether the
    /// later run stops on its bound or finishes anyway, on one thread or two; fewer
    /// cycles win outright.
    #[test]
    fn best_of_keeps_the_least_cycles_then_the_smaller_factor() {
        let cases: [(&[(u32, u64)], u32); 4] = [
            (&[(2, 100), (1, 100)], 1),
            (&[(1, 100), (2, 100)], 1),
            (&[(2, 100), (1, 101)], 2),
            (&[(1, 101), (2, 100)], 2),
        ];
        for (runs, winner) in cases {
            let order: Vec<u32> = runs.iter().map(|&(f, _)| f).collect();
            for obey in [true, false] {
                for helper in [false, true] {
                    let got = best_of(&order, helper.then(Simulating::start), |factor, bound| {
                        let cycles = runs.iter().find(|&&(f, _)| f == factor).unwrap().1;
                        let stops = Stop { bound, factor }.cannot_win(cycles);
                        let result = (!(obey && stops)).then(|| fake(cycles, factor));
                        (result, PhaseProfile::default())
                    });
                    let at = format!("{runs:?}, bound obeyed: {obey}, helper: {helper}");
                    assert_eq!(got.tile_width, winner, "{at}");
                }
            }
        }
    }

    /// The helper runs the second candidate on another thread, and the caller's thread
    /// accumulator receives both candidates' host profiles.
    #[test]
    fn the_helpers_profile_is_recorded_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        let _ = profile::take_thread_phase_profile();
        let got = best_of(&[2, 1], Some(Simulating::start()), |factor, _| {
            let on_caller = std::thread::current().id() == caller;
            ran_on.lock().unwrap().push((factor, on_caller));
            let host = PhaseProfile {
                scatter_ns: u64::from(factor) * 100,
                apply_ns: 1,
                frontier_ns: 0,
            };
            (Some(fake(50, factor)), host)
        });
        assert_eq!(got.tile_width, 1);
        let mut ran_on = ran_on.into_inner().unwrap();
        ran_on.sort_unstable();
        assert_eq!(ran_on, [(1, false), (2, true)]);
        let host = profile::take_thread_phase_profile();
        assert_eq!((host.scatter_ns, host.apply_ns), (300, 2));
    }

    /// A candidate finished on the helper stops the caller's losing candidate through
    /// the shared bound: the caller's candidate waits until the helper has finished,
    /// then checks its bound.
    #[test]
    fn a_finished_helper_candidate_stops_the_callers() {
        let caller = std::thread::current().id();
        let got = best_of(&[2, 1], Some(Simulating::start()), |factor, bound| {
            if std::thread::current().id() == caller {
                let finished = (0..50_000_000).any(|_| {
                    std::thread::yield_now();
                    bound.best().is_some()
                });
                assert!(finished, "the helper's candidate never finished");
                assert!(Stop { bound, factor }.cannot_win(50));
                (None, PhaseProfile::default())
            } else {
                (Some(fake(50, factor)), PhaseProfile::default())
            }
        });
        assert_eq!((got.accel_cycles, got.tile_width), (50, 1));
    }

    /// A panic on the helper thread is resumed on the calling thread with its payload.
    #[test]
    fn a_helper_panic_reaches_the_caller() {
        let caller = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| {
            best_of(&[2, 1], Some(Simulating::start()), |factor, _| {
                if std::thread::current().id() != caller {
                    panic!("helper candidate {factor} failed");
                }
                (Some(fake(50, factor)), PhaseProfile::default())
            })
        });
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("helper candidate 1 failed")
        );
    }

    /// A traversal that counts the chunks it executes.
    #[derive(Debug)]
    struct Counted<'g> {
        inner: VertexCentric<'g>,
        chunks: Cell<usize>,
    }

    impl<P: VertexProgram> Traversal<P> for Counted<'_> {
        fn shape(&self) -> (u32, u32) {
            <VertexCentric as Traversal<P>>::shape(&self.inner)
        }

        fn num_chunks(&self) -> usize {
            <VertexCentric as Traversal<P>>::num_chunks(&self.inner)
        }

        fn scatter_chunk(&self, chunk: usize, ctx: &mut ScatterContext<'_, P>) {
            self.chunks.set(self.chunks.get() + 1);
            self.inner.scatter_chunk(chunk, ctx);
        }
    }

    /// A run bounded below its final cycles returns nothing (after its first non-empty
    /// chunk when the bound is 0, with its host time still returned); bounded above,
    /// or at its own cycles by a larger factor, it returns the unbounded run's result.
    #[test]
    fn a_bounded_run_stops_exactly_when_it_cannot_win() {
        let g = generate::kronecker(11, 4, 3);
        let program = PageRank::default();
        let cfg = SimConfig::for_system(SystemKind::Piccolo, 12)
            .with_max_iterations(4)
            .with_tiling(TilingPolicy::Scaled(1));
        let counted = || Counted {
            inner: VertexCentric::new(&g, &cfg),
            chunks: Cell::new(0),
        };
        let t = counted();
        let full = run(&g, &program, &cfg, &t);
        let all_chunks = t.chunks.get();
        assert!(all_chunks > 1, "{all_chunks} chunks");
        let cycles = full.accel_cycles;
        let bounded = |best: (u64, u32)| {
            let t = counted();
            let bound = SearchBound::default();
            bound.finish(best);
            let stop = Some(Stop {
                bound: &bound,
                factor: 1,
            });
            let (result, host) = run_bounded(&g, &program, &cfg, &t, stop);
            (result, t.chunks.get(), host)
        };

        for best in [(cycles + 1, 1), (cycles, 2), (u64::MAX, 0)] {
            let (got, chunks, _) = bounded(best);
            let got = got.unwrap_or_else(|| panic!("bound {best:?} stopped the run"));
            assert_eq!(format!("{got:?}"), format!("{full:?}"), "bound {best:?}");
            assert_eq!(chunks, all_chunks, "bound {best:?}");
        }
        for best in [(cycles - 1, 2), (cycles, 0)] {
            assert!(
                bounded(best).0.is_none(),
                "bound {best:?} let the run finish"
            );
        }
        let (stopped, chunks, host) = bounded((0, 1));
        assert!(stopped.is_none());
        assert_eq!(chunks, 1, "the first chunk already exceeds a zero bound");
        assert!(host.scatter_ns > 0);
    }

    /// The row-keyed map builder the sort-based [`sparse_frontier_requests`] replaced,
    /// kept as its oracle.
    fn oracle(
        addrs: &[(u64, u32)],
        fine_grained: bool,
        nmp: bool,
        mapper: &AddressMapper,
        items_per_op: u32,
    ) -> Vec<MemRequest> {
        let mut out = Vec::new();
        if fine_grained {
            let mut by_row: std::collections::BTreeMap<RowId, Vec<u16>> =
                std::collections::BTreeMap::new();
            let mut order = Vec::new();
            for &(addr, _useful) in addrs {
                let loc = mapper.decompose(addr);
                let row = mapper.row_id_of(&loc);
                let entry = by_row.entry(row).or_insert_with(|| {
                    order.push(row);
                    Vec::new()
                });
                let off = loc.word_offset();
                if !entry.contains(&off) {
                    entry.push(off);
                }
            }
            for row in order {
                for chunk in by_row[&row].chunks(items_per_op.max(1) as usize) {
                    out.push(if nmp {
                        MemRequest::GatherNmp {
                            row,
                            offsets: chunk.to_vec(),
                            region: Region::TopologyRow,
                        }
                    } else {
                        MemRequest::GatherFim {
                            row,
                            offsets: chunk.to_vec(),
                            region: Region::TopologyRow,
                        }
                    });
                }
            }
        } else {
            let mut last_line = u64::MAX;
            for &(addr, useful) in addrs {
                let line = addr & !63;
                if line == last_line {
                    continue;
                }
                last_line = line;
                out.push(MemRequest::Read {
                    addr: line,
                    useful_bytes: useful,
                    region: Region::TopologyRow,
                });
            }
        }
        out
    }

    /// A seeded stream of 4/8 B frontier reads. Most addresses fall in a few rows, at
    /// 4-byte granularity, so rows repeat, rows are revisited after others, and two reads
    /// often share an 8-byte word (a duplicate offset); the rest are spread over 64 MiB.
    fn frontier_stream(rng: &mut Rng64, len: usize) -> Vec<(u64, u32)> {
        (0..len)
            .map(|_| {
                let space = if rng.gen_u32_below(4) == 0 {
                    1 << 26
                } else {
                    1 << 15
                };
                let addr = rng.gen_u64_below(space) & !3;
                (addr, if rng.gen_bool(0.5) { 4 } else { 8 })
            })
            .collect()
    }

    /// The sort-based builder emits exactly the oracle's requests, in the oracle's order,
    /// for FIM and NMP gathers at 4 and 8 items per op, conventional line reads and an
    /// empty stream, with one set of buffers reused across every call.
    #[test]
    fn sparse_frontier_requests_match_the_map_oracle() {
        let mapper = AddressMapper::new(&DramConfig::ddr4_2400_x16().with_fim());
        let mut buffers = GatherBuffers::default();
        let mut rng = Rng64::seed_from_u64(0x0f0e_51de);
        let mut out = Vec::new();
        for case in 0..64 {
            let len = [0, 1, 7, 64, 300, 2000][case % 6];
            let addrs = frontier_stream(&mut rng, len);
            for (fine, nmp) in [(true, false), (true, true), (false, false)] {
                for items_per_op in [4, 8] {
                    let want = oracle(&addrs, fine, nmp, &mapper, items_per_op);
                    out.clear();
                    let it = addrs.iter().copied();
                    sparse_frontier_requests(
                        &mut out,
                        it,
                        fine,
                        nmp,
                        &mapper,
                        items_per_op,
                        &mut buffers,
                    );
                    let at = format!(
                        "case {case} (len {len}, fine {fine}, nmp {nmp}, k {items_per_op})"
                    );
                    assert_eq!(out, want, "{at}");
                    assert_eq!(out.is_empty(), len == 0, "{at}");
                }
            }
        }
    }
}
