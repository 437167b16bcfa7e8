//! Command-level DRAM timing model with the Piccolo-FIM extension.
//!
//! The model follows the same abstraction level as Ramulator (which the paper uses): each
//! request is translated into the DRAM commands it needs (PRE/ACT/RD/WR plus the FIM
//! virtual-row sequence), and per-bank / per-rank / per-channel timing windows decide when
//! each command may issue. A bounded look-ahead window reorders requests the way an
//! FR-FCFS scheduler would: requests that can finish earlier (typically row hits) issue
//! first within the window.
//!
//! The request the window selects is committed in place: its commands update the bank,
//! rank and channel state, the counters and (when enabled) the trace directly. Two
//! invariants keep servicing cheap without changing any timing decision:
//!
//! * a request's window key reads only its own bank's state, so it is computed once when
//!   the request enters the window and recomputed only after a request to the same bank
//!   issues;
//! * a channel's busy intervals are sorted and disjoint, so their ends are sorted too, and
//!   a bus reservation binary-searches past every interval that ends before it may start.
//!
//! Refresh is accounted for in the energy model only; its timing impact (a few percent,
//! identical across all evaluated systems) is ignored, as is common in accelerator
//! studies.

use crate::address::AddressMapper;
use crate::config::DramConfig;
use crate::request::MemRequest;
use crate::stats::MemStats;
use std::collections::VecDeque;

/// Kinds of DRAM commands recorded in the (optional) verification trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Row activation.
    Act,
    /// Precharge.
    Pre,
    /// Column read (burst).
    Rd,
    /// Column write (burst).
    Wr,
}

/// One command in the verification trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandRecord {
    /// Issue time in memory clocks.
    pub time: u64,
    /// Command kind.
    pub kind: CommandKind,
    /// Channel index.
    pub channel: u32,
    /// Rank index.
    pub rank: u32,
    /// Bank index (global within the rank).
    pub bank: u32,
    /// Row (for ACT) or 0.
    pub row: u64,
    /// Data-bus busy interval `(start, end)` in clocks for RD/WR, `(0, 0)` otherwise.
    pub bus: (u64, u64),
}

#[derive(Debug, Clone, Default)]
struct BankState {
    open_row: Option<u64>,
    act_ready: u64,
    col_ready: u64,
    pre_ready: u64,
    last_act: u64,
    busy_until: u64,
}

#[derive(Debug, Clone, Default)]
struct RankState {
    /// `tFAW` ring over the rank's last four activations: each slot holds `ACT + tFAW`, the
    /// earliest time a later ACT may issue (0 until four have issued). `faw_next` indexes
    /// the oldest slot, which bounds the next ACT.
    faw_ready: [u64; 4],
    faw_next: usize,
    last_act: u64,
    internal_bus_free: u64,
}

/// Channel data-bus schedule with gap filling: bursts issued to one bank do not block the
/// bus during another bank's internal (FIM) gap. Only a bounded window of recent busy
/// intervals is kept; anything older than the window is treated as unavailable, which is
/// conservative.
#[derive(Debug, Clone, Default)]
struct ChannelState {
    /// Sorted, disjoint busy intervals `(start, end)`; their ends are therefore sorted too.
    busy: VecDeque<(u64, u64)>,
    /// Everything before this time is considered unavailable (intervals older than the
    /// bookkeeping window have been folded into the horizon).
    horizon: u64,
}

impl ChannelState {
    const MAX_INTERVALS: usize = 256;

    /// Reserves `duration` clocks on the bus starting no earlier than `earliest`.
    /// Returns the start of the reserved interval. Gaps between existing reservations are
    /// reused (gap filling), so a burst to one bank can use the bus while another bank is
    /// in its FIM internal-operation window.
    fn reserve(&mut self, earliest: u64, duration: u64) -> u64 {
        let mut start = earliest.max(self.horizon);
        // Intervals that end by `start` can neither hold the burst nor delay it; the ends
        // are sorted, so skip them by binary search and scan for the first gap that fits.
        let first = self.busy.partition_point(|&(_, e)| e <= start);
        let mut insert_at = self.busy.len();
        for (i, &(s, e)) in self.busy.range(first..).enumerate() {
            if start + duration <= s {
                insert_at = first + i;
                break;
            }
            start = start.max(e);
        }
        self.busy.insert(insert_at, (start, start + duration));
        // Bound the bookkeeping window; dropped intervals are absorbed into the horizon so
        // the bus can never be double-booked.
        while self.busy.len() > Self::MAX_INTERVALS {
            if let Some((_, end)) = self.busy.pop_front() {
                self.horizon = self.horizon.max(end);
            }
        }
        start
    }
}

/// Result of servicing one batch of requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchResult {
    /// Time (memory clocks) at which the batch started.
    pub start_clock: u64,
    /// Time (memory clocks) at which the last request completed.
    pub end_clock: u64,
    /// Number of requests serviced.
    pub requests: u64,
}

impl BatchResult {
    /// Elapsed memory clocks for the batch.
    pub fn elapsed_clocks(&self) -> u64 {
        self.end_clock - self.start_clock
    }
}

/// The memory system: all channels, ranks and banks of one [`DramConfig`].
///
/// [`MemorySystem::service_batch`] commits each request the FR-FCFS window selects in
/// place. Its window key reads only the request's bank, and each channel's busy intervals
/// stay sorted and disjoint (see the module docs); servicing relies on both.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: DramConfig,
    mapper: AddressMapper,
    now: u64,
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    channels: Vec<ChannelState>,
    stats: MemStats,
    trace: Option<Vec<CommandRecord>>,
}

/// The bank a request targets and the row it needs open, resolved once when the request
/// enters the scheduling window.
#[derive(Clone, Copy)]
struct Target {
    channel: u32,
    rank: u32,
    bank: u32,
    row: u64,
}

/// A request waiting in the FR-FCFS window.
struct Pending {
    /// When its first column command could issue; see [`MemorySystem::window_key`].
    key: u64,
    /// Arrival order within the batch, the tie-break between equal keys.
    seq: u64,
    /// Index of its bank in `MemorySystem::banks`.
    bank: usize,
    at: Target,
    req: MemRequest,
}

impl MemorySystem {
    /// Creates a memory system in the idle state at time zero.
    pub fn new(cfg: DramConfig) -> Self {
        let mapper = AddressMapper::new(&cfg);
        let nbanks =
            (cfg.org.channels * cfg.org.ranks_per_channel * cfg.org.banks_per_rank) as usize;
        let nranks = (cfg.org.channels * cfg.org.ranks_per_channel) as usize;
        Self {
            cfg,
            mapper,
            now: 0,
            banks: vec![BankState::default(); nbanks],
            ranks: vec![RankState::default(); nranks],
            channels: vec![ChannelState::default(); cfg.org.channels as usize],
            stats: MemStats::default(),
            trace: None,
        }
    }

    /// Enables command-trace recording (used by the timing-legality checker in tests).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded command trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&[CommandRecord]> {
        self.trace.as_deref()
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The address mapper (shared with caches/MSHRs so they can group by DRAM row).
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets statistics (the time cursor and bank states are kept).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Current time in memory clocks.
    pub fn now_clocks(&self) -> u64 {
        self.now
    }

    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.now as f64 * self.cfg.clock_ns()
    }

    /// Converts clocks to nanoseconds using this system's memory clock.
    pub fn clocks_to_ns(&self, clocks: u64) -> f64 {
        clocks as f64 * self.cfg.clock_ns()
    }

    /// Services a batch of requests, returning the timing of the batch. Requests may be
    /// reordered within the configured queue window (FR-FCFS-style), but the batch only
    /// finishes when every request has completed.
    pub fn service_batch<I>(&mut self, requests: I) -> BatchResult
    where
        I: IntoIterator<Item = MemRequest>,
    {
        let start = self.now;
        let depth = self.cfg.queue_depth.max(1);
        let mut requests = requests.into_iter();
        let mut window: Vec<Pending> = Vec::with_capacity(depth);
        let mut count = 0u64;
        let mut batch_end = start;

        loop {
            while window.len() < depth {
                let Some(req) = requests.next() else { break };
                let at = self.target(&req);
                let bank = self.bank_index(at);
                window.push(Pending {
                    key: self.window_key(bank, at.row),
                    seq: count + window.len() as u64,
                    bank,
                    at,
                    req,
                });
            }
            // Issue the entry whose first column command could issue earliest (row hits
            // win over row misses), breaking ties by arrival order — the essence of
            // FR-FCFS.
            let Some(best) = (0..window.len()).min_by_key(|&i| (window[i].key, window[i].seq))
            else {
                break;
            };
            let issued = window.swap_remove(best);
            batch_end = batch_end.max(self.execute(&issued.req, issued.at, start));
            count += 1;
            // Only the issued request's bank changed, and a key reads nothing else.
            for p in window.iter_mut().filter(|p| p.bank == issued.bank) {
                p.key = self.window_key(p.bank, p.at.row);
            }
        }

        // Advance the global cursor to the end of the batch so subsequent batches cannot
        // overlap with this one (the accelerator consumes the data before issuing more).
        self.now = batch_end;
        BatchResult {
            start_clock: start,
            end_clock: batch_end,
            requests: count,
        }
    }

    /// Services a single request immediately (convenience for microbenchmarks/tests).
    pub fn service_one(&mut self, request: MemRequest) -> BatchResult {
        self.service_batch(std::iter::once(request))
    }

    fn target(&self, req: &MemRequest) -> Target {
        match req {
            MemRequest::Read { addr, .. }
            | MemRequest::Write { addr, .. }
            | MemRequest::PimUpdate { addr, .. } => {
                let loc = self.mapper.decompose(*addr);
                Target {
                    channel: loc.channel,
                    rank: loc.rank,
                    bank: loc.bank,
                    row: loc.row,
                }
            }
            MemRequest::GatherFim { row, .. }
            | MemRequest::ScatterFim { row, .. }
            | MemRequest::GatherNmp { row, .. }
            | MemRequest::ScatterNmp { row, .. } => {
                let (channel, rank, bank, row) = self.mapper.unpack_row_id(*row);
                Target {
                    channel,
                    rank,
                    bank,
                    row,
                }
            }
        }
    }

    fn rank_index(&self, at: Target) -> usize {
        (at.channel * self.cfg.org.ranks_per_channel + at.rank) as usize
    }

    fn bank_index(&self, at: Target) -> usize {
        self.rank_index(at) * self.cfg.org.banks_per_rank as usize + at.bank as usize
    }

    /// FR-FCFS window key: a cheap estimate of when a request's first column command could
    /// issue (row hits get earlier keys than row misses). It reads only the request's own
    /// bank, so it stays valid until a request to that bank issues.
    fn window_key(&self, bank: usize, row: u64) -> u64 {
        let t = &self.cfg.timing;
        let bank = &self.banks[bank];
        if bank.open_row == Some(row) {
            bank.col_ready.max(bank.busy_until)
        } else {
            bank.act_ready
                .max(bank.pre_ready)
                .max(bank.busy_until)
                .saturating_add(t.t_rp + t.t_rcd)
        }
    }

    /// Commits `req` in place: issues its commands no earlier than `earliest`, updating its
    /// bank, rank and channel, the counters and the trace. Returns its completion time.
    fn execute(&mut self, req: &MemRequest, at: Target, earliest: u64) -> u64 {
        let bank = self.bank_index(at);
        let rank = self.rank_index(at);
        let mut c = Commit {
            cfg: &self.cfg,
            at,
            bank: &mut self.banks[bank],
            rank: &mut self.ranks[rank],
            channel: &mut self.channels[at.channel as usize],
            stats: &mut self.stats,
            trace: self.trace.as_mut(),
        };
        let ready = c.open_row(earliest);
        match req {
            MemRequest::Read { useful_bytes, .. } => c.transfer(false, *useful_bytes, ready),
            MemRequest::Write { useful_bytes, .. } => c.transfer(true, *useful_bytes, ready),
            MemRequest::GatherFim { offsets, .. } => c.fim(offsets.len() as u64, false, ready),
            MemRequest::ScatterFim { offsets, .. } => c.fim(offsets.len() as u64, true, ready),
            MemRequest::GatherNmp { offsets, .. } => c.nmp(offsets.len() as u64, false, ready),
            MemRequest::ScatterNmp { offsets, .. } => c.nmp(offsets.len() as u64, true, ready),
            MemRequest::PimUpdate { .. } => c.pim(ready),
        }
    }
}

/// One request being committed: the state its commands touch, borrowed from the
/// [`MemorySystem`].
struct Commit<'a> {
    cfg: &'a DramConfig,
    at: Target,
    bank: &'a mut BankState,
    rank: &'a mut RankState,
    channel: &'a mut ChannelState,
    stats: &'a mut MemStats,
    trace: Option<&'a mut Vec<CommandRecord>>,
}

impl Commit<'_> {
    fn record(&mut self, time: u64, kind: CommandKind, row: u64, bus: (u64, u64)) {
        if let Some(trace) = &mut self.trace {
            trace.push(CommandRecord {
                time,
                kind,
                channel: self.at.channel,
                rank: self.at.rank,
                bank: self.at.bank,
                row,
                bus,
            });
        }
    }

    /// Opens the target row if needed. Returns the time at which a column command may
    /// issue.
    fn open_row(&mut self, earliest: u64) -> u64 {
        let t = &self.cfg.timing;
        let row = self.at.row;
        let mut start = earliest.max(self.bank.busy_until);

        if self.bank.open_row == Some(row) {
            self.stats.row_hits += 1;
            return start.max(self.bank.col_ready);
        }
        self.stats.row_misses += 1;

        // Precharge if another row is open.
        if self.bank.open_row.is_some() {
            let t_pre = start.max(self.bank.pre_ready);
            self.record(t_pre, CommandKind::Pre, 0, (0, 0));
            self.stats.precharges += 1;
            self.bank.act_ready = self.bank.act_ready.max(t_pre + t.t_rp);
            start = t_pre;
        }

        // Activate, respecting tRC (same bank), tRRD (same rank) and tFAW (4-activate
        // window per rank).
        let rank = &mut *self.rank;
        let t_act = start
            .max(self.bank.act_ready)
            .max(self.bank.last_act + t.t_rc)
            .max(rank.last_act + t.t_rrd)
            .max(rank.faw_ready[rank.faw_next]);
        rank.last_act = t_act;
        rank.faw_ready[rank.faw_next] = t_act + t.t_faw;
        rank.faw_next = (rank.faw_next + 1) % rank.faw_ready.len();
        self.record(t_act, CommandKind::Act, row, (0, 0));
        self.stats.activations += 1;
        let bank = &mut *self.bank;
        bank.open_row = Some(row);
        bank.last_act = t_act;
        bank.col_ready = t_act + t.t_rcd;
        bank.pre_ready = t_act + t.t_ras;
        bank.col_ready
    }

    /// Issues one column burst (RD or WR) no earlier than `ready`, counting its
    /// transaction and off-chip bytes. Returns the end of its data transfer.
    fn column(&mut self, is_write: bool, ready: u64) -> u64 {
        let t = &self.cfg.timing;
        let latency = if is_write { t.t_cwl } else { t.t_cl };
        // The data bus must be free for the burst; gap filling lets bursts to other banks
        // proceed during another bank's FIM gap.
        let earliest_data = ready.max(self.bank.col_ready) + latency;
        let data_start = self.channel.reserve(earliest_data, t.t_burst);
        let t_col = data_start - latency;
        let data_end = data_start + t.t_burst;
        self.bank.col_ready = t_col + t.t_ccd_l;
        let stats = &mut *self.stats;
        stats.offchip_bytes += self.cfg.org.burst_bytes;
        let kind = if is_write {
            self.bank.pre_ready = self.bank.pre_ready.max(data_end + t.t_wr);
            stats.write_bursts += 1;
            stats.write_transactions += 1;
            CommandKind::Wr
        } else {
            self.bank.pre_ready = self.bank.pre_ready.max(t_col + t.t_rtp);
            stats.read_bursts += 1;
            stats.read_transactions += 1;
            CommandKind::Rd
        };
        self.record(t_col, kind, 0, (data_start, data_end));
        data_end
    }

    /// One conventional burst read or write.
    fn transfer(&mut self, is_write: bool, useful_bytes: u32, ready: u64) -> u64 {
        let data_end = self.column(is_write, ready);
        self.stats.useful_offchip_bytes += u64::from(useful_bytes).min(self.cfg.org.burst_bytes);
        data_end
    }

    /// Piccolo-FIM gather/scatter (Section IV/VI): offset-buffer write burst(s), the
    /// in-bank operation hidden under the virtual-row `tWR + tRP + tRCD` gap, and the
    /// data-buffer read (gather) or write (scatter) burst(s).
    fn fim(&mut self, items: u64, is_scatter: bool, ready: u64) -> u64 {
        let cfg = self.cfg;
        // 1. Offset-buffer write burst(s) over the data bus.
        let mut offsets_end = ready;
        for _ in 0..cfg.fim.offset_bursts(&cfg.org) {
            offsets_end = self.column(true, offsets_end);
        }

        // 2. The internal gather/scatter proceeds during the virtual-row gap. The memory
        //    controller may not touch this bank before the gap elapses.
        let gap = cfg.fim_gap_clocks().max(cfg.fim_internal_clocks());
        let internal_done = offsets_end + gap;
        self.bank.col_ready = self.bank.col_ready.max(internal_done);

        // 3. Data-buffer access: read for gathers, write for scatters.
        let mut completion = internal_done;
        for _ in 0..cfg.fim.data_bursts(&cfg.org) {
            completion = self.column(is_scatter, completion);
        }
        self.bank.busy_until = completion;

        self.stats.useful_offchip_bytes += items * 8;
        self.stats.internal_bytes += items * cfg.org.burst_bytes; // full column access per item
        if is_scatter {
            self.stats.fim_scatters += 1;
        } else {
            self.stats.fim_gathers += 1;
        }
        completion
    }

    /// NMP (buffer-chip, rank-level) gather/scatter: the same off-chip traffic as a FIM
    /// operation, but the internal column accesses serialize on the rank-level bus shared
    /// by every bank of the rank.
    fn nmp(&mut self, items: u64, is_scatter: bool, ready: u64) -> u64 {
        let t = &self.cfg.timing;
        // One command/offset burst from the host to the buffer chip.
        let cmd_end = self.column(true, ready);

        // The buffer chip then performs `items` column accesses serialized on the
        // rank-internal bus (one burst each), without occupying the off-chip channel.
        let internal_done = cmd_end
            .max(self.rank.internal_bus_free)
            .max(self.bank.col_ready)
            + items * t.t_ccd_l.max(t.t_burst);
        self.rank.internal_bus_free = internal_done;
        self.bank.col_ready = self.bank.col_ready.max(internal_done);

        // Finally one data burst over the channel carries the gathered words (or
        // acknowledges the scatter data which was sent along with the command).
        let data_end = self.column(is_scatter, internal_done);
        self.bank.busy_until = data_end;

        self.stats.useful_offchip_bytes += items * 8;
        self.stats.internal_bytes += items * self.cfg.org.burst_bytes;
        self.stats.nmp_ops += 1;
        data_end
    }

    /// PIM near-bank update: in-bank read-modify-write of one word, no channel traffic.
    fn pim(&mut self, ready: u64) -> u64 {
        let t = &self.cfg.timing;
        // Internal column read + compute + column write; the near-bank ALU adds a couple
        // of cycles of latency that is irrelevant next to the column timing.
        let completion = ready.max(self.bank.col_ready) + 2 * t.t_ccd_l + 2;
        self.bank.col_ready = completion;
        self.bank.pre_ready = self.bank.pre_ready.max(completion + t.t_wr);
        self.bank.busy_until = completion;
        self.stats.pim_updates += 1;
        self.stats.internal_bytes += 2 * self.cfg.org.burst_bytes;
        completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::RowId;
    use crate::request::Region;

    fn read(addr: u64) -> MemRequest {
        MemRequest::read(addr, Region::Other)
    }

    #[test]
    fn sequential_reads_hit_open_rows() {
        let mut mem = MemorySystem::new(DramConfig::ddr4_2400_x16());
        let reqs: Vec<MemRequest> = (0..256u64).map(|i| read(i * 64)).collect();
        mem.service_batch(reqs);
        let s = mem.stats();
        assert_eq!(s.read_transactions, 256);
        // Sequential bursts across 2 channels: at most a handful of activations.
        assert!(s.activations <= 8, "activations = {}", s.activations);
        assert!(s.row_hit_rate() > 0.9);
    }

    #[test]
    fn random_reads_cause_activations() {
        let mut mem = MemorySystem::new(DramConfig::ddr4_2400_x16());
        // Touch one burst per row over many rows.
        let row_stride = 1 << 20;
        let reqs: Vec<MemRequest> = (0..128u64).map(|i| read(i * row_stride)).collect();
        mem.service_batch(reqs);
        assert!(mem.stats().activations >= 64);
    }

    #[test]
    fn random_reads_take_longer_than_sequential() {
        let cfg = DramConfig::ddr4_2400_x16();
        let mut seq = MemorySystem::new(cfg);
        let t_seq = seq
            .service_batch((0..512u64).map(|i| read(i * 64)))
            .elapsed_clocks();
        let mut rnd = MemorySystem::new(cfg);
        // A pseudo-random pattern touching many distinct rows within one bank's address
        // range, defeating both row locality and channel interleave.
        let t_rnd = rnd
            .service_batch((0..512u64).map(|i| read(((i * 2654435761) % 100_000) * 8192)))
            .elapsed_clocks();
        assert!(
            t_rnd > t_seq,
            "random ({t_rnd}) should be slower than sequential ({t_seq})"
        );
    }

    #[test]
    fn fim_gather_moves_less_offchip_data_than_eight_reads() {
        let cfg = DramConfig::ddr4_2400_x16().with_fim();
        let mapper = AddressMapper::new(&cfg);
        let mut fim = MemorySystem::new(cfg);
        let row = mapper.row_id(0);
        fim.service_one(MemRequest::GatherFim {
            row,
            offsets: (0..8).collect(),
            region: Region::PropertyRandom,
        });
        let fim_bytes = fim.stats().offchip_bytes;

        let mut conv = MemorySystem::new(DramConfig::ddr4_2400_x16());
        conv.service_batch((0..8u64).map(|i| MemRequest::Read {
            addr: i * 1024,
            useful_bytes: 8,
            region: Region::PropertyRandom,
        }));
        let conv_bytes = conv.stats().offchip_bytes;
        assert_eq!(fim_bytes, 128); // one offset burst + one data burst
        assert_eq!(conv_bytes, 512); // eight 64 B bursts
        assert_eq!(fim.stats().fim_gathers, 1);
        assert!(fim.stats().internal_bytes > 0);
    }

    #[test]
    fn fim_gathers_on_different_banks_overlap() {
        // Two gathers to different banks should take much less than twice one gather,
        // because the virtual-row gap of one bank overlaps the other bank's work.
        let cfg = DramConfig::new(crate::config::MemoryKind::Ddr4X16, 1, 1).with_fim();
        let mapper = AddressMapper::new(&cfg);
        let mut one = MemorySystem::new(cfg);
        let row_a = mapper.row_id(0);
        // A different bank: bank bits sit above the column bits.
        let row_b = mapper.row_id(cfg.org.row_bytes * 2);
        let t1 = one
            .service_one(MemRequest::GatherFim {
                row: row_a,
                offsets: (0..8).collect(),
                region: Region::Other,
            })
            .elapsed_clocks();
        let mut two = MemorySystem::new(cfg);
        let t2 = two
            .service_batch(vec![
                MemRequest::GatherFim {
                    row: row_a,
                    offsets: (0..8).collect(),
                    region: Region::Other,
                },
                MemRequest::GatherFim {
                    row: row_b,
                    offsets: (0..8).collect(),
                    region: Region::Other,
                },
            ])
            .elapsed_clocks();
        assert!(
            t2 < 2 * t1,
            "two overlapped gathers ({t2}) should beat 2x one gather ({t1})"
        );
    }

    #[test]
    fn nmp_gather_is_slower_than_fim_gather_at_scale() {
        // With many gathers spread over the banks of one rank, rank-level serialization
        // should make NMP slower than Piccolo-FIM.
        let cfg = DramConfig::new(crate::config::MemoryKind::Ddr4X16, 1, 1).with_fim();
        let mapper = AddressMapper::new(&cfg);
        let rows: Vec<RowId> = (0..64u64)
            .map(|i| mapper.row_id(i * cfg.org.row_bytes * 2))
            .collect();
        let mut fim = MemorySystem::new(cfg);
        let t_fim = fim
            .service_batch(rows.iter().map(|&row| MemRequest::GatherFim {
                row,
                offsets: (0..8).collect(),
                region: Region::Other,
            }))
            .elapsed_clocks();
        let mut nmp = MemorySystem::new(cfg);
        let t_nmp = nmp
            .service_batch(rows.iter().map(|&row| MemRequest::GatherNmp {
                row,
                offsets: (0..8).collect(),
                region: Region::Other,
            }))
            .elapsed_clocks();
        assert!(
            t_nmp > t_fim,
            "NMP ({t_nmp}) should be slower than FIM ({t_fim})"
        );
    }

    #[test]
    fn pim_updates_have_no_offchip_traffic() {
        let mut mem = MemorySystem::new(DramConfig::ddr4_2400_x16());
        mem.service_batch((0..32u64).map(|i| MemRequest::PimUpdate {
            addr: i * 8,
            region: Region::PropertyRandom,
        }));
        assert_eq!(mem.stats().offchip_bytes, 0);
        assert_eq!(mem.stats().pim_updates, 32);
        assert!(mem.stats().internal_bytes > 0);
    }

    #[test]
    fn more_ranks_reduce_random_access_time() {
        let one_rank = DramConfig::new(crate::config::MemoryKind::Ddr4X16, 1, 1);
        let four_rank = DramConfig::new(crate::config::MemoryKind::Ddr4X16, 1, 4);
        let pattern: Vec<MemRequest> = (0..512u64)
            .map(|i| read(((i * 2654435761) % (1 << 22)) * 4096))
            .collect();
        let mut m1 = MemorySystem::new(one_rank);
        let t1 = m1.service_batch(pattern.clone()).elapsed_clocks();
        let mut m4 = MemorySystem::new(four_rank);
        let t4 = m4.service_batch(pattern).elapsed_clocks();
        assert!(t4 < t1, "4 ranks ({t4}) should beat 1 rank ({t1})");
    }

    #[test]
    fn time_advances_monotonically_across_batches() {
        let mut mem = MemorySystem::new(DramConfig::default());
        let b1 = mem.service_batch((0..16u64).map(|i| read(i * 64)));
        let b2 = mem.service_batch((0..16u64).map(|i| read(i * 64)));
        assert!(b2.start_clock >= b1.end_clock);
        assert!(mem.now_ns() > 0.0);
    }

    /// The binary-searched reservation picks the same slot as a scan from the front of the
    /// busy list, across gap filling and the horizon fold.
    #[test]
    fn reserve_matches_a_front_scan() {
        fn front_scan(ch: &ChannelState, earliest: u64, duration: u64) -> u64 {
            let mut start = earliest.max(ch.horizon);
            for &(s, e) in &ch.busy {
                if start + duration <= s {
                    break;
                }
                start = start.max(e);
            }
            start
        }
        let mut rng = piccolo_graph::rng::Rng64::seed_from_u64(11);
        let mut ch = ChannelState::default();
        for i in 0..4096u64 {
            // Drifts forward at about the bus's capacity, with jitter that lands in gaps.
            let earliest = i * 3 + rng.gen_u64_below(64);
            let duration = 1 + rng.gen_u64_below(4);
            let want = front_scan(&ch, earliest, duration);
            assert_eq!(ch.reserve(earliest, duration), want, "reservation {i}");
            assert!(ch
                .busy
                .iter()
                .zip(ch.busy.iter().skip(1))
                .all(|(a, b)| a.1 <= b.0));
        }
        assert!(ch.horizon > 0, "the busy window never overflowed");
    }
}
