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
//! rank and channel state, the counters and (when enabled) the trace directly. These
//! invariants keep servicing cheap without changing any timing decision:
//!
//! * the window holds its requests in arrival order, so the first minimum key in the
//!   window is the FR-FCFS pick: the earliest key, ties broken by arrival;
//! * a request's window key reads only its own bank's state, so it is computed once when
//!   the request enters the window and recomputed only after a request to the same bank
//!   issues;
//! * the high half of a [`RowId`](crate::RowId) is the global bank index, so FIM and NMP
//!   requests find their bank without dividing; an address splits into its channel, rank
//!   and bank with one conditional subtract per field, because `% n` of a value read from
//!   a `bits_for(n)`-bit field (below `2n`) needs no division;
//! * every bus reservation is one burst of the channel's `t_burst` clocks, so a channel's
//!   calendar is kept as maximal runs of back-to-back bursts; the runs are sorted and
//!   disjoint, so their ends are sorted too, and a reservation walks back from the newest
//!   run to the first one that ends after it may start.
//!
//! Refresh is accounted for in the energy model only; its timing impact (a few percent,
//! identical across all evaluated systems) is ignored, as is common in accelerator
//! studies.

use crate::address::AddressMapper;
use crate::config::DramConfig;
use crate::request::MemRequest;
use crate::stats::MemStats;

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

/// Channel data-bus calendar with gap filling: bursts issued to one bank do not block the
/// bus during another bank's internal (FIM) gap. Only a bounded window of recent bursts is
/// kept; anything older than the window is treated as unavailable, which is conservative.
///
/// Every reservation is one burst of `burst` clocks, so the calendar is stored as maximal
/// runs of back-to-back bursts rather than one interval per burst. A burst never fits
/// inside a run, so scanning runs finds the same gap as scanning bursts, and folding the
/// oldest burst into the horizon shortens the first run by one burst.
#[derive(Debug, Clone, Default)]
struct ChannelState {
    /// The length of every reservation: the channel's burst time in clocks.
    burst: u64,
    /// Busy runs `(start, end)`, each a whole number of bursts long. Those from `head` on
    /// are live: sorted, disjoint and not touching, so their ends are sorted too. Those
    /// before `head` have been folded into the horizon.
    runs: Vec<(u64, u64)>,
    head: usize,
    /// The number of bursts in the live runs.
    bursts: usize,
    /// Everything before this time is considered unavailable (bursts older than the
    /// bookkeeping window have been folded into the horizon).
    horizon: u64,
}

impl ChannelState {
    const MAX_BURSTS: usize = 256;

    fn new(burst: u64) -> Self {
        Self {
            burst,
            ..Self::default()
        }
    }

    /// Reserves one burst on the bus starting no earlier than `earliest`. Returns the
    /// start of the burst. Gaps between existing reservations are reused (gap filling),
    /// so a burst to one bank can use the bus while another bank is in its FIM
    /// internal-operation window.
    fn reserve(&mut self, earliest: u64) -> u64 {
        let burst = self.burst;
        let mut start = earliest.max(self.horizon);
        // Runs that end by `start` can neither hold the burst nor delay it. The ends are
        // sorted and most bursts land near the newest run, so walk back from it to the
        // first that ends after `start`, then scan forward for a gap that fits.
        let mut first = self.runs.len();
        while first > self.head && self.runs[first - 1].1 > start {
            first -= 1;
        }
        let mut at = self.runs.len();
        for (i, &(s, e)) in self.runs.iter().enumerate().skip(first) {
            if start + burst <= s {
                at = i;
                break;
            }
            start = start.max(e);
        }
        // The burst sits in the gap before run `at`; it joins a neighbour it touches.
        let end = start + burst;
        let joins_prev = at > self.head && self.runs[at - 1].1 == start;
        let joins_next = at < self.runs.len() && self.runs[at].0 == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.runs[at - 1].1 = self.runs[at].1;
                self.runs.remove(at);
            }
            (true, false) => self.runs[at - 1].1 = end,
            (false, true) => self.runs[at].0 = start,
            (false, false) => self.runs.insert(at, (start, end)),
        }
        self.bursts += 1;
        // Bound the bookkeeping window; the oldest burst is absorbed into the horizon so
        // the bus can never be double-booked. The dead prefix of emptied runs is dropped
        // in one move once it is as long as the window.
        while self.bursts > Self::MAX_BURSTS {
            let oldest = &mut self.runs[self.head];
            oldest.0 += burst;
            self.horizon = self.horizon.max(oldest.0);
            if oldest.0 == oldest.1 {
                self.head += 1;
            }
            self.bursts -= 1;
        }
        if self.head >= Self::MAX_BURSTS {
            self.runs.drain(..self.head);
            self.head = 0;
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
/// place. The window keeps arrival order, a window key reads only the request's bank, and
/// each channel's busy runs stay sorted and disjoint (see the module docs); servicing
/// relies on all three.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: DramConfig,
    mapper: AddressMapper,
    now: u64,
    banks: Vec<BankState>,
    /// `(channel, rank, bank)` of each global bank index (see [`MemorySystem::bank_index`]).
    bank_coords: Vec<(u32, u32, u32)>,
    ranks: Vec<RankState>,
    channels: Vec<ChannelState>,
    /// The FR-FCFS window, kept between batches so its buffers are reused.
    window: Window,
    stats: MemStats,
    trace: Option<Vec<CommandRecord>>,
}

/// What a request asks of its bank, decoded once when it enters the scheduling window.
#[derive(Debug, Clone, Copy)]
enum Command {
    Read { useful_bytes: u32 },
    Write { useful_bytes: u32 },
    Fim { items: u64, scatter: bool },
    Nmp { items: u64, scatter: bool },
    Pim,
}

/// The FR-FCFS window: the waiting requests in arrival order, one array per field, so the
/// scheduling scan reads keys, banks and rows only.
#[derive(Debug, Clone, Default)]
struct Window {
    /// Each request's key; see [`BankKeys`].
    keys: Vec<u64>,
    /// Global index of each request's bank in `MemorySystem::banks`.
    banks: Vec<usize>,
    /// The row each request needs open.
    rows: Vec<u64>,
    commands: Vec<Command>,
}

impl Window {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn push(&mut self, key: u64, bank: usize, row: u64, command: Command) {
        self.keys.push(key);
        self.banks.push(bank);
        self.rows.push(row);
        self.commands.push(command);
    }

    /// Removes the request at `i`, keeping the others in arrival order.
    fn remove(&mut self, i: usize) -> (usize, u64, Command) {
        self.keys.remove(i);
        (
            self.banks.remove(i),
            self.rows.remove(i),
            self.commands.remove(i),
        )
    }
}

/// The FR-FCFS window keys of one bank's requests. A key is a cheap estimate of when a
/// request's first column command could issue: row hits get earlier keys than row misses.
/// It reads only the request's own bank, so it stays valid until a request to that bank
/// issues.
#[derive(Clone, Copy, Default)]
struct BankKeys {
    open_row: Option<u64>,
    /// The key of a request to the open row.
    hit: u64,
    /// The key of a request to any other row.
    miss: u64,
}

impl BankKeys {
    /// The key of a request to `row`.
    fn of(&self, row: u64) -> u64 {
        if self.open_row == Some(row) {
            self.hit
        } else {
            self.miss
        }
    }
}

/// The bank a request targets and the row it needs open.
#[derive(Clone, Copy)]
struct Target {
    channel: u32,
    rank: u32,
    bank: u32,
    row: u64,
}

impl MemorySystem {
    /// Creates a memory system in the idle state at time zero.
    pub fn new(cfg: DramConfig) -> Self {
        let mapper = AddressMapper::new(&cfg);
        let org = &cfg.org;
        let mut bank_coords = Vec::new();
        for channel in 0..org.channels {
            for rank in 0..org.ranks_per_channel {
                for bank in 0..org.banks_per_rank {
                    bank_coords.push((channel, rank, bank));
                }
            }
        }
        let nranks = (org.channels * org.ranks_per_channel) as usize;
        Self {
            cfg,
            mapper,
            now: 0,
            banks: vec![BankState::default(); bank_coords.len()],
            bank_coords,
            ranks: vec![RankState::default(); nranks],
            channels: vec![ChannelState::new(cfg.timing.t_burst); org.channels as usize],
            window: Window::default(),
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
        let mut window = std::mem::take(&mut self.window);
        let mut count = 0u64;
        let mut batch_end = start;
        // The bank of the request issued last; no bank before the first issue.
        let mut issued = usize::MAX;

        loop {
            while window.len() < depth {
                let Some(req) = requests.next() else { break };
                let (command, bank, row) = self.decode(&req);
                window.push(self.bank_keys(bank).of(row), bank, row, command);
            }
            // Issue the entry whose first column command could issue earliest (row hits
            // win over row misses), breaking ties by arrival order — the essence of
            // FR-FCFS. Only the last issued request's bank changed and a key reads nothing
            // else, so the same pass refreshes that bank's keys.
            let Some(best) = self.refresh_and_pick(&mut window, issued) else {
                break;
            };
            let (bank, row, command) = window.remove(best);
            batch_end = batch_end.max(self.execute(command, bank, row, start));
            count += 1;
            issued = bank;
        }
        self.window = window;

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

    /// Decodes `req` into its command, the global index of its bank and its row.
    fn decode(&self, req: &MemRequest) -> (Command, usize, u64) {
        let fim = |offsets: &Vec<u16>, scatter| Command::Fim {
            items: offsets.len() as u64,
            scatter,
        };
        let nmp = |offsets: &Vec<u16>, scatter| Command::Nmp {
            items: offsets.len() as u64,
            scatter,
        };
        let (command, (bank, row)) = match *req {
            MemRequest::Read {
                addr, useful_bytes, ..
            } => (Command::Read { useful_bytes }, self.addr_target(addr)),
            MemRequest::Write {
                addr, useful_bytes, ..
            } => (Command::Write { useful_bytes }, self.addr_target(addr)),
            MemRequest::PimUpdate { addr, .. } => (Command::Pim, self.addr_target(addr)),
            MemRequest::GatherFim {
                row, ref offsets, ..
            } => (fim(offsets, false), row.bank_and_row()),
            MemRequest::ScatterFim {
                row, ref offsets, ..
            } => (fim(offsets, true), row.bank_and_row()),
            MemRequest::GatherNmp {
                row, ref offsets, ..
            } => (nmp(offsets, false), row.bank_and_row()),
            MemRequest::ScatterNmp {
                row, ref offsets, ..
            } => (nmp(offsets, true), row.bank_and_row()),
        };
        (command, bank, row)
    }

    /// The global bank index and row of a byte address.
    fn addr_target(&self, addr: u64) -> (usize, u64) {
        let loc = self.mapper.decompose(addr);
        (self.bank_index(loc.channel, loc.rank, loc.bank), loc.row)
    }

    /// Global index of a bank: `(channel * ranks + rank) * banks + bank`, the same packing
    /// as the high half of a [`RowId`](crate::RowId).
    fn bank_index(&self, channel: u32, rank: u32, bank: u32) -> usize {
        let org = &self.cfg.org;
        ((channel * org.ranks_per_channel + rank) * org.banks_per_rank + bank) as usize
    }

    /// The FR-FCFS window keys of requests to `bank`.
    fn bank_keys(&self, bank: usize) -> BankKeys {
        let t = &self.cfg.timing;
        let b = &self.banks[bank];
        BankKeys {
            open_row: b.open_row,
            hit: b.col_ready.max(b.busy_until),
            miss: b
                .act_ready
                .max(b.pre_ready)
                .max(b.busy_until)
                .saturating_add(t.t_rp + t.t_rcd),
        }
    }

    /// Recomputes the keys of the window's requests to bank `issued` (no bank matches
    /// `usize::MAX`) and returns the index of the first minimum key, or `None` for an
    /// empty window.
    fn refresh_and_pick(&self, window: &mut Window, issued: usize) -> Option<usize> {
        let issued_keys = if issued < self.banks.len() {
            self.bank_keys(issued)
        } else {
            BankKeys::default()
        };
        let Window {
            keys, banks, rows, ..
        } = window;
        // Starting from `u64::MAX` and replacing only on a strictly smaller key keeps the
        // first minimum, index 0 included when every key saturated.
        let (mut best, mut best_key) = (0, u64::MAX);
        let entries = keys.iter_mut().zip(banks.iter().zip(rows.iter()));
        for (i, (key, (&bank, &row))) in entries.enumerate() {
            if bank == issued {
                *key = issued_keys.of(row);
            }
            if *key < best_key {
                (best, best_key) = (i, *key);
            }
        }
        (!keys.is_empty()).then_some(best)
    }

    /// Commits `command` in place: issues its commands to `row` of global bank `bank` no
    /// earlier than `earliest`, updating the bank, its rank and channel, the counters and
    /// the trace. Returns its completion time.
    fn execute(&mut self, command: Command, bank: usize, row: u64, earliest: u64) -> u64 {
        let (channel, rank, bank_in_rank) = self.bank_coords[bank];
        let rank_index = (channel * self.cfg.org.ranks_per_channel + rank) as usize;
        let mut c = Commit {
            cfg: &self.cfg,
            at: Target {
                channel,
                rank,
                bank: bank_in_rank,
                row,
            },
            bank: &mut self.banks[bank],
            rank: &mut self.ranks[rank_index],
            channel: &mut self.channels[channel as usize],
            stats: &mut self.stats,
            trace: self.trace.as_mut(),
        };
        let ready = c.open_row(earliest);
        match command {
            Command::Read { useful_bytes } => c.transfer(false, useful_bytes, ready),
            Command::Write { useful_bytes } => c.transfer(true, useful_bytes, ready),
            Command::Fim { items, scatter } => c.fim(items, scatter, ready),
            Command::Nmp { items, scatter } => c.nmp(items, scatter, ready),
            Command::Pim => c.pim(ready),
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
        let data_start = self.channel.reserve(earliest_data);
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

    /// The reservation, which walks back from the newest run, picks the same slot as a scan
    /// from the front of the live runs, across gap filling and the horizon fold, for each
    /// burst length a channel may have.
    #[test]
    fn reserve_matches_a_front_scan() {
        fn front_scan(ch: &ChannelState, earliest: u64) -> u64 {
            let mut start = earliest.max(ch.horizon);
            for &(s, e) in &ch.runs[ch.head..] {
                if start + ch.burst <= s {
                    break;
                }
                start = start.max(e);
            }
            start
        }
        let mut rng = piccolo_graph::rng::Rng64::seed_from_u64(11);
        for burst in 1..=4u64 {
            let mut ch = ChannelState::new(burst);
            for i in 0..4096u64 {
                // Drifts forward at about the bus's capacity, with jitter that lands in gaps.
                let earliest = i * (burst + 1) + rng.gen_u64_below(64);
                let want = front_scan(&ch, earliest);
                assert_eq!(ch.reserve(earliest), want, "burst {burst}, reservation {i}");
                let live = &ch.runs[ch.head..];
                assert!(live.windows(2).all(|w| w[0].1 < w[1].0));
            }
            assert!(ch.horizon > 0, "the busy window never overflowed");
        }
    }

    /// The calendar as one `(start, end)` interval per reservation, which the run calendar
    /// replaced: the reference it must agree with.
    #[derive(Default)]
    struct IntervalCalendar {
        busy: Vec<(u64, u64)>,
        head: usize,
        horizon: u64,
    }

    impl IntervalCalendar {
        fn reserve(&mut self, earliest: u64, duration: u64) -> u64 {
            let mut start = earliest.max(self.horizon);
            let mut first = self.busy.len();
            while first > self.head && self.busy[first - 1].1 > start {
                first -= 1;
            }
            let mut insert_at = self.busy.len();
            for (i, &(s, e)) in self.busy.iter().enumerate().skip(first) {
                if start + duration <= s {
                    insert_at = i;
                    break;
                }
                start = start.max(e);
            }
            self.busy.insert(insert_at, (start, start + duration));
            while self.busy.len() - self.head > ChannelState::MAX_BURSTS {
                self.horizon = self.horizon.max(self.busy[self.head].1);
                self.head += 1;
            }
            if self.head >= ChannelState::MAX_BURSTS {
                self.busy.drain(..self.head);
                self.head = 0;
            }
            start
        }
    }

    /// For burst lengths 1 to 8, seeded streams that fill gaps, append behind a backlog and
    /// fold the horizon thousands of times get the same start from the run calendar as from
    /// the interval calendar, which holds the same horizon and exactly the same live bursts
    /// after every reservation.
    #[test]
    fn run_calendar_matches_the_interval_calendar() {
        for burst in 1..=8u64 {
            let mut rng = piccolo_graph::rng::Rng64::seed_from_u64(0x0b05 + burst);
            let mut runs = ChannelState::new(burst);
            let mut reference = IntervalCalendar::default();
            let (mut folds, mut joins, mut fills, mut cursor) = (0, 0, 0, 0u64);
            for i in 0..6000u64 {
                // The cursor drifts at about the bus's capacity. Most requests land in the
                // recent past or near future, where gaps are; a few reach far back behind
                // the horizon or far ahead to open a wide gap.
                cursor += rng.gen_u64_below(2 * burst + 1);
                let earliest = match rng.gen_u64_below(16) {
                    0 => cursor.saturating_sub(rng.gen_u64_below(4096 * burst)),
                    1 => cursor + rng.gen_u64_below(512 * burst),
                    _ => (cursor + rng.gen_u64_below(32 * burst)).saturating_sub(16 * burst),
                };
                let horizon = reference.horizon;
                let runs_before = runs.runs.len() - runs.head;
                let newest_end = reference.busy.last().map_or(0, |b| b.1);
                let want = reference.reserve(earliest, burst);
                fills += usize::from(want < newest_end);
                assert_eq!(
                    runs.reserve(earliest),
                    want,
                    "burst {burst}, reservation {i}"
                );
                assert_eq!(
                    runs.horizon, reference.horizon,
                    "burst {burst}, reservation {i}"
                );
                folds += usize::from(reference.horizon != horizon);
                joins += usize::from(runs.runs.len() - runs.head <= runs_before);

                let live = &runs.runs[runs.head..];
                assert!(live.windows(2).all(|w| w[0].1 < w[1].0), "runs touch");
                let bursts: Vec<(u64, u64)> = live
                    .iter()
                    .flat_map(|&(s, e)| {
                        assert_eq!((e - s) % burst, 0, "a run is not whole bursts");
                        (s..e).step_by(burst as usize).map(move |b| (b, b + burst))
                    })
                    .collect();
                assert_eq!(
                    bursts,
                    reference.busy[reference.head..],
                    "burst {burst}, {i}"
                );
                assert_eq!(runs.bursts, bursts.len());
            }
            assert!(
                folds > 1000,
                "burst {burst}: the horizon moved only {folds} times"
            );
            assert!(
                joins > 1000,
                "burst {burst}: only {joins} bursts joined a run"
            );
            assert!(
                fills > 1000,
                "burst {burst}: only {fills} bursts filled a gap"
            );
        }
    }
}
