//! The cycle-level simulation engine (v5: data-oriented storage with
//! deterministic intra-simulation parallelism).
//!
//! The simulator is packet-granular with phit-accurate timing:
//!
//! * buffers hold whole packets (virtual cut-through), with the sizes of
//!   Table 2 (8-packet input VC FIFOs, 4-packet output staging buffers);
//! * moving a packet through the crossbar takes `crossbar_latency +
//!   packet_length / crossbar_speedup` cycles; serializing it on a link takes
//!   `packet_length` cycles plus `link_latency`;
//! * a head packet makes a single request per cycle to the output with the
//!   lowest `Q + P` among the candidates that satisfy flow control (the exact
//!   allocation rule of paper §3), and each output port grants up to
//!   `crossbar_speedup` requests per cycle;
//! * credits are modelled by reserving a downstream buffer slot at grant time
//!   and releasing it when the packet arrives, which is what a credit-based
//!   VCT implementation guarantees.
//!
//! # Layout (v5)
//!
//! Engine state is struct-of-arrays instead of per-switch structs:
//! packets live in a `PacketArena` (parallel field arrays plus a free list,
//! `u32` indices instead of owned values move through queues), input VC FIFOs
//! and output staging buffers are flat ring buffers indexed by precomputed
//! strides (`slot = (switch·num_ports + port)·num_vcs + vc`), each input VC
//! keeps one consumed-credit count (`in_used`: buffered plus reserved), a
//! `u32` table maps every output port to its flat downstream input port,
//! each input VC caches its head's candidate list as the 8-byte
//! [`Candidate`]s the routing algorithm wrote there (the escape part appended
//! only when it can win), and all per-step scratch lives in one reusable
//! `StepArena`. Each switch keeps two occupancy bitmasks —
//! non-empty input VCs (bit `port·num_vcs + vc`) and non-empty staging
//! buffers (bit `port`) — so the allocation and transmit sweeps visit only
//! occupied slots, in ascending order. A digest corpus recorded from the
//! per-switch-struct engine this layout replaced, while both engines ran
//! (the `corpus` tests, `tests/fixtures/engine_corpus.txt`), pins RNG draw
//! order, metrics bytes, counters and traces.
//!
//! # Parallelism
//!
//! With `SimConfig::partitions = P > 1` the engine splits switches into `P`
//! contiguous ranges and steps the two data-parallel phase parts on a
//! persistent [`WorkerPool`] with a cycle barrier:
//!
//! * **allocation** prefills the per-VC candidate caches in parallel
//!   (candidate lists are pure functions of `(packet state, switch)`, and
//!   heads cannot change during allocation), then runs the score + grant
//!   sweep sequentially — RNG tie-break draws stay in ascending switch
//!   order;
//! * **transmission** runs fully parallel with per-partition event buffers;
//!   every transmitted packet arrives at the same future cycle, so appending
//!   the buffers in ascending partition order reproduces the sequential
//!   event-wheel order exactly.
//!
//! Everything else (event processing, generation/injection, grants) is
//! sequential, so RNG draw order, metrics bytes, counters and store bytes
//! are byte-identical for every `P` — enforced by the `partition_invariance`
//! tests here, the integration suite, and `surepath bench`.

use crate::config::SimConfig;
use crate::metrics::{BatchMetrics, MeasuredCounters, RateMetrics, ThroughputSample};
use crate::obs::{Counter, CounterRegistry, PacketTracer, TraceEvent, TraceEventKind};
use crate::pool::WorkerPool;
use crate::rng_contract::{sample_without_replacement, RngContract};
use crate::server::GenerationMode;
use crate::traffic::{ServerLayout, TrafficPattern};
use hyperx_routing::{
    Candidate, CandidateKind, NetworkView, PacketState, RoutingMechanism, VcRange,
};
use rand::distributions::Binomial;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

/// A timed event travelling between switches or towards a server. Compact:
/// packets are arena indices, the input VC is a precomputed flat slot.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A packet finishes crossing a link and lands in input VC `slot`.
    Arrival { slot: u32, packet: u32 },
    /// A packet finishes its ejection link and is consumed by its server.
    Delivery { packet: u32 },
}

/// One output request produced by a head packet.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// `Q + P` in phits.
    score: u64,
    /// The candidate behind the request; an ejection request holds a
    /// penalty-free candidate for its ejection port.
    cand: Candidate,
    /// `down` entry of the candidate's port.
    down: u32,
    in_port: u16,
    in_vc: u8,
    out_vc: u8,
}

/// `down` entry of an ejection port.
const EJECT: u32 = u32::MAX - 1;
/// `down` entry of a dead port. Every value below [`EJECT`] is a live link.
const DEAD: u32 = u32::MAX;

/// Whether an input VC's cached list belongs to its current head.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum CacheState {
    /// No list: never filled, or the head was popped since.
    #[default]
    Empty,
    /// The list of the current head.
    Valid,
    /// Filled by this cycle's parallel prefill; the sequential sweep counts
    /// it as the miss a sequential engine would have taken there.
    Prefilled,
}

/// The candidate cache of one input VC. The state is reset at every pop, so
/// a valid list always belongs to the current head.
#[derive(Debug, Default)]
struct VcCache {
    /// The head's routing part, then (once appended) its escape part.
    list: Vec<Candidate>,
    state: CacheState,
    /// Whether the head's escape part is not in `list` yet.
    escape_pending: bool,
}

/// Candidate-list buffers returned by emptied slots, one stack per partition.
type ListPool = Vec<Vec<Candidate>>;

/// Computes the routing part of a head's candidate list at `switch` into
/// `cache`, leaving its escape part pending. A slot without a buffer (never
/// filled, or emptied since) takes the most recently returned one from
/// `pool`.
fn fill_cache(
    cache: &mut VcCache,
    pool: &mut ListPool,
    mechanism: &dyn RoutingMechanism,
    state: &PacketState,
    switch: usize,
) {
    if cache.list.capacity() == 0 {
        if let Some(buffer) = pool.pop() {
            cache.list = buffer;
        }
    }
    cache.list.clear();
    mechanism.candidates_into(state, switch, &mut cache.list);
    cache.escape_pending = true;
}

/// A deterministic dirty set of indices (switches, or servers for the
/// generation stage).
///
/// The active-set scheduler must visit members in exactly the order the
/// exhaustive scan would (ascending index — RNG draws happen per member in
/// that order), so this is a sorted list plus a membership bitmap:
/// insertion is O(1) amortised (pending insertions merge in one in-place
/// backward merge per cycle), iteration is the sorted list, and removal
/// happens during the caller's sweep. No allocations at steady state.
#[derive(Debug)]
struct ActiveSet {
    /// Membership bitmap; prevents duplicate insertions.
    member: Vec<bool>,
    /// Sorted active indices (the iteration order).
    list: Vec<usize>,
    /// Insertions since the last merge, unsorted.
    added: Vec<usize>,
}

impl ActiveSet {
    fn new(n: usize) -> Self {
        ActiveSet {
            member: vec![false; n],
            list: Vec::with_capacity(n),
            added: Vec::with_capacity(n),
        }
    }

    /// Marks `idx` active; no-op if it already is.
    fn insert(&mut self, idx: usize) {
        if !self.member[idx] {
            self.member[idx] = true;
            self.added.push(idx);
        }
    }

    /// Folds pending insertions into the sorted list (in place, backwards).
    fn merge_added(&mut self) {
        if self.added.is_empty() {
            return;
        }
        self.added.sort_unstable();
        let old_len = self.list.len();
        self.list.extend_from_slice(&self.added);
        let mut i = old_len;
        let mut j = self.added.len();
        let mut k = self.list.len();
        while i > 0 && j > 0 {
            k -= 1;
            if self.list[i - 1] > self.added[j - 1] {
                self.list[k] = self.list[i - 1];
                i -= 1;
            } else {
                self.list[k] = self.added[j - 1];
                j -= 1;
            }
        }
        while j > 0 {
            k -= 1;
            j -= 1;
            self.list[k] = self.added[j];
        }
        self.added.clear();
    }
}

/// Packet storage as parallel field arrays plus a free list. Queues and
/// events move `u32` indices; delivered packets return their slot to the
/// free list, so the arena's high-water mark is the peak in-flight count.
#[derive(Debug, Default)]
struct PacketArena {
    id: Vec<u64>,
    src_server: Vec<u32>,
    dst_server: Vec<u32>,
    dst_switch: Vec<u32>,
    created_at: Vec<u64>,
    injected_at: Vec<u64>,
    state: Vec<PacketState>,
    escape_hops: Vec<u16>,
    free: Vec<u32>,
}

impl PacketArena {
    #[allow(clippy::too_many_arguments)]
    fn alloc(
        &mut self,
        id: u64,
        src_server: usize,
        dst_server: usize,
        dst_switch: usize,
        created_at: u64,
        state: PacketState,
    ) -> u32 {
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            self.id[i] = id;
            self.src_server[i] = src_server as u32;
            self.dst_server[i] = dst_server as u32;
            self.dst_switch[i] = dst_switch as u32;
            self.created_at[i] = created_at;
            self.injected_at[i] = 0;
            self.state[i] = state;
            self.escape_hops[i] = 0;
            idx
        } else {
            self.id.push(id);
            self.src_server.push(src_server as u32);
            self.dst_server.push(dst_server as u32);
            self.dst_switch.push(dst_switch as u32);
            self.created_at.push(created_at);
            self.injected_at.push(0);
            self.state.push(state);
            self.escape_hops.push(0);
            (self.id.len() - 1) as u32
        }
    }

    fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }
}

/// All per-step scratch of the sequential phases, folded into one reusable
/// arena: request lists, sort keys, grant counters and the v2 sampler's
/// output. Sized to its bounds up front, so no allocations at
/// steady state.
#[derive(Debug)]
struct StepArena {
    /// Requests of the switch being allocated.
    requests: Vec<Request>,
    /// `(score, tie-break, request index)` sort keys.
    keyed: Vec<(u64, u32, usize)>,
    /// Per-output grants of the switch being allocated.
    out_grants: Vec<usize>,
    /// Per-input grants of the switch being allocated.
    in_grants: Vec<usize>,
    /// Rate contract v2 scratch: this cycle's sampled injectors.
    sampled: Vec<usize>,
    /// Partition cut points into an active list (parallel phases).
    seg: Vec<usize>,
}

impl StepArena {
    /// Scratch sized for the largest step: one request per input VC of a
    /// switch, one injector per server, one cut per partition.
    fn with_bounds(
        num_ports: usize,
        num_vcs: usize,
        num_servers: usize,
        partitions: usize,
    ) -> Self {
        let slots = num_ports * num_vcs;
        StepArena {
            requests: Vec::with_capacity(slots),
            keyed: Vec::with_capacity(slots),
            out_grants: Vec::with_capacity(num_ports),
            in_grants: Vec::with_capacity(num_ports),
            sampled: Vec::with_capacity(num_servers.max(partitions)),
            seg: Vec::with_capacity(partitions),
        }
    }
}

/// Read-only state shared by all partitions of a transmit sweep.
struct XmitShared<'a> {
    stg_pkt: &'a [u32],
    stg_vc: &'a [u16],
    stg_ready: &'a [u64],
    down: &'a [u32],
    cycle: u64,
    packet_length: u64,
    cap_out: usize,
    num_ports: usize,
    num_vcs: usize,
    stg_words: usize,
}

/// One partition's mutable view of a transmit sweep: disjoint slices of the
/// per-port/per-switch arrays plus an event buffer. With one partition the
/// task covers every switch and its buffer is the event-wheel slot itself.
struct XmitTask<'a> {
    /// First switch of the partition.
    sw_base: usize,
    /// This partition's segment of the transmit active list.
    seg: &'a mut [usize],
    /// Switches retained in `seg[..kept]` after the sweep.
    kept: usize,
    member: &'a mut [bool],
    stg_mask: &'a mut [u64],
    stg_head: &'a mut [u16],
    stg_len: &'a mut [u16],
    link_busy: &'a mut [u64],
    events: Vec<Ev>,
    progress: bool,
}

impl<'a> XmitTask<'a> {
    /// Splits the first `n_sw` switches, and the first `seg_len` entries of
    /// the active segment, off into their own task with event buffer `events`.
    fn split_front(
        &mut self,
        n_sw: usize,
        seg_len: usize,
        shared: &XmitShared,
        events: Vec<Ev>,
    ) -> XmitTask<'a> {
        let n_ports = n_sw * shared.num_ports;
        let (seg, rest) = std::mem::take(&mut self.seg).split_at_mut(seg_len);
        self.seg = rest;
        let (member, rest) = std::mem::take(&mut self.member).split_at_mut(n_sw);
        self.member = rest;
        let (stg_mask, rest) =
            std::mem::take(&mut self.stg_mask).split_at_mut(n_sw * shared.stg_words);
        self.stg_mask = rest;
        let (stg_head, rest) = std::mem::take(&mut self.stg_head).split_at_mut(n_ports);
        self.stg_head = rest;
        let (stg_len, rest) = std::mem::take(&mut self.stg_len).split_at_mut(n_ports);
        self.stg_len = rest;
        let (link_busy, rest) = std::mem::take(&mut self.link_busy).split_at_mut(n_ports);
        self.link_busy = rest;
        let front = XmitTask {
            sw_base: self.sw_base,
            seg,
            kept: 0,
            member,
            stg_mask,
            stg_head,
            stg_len,
            link_busy,
            events,
            progress: false,
        };
        self.sw_base += n_sw;
        front
    }
}

/// Read-only state shared by all partitions of a parallel candidate prefill.
struct PrefillShared<'a> {
    in_q: &'a [u32],
    in_head: &'a [u16],
    in_mask: &'a [u64],
    pkt_dst_switch: &'a [u32],
    pkt_state: &'a [PacketState],
    mechanism: &'a dyn RoutingMechanism,
    cap_in: usize,
    num_ports: usize,
    num_vcs: usize,
    in_words: usize,
}

/// One partition's mutable view of a parallel candidate prefill: its
/// slot-range slice of the per-VC caches plus its list-buffer pool.
struct PrefillTask<'a> {
    slot_base: usize,
    /// This partition's segment of the allocation active list.
    seg: &'a [usize],
    caches: &'a mut [VcCache],
    pool: &'a mut ListPool,
}

/// The indices of the set bits of `words`, ascending (bit `i` of word `w` is
/// index `64·w + i`).
#[inline]
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
}

/// The cycle-level simulator (see the module docs for the v5 layout).
pub struct Simulator {
    cfg: SimConfig,
    view: Arc<NetworkView>,
    mechanism: Box<dyn RoutingMechanism>,
    /// The mechanism's escape floor (see [`RoutingMechanism::escape_floor`]).
    escape_floor: Option<u16>,
    pattern: Box<dyn TrafficPattern>,
    layout: ServerLayout,
    // --- geometry (cached off cfg/topology; fixed after `new`) ---
    radix: usize,
    num_ports: usize,
    num_vcs: usize,
    cap_in: usize,
    cap_out: usize,
    cap_src: usize,
    /// Words per switch of `in_mask` (`ceil(num_ports·num_vcs / 64)`).
    in_words: usize,
    /// Words per switch of `stg_mask` (`ceil(num_ports / 64)`).
    stg_words: usize,
    // --- packet storage ---
    pkt: PacketArena,
    // --- input VC state, indexed by `slot = (switch·num_ports + port)·num_vcs + vc` ---
    /// Ring storage: `in_q[slot·cap_in ..][..cap_in]`.
    in_q: Vec<u32>,
    in_head: Vec<u16>,
    in_len: Vec<u16>,
    /// Consumed credits: buffered plus granted-but-not-arrived packets.
    /// Injection and grants add one, a pop subtracts one, and an arrival
    /// leaves it unchanged.
    in_used: Vec<u16>,
    /// Non-empty input VCs: switch `s` owns words `s·in_words ..`, bit
    /// `port·num_vcs + vc`. Maintained by `in_push`/`in_pop`.
    in_mask: Vec<u64>,
    /// Candidate cache of each slot's head. A slot that empties gives its
    /// list buffer to its partition's pool in `pools`, and the next fill of a
    /// slot without a buffer takes the most recently returned one — so the
    /// buffers in use never exceed the peak number of occupied slots, and a
    /// fill usually writes memory that is still in cache.
    vc_cache: Vec<VcCache>,
    // --- output port state, indexed by `flat = switch·num_ports + port` ---
    /// Where each output port leads: the flat downstream input port
    /// `next_switch·num_ports + next_input_port`, or [`EJECT`] / [`DEAD`].
    down: Vec<u32>,
    /// Staging ring storage: `stg_*[flat·cap_out ..][..cap_out]`.
    stg_pkt: Vec<u32>,
    stg_vc: Vec<u16>,
    stg_ready: Vec<u64>,
    stg_head: Vec<u16>,
    stg_len: Vec<u16>,
    /// Non-empty staging buffers: switch `s` owns words `s·stg_words ..`,
    /// bit `port`. Set by grants, cleared by transmits.
    stg_mask: Vec<u64>,
    link_busy: Vec<u64>,
    // --- server state ---
    /// Source-queue ring storage: `srv_q[server·cap_src ..][..cap_src]`.
    srv_q: Vec<u32>,
    srv_head: Vec<u16>,
    srv_len: Vec<u16>,
    srv_busy: Vec<u64>,
    srv_quota: Vec<u64>,
    // --- time, randomness, bookkeeping ---
    /// Event wheel indexed by `cycle % wheel.len()`.
    wheel: Vec<Vec<Ev>>,
    rng: ChaCha8Rng,
    cycle: u64,
    next_packet_id: u64,
    /// Packets created and not yet delivered (source queues + network).
    packets_alive: u64,
    total_generated: u64,
    total_delivered: u64,
    counters: MeasuredCounters,
    measuring: bool,
    generation: GenerationMode,
    last_progress: u64,
    progress_this_cycle: bool,
    stalled: bool,
    /// Delivered phits since the last batch sample (Figure 10 curve).
    window_delivered_phits: u64,
    /// Switches with at least one buffered input packet (a non-zero
    /// `in_mask`): the only switches the allocator needs to visit.
    alloc_active: ActiveSet,
    /// Switches with at least one staged packet (a non-zero `stg_mask`):
    /// the only switches the transmit stage needs to visit.
    xmit_active: ActiveSet,
    /// Servers with generation work or source-queue backlog: the only
    /// servers batch mode and rate contract v2 visit. (Rate contract v1
    /// scans every server — its per-server draw order is the frozen
    /// contract.)
    server_live: ActiveSet,
    /// Rebuild `server_live` from scratch before the next batch-mode cycle
    /// (set whenever quotas are handed out or zeroed).
    server_live_dirty: bool,
    /// Rate contract v2: per-server cycle stamp marking membership in this
    /// cycle's sampled injector set (`cycle + 1`; never needs clearing).
    sampled_at: Vec<u64>,
    /// Rate contract v2: the counting sampler, rebuilt when the per-trial
    /// probability changes (i.e. when the offered load changes).
    binomial_cache: Option<(f64, Binomial)>,
    /// All sequential-phase scratch, folded into one arena.
    step: StepArena,
    /// Fixed-slot observability counters: plain `u64` adds on the hot path,
    /// never fed back into any scheduling decision (zero-perturbation).
    obs: CounterRegistry,
    /// Optional packet-lifecycle tracer. `None` reduces every hook to one
    /// branch; enabling it must not change RNG draws or metrics bytes.
    tracer: Option<PacketTracer>,
    // --- partitioning ---
    /// Contiguous switch partitions stepped in parallel (1 = sequential).
    partitions: usize,
    /// Partition boundaries: partition `p` owns switches
    /// `part_bounds[p] .. part_bounds[p + 1]`.
    part_bounds: Vec<usize>,
    /// Persistent workers (`partitions - 1`; the caller participates).
    pool: Option<WorkerPool>,
    /// Reusable transmit event buffers of partitions `1..` (partition 0
    /// writes straight into the event wheel).
    part_events: Vec<Vec<Ev>>,
    /// Per-partition recycled candidate-list buffers.
    pools: Vec<ListPool>,
}

impl Simulator {
    /// Builds a simulator over `view` with the given routing mechanism and
    /// traffic pattern.
    ///
    /// # Panics
    /// Panics if the mechanism's VC count disagrees with the configuration.
    pub fn new(
        view: Arc<NetworkView>,
        mechanism: Box<dyn RoutingMechanism>,
        pattern: Box<dyn TrafficPattern>,
        cfg: SimConfig,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            mechanism.num_vcs(),
            cfg.num_vcs,
            "the routing mechanism uses {} VCs but the configuration says {}",
            mechanism.num_vcs(),
            cfg.num_vcs
        );
        let hx = view.hyperx();
        let layout = ServerLayout::new(hx, cfg.servers_per_switch);
        let radix = hx.switch_radix();
        let num_ports = radix + cfg.servers_per_switch;
        let num_switches = hx.num_switches();
        let num_servers = layout.num_servers();
        let num_vcs = cfg.num_vcs;
        let (cap_in, cap_out, cap_src) = (
            cfg.input_buffer_packets,
            cfg.output_buffer_packets,
            cfg.source_queue_packets,
        );
        assert!(
            cap_in <= u16::MAX as usize
                && cap_out <= u16::MAX as usize
                && cap_src <= u16::MAX as usize,
            "buffer capacities must fit the ring-index width"
        );
        let nslots = num_switches * num_ports * num_vcs;
        let nports = num_switches * num_ports;
        assert!(
            num_ports <= u16::MAX as usize
                && num_vcs <= u8::MAX as usize
                && nslots < EJECT as usize,
            "ports, VCs and input slots must fit the packed candidate widths"
        );
        let mut down = Vec::with_capacity(nports);
        for s in 0..num_switches {
            for p in 0..radix {
                down.push(match view.network().neighbor(s, p) {
                    Some(nb) => (nb.switch * num_ports + nb.reverse_port) as u32,
                    None => DEAD,
                });
            }
            down.extend(std::iter::repeat_n(EJECT, cfg.servers_per_switch));
        }
        let in_words = (num_ports * num_vcs).div_ceil(64);
        let stg_words = num_ports.div_ceil(64);
        let wheel_len = (cfg.packet_length + cfg.link_latency + cfg.crossbar_latency + 4) as usize;
        let counters = MeasuredCounters::new(num_servers);
        let partitions = cfg.partitions.clamp(1, num_switches);
        let chunk = num_switches.div_ceil(partitions);
        let part_bounds: Vec<usize> = (0..=partitions)
            .map(|p| (p * chunk).min(num_switches))
            .collect();
        Simulator {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            cfg,
            view,
            escape_floor: mechanism.escape_floor(),
            mechanism,
            pattern,
            layout,
            radix,
            num_ports,
            num_vcs,
            cap_in,
            cap_out,
            cap_src,
            in_words,
            stg_words,
            pkt: PacketArena::default(),
            in_q: vec![0; nslots * cap_in],
            in_head: vec![0; nslots],
            in_len: vec![0; nslots],
            in_used: vec![0; nslots],
            in_mask: vec![0; num_switches * in_words],
            vc_cache: (0..nslots).map(|_| VcCache::default()).collect(),
            down,
            stg_pkt: vec![0; nports * cap_out],
            stg_vc: vec![0; nports * cap_out],
            stg_ready: vec![0; nports * cap_out],
            stg_head: vec![0; nports],
            stg_len: vec![0; nports],
            stg_mask: vec![0; num_switches * stg_words],
            link_busy: vec![0; nports],
            srv_q: vec![0; num_servers * cap_src],
            srv_head: vec![0; num_servers],
            srv_len: vec![0; num_servers],
            srv_busy: vec![0; num_servers],
            srv_quota: vec![u64::MAX; num_servers],
            wheel: (0..wheel_len).map(|_| Vec::new()).collect(),
            cycle: 0,
            next_packet_id: 0,
            packets_alive: 0,
            total_generated: 0,
            total_delivered: 0,
            counters,
            measuring: false,
            generation: GenerationMode::Rate { offered_load: 0.0 },
            last_progress: 0,
            progress_this_cycle: false,
            stalled: false,
            window_delivered_phits: 0,
            alloc_active: ActiveSet::new(num_switches),
            xmit_active: ActiveSet::new(num_switches),
            server_live: ActiveSet::new(num_servers),
            server_live_dirty: true,
            sampled_at: vec![0; num_servers],
            binomial_cache: None,
            step: StepArena::with_bounds(num_ports, num_vcs, num_servers, partitions),
            obs: CounterRegistry::new(),
            tracer: None,
            pool: (partitions > 1).then(|| WorkerPool::new(partitions - 1)),
            partitions,
            part_bounds,
            part_events: (0..partitions).map(|_| Vec::new()).collect(),
            pools: (0..partitions).map(|_| ListPool::new()).collect(),
        }
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The network view this simulator runs on.
    pub fn view(&self) -> &NetworkView {
        &self.view
    }

    /// Packets created and not yet delivered.
    pub fn packets_alive(&self) -> u64 {
        self.packets_alive
    }

    /// Packets delivered since the simulation started.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Packets generated since the simulation started.
    pub fn total_generated(&self) -> u64 {
        self.total_generated
    }

    /// Whether the stall watchdog has fired.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// The number of switch partitions stepped in parallel (1 = sequential;
    /// clamped to the switch count).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Sum of packets buffered inside switches (inputs + staging), used by
    /// conservation tests.
    pub fn packets_in_switches(&self) -> usize {
        let inputs: u64 = self.in_len.iter().map(|&l| l as u64).sum();
        let staged: u64 = self.stg_len.iter().map(|&l| l as u64).sum();
        (inputs + staged) as usize
    }

    /// The engine's observability counters (reset when measurement begins).
    pub fn obs(&self) -> &CounterRegistry {
        &self.obs
    }

    /// Installs (or removes) the packet-lifecycle tracer. Tracing is
    /// observation-only: enabling it never changes RNG draw order, metrics
    /// bytes, or store bytes — see the `obs_equivalence` tests.
    pub fn set_tracer(&mut self, tracer: Option<PacketTracer>) {
        self.tracer = tracer;
    }

    /// Takes the tracer (and its recorded events) out of the simulator.
    pub fn take_tracer(&mut self) -> Option<PacketTracer> {
        self.tracer.take()
    }

    /// Runs an open-loop (rate mode) experiment at `offered_load`
    /// phits/cycle/server: warmup, then a measurement window.
    pub fn run_rate(&mut self, offered_load: f64) -> RateMetrics {
        assert!(
            (0.0..=1.0).contains(&offered_load),
            "offered load is normalised to [0, 1] phits/cycle/server"
        );
        self.generation = GenerationMode::Rate { offered_load };
        for _ in 0..self.cfg.warmup_cycles {
            self.step();
        }
        self.begin_measurement();
        for _ in 0..self.cfg.measure_cycles {
            self.step();
            if self.stalled {
                break;
            }
        }
        self.counters.cycles = self.cfg.measure_cycles.min(self.counters.cycles.max(1));
        RateMetrics::from_counters(
            offered_load,
            self.cfg.packet_length,
            self.layout.num_servers(),
            &mut self.counters,
            self.packets_alive,
            self.stalled,
        )
    }

    /// Runs a closed-loop (batch mode) experiment: every server sends
    /// `packets_per_server` packets as fast as it can; the simulation runs to
    /// completion (or a stall). `sample_window` controls the granularity of
    /// the accepted-load curve (Figure 10).
    pub fn run_batch(&mut self, packets_per_server: u64, sample_window: u64) -> BatchMetrics {
        assert!(sample_window > 0);
        self.begin_batch(packets_per_server);
        let expected = packets_per_server * self.layout.num_servers() as u64;
        let mut samples = Vec::new();
        let mut completion = 0u64;
        while self.total_delivered < expected && !self.stalled {
            self.step();
            if self.cycle.is_multiple_of(sample_window) {
                samples.push(ThroughputSample {
                    cycle: self.cycle,
                    accepted_load: self.window_delivered_phits as f64
                        / (sample_window as f64 * self.layout.num_servers() as f64),
                });
                self.window_delivered_phits = 0;
            }
            if self.total_delivered >= expected {
                completion = self.cycle;
            }
        }
        if completion == 0 {
            completion = self.cycle;
        }
        // Final partial window, if any.
        if !self.cycle.is_multiple_of(sample_window) {
            let partial = self.cycle % sample_window;
            samples.push(ThroughputSample {
                cycle: self.cycle,
                accepted_load: self.window_delivered_phits as f64
                    / (partial as f64 * self.layout.num_servers() as f64),
            });
        }
        let average_latency = if self.counters.delivered_packets > 0 {
            self.counters.latency_sum as f64 / self.counters.delivered_packets as f64
        } else {
            0.0
        };
        BatchMetrics {
            completion_time: completion,
            delivered_packets: self.counters.delivered_packets,
            samples,
            average_latency,
            stalled: self.stalled,
            // Move, don't clone: the histogram is 976 buckets and the run is
            // over — `begin_measurement` rebuilds the counters anyway.
            latency_hist: Some(std::mem::take(&mut self.counters.latency_hist)),
        }
    }

    /// Starts a closed-loop run without stepping it: every server gets a
    /// quota of `packets_per_server` packets and measurement begins.
    /// [`Simulator::run_batch`] starts with it; stepping by hand afterwards
    /// drives the same run.
    pub fn begin_batch(&mut self, packets_per_server: u64) {
        assert!(packets_per_server > 0);
        self.generation = GenerationMode::Batch { packets_per_server };
        for quota in &mut self.srv_quota {
            *quota = packets_per_server;
        }
        self.server_live_dirty = true;
        self.begin_measurement();
    }

    /// Stops generating new packets and runs until everything in flight is
    /// delivered (or `max_cycles` elapse). Returns whether the network drained
    /// completely. Used by integration tests to verify packet conservation.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.generation = GenerationMode::Batch {
            packets_per_server: 0,
        };
        for quota in &mut self.srv_quota {
            *quota = 0;
        }
        self.server_live_dirty = true;
        let deadline = self.cycle + max_cycles;
        while self.packets_alive > 0 && self.cycle < deadline && !self.stalled {
            self.step();
        }
        self.packets_alive == 0
    }

    fn begin_measurement(&mut self) {
        self.counters = MeasuredCounters::new(self.layout.num_servers());
        self.obs.reset();
        self.measuring = true;
        self.window_delivered_phits = 0;
    }

    /// Advances the simulation by one cycle.
    ///
    /// The scheduler is **active-set based** (allocation only visits switches
    /// with buffered input packets, transmission only visits switches with
    /// staged packets, generation only visits live servers) and, with
    /// `partitions > 1`, steps the candidate prefill and the transmit stage
    /// in parallel across switch partitions. The observable behaviour (RNG
    /// draw order, metrics, counters, traces, event timing) is identical for
    /// every partition count and pinned by the digest corpus; see the
    /// `corpus` and `partition_invariance` tests.
    pub fn step(&mut self) {
        self.progress_this_cycle = false;
        self.process_events();
        self.generate_and_inject();
        self.allocate();
        self.transmit();
        self.finish_step();
    }

    /// Measurement, watchdog and cycle bookkeeping.
    fn finish_step(&mut self) {
        if self.measuring {
            self.counters.cycles += 1;
        }
        if self.progress_this_cycle {
            self.last_progress = self.cycle;
        } else if self.packets_alive > 0 {
            self.obs.incr(Counter::BlockedCycles);
            if self.cycle - self.last_progress >= self.cfg.watchdog_cycles {
                self.stalled = true;
            }
        }
        self.cycle += 1;
    }

    // --- flat-index helpers -------------------------------------------------

    /// Flat input-VC slot of `(switch, port, vc)`.
    #[inline]
    fn slot(&self, switch: usize, port: usize, vc: usize) -> usize {
        (switch * self.num_ports + port) * self.num_vcs + vc
    }

    /// Head packet (arena index) of input ring `slot`; caller checks `in_len`.
    #[inline]
    fn in_front(&self, slot: usize) -> usize {
        debug_assert!(self.in_len[slot] > 0);
        self.in_q[slot * self.cap_in + self.in_head[slot] as usize] as usize
    }

    /// Word index into `in_mask` and bit of input VC `slot`.
    #[inline]
    fn in_mask_bit(&self, slot: usize) -> (usize, u64) {
        let per_switch = self.num_ports * self.num_vcs;
        let (switch, local) = (slot / per_switch, slot % per_switch);
        (switch * self.in_words + local / 64, 1 << (local % 64))
    }

    #[inline]
    fn in_push(&mut self, slot: usize, packet: u32) {
        debug_assert!((self.in_len[slot] as usize) < self.cap_in);
        let mut pos = self.in_head[slot] as usize + self.in_len[slot] as usize;
        if pos >= self.cap_in {
            pos -= self.cap_in;
        }
        self.in_q[slot * self.cap_in + pos] = packet;
        if self.in_len[slot] == 0 {
            let (word, bit) = self.in_mask_bit(slot);
            self.in_mask[word] |= bit;
        }
        self.in_len[slot] += 1;
    }

    #[inline]
    fn in_pop(&mut self, slot: usize) -> usize {
        let packet = self.in_front(slot);
        let next = self.in_head[slot] as usize + 1;
        self.in_head[slot] = if next == self.cap_in { 0 } else { next as u16 };
        self.in_len[slot] -= 1;
        self.in_used[slot] -= 1;
        if self.in_len[slot] == 0 {
            let (word, bit) = self.in_mask_bit(slot);
            self.in_mask[word] &= !bit;
        }
        packet
    }

    /// Free slots of input ring `slot` under the credit protocol.
    #[inline]
    fn in_free(&self, slot: usize) -> usize {
        self.cap_in.saturating_sub(self.in_used[slot] as usize)
    }

    /// The partition that owns `switch` (partitions are contiguous ranges of
    /// `part_bounds[1]` switches).
    #[inline]
    fn partition_of(&self, switch: usize) -> usize {
        switch / self.part_bounds[1]
    }

    fn wheel_slot(&self, cycle: u64) -> usize {
        (cycle % self.wheel.len() as u64) as usize
    }

    fn schedule(&mut self, cycle: u64, event: Ev) {
        debug_assert!(cycle > self.cycle, "events must be scheduled in the future");
        debug_assert!(
            cycle - self.cycle < self.wheel.len() as u64,
            "event beyond the wheel horizon"
        );
        let slot = self.wheel_slot(cycle);
        self.wheel[slot].push(event);
    }

    // --- phases -------------------------------------------------------------

    fn process_events(&mut self) {
        let wheel_slot = self.wheel_slot(self.cycle);
        // Drain the slot's buffer and hand it back: its capacity serves the
        // next cycle that maps to this slot.
        let mut events = std::mem::take(&mut self.wheel[wheel_slot]);
        for &event in &events {
            match event {
                Ev::Arrival { slot, packet } => {
                    let slot = slot as usize;
                    let p = packet as usize;
                    let switch = slot / (self.num_ports * self.num_vcs);
                    if let Some(tracer) = &mut self.tracer {
                        tracer.record(TraceEvent {
                            cycle: self.cycle,
                            packet: self.pkt.id[p],
                            kind: TraceEventKind::Hop,
                            switch: switch as u64,
                            hops: self.pkt.state[p].hops as u64,
                            escape_hops: self.pkt.escape_hops[p] as u64,
                        });
                    }
                    // `in_used` counts buffered + reserved packets, so an
                    // arrival (reserved → buffered) leaves it unchanged.
                    debug_assert!(
                        self.in_used[slot] > self.in_len[slot],
                        "arrival without a reservation"
                    );
                    self.in_push(slot, packet);
                    self.alloc_active.insert(switch);
                    self.progress_this_cycle = true;
                }
                Ev::Delivery { packet } => {
                    let p = packet as usize;
                    self.packets_alive -= 1;
                    self.total_delivered += 1;
                    self.progress_this_cycle = true;
                    if let Some(tracer) = &mut self.tracer {
                        tracer.record(TraceEvent {
                            cycle: self.cycle,
                            packet: self.pkt.id[p],
                            kind: TraceEventKind::Deliver,
                            switch: self.pkt.dst_switch[p] as u64,
                            hops: self.pkt.state[p].hops as u64,
                            escape_hops: self.pkt.escape_hops[p] as u64,
                        });
                    }
                    if self.measuring {
                        self.counters.delivered_packets += 1;
                        self.counters.delivered_phits += self.cfg.packet_length;
                        let lat = self.cycle.saturating_sub(self.pkt.created_at[p]);
                        self.counters.latency_sum += lat;
                        self.counters.latency_max = self.counters.latency_max.max(lat);
                        self.counters.latency_hist.record(lat);
                        self.counters.hop_sum += self.pkt.state[p].hops as u64;
                        self.counters.escape_hop_sum += self.pkt.escape_hops[p] as u64;
                        if self.pkt.escape_hops[p] > 0 {
                            self.counters.delivered_via_escape += 1;
                        }
                        self.window_delivered_phits += self.cfg.packet_length;
                    }
                    self.pkt.release(packet);
                }
            }
        }
        events.clear();
        self.wheel[wheel_slot] = events;
    }

    fn generate_and_inject(&mut self) {
        let packet_length = self.cfg.packet_length;
        match self.generation {
            GenerationMode::Rate { offered_load } => match self.cfg.rng_contract {
                // Contract v1 (frozen): one Bernoulli trial per server per
                // cycle, in ascending server order. The draw order is the
                // contract, so this path scans every server.
                RngContract::V1PerServer => {
                    for server in 0..self.layout.num_servers() {
                        self.generate_and_inject_server(server, packet_length);
                    }
                }
                // Contract v2: one binomial draw counts the cycle's
                // arrivals, a without-replacement sample places them, and
                // only live servers (sampled or backlogged) are visited —
                // O(traffic) instead of O(network).
                RngContract::V2Counting => {
                    self.sample_injectors_v2(offered_load);
                    self.sweep_live_servers(packet_length, Self::rate_v2_server_body, |sim, s| {
                        sim.srv_len[s] > 0
                    });
                }
            },
            // Batch mode: a server without quota or queued packets draws no
            // randomness and injects nothing, so only live servers are
            // visited. Activity is monotone decreasing mid-run (nothing
            // refills a quota), so the retain sweep suffices.
            GenerationMode::Batch { .. } => {
                if self.server_live_dirty {
                    self.rebuild_server_live();
                }
                self.sweep_live_servers(
                    packet_length,
                    Self::generate_and_inject_server,
                    |sim, s| !sim.server_drained(s),
                );
            }
        }
    }

    /// Whether `server` has neither queued packets nor remaining batch quota.
    fn server_drained(&self, server: usize) -> bool {
        self.srv_len[server] == 0 && self.srv_quota[server] == 0
    }

    /// Rebuilds the live-server set from scratch (after batch quotas are
    /// handed out or zeroed).
    fn rebuild_server_live(&mut self) {
        self.server_live.member.iter_mut().for_each(|m| *m = false);
        self.server_live.list.clear();
        self.server_live.added.clear();
        for s in 0..self.layout.num_servers() {
            if !self.server_drained(s) {
                self.server_live.member[s] = true;
                self.server_live.list.push(s);
            }
        }
        self.server_live_dirty = false;
    }

    /// The shared visitation helper of batch mode and rate contract v2:
    /// folds pending insertions into the live set, visits the live servers
    /// in ascending order running `body` on each, and drops the ones
    /// `retain` rejects afterwards.
    fn sweep_live_servers(
        &mut self,
        packet_length: u64,
        body: fn(&mut Self, usize, u64),
        retain: fn(&Self, usize) -> bool,
    ) {
        self.server_live.merge_added();
        let mut live = std::mem::take(&mut self.server_live.list);
        let mut keep = 0;
        for k in 0..live.len() {
            let server = live[k];
            body(self, server, packet_length);
            if retain(self, server) {
                live[keep] = server;
                keep += 1;
            } else {
                self.server_live.member[server] = false;
            }
        }
        live.truncate(keep);
        self.server_live.list = live;
    }

    /// Rate contract v2, step 1: draws `k ~ Binomial(n_servers, p)`, samples
    /// the `k` injecting servers without replacement (stamping `sampled_at`
    /// with `cycle + 1`), and marks them live so the sweep visits them.
    fn sample_injectors_v2(&mut self, offered_load: f64) {
        if offered_load <= 0.0 {
            return;
        }
        let n = self.layout.num_servers();
        let p = offered_load / self.cfg.packet_length as f64;
        match &self.binomial_cache {
            Some((cached_p, _)) if *cached_p == p => {}
            _ => self.binomial_cache = Some((p, Binomial::new(n as u64, p))),
        }
        let binomial = self.binomial_cache.as_ref().unwrap().1;
        let k = binomial.sample(&mut self.rng) as usize;
        self.obs.incr(Counter::BinomialDraws);
        sample_without_replacement(
            &mut self.rng,
            n,
            k,
            &mut self.sampled_at,
            self.cycle + 1,
            &mut self.step.sampled,
        );
        for i in 0..self.step.sampled.len() {
            let server = self.step.sampled[i];
            self.server_live.insert(server);
        }
    }

    /// Rate contract v2, step 2 (per live server): generation happens only
    /// on the servers the counting sampler picked this cycle; injection runs
    /// for every live server.
    fn rate_v2_server_body(&mut self, server: usize, packet_length: u64) {
        if self.sampled_at[server] == self.cycle + 1 {
            self.admit_packet(server);
        }
        self.inject_server(server, packet_length);
    }

    /// Generation + injection of one server: the per-server body shared by
    /// batch mode and rate contract v1.
    fn generate_and_inject_server(&mut self, server: usize, packet_length: u64) {
        let wants_packet = match self.generation {
            GenerationMode::Rate { offered_load } => {
                offered_load > 0.0 && self.rng.gen::<f64>() < offered_load / packet_length as f64
            }
            GenerationMode::Batch { .. } => self.srv_quota[server] > 0,
        };
        if wants_packet {
            self.admit_packet(server);
        }
        self.inject_server(server, packet_length);
    }

    /// Admits one new packet into `server`'s source queue, drawing its
    /// destination and routing state — or, if the queue is full, counts the
    /// lost generation opportunity in `generation_blocked`. A v2 sampled
    /// server against a full queue loses its opportunity exactly like a v1
    /// Bernoulli success against a full queue: in both contracts this is
    /// what depresses the Jain index at saturation.
    fn admit_packet(&mut self, server: usize) {
        if (self.srv_len[server] as usize) < self.cap_src {
            let dst = self.pattern.destination(server, &mut self.rng);
            debug_assert!(dst < self.layout.num_servers());
            let src_switch = self.layout.server_switch(server);
            let dst_switch = self.layout.server_switch(dst);
            let state = self
                .mechanism
                .init_packet(src_switch, dst_switch, &mut self.rng);
            let id = self.next_packet_id;
            let packet = self
                .pkt
                .alloc(id, server, dst, dst_switch, self.cycle, state);
            self.next_packet_id += 1;
            self.packets_alive += 1;
            self.total_generated += 1;
            if self.measuring {
                self.counters.generated_per_server[server] += 1;
            }
            if let GenerationMode::Batch { .. } = self.generation {
                self.srv_quota[server] -= 1;
            }
            if let Some(tracer) = &mut self.tracer {
                tracer.record(TraceEvent {
                    cycle: self.cycle,
                    packet: id,
                    kind: TraceEventKind::Inject,
                    switch: src_switch as u64,
                    hops: 0,
                    escape_hops: 0,
                });
            }
            let mut pos = self.srv_head[server] as usize + self.srv_len[server] as usize;
            if pos >= self.cap_src {
                pos -= self.cap_src;
            }
            self.srv_q[server * self.cap_src + pos] = packet;
            self.srv_len[server] += 1;
        } else if self.measuring {
            self.counters.generation_blocked += 1;
        }
    }

    /// Injection of `server`'s head packet over its server-to-switch link
    /// (no randomness: every server has a dedicated switch input port).
    fn inject_server(&mut self, server: usize, packet_length: u64) {
        if self.srv_busy[server] > self.cycle || self.srv_len[server] == 0 {
            return;
        }
        let sw = self.layout.server_switch(server);
        let in_port = self.radix + self.layout.server_offset(server);
        let slot = self.slot(sw, in_port, 0);
        if self.in_free(slot) == 0 {
            return;
        }
        let packet = self.srv_q[server * self.cap_src + self.srv_head[server] as usize];
        let next = self.srv_head[server] as usize + 1;
        self.srv_head[server] = if next == self.cap_src { 0 } else { next as u16 };
        self.srv_len[server] -= 1;
        self.pkt.injected_at[packet as usize] = self.cycle;
        self.in_used[slot] += 1;
        self.srv_busy[server] = self.cycle + packet_length;
        let arrive = self.cycle + packet_length + self.cfg.link_latency;
        self.schedule(
            arrive,
            Ev::Arrival {
                slot: slot as u32,
                packet,
            },
        );
        self.progress_this_cycle = true;
    }

    /// Fills `out` with the requests of `switch`'s head packets, reusing the
    /// per-VC candidate cache (candidate lists are pure functions of the
    /// head packet's routing state, so a blocked head's list is computed
    /// once, not once per cycle). Only the set bits of the switch's
    /// `in_mask` are visited; ascending bit order is ascending (port, VC)
    /// order. With `partitions > 1` the cache was prefilled in parallel;
    /// `Prefilled` entries count as the misses the sequential engine would
    /// have taken inline, keeping the hit/miss counters byte-identical for
    /// every partition count.
    fn collect_requests_into(&mut self, switch: usize, out: &mut Vec<Request>) {
        let first_slot = self.slot(switch, 0, 0);
        let first_port = switch * self.num_ports;
        let words = switch * self.in_words..(switch + 1) * self.in_words;
        for local in set_bits(&self.in_mask[words]) {
            let (in_port, in_vc) = ((local / self.num_vcs) as u16, (local % self.num_vcs) as u8);
            let slot = first_slot + local;
            // Routing: reuse the head's candidate list or compute it. The
            // cache is reset whenever the head is popped, so a valid list
            // belongs to the current head and a hit reads no packet state.
            match self.vc_cache[slot].state {
                CacheState::Valid => self.obs.incr(Counter::CandCacheHits),
                CacheState::Prefilled => {
                    self.obs.incr(Counter::CandCacheMisses);
                    self.vc_cache[slot].state = CacheState::Valid;
                }
                CacheState::Empty => {
                    let head = self.in_front(slot);
                    // Ejection: the packet has reached its destination
                    // switch. `Q` is the staging occupancy counted twice.
                    if self.pkt.dst_switch[head] as usize == switch {
                        let out_port = self.radix
                            + self
                                .layout
                                .server_offset(self.pkt.dst_server[head] as usize);
                        let staged = self.stg_len[first_port + out_port] as u64;
                        if (staged as usize) < self.cap_out {
                            out.push(Request {
                                score: 2 * staged * self.cfg.packet_length,
                                cand: Candidate {
                                    port: out_port as u16,
                                    penalty: 0,
                                    vcs: VcRange::exact(0),
                                    kind: CandidateKind::Minimal,
                                },
                                down: EJECT,
                                in_port,
                                in_vc,
                                out_vc: 0,
                            });
                        }
                        continue;
                    }
                    self.obs.incr(Counter::CandCacheMisses);
                    let pool = self.partition_of(switch);
                    fill_cache(
                        &mut self.vc_cache[slot],
                        &mut self.pools[pool],
                        self.mechanism.as_ref(),
                        &self.pkt.state[head],
                        switch,
                    );
                    self.vc_cache[slot].state = CacheState::Valid;
                }
            }
            // Single request to the best candidate that satisfies flow
            // control.
            let list = &self.vc_cache[slot].list;
            let mut best = self.best_request(list, first_port, in_port, in_vc, None);
            // The escape part follows the routing part and costs at least
            // the floor, and only a strictly lower score replaces `best`:
            // it can change the request only when no routing candidate
            // scored at or below the floor, so only then is it built (at
            // most once per head).
            if self.vc_cache[slot].escape_pending
                && self
                    .escape_floor
                    .is_some_and(|f| best.is_none_or(|b| b.score > u64::from(f)))
            {
                let head = self.in_front(slot);
                let cache = &mut self.vc_cache[slot];
                let routing_len = cache.list.len();
                self.mechanism
                    .escape_into(&self.pkt.state[head], switch, &mut cache.list);
                cache.escape_pending = false;
                let escape = &self.vc_cache[slot].list[routing_len..];
                best = self.best_request(escape, first_port, in_port, in_vc, best);
            }
            if let Some(req) = best {
                out.push(req);
            }
        }
    }

    /// Scores `list` by the paper's rule `Q·packet_length + P` and returns
    /// the better of `best` and the lowest-scoring candidate that satisfies
    /// flow control; only a strictly lower score replaces `best`.
    #[inline]
    fn best_request(
        &self,
        list: &[Candidate],
        first_port: usize,
        in_port: u16,
        in_vc: u8,
        mut best: Option<Request>,
    ) -> Option<Request> {
        for &cand in list {
            // Exact pruning: `Q ≥ 0`, and only a strictly lower score
            // replaces `best`, so this candidate cannot win.
            if best.is_some_and(|b| u64::from(cand.penalty) >= b.score) {
                continue;
            }
            let flat = first_port + usize::from(cand.port);
            let staged = self.stg_len[flat];
            if staged as usize >= self.cap_out {
                continue;
            }
            let down = self.down[flat];
            debug_assert!(down < EJECT, "routing algorithms offer only live ports");
            // Pick the VC of the allowed range with the most free space
            // (the fewest consumed credits; the first on ties).
            let dbase = down as usize * self.num_vcs;
            let used = &self.in_used[dbase..dbase + self.num_vcs];
            let mut chosen: Option<(u16, usize)> = None; // (used, vc)
            let range = used.iter().enumerate().take(cand.vcs.hi.into());
            for (vc, &u) in range.skip(cand.vcs.lo.into()) {
                if (u as usize) < self.cap_in && chosen.is_none_or(|(least, _)| u < least) {
                    chosen = Some((u, vc));
                }
            }
            let Some((vc_used, vc)) = chosen else {
                continue;
            };
            // `Q`, in packets: staging occupancy plus the consumed
            // credits of every VC of the downstream port, counting the
            // chosen VC twice.
            let port_used: u64 = used.iter().map(|&u| u as u64).sum();
            let q = staged as u64 + port_used + vc_used as u64;
            let score = q * self.cfg.packet_length + u64::from(cand.penalty);
            if best.is_none_or(|b| score < b.score) {
                best = Some(Request {
                    score,
                    cand,
                    down,
                    in_port,
                    in_vc,
                    out_vc: vc as u8,
                });
            }
        }
        best
    }

    /// Applies the allocation rule to `requests`: random tie-break, then
    /// lowest score first, up to `crossbar_speedup` grants per output and
    /// input port. Always sequential — the RNG draws here are the draw-order
    /// contract — and allocation-free at steady state.
    fn apply_grants(&mut self, switch: usize, requests: &[Request]) {
        if requests.is_empty() {
            return;
        }
        self.obs.add(Counter::AllocRequests, requests.len() as u64);
        // Random tie-break, then lowest score first per output port.
        let mut keyed = std::mem::take(&mut self.step.keyed);
        keyed.clear();
        {
            let rng = &mut self.rng;
            keyed.extend(
                requests
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.score, rng.gen::<u32>(), i)),
            );
        }
        keyed.sort_unstable();
        let speedup = self.cfg.crossbar_speedup;
        let mut out_grants = std::mem::take(&mut self.step.out_grants);
        let mut in_grants = std::mem::take(&mut self.step.in_grants);
        out_grants.clear();
        out_grants.resize(self.num_ports, 0);
        in_grants.clear();
        in_grants.resize(self.num_ports, 0);
        let crossbar_time = self.cfg.crossbar_latency
            + self
                .cfg
                .packet_length
                .div_ceil(self.cfg.crossbar_speedup as u64);
        for &(_, _, idx) in &keyed {
            let req = requests[idx];
            let (in_port, out_port) = (req.in_port as usize, req.cand.port as usize);
            let flat_out = switch * self.num_ports + out_port;
            if out_grants[out_port] >= speedup || in_grants[in_port] >= speedup {
                self.obs.incr(Counter::AllocConflicts);
                self.trace_block(switch, &req);
                continue;
            }
            if (self.stg_len[flat_out] as usize) >= self.cap_out {
                self.obs.incr(Counter::AllocConflicts);
                self.trace_block(switch, &req);
                continue;
            }
            // Re-check (and reserve) the downstream slot for network hops.
            let network = req.down < EJECT;
            if network {
                let dslot = req.down as usize * self.num_vcs + req.out_vc as usize;
                if self.in_free(dslot) == 0 {
                    self.obs.incr(Counter::AllocConflicts);
                    self.trace_block(switch, &req);
                    continue;
                }
                self.in_used[dslot] += 1;
            }
            // Commit: move the packet from the input VC to the output staging buffer.
            let slot = self.slot(switch, in_port, req.in_vc as usize);
            let packet = self.in_pop(slot);
            let pool = self.partition_of(switch);
            let cache = &mut self.vc_cache[slot];
            cache.state = CacheState::Empty;
            if self.in_len[slot] == 0 && cache.list.capacity() > 0 {
                self.pools[pool].push(std::mem::take(&mut cache.list));
            }
            if network {
                let next_switch = req.down as usize / self.num_ports;
                let mut state = self.pkt.state[packet];
                self.mechanism
                    .note_hop(&mut state, switch, next_switch, &req.cand);
                self.pkt.state[packet] = state;
                if req.cand.kind.is_escape() {
                    self.pkt.escape_hops[packet] += 1;
                    self.obs.incr(Counter::EscapeGrants);
                }
            }
            self.obs.incr(Counter::AllocGrants);
            if let Some(tracer) = &mut self.tracer {
                tracer.record(TraceEvent {
                    cycle: self.cycle,
                    packet: self.pkt.id[packet],
                    kind: TraceEventKind::Grant,
                    switch: switch as u64,
                    hops: self.pkt.state[packet].hops as u64,
                    escape_hops: self.pkt.escape_hops[packet] as u64,
                });
            }
            let mut pos = self.stg_head[flat_out] as usize + self.stg_len[flat_out] as usize;
            if pos >= self.cap_out {
                pos -= self.cap_out;
            }
            let g = flat_out * self.cap_out + pos;
            self.stg_pkt[g] = packet as u32;
            self.stg_vc[g] = req.out_vc as u16;
            self.stg_ready[g] = self.cycle + crossbar_time;
            if self.stg_len[flat_out] == 0 {
                self.stg_mask[switch * self.stg_words + out_port / 64] |= 1 << (out_port % 64);
            }
            self.stg_len[flat_out] += 1;
            self.xmit_active.insert(switch);
            out_grants[out_port] += 1;
            in_grants[in_port] += 1;
            self.progress_this_cycle = true;
        }
        self.step.keyed = keyed;
        self.step.out_grants = out_grants;
        self.step.in_grants = in_grants;
    }

    /// Records a `Block` trace event for the head packet behind a denied
    /// request. Pure observation: runs only when a tracer is installed and
    /// reads nothing that feeds back into scheduling.
    fn trace_block(&mut self, switch: usize, req: &Request) {
        if self.tracer.is_none() {
            return;
        }
        let slot = self.slot(switch, req.in_port as usize, req.in_vc as usize);
        if self.in_len[slot] == 0 {
            return;
        }
        let head = self.in_front(slot);
        let event = TraceEvent {
            cycle: self.cycle,
            packet: self.pkt.id[head],
            kind: TraceEventKind::Block,
            switch: switch as u64,
            hops: self.pkt.state[head].hops as u64,
            escape_hops: self.pkt.escape_hops[head] as u64,
        };
        if let Some(tracer) = &mut self.tracer {
            tracer.record(event);
        }
    }

    /// Allocation stage: visits only the switches with buffered input
    /// packets, in ascending switch order (the same order the exhaustive
    /// scan grants in, so the RNG tie-break sequence is identical). With
    /// `partitions > 1` the pure candidate computation runs in parallel
    /// first; the score + grant sweep is always sequential. Switches whose
    /// inputs drained are dropped from the active set.
    fn allocate(&mut self) {
        self.alloc_active.merge_added();
        self.obs.add(
            Counter::AllocSwitchVisits,
            self.alloc_active.list.len() as u64,
        );
        if self.partitions > 1 && !self.alloc_active.list.is_empty() {
            self.prefill_candidates();
        }
        let mut active = std::mem::take(&mut self.alloc_active.list);
        let mut keep = 0;
        for k in 0..active.len() {
            let switch = active[k];
            let mut requests = std::mem::take(&mut self.step.requests);
            requests.clear();
            self.collect_requests_into(switch, &mut requests);
            self.apply_grants(switch, &requests);
            self.step.requests = requests;
            let words = switch * self.in_words..(switch + 1) * self.in_words;
            if self.in_mask[words].iter().any(|&w| w != 0) {
                active[keep] = switch;
                keep += 1;
            } else {
                self.alloc_active.member[switch] = false;
            }
        }
        active.truncate(keep);
        self.alloc_active.list = active;
    }

    /// Computes the routing part of the candidate list of every
    /// non-ejection head packet, in parallel across switch partitions (the
    /// sequential sweep appends escape parts where they can win). Sound because heads cannot change
    /// during allocation (a grant pops only the granting switch's own
    /// inputs; arrivals happened earlier in `process_events`) and candidate
    /// lists are pure functions of `(packet state, switch)` — no RNG, no
    /// counters, no scheduling state is touched.
    fn prefill_candidates(&mut self) {
        let slots_per_switch = self.num_ports * self.num_vcs;
        let mut cuts = std::mem::take(&mut self.step.seg);
        cuts.clear();
        for b in 1..=self.partitions {
            cuts.push(
                self.alloc_active
                    .list
                    .partition_point(|&s| s < self.part_bounds[b]),
            );
        }
        let mut tasks: Vec<Mutex<PrefillTask>> = Vec::with_capacity(self.partitions);
        let active = &self.alloc_active.list;
        let mut caches_rest: &mut [VcCache] = &mut self.vc_cache;
        let mut seg_from = 0;
        for (pi, (pool, bounds)) in self
            .pools
            .iter_mut()
            .zip(self.part_bounds.windows(2))
            .enumerate()
        {
            let (caches, rest) =
                caches_rest.split_at_mut((bounds[1] - bounds[0]) * slots_per_switch);
            caches_rest = rest;
            tasks.push(Mutex::new(PrefillTask {
                slot_base: bounds[0] * slots_per_switch,
                seg: &active[seg_from..cuts[pi]],
                caches,
                pool,
            }));
            seg_from = cuts[pi];
        }
        let shared = PrefillShared {
            in_q: &self.in_q,
            in_head: &self.in_head,
            in_mask: &self.in_mask,
            pkt_dst_switch: &self.pkt.dst_switch,
            pkt_state: &self.pkt.state,
            mechanism: self.mechanism.as_ref(),
            cap_in: self.cap_in,
            num_ports: self.num_ports,
            num_vcs: self.num_vcs,
            in_words: self.in_words,
        };
        let body = |t: usize| {
            run_prefill_task(
                &mut tasks[t].lock().expect("a prefill task panicked"),
                &shared,
            )
        };
        self.pool
            .as_ref()
            .expect("partitions > 1 without a pool")
            .run(self.partitions, &body);
        self.step.seg = cuts;
    }

    /// Transmit stage: visits only the switches with staged packets, in
    /// ascending switch order, and within a switch only the set bits of its
    /// `stg_mask`, in ascending port order — so the event wheel receives
    /// arrivals in the same order an exhaustive sweep would schedule them.
    /// The switches split into one task per partition. With one partition
    /// the task runs inline and pushes straight into the event wheel; with
    /// more they run on the pool with private event buffers appended in
    /// ascending partition order, which reproduces the sequential push
    /// order exactly because every packet transmitted this cycle arrives at
    /// `cycle + packet_length + link_latency`.
    fn transmit(&mut self) {
        self.xmit_active.merge_added();
        self.obs.add(
            Counter::XmitSwitchVisits,
            self.xmit_active.list.len() as u64,
        );
        if self.xmit_active.list.is_empty() {
            return;
        }
        let arrive = self.cycle + self.cfg.packet_length + self.cfg.link_latency;
        debug_assert!(arrive - self.cycle < self.wheel.len() as u64);
        let wheel_slot = self.wheel_slot(arrive);
        let mut active = std::mem::take(&mut self.xmit_active.list);
        let mut cuts = std::mem::take(&mut self.step.seg);
        cuts.clear();
        for b in 1..=self.partitions {
            cuts.push(active.partition_point(|&s| s < self.part_bounds[b]));
        }
        // Per-partition retained counts (`sampled` doubles as usize scratch).
        let mut kept = std::mem::take(&mut self.step.sampled);
        kept.clear();
        let shared = XmitShared {
            stg_pkt: &self.stg_pkt,
            stg_vc: &self.stg_vc,
            stg_ready: &self.stg_ready,
            down: &self.down,
            cycle: self.cycle,
            packet_length: self.cfg.packet_length,
            cap_out: self.cap_out,
            num_ports: self.num_ports,
            num_vcs: self.num_vcs,
            stg_words: self.stg_words,
        };
        let mut whole = XmitTask {
            sw_base: 0,
            seg: &mut active,
            kept: 0,
            member: &mut self.xmit_active.member,
            stg_mask: &mut self.stg_mask,
            stg_head: &mut self.stg_head,
            stg_len: &mut self.stg_len,
            link_busy: &mut self.link_busy,
            events: std::mem::take(&mut self.wheel[wheel_slot]),
            progress: false,
        };
        let events = if self.partitions == 1 {
            run_xmit_task(&mut whole, &shared);
            self.progress_this_cycle |= whole.progress;
            kept.push(whole.kept);
            whole.events
        } else {
            let mut tasks: Vec<Mutex<XmitTask>> = Vec::with_capacity(self.partitions);
            let mut seg_from = 0;
            for (pi, (&cut, bounds)) in cuts.iter().zip(self.part_bounds.windows(2)).enumerate() {
                let buffer = if pi == 0 {
                    std::mem::take(&mut whole.events)
                } else {
                    std::mem::take(&mut self.part_events[pi])
                };
                let n_sw = bounds[1] - bounds[0];
                tasks.push(Mutex::new(whole.split_front(
                    n_sw,
                    cut - seg_from,
                    &shared,
                    buffer,
                )));
                seg_from = cut;
            }
            let body = |t: usize| run_xmit_task(&mut tasks[t].lock().unwrap(), &shared);
            self.pool
                .as_ref()
                .expect("partitions > 1 without a pool")
                .run(self.partitions, &body);
            let mut events = Vec::new();
            for (pi, cell) in tasks.into_iter().enumerate() {
                let mut task = cell.into_inner().unwrap();
                self.progress_this_cycle |= task.progress;
                kept.push(task.kept);
                if pi == 0 {
                    events = task.events;
                } else {
                    events.append(&mut task.events);
                    self.part_events[pi] = task.events;
                }
            }
            events
        };
        self.wheel[wheel_slot] = events;
        // Compact the retained switches of every segment into one sorted list.
        let mut w = 0;
        for (pi, &n) in kept.iter().enumerate() {
            let seg_from = if pi == 0 { 0 } else { cuts[pi - 1] };
            active.copy_within(seg_from..seg_from + n, w);
            w += n;
        }
        active.truncate(w);
        self.xmit_active.list = active;
        kept.clear();
        self.step.sampled = kept;
        self.step.seg = cuts;
    }
}

/// The transmit body of one partition (see [`Simulator::transmit`]): puts
/// the ready staged packets of the partition's active switches onto their
/// links. Indices into `task` slices are offset by the partition's first
/// switch; reads of the staging payload arrays use global flat indices.
fn run_xmit_task(task: &mut XmitTask, shared: &XmitShared) {
    let (num_ports, words) = (shared.num_ports, shared.stg_words);
    let mut kept = 0;
    for k in 0..task.seg.len() {
        let switch = task.seg[k];
        let ls = switch - task.sw_base;
        for w in ls * words..(ls + 1) * words {
            let mut bits = task.stg_mask[w];
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let port = (w - ls * words) * 64 + bit;
                let lf = ls * num_ports + port;
                if task.link_busy[lf] > shared.cycle {
                    continue;
                }
                let flat = switch * num_ports + port;
                let head = task.stg_head[lf] as usize;
                let g = flat * shared.cap_out + head;
                if shared.stg_ready[g] > shared.cycle {
                    continue;
                }
                let next = head + 1;
                task.stg_head[lf] = if next == shared.cap_out {
                    0
                } else {
                    next as u16
                };
                task.stg_len[lf] -= 1;
                if task.stg_len[lf] == 0 {
                    task.stg_mask[w] &= !(1 << bit);
                }
                task.link_busy[lf] = shared.cycle + shared.packet_length;
                let packet = shared.stg_pkt[g];
                let down = shared.down[flat];
                if down < EJECT {
                    let dslot = down as usize * shared.num_vcs + shared.stg_vc[g] as usize;
                    task.events.push(Ev::Arrival {
                        slot: dslot as u32,
                        packet,
                    });
                } else {
                    debug_assert_eq!(down, EJECT, "dead ports never receive grants");
                    task.events.push(Ev::Delivery { packet });
                }
                task.progress = true;
            }
        }
        if task.stg_mask[ls * words..(ls + 1) * words]
            .iter()
            .any(|&w| w != 0)
        {
            task.seg[kept] = switch;
            kept += 1;
        } else {
            task.member[ls] = false;
        }
    }
    task.kept = kept;
}

/// The per-partition candidate-prefill body (see
/// [`Simulator::prefill_candidates`]). Computes only — the hit/miss
/// accounting happens in the sequential sweep, which counts every
/// `Prefilled` entry as a miss.
fn run_prefill_task(task: &mut PrefillTask, shared: &PrefillShared) {
    let slots_per_switch = shared.num_ports * shared.num_vcs;
    for &switch in task.seg {
        let words = &shared.in_mask[switch * shared.in_words..(switch + 1) * shared.in_words];
        for local in set_bits(words) {
            let slot = switch * slots_per_switch + local;
            let cache = &mut task.caches[slot - task.slot_base];
            if cache.state != CacheState::Empty {
                continue;
            }
            let head = shared.in_q[slot * shared.cap_in + shared.in_head[slot] as usize] as usize;
            // Ejection heads never consult the candidate cache.
            if shared.pkt_dst_switch[head] as usize == switch {
                continue;
            }
            fill_cache(
                cache,
                task.pool,
                shared.mechanism,
                &shared.pkt_state[head],
                switch,
            );
            cache.state = CacheState::Prefilled;
        }
    }
}

#[cfg(test)]
mod tests;
