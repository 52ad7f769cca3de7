//! The cycle-level simulation engine.
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
//! # Layout
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
//! `StepArena`. The lists live in one pool of buffers that emptied VCs
//! return to; a VC finds its buffer through a `u32` index and a flag byte,
//! zeroed arrays that only occupied VCs write, so a new simulator faults in
//! the pages of the VCs its run occupies, not one record per VC. Each
//! switch keeps an occupancy bitmask of its non-empty input VCs (bit
//! `port·num_vcs + vc`), so the allocation sweep visits only occupied
//! slots, in ascending order. A digest corpus recorded from the
//! per-switch-struct engine this layout replaced, while both engines ran
//! (the `corpus` tests, `tests/fixtures/engine_corpus.txt`), pins RNG draw
//! order, metrics bytes, counters and traces.
//!
//! # Due lists
//!
//! A staged packet waits for the crossbar and for its link (9 and 16 cycles
//! under Table 2 timing), and a server waits for its link and for a credit.
//! Instead of checking every staged port and backlogged server on every
//! cycle, the engine lists each output port and each server under the
//! cycle it can next act, on a timing wheel (`DueLists`; Varghese &
//! Lauck, SOSP 1987):
//!
//! * a port is due at the later of its `link_busy` and its head packet's
//!   `stg_ready`: a grant into an empty staging buffer lists it, and each
//!   send lists it again while packets remain;
//! * a server with a queued packet is due at the later of its `srv_busy`
//!   and the cycle its head was admitted; one whose injection finds no
//!   credit waits, and the pop that frees the credit lists it for the next
//!   cycle.
//!
//! Each stage acts on exactly the entries due in the current cycle, in
//! ascending index order: the order in which a scan of every port or
//! server each cycle would act. The digest corpus pins that equivalence
//! under Table 2 timing and under other packet lengths, latencies,
//! speedups and buffer sizes.
//!
//! Every phase runs sequentially on the calling thread. Campaigns get their
//! parallelism from running whole jobs side by side.

use crate::config::SimConfig;
use crate::metrics::{BatchMetrics, MeasuredCounters, RateMetrics, ThroughputSample};
use crate::obs::{Counter, CounterRegistry, PacketTracer, TraceEvent, TraceEventKind};
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
use std::sync::Arc;

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

/// `vc_flags` bit: the input VC holds a candidate-list buffer,
/// `lists[vc_list[slot]]`.
const HAS_LIST: u8 = 1;
/// `vc_flags` bit: the buffer holds the current head's list, its routing
/// part and then, once appended, its escape part. Cleared at every pop.
const LIST_VALID: u8 = 2;
/// `vc_flags` bit: the head's escape part is not in its list yet.
const ESCAPE_PENDING: u8 = 4;
/// `vc_flags` bit: the head's list holds only the cheap part of its routing
/// part ([`RoutingMechanism::cheap_into`]), the rest is not in it yet.
const DEROUTE_PENDING: u8 = 8;
/// The fill predictor's state from which a miss fills the whole routing
/// part at once; its states run from 0 to 3.
const FILL_WHOLE: u8 = 2;

/// A deterministic dirty set of switch indices: the switches the allocation
/// stage visits.
///
/// The allocator must visit members in exactly the order the exhaustive
/// scan would (ascending index — RNG draws happen per member in that
/// order), so this is a sorted list plus a membership bitmap:
/// insertion is O(1) amortised (pending insertions merge in one in-place
/// backward merge per cycle), iteration is the sorted list, and removal
/// happens during the caller's sweep. No allocations at steady state.
#[derive(Debug, Default)]
struct ActiveSet {
    /// Membership bitmap; prevents duplicate insertions.
    member: Vec<bool>,
    /// Sorted active indices (the iteration order).
    list: Vec<usize>,
    /// Insertions since the last merge, unsorted.
    added: Vec<usize>,
}

impl ActiveSet {
    /// Empties the set over the domain `0..n`, with room for all of it.
    fn reset(&mut self, n: usize) {
        refill(&mut self.member, n, false);
        make_room(&mut self.list, n);
        make_room(&mut self.added, n);
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

/// Indices (output ports or servers) listed under the cycle they can next
/// act, on a wheel of buckets indexed by `cycle % len` like the event
/// wheel. Every listed cycle lies less than `len` cycles ahead of the
/// current one, so a bucket only ever holds entries of one cycle.
#[derive(Debug, Default)]
struct DueLists {
    buckets: Vec<Vec<u32>>,
}

impl DueLists {
    /// Empties every bucket and sizes the wheel to `len` buckets.
    fn reset(&mut self, len: usize) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.buckets.resize_with(len, Vec::new);
    }

    fn bucket(&self, cycle: u64) -> usize {
        (cycle % self.buckets.len() as u64) as usize
    }

    /// Lists `idx` under `cycle`.
    #[inline]
    fn push(&mut self, cycle: u64, idx: usize) {
        let bucket = self.bucket(cycle);
        self.buckets[bucket].push(idx as u32);
    }

    /// Takes the entries listed under `cycle`, in ascending order; hand the
    /// buffer back with `put_back` so its capacity is reused.
    fn take_sorted(&mut self, cycle: u64) -> Vec<u32> {
        let bucket = self.bucket(cycle);
        let mut due = std::mem::take(&mut self.buckets[bucket]);
        due.sort_unstable();
        due
    }

    /// Returns the emptied buffer of `cycle`'s bucket.
    fn put_back(&mut self, cycle: u64, mut due: Vec<u32>) {
        due.clear();
        let bucket = self.bucket(cycle);
        debug_assert!(
            self.buckets[bucket].is_empty(),
            "listed into a taken bucket"
        );
        self.buckets[bucket] = due;
    }
}

/// Packet storage as parallel field arrays plus a free list. Queues and
/// events move `u32` indices; delivered packets return their slot to the
/// free list, so the arena's high-water mark is the peak in-flight count.
#[derive(Debug, Default)]
struct PacketArena {
    id: Vec<u64>,
    dst_server: Vec<u32>,
    dst_switch: Vec<u32>,
    created_at: Vec<u64>,
    state: Vec<PacketState>,
    escape_hops: Vec<u16>,
    free: Vec<u32>,
}

impl PacketArena {
    fn alloc(
        &mut self,
        id: u64,
        dst_server: usize,
        dst_switch: usize,
        created_at: u64,
        state: PacketState,
    ) -> u32 {
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            self.id[i] = id;
            self.dst_server[i] = dst_server as u32;
            self.dst_switch[i] = dst_switch as u32;
            self.created_at[i] = created_at;
            self.state[i] = state;
            self.escape_hops[i] = 0;
            idx
        } else {
            self.id.push(id);
            self.dst_server.push(dst_server as u32);
            self.dst_switch.push(dst_switch as u32);
            self.created_at.push(created_at);
            self.state.push(state);
            self.escape_hops.push(0);
            (self.id.len() - 1) as u32
        }
    }

    fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }

    /// Drops every packet, keeping the capacity: the next allocations
    /// return indices 0, 1, 2, … as in a new arena.
    fn clear(&mut self) {
        self.id.clear();
        self.dst_server.clear();
        self.dst_switch.clear();
        self.created_at.clear();
        self.state.clear();
        self.escape_hops.clear();
        self.free.clear();
    }
}

/// All per-step scratch, folded into one reusable arena: request lists,
/// sort keys, grant counters and the v2 sampler's output. Sized to its
/// bounds up front, so no allocations at steady state.
#[derive(Debug, Default)]
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
}

impl StepArena {
    /// Empties the scratch, with room for the largest step: one request per
    /// input VC of a switch, one injector per server.
    fn reset(&mut self, num_ports: usize, num_vcs: usize, num_servers: usize) {
        let slots = num_ports * num_vcs;
        make_room(&mut self.requests, slots);
        make_room(&mut self.keyed, slots);
        make_room(&mut self.out_grants, num_ports);
        make_room(&mut self.in_grants, num_ports);
        make_room(&mut self.sampled, num_servers);
    }
}

/// Empties `v` with room for `len` entries, freeing its allocation first
/// when that is too small.
fn make_room<T>(v: &mut Vec<T>, len: usize) {
    if v.capacity() < len {
        *v = Vec::new();
    }
    v.clear();
    v.reserve(len);
}

/// Sets `v` to `len` copies of `value`, in the allocation it already has
/// when that is large enough. Otherwise the old allocation is freed first;
/// a new one of zeros comes from the allocator's zeroed pages, which the
/// kernel faults in only when they are first touched.
fn refill<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    if v.capacity() < len {
        *v = Vec::new();
        *v = vec![value; len];
    } else {
        v.clear();
        v.resize(len, value);
    }
}

/// Sizes `v` to `len` entries, keeping the entries it has and zeroing only
/// the new ones: for ring storage, which never reads an entry it has not
/// written since the reset, and for arrays the reset has already cleared.
fn resize_keeping<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.capacity() < len {
        refill(v, len, T::default());
    } else {
        v.resize(len, T::default());
    }
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
    /// The mechanism's deroute floor (see [`RoutingMechanism::deroute_floor`]).
    deroute_floor: Option<u16>,
    /// The fill predictor: a 2-bit saturating counter, up by one for each
    /// cache miss whose best request needed the whole routing part (none
    /// below the deroute floor) and down by one for each that did not. At
    /// [`FILL_WHOLE`] or above a miss fills the whole routing part at once,
    /// since filling the cheap part first would be filling twice.
    fill_predictor: u8,
    pattern: Box<dyn TrafficPattern>,
    layout: ServerLayout,
    // --- geometry (cached off cfg/topology by `init`) ---
    radix: usize,
    num_ports: usize,
    num_vcs: usize,
    cap_in: usize,
    cap_out: usize,
    cap_src: usize,
    /// Words per switch of `in_mask` (`ceil(num_ports·num_vcs / 64)`).
    in_words: usize,
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
    /// Candidate cache of each slot's head: [`HAS_LIST`], [`LIST_VALID`],
    /// [`ESCAPE_PENDING`] and [`DEROUTE_PENDING`]. Only an occupied slot
    /// sets any, so the allocation stays zeroed where no packet has been.
    vc_flags: Vec<u8>,
    /// The slot's buffer in `lists`, read only while the slot
    /// [`HAS_LIST`]. A slot that empties returns its buffer to
    /// `spare_lists`, and the next fill of a slot without one takes the
    /// most recently returned — so the buffers in use never exceed the
    /// peak number of occupied slots, and a fill usually writes memory
    /// that is still in cache.
    vc_list: Vec<u32>,
    /// Every candidate-list buffer this simulator has made.
    lists: Vec<Vec<Candidate>>,
    /// The buffers of `lists` no slot holds, most recently returned last.
    spare_lists: Vec<u32>,
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
    link_busy: Vec<u64>,
    /// Output ports listed under the cycle they can next send: the later of
    /// `link_busy` and the head's `stg_ready`. A port is listed exactly
    /// once while it holds a staged packet, and never while it holds none.
    port_due: DueLists,
    /// Staged packets per switch.
    stg_count: Vec<u32>,
    /// Switches holding a staged packet (a non-zero `stg_count`).
    stg_switches: u64,
    // --- server state ---
    /// Source-queue ring storage: `srv_q[server·cap_src ..][..cap_src]`.
    srv_q: Vec<u32>,
    srv_head: Vec<u16>,
    srv_len: Vec<u16>,
    srv_busy: Vec<u64>,
    srv_quota: Vec<u64>,
    /// Servers listed under the cycle their link can next inject: the later
    /// of `srv_busy` and the cycle the head was admitted. A server with
    /// queued packets is either listed once or waiting on a credit.
    server_due: DueLists,
    /// Servers whose injection found no credit in their switch input VC:
    /// the pop that frees one lists them for the next cycle.
    srv_waiting: Vec<bool>,
    /// Batch mode: the servers with quota left, ascending (the servers
    /// that try to admit a packet every cycle).
    quota_left: Vec<u32>,
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
    /// Rate contract v2: per-server cycle stamp marking membership in this
    /// cycle's sampled injector set (`cycle + 1`; never needs clearing).
    sampled_at: Vec<u64>,
    /// Rate contract v2: the counting sampler, rebuilt when the per-trial
    /// probability changes (i.e. when the offered load changes).
    binomial_cache: Option<(f64, Binomial)>,
    /// All per-step scratch, folded into one arena.
    step: StepArena,
    /// Fixed-slot observability counters: plain `u64` adds on the hot path,
    /// never fed back into any scheduling decision (zero-perturbation).
    obs: CounterRegistry,
    /// Optional packet-lifecycle tracer. `None` reduces every hook to one
    /// branch; enabling it must not change RNG draws or metrics bytes.
    tracer: Option<PacketTracer>,
}

impl Simulator {
    /// Builds a simulator over `view` with the given routing mechanism and
    /// traffic pattern: an empty simulator, brought to its first cycle by
    /// the same re-initialisation as [`Simulator::reset`].
    ///
    /// # Panics
    /// Panics if the mechanism's VC count disagrees with the configuration,
    /// or if the switches do not fit the packed widths
    /// ([`Simulator::check_widths`]).
    pub fn new(
        view: Arc<NetworkView>,
        mechanism: Box<dyn RoutingMechanism>,
        pattern: Box<dyn TrafficPattern>,
        cfg: SimConfig,
    ) -> Self {
        let layout = Self::checked_layout(&view, mechanism.as_ref(), &cfg);
        let mut sim = Simulator {
            rng: ChaCha8Rng::seed_from_u64(0),
            cfg,
            view,
            escape_floor: None,
            deroute_floor: None,
            fill_predictor: 0,
            mechanism,
            pattern,
            layout,
            radix: 0,
            num_ports: 0,
            num_vcs: 0,
            cap_in: 0,
            cap_out: 0,
            cap_src: 0,
            in_words: 0,
            pkt: PacketArena::default(),
            in_q: Vec::new(),
            in_head: Vec::new(),
            in_len: Vec::new(),
            in_used: Vec::new(),
            in_mask: Vec::new(),
            vc_flags: Vec::new(),
            vc_list: Vec::new(),
            lists: Vec::new(),
            spare_lists: Vec::new(),
            down: Vec::new(),
            stg_pkt: Vec::new(),
            stg_vc: Vec::new(),
            stg_ready: Vec::new(),
            stg_head: Vec::new(),
            stg_len: Vec::new(),
            link_busy: Vec::new(),
            port_due: DueLists::default(),
            stg_count: Vec::new(),
            stg_switches: 0,
            srv_q: Vec::new(),
            srv_head: Vec::new(),
            srv_len: Vec::new(),
            srv_busy: Vec::new(),
            srv_quota: Vec::new(),
            server_due: DueLists::default(),
            srv_waiting: Vec::new(),
            quota_left: Vec::new(),
            wheel: Vec::new(),
            cycle: 0,
            next_packet_id: 0,
            packets_alive: 0,
            total_generated: 0,
            total_delivered: 0,
            counters: MeasuredCounters::default(),
            measuring: false,
            generation: GenerationMode::Rate { offered_load: 0.0 },
            last_progress: 0,
            progress_this_cycle: false,
            stalled: false,
            window_delivered_phits: 0,
            alloc_active: ActiveSet::default(),
            sampled_at: Vec::new(),
            binomial_cache: None,
            step: StepArena::default(),
            obs: CounterRegistry::new(),
            tracer: None,
        };
        sim.init();
        sim
    }

    /// Turns this simulator into the one [`Simulator::new`] would build from
    /// the same arguments, in place: every array is re-initialised inside
    /// the allocation it already has, so a simulator reused across jobs of
    /// one shape allocates no engine array, and memory is never held
    /// twice. The result is indistinguishable from a new build (packet
    /// indices, event wheel, active sets, counters, RNG stream, no tracer);
    /// the engine corpus's reuse pass checks every case on a simulator that
    /// has just run another one.
    ///
    /// # Panics
    /// As [`Simulator::new`]; a reset that panics leaves the simulator as it
    /// was.
    pub fn reset(
        &mut self,
        view: Arc<NetworkView>,
        mechanism: Box<dyn RoutingMechanism>,
        pattern: Box<dyn TrafficPattern>,
        cfg: SimConfig,
    ) {
        self.layout = Self::checked_layout(&view, mechanism.as_ref(), &cfg);
        self.view = view;
        self.mechanism = mechanism;
        self.pattern = pattern;
        self.cfg = cfg;
        self.init();
    }

    /// Checks that the parts fit together and fit the engine, and returns
    /// their server layout.
    fn checked_layout(
        view: &NetworkView,
        mechanism: &dyn RoutingMechanism,
        cfg: &SimConfig,
    ) -> ServerLayout {
        cfg.validate();
        assert_eq!(
            mechanism.num_vcs(),
            cfg.num_vcs,
            "the routing mechanism uses {} VCs but the configuration says {}",
            mechanism.num_vcs(),
            cfg.num_vcs
        );
        assert!(
            cfg.input_buffer_packets <= u16::MAX as usize
                && cfg.output_buffer_packets <= u16::MAX as usize
                && cfg.source_queue_packets <= u16::MAX as usize,
            "buffer capacities must fit the ring-index width"
        );
        let hx = view.hyperx();
        let num_ports = hx.switch_radix() + cfg.servers_per_switch;
        if let Err(e) = Self::check_widths(hx.num_switches(), num_ports, cfg.num_vcs) {
            panic!("{e}");
        }
        ServerLayout::new(hx, cfg.servers_per_switch)
    }

    /// Brings the engine state to cycle 0 of the installed view, mechanism,
    /// pattern and configuration, reusing every allocation that is large
    /// enough. Ring storage (`in_q`, `stg_pkt`, `stg_vc`, `stg_ready`,
    /// `srv_q`) keeps stale entries: a ring reads only the entries between
    /// its head and its length, and every one of those is written after the
    /// reset.
    fn init(&mut self) {
        // Only an occupied input VC sets a flag or holds a list buffer: the
        // pop that empties a slot clears its flags and returns its buffer.
        // So the last run's occupied slots (its `in_mask`, in its geometry)
        // are the only ones to clear.
        let per_switch = self.num_ports * self.num_vcs;
        let span = 64 * self.in_words;
        for bit in set_bits(&self.in_mask) {
            let slot = bit / span * per_switch + bit % span;
            if self.vc_flags[slot] & HAS_LIST != 0 {
                self.spare_lists.push(self.vc_list[slot]);
            }
            self.vc_flags[slot] = 0;
        }
        debug_assert!(self.vc_flags.iter().all(|&flags| flags == 0));
        debug_assert_eq!(self.spare_lists.len(), self.lists.len());

        let hx = self.view.hyperx();
        let num_switches = hx.num_switches();
        let num_servers = self.layout.num_servers();
        self.radix = hx.switch_radix();
        self.num_ports = self.radix + self.cfg.servers_per_switch;
        self.num_vcs = self.cfg.num_vcs;
        self.cap_in = self.cfg.input_buffer_packets;
        self.cap_out = self.cfg.output_buffer_packets;
        self.cap_src = self.cfg.source_queue_packets;
        self.in_words = (self.num_ports * self.num_vcs).div_ceil(64);
        self.escape_floor = self.mechanism.escape_floor();
        self.deroute_floor = self.mechanism.deroute_floor();
        self.fill_predictor = 0;
        let nslots = num_switches * self.num_ports * self.num_vcs;
        let nports = num_switches * self.num_ports;

        self.pkt.clear();
        resize_keeping(&mut self.in_q, nslots * self.cap_in);
        refill(&mut self.in_head, nslots, 0);
        refill(&mut self.in_len, nslots, 0);
        refill(&mut self.in_used, nslots, 0);
        refill(&mut self.in_mask, num_switches * self.in_words, 0);
        resize_keeping(&mut self.vc_flags, nslots);
        resize_keeping(&mut self.vc_list, nslots);
        make_room(&mut self.down, nports);
        for s in 0..num_switches {
            for p in 0..self.radix {
                self.down.push(match self.view.network().neighbor(s, p) {
                    Some(nb) => (nb.switch * self.num_ports + nb.reverse_port) as u32,
                    None => DEAD,
                });
            }
            self.down
                .extend(std::iter::repeat_n(EJECT, self.cfg.servers_per_switch));
        }
        resize_keeping(&mut self.stg_pkt, nports * self.cap_out);
        resize_keeping(&mut self.stg_vc, nports * self.cap_out);
        resize_keeping(&mut self.stg_ready, nports * self.cap_out);
        refill(&mut self.stg_head, nports, 0);
        refill(&mut self.stg_len, nports, 0);
        refill(&mut self.link_busy, nports, 0);
        refill(&mut self.stg_count, num_switches, 0);
        self.stg_switches = 0;
        resize_keeping(&mut self.srv_q, num_servers * self.cap_src);
        refill(&mut self.srv_head, num_servers, 0);
        refill(&mut self.srv_len, num_servers, 0);
        refill(&mut self.srv_busy, num_servers, 0);
        refill(&mut self.srv_quota, num_servers, u64::MAX);
        refill(&mut self.srv_waiting, num_servers, false);
        self.quota_left.clear();

        // Events land at most `packet_length + link_latency` cycles ahead,
        // ports are due at most `crossbar_latency + packet_length` ahead and
        // servers at most `packet_length` ahead.
        let wheel_len =
            (self.cfg.packet_length + self.cfg.link_latency + self.cfg.crossbar_latency + 4)
                as usize;
        self.wheel.iter_mut().for_each(Vec::clear);
        self.wheel.resize_with(wheel_len, Vec::new);
        self.port_due.reset(wheel_len);
        self.server_due.reset(wheel_len);
        self.rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        self.cycle = 0;
        self.next_packet_id = 0;
        self.packets_alive = 0;
        self.total_generated = 0;
        self.total_delivered = 0;
        self.counters = MeasuredCounters::new(num_servers);
        self.measuring = false;
        self.generation = GenerationMode::Rate { offered_load: 0.0 };
        self.last_progress = 0;
        self.progress_this_cycle = false;
        self.stalled = false;
        self.window_delivered_phits = 0;
        self.alloc_active.reset(num_switches);
        // The v2 sampler's stamps are cycle numbers: a stale one would mark
        // a server as sampled in the new run.
        refill(&mut self.sampled_at, num_servers, 0);
        // Cached per offered load only, not per server count.
        self.binomial_cache = None;
        self.step.reset(self.num_ports, self.num_vcs, num_servers);
        self.obs.reset();
        self.tracer = None;
    }

    /// Checks that `num_switches` switches of `num_ports` ports (radix plus
    /// concentration) with `num_vcs` VCs per port fit the engine's packed
    /// widths: a candidate holds its port in a `u16` and its VC range in
    /// `u8`s, and every input VC slot must be a `u32` below the `down`
    /// sentinels. [`Simulator::new`] panics where this returns an error, so
    /// experiment validation calls it first.
    pub fn check_widths(
        num_switches: usize,
        num_ports: usize,
        num_vcs: usize,
    ) -> Result<(), String> {
        if num_ports > usize::from(u16::MAX) {
            return Err(format!(
                "a switch with {num_ports} ports (radix plus concentration) does not fit \
                 the engine's 16-bit port index (at most {})",
                u16::MAX
            ));
        }
        if num_vcs > usize::from(u8::MAX) {
            return Err(format!(
                "{num_vcs} VCs per port do not fit the engine's 8-bit VC index (at most {})",
                u8::MAX
            ));
        }
        let slots = num_switches
            .checked_mul(num_ports)
            .and_then(|n| n.checked_mul(num_vcs));
        if slots.is_none_or(|n| n >= EJECT as usize) {
            return Err(format!(
                "{num_switches} switches x {num_ports} ports x {num_vcs} VCs do not fit \
                 the engine's 32-bit input VC index"
            ));
        }
        Ok(())
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
        self.quota_left.clear();
        self.quota_left.extend(0..self.layout.num_servers() as u32);
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
        self.quota_left.clear();
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
    /// Each stage visits only what can act: allocation the switches with
    /// buffered input packets, injection and transmission the servers and
    /// output ports due this cycle (see the module docs' "Due lists"), each
    /// in ascending order — the order an exhaustive scan would take.
    /// Admission draws for every server under rate contract v1, for the
    /// sampled servers under v2 and for the servers with quota left in
    /// batch mode. The observable behaviour (RNG draw order, metrics,
    /// counters, traces, event timing) is pinned by the digest corpus; see
    /// the `corpus` tests.
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

    /// Generation, then injection. Admission keeps the draw order of its
    /// contract; then the servers due this cycle inject, in ascending order.
    /// A server's admission still precedes its injection, and injection
    /// draws nothing, so this is the order of a per-server sweep.
    fn generate_and_inject(&mut self) {
        match self.generation {
            GenerationMode::Rate { offered_load } => match self.cfg.rng_contract {
                // Contract v1 (frozen): one Bernoulli trial per server per
                // cycle, in ascending server order. The draw order is the
                // contract, so this path draws for every server.
                RngContract::V1PerServer => {
                    if offered_load > 0.0 {
                        let p = offered_load / self.cfg.packet_length as f64;
                        for server in 0..self.layout.num_servers() {
                            if self.rng.gen::<f64>() < p {
                                self.admit_packet(server);
                            }
                        }
                    }
                }
                // Contract v2: one binomial draw counts the cycle's
                // arrivals, a without-replacement sample places them, and
                // only the sampled servers admit — O(traffic) instead of
                // O(network).
                RngContract::V2Counting => {
                    self.sample_injectors_v2(offered_load);
                    for i in 0..self.step.sampled.len() {
                        self.admit_packet(self.step.sampled[i]);
                    }
                }
            },
            // Batch mode: every server with quota left admits a packet when
            // its source queue has room, and draws nothing otherwise.
            GenerationMode::Batch { .. } => {
                let mut quota_left = std::mem::take(&mut self.quota_left);
                quota_left.retain(|&server| {
                    self.admit_packet(server as usize);
                    self.srv_quota[server as usize] > 0
                });
                self.quota_left = quota_left;
            }
        }
        let due = self.server_due.take_sorted(self.cycle);
        for &server in &due {
            self.inject_server(server as usize);
        }
        self.server_due.put_back(self.cycle, due);
    }

    /// Rate contract v2, step 1: draws `k ~ Binomial(n_servers, p)` and
    /// samples the `k` injecting servers without replacement into
    /// `step.sampled`, ascending (stamping `sampled_at` with `cycle + 1`).
    /// At load 0 the sample is empty.
    fn sample_injectors_v2(&mut self, offered_load: f64) {
        if offered_load <= 0.0 {
            self.step.sampled.clear();
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
            let packet = self.pkt.alloc(id, dst, dst_switch, self.cycle, state);
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
            if self.srv_len[server] == 0 {
                // The new head can leave once the link is free: this cycle
                // at the earliest, since injection follows admission.
                let due = self.srv_busy[server].max(self.cycle);
                self.server_due.push(due, server);
            }
            self.srv_len[server] += 1;
        } else if self.measuring {
            self.counters.generation_blocked += 1;
        }
    }

    /// Injection of a due server's head packet over its server-to-switch
    /// link (no randomness: every server has a dedicated switch input
    /// port). Without a credit the server waits for the pop that frees one;
    /// otherwise it is listed again while packets remain.
    fn inject_server(&mut self, server: usize) {
        debug_assert!(self.srv_busy[server] <= self.cycle && self.srv_len[server] > 0);
        debug_assert!(!self.srv_waiting[server]);
        let packet_length = self.cfg.packet_length;
        let sw = self.layout.server_switch(server);
        let in_port = self.radix + self.layout.server_offset(server);
        let slot = self.slot(sw, in_port, 0);
        if self.in_free(slot) == 0 {
            self.srv_waiting[server] = true;
            return;
        }
        let packet = self.srv_q[server * self.cap_src + self.srv_head[server] as usize];
        let next = self.srv_head[server] as usize + 1;
        self.srv_head[server] = if next == self.cap_src { 0 } else { next as u16 };
        self.srv_len[server] -= 1;
        self.in_used[slot] += 1;
        self.srv_busy[server] = self.cycle + packet_length;
        if self.srv_len[server] > 0 {
            self.server_due.push(self.srv_busy[server], server);
        }
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
    /// order.
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
            let flags = self.vc_flags[slot];
            let filled = flags & LIST_VALID == 0;
            if !filled {
                self.obs.incr(Counter::CandCacheHits);
            } else {
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
                // Compute the routing part, or only its cheap part unless
                // the fill predictor expects the rest to be needed, and
                // leave the escape part pending. A slot without a buffer
                // (never filled, or emptied since) takes the most recently
                // returned one.
                if flags & HAS_LIST == 0 {
                    self.vc_list[slot] = self.spare_lists.pop().unwrap_or_else(|| {
                        self.lists.push(Vec::new());
                        (self.lists.len() - 1) as u32
                    });
                }
                let list = &mut self.lists[self.vc_list[slot] as usize];
                list.clear();
                let state = &self.pkt.state[head];
                if self.deroute_floor.is_some() && self.fill_predictor < FILL_WHOLE {
                    self.mechanism.cheap_into(state, switch, list);
                    self.vc_flags[slot] = HAS_LIST | LIST_VALID | ESCAPE_PENDING | DEROUTE_PENDING;
                } else {
                    self.mechanism.candidates_into(state, switch, list);
                    self.vc_flags[slot] = HAS_LIST | LIST_VALID | ESCAPE_PENDING;
                }
            }
            // Single request to the best candidate that satisfies flow
            // control.
            let list = self.vc_list[slot] as usize;
            let mut best = self.best_request(&self.lists[list], first_port, in_port, in_vc, None);
            // The cheap part keeps the routing part's order and leaves out
            // only candidates that cost at least the deroute floor, and
            // only a strictly lower score replaces `best`: a best below the
            // floor is the whole routing part's best. Otherwise the whole
            // routing part replaces the list and is scored from scratch,
            // and the escape part, no longer in the list, is pending again.
            // Each new list tells the fill predictor whether it needed the
            // whole routing part.
            let cheap_only = self.vc_flags[slot] & DEROUTE_PENDING != 0;
            if filled || cheap_only {
                if let Some(floor) = self.deroute_floor {
                    let needs_rest = best.is_none_or(|b| b.score >= u64::from(floor));
                    if filled {
                        self.fill_predictor = if needs_rest {
                            (self.fill_predictor + 1).min(3)
                        } else {
                            self.fill_predictor.saturating_sub(1)
                        };
                    }
                    if cheap_only && needs_rest {
                        let head = self.in_front(slot);
                        let routing = &mut self.lists[list];
                        routing.clear();
                        self.mechanism
                            .candidates_into(&self.pkt.state[head], switch, routing);
                        self.vc_flags[slot] = HAS_LIST | LIST_VALID | ESCAPE_PENDING;
                        let routing = &self.lists[list];
                        best = self.best_request(routing, first_port, in_port, in_vc, None);
                    }
                }
            }
            // The escape part follows the routing part and costs at least
            // the floor, and only a strictly lower score replaces `best`:
            // it can change the request only when no routing candidate
            // scored at or below the floor, so only then is it built (at
            // most once per head).
            if self.vc_flags[slot] & ESCAPE_PENDING != 0
                && self
                    .escape_floor
                    .is_some_and(|f| best.is_none_or(|b| b.score > u64::from(f)))
            {
                let head = self.in_front(slot);
                let routing_len = self.lists[list].len();
                self.mechanism
                    .escape_into(&self.pkt.state[head], switch, &mut self.lists[list]);
                self.vc_flags[slot] &= !ESCAPE_PENDING;
                let escape = &self.lists[list][routing_len..];
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
    /// input port. The RNG draws here are part of the draw-order contract.
    /// Allocation-free at steady state.
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
            if in_port >= self.radix {
                // The pop freed a credit of this server's link: a server
                // waiting on it injects next cycle.
                let server = self.layout.server_at(switch, in_port - self.radix);
                if self.srv_waiting[server] {
                    self.srv_waiting[server] = false;
                    self.server_due.push(self.cycle + 1, server);
                }
            }
            let flags = &mut self.vc_flags[slot];
            if self.in_len[slot] > 0 {
                *flags &= HAS_LIST;
            } else {
                if *flags & HAS_LIST != 0 {
                    self.spare_lists.push(self.vc_list[slot]);
                }
                *flags = 0;
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
                let due = self.link_busy[flat_out].max(self.stg_ready[g]);
                self.port_due.push(due, flat_out);
            }
            self.stg_len[flat_out] += 1;
            if self.stg_count[switch] == 0 {
                self.stg_switches += 1;
            }
            self.stg_count[switch] += 1;
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
    /// scan grants in, so the RNG tie-break sequence is identical), and
    /// drops the switches whose inputs drained from the active set.
    fn allocate(&mut self) {
        self.alloc_active.merge_added();
        self.obs.add(
            Counter::AllocSwitchVisits,
            self.alloc_active.list.len() as u64,
        );
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

    /// Transmit stage: puts the packets of the ports due this cycle onto
    /// their links, in ascending flat port order — so the event wheel
    /// receives arrivals in the order a sweep over every staged port would
    /// schedule them. Every packet sent this cycle lands at `cycle +
    /// packet_length + link_latency`, so all of them go into one wheel slot.
    /// A port that still holds packets is listed again.
    fn transmit(&mut self) {
        self.obs.add(Counter::XmitSwitchVisits, self.stg_switches);
        let (cycle, packet_length) = (self.cycle, self.cfg.packet_length);
        let due = self.port_due.take_sorted(cycle);
        if !due.is_empty() {
            let arrive = cycle + packet_length + self.cfg.link_latency;
            debug_assert!(arrive - cycle < self.wheel.len() as u64);
            let wheel_slot = self.wheel_slot(arrive);
            let mut events = std::mem::take(&mut self.wheel[wheel_slot]);
            let cap_out = self.cap_out;
            for &flat in &due {
                let flat = flat as usize;
                let head = self.stg_head[flat] as usize;
                let g = flat * cap_out + head;
                debug_assert!(self.stg_len[flat] > 0, "an empty port was due");
                debug_assert!(self.link_busy[flat] <= cycle && self.stg_ready[g] <= cycle);
                let next = head + 1;
                self.stg_head[flat] = if next == cap_out { 0 } else { next as u16 };
                self.stg_len[flat] -= 1;
                self.link_busy[flat] = cycle + packet_length;
                if self.stg_len[flat] > 0 {
                    let ready = self.stg_ready[flat * cap_out + self.stg_head[flat] as usize];
                    self.port_due.push(ready.max(self.link_busy[flat]), flat);
                }
                let switch = flat / self.num_ports;
                self.stg_count[switch] -= 1;
                if self.stg_count[switch] == 0 {
                    self.stg_switches -= 1;
                }
                let packet = self.stg_pkt[g];
                let down = self.down[flat];
                if down < EJECT {
                    let dslot = down as usize * self.num_vcs + self.stg_vc[g] as usize;
                    events.push(Ev::Arrival {
                        slot: dslot as u32,
                        packet,
                    });
                } else {
                    debug_assert_eq!(down, EJECT, "dead ports never receive grants");
                    events.push(Ev::Delivery { packet });
                }
            }
            self.progress_this_cycle = true;
            self.wheel[wheel_slot] = events;
        }
        self.port_due.put_back(cycle, due);
    }
}

#[cfg(test)]
mod tests;
