use super::*;
use crate::traffic::{RandomServerPermutation, RegularPermutationToNeighbour, UniformTraffic};
use hyperx_routing::MechanismSpec;
use hyperx_topology::{FaultSet, FaultShape, HyperX};

fn build_sim(spec: MechanismSpec, load_cfg: SimConfig) -> Simulator {
    let hx = HyperX::regular(2, 4);
    let view = Arc::new(NetworkView::healthy(hx, 0));
    let mech = spec.build(view.clone(), load_cfg.num_vcs);
    let layout = ServerLayout::new(view.hyperx(), load_cfg.servers_per_switch);
    let pattern = Box::new(UniformTraffic::new(&layout));
    Simulator::new(view, mech, pattern, load_cfg)
}

#[test]
fn single_packet_end_to_end_latency() {
    // One packet, empty network: latency = injection serialization + per-hop
    // (crossbar + link) serialization, so it must be close to the analytic
    // minimum and the packet must arrive.
    let mut cfg = SimConfig::quick(2, 4);
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 400;
    cfg.seed = 7;
    let hx = HyperX::regular(2, 4);
    let view = Arc::new(NetworkView::healthy(hx, 0));
    let mech = MechanismSpec::Minimal.build(view.clone(), 4);
    let layout = ServerLayout::new(view.hyperx(), 2);
    // A fixed permutation sending server 0 to the farthest corner and making
    // everything else local (self loops are fine for this test).
    let mut mapping: Vec<usize> = (0..layout.num_servers()).collect();
    let far = layout.num_servers() - 1;
    mapping.swap(0, far);
    let pattern = Box::new(RandomServerPermutation::from_mapping(mapping));
    let mut sim = Simulator::new(view, mech, pattern, cfg);
    sim.generation = GenerationMode::Batch {
        packets_per_server: 0,
    };
    for quota in &mut sim.srv_quota {
        *quota = 0;
    }
    sim.srv_quota[0] = 1;
    sim.quota_left = vec![0];
    sim.begin_measurement();
    for _ in 0..400 {
        sim.step();
        if sim.total_delivered() == 1 {
            break;
        }
    }
    assert_eq!(sim.total_delivered(), 1, "the lone packet must arrive");
    // Distance is 2 hops; minimum latency = 3 links × (16+1) + 2 crossbars ≈ 70.
    let lat = sim.counters.latency_sum;
    assert!(lat >= 3 * 17, "latency {lat} below the serialization floor");
    assert!(
        lat <= 150,
        "latency {lat} absurdly high for an empty network"
    );
}

#[test]
fn low_load_uniform_delivers_offered_traffic() {
    let mut cfg = SimConfig::quick(2, 4);
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 3000;
    let mut sim = build_sim(MechanismSpec::Minimal, cfg);
    let m = sim.run_rate(0.2);
    assert!(!m.stalled);
    assert!(
        (m.accepted_load - 0.2).abs() < 0.05,
        "accepted {} should track the offered 0.2",
        m.accepted_load
    );
    assert!(m.average_latency > 30.0 && m.average_latency < 300.0);
    assert!(m.jain_generated > 0.9);
}

#[test]
fn packet_conservation_under_drain() {
    let mut cfg = SimConfig::quick(2, 4);
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 500;
    let mut sim = build_sim(MechanismSpec::OmniSP, cfg);
    sim.run_rate(0.4);
    let generated = sim.total_generated();
    assert!(generated > 0);
    let drained = sim.drain(200_000);
    assert!(drained, "all packets must eventually be delivered");
    assert_eq!(sim.total_delivered(), generated);
    assert_eq!(sim.packets_in_switches(), 0);
}

#[test]
fn packet_arena_recycles_slots() {
    // The arena's high-water mark is the peak in-flight count, not the
    // total generated count — delivered slots must be reused.
    let mut cfg = SimConfig::quick(2, 4);
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 2_000;
    let mut sim = build_sim(MechanismSpec::Minimal, cfg);
    let _ = sim.run_rate(0.3);
    let generated = sim.total_generated();
    let arena_slots = sim.pkt.id.len() as u64;
    assert!(generated > 200, "the run must actually generate traffic");
    assert!(
        arena_slots < generated / 2,
        "arena grew to {arena_slots} slots for {generated} packets — the free list is dead"
    );
}

#[test]
fn saturation_does_not_exceed_physical_limit() {
    let mut cfg = SimConfig::quick(2, 4);
    cfg.warmup_cycles = 300;
    cfg.measure_cycles = 1500;
    let mut sim = build_sim(MechanismSpec::OmniSP, cfg);
    let m = sim.run_rate(1.0);
    assert!(m.accepted_load <= 1.0 + 1e-9);
    assert!(
        m.accepted_load > 0.3,
        "a healthy HyperX should accept substantial uniform load"
    );
    assert!(!m.stalled);
}

#[test]
fn batch_mode_completes_and_reports_samples() {
    let mut cfg = SimConfig::quick(2, 4);
    cfg.seed = 3;
    let hx = HyperX::regular(2, 4);
    let view = Arc::new(NetworkView::healthy(hx, 0));
    let mech = MechanismSpec::PolSP.build(view.clone(), 4);
    let layout = ServerLayout::new(view.hyperx(), 2);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let pattern = Box::new(RandomServerPermutation::new(&layout, &mut rng));
    let mut sim = Simulator::new(view, mech, pattern, cfg);
    let result = sim.run_batch(5, 200);
    assert!(!result.stalled);
    assert_eq!(result.delivered_packets, 5 * 32);
    assert!(result.completion_time > 0);
    assert!(!result.samples.is_empty());
    let delivered_via_samples: f64 = result.samples.iter().map(|s| s.accepted_load).sum::<f64>();
    assert!(delivered_via_samples > 0.0);
}

#[test]
fn deterministic_given_a_seed() {
    let mut cfg = SimConfig::quick(2, 4);
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 800;
    cfg.seed = 99;
    let m1 = build_sim(MechanismSpec::Polarized, cfg.clone()).run_rate(0.5);
    let m2 = build_sim(MechanismSpec::Polarized, cfg).run_rate(0.5);
    assert_eq!(m1.delivered_packets, m2.delivered_packets);
    assert_eq!(m1.accepted_load, m2.accepted_load);
    assert_eq!(m1.average_latency, m2.average_latency);
}

#[test]
#[should_panic]
fn mechanism_vc_mismatch_rejected() {
    let cfg = SimConfig::quick(2, 6);
    let hx = HyperX::regular(2, 4);
    let view = Arc::new(NetworkView::healthy(hx, 0));
    let mech = MechanismSpec::Minimal.build(view.clone(), 4);
    let layout = ServerLayout::new(view.hyperx(), 2);
    let pattern = Box::new(UniformTraffic::new(&layout));
    let _ = Simulator::new(view, mech, pattern, cfg);
}

#[test]
#[should_panic]
fn out_of_range_load_rejected() {
    let cfg = SimConfig::quick(2, 4);
    let mut sim = build_sim(MechanismSpec::Minimal, cfg);
    let _ = sim.run_rate(1.5);
}

/// A congested closed-loop case: RPN on a 4×4×4 HyperX with 4 servers per
/// switch, the cross `cross:1:2,2,2` (margin 1 around switch (2,2,2), also
/// the escape root) and 12 packets per server. Heads stay blocked for many
/// cycles, so the candidate cache hits often, and escape hops are granted.
fn congested_batch_sim(spec: MechanismSpec) -> Simulator {
    let hx = HyperX::regular(3, 4);
    let center = vec![2, 2, 2];
    let root = hx.switch_id(&center);
    let faults = FaultSet::from_shape(&FaultShape::Cross { center, margin: 1 }, &hx);
    let view = Arc::new(NetworkView::with_faults(hx, &faults, root));
    let mut cfg = SimConfig::quick(4, 4);
    cfg.seed = 3;
    let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
    let mech = spec.build(view.clone(), cfg.num_vcs);
    let pattern = Box::new(RegularPermutationToNeighbour::new(layout));
    Simulator::new(view, mech, pattern, cfg)
}

/// Packets per server of the congested closed-loop case.
const CONGESTED_PACKETS: u64 = 12;

/// What [`Simulator::new`] and [`Simulator::reset`] take.
type Parts = (
    Arc<NetworkView>,
    Box<dyn RoutingMechanism>,
    Box<dyn TrafficPattern>,
    SimConfig,
);

mod corpus;

/// Everything a reset must restore, formatted: geometry, the packet arena,
/// every state array except ring storage (a ring reads only what it wrote
/// since the reset), each input VC's candidate-cache flags (its buffer
/// index is read only while it holds a buffer), the event wheel, the due
/// lists, every scalar, the counters, the active set, the scratch, the RNG
/// and the tracer's absence.
fn engine_state(sim: &Simulator) -> String {
    let geometry = [
        sim.radix,
        sim.num_ports,
        sim.num_vcs,
        sim.cap_in,
        sim.cap_out,
        sim.cap_src,
        sim.in_words,
    ];
    let clock = [
        sim.cycle,
        sim.next_packet_id,
        sim.packets_alive,
        sim.total_generated,
        sim.total_delivered,
        sim.last_progress,
        sim.window_delivered_phits,
    ];
    let flags = [
        sim.measuring,
        sim.progress_this_cycle,
        sim.stalled,
        sim.tracer.is_some(),
    ];
    let fields: [(&str, &dyn std::fmt::Debug); 31] = [
        ("layout", &sim.layout),
        ("geometry", &geometry),
        ("escape floor", &sim.escape_floor),
        ("deroute floor", &sim.deroute_floor),
        ("fill predictor", &sim.fill_predictor),
        ("packets", &sim.pkt),
        ("in_head", &sim.in_head),
        ("in_len", &sim.in_len),
        ("in_used", &sim.in_used),
        ("in_mask", &sim.in_mask),
        ("vc_flags", &sim.vc_flags),
        ("down", &sim.down),
        ("stg", &(&sim.stg_head, &sim.stg_len)),
        ("link_busy", &sim.link_busy),
        ("port_due", &sim.port_due),
        ("stg_count", &(&sim.stg_count, sim.stg_switches)),
        ("srv", &(&sim.srv_head, &sim.srv_len, &sim.srv_busy)),
        ("srv_quota", &sim.srv_quota),
        ("server_due", &sim.server_due),
        ("srv_waiting", &sim.srv_waiting),
        ("quota_left", &sim.quota_left),
        ("sampled_at", &sim.sampled_at),
        ("wheel", &sim.wheel),
        ("clock", &clock),
        ("flags", &flags),
        ("generation", &sim.generation),
        ("counters", &sim.counters),
        ("active", &sim.alloc_active),
        ("binomial", &sim.binomial_cache),
        ("scratch", &(&sim.step, &sim.obs)),
        ("rng", &sim.rng),
    ];
    fields
        .iter()
        .map(|(name, value)| format!("{name}: {value:?}\n"))
        .collect()
}

#[test]
fn reset_restores_the_state_of_a_new_build() {
    // Simulators left mid-run (packets in flight, events on the wheel,
    // quotas spent, sampler stamps, a cached binomial, a tracer) are reset
    // to another shape, VC count, contract and mechanism, and to their own
    // shape; each must equal a new build of the same parts.
    let mid_batch = || {
        let mut sim = congested_batch_sim(MechanismSpec::OmniSP);
        sim.begin_batch(CONGESTED_PACKETS);
        sim
    };
    let mid_rate = || {
        let mut cfg = SimConfig::quick(2, 4);
        cfg.rng_contract = RngContract::V2Counting;
        let mut sim = build_sim(MechanismSpec::OmniSP, cfg);
        sim.generation = GenerationMode::Rate { offered_load: 0.7 };
        sim
    };
    let grid = |spec: MechanismSpec, num_vcs| -> Parts {
        let view = Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0));
        let mut cfg = SimConfig::quick(2, num_vcs);
        cfg.seed = 17;
        cfg.rng_contract = RngContract::V1PerServer;
        let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
        let mech = spec.build(view.clone(), num_vcs);
        (view, mech, Box::new(UniformTraffic::new(&layout)), cfg)
    };
    let cube = || -> Parts {
        let sim = congested_batch_sim(MechanismSpec::PolSP);
        (sim.view, sim.mechanism, sim.pattern, sim.cfg)
    };
    let targets: [(&str, &dyn Fn() -> Parts); 3] = [
        ("a 4x4 with 2 VCs", &|| grid(MechanismSpec::Valiant, 2)),
        ("the cube", &cube),
        ("a 4x4 with 4 VCs", &|| grid(MechanismSpec::PolSP, 4)),
    ];
    for (name, predecessor) in [
        ("batch", &mid_batch as &dyn Fn() -> Simulator),
        ("rate", &mid_rate),
    ] {
        for (target, parts) in targets {
            let mut sim = predecessor();
            for _ in 0..400 {
                sim.step();
            }
            sim.set_tracer(Some(PacketTracer::with_capacity(64)));
            assert!(
                sim.packets_alive() > 0,
                "{name}: the run must be mid-flight"
            );
            let (view, mech, pattern, cfg) = parts();
            sim.reset(view, mech, pattern, cfg);
            let (view, mech, pattern, cfg) = parts();
            let fresh = Simulator::new(view, mech, pattern, cfg);
            assert_eq!(
                engine_state(&sim),
                engine_state(&fresh),
                "{name} run reset to {target}"
            );
        }
    }
}

#[test]
fn congested_batch_completes_with_cache_hits_and_escape_grants() {
    // Blocked heads must reuse their cached lists, escape hops must be
    // granted, and every packet must still arrive without a stall.
    for spec in [MechanismSpec::OmniSP, MechanismSpec::PolSP] {
        let mut sim = congested_batch_sim(spec);
        let m = sim.run_batch(CONGESTED_PACKETS, 100);
        assert!(!m.stalled, "{spec:?} stalled");
        assert_eq!(m.delivered_packets, 64 * 4 * CONGESTED_PACKETS, "{spec:?}");
        assert!(
            sim.obs().get(Counter::CandCacheHits) > 0,
            "{spec:?}: no cache hits"
        );
        assert!(
            sim.obs().get(Counter::EscapeGrants) > 0,
            "{spec:?}: no escape grants"
        );
        assert!(sim.drain(100_000), "{spec:?} did not drain");
        assert_eq!(sim.packets_in_switches(), 0, "{spec:?}");
    }
}

/// A mechanism with its cheap part switched off: every list is filled
/// with the whole routing part at once.
struct WholeLists(Box<dyn RoutingMechanism>);

impl RoutingMechanism for WholeLists {
    fn name(&self) -> String {
        self.0.name()
    }

    fn num_vcs(&self) -> usize {
        self.0.num_vcs()
    }

    fn escape_vc(&self) -> Option<usize> {
        self.0.escape_vc()
    }

    fn init_packet(&self, source: usize, dest: usize, rng: &mut dyn rand::RngCore) -> PacketState {
        self.0.init_packet(source, dest, rng)
    }

    fn candidates_into(&self, state: &PacketState, current: usize, out: &mut Vec<Candidate>) {
        self.0.candidates_into(state, current, out);
    }

    fn escape_into(&self, state: &PacketState, current: usize, out: &mut Vec<Candidate>) {
        self.0.escape_into(state, current, out);
    }

    fn escape_floor(&self) -> Option<u16> {
        self.0.escape_floor()
    }

    fn note_hop(&self, state: &mut PacketState, current: usize, next: usize, cand: &Candidate) {
        self.0.note_hop(state, current, next, cand);
    }
}

#[test]
fn cheap_first_requests_equal_whole_requests_under_any_occupancy() {
    // Heads whose cached lists are scored again and again against random
    // occupancy, most of it light, so a cheap best lands in every range:
    // below the escape floor, between the escape floor and the deroute
    // floor (a 20-phit packet behind three others scores 60), at or above
    // the deroute floor, or blocked. Every round, each head must request
    // exactly what a whole fill requests, and now and then a head leaves
    // and a new one arrives with a random routing state.
    use MechanismSpec::{Dal, OmniSP, OmniSPTree, OmniWAR, PolSP, PolSPTree, Polarized};
    let hx = HyperX::regular(3, 4);
    let mut frng = ChaCha8Rng::seed_from_u64(4);
    let faults = FaultSet::random_connected_sequence(hx.network(), 30, &mut frng);
    let view = Arc::new(NetworkView::with_faults(hx, &faults, 0));
    let n = view.hyperx().num_switches();
    for spec in [
        OmniSP, PolSP, OmniSPTree, PolSPTree, OmniWAR, Polarized, Dal,
    ] {
        for packet_length in [16, 20] {
            let build = |whole: bool| {
                let mut cfg = SimConfig::quick(2, spec.faulty_num_vcs(3));
                cfg.packet_length = packet_length;
                let mechanism = spec.build(view.clone(), cfg.num_vcs);
                let mechanism: Box<dyn RoutingMechanism> = if whole {
                    Box::new(WholeLists(mechanism))
                } else {
                    mechanism
                };
                let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
                Simulator::new(
                    view.clone(),
                    mechanism,
                    Box::new(UniformTraffic::new(&layout)),
                    cfg,
                )
            };
            let mut sims = [build(false), build(true)];
            let mut rng = ChaCha8Rng::seed_from_u64(packet_length);
            let switch = 21;
            let radix = sims[0].radix;
            for round in 0..3000 {
                for in_port in 0..4 {
                    let slot = sims[0].slot(switch, in_port, 0);
                    if sims[0].in_len[slot] > 0 && rng.gen_range(0..8) > 0 {
                        continue;
                    }
                    let dest = (switch + 1 + rng.gen_range(0..n - 1)) % n;
                    let mut state = sims[0].mechanism.init_packet(
                        rng.gen_range(0..n),
                        dest,
                        &mut ChaCha8Rng::seed_from_u64(round),
                    );
                    state.hops = rng.gen_range(0..4);
                    state.deroutes = rng.gen_range(0..4);
                    state.closer_to_source = rng.gen();
                    state.in_escape = spec.is_surepath() && rng.gen_range(0..10) == 0;
                    for sim in &mut sims {
                        if sim.in_len[slot] > 0 {
                            // The old head leaves, as a grant pops it.
                            sim.pkt.release(sim.in_front(slot) as u32);
                            sim.in_len[slot] = 0;
                            let (word, bit) = sim.in_mask_bit(slot);
                            sim.in_mask[word] &= !bit;
                            sim.vc_flags[slot] &= HAS_LIST;
                        }
                        let packet = sim.pkt.alloc(0, dest * 2, dest, 0, state);
                        sim.in_push(slot, packet);
                    }
                }
                // Occupancy: each output's staging and each downstream input
                // VC is empty three times in four, otherwise random.
                let light = |rng: &mut ChaCha8Rng, cap: usize| {
                    if rng.gen_range(0..4) == 0 {
                        rng.gen_range(1..cap + 1) as u16
                    } else {
                        0
                    }
                };
                let first_port = switch * sims[0].num_ports;
                for port in 0..radix {
                    let staged = light(&mut rng, sims[0].cap_out);
                    let down = sims[0].down[first_port + port];
                    let used: Vec<u16> = (0..sims[0].num_vcs)
                        .map(|_| light(&mut rng, sims[0].cap_in))
                        .collect();
                    for sim in &mut sims {
                        sim.stg_len[first_port + port] = staged;
                        if down < EJECT {
                            let base = down as usize * sim.num_vcs;
                            sim.in_used[base..base + sim.num_vcs].copy_from_slice(&used);
                        }
                    }
                }
                let [cheap_first, whole] = sims.each_mut().map(|sim| {
                    let mut requests = Vec::new();
                    sim.collect_requests_into(switch, &mut requests);
                    format!("{requests:?}")
                });
                assert_eq!(
                    cheap_first, whole,
                    "{spec:?}, {packet_length}-phit packets, round {round}"
                );
            }
        }
    }
}

/// Checks the due lists against the buffers they schedule, between two
/// steps:
///
/// * every port with staged packets is listed exactly once, under the later
///   of its `link_busy` and its head's ready cycle, and no empty port is
///   listed; the per-switch staged counts match the staging buffers;
/// * every server with queued packets is either listed exactly once, under
///   the later of its `srv_busy`, its head's admission cycle and the current
///   cycle (a server woken by a credit is listed for the cycle after the
///   pop), or waiting on a credit its input VC does not have, never both;
///   no other server is listed or waiting;
/// * in batch mode, the servers with quota left are the ones that admit.
///
/// Returns how many servers wait on a credit.
fn check_due_lists(sim: &Simulator, what: &str) -> usize {
    let len = sim.wheel.len() as u64;
    let listed = |lists: &DueLists, n: usize| {
        assert_eq!(lists.buckets.len() as u64, len, "{what}: wheel length");
        let mut at = vec![Vec::new(); n];
        for (bucket, entries) in lists.buckets.iter().enumerate() {
            for &idx in entries {
                at[idx as usize].push(bucket as u64);
            }
        }
        at
    };
    // The bucket of `due`, which must lie within the wheel's horizon.
    let bucket = |due: u64, which: &str| {
        assert!(
            due >= sim.cycle && due - sim.cycle < len,
            "{what}: {which} due at {due}, cycle {}",
            sim.cycle
        );
        vec![due % len]
    };
    let ports = listed(&sim.port_due, sim.stg_len.len());
    for (flat, listed_at) in ports.iter().enumerate() {
        if sim.stg_len[flat] == 0 {
            assert!(listed_at.is_empty(), "{what}: empty port {flat} is due");
            continue;
        }
        let head = flat * sim.cap_out + sim.stg_head[flat] as usize;
        let due = sim.link_busy[flat].max(sim.stg_ready[head]);
        assert_eq!(listed_at, &bucket(due, "port"), "{what}: port {flat}");
    }
    let staged: Vec<u32> = sim
        .stg_len
        .chunks(sim.num_ports)
        .map(|ports| ports.iter().map(|&l| u32::from(l)).sum())
        .collect();
    assert_eq!(sim.stg_count, staged, "{what}: staged packets per switch");
    let holding = staged.iter().filter(|&&n| n > 0).count() as u64;
    assert_eq!(
        sim.stg_switches, holding,
        "{what}: switches holding a packet"
    );

    let servers = listed(&sim.server_due, sim.srv_len.len());
    let mut waiting = 0;
    for (server, listed_at) in servers.iter().enumerate() {
        let is_waiting = sim.srv_waiting[server];
        if sim.srv_len[server] == 0 {
            assert!(listed_at.is_empty(), "{what}: idle server {server} is due");
            assert!(!is_waiting, "{what}: idle server {server} waits");
            continue;
        }
        if is_waiting {
            assert!(
                listed_at.is_empty(),
                "{what}: server {server} waits and is due"
            );
            let sw = sim.layout.server_switch(server);
            let slot = sim.slot(sw, sim.radix + sim.layout.server_offset(server), 0);
            assert_eq!(
                sim.in_free(slot),
                0,
                "{what}: server {server} waits with a credit"
            );
            waiting += 1;
            continue;
        }
        let head = sim.srv_q[server * sim.cap_src + sim.srv_head[server] as usize] as usize;
        let due = sim.srv_busy[server]
            .max(sim.pkt.created_at[head])
            .max(sim.cycle);
        assert_eq!(listed_at, &bucket(due, "server"), "{what}: server {server}");
    }
    if let GenerationMode::Batch { .. } = sim.generation {
        let with_quota: Vec<u32> = (0..sim.srv_quota.len() as u32)
            .filter(|&s| sim.srv_quota[s as usize] > 0)
            .collect();
        assert_eq!(
            sim.quota_left, with_quota,
            "{what}: servers with quota left"
        );
    }
    waiting
}

#[test]
fn wide_switches_keep_multi_word_masks_in_step() {
    // A 1-D HyperX of side 34 with 32 servers per switch: 65 ports and
    // 260 VC slots per switch, so the input occupancy mask spans several
    // 64-bit words (every 4x4 case fits in one). After a saturated run, a
    // mask bit must be set exactly where its buffer holds packets, and the
    // due lists must agree with the staging buffers and source queues.
    let view = Arc::new(NetworkView::healthy(HyperX::regular(1, 34), 0));
    let mut cfg = SimConfig::quick(32, 4);
    cfg.warmup_cycles = 60;
    cfg.measure_cycles = 120;
    cfg.seed = 8;
    cfg.rng_contract = RngContract::V2Counting;
    let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
    let mut sim = Simulator::new(
        view.clone(),
        MechanismSpec::OmniSP.build(view.clone(), 4),
        Box::new(UniformTraffic::new(&layout)),
        cfg,
    );
    assert_eq!(sim.num_ports, 65);
    assert!(sim.in_words > 1);
    let m = sim.run_rate(0.9);
    assert!(!m.stalled);
    assert!(m.delivered_packets > 0);
    assert!(
        sim.packets_in_switches() > 0,
        "a saturated run leaves packets buffered"
    );
    for slot in 0..sim.in_len.len() {
        let (word, bit) = sim.in_mask_bit(slot);
        assert_eq!(
            sim.in_mask[word] & bit != 0,
            sim.in_len[slot] > 0,
            "input slot {slot}"
        );
    }
    check_due_lists(&sim, "the wide switches");
}

/// `cfg` under Table 2 timing, and with 1-packet buffers, short packets
/// and no link latency, under which servers wait on credits.
fn due_list_timings(cfg: &SimConfig) -> [(&'static str, SimConfig); 2] {
    let tight = SimConfig {
        packet_length: 3,
        link_latency: 0,
        input_buffer_packets: 1,
        output_buffer_packets: 1,
        source_queue_packets: 1,
        ..cfg.clone()
    };
    [("Table 2", cfg.clone()), ("1-packet buffers", tight)]
}

#[test]
fn due_lists_hold_every_port_and_server_that_can_act_in_rate_runs() {
    let mut waited = 0;
    for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
        let mut cfg = SimConfig::quick(2, 4);
        (cfg.rng_contract, cfg.seed) = (contract, 6);
        (cfg.warmup_cycles, cfg.measure_cycles) = (100, 300);
        for (timing, cfg) in due_list_timings(&cfg) {
            let mut sim = build_sim(MechanismSpec::OmniSP, cfg);
            sim.generation = GenerationMode::Rate { offered_load: 0.8 };
            for cycle in 0..300 {
                sim.step();
                let what = format!("{contract} {timing}, cycle {cycle}");
                waited += check_due_lists(&sim, &what);
            }
            let m = sim.run_rate(0.8);
            assert!(!m.stalled, "{contract} {timing}");
            check_due_lists(&sim, &format!("{contract} {timing}, after the run"));
        }
    }
    assert!(waited > 0, "no server ever waited on a credit");
}

#[test]
fn due_lists_hold_every_port_and_server_that_can_act_in_batch_runs_and_drains() {
    let congested = congested_batch_sim(MechanismSpec::OmniSP).cfg;
    for (timing, cfg) in due_list_timings(&congested) {
        let sim = congested_batch_sim(MechanismSpec::OmniSP);
        let mut sim = Simulator::new(sim.view, sim.mechanism, sim.pattern, cfg);
        sim.begin_batch(CONGESTED_PACKETS);
        let expected = CONGESTED_PACKETS * sim.layout.num_servers() as u64;
        // Checks made while some servers still had quota left.
        let mut admitting = 0;
        while sim.total_delivered() < expected / 2 {
            sim.step();
            assert!(!sim.stalled(), "{timing}: stalled");
            if sim.cycle().is_multiple_of(7) {
                check_due_lists(&sim, &format!("{timing}, mid-batch cycle {}", sim.cycle()));
                admitting += usize::from(!sim.quota_left.is_empty());
            }
        }
        assert!(admitting > 0, "{timing}");
        assert!(sim.drain(100_000), "{timing}: did not drain");
        check_due_lists(&sim, &format!("{timing}, after the drain"));
    }
}

#[test]
fn a_v2_run_at_load_zero_admits_nothing() {
    // The sampled servers admit straight from the sample list: a list left
    // over from the last cycle at a non-zero load would admit again.
    let mut cfg = SimConfig::quick(2, 4);
    cfg.rng_contract = RngContract::V2Counting;
    let mut sim = build_sim(MechanismSpec::OmniSP, cfg);
    sim.generation = GenerationMode::Rate { offered_load: 0.9 };
    while sim.step.sampled.is_empty() {
        sim.step();
    }
    sim.generation = GenerationMode::Rate { offered_load: 0.0 };
    let generated = sim.total_generated();
    for _ in 0..200 {
        sim.step();
    }
    assert_eq!(sim.total_generated(), generated);
    assert_eq!(sim.packets_alive(), 0, "everything in flight was delivered");
    check_due_lists(&sim, "load 0");
}

/// The zero-perturbation contract of the observability layer: counters
/// and the tracer observe the engine without changing it, so metrics
/// bytes, generated/delivered totals and RNG draw order are identical
/// with the tracer installed or absent — across mechanisms, loads and
/// contracts.
mod obs_equivalence {
    use super::*;

    fn rate_bytes(traced: bool, contract: RngContract, load: f64) -> String {
        let mut cfg = SimConfig::quick(2, 4);
        cfg.warmup_cycles = 200;
        cfg.measure_cycles = 600;
        cfg.seed = 21;
        cfg.rng_contract = contract;
        let mut sim = build_sim(MechanismSpec::PolSP, cfg);
        if traced {
            sim.set_tracer(Some(PacketTracer::with_capacity(1 << 16)));
        }
        let metrics = sim.run_rate(load);
        format!(
            "{metrics:?}|gen={}|del={}",
            sim.total_generated(),
            sim.total_delivered()
        )
    }

    #[test]
    fn tracing_does_not_perturb_rate_metrics_or_rng() {
        for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
            for load in [0.1, 0.6] {
                let off = rate_bytes(false, contract, load);
                let on = rate_bytes(true, contract, load);
                assert_eq!(off, on, "tracer perturbed load {load} ({contract})");
            }
        }
    }

    #[test]
    fn tracing_does_not_perturb_batch_mode() {
        let mut results = Vec::new();
        for traced in [false, true] {
            let mut cfg = SimConfig::quick(2, 4);
            cfg.seed = 9;
            let mut sim = build_sim(MechanismSpec::OmniSP, cfg);
            if traced {
                sim.set_tracer(Some(PacketTracer::with_capacity(1 << 16)));
            }
            let metrics = sim.run_batch(4, 100);
            results.push(format!("{metrics:?}"));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn traced_run_yields_complete_lifecycles() {
        let mut cfg = SimConfig::quick(2, 4);
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 500;
        cfg.seed = 2;
        let mut sim = build_sim(MechanismSpec::OmniSP, cfg);
        sim.set_tracer(Some(PacketTracer::with_capacity(1 << 16)));
        let _ = sim.run_rate(0.3);
        let tracer = sim.take_tracer().expect("tracer was installed");
        assert_eq!(tracer.dropped(), 0);
        let events = tracer.events();
        assert!(!events.is_empty());
        // A delivered packet's lifecycle reads inject → … → deliver in
        // nondecreasing cycle order, with at least one grant and hop.
        let delivered = events
            .iter()
            .find(|e| e.kind == TraceEventKind::Deliver)
            .expect("something was delivered");
        let life: Vec<_> = events
            .iter()
            .filter(|e| e.packet == delivered.packet)
            .collect();
        assert_eq!(life.first().unwrap().kind, TraceEventKind::Inject);
        assert_eq!(life.last().unwrap().kind, TraceEventKind::Deliver);
        assert!(life.iter().any(|e| e.kind == TraceEventKind::Grant));
        assert!(life.iter().any(|e| e.kind == TraceEventKind::Hop));
        assert!(life.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn counters_populate_and_are_deterministic() {
        let run = || {
            let mut cfg = SimConfig::quick(2, 4);
            cfg.warmup_cycles = 100;
            cfg.measure_cycles = 600;
            cfg.seed = 4;
            cfg.rng_contract = RngContract::V2Counting;
            let mut sim = build_sim(MechanismSpec::PolSP, cfg);
            let _ = sim.run_rate(0.5);
            sim.obs().clone()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "counters must be a pure function of the run");
        assert!(a.get(Counter::AllocRequests) > 0);
        assert!(a.get(Counter::AllocGrants) > 0);
        assert!(a.get(Counter::CandCacheMisses) > 0);
        assert!(a.get(Counter::AllocSwitchVisits) > 0);
        assert!(a.get(Counter::BinomialDraws) > 0);
        assert!(
            a.get(Counter::AllocRequests)
                >= a.get(Counter::AllocGrants) + a.get(Counter::AllocConflicts),
            "every request is granted, denied, or superseded"
        );
    }
}

/// The v1↔v2 contract relationship: the two contracts produce different
/// byte streams by design, but the *distributions* must agree — same
/// per-cycle injector marginals, so the same accepted load, latency and
/// fairness up to sampling noise.
mod contract_equivalence {
    use super::*;

    fn run(contract: RngContract, seed: u64, load: f64) -> RateMetrics {
        let mut cfg = SimConfig::quick(2, 4);
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 3_000;
        cfg.seed = seed;
        cfg.rng_contract = contract;
        build_sim(MechanismSpec::OmniSP, cfg).run_rate(load)
    }

    fn seed_mean(contract: RngContract, load: f64, f: impl Fn(&RateMetrics) -> f64) -> f64 {
        let seeds = [3u64, 17, 2024];
        seeds
            .iter()
            .map(|&s| f(&run(contract, s, load)))
            .sum::<f64>()
            / seeds.len() as f64
    }

    #[test]
    fn accepted_load_agrees_across_contracts() {
        for load in [0.1, 0.3, 0.6] {
            let v1 = seed_mean(RngContract::V1PerServer, load, |m| m.accepted_load);
            let v2 = seed_mean(RngContract::V2Counting, load, |m| m.accepted_load);
            assert!(
                (v1 - v2).abs() < 0.02,
                "accepted load at {load}: v1 {v1} vs v2 {v2}"
            );
        }
    }

    #[test]
    fn latency_agrees_across_contracts() {
        for load in [0.1, 0.4] {
            let v1 = seed_mean(RngContract::V1PerServer, load, |m| m.average_latency);
            let v2 = seed_mean(RngContract::V2Counting, load, |m| m.average_latency);
            assert!(
                (v1 - v2).abs() < 0.1 * v1.max(v2),
                "average latency at {load}: v1 {v1} vs v2 {v2}"
            );
        }
    }

    /// The Jain-at-saturation regression pin: `generation_blocked`
    /// accounting must behave identically under the counting sampler —
    /// a sampled server with a full source queue loses the opportunity,
    /// so the fairness index of *generated* load dips below 1 the same
    /// way v1's blocked Bernoulli successes make it dip.
    #[test]
    fn jain_at_saturation_and_blocked_accounting_agree() {
        let v1 = seed_mean(RngContract::V1PerServer, 1.0, |m| m.jain_generated);
        let v2 = seed_mean(RngContract::V2Counting, 1.0, |m| m.jain_generated);
        assert!(
            (v1 - v2).abs() < 0.05,
            "Jain(generated) at saturation: v1 {v1} vs v2 {v2}"
        );
        // Both contracts must actually be losing opportunities at
        // saturation — otherwise the parity above is vacuous.
        for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
            let mut cfg = SimConfig::quick(2, 4);
            cfg.warmup_cycles = 500;
            cfg.measure_cycles = 3_000;
            cfg.seed = 3;
            cfg.rng_contract = contract;
            let mut sim = build_sim(MechanismSpec::OmniSP, cfg);
            let _ = sim.run_rate(1.0);
            assert!(
                sim.counters.generation_blocked > 0,
                "{contract}: no blocked generation at saturation"
            );
        }
    }

    /// v2 must not simply be v1 in disguise: at the same (config, seed)
    /// the byte streams differ.
    #[test]
    fn contracts_are_distinct_streams() {
        let v1 = run(RngContract::V1PerServer, 7, 0.5);
        let v2 = run(RngContract::V2Counting, 7, 0.5);
        assert_ne!(
            format!("{v1:?}"),
            format!("{v2:?}"),
            "v1 and v2 produced identical metrics bytes — the contract switch is dead"
        );
    }
}
