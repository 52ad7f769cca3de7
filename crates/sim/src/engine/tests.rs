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
    sim.server_live_dirty = true;
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

mod corpus;

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

#[test]
fn wide_switches_keep_multi_word_masks_in_step() {
    // A 1-D HyperX of side 34 with 32 servers per switch: 65 ports and
    // 260 VC slots per switch, so both occupancy masks span several 64-bit
    // words (every 4x4 case fits in one). After a saturated run, a mask bit
    // must be set exactly where its buffer holds packets.
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
    assert!(sim.in_words > 1 && sim.stg_words > 1);
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
    for flat in 0..sim.stg_len.len() {
        let (switch, port) = (flat / sim.num_ports, flat % sim.num_ports);
        let word = sim.stg_mask[switch * sim.stg_words + port / 64];
        assert_eq!(
            word & (1 << (port % 64)) != 0,
            sim.stg_len[flat] > 0,
            "port {flat}"
        );
    }
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
