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
fn congested_batch_parts(
    spec: MechanismSpec,
    partitions: usize,
) -> (
    Arc<NetworkView>,
    Box<dyn RoutingMechanism>,
    Box<dyn TrafficPattern>,
    SimConfig,
) {
    let hx = HyperX::regular(3, 4);
    let center = vec![2, 2, 2];
    let root = hx.switch_id(&center);
    let faults = FaultSet::from_shape(&FaultShape::Cross { center, margin: 1 }, &hx);
    let view = Arc::new(NetworkView::with_faults(hx, &faults, root));
    let mut cfg = SimConfig::quick(4, 4);
    cfg.seed = 3;
    cfg.partitions = partitions;
    let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
    let mech = spec.build(view.clone(), cfg.num_vcs);
    let pattern = Box::new(RegularPermutationToNeighbour::new(layout));
    (view, mech, pattern, cfg)
}

/// Packets per server of the congested closed-loop case.
const CONGESTED_PACKETS: u64 = 12;

/// The determinism contract of the v5 layout refactor: the struct-of-arrays
/// engine must be **observably identical** to the frozen v4 per-switch-struct
/// engine — same RNG draw order, same metrics bytes, same counters, same
/// trace events — across mechanisms, loads, fault scenarios and seeds. These
/// tests run both engines on the same configuration and compare serialized
/// observables byte for byte.
mod layout_equivalence {
    use super::*;
    use crate::engine_v4::SimulatorV4;

    fn make_view(faults: usize) -> Arc<NetworkView> {
        let hx = HyperX::regular(2, 4);
        if faults == 0 {
            Arc::new(NetworkView::healthy(hx, 0))
        } else {
            let mut fault_rng = ChaCha8Rng::seed_from_u64(11);
            let fault_set = hyperx_topology::FaultSet::random_connected_sequence(
                hx.network(),
                faults,
                &mut fault_rng,
            );
            Arc::new(NetworkView::with_faults(hx, &fault_set, 0))
        }
    }

    fn build_v5(spec: MechanismSpec, cfg: SimConfig, faults: usize) -> Simulator {
        let view = make_view(faults);
        let mech = spec.build(view.clone(), cfg.num_vcs);
        let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
        let pattern = Box::new(UniformTraffic::new(&layout));
        Simulator::new(view, mech, pattern, cfg)
    }

    fn build_v4(spec: MechanismSpec, cfg: SimConfig, faults: usize) -> SimulatorV4 {
        let view = make_view(faults);
        let mech = spec.build(view.clone(), cfg.num_vcs);
        let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
        let pattern = Box::new(UniformTraffic::new(&layout));
        SimulatorV4::new(view, mech, pattern, cfg)
    }

    fn rate_bytes_both(
        spec: MechanismSpec,
        cfg: SimConfig,
        faults: usize,
        load: f64,
    ) -> (String, String) {
        let mut v5 = build_v5(spec, cfg.clone(), faults);
        let m5 = v5.run_rate(load);
        let a = format!(
            "{m5:?}|gen={}|del={}",
            v5.total_generated(),
            v5.total_delivered()
        );
        let mut v4 = build_v4(spec, cfg, faults);
        let m4 = v4.run_rate(load);
        let b = format!(
            "{m4:?}|gen={}|del={}",
            v4.total_generated(),
            v4.total_delivered()
        );
        (a, b)
    }

    #[test]
    fn rate_mode_identical_across_mechanisms_loads_and_contracts() {
        for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
            for spec in [
                MechanismSpec::Minimal,
                MechanismSpec::Valiant,
                MechanismSpec::OmniWAR,
                MechanismSpec::Polarized,
                MechanismSpec::OmniSP,
                MechanismSpec::PolSP,
                MechanismSpec::Dal,
                MechanismSpec::OmniSPTree,
                MechanismSpec::PolSPTree,
            ] {
                for load in [0.1, 0.5, 0.9] {
                    let mut cfg = SimConfig::quick(2, 4);
                    cfg.warmup_cycles = 200;
                    cfg.measure_cycles = 600;
                    cfg.seed = 42;
                    cfg.rng_contract = contract;
                    let (a, b) = rate_bytes_both(spec, cfg, 0, load);
                    assert_eq!(a, b, "{spec:?} at load {load} ({contract}) diverged");
                }
            }
        }
    }

    #[test]
    fn rate_mode_identical_under_faults_across_seeds_and_contracts() {
        for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
            for spec in [MechanismSpec::OmniSP, MechanismSpec::PolSP] {
                for seed in [1u64, 7, 99] {
                    let mut cfg = SimConfig::quick(2, 4);
                    cfg.warmup_cycles = 200;
                    cfg.measure_cycles = 600;
                    cfg.seed = seed;
                    cfg.rng_contract = contract;
                    let (a, b) = rate_bytes_both(spec, cfg, 4, 0.6);
                    assert_eq!(
                        a, b,
                        "{spec:?} seed {seed} ({contract}) diverged under faults"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_switches_whose_masks_span_several_words_identical() {
        // A 1-D HyperX of side 34 with 32 servers per switch: 65 ports and
        // 260 VC slots per switch, so both occupancy masks span several
        // 64-bit words (every 4x4 case fits in one).
        let view = Arc::new(NetworkView::healthy(HyperX::regular(1, 34), 0));
        let mut cfg = SimConfig::quick(32, 4);
        cfg.warmup_cycles = 60;
        cfg.measure_cycles = 120;
        cfg.seed = 8;
        cfg.rng_contract = RngContract::V2Counting;
        let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
        let mut v5 = Simulator::new(
            view.clone(),
            MechanismSpec::OmniSP.build(view.clone(), 4),
            Box::new(UniformTraffic::new(&layout)),
            cfg.clone(),
        );
        assert_eq!(v5.num_ports, 65);
        assert!(v5.in_words > 1 && v5.stg_words > 1);
        let m5 = v5.run_rate(0.9);
        let mut v4 = SimulatorV4::new(
            view.clone(),
            MechanismSpec::OmniSP.build(view.clone(), 4),
            Box::new(UniformTraffic::new(&layout)),
            cfg,
        );
        let m4 = v4.run_rate(0.9);
        assert!(m5.delivered_packets > 0);
        assert_eq!(
            format!(
                "{m5:?}|gen={}|del={}",
                v5.total_generated(),
                v5.total_delivered()
            ),
            format!(
                "{m4:?}|gen={}|del={}",
                v4.total_generated(),
                v4.total_delivered()
            ),
        );
        assert_eq!(v5.obs(), v4.obs(), "counters diverged on a wide switch");
    }

    #[test]
    fn batch_mode_and_drain_identical() {
        let mut cfg = SimConfig::quick(2, 4);
        cfg.seed = 5;
        let mut v5 = build_v5(MechanismSpec::PolSP, cfg.clone(), 2);
        let m5 = v5.run_batch(4, 100);
        let d5 = v5.drain(100_000);
        let a = format!(
            "{m5:?}|drained={d5}|in_switches={}",
            v5.packets_in_switches()
        );
        let mut v4 = build_v4(MechanismSpec::PolSP, cfg, 2);
        let m4 = v4.run_batch(4, 100);
        let d4 = v4.drain(100_000);
        let b = format!(
            "{m4:?}|drained={d4}|in_switches={}",
            v4.packets_in_switches()
        );
        assert_eq!(a, b);
    }

    #[test]
    fn congested_batch_mode_identical() {
        // Blocked heads: the cache hit path, the pop reset and escape
        // grants all run many times, and metrics, every counter and the
        // drain must still match v4.
        for spec in [MechanismSpec::OmniSP, MechanismSpec::PolSP] {
            let (view, mech, pattern, cfg) = congested_batch_parts(spec, 1);
            let mut v5 = Simulator::new(view, mech, pattern, cfg);
            let m5 = v5.run_batch(CONGESTED_PACKETS, 100);
            let obs5 = v5.obs().clone();
            let d5 = v5.drain(100_000);
            let (view, mech, pattern, cfg) = congested_batch_parts(spec, 1);
            let mut v4 = SimulatorV4::new(view, mech, pattern, cfg);
            let m4 = v4.run_batch(CONGESTED_PACKETS, 100);
            let obs4 = v4.obs().clone();
            let d4 = v4.drain(100_000);
            assert!(!m5.stalled && m5.delivered_packets == 64 * 4 * CONGESTED_PACKETS);
            assert!(
                obs5.get(Counter::CandCacheHits) > 0,
                "{spec:?}: no cache hits"
            );
            assert!(
                obs5.get(Counter::EscapeGrants) > 0,
                "{spec:?}: no escape grants"
            );
            assert_eq!(
                format!(
                    "{m5:?}|drained={d5}|in_switches={}",
                    v5.packets_in_switches()
                ),
                format!(
                    "{m4:?}|drained={d4}|in_switches={}",
                    v4.packets_in_switches()
                ),
                "{spec:?} diverged from v4"
            );
            assert_eq!(obs5, obs4, "{spec:?} counters diverged from v4");
        }
    }

    #[test]
    fn cycle_by_cycle_state_identical_at_low_load() {
        // Beyond end-of-run metrics: the per-cycle observable state
        // (alive, generated, delivered, buffered) must match at every
        // cycle, under both RNG contracts.
        for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
            let mut cfg = SimConfig::quick(2, 4);
            cfg.seed = 13;
            cfg.rng_contract = contract;
            let mut v5 = build_v5(MechanismSpec::OmniSP, cfg.clone(), 3);
            let mut v4 = build_v4(MechanismSpec::OmniSP, cfg, 3);
            v5.generation = GenerationMode::Rate { offered_load: 0.2 };
            v4.generation = GenerationMode::Rate { offered_load: 0.2 };
            for cycle in 0..2_000 {
                v5.step();
                v4.step();
                assert_eq!(
                    (
                        v5.packets_alive(),
                        v5.total_generated(),
                        v5.total_delivered(),
                        v5.packets_in_switches()
                    ),
                    (
                        v4.packets_alive(),
                        v4.total_generated(),
                        v4.total_delivered(),
                        v4.packets_in_switches()
                    ),
                    "state diverged at cycle {cycle} ({contract})"
                );
            }
        }
    }

    #[test]
    fn observability_counters_identical() {
        let mut cfg = SimConfig::quick(2, 4);
        cfg.warmup_cycles = 100;
        cfg.measure_cycles = 600;
        cfg.seed = 4;
        cfg.rng_contract = RngContract::V2Counting;
        // Valiant at saturation keeps network heads blocked across cycles,
        // so the cache hit path (not just the miss path) is exercised on
        // both engines.
        let mut v5 = build_v5(MechanismSpec::Valiant, cfg.clone(), 0);
        let _ = v5.run_rate(1.0);
        let mut v4 = build_v4(MechanismSpec::Valiant, cfg, 0);
        let _ = v4.run_rate(1.0);
        assert_eq!(
            v5.obs(),
            v4.obs(),
            "the layouts must agree on every counter, including cache hit/miss"
        );
        assert!(v5.obs().get(Counter::CandCacheHits) > 0);
    }

    #[test]
    fn trace_events_identical() {
        let mut cfg = SimConfig::quick(2, 4);
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 500;
        cfg.seed = 2;
        let mut v5 = build_v5(MechanismSpec::OmniSP, cfg.clone(), 0);
        v5.set_tracer(Some(PacketTracer::with_capacity(1 << 16)));
        let _ = v5.run_rate(0.3);
        let t5 = v5.take_tracer().unwrap();
        let mut v4 = build_v4(MechanismSpec::OmniSP, cfg, 0);
        v4.set_tracer(Some(PacketTracer::with_capacity(1 << 16)));
        let _ = v4.run_rate(0.3);
        let t4 = v4.take_tracer().unwrap();
        assert_eq!(t5.dropped(), t4.dropped());
        assert!(!t5.events().is_empty());
        assert_eq!(
            format!("{:?}", t5.events()),
            format!("{:?}", t4.events()),
            "trace streams diverged between layouts"
        );
    }
}

/// The partition-invariance contract: every observable — metrics bytes,
/// totals, counters, trace events — is byte-identical for every partition
/// count `P`, because RNG-drawing phases stay sequential and the parallel
/// phases merge in fixed global order. `P = 1` is the reference (itself
/// proven identical to v4 by `layout_equivalence`).
mod partition_invariance {
    use super::*;

    const PARTITIONS: [usize; 5] = [1, 2, 3, 4, 7];

    fn build_p(
        spec: MechanismSpec,
        mut cfg: SimConfig,
        faults: usize,
        partitions: usize,
    ) -> Simulator {
        cfg.partitions = partitions;
        let hx = HyperX::regular(2, 4);
        let view = if faults == 0 {
            Arc::new(NetworkView::healthy(hx, 0))
        } else {
            let mut fault_rng = ChaCha8Rng::seed_from_u64(11);
            let fault_set = hyperx_topology::FaultSet::random_connected_sequence(
                hx.network(),
                faults,
                &mut fault_rng,
            );
            Arc::new(NetworkView::with_faults(hx, &fault_set, 0))
        };
        let mech = spec.build(view.clone(), cfg.num_vcs);
        let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
        let pattern = Box::new(UniformTraffic::new(&layout));
        Simulator::new(view, mech, pattern, cfg)
    }

    #[test]
    fn rate_metrics_and_counters_invariant_across_partition_counts() {
        for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
            for (spec, faults, load) in [
                (MechanismSpec::OmniSP, 3, 0.6),
                (MechanismSpec::PolSP, 0, 0.9),
            ] {
                let mut cfg = SimConfig::quick(2, 4);
                cfg.warmup_cycles = 200;
                cfg.measure_cycles = 600;
                cfg.seed = 42;
                cfg.rng_contract = contract;
                let mut reference: Option<(String, CounterRegistry)> = None;
                for p in PARTITIONS {
                    let mut sim = build_p(spec, cfg.clone(), faults, p);
                    assert_eq!(sim.partitions(), p);
                    let m = sim.run_rate(load);
                    let bytes = format!(
                        "{m:?}|gen={}|del={}",
                        sim.total_generated(),
                        sim.total_delivered()
                    );
                    let obs = sim.obs().clone();
                    match &reference {
                        None => reference = Some((bytes, obs)),
                        Some((ref_bytes, ref_obs)) => {
                            assert_eq!(
                                &bytes, ref_bytes,
                                "{spec:?} ({contract}) diverged at P={p}"
                            );
                            assert_eq!(
                                &obs, ref_obs,
                                "{spec:?} ({contract}) counters diverged at P={p}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_mode_and_drain_invariant() {
        let mut reference: Option<String> = None;
        for p in PARTITIONS {
            let mut cfg = SimConfig::quick(2, 4);
            cfg.seed = 5;
            let mut sim = build_p(MechanismSpec::PolSP, cfg, 2, p);
            let m = sim.run_batch(4, 100);
            let drained = sim.drain(100_000);
            let bytes = format!(
                "{m:?}|drained={drained}|in_switches={}",
                sim.packets_in_switches()
            );
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(&bytes, r, "batch mode diverged at P={p}"),
            }
        }
    }

    #[test]
    fn congested_batch_mode_invariant() {
        // The parallel prefill under blocked heads: a prefilled entry must
        // count as a miss exactly once, and P = 2 must reproduce P = 1's
        // metrics, counters and drain.
        for spec in [MechanismSpec::OmniSP, MechanismSpec::PolSP] {
            let run = |partitions: usize| {
                let (view, mech, pattern, cfg) = congested_batch_parts(spec, partitions);
                let mut sim = Simulator::new(view, mech, pattern, cfg);
                assert_eq!(sim.partitions(), partitions);
                let m = sim.run_batch(CONGESTED_PACKETS, 100);
                let obs = sim.obs().clone();
                let drained = sim.drain(100_000);
                let bytes = format!(
                    "{m:?}|drained={drained}|in_switches={}",
                    sim.packets_in_switches()
                );
                (bytes, obs)
            };
            let (p1, obs1) = run(1);
            let (p2, obs2) = run(2);
            assert!(
                obs1.get(Counter::CandCacheHits) > 0,
                "{spec:?}: no cache hits"
            );
            assert_eq!(p1, p2, "{spec:?} diverged at P=2");
            assert_eq!(obs1, obs2, "{spec:?} counters diverged at P=2");
        }
    }

    #[test]
    fn trace_events_invariant() {
        let mut reference: Option<String> = None;
        for p in [1usize, 4] {
            let mut cfg = SimConfig::quick(2, 4);
            cfg.warmup_cycles = 0;
            cfg.measure_cycles = 500;
            cfg.seed = 2;
            let mut sim = build_p(MechanismSpec::OmniSP, cfg, 3, p);
            sim.set_tracer(Some(PacketTracer::with_capacity(1 << 16)));
            let _ = sim.run_rate(0.4);
            let tracer = sim.take_tracer().unwrap();
            assert!(!tracer.events().is_empty());
            let bytes = format!("dropped={}|{:?}", tracer.dropped(), tracer.events());
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(&bytes, r, "trace stream diverged at P={p}"),
            }
        }
    }

    #[test]
    fn wide_switches_invariant_across_partition_counts() {
        // The multi-word masks of the layout test above, stepped by two
        // partitions: the split transmit tasks and the parallel prefill
        // must reproduce P = 1 byte for byte.
        let view = Arc::new(NetworkView::healthy(HyperX::regular(1, 34), 0));
        let run = |partitions: usize| {
            let mut cfg = SimConfig::quick(32, 4);
            cfg.warmup_cycles = 60;
            cfg.measure_cycles = 120;
            cfg.seed = 8;
            cfg.rng_contract = RngContract::V2Counting;
            cfg.partitions = partitions;
            let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
            let mut sim = Simulator::new(
                view.clone(),
                MechanismSpec::OmniSP.build(view.clone(), 4),
                Box::new(UniformTraffic::new(&layout)),
                cfg,
            );
            assert_eq!(sim.partitions(), partitions);
            let m = sim.run_rate(0.9);
            let bytes = format!(
                "{m:?}|gen={}|del={}",
                sim.total_generated(),
                sim.total_delivered()
            );
            (bytes, sim.obs().clone())
        };
        let (p1, obs1) = run(1);
        let (p2, obs2) = run(2);
        assert_eq!(p1, p2, "wide switches diverged at P=2");
        assert_eq!(obs1, obs2, "wide-switch counters diverged at P=2");
    }

    #[test]
    fn partitions_clamp_to_switch_count() {
        // 16 switches: asking for more partitions than switches must clamp,
        // not panic or leave empty partitions behind.
        let cfg = SimConfig::quick(2, 4);
        let sim = build_p(MechanismSpec::Minimal, cfg, 0, 64);
        assert_eq!(sim.partitions(), 16);
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
