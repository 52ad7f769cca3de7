//! Mechanism-level integration tests: walking packets through the candidate
//! graph across crates (topology + routing) without the full simulator, and
//! checking the structural claims of Table 4.

use hyperx_routing::{Candidate, MechanismSpec, NetworkView, RouteScratch, RoutingMechanism};
use hyperx_topology::{FaultSet, HyperX};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Walks a packet from `src` to `dst` greedily following the lowest-penalty
/// candidate (ties towards the destination). Returns the hop count, or `None`
/// if the mechanism got stuck.
fn walk(
    mechanism: &dyn RoutingMechanism,
    view: &NetworkView,
    src: usize,
    dst: usize,
    rng: &mut ChaCha8Rng,
    max_hops: usize,
) -> Option<usize> {
    let mut state = mechanism.init_packet(src, dst, rng);
    let mut current = src;
    let mut hops = 0usize;
    while current != dst {
        if hops > max_hops {
            return None;
        }
        let mut cands: Vec<Candidate> = Vec::new();
        mechanism.candidates_into(&state, current, &mut RouteScratch::default(), &mut cands);
        if cands.is_empty() {
            return None;
        }
        let best = cands
            .iter()
            .min_by_key(|c| {
                let nb = view.network().neighbor(current, c.port).unwrap().switch;
                (c.penalty, view.distance(nb, dst), c.port)
            })
            .unwrap();
        let next = view.network().neighbor(current, best.port).unwrap().switch;
        mechanism.note_hop(&mut state, current, next, best);
        current = next;
        hops += 1;
    }
    Some(hops)
}

#[test]
fn every_mechanism_routes_every_pair_in_a_healthy_network() {
    let view = Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0));
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for spec in MechanismSpec::fault_free_lineup() {
        let mechanism = spec.build_default(view.clone());
        for src in 0..view.hyperx().num_switches() {
            for dst in 0..view.hyperx().num_switches() {
                if src == dst {
                    continue;
                }
                let hops = walk(mechanism.as_ref(), &view, src, dst, &mut rng, 32);
                assert!(
                    hops.is_some(),
                    "{spec} got stuck routing {src} -> {dst} in a healthy network"
                );
            }
        }
    }
}

#[test]
fn surepath_routes_every_pair_under_heavy_faults_where_ladders_fail() {
    // Remove enough links that routes get longer than the Ladder supports;
    // SurePath must still deliver, the Ladder mechanisms may legitimately get stuck.
    let hx = HyperX::regular(2, 4);
    let mut frng = ChaCha8Rng::seed_from_u64(13);
    let faults = FaultSet::random_connected_sequence(hx.network(), 30, &mut frng);
    let view = Arc::new(NetworkView::with_faults(hx, &faults, 0));
    assert!(view.is_connected());
    let mut rng = ChaCha8Rng::seed_from_u64(2);

    for spec in MechanismSpec::surepath_lineup() {
        let mechanism = spec.build(view.clone(), 4);
        for src in 0..view.hyperx().num_switches() {
            for dst in 0..view.hyperx().num_switches() {
                if src == dst {
                    continue;
                }
                let hops = walk(mechanism.as_ref(), &view, src, dst, &mut rng, 64);
                assert!(
                    hops.is_some(),
                    "{spec} got stuck routing {src} -> {dst} under faults"
                );
            }
        }
    }

    // At least one pair breaks for DOR with this many missing links.
    let dor = MechanismSpec::Dor.build(view.clone(), 4);
    let mut dor_stuck = 0usize;
    for src in 0..view.hyperx().num_switches() {
        for dst in 0..view.hyperx().num_switches() {
            if src != dst && walk(dor.as_ref(), &view, src, dst, &mut rng, 64).is_none() {
                dor_stuck += 1;
            }
        }
    }
    assert!(
        dor_stuck > 0,
        "DOR should break for some pairs with 30 faults"
    );
}

#[test]
fn surepath_route_lengths_are_reasonable() {
    // Fault-free SurePath routes should stay within the base algorithm's
    // bound (n + m hops for Omnidimensional, 2·diameter for Polarized) since
    // the escape subnetwork is only a last resort.
    let view = Arc::new(NetworkView::healthy(HyperX::regular(3, 4), 0));
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mechanism = MechanismSpec::OmniSP.build(view.clone(), 6);
    let mut max_hops = 0usize;
    for src in (0..view.hyperx().num_switches()).step_by(7) {
        for dst in (0..view.hyperx().num_switches()).step_by(5) {
            if src == dst {
                continue;
            }
            let hops = walk(mechanism.as_ref(), &view, src, dst, &mut rng, 64).unwrap();
            max_hops = max_hops.max(hops);
        }
    }
    assert!(
        max_hops <= 6,
        "OmniSP used {max_hops} hops for an uncongested walk"
    );
}

#[test]
fn table4_vc_budgets_are_respected() {
    let view2 = Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0));
    let view3 = Arc::new(NetworkView::healthy(HyperX::regular(3, 4), 0));
    for (dims, view) in [(2usize, view2), (3usize, view3)] {
        for spec in MechanismSpec::fault_free_lineup() {
            let mech = spec.build_default(view.clone());
            assert_eq!(
                mech.num_vcs(),
                2 * dims,
                "{spec} should use 2n VCs in the fair comparison"
            );
            if spec.is_surepath() {
                assert_eq!(mech.escape_vc(), Some(2 * dims - 1));
            } else {
                assert_eq!(mech.escape_vc(), None);
            }
        }
    }
}

#[test]
fn candidate_vcs_never_exceed_the_mechanism_budget() {
    let view = Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0));
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for spec in MechanismSpec::fault_free_lineup() {
        let mech = spec.build_default(view.clone());
        let budget = mech.num_vcs();
        for src in 0..view.hyperx().num_switches() {
            let state = mech.init_packet(src, (src + 5) % view.hyperx().num_switches(), &mut rng);
            let mut cands = Vec::new();
            mech.candidates_into(&state, src, &mut RouteScratch::default(), &mut cands);
            for c in &cands {
                assert!(
                    c.vcs.hi <= budget,
                    "{spec} offered VC range {:?} beyond its {budget} VCs",
                    c.vcs
                );
            }
        }
    }
}

#[test]
fn escape_candidates_only_appear_for_surepath() {
    let view = Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for spec in MechanismSpec::fault_free_lineup() {
        let mech = spec.build_default(view.clone());
        let state = mech.init_packet(0, 15, &mut rng);
        let mut cands = Vec::new();
        mech.candidates_into(&state, 0, &mut RouteScratch::default(), &mut cands);
        let has_escape = cands.iter().any(|c| c.kind.is_escape());
        assert_eq!(
            has_escape,
            spec.is_surepath(),
            "{spec}: escape candidates presence mismatch"
        );
    }
}
