//! Property-based tests of the routing algorithms and the SurePath mechanism.

mod common;

use hyperx_routing::dal::DalRouting;
use hyperx_routing::minimal::MinimalRouting;
use hyperx_routing::omnidimensional::OmnidimensionalRouting;
use hyperx_routing::polarized::PolarizedRouting;
use hyperx_routing::{
    Candidate, CandidateKind, MechanismSpec, NetworkView, RouteAlgorithm, VcRange,
};
use hyperx_topology::{FaultSet, HyperX};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn sides_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..=5, 2..=3).prop_filter("keep networks small", |sides| {
        sides.iter().product::<usize>() <= 80
    })
}

/// A connected, possibly faulty view over a random HyperX.
fn faulty_view(sides: &[usize], faults: usize, seed: u64) -> Arc<NetworkView> {
    let hx = HyperX::new(sides);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let fault_set = FaultSet::random_connected_sequence(hx.network(), faults, &mut rng);
    Arc::new(NetworkView::with_faults(hx, &fault_set, 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn minimal_candidates_always_reduce_distance(
        sides in sides_strategy(),
        faults in 0usize..15,
        seed in 0u64..500,
    ) {
        let view = faulty_view(&sides, faults, seed);
        let algo = MinimalRouting::new(view.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for src in 0..view.hyperx().num_switches() {
            for dst in 0..view.hyperx().num_switches() {
                if src == dst { continue; }
                let st = algo.init(src, dst, &mut rng);
                let mut out = Vec::new();
                algo.candidates(&st, src, VcRange::exact(0), &mut out);
                prop_assert!(!out.is_empty());
                for c in &out {
                    let nb = view.network().neighbor(src, c.port.into()).unwrap().switch;
                    prop_assert!(view.distance(nb, dst) < view.distance(src, dst));
                }
            }
        }
    }

    #[test]
    fn omnidimensional_never_moves_in_aligned_dimensions(
        sides in sides_strategy(),
        seed in 0u64..500,
    ) {
        let view = Arc::new(NetworkView::healthy(HyperX::new(&sides), 0));
        let algo = OmnidimensionalRouting::new(view.clone());
        let hx = view.hyperx();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = hx.num_switches();
        let src = (seed as usize * 7) % n;
        for dst in 0..n {
            if src == dst { continue; }
            let st = algo.init(src, dst, &mut rng);
            let mut out = Vec::new();
            algo.candidates(&st, src, VcRange::exact(0), &mut out);
            let src_c = hx.switch_coords(src);
            let dst_c = hx.switch_coords(dst);
            for c in &out {
                let dim = hx.port_meaning(src, c.port.into()).dim;
                prop_assert!(src_c[dim] != dst_c[dim], "moved in an aligned dimension");
            }
            // Exactly one minimal candidate per unaligned dimension in a healthy network.
            let unaligned = (0..hx.dims()).filter(|&d| src_c[d] != dst_c[d]).count();
            prop_assert_eq!(out.iter().filter(|c| c.kind == CandidateKind::Minimal).count(), unaligned);
        }
    }

    #[test]
    fn polarized_candidates_never_decrease_mu(
        sides in sides_strategy(),
        faults in 0usize..10,
        seed in 0u64..500,
    ) {
        let view = faulty_view(&sides, faults, seed);
        let algo = PolarizedRouting::new(view.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = view.hyperx().num_switches();
        let src = (seed as usize * 3) % n;
        let dst = (seed as usize * 11 + 1) % n;
        prop_assume!(src != dst);
        let st = algo.init(src, dst, &mut rng);
        // Check at the source and at every neighbour of the source (as a proxy
        // for "any reachable state with zero hops").
        let mut positions = vec![src];
        positions.extend(view.network().neighbors(src).map(|(_, nb)| nb.switch));
        for current in positions {
            if current == dst { continue; }
            let mu = |c: usize| view.distance(c, src) as i32 - view.distance(c, dst) as i32;
            let mut out = Vec::new();
            algo.candidates(&st, current, VcRange::exact(0), &mut out);
            for c in &out {
                let nb = view.network().neighbor(current, c.port.into()).unwrap().switch;
                prop_assert!(mu(nb) >= mu(current));
            }
        }
    }

    #[test]
    fn surepath_walks_always_terminate_under_faults(
        sides in sides_strategy(),
        faults in 0usize..20,
        seed in 0u64..500,
    ) {
        let view = faulty_view(&sides, faults, seed);
        prop_assert!(view.is_connected());
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let n = view.hyperx().num_switches();
        for spec in MechanismSpec::surepath_lineup() {
            let mech = spec.build(view.clone(), 4);
            // A handful of random pairs per case keeps runtime sensible.
            for k in 0..8usize {
                let src = (seed as usize + k * 13) % n;
                let dst = (seed as usize * 7 + k * 29 + 1) % n;
                if src == dst { continue; }
                let mut state = mech.init_packet(src, dst, &mut rng);
                let mut current = src;
                let mut hops = 0usize;
                while current != dst {
                    let mut cands: Vec<Candidate> = Vec::new();
                    mech.all_candidates_into(&state, current, &mut cands);
                    prop_assert!(!cands.is_empty(), "{} stuck at {} -> {}", spec, current, dst);
                    let best = cands
                        .iter()
                        .min_by_key(|c| {
                            let nb = view.network().neighbor(current, c.port.into()).unwrap().switch;
                            (c.penalty, view.distance(nb, dst), c.port)
                        })
                        .unwrap();
                    let next = view.network().neighbor(current, best.port.into()).unwrap().switch;
                    mech.note_hop(&mut state, current, next, best);
                    current = next;
                    hops += 1;
                    prop_assert!(hops <= 4 * n, "walk did not terminate");
                }
            }
        }
    }

    #[test]
    fn mechanism_candidates_respect_vc_budget_and_ports(
        sides in sides_strategy(),
        seed in 0u64..500,
    ) {
        let view = Arc::new(NetworkView::healthy(HyperX::new(&sides), 0));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = view.hyperx().num_switches();
        let src = (seed as usize) % n;
        let dst = (seed as usize * 5 + 1) % n;
        prop_assume!(src != dst);
        for spec in MechanismSpec::fault_free_lineup() {
            let mech = spec.build_default(view.clone());
            let state = mech.init_packet(src, dst, &mut rng);
            let mut cands = Vec::new();
            mech.all_candidates_into(&state, src, &mut cands);
            for c in &cands {
                prop_assert!(c.vcs.lo < c.vcs.hi);
                prop_assert!(usize::from(c.vcs.hi) <= mech.num_vcs());
                // Every offered port must be alive.
                prop_assert!(view.network().neighbor(src, c.port.into()).is_some());
                // Escape candidates only from SurePath mechanisms.
                if c.kind.is_escape() {
                    prop_assert!(spec.is_surepath());
                    prop_assert_eq!(usize::from(c.vcs.lo), mech.escape_vc().unwrap());
                }
            }
        }
    }

    #[test]
    fn dal_routes_stay_within_two_hops_per_dimension(
        sides in sides_strategy(),
        seed in 0u64..500,
    ) {
        // Healthy-network DAL walks: every route terminates, never exceeds 2n
        // hops, and never moves in a dimension that is already aligned and was
        // never derouted in.
        let view = Arc::new(NetworkView::healthy(HyperX::new(&sides), 0));
        let algo = DalRouting::new(view.clone());
        let hx = view.hyperx();
        let n = hx.num_switches();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for k in 0..6usize {
            let src = (seed as usize + 3 * k) % n;
            let dst = (seed as usize * 7 + 11 * k + 1) % n;
            if src == dst { continue; }
            let mut st = algo.init(src, dst, &mut rng);
            let mut current = src;
            let mut hops = 0usize;
            while current != dst {
                let mut out = Vec::new();
                algo.candidates(&st, current, VcRange::exact(0), &mut out);
                prop_assert!(!out.is_empty(), "DAL stuck at {} -> {}", current, dst);
                // Pick pseudo-randomly among candidates to exercise deroutes too.
                let pick = &out[(seed as usize + hops) % out.len()];
                let next = view.network().neighbor(current, pick.port.into()).unwrap().switch;
                algo.update(&mut st, current, next);
                current = next;
                hops += 1;
                prop_assert!(hops <= algo.max_route_hops(), "DAL route exceeded 2n hops");
            }
        }
    }

    #[test]
    fn tree_escape_candidates_are_a_subset_of_opportunistic_ones(
        sides in sides_strategy(),
        faults in 0usize..15,
        seed in 0u64..500,
    ) {
        let view = faulty_view(&sides, faults, seed);
        let n = view.hyperx().num_switches();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let full = MechanismSpec::PolSP.build(view.clone(), 4);
        let tree = MechanismSpec::PolSPTree.build(view.clone(), 4);
        let src = (seed as usize * 19) % n;
        let dst = (seed as usize * 29 + 1) % n;
        prop_assume!(src != dst);
        let mut state = full.init_packet(src, dst, &mut rng);
        state.in_escape = true;
        let mut full_cands = Vec::new();
        full.all_candidates_into(&state, src, &mut full_cands);
        let mut tree_cands = Vec::new();
        tree.all_candidates_into(&state, src, &mut tree_cands);
        prop_assert!(!tree_cands.is_empty(), "tree escape must always offer a hop");
        for c in &tree_cands {
            prop_assert!(c.kind != CandidateKind::EscapeShortcut);
            prop_assert!(full_cands.contains(c));
        }
        prop_assert_eq!(
            full_cands.iter().filter(|c| c.kind != CandidateKind::EscapeShortcut).count(),
            tree_cands.len()
        );
    }

    #[test]
    fn escape_candidates_never_cost_less_than_the_escape_floor(
        sides in sides_strategy(),
        faults in 0usize..15,
        seed in 0u64..500,
    ) {
        // The allocator skips a head's escape part while a routing candidate
        // scores at or below `escape_floor()`; that is exact only if no
        // escape candidate costs less, under either escape policy.
        let view = faulty_view(&sides, faults, seed);
        let n = view.hyperx().num_switches();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut routing = Vec::new();
        let mut escape = Vec::new();
        for spec in MechanismSpec::escape_ablation_lineup() {
            let mech = spec.build(view.clone(), 4);
            let floor = mech.escape_floor().expect("SurePath has an escape part");
            for current in 0..n {
                for dest in 0..n {
                    let state = mech.init_packet(current, dest, &mut rng);
                    routing.clear();
                    mech.candidates_into(&state, current, &mut routing);
                    prop_assert!(routing.iter().all(|c| !c.kind.is_escape()));
                    escape.clear();
                    mech.escape_into(&state, current, &mut escape);
                    for c in &escape {
                        prop_assert!(c.kind.is_escape());
                        prop_assert!(
                            c.penalty >= floor,
                            "{} offered {:?} below its floor {}", spec, c, floor
                        );
                    }
                }
            }
        }
        // Ladder mechanisms have no escape part at all.
        let ladder = MechanismSpec::Polarized.build(view.clone(), 4);
        prop_assert_eq!(ladder.escape_floor(), None);
        let state = ladder.init_packet(0, n - 1, &mut rng);
        escape.clear();
        ladder.escape_into(&state, 0, &mut escape);
        prop_assert!(escape.is_empty());
    }

    #[test]
    fn cheap_parts_are_the_routing_parts_below_the_deroute_floor(
        sides in sides_strategy(),
        faults in 0usize..15,
        seed in 0u64..500,
    ) {
        // The allocator scores a head's cheap part first and fills the
        // whole routing part only when the cheap best is missing or scores
        // at or above `deroute_floor()`. That is exact only if the cheap
        // part is the routing part's subsequence below the floor, in order,
        // so every candidate it leaves out costs at least the floor.
        let view = faulty_view(&sides, faults, seed);
        let n = view.hyperx().num_switches();
        let mut routing = Vec::new();
        let mut cheap = Vec::new();
        for spec in common::ALL_MECHANISMS {
            let mech = spec.build(view.clone(), spec.faulty_num_vcs(view.dims()));
            let floor = mech.deroute_floor();
            for name in common::STATES {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                // Every current switch, towards a few destinations each.
                for current in 0..n {
                    for dest in (0..4).map(|k| (current * 7 + k * 13 + seed as usize) % n) {
                        let state = common::state(name, &view, mech.as_ref(), current, dest, &mut rng);
                        routing.clear();
                        mech.candidates_into(&state, current, &mut routing);
                        cheap.clear();
                        mech.cheap_into(&state, current, &mut cheap);
                        let below = |c: &&Candidate| floor.is_none_or(|f| c.penalty < f);
                        let expected: Vec<Candidate> = routing.iter().filter(below).copied().collect();
                        prop_assert_eq!(
                            &cheap, &expected,
                            "{} {} at {} to {}", spec, name, current, dest
                        );
                        for left_out in routing.iter().filter(|c| !below(c)) {
                            prop_assert!(
                                floor.is_some_and(|f| left_out.penalty >= f),
                                "{} left out {:?} below its floor {:?}", spec, left_out, floor
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn escape_candidates_advertise_exact_reduction(
        sides in sides_strategy(),
        faults in 0usize..15,
        seed in 0u64..500,
    ) {
        let view = faulty_view(&sides, faults, seed);
        let escape = view.escape_required();
        let n = view.hyperx().num_switches();
        let mech = MechanismSpec::PolSP.build(view.clone(), 2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let src = (seed as usize * 17) % n;
        let dst = (seed as usize * 23 + 1) % n;
        prop_assume!(src != dst);
        let mut state = mech.init_packet(src, dst, &mut rng);
        state.in_escape = true;
        let mut cands = Vec::new();
        mech.all_candidates_into(&state, src, &mut cands);
        prop_assert!(!cands.is_empty());
        for c in &cands {
            prop_assert!(c.kind.is_escape());
            let nb = view.network().neighbor(src, c.port.into()).unwrap().switch;
            prop_assert!(escape.updown_distance(nb, dst) < escape.updown_distance(src, dst));
        }
    }
}
