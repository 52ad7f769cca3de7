//! Property-based tests of the routing algorithms and the SurePath mechanism.

use hyperx_routing::dal::DalRouting;
use hyperx_routing::minimal::MinimalRouting;
use hyperx_routing::omnidimensional::OmnidimensionalRouting;
use hyperx_routing::polarized::PolarizedRouting;
use hyperx_routing::{
    Candidate, CandidateKind, MechanismSpec, NetworkView, RouteAlgorithm, RouteScratch,
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
                algo.candidates(&st, src, &mut out);
                prop_assert!(!out.is_empty());
                for c in &out {
                    let nb = view.network().neighbor(src, c.port).unwrap().switch;
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
            algo.candidates(&st, src, &mut out);
            let src_c = hx.switch_coords(src);
            let dst_c = hx.switch_coords(dst);
            for c in &out {
                let dim = hx.port_meaning(src, c.port).dim;
                prop_assert!(src_c[dim] != dst_c[dim], "moved in an aligned dimension");
            }
            // Exactly one minimal candidate per unaligned dimension in a healthy network.
            let unaligned = (0..hx.dims()).filter(|&d| src_c[d] != dst_c[d]).count();
            prop_assert_eq!(out.iter().filter(|c| !c.deroute).count(), unaligned);
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
            algo.candidates(&st, current, &mut out);
            for c in &out {
                let nb = view.network().neighbor(current, c.port).unwrap().switch;
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
                    mech.candidates_into(&state, current, &mut RouteScratch::default(), &mut cands);
                    prop_assert!(!cands.is_empty(), "{} stuck at {} -> {}", spec, current, dst);
                    let best = cands
                        .iter()
                        .min_by_key(|c| {
                            let nb = view.network().neighbor(current, c.port).unwrap().switch;
                            (c.penalty, view.distance(nb, dst), c.port)
                        })
                        .unwrap();
                    let next = view.network().neighbor(current, best.port).unwrap().switch;
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
            mech.candidates_into(&state, src, &mut RouteScratch::default(), &mut cands);
            for c in &cands {
                prop_assert!(c.vcs.lo < c.vcs.hi);
                prop_assert!(c.vcs.hi <= mech.num_vcs());
                // Every offered port must be alive.
                prop_assert!(view.network().neighbor(src, c.port).is_some());
                // Escape candidates only from SurePath mechanisms.
                if c.kind.is_escape() {
                    prop_assert!(spec.is_surepath());
                    prop_assert_eq!(c.vcs.lo, mech.escape_vc().unwrap());
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
                algo.candidates(&st, current, &mut out);
                prop_assert!(!out.is_empty(), "DAL stuck at {} -> {}", current, dst);
                // Pick pseudo-randomly among candidates to exercise deroutes too.
                let pick = &out[(seed as usize + hops) % out.len()];
                let next = view.network().neighbor(current, pick.port).unwrap().switch;
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
        full.candidates_into(&state, src, &mut RouteScratch::default(), &mut full_cands);
        let mut tree_cands = Vec::new();
        tree.candidates_into(&state, src, &mut RouteScratch::default(), &mut tree_cands);
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
        mech.candidates_into(&state, src, &mut RouteScratch::default(), &mut cands);
        prop_assert!(!cands.is_empty());
        for c in &cands {
            prop_assert!(c.kind.is_escape());
            let nb = view.network().neighbor(src, c.port).unwrap().switch;
            prop_assert!(escape.updown_distance(nb, dst) < escape.updown_distance(src, dst));
        }
    }
}
