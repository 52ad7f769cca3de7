//! Valiant load-balanced routing.
//!
//! Every packet first takes a shortest path to a uniformly random
//! *intermediate* switch and then a shortest path to its destination. This
//! turns any admissible traffic pattern into (roughly) uniform traffic at the
//! cost of doubling the average path length, which caps throughput around 0.5
//! on benign patterns — exactly the behaviour Figures 4 and 5 of the paper show.

use crate::candidate::{Candidate, PacketState, VcRange};
use crate::minimal::MinimalRouting;
use crate::view::NetworkView;
use crate::RouteAlgorithm;
use rand::RngCore;
use std::sync::Arc;

/// Two-phase Valiant routing with a uniformly random intermediate switch.
#[derive(Clone, Debug)]
pub struct ValiantRouting {
    view: Arc<NetworkView>,
}

impl ValiantRouting {
    /// Builds Valiant routing over the given network view.
    pub fn new(view: Arc<NetworkView>) -> Self {
        ValiantRouting { view }
    }
}

impl RouteAlgorithm for ValiantRouting {
    fn name(&self) -> &'static str {
        "Valiant"
    }

    fn init(&self, source: usize, dest: usize, rng: &mut dyn RngCore) -> PacketState {
        let n = self.view.hyperx().num_switches();
        let intermediate = (rng.next_u64() % n as u64) as usize;
        let mut st = PacketState::new(source, dest);
        st.intermediate = intermediate;
        // Degenerate intermediates (the source or the destination itself) skip
        // straight to phase 2.
        st.phase2 = intermediate == source || intermediate == dest;
        st
    }

    fn candidates(
        &self,
        state: &PacketState,
        current: usize,
        vcs: VcRange,
        out: &mut Vec<Candidate>,
    ) {
        let target = state.current_target();
        if current == target {
            // Phase-1 target reached but `update` not yet applied (can only
            // happen if the caller queries twice); nothing to offer towards it.
            if current == state.dest {
                return;
            }
            MinimalRouting::minimal_ports(&self.view, current, state.dest, vcs, out);
            return;
        }
        MinimalRouting::minimal_ports(&self.view, current, target, vcs, out);
    }

    fn update(&self, state: &mut PacketState, _current: usize, next: usize) {
        state.hops += 1;
        state.minimal_hops += 1;
        if !state.phase2 && next == state.intermediate {
            state.phase2 = true;
        }
    }

    fn max_route_hops(&self) -> usize {
        2 * self.view.diameter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperx_topology::HyperX;
    use rand::rngs::mock::StepRng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn view() -> Arc<NetworkView> {
        Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0))
    }

    #[test]
    fn phase1_targets_intermediate_then_destination() {
        let v = view();
        let algo = ValiantRouting::new(v.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let src = 0;
        let dst = 15;
        // Find a packet whose intermediate is distinct from both endpoints.
        let st = loop {
            let st = algo.init(src, dst, &mut rng);
            if st.intermediate != src && st.intermediate != dst {
                break st;
            }
        };
        assert!(!st.phase2);
        assert_eq!(st.current_target(), st.intermediate);
    }

    #[test]
    fn degenerate_intermediate_goes_straight_to_phase2() {
        let v = view();
        let algo = ValiantRouting::new(v);
        // StepRng with increment 0 always returns the same value, i.e. intermediate 0 = source.
        let mut rng = StepRng::new(0, 0);
        let st = algo.init(0, 9, &mut rng);
        assert!(st.phase2);
        assert_eq!(st.current_target(), 9);
    }

    #[test]
    fn full_walk_visits_intermediate_and_reaches_destination() {
        let v = view();
        let algo = ValiantRouting::new(v.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for dst in 1..v.hyperx().num_switches() {
            let mut st = algo.init(0, dst, &mut rng);
            let intermediate = st.intermediate;
            let mut current = 0usize;
            let mut visited_intermediate = current == intermediate;
            let mut hops = 0;
            while current != dst {
                let mut out = Vec::new();
                algo.candidates(&st, current, VcRange::exact(0), &mut out);
                assert!(!out.is_empty(), "valiant must always progress");
                let next = v
                    .network()
                    .neighbor(current, out[0].port.into())
                    .unwrap()
                    .switch;
                algo.update(&mut st, current, next);
                current = next;
                if current == intermediate {
                    visited_intermediate = true;
                }
                hops += 1;
                assert!(hops <= algo.max_route_hops());
            }
            if intermediate != dst {
                assert!(
                    visited_intermediate || intermediate == 0,
                    "route to {dst} skipped its intermediate {intermediate}"
                );
            }
        }
    }

    #[test]
    fn candidates_empty_at_destination() {
        let v = view();
        let algo = ValiantRouting::new(v);
        let mut rng = StepRng::new(3, 0);
        let st = algo.init(3, 3, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, 3, VcRange::exact(0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn max_route_hops_is_twice_diameter() {
        let v = view();
        let algo = ValiantRouting::new(v);
        assert_eq!(algo.max_route_hops(), 4);
    }
}
