//! Minimal (shortest-path) routing over BFS tables.
//!
//! Minimal routing offers, at every switch, every alive port whose far
//! endpoint is strictly closer to the destination. It survives arbitrary
//! failures (the tables are recomputed by BFS) but cannot spread load over
//! non-minimal paths, which is why the paper uses it as the robust but
//! low-performance baseline.

use crate::candidate::{Candidate, CandidateKind, PacketState, VcRange};
use crate::penalties::SHORTEST_PATH;
use crate::view::NetworkView;
use crate::RouteAlgorithm;
use rand::RngCore;
use std::sync::Arc;

/// Fully adaptive shortest-path routing.
#[derive(Clone, Debug)]
pub struct MinimalRouting {
    view: Arc<NetworkView>,
}

impl MinimalRouting {
    /// Builds minimal routing tables over the given network view.
    pub fn new(view: Arc<NetworkView>) -> Self {
        MinimalRouting { view }
    }

    /// Appends every alive port of `current` that gets strictly closer to
    /// `target`, as a penalty-free minimal hop on `vcs`.
    pub(crate) fn minimal_ports(
        view: &NetworkView,
        current: usize,
        target: usize,
        vcs: VcRange,
        out: &mut Vec<Candidate>,
    ) {
        // Distances are symmetric, so row `target` holds every distance read here.
        let to_target = view.distances().row(target);
        let here = to_target.get(current);
        for (port, nb) in view.live_ports(current) {
            if to_target.get(nb) < here {
                out.push(Candidate {
                    port,
                    penalty: SHORTEST_PATH,
                    vcs,
                    kind: CandidateKind::Minimal,
                });
            }
        }
    }
}

impl RouteAlgorithm for MinimalRouting {
    fn name(&self) -> &'static str {
        "Minimal"
    }

    fn init(&self, source: usize, dest: usize, _rng: &mut dyn RngCore) -> PacketState {
        PacketState::new(source, dest)
    }

    fn candidates(
        &self,
        state: &PacketState,
        current: usize,
        vcs: VcRange,
        out: &mut Vec<Candidate>,
    ) {
        if current == state.dest {
            return;
        }
        Self::minimal_ports(&self.view, current, state.dest, vcs, out);
    }

    fn update(&self, state: &mut PacketState, _current: usize, _next: usize) {
        state.hops += 1;
        state.minimal_hops += 1;
    }

    fn max_route_hops(&self) -> usize {
        self.view.diameter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperx_topology::{FaultSet, HyperX};
    use rand::rngs::mock::StepRng;

    fn view(side: usize, dims: usize) -> Arc<NetworkView> {
        Arc::new(NetworkView::healthy(HyperX::regular(dims, side), 0))
    }

    #[test]
    fn candidates_always_reduce_distance() {
        let v = view(4, 2);
        let algo = MinimalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        for src in 0..v.hyperx().num_switches() {
            for dst in 0..v.hyperx().num_switches() {
                let st = algo.init(src, dst, &mut rng);
                let mut out = Vec::new();
                algo.candidates(&st, src, VcRange::exact(0), &mut out);
                if src == dst {
                    assert!(out.is_empty());
                    continue;
                }
                assert!(!out.is_empty());
                for c in &out {
                    let nb = v.network().neighbor(src, c.port.into()).unwrap();
                    assert!(v.distance(nb.switch, dst) < v.distance(src, dst));
                    assert!(c.kind == CandidateKind::Minimal);
                    assert_eq!(c.penalty, 0);
                }
            }
        }
    }

    #[test]
    fn candidate_count_in_healthy_hyperx() {
        // In a healthy HyperX at Hamming distance h from the destination there
        // are exactly h minimal ports (one aligned port per unaligned dimension).
        let v = view(4, 3);
        let algo = MinimalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let hx = v.hyperx();
        let src = hx.switch_id(&[0, 0, 0]);
        let dst = hx.switch_id(&[1, 2, 0]);
        let st = algo.init(src, dst, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn survives_faults_while_connected() {
        use rand::SeedableRng;
        let hx = HyperX::regular(2, 4);
        // Seeded like every other fault draw in the workspace: identical runs
        // must see identical fault sets (the campaign runner's resume
        // fingerprinting depends on this property holding everywhere).
        let mut rng_f = rand_chacha::ChaCha8Rng::seed_from_u64(0xFA17);
        let faults = FaultSet::random_connected_sequence(hx.network(), 10, &mut rng_f);
        let v = Arc::new(NetworkView::with_faults(hx, &faults, 0));
        let algo = MinimalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        for src in 0..v.hyperx().num_switches() {
            for dst in 0..v.hyperx().num_switches() {
                if src == dst {
                    continue;
                }
                let st = algo.init(src, dst, &mut rng);
                let mut out = Vec::new();
                algo.candidates(&st, src, VcRange::exact(0), &mut out);
                assert!(
                    !out.is_empty(),
                    "minimal routing must always progress in a connected network"
                );
            }
        }
    }

    #[test]
    fn walking_candidates_reaches_destination_within_distance() {
        let v = view(5, 2);
        let algo = MinimalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = 0;
        let dst = v.hyperx().num_switches() - 1;
        let mut st = algo.init(src, dst, &mut rng);
        let mut current = src;
        let mut hops = 0;
        while current != dst {
            let mut out = Vec::new();
            algo.candidates(&st, current, VcRange::exact(0), &mut out);
            let next = v
                .network()
                .neighbor(current, out[0].port.into())
                .unwrap()
                .switch;
            algo.update(&mut st, current, next);
            current = next;
            hops += 1;
            assert!(hops <= v.diameter());
        }
        assert_eq!(hops as u16, st.hops);
    }

    #[test]
    fn max_route_hops_is_diameter() {
        let v = view(8, 3);
        let algo = MinimalRouting::new(v);
        assert_eq!(algo.max_route_hops(), 3);
    }
}
