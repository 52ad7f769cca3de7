//! Polarized routing (Camarero, Martínez, Beivide — HOTI 2021 / IEEE Micro 2022).
//!
//! Polarized routes are built hop by hop so that the weight function
//! `µ_{s,t}(c) = d(c, s) − d(c, t)` never decreases. At each switch the
//! candidates are the neighbours with `Δµ ≥ 0`; candidates with `Δµ = 0` are
//! additionally filtered by whether the packet is still closer to its source
//! than to its destination (the paper's header bit), which breaks potential
//! cycles. Priorities follow Δµ: 2 → no penalty, 1 → 64 phits, 0 → 80 phits.
//!
//! Because the routes are computed from BFS distance tables, Polarized keeps
//! working after failures (the tables are simply recomputed), which is one of
//! the reasons the paper pairs it with SurePath.

use crate::candidate::{Candidate, CandidateKind, PacketState, VcRange};
use crate::penalties::polarized_penalty;
use crate::view::NetworkView;
use crate::RouteAlgorithm;
use rand::RngCore;
use std::sync::Arc;

/// Polarized adaptive routing over BFS distance tables.
#[derive(Clone, Debug)]
pub struct PolarizedRouting {
    view: Arc<NetworkView>,
    /// Hop count after which Δµ = 0 candidates stop being offered. This keeps
    /// worst-case route lengths bounded (the Polarized papers bound them by
    /// twice the diameter in HyperX); the escape subnetwork or the Ladder
    /// covers the residual cases.
    zero_gain_hop_limit: u16,
}

impl PolarizedRouting {
    /// Builds Polarized routing with the default zero-gain hop limit of
    /// `2 · diameter` hops.
    pub fn new(view: Arc<NetworkView>) -> Self {
        let diameter = if view.is_connected() {
            view.diameter()
        } else {
            view.dims()
        };
        let limit = (2 * diameter) as u16;
        Self::with_zero_gain_limit(view, limit)
    }

    /// Builds Polarized routing with an explicit zero-gain hop limit.
    pub fn with_zero_gain_limit(view: Arc<NetworkView>, zero_gain_hop_limit: u16) -> Self {
        PolarizedRouting {
            view,
            zero_gain_hop_limit,
        }
    }
}

impl RouteAlgorithm for PolarizedRouting {
    fn name(&self) -> &'static str {
        "Polarized"
    }

    fn init(&self, source: usize, dest: usize, _rng: &mut dyn RngCore) -> PacketState {
        let mut st = PacketState::new(source, dest);
        // At the source, d(c,s) = 0 ≤ d(c,t); the packet starts "closer to source".
        st.closer_to_source = source != dest;
        st
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
        // Distances are symmetric (links are bidirectional), so the rows of
        // the source and the destination hold every distance read here.
        let from_s = self.view.distances().row(state.source);
        let from_t = self.view.distances().row(state.dest);
        let ds_c = from_s[current] as i32;
        let dt_c = from_t[current] as i32;
        let allow_zero_gain = state.hops < self.zero_gain_hop_limit;
        for (port, nb) in self.view.live_ports(current) {
            let ds_n = from_s[nb] as i32;
            let dt_n = from_t[nb] as i32;
            let delta_s = ds_n - ds_c;
            let delta_t = dt_n - dt_c;
            let delta_mu = delta_s - delta_t;
            if delta_mu < 0 {
                continue;
            }
            if delta_mu == 0 {
                if !allow_zero_gain {
                    continue;
                }
                // Table 1 allows only (+1,+1) and (−1,−1) among the Δµ = 0
                // moves; the header bit decides which of the two is legal to
                // avoid cycles: while closer to the source only departing
                // moves are allowed, afterwards only approaching moves.
                let departs_both = delta_s == 1 && delta_t == 1;
                let approaches_both = delta_s == -1 && delta_t == -1;
                if !(departs_both || approaches_both) {
                    continue;
                }
                if state.closer_to_source && !departs_both {
                    continue;
                }
                if !state.closer_to_source && !approaches_both {
                    continue;
                }
            }
            out.push(Candidate {
                port,
                penalty: polarized_penalty(delta_mu as i8),
                vcs,
                kind: if dt_n >= dt_c {
                    CandidateKind::Deroute
                } else {
                    CandidateKind::Minimal
                },
            });
        }
    }

    fn update(&self, state: &mut PacketState, current: usize, next: usize) {
        state.hops += 1;
        let d = self.view.distances();
        if d.get(next, state.dest) < d.get(current, state.dest) {
            state.minimal_hops += 1;
        } else {
            state.deroutes += 1;
        }
        state.closer_to_source = d.get(next, state.source) < d.get(next, state.dest);
    }

    fn max_route_hops(&self) -> usize {
        if self.view.is_connected() {
            2 * self.view.diameter()
        } else {
            2 * self.view.dims()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperx_topology::{FaultSet, HyperX};
    use rand::rngs::mock::StepRng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn view(dims: usize, side: usize) -> Arc<NetworkView> {
        Arc::new(NetworkView::healthy(HyperX::regular(dims, side), 0))
    }

    fn mu(view: &NetworkView, s: usize, t: usize, c: usize) -> i32 {
        view.distance(c, s) as i32 - view.distance(c, t) as i32
    }

    #[test]
    fn candidates_never_decrease_mu() {
        let v = view(2, 4);
        let algo = PolarizedRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        for src in 0..v.hyperx().num_switches() {
            for dst in 0..v.hyperx().num_switches() {
                if src == dst {
                    continue;
                }
                let st = algo.init(src, dst, &mut rng);
                let mut out = Vec::new();
                algo.candidates(&st, src, VcRange::exact(0), &mut out);
                assert!(!out.is_empty(), "polarized offers something at the source");
                for c in &out {
                    let nb = v.network().neighbor(src, c.port.into()).unwrap().switch;
                    assert!(mu(&v, src, dst, nb) >= mu(&v, src, dst, src));
                }
            }
        }
    }

    #[test]
    fn direct_neighbor_gets_best_priority() {
        // One hop from the destination, the direct hop has Δµ = 2 (departs the
        // source, approaches the target) when source and destination are distinct rows.
        let v = view(2, 4);
        let hx = v.hyperx();
        let algo = PolarizedRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0]);
        let dst = hx.switch_id(&[1, 0]);
        let st = algo.init(src, dst, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        let direct_port = v.network().port_towards(src, dst).unwrap();
        let direct = out
            .iter()
            .find(|c| usize::from(c.port) == direct_port)
            .unwrap();
        assert_eq!(direct.penalty, 0);
    }

    #[test]
    fn includes_non_minimal_candidates() {
        // Polarized is the route set that can leave the source/destination row,
        // which is what lets it beat Omnidimensional under Regular Permutation
        // to Neighbour (paper §5).
        let v = view(3, 4);
        let hx = v.hyperx();
        let algo = PolarizedRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0, 0]);
        let dst = hx.switch_id(&[1, 0, 0]);
        let st = algo.init(src, dst, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        let out_of_row = out.iter().any(|c| {
            let dim = hx.port_meaning(src, c.port.into()).dim;
            dim != 0
        });
        assert!(
            out_of_row,
            "polarized must offer hops outside the shared row"
        );
    }

    #[test]
    fn routes_terminate_within_twice_diameter_following_best_candidate() {
        let v = view(3, 4);
        let algo = PolarizedRouting::new(v.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for dst in 1..v.hyperx().num_switches() {
            let mut st = algo.init(0, dst, &mut rng);
            let mut current = 0usize;
            let mut hops = 0usize;
            while current != dst {
                let mut out = Vec::new();
                algo.candidates(&st, current, VcRange::exact(0), &mut out);
                assert!(!out.is_empty(), "stuck at {current} heading to {dst}");
                // Follow the best (lowest penalty) candidate; break ties the way
                // an uncongested allocator would not care about, preferring
                // progress towards the destination.
                let best = out
                    .iter()
                    .min_by_key(|c| {
                        let nb = v.network().neighbor(current, c.port.into()).unwrap().switch;
                        (c.penalty, v.distance(nb, dst), c.port)
                    })
                    .unwrap();
                let next = v
                    .network()
                    .neighbor(current, best.port.into())
                    .unwrap()
                    .switch;
                algo.update(&mut st, current, next);
                current = next;
                hops += 1;
                assert!(
                    hops <= algo.max_route_hops() + v.diameter(),
                    "route to {dst} is too long"
                );
            }
        }
    }

    #[test]
    fn header_bit_tracks_relative_closeness() {
        let v = view(2, 4);
        let hx = v.hyperx();
        let algo = PolarizedRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0]);
        let dst = hx.switch_id(&[2, 2]);
        let mut st = algo.init(src, dst, &mut rng);
        assert!(st.closer_to_source);
        // Hop to (2,0): distance to source 1, to destination 1 → not closer to source.
        let mid = hx.switch_id(&[2, 0]);
        algo.update(&mut st, src, mid);
        assert!(!st.closer_to_source);
        // Hop to (2,2): at destination.
        algo.update(&mut st, mid, dst);
        assert!(!st.closer_to_source);
        assert_eq!(st.hops, 2);
        assert_eq!(st.minimal_hops, 2);
    }

    #[test]
    fn survives_faults_with_recomputed_tables() {
        let hx = HyperX::regular(2, 4);
        let mut frng = ChaCha8Rng::seed_from_u64(3);
        let faults = FaultSet::random_connected_sequence(hx.network(), 12, &mut frng);
        let v = Arc::new(NetworkView::with_faults(hx, &faults, 0));
        let algo = PolarizedRouting::new(v.clone());
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
                    "polarized should offer candidates at the source of a connected network"
                );
            }
        }
    }

    #[test]
    fn zero_gain_limit_restricts_candidates() {
        let v = view(2, 4);
        let hx = v.hyperx();
        let algo = PolarizedRouting::with_zero_gain_limit(v.clone(), 0);
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0]);
        let dst = hx.switch_id(&[1, 0]);
        let st = algo.init(src, dst, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        // With the zero-gain hops disabled only strictly-improving candidates remain.
        for c in &out {
            let nb = v.network().neighbor(src, c.port.into()).unwrap().switch;
            assert!(mu(&v, src, dst, nb) > mu(&v, src, dst, src));
        }
    }
}
