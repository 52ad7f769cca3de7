//! DAL — Dimensionally-Adaptive, Load-balanced routing, the routing
//! originally proposed for HyperX networks (Ahn et al., SC'09, reference \[1\]
//! of the paper).
//!
//! DAL is an adaptive routing over the *aligned* dimensions of the packet,
//! like Omnidimensional, but with a per-dimension deroute discipline: in each
//! dimension whose coordinate still differs from the destination's the packet
//! may either take the minimal hop or deroute **once** to any other switch of
//! that dimension; after a deroute in a dimension the only remaining option
//! there is the minimal hop. The total route length is therefore bounded by
//! `2n` hops on an `n`-dimensional HyperX.
//!
//! The paper's §1 notes that DAL "only supports one fault in the network";
//! this implementation exists as a baseline to make that comparison concrete:
//! in front of a dead aligned link DAL can sidestep it only while the
//! dimension still has its deroute available, so a packet that already spent
//! it is stuck (and, unlike SurePath, has no escape subnetwork to fall back
//! to).

use crate::candidate::{Candidate, CandidateKind, PacketState, VcRange};
use crate::penalties::{OMNI_DEROUTE, OMNI_MINIMAL};
use crate::view::{NetworkView, DEAD_PORT};
use crate::RouteAlgorithm;
use rand::RngCore;
use std::sync::Arc;

/// DAL adaptive routing: one deroute allowed per unaligned dimension.
#[derive(Clone, Debug)]
pub struct DalRouting {
    view: Arc<NetworkView>,
}

impl DalRouting {
    /// Builds DAL routing over the given network view.
    pub fn new(view: Arc<NetworkView>) -> Self {
        assert!(
            view.dims() <= 8,
            "DAL tracks deroutes in an 8-bit mask; {}-dimensional networks are not supported",
            view.dims()
        );
        DalRouting { view }
    }
}

impl RouteAlgorithm for DalRouting {
    fn name(&self) -> &'static str {
        "DAL"
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
        let hx = self.view.hyperx();
        let row = self.view.neighbor_row(current);
        let there = self.view.coord_row(state.dest);
        for (d, (&own, &target)) in self.view.coord_row(current).iter().zip(there).enumerate() {
            if own == target {
                continue;
            }
            let aligned = hx.dim_port(d, own.into(), target.into());
            let may_deroute = state.derouted_dims & (1 << d) == 0;
            for port in hx.dimension_ports(d) {
                if row[port] == DEAD_PORT {
                    continue;
                }
                if port == aligned {
                    out.push(Candidate {
                        port: port as u16,
                        penalty: OMNI_MINIMAL,
                        vcs,
                        kind: CandidateKind::Minimal,
                    });
                } else if may_deroute {
                    out.push(Candidate {
                        port: port as u16,
                        penalty: OMNI_DEROUTE,
                        vcs,
                        kind: CandidateKind::Deroute,
                    });
                }
            }
        }
    }

    fn update(&self, state: &mut PacketState, current: usize, next: usize) {
        state.hops += 1;
        let (here, there) = (self.view.coord_row(current), self.view.coord_row(next));
        // Exactly one coordinate changes per switch-to-switch hop.
        let changed = (0..here.len())
            .find(|&d| here[d] != there[d])
            .expect("a hop always changes exactly one coordinate");
        if there[changed] == self.view.coord_row(state.dest)[changed] {
            state.minimal_hops += 1;
        } else {
            state.deroutes += 1;
            state.derouted_dims |= 1 << changed;
        }
    }

    fn max_route_hops(&self) -> usize {
        2 * self.view.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperx_topology::{FaultSet, HyperX, LinkId};
    use rand::rngs::mock::StepRng;

    fn view(dims: usize, side: usize) -> Arc<NetworkView> {
        Arc::new(NetworkView::healthy(HyperX::regular(dims, side), 0))
    }

    #[test]
    fn offers_minimal_and_deroutes_per_unaligned_dimension() {
        let v = view(2, 4);
        let hx = v.hyperx();
        let algo = DalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0]);
        let dst = hx.switch_id(&[3, 2]);
        let st = algo.init(src, dst, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        // Two unaligned dimensions × 3 neighbours each.
        assert_eq!(out.len(), 6);
        assert_eq!(
            out.iter()
                .filter(|c| c.kind == CandidateKind::Minimal)
                .count(),
            2
        );
        assert_eq!(
            out.iter()
                .filter(|c| c.kind == CandidateKind::Deroute)
                .count(),
            4
        );
    }

    #[test]
    fn deroute_is_per_dimension_not_global() {
        let v = view(2, 4);
        let hx = v.hyperx();
        let algo = DalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0]);
        let dst = hx.switch_id(&[3, 2]);
        let mut st = algo.init(src, dst, &mut rng);
        // Deroute in dimension 0 (to value 1 ≠ 3).
        let mid = hx.switch_id(&[1, 0]);
        algo.update(&mut st, src, mid);
        assert_eq!(st.deroutes, 1);
        assert_eq!(st.derouted_dims, 0b01);
        let mut out = Vec::new();
        algo.candidates(&st, mid, VcRange::exact(0), &mut out);
        // Dimension 0 now only offers its minimal hop; dimension 1 still
        // offers its minimal hop plus 3 deroutes.
        let dim0: Vec<_> = out
            .iter()
            .filter(|c| hx.port_meaning(mid, c.port.into()).dim == 0)
            .collect();
        let dim1: Vec<_> = out
            .iter()
            .filter(|c| hx.port_meaning(mid, c.port.into()).dim == 1)
            .collect();
        assert_eq!(dim0.len(), 1);
        assert_eq!(dim0[0].kind, CandidateKind::Minimal);
        assert_eq!(dim1.len(), 3);
        assert_eq!(
            dim1.iter()
                .filter(|c| c.kind == CandidateKind::Deroute)
                .count(),
            2
        );
    }

    #[test]
    fn aligned_dimensions_are_never_used() {
        let v = view(3, 4);
        let hx = v.hyperx();
        let algo = DalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[1, 2, 3]);
        let dst = hx.switch_id(&[1, 0, 3]);
        let st = algo.init(src, dst, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        assert!(!out.is_empty());
        assert!(out
            .iter()
            .all(|c| hx.port_meaning(src, c.port.into()).dim == 1));
    }

    #[test]
    fn stuck_after_deroute_when_aligned_link_is_dead() {
        // The paper's claim that DAL tolerates only limited faults: once the
        // dimension's deroute is spent and the aligned link is dead, DAL has
        // no candidate left in a same-row pair.
        let hx = HyperX::regular(1, 4);
        let src = 1usize;
        let dst = 3usize;
        let faults = FaultSet::from_links(vec![LinkId::new(src, dst)]);
        let v = Arc::new(NetworkView::with_faults(hx, &faults, 0));
        let algo = DalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let mut st = algo.init(src, dst, &mut rng);
        // First hop: the aligned link is dead, so only deroutes are offered.
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|c| c.kind == CandidateKind::Deroute));
        // Take the deroute to switch 0, then fault the (0,3) link too: the
        // dimension's deroute is spent and the aligned hop is gone → stuck.
        algo.update(&mut st, src, 0);
        let faults2 = FaultSet::from_links(vec![LinkId::new(1, 3), LinkId::new(0, 3)]);
        let v2 = Arc::new(NetworkView::with_faults(HyperX::regular(1, 4), &faults2, 0));
        let algo2 = DalRouting::new(v2);
        let mut out2 = Vec::new();
        algo2.candidates(&st, 0, VcRange::exact(0), &mut out2);
        assert!(
            out2.is_empty(),
            "DAL is stuck once its per-dimension deroute is spent"
        );
    }

    #[test]
    fn route_length_bounded_by_two_hops_per_dimension() {
        let v = view(3, 4);
        let algo = DalRouting::new(v.clone());
        assert_eq!(algo.max_route_hops(), 6);
        // Greedy walk always terminates within the bound on the healthy network.
        let hx = v.hyperx();
        let mut rng = StepRng::new(0, 1);
        for (src, dst) in [(0usize, 63usize), (5, 58), (7, 56)] {
            let mut st = algo.init(src, dst, &mut rng);
            let mut current = src;
            let mut hops = 0;
            while current != dst {
                let mut out = Vec::new();
                algo.candidates(&st, current, VcRange::exact(0), &mut out);
                assert!(!out.is_empty());
                // Prefer minimal candidates (penalty 0), mimicking a quiet network.
                let best = out.iter().min_by_key(|c| (c.penalty, c.port)).unwrap();
                let next = v
                    .network()
                    .neighbor(current, best.port.into())
                    .unwrap()
                    .switch;
                algo.update(&mut st, current, next);
                current = next;
                hops += 1;
                assert!(hops <= algo.max_route_hops());
            }
            let _ = hx;
        }
    }

    #[test]
    fn candidates_empty_at_destination() {
        let v = view(2, 4);
        let algo = DalRouting::new(v);
        let mut rng = StepRng::new(0, 1);
        let st = algo.init(9, 9, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, 9, VcRange::exact(0), &mut out);
        assert!(out.is_empty());
    }
}
