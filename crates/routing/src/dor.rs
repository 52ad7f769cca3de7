//! Dimension-Ordered Routing (DOR).
//!
//! DOR corrects unaligned dimensions in a fixed order, producing a unique
//! deterministic path per source/destination pair. The paper uses it only as
//! a motivating example of fragility: "DOR routing would leave switches
//! disconnected when just a single link is removed". The implementation keeps
//! that behaviour — when the required link is dead, there simply is no candidate.

use crate::candidate::{Candidate, CandidateKind, PacketState, VcRange};
use crate::penalties::SHORTEST_PATH;
use crate::view::{NetworkView, DEAD_PORT};
use crate::RouteAlgorithm;
use rand::RngCore;
use std::sync::Arc;

/// Deterministic dimension-ordered routing on HyperX.
#[derive(Clone, Debug)]
pub struct DimensionOrderedRouting {
    view: Arc<NetworkView>,
}

impl DimensionOrderedRouting {
    /// Builds DOR over the given network view.
    pub fn new(view: Arc<NetworkView>) -> Self {
        DimensionOrderedRouting { view }
    }
}

impl RouteAlgorithm for DimensionOrderedRouting {
    fn name(&self) -> &'static str {
        "DOR"
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
        let here = self.view.coord_row(current);
        let there = self.view.coord_row(state.dest);
        // Correct the lowest unaligned dimension; the single valid port is the
        // aligned one, offered only if its link is alive.
        let Some(d) = (0..here.len()).find(|&d| here[d] != there[d]) else {
            return;
        };
        let port = self
            .view
            .hyperx()
            .dim_port(d, here[d].into(), there[d].into());
        if self.view.neighbor_row(current)[port] != DEAD_PORT {
            out.push(Candidate {
                port: port as u16,
                penalty: SHORTEST_PATH,
                vcs,
                kind: CandidateKind::Minimal,
            });
        }
    }

    fn update(&self, state: &mut PacketState, _current: usize, _next: usize) {
        state.hops += 1;
        state.minimal_hops += 1;
    }

    fn max_route_hops(&self) -> usize {
        self.view.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperx_topology::HyperX;
    use rand::rngs::mock::StepRng;

    fn view() -> Arc<NetworkView> {
        Arc::new(NetworkView::healthy(HyperX::regular(3, 4), 0))
    }

    #[test]
    fn offers_exactly_one_candidate_fault_free() {
        let v = view();
        let algo = DimensionOrderedRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        for src in 0..v.hyperx().num_switches() {
            for dst in 0..v.hyperx().num_switches() {
                let st = algo.init(src, dst, &mut rng);
                let mut out = Vec::new();
                algo.candidates(&st, src, VcRange::exact(0), &mut out);
                if src == dst {
                    assert!(out.is_empty());
                } else {
                    assert_eq!(out.len(), 1, "DOR is deterministic");
                }
            }
        }
    }

    #[test]
    fn corrects_dimensions_in_order() {
        let v = view();
        let hx = v.hyperx();
        let algo = DimensionOrderedRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0, 0]);
        let dst = hx.switch_id(&[1, 2, 3]);
        let mut st = algo.init(src, dst, &mut rng);
        let mut current = src;
        let mut visited_dims = Vec::new();
        while current != dst {
            let mut out = Vec::new();
            algo.candidates(&st, current, VcRange::exact(0), &mut out);
            let port = usize::from(out[0].port);
            let meaning = hx.port_meaning(current, port);
            visited_dims.push(meaning.dim);
            current = v.network().neighbor(current, port).unwrap().switch;
            algo.update(&mut st, current, current);
        }
        assert_eq!(visited_dims, vec![0, 1, 2]);
    }

    #[test]
    fn single_fault_breaks_a_pair() {
        // The paper's motivation: a single link failure leaves DOR unable to
        // deliver the packets whose unique path used that link.
        let hx = HyperX::regular(2, 4);
        let a = hx.switch_id(&[0, 0]);
        let b = hx.switch_id(&[1, 0]);
        let faults =
            hyperx_topology::FaultSet::from_links(vec![hyperx_topology::LinkId::new(a, b)]);
        let v = Arc::new(NetworkView::with_faults(hx, &faults, 0));
        let algo = DimensionOrderedRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let st = algo.init(a, b, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, a, VcRange::exact(0), &mut out);
        assert!(
            out.is_empty(),
            "DOR has no alternative when its unique link dies"
        );
        // While the network itself is still connected.
        assert!(v.is_connected());
    }

    #[test]
    fn max_hops_is_dimension_count() {
        let v = view();
        let algo = DimensionOrderedRouting::new(v);
        assert_eq!(algo.max_route_hops(), 3);
    }
}
