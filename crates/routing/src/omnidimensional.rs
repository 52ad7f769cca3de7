//! Omnidimensional routing (the route set behind DAL and OmniWAR).
//!
//! At every hop a packet may only move along dimensions in which it is not
//! yet aligned with its destination. In each such dimension every neighbour
//! is a candidate: the aligned one is the *minimal* hop (penalty 0) and the
//! remaining ones are *deroutes* (penalty 64), limited globally to `m`
//! non-minimal hops per packet. The paper always uses `m = n` (the deroute
//! budget equals the number of dimensions, shared globally across dimensions).
//! The aligned hops are the cheap part
//! ([`RouteAlgorithm::cheap_candidates`]) below a 64-phit deroute floor.
//!
//! Note the deliberate restriction the paper leans on for the Regular
//! Permutation to Neighbour analysis: if source and destination share a row,
//! Omnidimensional never leaves that row, which caps its throughput at 0.5
//! under that pattern.

use crate::candidate::{Candidate, CandidateKind, PacketState, VcRange};
use crate::penalties::{OMNI_DEROUTE, OMNI_MINIMAL};
use crate::view::{NetworkView, DEAD_PORT};
use crate::RouteAlgorithm;
use rand::RngCore;
use std::sync::Arc;

/// Omnidimensional adaptive routing with a global deroute budget.
#[derive(Clone, Debug)]
pub struct OmnidimensionalRouting {
    view: Arc<NetworkView>,
    /// Maximum number of non-minimal hops per packet (`m` in the paper).
    deroute_limit: u16,
}

impl OmnidimensionalRouting {
    /// Builds Omnidimensional routing with the paper's default deroute budget `m = n`.
    pub fn new(view: Arc<NetworkView>) -> Self {
        let m = view.dims() as u16;
        Self::with_deroute_limit(view, m)
    }

    /// Builds Omnidimensional routing with an explicit deroute budget.
    pub fn with_deroute_limit(view: Arc<NetworkView>, deroute_limit: u16) -> Self {
        OmnidimensionalRouting {
            view,
            deroute_limit,
        }
    }

    /// The deroute budget `m`.
    pub fn deroute_limit(&self) -> u16 {
        self.deroute_limit
    }
}

impl RouteAlgorithm for OmnidimensionalRouting {
    fn name(&self) -> &'static str {
        "Omnidimensional"
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
        let deroutes_left = state.deroutes < self.deroute_limit;
        for (d, (&own, &target)) in self.view.coord_row(current).iter().zip(there).enumerate() {
            if own == target {
                continue;
            }
            let aligned = hx.dim_port(d, own.into(), target.into());
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
                } else if deroutes_left {
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

    /// The aligned port of each unaligned dimension, when live: one lookup
    /// per dimension, no port scan.
    fn cheap_candidates(
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
            if row[aligned] != DEAD_PORT {
                out.push(Candidate {
                    port: aligned as u16,
                    penalty: OMNI_MINIMAL,
                    vcs,
                    kind: CandidateKind::Minimal,
                });
            }
        }
    }

    fn deroute_floor(&self) -> Option<u16> {
        Some(OMNI_DEROUTE)
    }

    fn update(&self, state: &mut PacketState, current: usize, next: usize) {
        state.hops += 1;
        let to_dest = self.view.coord_row(state.dest);
        let hamming = |s: usize| {
            let row = self.view.coord_row(s);
            row.iter().zip(to_dest).filter(|(a, b)| a != b).count()
        };
        // A hop is minimal iff it reduced the Hamming distance to the destination.
        if hamming(next) < hamming(current) {
            state.minimal_hops += 1;
        } else {
            state.deroutes += 1;
        }
    }

    fn max_route_hops(&self) -> usize {
        self.view.dims() + self.deroute_limit as usize
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
    fn candidates_only_in_unaligned_dimensions() {
        let v = view(3, 4);
        let hx = v.hyperx();
        let algo = OmnidimensionalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0, 0]);
        let dst = hx.switch_id(&[2, 0, 3]);
        let st = algo.init(src, dst, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        // Two unaligned dimensions, each with (side − 1) = 3 candidates.
        assert_eq!(out.len(), 6);
        for c in &out {
            let dim = hx.port_meaning(src, c.port.into()).dim;
            assert!(dim == 0 || dim == 2, "never moves in an aligned dimension");
        }
        // Exactly one minimal candidate per unaligned dimension.
        assert_eq!(
            out.iter()
                .filter(|c| c.kind == CandidateKind::Minimal)
                .count(),
            2
        );
        assert!(out
            .iter()
            .filter(|c| c.kind == CandidateKind::Minimal)
            .all(|c| c.penalty == 0));
        assert!(out
            .iter()
            .filter(|c| c.kind == CandidateKind::Deroute)
            .all(|c| c.penalty == 64));
    }

    #[test]
    fn same_row_pairs_never_leave_the_row() {
        // Source and destination share every coordinate except dimension 1:
        // every candidate must stay in dimension 1.
        let v = view(3, 8);
        let hx = v.hyperx();
        let algo = OmnidimensionalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[3, 1, 5]);
        let dst = hx.switch_id(&[3, 6, 5]);
        let st = algo.init(src, dst, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        assert_eq!(out.len(), 7);
        assert!(out
            .iter()
            .all(|c| hx.port_meaning(src, c.port.into()).dim == 1));
    }

    #[test]
    fn deroute_budget_is_enforced() {
        let v = view(2, 4);
        let algo = OmnidimensionalRouting::new(v.clone());
        let hx = v.hyperx();
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0]);
        let dst = hx.switch_id(&[1, 1]);
        let mut st = algo.init(src, dst, &mut rng);
        st.deroutes = algo.deroute_limit();
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        assert!(!out.is_empty());
        assert!(
            out.iter().all(|c| c.kind == CandidateKind::Minimal),
            "budget exhausted: only minimal hops remain"
        );
    }

    #[test]
    fn update_counts_minimal_and_deroute_hops() {
        let v = view(2, 4);
        let hx = v.hyperx();
        let algo = OmnidimensionalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let src = hx.switch_id(&[0, 0]);
        let dst = hx.switch_id(&[3, 3]);
        let mut st = algo.init(src, dst, &mut rng);
        // A deroute in dimension 0 (to value 1, not the destination's 3).
        let deroute_next = hx.switch_id(&[1, 0]);
        algo.update(&mut st, src, deroute_next);
        assert_eq!(st.deroutes, 1);
        assert_eq!(st.minimal_hops, 0);
        // A minimal hop aligning dimension 0.
        let minimal_next = hx.switch_id(&[3, 0]);
        algo.update(&mut st, deroute_next, minimal_next);
        assert_eq!(st.deroutes, 1);
        assert_eq!(st.minimal_hops, 1);
        assert_eq!(st.hops, 2);
    }

    #[test]
    fn faulty_minimal_link_with_exhausted_budget_gives_no_candidates() {
        // The motivation of the paper (§2): with the deroute budget consumed
        // and the aligned link dead, Omnidimensional has nothing to offer and
        // must rely on an escape subnetwork.
        let hx = HyperX::regular(2, 4);
        let src = hx.switch_id(&[0, 0]);
        let dst = hx.switch_id(&[1, 0]);
        let faults = FaultSet::from_links(vec![LinkId::new(src, dst)]);
        let v = Arc::new(NetworkView::with_faults(hx, &faults, 0));
        let algo = OmnidimensionalRouting::new(v.clone());
        let mut rng = StepRng::new(0, 1);
        let mut st = algo.init(src, dst, &mut rng);
        st.deroutes = algo.deroute_limit();
        let mut out = Vec::new();
        algo.candidates(&st, src, VcRange::exact(0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn max_hops_is_dims_plus_budget() {
        let v = view(3, 4);
        let algo = OmnidimensionalRouting::new(v.clone());
        assert_eq!(algo.max_route_hops(), 6);
        let tight = OmnidimensionalRouting::with_deroute_limit(v, 1);
        assert_eq!(tight.max_route_hops(), 4);
    }

    #[test]
    fn candidates_empty_at_destination() {
        let v = view(2, 4);
        let algo = OmnidimensionalRouting::new(v);
        let mut rng = StepRng::new(0, 1);
        let st = algo.init(5, 5, &mut rng);
        let mut out = Vec::new();
        algo.candidates(&st, 5, VcRange::exact(0), &mut out);
        assert!(out.is_empty());
    }
}
