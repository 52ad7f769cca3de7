//! The SurePath routing mechanism (the paper's main contribution, §3).
//!
//! SurePath splits the virtual channels of every port into a routing set
//! `CRout` (all but the last VC) and an escape set `CEsc` (the last VC).
//! The transition rules are exactly the paper's:
//!
//! 1. A packet travelling on `CRout` may request any hop offered by the base
//!    routing algorithm, on any routing VC, with the algorithm's penalties.
//! 2. Every packet — on `CRout` **or** `CEsc` — may additionally request any
//!    valid escape hop on the escape VC, with the escape penalties. Packets
//!    that have entered the escape subnetwork never go back to `CRout`.
//!
//! When the routing algorithm has nothing to offer (a *forced hop*: deroutes
//! exhausted in front of a faulty link, a Ladder-less algorithm stuck, ...)
//! the escape candidates are the only ones left, so the packet still makes
//! progress as long as the network is connected. The escape subnetwork's
//! monotonically decreasing Up/Down distance provides deadlock freedom with a
//! single escape VC.
//!
//! Rule 1 is [`RoutingMechanism::candidates_into`] and rule 2 is
//! [`RoutingMechanism::escape_into`], whose candidates all cost at least
//! [`EscapeTables::floor`]: 48 phits with shortcuts, 96 without. The
//! simulator builds the escape part of a head's list only when no routing
//! candidate scored at or below that floor, since none of it could win
//! otherwise.

use crate::candidate::{Candidate, PacketState, VcRange};
use crate::updown_escape::{EscapePolicy, EscapeTables};
use crate::view::NetworkView;
use crate::{RouteAlgorithm, RoutingMechanism};
use rand::RngCore;
use std::sync::Arc;

/// SurePath: a base routing algorithm plus the opportunistic Up/Down escape subnetwork.
pub struct SurePathMechanism {
    algo: Box<dyn RouteAlgorithm>,
    escape: EscapeTables,
    display_name: String,
    num_vcs: usize,
    routing_vcs: VcRange,
}

impl SurePathMechanism {
    /// Builds SurePath over `algo` with `num_vcs` total VCs (at least 2: one
    /// routing VC and the escape VC).
    ///
    /// # Panics
    /// Panics if `num_vcs < 2` or if the network view is disconnected.
    pub fn new(
        algo: Box<dyn RouteAlgorithm>,
        display_name: impl Into<String>,
        view: Arc<NetworkView>,
        num_vcs: usize,
    ) -> Self {
        Self::with_escape_policy(
            algo,
            display_name,
            view,
            num_vcs,
            EscapePolicy::Opportunistic,
        )
    }

    /// Builds SurePath with an explicit [`EscapePolicy`] — the paper's
    /// opportunistic escape or the pure Up*/Down* tree used as an ablation
    /// baseline.
    ///
    /// # Panics
    /// Panics if `num_vcs < 2` or if the network view is disconnected.
    pub fn with_escape_policy(
        algo: Box<dyn RouteAlgorithm>,
        display_name: impl Into<String>,
        view: Arc<NetworkView>,
        num_vcs: usize,
        policy: EscapePolicy,
    ) -> Self {
        assert!(
            num_vcs >= 2,
            "SurePath needs at least 2 VCs (1 routing + 1 escape)"
        );
        let escape = EscapeTables::with_policy(view, num_vcs - 1, policy);
        SurePathMechanism {
            algo,
            escape,
            display_name: display_name.into(),
            num_vcs,
            routing_vcs: VcRange::span(0, num_vcs - 1),
        }
    }

    /// The VCs available to the base routing algorithm.
    pub fn routing_vcs(&self) -> VcRange {
        self.routing_vcs
    }

    /// The root of the escape subnetwork.
    pub fn escape_root(&self) -> usize {
        self.escape.root()
    }

    /// The escape policy in force.
    pub fn escape_policy(&self) -> EscapePolicy {
        self.escape.policy()
    }
}

impl RoutingMechanism for SurePathMechanism {
    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    fn escape_vc(&self) -> Option<usize> {
        Some(self.num_vcs - 1)
    }

    fn init_packet(&self, source: usize, dest: usize, rng: &mut dyn RngCore) -> PacketState {
        self.algo.init(source, dest, rng)
    }

    fn candidates_into(&self, state: &PacketState, current: usize, out: &mut Vec<Candidate>) {
        // Rule 1: only packets still on `CRout` get the routing algorithm's hops.
        if !state.in_escape {
            self.algo.candidates(state, current, self.routing_vcs, out);
        }
    }

    fn escape_into(&self, state: &PacketState, current: usize, out: &mut Vec<Candidate>) {
        // Rule 2: the escape subnetwork is always available (and is the only
        // option once the packet has entered it).
        self.escape.candidates(current, state.dest, out);
    }

    fn escape_floor(&self) -> Option<u16> {
        Some(self.escape.floor())
    }

    fn note_hop(&self, state: &mut PacketState, current: usize, next: usize, cand: &Candidate) {
        if cand.enters_escape() {
            state.in_escape = true;
            state.hops += 1;
        } else {
            debug_assert!(!state.in_escape, "escape packets cannot re-enter CRout");
            self.algo.update(state, current, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::MechanismSpec;
    use crate::omnidimensional::OmnidimensionalRouting;
    use hyperx_topology::{FaultSet, FaultShape, HyperX, LinkId};
    use rand::rngs::mock::StepRng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn healthy_view() -> Arc<NetworkView> {
        Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0))
    }

    #[test]
    fn rejects_single_vc() {
        let v = healthy_view();
        let algo = Box::new(OmnidimensionalRouting::new(v.clone()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SurePathMechanism::new(algo, "OmniSP", v, 1)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn offers_routing_and_escape_candidates() {
        let v = healthy_view();
        let mech = MechanismSpec::OmniSP.build(v.clone(), 4);
        let mut rng = StepRng::new(0, 1);
        let st = mech.init_packet(0, 15, &mut rng);
        let mut out = Vec::new();
        mech.all_candidates_into(&st, 0, &mut out);
        assert!(
            out.iter().any(|c| !c.kind.is_escape()),
            "routing candidates expected"
        );
        assert!(
            out.iter().any(|c| c.kind.is_escape()),
            "escape candidates expected"
        );
        // Routing candidates span the routing VCs, escape candidates pin VC 3.
        for c in &out {
            if c.kind.is_escape() {
                assert_eq!(c.vcs, VcRange::exact(3));
            } else {
                assert_eq!(c.vcs, VcRange::span(0, 3));
            }
        }
    }

    #[test]
    fn escape_packets_only_get_escape_candidates() {
        let v = healthy_view();
        let mech = MechanismSpec::PolSP.build(v.clone(), 4);
        let mut rng = StepRng::new(0, 1);
        let mut st = mech.init_packet(0, 15, &mut rng);
        st.in_escape = true;
        let mut out = Vec::new();
        mech.all_candidates_into(&st, 5, &mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|c| c.kind.is_escape()));
    }

    #[test]
    fn note_hop_marks_escape_entry_permanently() {
        let v = healthy_view();
        let mech = MechanismSpec::OmniSP.build(v.clone(), 4);
        let mut rng = StepRng::new(0, 1);
        let mut st = mech.init_packet(0, 15, &mut rng);
        let mut out = Vec::new();
        mech.all_candidates_into(&st, 0, &mut out);
        let esc = out.iter().find(|c| c.kind.is_escape()).unwrap();
        let next = v.network().neighbor(0, esc.port.into()).unwrap().switch;
        mech.note_hop(&mut st, 0, next, esc);
        assert!(st.in_escape);
        assert_eq!(st.hops, 1);
    }

    #[test]
    fn forced_hops_are_covered_by_escape() {
        // Exhaust Omnidimensional's deroutes in front of a dead aligned link:
        // the base algorithm is stuck, but SurePath still offers escape hops.
        let hx = HyperX::regular(2, 4);
        let src = hx.switch_id(&[0, 0]);
        let dst = hx.switch_id(&[1, 0]);
        let faults = FaultSet::from_links(vec![LinkId::new(src, dst)]);
        let v = Arc::new(NetworkView::with_faults(hx, &faults, 5));
        let mech = MechanismSpec::OmniSP.build(v.clone(), 4);
        let mut rng = StepRng::new(0, 1);
        let mut st = mech.init_packet(src, dst, &mut rng);
        st.deroutes = 2; // budget m = n = 2 consumed
        let mut out = Vec::new();
        mech.all_candidates_into(&st, src, &mut out);
        assert!(
            !out.is_empty(),
            "forced hop must fall back to the escape subnetwork"
        );
        assert!(out.iter().all(|c| c.kind.is_escape()));
    }

    #[test]
    fn escape_walk_always_reaches_destination_under_faults() {
        // Walk packets purely over the escape subnetwork (worst case) in a
        // heavily faulted network and check they always arrive within the
        // Up/Down distance bound.
        let hx = HyperX::regular(2, 4);
        let root = hx.switch_id(&[1, 1]);
        let shape = FaultShape::Cross {
            center: vec![1, 1],
            margin: 1,
        };
        let faults = FaultSet::from_shape(&shape, &hx);
        let v = Arc::new(NetworkView::with_faults(hx, &faults, root));
        assert!(v.is_connected());
        let mech = MechanismSpec::PolSP.build(v.clone(), 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for src in 0..v.hyperx().num_switches() {
            for dst in 0..v.hyperx().num_switches() {
                if src == dst {
                    continue;
                }
                let mut st = mech.init_packet(src, dst, &mut rng);
                st.in_escape = true;
                let mut current = src;
                let mut hops = 0;
                while current != dst {
                    let mut out = Vec::new();
                    mech.all_candidates_into(&st, current, &mut out);
                    assert!(!out.is_empty(), "escape stuck at {current} -> {dst}");
                    let best = out.iter().min_by_key(|c| (c.penalty, c.port)).unwrap();
                    let next = v
                        .network()
                        .neighbor(current, best.port.into())
                        .unwrap()
                        .switch;
                    mech.note_hop(&mut st, current, next, best);
                    current = next;
                    hops += 1;
                    assert!(
                        hops <= 2 * v.hyperx().num_switches(),
                        "escape walk does not terminate"
                    );
                }
            }
        }
    }

    #[test]
    fn metadata_is_consistent() {
        let v = healthy_view();
        let mech = SurePathMechanism::new(
            Box::new(OmnidimensionalRouting::new(v.clone())),
            "OmniSP",
            v,
            4,
        );
        assert_eq!(mech.name(), "OmniSP");
        assert_eq!(mech.num_vcs(), 4);
        assert_eq!(mech.escape_vc(), Some(3));
        assert_eq!(mech.routing_vcs(), VcRange::span(0, 3));
        assert_eq!(mech.escape_root(), 0);
    }
}
