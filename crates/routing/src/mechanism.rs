//! Routing mechanisms: routing algorithm + virtual-channel management.
//!
//! This module provides the hop-count *Ladder* policy used by the baselines
//! of Table 4 (Minimal, Valiant, OmniWAR, Polarized) and the
//! [`MechanismSpec`] factory that builds every named configuration of the
//! paper, including the SurePath ones defined in [`crate::surepath`].

use crate::candidate::{Candidate, PacketState, VcRange};
use crate::dal::DalRouting;
use crate::dor::DimensionOrderedRouting;
use crate::minimal::MinimalRouting;
use crate::omnidimensional::OmnidimensionalRouting;
use crate::polarized::PolarizedRouting;
use crate::surepath::SurePathMechanism;
use crate::updown_escape::EscapePolicy;
use crate::valiant::ValiantRouting;
use crate::view::NetworkView;
use crate::{RouteAlgorithm, RoutingMechanism};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How many virtual channels the Ladder advances per hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LadderStep {
    /// Hop `h` may only use VC `h` (Valiant, OmniWAR, Polarized in Table 4).
    OnePerStep,
    /// Hop `h` may use VCs `2h` and `2h + 1` (Minimal in Table 4).
    TwoPerStep,
}

impl LadderStep {
    /// VCs usable at hop `h` given `num_vcs` available, or `None` when the
    /// ladder is exhausted (the packet has taken more hops than the ladder
    /// supports — the exact failure mode the paper attributes to Ladder VC
    /// management under faults).
    pub fn vcs_for_hop(&self, hop: u16, num_vcs: usize) -> Option<VcRange> {
        match self {
            LadderStep::OnePerStep => {
                let vc = hop as usize;
                (vc < num_vcs).then(|| VcRange::exact(vc))
            }
            LadderStep::TwoPerStep => {
                let lo = 2 * hop as usize;
                (lo + 1 < num_vcs).then(|| VcRange::span(lo, lo + 2))
            }
        }
    }
}

/// A routing mechanism whose deadlock avoidance is the hop-count Ladder:
/// packets climb one rung of virtual channels per switch-to-switch hop, so
/// the channel dependency graph is acyclic as long as routes are shorter than
/// the ladder.
pub struct LadderMechanism {
    algo: Box<dyn RouteAlgorithm>,
    display_name: String,
    num_vcs: usize,
    step: LadderStep,
}

impl LadderMechanism {
    /// Wraps a routing algorithm with a Ladder of `num_vcs` virtual channels.
    pub fn new(
        algo: Box<dyn RouteAlgorithm>,
        display_name: impl Into<String>,
        num_vcs: usize,
        step: LadderStep,
    ) -> Self {
        assert!(
            (1..=u8::MAX as usize).contains(&num_vcs),
            "a ladder needs 1 to 255 VCs"
        );
        LadderMechanism {
            algo,
            display_name: display_name.into(),
            num_vcs,
            step,
        }
    }

    /// The ladder step policy.
    pub fn step(&self) -> LadderStep {
        self.step
    }
}

impl RoutingMechanism for LadderMechanism {
    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    fn escape_vc(&self) -> Option<usize> {
        None
    }

    fn init_packet(&self, source: usize, dest: usize, rng: &mut dyn RngCore) -> PacketState {
        self.algo.init(source, dest, rng)
    }

    fn candidates_into(&self, state: &PacketState, current: usize, out: &mut Vec<Candidate>) {
        // An exhausted ladder can no longer move this packet.
        if let Some(vcs) = self.step.vcs_for_hop(state.hops, self.num_vcs) {
            self.algo.candidates(state, current, vcs, out);
        }
    }

    fn escape_into(&self, _state: &PacketState, _current: usize, _out: &mut Vec<Candidate>) {}

    fn escape_floor(&self) -> Option<u16> {
        None
    }

    fn note_hop(&self, state: &mut PacketState, current: usize, next: usize, _cand: &Candidate) {
        self.algo.update(state, current, next);
    }
}

/// The named routing-mechanism configurations evaluated in the paper (Table 4),
/// plus DOR which the paper discusses as a motivating fragile baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MechanismSpec {
    /// Shortest-path routing with a two-VCs-per-step Ladder.
    Minimal,
    /// Valiant load balancing with a one-VC-per-step Ladder.
    Valiant,
    /// Omnidimensional routes with a one-VC-per-step Ladder (the paper's OmniWAR configuration).
    OmniWAR,
    /// Polarized routes with a one-VC-per-step Ladder.
    Polarized,
    /// SurePath over Omnidimensional routes (OmniSP).
    OmniSP,
    /// SurePath over Polarized routes (PolSP).
    PolSP,
    /// Dimension-ordered routing (fragile; used in motivation experiments only).
    Dor,
    /// DAL, the routing originally proposed for HyperX (one deroute per
    /// dimension, Ladder deadlock avoidance); motivation baseline.
    Dal,
    /// Ablation: OmniSP with a pure Up*/Down* tree escape (no shortcuts).
    OmniSPTree,
    /// Ablation: PolSP with a pure Up*/Down* tree escape (no shortcuts).
    PolSPTree,
}

impl MechanismSpec {
    /// The six mechanisms compared in the fault-free evaluation (Figures 4 and 5).
    pub fn fault_free_lineup() -> [MechanismSpec; 6] {
        [
            MechanismSpec::Minimal,
            MechanismSpec::Valiant,
            MechanismSpec::OmniWAR,
            MechanismSpec::Polarized,
            MechanismSpec::OmniSP,
            MechanismSpec::PolSP,
        ]
    }

    /// The two SurePath configurations used in the fault experiments (Figures 6, 8, 9, 10).
    pub fn surepath_lineup() -> [MechanismSpec; 2] {
        [MechanismSpec::OmniSP, MechanismSpec::PolSP]
    }

    /// The escape-shortcut ablation lineup: each SurePath configuration next
    /// to its tree-only (no shortcuts) counterpart.
    pub fn escape_ablation_lineup() -> [MechanismSpec; 4] {
        [
            MechanismSpec::OmniSP,
            MechanismSpec::OmniSPTree,
            MechanismSpec::PolSP,
            MechanismSpec::PolSPTree,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            MechanismSpec::Minimal => "Minimal",
            MechanismSpec::Valiant => "Valiant",
            MechanismSpec::OmniWAR => "OmniWAR",
            MechanismSpec::Polarized => "Polarized",
            MechanismSpec::OmniSP => "OmniSP",
            MechanismSpec::PolSP => "PolSP",
            MechanismSpec::Dor => "DOR",
            MechanismSpec::Dal => "DAL",
            MechanismSpec::OmniSPTree => "OmniSP-tree",
            MechanismSpec::PolSPTree => "PolSP-tree",
        }
    }

    /// Whether the mechanism uses SurePath (and therefore tolerates faults).
    pub fn is_surepath(&self) -> bool {
        matches!(
            self,
            MechanismSpec::OmniSP
                | MechanismSpec::PolSP
                | MechanismSpec::OmniSPTree
                | MechanismSpec::PolSPTree
        )
    }

    /// Number of VCs the paper assigns to this mechanism on an `n`-dimensional
    /// HyperX for the fair fault-free comparison: `2n` for every mechanism.
    pub fn default_num_vcs(&self, dims: usize) -> usize {
        2 * dims
    }

    /// Number of VCs used in the fault experiments: SurePath runs with 4 VCs
    /// (3 routing + 1 escape) regardless of the dimension, non-SurePath
    /// mechanisms keep their fault-free requirement.
    pub fn faulty_num_vcs(&self, dims: usize) -> usize {
        if self.is_surepath() {
            4
        } else {
            self.default_num_vcs(dims)
        }
    }

    /// Builds the mechanism over the given network view with `num_vcs` VCs.
    pub fn build(&self, view: Arc<NetworkView>, num_vcs: usize) -> Box<dyn RoutingMechanism> {
        match self {
            MechanismSpec::Minimal => Box::new(LadderMechanism::new(
                Box::new(MinimalRouting::new(view)),
                "Minimal",
                num_vcs,
                LadderStep::TwoPerStep,
            )),
            MechanismSpec::Valiant => Box::new(LadderMechanism::new(
                Box::new(ValiantRouting::new(view)),
                "Valiant",
                num_vcs,
                LadderStep::OnePerStep,
            )),
            MechanismSpec::OmniWAR => Box::new(LadderMechanism::new(
                Box::new(OmnidimensionalRouting::new(view)),
                "OmniWAR",
                num_vcs,
                LadderStep::OnePerStep,
            )),
            MechanismSpec::Polarized => Box::new(LadderMechanism::new(
                Box::new(PolarizedRouting::new(view)),
                "Polarized",
                num_vcs,
                LadderStep::OnePerStep,
            )),
            MechanismSpec::OmniSP => Box::new(SurePathMechanism::new(
                Box::new(OmnidimensionalRouting::new(view.clone())),
                "OmniSP",
                view,
                num_vcs,
            )),
            MechanismSpec::PolSP => Box::new(SurePathMechanism::new(
                Box::new(PolarizedRouting::new(view.clone())),
                "PolSP",
                view,
                num_vcs,
            )),
            MechanismSpec::Dor => Box::new(LadderMechanism::new(
                Box::new(DimensionOrderedRouting::new(view)),
                "DOR",
                num_vcs,
                LadderStep::TwoPerStep,
            )),
            MechanismSpec::Dal => Box::new(LadderMechanism::new(
                Box::new(DalRouting::new(view)),
                "DAL",
                num_vcs,
                LadderStep::OnePerStep,
            )),
            MechanismSpec::OmniSPTree => Box::new(SurePathMechanism::with_escape_policy(
                Box::new(OmnidimensionalRouting::new(view.clone())),
                "OmniSP-tree",
                view,
                num_vcs,
                EscapePolicy::TreeOnly,
            )),
            MechanismSpec::PolSPTree => Box::new(SurePathMechanism::with_escape_policy(
                Box::new(PolarizedRouting::new(view.clone())),
                "PolSP-tree",
                view,
                num_vcs,
                EscapePolicy::TreeOnly,
            )),
        }
    }

    /// Builds the mechanism with the paper's default VC count for the view's dimension.
    pub fn build_default(&self, view: Arc<NetworkView>) -> Box<dyn RoutingMechanism> {
        let vcs = self.default_num_vcs(view.dims());
        self.build(view, vcs)
    }

    /// Parses a mechanism name as used on benchmark command lines.
    pub fn parse(name: &str) -> Option<MechanismSpec> {
        match name.to_ascii_lowercase().as_str() {
            "minimal" => Some(MechanismSpec::Minimal),
            "valiant" => Some(MechanismSpec::Valiant),
            "omniwar" => Some(MechanismSpec::OmniWAR),
            "polarized" => Some(MechanismSpec::Polarized),
            "omnisp" => Some(MechanismSpec::OmniSP),
            "polsp" => Some(MechanismSpec::PolSP),
            "dor" => Some(MechanismSpec::Dor),
            "dal" => Some(MechanismSpec::Dal),
            "omnisp-tree" | "omnisptree" => Some(MechanismSpec::OmniSPTree),
            "polsp-tree" | "polsptree" => Some(MechanismSpec::PolSPTree),
            _ => None,
        }
    }
}

impl std::fmt::Display for MechanismSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CandidateKind;
    use hyperx_topology::HyperX;
    use rand::rngs::mock::StepRng;

    fn view() -> Arc<NetworkView> {
        Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0))
    }

    #[test]
    fn ladder_step_vc_assignment() {
        assert_eq!(
            LadderStep::OnePerStep.vcs_for_hop(0, 4),
            Some(VcRange::exact(0))
        );
        assert_eq!(
            LadderStep::OnePerStep.vcs_for_hop(3, 4),
            Some(VcRange::exact(3))
        );
        assert_eq!(LadderStep::OnePerStep.vcs_for_hop(4, 4), None);
        assert_eq!(
            LadderStep::TwoPerStep.vcs_for_hop(0, 4),
            Some(VcRange::span(0, 2))
        );
        assert_eq!(
            LadderStep::TwoPerStep.vcs_for_hop(1, 4),
            Some(VcRange::span(2, 4))
        );
        assert_eq!(LadderStep::TwoPerStep.vcs_for_hop(2, 4), None);
    }

    #[test]
    fn ladder_mechanism_exhaustion_returns_no_candidates() {
        let v = view();
        let mech = MechanismSpec::Minimal.build(v, 4);
        let mut rng = StepRng::new(0, 1);
        let mut st = mech.init_packet(0, 15, &mut rng);
        st.hops = 2; // Minimal with 4 VCs supports 2 hops (two-per-step).
        let mut out = Vec::new();
        mech.all_candidates_into(&st, 5, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn every_spec_builds_and_reports_consistent_metadata() {
        let v = view();
        for spec in MechanismSpec::fault_free_lineup() {
            let mech = spec.build_default(v.clone());
            assert_eq!(mech.name(), spec.name());
            assert_eq!(mech.num_vcs(), spec.default_num_vcs(2));
            assert_eq!(mech.escape_vc().is_some(), spec.is_surepath());
        }
    }

    #[test]
    fn surepath_fault_vc_budget_is_four() {
        assert_eq!(MechanismSpec::OmniSP.faulty_num_vcs(3), 4);
        assert_eq!(MechanismSpec::PolSP.faulty_num_vcs(2), 4);
        assert_eq!(MechanismSpec::Polarized.faulty_num_vcs(3), 6);
    }

    #[test]
    fn ladder_candidates_carry_hop_vc() {
        let v = view();
        let mech = MechanismSpec::Valiant.build(v.clone(), 4);
        let mut rng = StepRng::new(7, 1);
        let mut st = mech.init_packet(0, 15, &mut rng);
        let mut out = Vec::new();
        mech.all_candidates_into(&st, 0, &mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|c| c.vcs == VcRange::exact(0)));
        // After one hop the VC advances.
        let cand = out[0];
        let next = v.network().neighbor(0, cand.port.into()).unwrap().switch;
        mech.note_hop(&mut st, 0, next, &cand);
        let mut out2 = Vec::new();
        mech.all_candidates_into(&st, next, &mut out2);
        assert!(out2.iter().all(|c| c.vcs == VcRange::exact(1)));
    }

    #[test]
    fn parse_round_trips_names() {
        for spec in [
            MechanismSpec::Minimal,
            MechanismSpec::Valiant,
            MechanismSpec::OmniWAR,
            MechanismSpec::Polarized,
            MechanismSpec::OmniSP,
            MechanismSpec::PolSP,
            MechanismSpec::Dor,
            MechanismSpec::Dal,
            MechanismSpec::OmniSPTree,
            MechanismSpec::PolSPTree,
        ] {
            assert_eq!(MechanismSpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(MechanismSpec::parse("nonsense"), None);
    }

    #[test]
    fn tree_ablation_variants_are_surepath_and_never_offer_shortcuts() {
        let v = view();
        for spec in [MechanismSpec::OmniSPTree, MechanismSpec::PolSPTree] {
            assert!(spec.is_surepath());
            let mech = spec.build(v.clone(), 4);
            assert_eq!(mech.escape_vc(), Some(3));
            let mut rng = StepRng::new(0, 1);
            let mut st = mech.init_packet(0, 15, &mut rng);
            st.in_escape = true;
            let mut out = Vec::new();
            mech.all_candidates_into(&st, 0, &mut out);
            assert!(!out.is_empty());
            assert!(out.iter().all(|c| c.kind != CandidateKind::EscapeShortcut));
        }
    }

    #[test]
    fn escape_ablation_lineup_pairs_each_variant_with_its_tree_twin() {
        let lineup = MechanismSpec::escape_ablation_lineup();
        assert_eq!(lineup.len(), 4);
        assert!(lineup.iter().all(|s| s.is_surepath()));
    }

    #[test]
    fn dal_builds_with_a_ladder_and_reports_its_name() {
        let v = view();
        let mech = MechanismSpec::Dal.build(v, 4);
        assert_eq!(mech.name(), "DAL");
        assert_eq!(mech.escape_vc(), None);
        assert_eq!(mech.num_vcs(), 4);
    }
}
