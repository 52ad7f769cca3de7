//! Candidate generation for the opportunistic Up/Down escape subnetwork.
//!
//! [`hyperx_topology::UpDownEscape`] knows which hops reduce the Up/Down
//! distance; this module turns those hops into allocator [`Candidate`]s with
//! the penalties of Section 3.2 of the paper: Up links are penalized the most
//! (112 phits) to keep traffic away from the root, Down links slightly less
//! (96 phits), and opportunistic horizontal shortcuts least of all (80, 64 or
//! 48 phits depending on how much Up/Down distance they save).

use crate::candidate::{Candidate, CandidateKind, VcRange};
use crate::penalties::{escape_shortcut_penalty, ESCAPE_DOWN, ESCAPE_UP};
use crate::view::NetworkView;
use hyperx_topology::LinkClass;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which hops the escape subnetwork is allowed to offer.
///
/// The paper's escape subnetwork is the *opportunistic* one (Up/Down plus
/// shortcuts); the pure Up*/Down* variant (AutoNet \[31\] over the BFS levels,
/// no shortcuts) is what §3.2 argues against — "effectively replacing a
/// deadlock into the marginal throughput of a tree" — and is kept here as the
/// ablation baseline that quantifies the contribution of the shortcuts.
///
/// ```
/// use hyperx_routing::EscapePolicy;
///
/// assert_eq!(EscapePolicy::default(), EscapePolicy::Opportunistic);
/// assert_eq!(EscapePolicy::TreeOnly.name(), "tree-only");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EscapePolicy {
    /// Up/Down links plus opportunistic horizontal shortcuts (the paper's proposal).
    #[default]
    Opportunistic,
    /// Up/Down links only (classic Up*/Down* over the BFS levels).
    TreeOnly,
}

impl EscapePolicy {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            EscapePolicy::Opportunistic => "opportunistic",
            EscapePolicy::TreeOnly => "tree-only",
        }
    }
}

/// Escape-subnetwork candidate tables bound to a network view.
#[derive(Clone, Debug)]
pub struct EscapeTables {
    view: Arc<NetworkView>,
    escape_vc: usize,
    policy: EscapePolicy,
}

impl EscapeTables {
    /// Builds the escape tables with the paper's opportunistic policy. The
    /// network must be connected (otherwise no escape subnetwork exists and
    /// SurePath cannot guarantee delivery).
    ///
    /// `escape_vc` is the virtual channel reserved for the escape subnetwork.
    pub fn new(view: Arc<NetworkView>, escape_vc: usize) -> Self {
        Self::with_policy(view, escape_vc, EscapePolicy::Opportunistic)
    }

    /// Builds the escape tables with an explicit [`EscapePolicy`].
    pub fn with_policy(view: Arc<NetworkView>, escape_vc: usize, policy: EscapePolicy) -> Self {
        // Fail fast with a clear message instead of at the first packet.
        let _ = view.escape_required();
        EscapeTables {
            view,
            escape_vc,
            policy,
        }
    }

    /// The VC the escape subnetwork uses.
    pub fn escape_vc(&self) -> usize {
        self.escape_vc
    }

    /// The candidate policy in force.
    pub fn policy(&self) -> EscapePolicy {
        self.policy
    }

    /// The root switch of the escape subnetwork.
    pub fn root(&self) -> usize {
        self.view.escape_required().root()
    }

    /// Appends the escape candidates for a packet at `current` heading to `dest`.
    pub fn candidates(&self, current: usize, dest: usize, out: &mut Vec<Candidate>) {
        let escape = self.view.escape_required();
        for c in escape.escape_candidates(self.view.network(), current, dest) {
            let (penalty, kind) = match c.class {
                LinkClass::Up => (ESCAPE_UP, CandidateKind::EscapeUp),
                LinkClass::Down => (ESCAPE_DOWN, CandidateKind::EscapeDown),
                LinkClass::Horizontal => {
                    if self.policy == EscapePolicy::TreeOnly {
                        continue;
                    }
                    (
                        escape_shortcut_penalty(c.reduction),
                        CandidateKind::EscapeShortcut,
                    )
                }
            };
            out.push(Candidate {
                port: c.port,
                vcs: VcRange::exact(self.escape_vc),
                penalty,
                kind,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperx_topology::{FaultSet, FaultShape, HyperX};

    fn tables(side: usize, dims: usize, root: usize) -> EscapeTables {
        let view = Arc::new(NetworkView::healthy(HyperX::regular(dims, side), root));
        EscapeTables::new(view, 3)
    }

    #[test]
    fn all_candidates_use_the_escape_vc() {
        let t = tables(4, 2, 0);
        let mut out = Vec::new();
        t.candidates(1, 14, &mut out);
        assert!(!out.is_empty());
        for c in &out {
            assert_eq!(c.vcs, VcRange::exact(3));
            assert!(c.kind.is_escape());
        }
    }

    #[test]
    fn penalties_match_link_classes() {
        let view = Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0));
        let t = EscapeTables::new(view.clone(), 1);
        let hx = view.hyperx();
        // From (0,1) to (0,3): the direct red shortcut reduces the Up/Down
        // distance by 2, so it must appear with a 64-phit penalty. The Up hop
        // towards the root (0,0) also reduces the distance and carries 112.
        let a = hx.switch_id(&[0, 1]);
        let b = hx.switch_id(&[0, 3]);
        let mut out = Vec::new();
        t.candidates(a, b, &mut out);
        let direct_port = view.network().port_towards(a, b).unwrap();
        let direct = out.iter().find(|c| c.port == direct_port).unwrap();
        assert_eq!(direct.penalty, 64);
        assert_eq!(direct.kind, CandidateKind::EscapeShortcut);
        let root_port = view
            .network()
            .port_towards(a, hx.switch_id(&[0, 0]))
            .unwrap();
        let up = out.iter().find(|c| c.port == root_port).unwrap();
        assert_eq!(up.penalty, 112);
        assert_eq!(up.kind, CandidateKind::EscapeUp);
    }

    #[test]
    fn shortcuts_preferred_over_tree_links() {
        let t = tables(4, 2, 0);
        let mut out = Vec::new();
        t.candidates(5, 10, &mut out);
        let min_shortcut = out
            .iter()
            .filter(|c| c.kind == CandidateKind::EscapeShortcut)
            .map(|c| c.penalty)
            .min();
        let min_tree = out
            .iter()
            .filter(|c| c.kind != CandidateKind::EscapeShortcut)
            .map(|c| c.penalty)
            .min();
        if let (Some(s), Some(t_)) = (min_shortcut, min_tree) {
            assert!(s < t_);
        }
    }

    #[test]
    fn no_candidates_at_destination() {
        let t = tables(4, 2, 0);
        let mut out = Vec::new();
        t.candidates(7, 7, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn works_with_the_root_under_heavy_faults() {
        // Star-like fault pattern around the root: the escape still provides
        // candidates everywhere because the tables were rebuilt by BFS.
        let hx = HyperX::regular(3, 4);
        let root = hx.switch_id(&[0, 0, 0]);
        let shape = FaultShape::Cross {
            center: vec![0, 0, 0],
            margin: 1,
        };
        let faults = FaultSet::from_shape(&shape, &hx);
        let view = Arc::new(NetworkView::with_faults(hx, &faults, root));
        assert!(view.is_connected());
        let t = EscapeTables::new(view.clone(), 2);
        for cur in 0..view.hyperx().num_switches() {
            for dest in 0..view.hyperx().num_switches() {
                if cur == dest {
                    continue;
                }
                let mut out = Vec::new();
                t.candidates(cur, dest, &mut out);
                assert!(!out.is_empty(), "escape stuck at {cur} -> {dest}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn disconnected_network_rejected() {
        let hx = HyperX::regular(1, 3);
        let faults = FaultSet::from_links(hx.network().healthy_links());
        let view = Arc::new(NetworkView::with_faults(hx, &faults, 0));
        let _ = EscapeTables::new(view, 0);
    }

    #[test]
    fn tree_only_policy_never_offers_shortcuts_but_still_makes_progress() {
        let view = Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0));
        let tree = EscapeTables::with_policy(view.clone(), 1, EscapePolicy::TreeOnly);
        assert_eq!(tree.policy(), EscapePolicy::TreeOnly);
        for cur in 0..view.hyperx().num_switches() {
            for dest in 0..view.hyperx().num_switches() {
                if cur == dest {
                    continue;
                }
                let mut out = Vec::new();
                tree.candidates(cur, dest, &mut out);
                assert!(!out.is_empty(), "tree escape stuck at {cur} -> {dest}");
                assert!(out.iter().all(|c| c.kind != CandidateKind::EscapeShortcut));
            }
        }
    }

    #[test]
    fn opportunistic_policy_is_a_superset_of_tree_only() {
        let view = Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 5));
        let opp = EscapeTables::new(view.clone(), 1);
        assert_eq!(opp.policy(), EscapePolicy::Opportunistic);
        let tree = EscapeTables::with_policy(view.clone(), 1, EscapePolicy::TreeOnly);
        for cur in 0..view.hyperx().num_switches() {
            for dest in 0..view.hyperx().num_switches() {
                let mut full = Vec::new();
                opp.candidates(cur, dest, &mut full);
                let mut pruned = Vec::new();
                tree.candidates(cur, dest, &mut pruned);
                for c in &pruned {
                    assert!(full.contains(c));
                }
                assert_eq!(
                    full.iter()
                        .filter(|c| c.kind != CandidateKind::EscapeShortcut)
                        .count(),
                    pruned.len()
                );
            }
        }
    }

    #[test]
    fn escape_policy_names() {
        assert_eq!(EscapePolicy::Opportunistic.name(), "opportunistic");
        assert_eq!(EscapePolicy::TreeOnly.name(), "tree-only");
        assert_eq!(EscapePolicy::default(), EscapePolicy::Opportunistic);
    }
}
