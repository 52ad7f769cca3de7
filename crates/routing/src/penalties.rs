//! The allocation penalties (in phits) given in Section 3 of the paper.
//!
//! The paper combines each candidate's penalty `P` with the occupancy `Q` of
//! the requested output and picks the lowest `Q + P`. The absolute values
//! below are quoted verbatim from the paper; it notes that "there are large
//! regions of similar performance, so the specific values have little
//! importance".
//!
//! Every penalty is a `u16`, the width [`crate::Candidate`] stores.

/// Omnidimensional routing: minimal (aligned) hop.
pub const OMNI_MINIMAL: u16 = 0;
/// Omnidimensional routing: deroute (non-minimal hop).
pub const OMNI_DEROUTE: u16 = 64;

/// Polarized routing: candidate with the best possible weight gain (Δµ = 2).
pub const POLARIZED_BEST: u16 = 0;
/// Polarized routing: candidate with Δµ one less than the best (Δµ = 1).
pub const POLARIZED_MID: u16 = 64;
/// Polarized routing: candidate with Δµ two less than the best (Δµ = 0).
pub const POLARIZED_LOW: u16 = 80;

/// Escape subnetwork: Up hop towards the root (most penalized, to avoid
/// congesting the root).
pub const ESCAPE_UP: u16 = 112;
/// Escape subnetwork: Down hop away from the root.
pub const ESCAPE_DOWN: u16 = 96;
/// Escape subnetwork: opportunistic shortcut reducing the Up/Down distance by 1.
pub const ESCAPE_SHORTCUT_1: u16 = 80;
/// Escape subnetwork: opportunistic shortcut reducing the Up/Down distance by 2.
pub const ESCAPE_SHORTCUT_2: u16 = 64;
/// Escape subnetwork: opportunistic shortcut reducing the Up/Down distance by 3 or more.
pub const ESCAPE_SHORTCUT_3: u16 = 48;

/// Minimal / Valiant / DOR hops carry no penalty.
pub const SHORTEST_PATH: u16 = 0;

/// Penalty of an opportunistic escape shortcut as a function of its Up/Down
/// distance reduction (paper §3.2: 80, 64 or 48 phits for reductions of 1, 2
/// and ≥ 3 respectively).
pub fn escape_shortcut_penalty(reduction: u16) -> u16 {
    match reduction {
        0 => unreachable!("a shortcut candidate always reduces the Up/Down distance"),
        1 => ESCAPE_SHORTCUT_1,
        2 => ESCAPE_SHORTCUT_2,
        _ => ESCAPE_SHORTCUT_3,
    }
}

/// Penalty of a Polarized candidate as a function of its weight gain Δµ ∈ {0, 1, 2}.
pub fn polarized_penalty(delta_mu: i8) -> u16 {
    match delta_mu {
        2 => POLARIZED_BEST,
        1 => POLARIZED_MID,
        0 => POLARIZED_LOW,
        _ => unreachable!("Polarized never offers candidates with negative Δµ"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortcut_penalties_match_paper() {
        assert_eq!(escape_shortcut_penalty(1), 80);
        assert_eq!(escape_shortcut_penalty(2), 64);
        assert_eq!(escape_shortcut_penalty(3), 48);
        assert_eq!(escape_shortcut_penalty(7), 48);
    }

    #[test]
    fn polarized_penalties_match_paper() {
        assert_eq!(polarized_penalty(2), 0);
        assert_eq!(polarized_penalty(1), 64);
        assert_eq!(polarized_penalty(0), 80);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the constant ordering
    fn escape_ordering_prefers_shortcuts_over_tree_links() {
        // The paper penalizes Up the most, then Down, then shortcuts by how
        // much they reduce the Up/Down distance.
        assert!(ESCAPE_UP > ESCAPE_DOWN);
        assert!(ESCAPE_DOWN > ESCAPE_SHORTCUT_1);
        assert!(ESCAPE_SHORTCUT_1 > ESCAPE_SHORTCUT_2);
        assert!(ESCAPE_SHORTCUT_2 > ESCAPE_SHORTCUT_3);
    }

    #[test]
    #[should_panic]
    fn zero_reduction_is_a_bug() {
        let _ = escape_shortcut_penalty(0);
    }
}
