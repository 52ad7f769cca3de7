//! Dimension Complement Reverse (DCR) traffic.
//!
//! Introduced for 3D HyperX by the OmniWAR paper: servers at switch
//! `(x, y, z)` send to servers at switch `(z̄, ȳ, x̄)` where `x̄ = k − 1 − x`.
//! This is the adversarial pattern for which Valiant's bound of 0.5 is the
//! best achievable throughput.
//!
//! The SurePath paper adapts it to 2D HyperX by treating the server offset as
//! an extra coordinate: server `(w, x, y)` sends to server `(ȳ, x̄, w̄)`,
//! i.e. the destination switch is `(x̄, w̄)` and the destination offset is `ȳ`.
//! This needs the concentration to equal the side of the network, which is
//! exactly the paper's 2D configuration (16 servers per switch, side 16).

use super::{ServerLayout, TrafficPattern};
use rand::RngCore;

/// Dimension Complement Reverse traffic for 2D and 3D HyperX networks.
#[derive(Clone, Debug)]
pub struct DimensionComplementReverse {
    layout: ServerLayout,
}

impl DimensionComplementReverse {
    /// Why the pattern cannot run on a HyperX with these `sides` and
    /// `concentration` servers per switch, if it cannot:
    /// * regular sides are required (all dimensions the same side), as in the paper;
    /// * only 2D and 3D networks are supported;
    /// * 2D networks require `concentration == side` (the server coordinate
    ///   acts as the third reversed dimension).
    pub fn check(sides: &[usize], concentration: usize) -> Result<(), String> {
        let side = sides[0];
        if sides.iter().any(|&k| k != side) {
            return Err(format!(
                "DCR requires a regular HyperX (all sides equal), got sides {sides:?}"
            ));
        }
        if !(2..=3).contains(&sides.len()) {
            return Err(format!(
                "DCR is defined for 2D and 3D HyperX networks, got {} dimension(s)",
                sides.len()
            ));
        }
        if sides.len() == 2 && concentration != side {
            return Err(format!(
                "the 2D DCR variant uses the server offset as a third coordinate, \
                 so the concentration must equal the side {side}, got {concentration}"
            ));
        }
        Ok(())
    }

    /// Builds the pattern.
    ///
    /// # Panics
    /// Panics where [`DimensionComplementReverse::check`] fails.
    pub fn new(layout: ServerLayout) -> Self {
        if let Err(e) = Self::check(layout.coords().sides(), layout.concentration()) {
            panic!("{e}");
        }
        DimensionComplementReverse { layout }
    }
}

impl TrafficPattern for DimensionComplementReverse {
    fn name(&self) -> &'static str {
        "Dimension Complement Reverse"
    }

    fn destination(&self, src_server: usize, _rng: &mut dyn RngCore) -> usize {
        let l = &self.layout;
        let cs = l.coords();
        let k = cs.side(0);
        let comp = |v: usize| k - 1 - v;
        let switch = l.server_switch(src_server);
        let offset = l.server_offset(src_server);
        let c = cs.to_coords(switch);
        match cs.dims() {
            3 => {
                // (x, y, z) → (z̄, ȳ, x̄); the server offset is preserved.
                let dst_switch = cs.to_id(&[comp(c[2]), comp(c[1]), comp(c[0])]);
                l.server_at(dst_switch, offset)
            }
            2 => {
                // (w, x, y) → (ȳ, x̄, w̄): destination switch (x̄, w̄), offset ȳ.
                let dst_switch = cs.to_id(&[comp(c[0]), comp(offset)]);
                l.server_at(dst_switch, comp(c[1]))
            }
            _ => unreachable!("constructor restricts dims to 2 or 3"),
        }
    }

    fn is_permutation(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::check_permutation_admissible;
    use hyperx_topology::HyperX;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dcr_3d_matches_definition() {
        let hx = HyperX::regular(3, 4);
        let l = ServerLayout::new(&hx, 4);
        let t = DimensionComplementReverse::new(l.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let src_switch = hx.switch_id(&[1, 2, 0]);
        let src = l.server_at(src_switch, 3);
        let dst = t.destination(src, &mut rng);
        let expect_switch = hx.switch_id(&[3, 1, 2]);
        assert_eq!(l.server_switch(dst), expect_switch);
        assert_eq!(l.server_offset(dst), 3);
    }

    #[test]
    fn dcr_3d_is_admissible() {
        let hx = HyperX::regular(3, 4);
        let l = ServerLayout::new(&hx, 4);
        let t = DimensionComplementReverse::new(l.clone());
        check_permutation_admissible(&t, &l).expect("admissible");
    }

    #[test]
    fn dcr_2d_matches_paper_text() {
        // Server (w, x, y) sends to (ȳ, x̄, w̄).
        let hx = HyperX::regular(2, 4);
        let l = ServerLayout::new(&hx, 4);
        let t = DimensionComplementReverse::new(l.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let src_switch = hx.switch_id(&[1, 2]); // (x, y) = (1, 2)
        let src = l.server_at(src_switch, 0); // w = 0
        let dst = t.destination(src, &mut rng);
        // Destination: offset ȳ = 1, switch (x̄, w̄) = (2, 3).
        assert_eq!(l.server_offset(dst), 1);
        assert_eq!(l.server_switch(dst), hx.switch_id(&[2, 3]));
    }

    #[test]
    fn dcr_2d_is_admissible() {
        let hx = HyperX::regular(2, 4);
        let l = ServerLayout::new(&hx, 4);
        let t = DimensionComplementReverse::new(l.clone());
        check_permutation_admissible(&t, &l).expect("admissible");
    }

    #[test]
    fn dcr_requires_misrouting_in_3d() {
        // The defining feature: source and destination switches differ in every
        // dimension for most switches, and the pattern is "reversed" so aligned
        // rows get congested. Check the Hamming distance is maximal for a
        // generic switch (no coordinate is its own complement-reverse).
        let hx = HyperX::regular(3, 8);
        let l = ServerLayout::new(&hx, 8);
        let t = DimensionComplementReverse::new(l.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let src_switch = hx.switch_id(&[0, 1, 2]);
        let src = l.server_at(src_switch, 0);
        let dst_switch = l.server_switch(t.destination(src, &mut rng));
        assert_eq!(hx.coords().hamming_distance(src_switch, dst_switch), 3);
    }

    #[test]
    #[should_panic]
    fn dcr_2d_rejects_mismatched_concentration() {
        let hx = HyperX::regular(2, 4);
        let l = ServerLayout::new(&hx, 2);
        let _ = DimensionComplementReverse::new(l);
    }

    #[test]
    #[should_panic]
    fn dcr_rejects_1d() {
        let hx = HyperX::regular(1, 4);
        let l = ServerLayout::new(&hx, 4);
        let _ = DimensionComplementReverse::new(l);
    }
}
