//! Extension traffic patterns beyond the paper's four (§4).
//!
//! These patterns are not part of the paper's evaluation; they back the
//! ablation and stress benches of this reproduction (DESIGN.md documents the
//! motivation of each):
//!
//! * [`Transpose`] — the classic adversarial permutation for multi-dimensional
//!   direct networks: the destination switch has the source's coordinates
//!   reversed (no complement). Admissible.
//! * [`NeighbourShift`] — every switch sends to the next switch along
//!   dimension 0, one minimal hop away. Admissible; useful to measure how much
//!   load the escape subnetwork alone can carry (all of its routes are minimal
//!   for this pattern, §3.2's "the escape subnetwork contains shortest paths").
//! * [`HotspotIncast`] — a configurable fraction of servers aim at the servers
//!   of one hotspot switch. **Not admissible** (deliberate endpoint
//!   contention): it reproduces in isolation the in-cast congestion the paper
//!   analyses at the Star-faulted escape root in §6 / Figure 10.

use super::{ServerLayout, TrafficPattern};
use rand::{Rng, RngCore};

/// Coordinate-reversal (transpose) permutation: switch `(x₁, …, xₙ)` sends to
/// switch `(xₙ, …, x₁)`, preserving the server offset.
#[derive(Clone, Debug)]
pub struct Transpose {
    layout: ServerLayout,
}

impl Transpose {
    /// Why the pattern cannot run on a HyperX with these `sides`, if it
    /// cannot: unless the HyperX is regular (all sides equal), the reversed
    /// coordinate vector may be out of range.
    pub fn check(sides: &[usize]) -> Result<(), String> {
        if sides.iter().any(|&k| k != sides[0]) {
            return Err(format!(
                "Transpose requires a regular HyperX (all sides equal), got sides {sides:?}"
            ));
        }
        Ok(())
    }

    /// Builds the pattern.
    ///
    /// # Panics
    /// Panics where [`Transpose::check`] fails.
    pub fn new(layout: ServerLayout) -> Self {
        if let Err(e) = Self::check(layout.coords().sides()) {
            panic!("{e}");
        }
        Transpose { layout }
    }
}

impl TrafficPattern for Transpose {
    fn name(&self) -> &'static str {
        "Transpose"
    }

    fn destination(&self, src_server: usize, _rng: &mut dyn RngCore) -> usize {
        let l = &self.layout;
        let cs = l.coords();
        let mut c = cs.to_coords(l.server_switch(src_server));
        c.reverse();
        l.server_at(cs.to_id(&c), l.server_offset(src_server))
    }

    fn is_permutation(&self) -> bool {
        true
    }
}

/// Nearest-neighbour shift: switch `(x₁, x₂, …)` sends to
/// `((x₁ + 1) mod k₁, x₂, …)`, preserving the server offset. Every route is a
/// single minimal hop.
#[derive(Clone, Debug)]
pub struct NeighbourShift {
    layout: ServerLayout,
}

impl NeighbourShift {
    /// Builds the pattern.
    pub fn new(layout: ServerLayout) -> Self {
        assert!(
            layout.coords().side(0) >= 2,
            "NeighbourShift needs at least two switches along dimension 0"
        );
        NeighbourShift { layout }
    }
}

impl TrafficPattern for NeighbourShift {
    fn name(&self) -> &'static str {
        "Neighbour Shift"
    }

    fn destination(&self, src_server: usize, _rng: &mut dyn RngCore) -> usize {
        let l = &self.layout;
        let cs = l.coords();
        let switch = l.server_switch(src_server);
        let mut c = cs.to_coords(switch);
        c[0] = (c[0] + 1) % cs.side(0);
        l.server_at(cs.to_id(&c), l.server_offset(src_server))
    }

    fn is_permutation(&self) -> bool {
        true
    }
}

/// In-cast hotspot traffic: with probability `hot_fraction` a packet goes to a
/// uniformly chosen server of the hotspot switch, otherwise to a uniformly
/// chosen server anywhere else.
///
/// This pattern is intentionally **not** admissible — the hotspot switch's
/// ejection ports become the bottleneck — mirroring the in-cast contention the
/// paper identifies at the Star-faulted root (§6, Figure 10 discussion).
#[derive(Clone, Debug)]
pub struct HotspotIncast {
    layout: ServerLayout,
    hotspot_switch: usize,
    hot_fraction: f64,
}

impl HotspotIncast {
    /// Builds the pattern aiming at `hotspot_switch` with the given fraction
    /// of hot traffic.
    ///
    /// # Panics
    /// Panics if the switch is out of range or the fraction is outside `[0, 1]`.
    pub fn new(layout: ServerLayout, hotspot_switch: usize, hot_fraction: f64) -> Self {
        assert!(
            hotspot_switch < layout.num_switches(),
            "hotspot switch {hotspot_switch} out of range"
        );
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot fraction must be within [0, 1]"
        );
        HotspotIncast {
            layout,
            hotspot_switch,
            hot_fraction,
        }
    }

    /// The switch the hot traffic converges on.
    pub fn hotspot_switch(&self) -> usize {
        self.hotspot_switch
    }
}

impl TrafficPattern for HotspotIncast {
    fn name(&self) -> &'static str {
        "Hotspot In-cast"
    }

    fn destination(&self, src_server: usize, rng: &mut dyn RngCore) -> usize {
        let l = &self.layout;
        let hot = rng.gen_bool(self.hot_fraction);
        if hot {
            let offset = rng.gen_range(0..l.concentration());
            let dst = l.server_at(self.hotspot_switch, offset);
            if dst != src_server {
                return dst;
            }
        }
        // Cold traffic (or a hot pick that landed on ourselves): uniform over
        // all other servers.
        loop {
            let dst = rng.gen_range(0..l.num_servers());
            if dst != src_server {
                return dst;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::check_permutation_admissible;
    use hyperx_topology::HyperX;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn layout(dims: usize, side: usize, conc: usize) -> ServerLayout {
        ServerLayout::new(&HyperX::regular(dims, side), conc)
    }

    #[test]
    fn transpose_reverses_coordinates() {
        let hx = HyperX::regular(3, 4);
        let l = ServerLayout::new(&hx, 2);
        let t = Transpose::new(l.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let src_switch = hx.switch_id(&[1, 2, 3]);
        let src = l.server_at(src_switch, 1);
        let dst = t.destination(src, &mut rng);
        assert_eq!(l.server_switch(dst), hx.switch_id(&[3, 2, 1]));
        assert_eq!(l.server_offset(dst), 1);
        assert!(t.is_permutation());
    }

    #[test]
    fn transpose_is_admissible() {
        let l = layout(2, 4, 4);
        let t = Transpose::new(l.clone());
        check_permutation_admissible(&t, &l).expect("admissible");
    }

    #[test]
    fn transpose_has_fixed_points_on_the_diagonal() {
        let hx = HyperX::regular(2, 4);
        let l = ServerLayout::new(&hx, 1);
        let t = Transpose::new(l.clone());
        let fixed = check_permutation_admissible(&t, &l).unwrap();
        // Diagonal switches (x, x) map to themselves: 4 of them.
        assert_eq!(fixed, 4);
    }

    #[test]
    #[should_panic]
    fn transpose_rejects_irregular_sides() {
        let hx = HyperX::new(&[4, 3]);
        let _ = Transpose::new(ServerLayout::new(&hx, 2));
    }

    #[test]
    fn neighbour_shift_is_one_minimal_hop() {
        let hx = HyperX::regular(2, 4);
        let l = ServerLayout::new(&hx, 2);
        let t = NeighbourShift::new(l.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for src in 0..l.num_servers() {
            let dst = t.destination(src, &mut rng);
            let a = l.server_switch(src);
            let b = l.server_switch(dst);
            assert_eq!(hx.coords().hamming_distance(a, b), 1);
            assert_eq!(l.server_offset(src), l.server_offset(dst));
        }
    }

    #[test]
    fn neighbour_shift_is_admissible() {
        let l = layout(3, 3, 2);
        let t = NeighbourShift::new(l.clone());
        assert_eq!(check_permutation_admissible(&t, &l).unwrap(), 0);
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let l = layout(2, 4, 4);
        let hot_switch = 5usize;
        let t = HotspotIncast::new(l.clone(), hot_switch, 0.8);
        assert_eq!(t.hotspot_switch(), hot_switch);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut hot_hits = 0usize;
        let trials = 4000usize;
        for i in 0..trials {
            let src = i % l.num_servers();
            let dst = t.destination(src, &mut rng);
            assert!(dst < l.num_servers());
            assert_ne!(dst, src);
            if l.server_switch(dst) == hot_switch {
                hot_hits += 1;
            }
        }
        let ratio = hot_hits as f64 / trials as f64;
        assert!(ratio > 0.6, "hot ratio {ratio} too low");
        assert!(ratio < 0.95, "hot ratio {ratio} suspiciously high");
    }

    #[test]
    fn hotspot_with_zero_fraction_is_uniform_like() {
        let l = layout(2, 4, 2);
        let t = HotspotIncast::new(l.clone(), 0, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(t.destination(7, &mut rng));
        }
        // With 32 servers and 500 draws, a uniform pattern touches most of them.
        assert!(seen.len() > 20);
        assert!(!seen.contains(&7));
    }

    #[test]
    #[should_panic]
    fn hotspot_rejects_bad_fraction() {
        let l = layout(2, 4, 2);
        let _ = HotspotIncast::new(l, 0, 1.5);
    }

    #[test]
    #[should_panic]
    fn hotspot_rejects_out_of_range_switch() {
        let l = layout(2, 4, 2);
        let _ = HotspotIncast::new(l, 99, 0.5);
    }
}
