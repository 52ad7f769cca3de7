//! Regular Permutation to Neighbour (RPN) traffic — the new adversarial
//! pattern introduced by the SurePath paper (§4, Figure 3).
//!
//! The 3D HyperX with even side `k` is decomposed into `(k/2)³` embedded
//! `K₂³` hypercubes by pairing consecutive coordinate values. Inside every
//! embedded hypercube a fixed directed Hamiltonian cycle of length 8 is laid
//! out, and every switch sends all its servers' traffic to the same offsets
//! at the next switch of its cycle.
//!
//! Every source/destination switch pair differs in exactly one coordinate, so
//! routes confined to the shared row (as Omnidimensional's are) saturate the
//! `k²/4` row links with `k²/2` server flows, capping throughput at 0.5. Routes
//! that leave the row (Polarized's) can exceed that bound — the core claim of
//! the paper's Regular Permutation to Neighbour analysis.

use super::{ServerLayout, TrafficPattern};
use rand::RngCore;

/// Gray-code Hamiltonian cycle over the 3-bit hypercube, used for every
/// embedded `K₂³`. Successive entries (cyclically) differ in exactly one bit.
const HAMILTONIAN_CYCLE: [usize; 8] = [0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100];

/// Regular Permutation to Neighbour traffic for 3D HyperX with even sides.
#[derive(Clone, Debug)]
pub struct RegularPermutationToNeighbour {
    layout: ServerLayout,
    /// Destination switch of every source switch.
    switch_map: Vec<usize>,
}

impl RegularPermutationToNeighbour {
    /// Why the pattern cannot run on a HyperX with these `sides`, if it
    /// cannot: the construction needs `K₂³` blocks, so a 3D regular HyperX
    /// with an even side.
    pub fn check(sides: &[usize]) -> Result<(), String> {
        if sides.len() != 3 {
            return Err(format!(
                "RPN is defined on 3D HyperX networks, got {} dimension(s)",
                sides.len()
            ));
        }
        if sides.iter().any(|&k| k != sides[0]) {
            return Err(format!(
                "RPN requires a regular HyperX, got sides {sides:?}"
            ));
        }
        if !sides[0].is_multiple_of(2) {
            return Err(format!("RPN requires an even side, got {}", sides[0]));
        }
        Ok(())
    }

    /// Builds the pattern.
    ///
    /// # Panics
    /// Panics where [`RegularPermutationToNeighbour::check`] fails.
    pub fn new(layout: ServerLayout) -> Self {
        if let Err(e) = Self::check(layout.coords().sides()) {
            panic!("{e}");
        }
        let cs = layout.coords();

        // Position of each vertex in the Hamiltonian cycle.
        let mut position = [0usize; 8];
        for (i, &v) in HAMILTONIAN_CYCLE.iter().enumerate() {
            position[v] = i;
        }

        let mut switch_map = vec![0usize; cs.num_switches()];
        #[allow(clippy::needless_range_loop)] // s indexes both coords and map
        for s in 0..cs.num_switches() {
            let c = cs.to_coords(s);
            // Local bits within the embedded hypercube and the block the switch belongs to.
            let bits = (c[0] % 2) | ((c[1] % 2) << 1) | ((c[2] % 2) << 2);
            let next_bits = HAMILTONIAN_CYCLE[(position[bits] + 1) % 8];
            let dst = [
                (c[0] - c[0] % 2) + (next_bits & 1),
                (c[1] - c[1] % 2) + ((next_bits >> 1) & 1),
                (c[2] - c[2] % 2) + ((next_bits >> 2) & 1),
            ];
            switch_map[s] = cs.to_id(&dst);
        }
        RegularPermutationToNeighbour { layout, switch_map }
    }

    /// Destination switch of a source switch.
    pub fn destination_switch(&self, switch: usize) -> usize {
        self.switch_map[switch]
    }
}

impl TrafficPattern for RegularPermutationToNeighbour {
    fn name(&self) -> &'static str {
        "Regular Permutation to Neighbour"
    }

    fn destination(&self, src_server: usize, _rng: &mut dyn RngCore) -> usize {
        let l = &self.layout;
        let dst_switch = self.switch_map[l.server_switch(src_server)];
        l.server_at(dst_switch, l.server_offset(src_server))
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

    fn pattern(side: usize, conc: usize) -> (RegularPermutationToNeighbour, ServerLayout, HyperX) {
        let hx = HyperX::regular(3, side);
        let layout = ServerLayout::new(&hx, conc);
        (
            RegularPermutationToNeighbour::new(layout.clone()),
            layout,
            hx,
        )
    }

    #[test]
    fn hamiltonian_cycle_is_valid() {
        for i in 0..8 {
            let a = HAMILTONIAN_CYCLE[i];
            let b = HAMILTONIAN_CYCLE[(i + 1) % 8];
            assert_eq!(
                (a ^ b).count_ones(),
                1,
                "consecutive vertices must differ in one bit"
            );
        }
        let mut sorted = HAMILTONIAN_CYCLE;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn destination_switch_is_a_hyperx_neighbour() {
        let (p, _, hx) = pattern(8, 8);
        for s in 0..hx.num_switches() {
            let d = p.destination_switch(s);
            assert_ne!(s, d);
            assert_eq!(
                hx.coords().hamming_distance(s, d),
                1,
                "destination must be a neighbour"
            );
        }
    }

    #[test]
    fn pattern_is_an_admissible_permutation() {
        let (p, layout, _) = pattern(4, 4);
        let fixed = check_permutation_admissible(&p, &layout).expect("admissible");
        assert_eq!(fixed, 0, "no server sends to itself");
    }

    #[test]
    fn stays_within_the_embedded_hypercube() {
        let (p, _, hx) = pattern(8, 8);
        for s in 0..hx.num_switches() {
            let c = hx.switch_coords(s);
            let d = hx.switch_coords(p.destination_switch(s));
            for dim in 0..3 {
                assert_eq!(c[dim] / 2, d[dim] / 2, "blocks must be preserved");
            }
        }
    }

    #[test]
    fn rows_carry_zero_or_half_side_confined_pairs() {
        // Paper §4: "in every Kk subgraph (full rows in any dimension) there
        // are exactly either 0 source/destination pairs or k/2 disjoint pairs".
        let (p, _, hx) = pattern(8, 8);
        let k = 8usize;
        let cs = hx.coords();
        for dim in 0..3 {
            // Enumerate rows along `dim` by fixing the other two coordinates.
            for fixed_a in 0..k {
                for fixed_b in 0..k {
                    let mut confined = 0usize;
                    let mut endpoints = std::collections::HashSet::new();
                    for v in 0..k {
                        let mut coords = [0usize; 3];
                        let others: Vec<usize> = (0..3).filter(|&d| d != dim).collect();
                        coords[dim] = v;
                        coords[others[0]] = fixed_a;
                        coords[others[1]] = fixed_b;
                        let s = cs.to_id(&coords);
                        let d = p.destination_switch(s);
                        let dc = cs.to_coords(d);
                        let in_row = (0..3).all(|dd| dd == dim || dc[dd] == coords[dd]);
                        if in_row {
                            confined += 1;
                            assert!(endpoints.insert(s), "pairs must be disjoint");
                            assert!(endpoints.insert(d), "pairs must be disjoint");
                        }
                    }
                    assert!(
                        confined == 0 || confined == k / 2,
                        "row dim {dim} ({fixed_a},{fixed_b}) has {confined} confined pairs"
                    );
                }
            }
        }
    }

    #[test]
    fn server_offsets_are_preserved() {
        let (p, layout, _) = pattern(4, 4);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        for src in 0..layout.num_servers() {
            let dst = p.destination(src, &mut rng);
            assert_eq!(layout.server_offset(src), layout.server_offset(dst));
        }
    }

    #[test]
    #[should_panic]
    fn odd_side_rejected() {
        let hx = HyperX::regular(3, 3);
        let layout = ServerLayout::new(&hx, 3);
        let _ = RegularPermutationToNeighbour::new(layout);
    }

    #[test]
    #[should_panic]
    fn two_dimensional_rejected() {
        let hx = HyperX::regular(2, 4);
        let layout = ServerLayout::new(&hx, 4);
        let _ = RegularPermutationToNeighbour::new(layout);
    }
}
