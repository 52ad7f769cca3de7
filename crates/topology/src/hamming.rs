//! HyperX (Hamming graph) topology.
//!
//! An `n`-dimensional HyperX with sides `k_1 × … × k_n` has one switch per
//! coordinate vector and a link between every pair of switches whose
//! coordinates differ in exactly one position (Hamming distance 1). The
//! graph is the Cartesian product of complete graphs `K_{k_1} □ … □ K_{k_n}`.
//!
//! Port layout is *dimension-major*: the ports of a switch are grouped by
//! dimension, and within a dimension ordered by the target coordinate
//! (skipping the switch's own coordinate). This layout lets routing
//! algorithms translate `(dimension, coordinate)` to a port in O(1) via
//! [`HyperX::port_for`] and back via [`HyperX::port_meaning`].

use crate::coordinates::{CoordinateSystem, Coordinates};
use crate::graph::{Neighbor, Network, PortId, SwitchId};
use serde::{Deserialize, Serialize};

/// Description of what a healthy HyperX port connects to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortMeaning {
    /// Dimension the port travels along.
    pub dim: usize,
    /// Coordinate value of the neighbor in that dimension.
    pub value: usize,
}

/// A HyperX topology: coordinate system plus switch-level network.
///
/// The network is owned by the struct; faults are injected through
/// [`HyperX::network_mut`] (or the helpers in [`crate::faults`]) and never
/// change the coordinate system or the port layout.
#[derive(Clone, Debug)]
pub struct HyperX {
    coords: CoordinateSystem,
    network: Network,
    /// Cumulative port offsets per dimension: ports of dimension `d` start at
    /// `offsets[d]` and span `side(d) - 1` ports.
    offsets: Vec<usize>,
}

impl HyperX {
    /// Builds the HyperX with the given sides, e.g. `&[16, 16]` for the 2D
    /// network of the paper and `&[8, 8, 8]` for the 3D one.
    pub fn new(sides: &[usize]) -> Self {
        let coords = CoordinateSystem::new(sides);
        let n_switches = coords.num_switches();
        let dims = coords.dims();
        let mut offsets = Vec::with_capacity(dims + 1);
        let mut acc = 0usize;
        for d in 0..dims {
            offsets.push(acc);
            acc += coords.side(d) - 1;
        }
        offsets.push(acc);
        let radix = acc;

        let mut ports: Vec<Vec<Option<Neighbor>>> = vec![vec![None; radix]; n_switches];
        #[allow(clippy::needless_range_loop)] // s/d index parallel structures
        for s in 0..n_switches {
            let c = coords.to_coords(s);
            for d in 0..dims {
                let k = coords.side(d);
                for v in 0..k {
                    if v == c[d] {
                        continue;
                    }
                    let p = Self::port_index(&offsets, c[d], d, v);
                    let t = coords.with_coordinate(s, d, v);
                    // The reverse port is the port of `t` in dimension `d`
                    // pointing back at our coordinate value.
                    let reverse = Self::port_index(&offsets, v, d, c[d]);
                    ports[s][p] = Some(Neighbor {
                        switch: t,
                        reverse_port: reverse,
                    });
                }
            }
        }
        let network = Network::from_ports(ports);
        HyperX {
            coords,
            network,
            offsets,
        }
    }

    /// The regular HyperX `side^dims`, e.g. `regular(3, 8)` is the paper's 3D network.
    pub fn regular(dims: usize, side: usize) -> Self {
        Self::new(&vec![side; dims])
    }

    fn port_index(offsets: &[usize], own_value: usize, dim: usize, target_value: usize) -> PortId {
        debug_assert!(own_value != target_value);
        offsets[dim]
            + if target_value < own_value {
                target_value
            } else {
                target_value - 1
            }
    }

    /// Coordinate system of the topology.
    pub fn coords(&self) -> &CoordinateSystem {
        &self.coords
    }

    /// Immutable access to the switch-level network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the switch-level network, for fault injection.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.coords.dims()
    }

    /// Side of dimension `d`.
    pub fn side(&self, d: usize) -> usize {
        self.coords.side(d)
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.coords.num_switches()
    }

    /// Switch-to-switch radix (ports per switch), `Σ (k_i − 1)`.
    pub fn switch_radix(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Coordinates of switch `s`.
    pub fn switch_coords(&self, s: SwitchId) -> Coordinates {
        self.coords.to_coords(s)
    }

    /// Switch id of the given coordinates.
    pub fn switch_id(&self, c: &[usize]) -> SwitchId {
        self.coords.to_id(c)
    }

    /// The port of `s` that, in the healthy network, reaches the neighbor
    /// whose coordinate in dimension `dim` is `value`.
    ///
    /// # Panics
    /// Panics if `value` equals the switch's own coordinate in `dim`.
    pub fn port_for(&self, s: SwitchId, dim: usize, value: usize) -> PortId {
        self.dim_port(dim, self.coords.coord(s, dim), value)
    }

    /// [`HyperX::port_for`] from the switch's own coordinate `own` in `dim`
    /// instead of its id: the port of dimension `dim` reaching coordinate
    /// `value`.
    ///
    /// # Panics
    /// Panics if `value == own`.
    #[inline]
    pub fn dim_port(&self, dim: usize, own: usize, value: usize) -> PortId {
        assert!(
            own != value,
            "the switch already has coordinate {value} in dimension {dim}"
        );
        Self::port_index(&self.offsets, own, dim, value)
    }

    /// The dimension and target coordinate value of port `p` of switch `s`.
    pub fn port_meaning(&self, s: SwitchId, p: PortId) -> PortMeaning {
        let dim = match self.offsets.binary_search(&p) {
            Ok(d) if d < self.dims() => d,
            Ok(d) => d - 1,
            Err(d) => d - 1,
        };
        let own = self.coords.coord(s, dim);
        let off = p - self.offsets[dim];
        let value = if off < own { off } else { off + 1 };
        PortMeaning { dim, value }
    }

    /// Ports of dimension `d` as a half-open range.
    pub fn dimension_ports(&self, d: usize) -> std::ops::Range<PortId> {
        self.offsets[d]..self.offsets[d + 1]
    }

    /// Id of the neighbor of `s` obtained by setting dimension `dim` to `value`.
    pub fn neighbor_id(&self, s: SwitchId, dim: usize, value: usize) -> SwitchId {
        self.coords.with_coordinate(s, dim, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::DistanceMatrix;
    use crate::cartesian::cartesian_power;
    use crate::complete::complete_graph;

    #[test]
    fn paper_2d_dimensions() {
        let hx = HyperX::regular(2, 16);
        assert_eq!(hx.num_switches(), 256);
        assert_eq!(hx.switch_radix(), 30);
        assert_eq!(hx.network().num_links(), 3840);
    }

    #[test]
    fn paper_3d_dimensions() {
        let hx = HyperX::regular(3, 8);
        assert_eq!(hx.num_switches(), 512);
        assert_eq!(hx.switch_radix(), 21);
        assert_eq!(hx.network().num_links(), 5376);
    }

    #[test]
    fn graph_distance_equals_hamming_distance_small() {
        let hx = HyperX::new(&[4, 3, 2]);
        let d = DistanceMatrix::compute(hx.network());
        for a in 0..hx.num_switches() {
            for b in 0..hx.num_switches() {
                assert_eq!(
                    d.get(a, b) as usize,
                    hx.coords().hamming_distance(a, b),
                    "distance mismatch between {a} and {b}"
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn port_for_and_port_meaning_are_inverse() {
        let hx = HyperX::new(&[5, 4, 3]);
        for s in 0..hx.num_switches() {
            let c = hx.switch_coords(s);
            for d in 0..hx.dims() {
                for v in 0..hx.side(d) {
                    if v == c[d] {
                        continue;
                    }
                    let p = hx.port_for(s, d, v);
                    let m = hx.port_meaning(s, p);
                    assert_eq!(m.dim, d);
                    assert_eq!(m.value, v);
                    let n = hx.network().neighbor(s, p).unwrap();
                    assert_eq!(n.switch, hx.neighbor_id(s, d, v));
                }
            }
        }
    }

    #[test]
    fn ports_are_grouped_by_dimension() {
        let hx = HyperX::new(&[4, 4]);
        for s in 0..hx.num_switches() {
            for d in 0..hx.dims() {
                for p in hx.dimension_ports(d) {
                    assert_eq!(hx.port_meaning(s, p).dim, d);
                }
            }
        }
    }

    #[test]
    fn matches_cartesian_power_construction() {
        // The direct constructor and the generic Cartesian product must agree
        // on the vertex labelling and the edge set.
        let hx = HyperX::regular(3, 3);
        let prod = cartesian_power(&[complete_graph(3), complete_graph(3), complete_graph(3)]);
        assert_eq!(hx.num_switches(), prod.num_switches());
        assert_eq!(hx.network().num_links(), prod.num_links());
        for s in 0..hx.num_switches() {
            let mut a: Vec<usize> = hx.network().neighbors(s).map(|(_, n)| n.switch).collect();
            let mut b: Vec<usize> = prod.neighbors(s).map(|(_, n)| n.switch).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighborhood of switch {s} differs");
        }
    }

    #[test]
    fn reverse_ports_consistent() {
        let hx = HyperX::new(&[6, 5]);
        let net = hx.network();
        for s in 0..hx.num_switches() {
            for (p, n) in net.neighbors(s) {
                let back = net.neighbor(n.switch, n.reverse_port).unwrap();
                assert_eq!(back.switch, s);
                assert_eq!(back.reverse_port, p);
            }
        }
    }

    #[test]
    #[should_panic]
    fn port_for_own_value_panics() {
        let hx = HyperX::regular(2, 4);
        let s = hx.switch_id(&[1, 2]);
        let _ = hx.port_for(s, 0, 1);
    }
}
