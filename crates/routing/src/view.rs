//! A consistent view of the (possibly faulty) network shared by every routing
//! table: the topology, the all-pairs distance matrix and the Up/Down escape
//! subnetwork.
//!
//! Whenever the set of alive links changes (a failure or a repair), a new
//! `NetworkView` is built; this mirrors the paper's model in which routing
//! tables are recomputed by BFS "at boot time, upgrade or failure".
//!
//! The view also flattens what the routing algorithms read per hop into
//! rows built once: each port's neighbor switch (with a [`DEAD_PORT`]
//! sentinel) and each switch's coordinates.

use hyperx_topology::{DistanceMatrix, FaultSet, HyperX, Network, SwitchId, UpDownEscape};

/// [`NetworkView::neighbor_row`] entry of a dead port.
pub const DEAD_PORT: u32 = u32::MAX;

/// Immutable snapshot of the network used to build routing tables.
#[derive(Clone, Debug)]
pub struct NetworkView {
    hyperx: HyperX,
    distances: DistanceMatrix,
    escape: Option<UpDownEscape>,
    escape_root: SwitchId,
    /// `neighbors[s·radix + p]`: the switch behind port `p` of `s`, or
    /// [`DEAD_PORT`].
    neighbors: Vec<u32>,
    /// `coords[s·dims + d]`: the coordinate of `s` in dimension `d`.
    coords: Vec<u16>,
    radix: usize,
}

impl NetworkView {
    /// Builds a view of the healthy HyperX with the escape subnetwork rooted at `escape_root`.
    pub fn healthy(hyperx: HyperX, escape_root: SwitchId) -> Self {
        Self::from_hyperx(hyperx, escape_root)
    }

    /// Applies `faults` to a copy of `hyperx` and builds the view, recomputing
    /// distances and the escape subnetwork over the surviving links.
    pub fn with_faults(mut hyperx: HyperX, faults: &FaultSet, escape_root: SwitchId) -> Self {
        faults.apply(hyperx.network_mut());
        Self::from_hyperx(hyperx, escape_root)
    }

    fn from_hyperx(hyperx: HyperX, escape_root: SwitchId) -> Self {
        let n = hyperx.num_switches();
        assert!(escape_root < n, "escape root out of range");
        let radix = hyperx.switch_radix();
        // Candidates carry 16-bit ports (and so, through the radix, 16-bit
        // coordinates); neighbor rows carry 32-bit switch ids.
        assert!(
            u16::try_from(radix).is_ok(),
            "switch radix {radix} does not fit a 16-bit candidate port"
        );
        assert!(
            n < DEAD_PORT as usize,
            "{n} switches do not fit a 32-bit id"
        );
        let net = hyperx.network();
        let neighbors = (0..n)
            .flat_map(|s| {
                (0..radix).map(move |p| net.neighbor(s, p).map_or(DEAD_PORT, |nb| nb.switch as u32))
            })
            .collect();
        let coords = (0..n)
            .flat_map(|s| hyperx.switch_coords(s))
            .map(|c| c as u16)
            .collect();
        let distances = DistanceMatrix::compute(hyperx.network());
        let escape = if distances.is_connected() {
            Some(UpDownEscape::new(hyperx.network(), escape_root))
        } else {
            None
        };
        NetworkView {
            hyperx,
            distances,
            escape,
            escape_root,
            neighbors,
            coords,
            radix,
        }
    }

    /// The HyperX topology (its network already has the faults applied).
    pub fn hyperx(&self) -> &HyperX {
        &self.hyperx
    }

    /// The switch-level network with faults applied.
    pub fn network(&self) -> &Network {
        self.hyperx.network()
    }

    /// All-pairs distances over alive links.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// Graph distance between two switches over alive links.
    #[inline]
    pub fn distance(&self, a: SwitchId, b: SwitchId) -> u16 {
        self.distances.get(a, b)
    }

    /// The escape subnetwork, present whenever the network is connected.
    pub fn escape(&self) -> Option<&UpDownEscape> {
        self.escape.as_ref()
    }

    /// The escape subnetwork, panicking with a clear message when the network
    /// is disconnected (SurePath cannot guarantee delivery in that case).
    pub fn escape_required(&self) -> &UpDownEscape {
        self.escape
            .as_ref()
            .expect("the network is disconnected: no escape subnetwork can be built")
    }

    /// Root switch requested for the escape subnetwork.
    pub fn escape_root(&self) -> SwitchId {
        self.escape_root
    }

    /// Whether every pair of switches is still mutually reachable.
    pub fn is_connected(&self) -> bool {
        self.distances.is_connected()
    }

    /// Current network diameter (`usize::MAX` when disconnected).
    pub fn diameter(&self) -> usize {
        self.distances.diameter()
    }

    /// Number of dimensions of the HyperX.
    pub fn dims(&self) -> usize {
        self.hyperx.dims()
    }

    /// The switch behind each port of `s`, indexed by port: [`DEAD_PORT`]
    /// for a dead link.
    #[inline]
    pub fn neighbor_row(&self, s: SwitchId) -> &[u32] {
        &self.neighbors[s * self.radix..(s + 1) * self.radix]
    }

    /// The live ports of `s` with the switch behind each, in port order.
    #[inline]
    pub fn live_ports(&self, s: SwitchId) -> impl Iterator<Item = (u16, SwitchId)> + '_ {
        self.neighbor_row(s)
            .iter()
            .enumerate()
            .filter(|&(_, &nb)| nb != DEAD_PORT)
            .map(|(p, &nb)| (p as u16, nb as SwitchId))
    }

    /// The coordinates of `s`, indexed by dimension.
    #[inline]
    pub fn coord_row(&self, s: SwitchId) -> &[u16] {
        let dims = self.dims();
        &self.coords[s * dims..(s + 1) * dims]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperx_topology::FaultShape;

    #[test]
    fn healthy_view_has_escape_and_hamming_distances() {
        let view = NetworkView::healthy(HyperX::regular(2, 4), 0);
        assert!(view.is_connected());
        assert_eq!(view.diameter(), 2);
        assert!(view.escape().is_some());
        assert_eq!(view.escape_root(), 0);
        let hx = view.hyperx();
        for a in 0..hx.num_switches() {
            for b in 0..hx.num_switches() {
                assert_eq!(
                    view.distance(a, b) as usize,
                    hx.coords().hamming_distance(a, b)
                );
            }
        }
    }

    #[test]
    fn faulty_view_updates_distances() {
        let hx = HyperX::regular(2, 4);
        let shape = FaultShape::Row {
            along_dim: 0,
            at: vec![0, 0],
        };
        let faults = FaultSet::from_shape(&shape, &hx);
        let view = NetworkView::with_faults(hx, &faults, 0);
        assert!(view.is_connected());
        // Two switches of the removed row can no longer talk directly; the
        // shortest surviving path leaves the row and comes back (3 hops).
        let a = view.hyperx().switch_id(&[0, 0]);
        let b = view.hyperx().switch_id(&[3, 0]);
        assert_eq!(view.distance(a, b), 3);
        assert!(view.escape().is_some());
    }

    #[test]
    fn disconnected_view_has_no_escape() {
        let hx = HyperX::regular(1, 3);
        // Remove every link: 3 isolated switches.
        let faults = FaultSet::from_links(hx.network().healthy_links());
        let view = NetworkView::with_faults(hx, &faults, 0);
        assert!(!view.is_connected());
        assert!(view.escape().is_none());
        assert_eq!(view.diameter(), usize::MAX);
    }

    #[test]
    #[should_panic]
    fn escape_required_panics_when_disconnected() {
        let hx = HyperX::regular(1, 3);
        let faults = FaultSet::from_links(hx.network().healthy_links());
        let view = NetworkView::with_faults(hx, &faults, 0);
        let _ = view.escape_required();
    }

    #[test]
    #[should_panic]
    fn out_of_range_root_rejected() {
        let _ = NetworkView::healthy(HyperX::regular(2, 4), 1000);
    }
}
