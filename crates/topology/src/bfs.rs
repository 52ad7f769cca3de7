//! Breadth-first search distances and all-pairs distance matrices.
//!
//! Every routing mechanism in the paper that survives topology changes
//! (Minimal, Polarized, the SurePath escape subnetwork) recomputes its tables
//! with a BFS after a failure. This module provides that primitive plus a
//! compact all-pairs [`DistanceMatrix`] used by routing tables and by the
//! topology analyses of Figure 1 and Table 3.

use crate::graph::{Network, SwitchId};
use crate::lanes::{Hop, HopRow, HopTable, Lanes, LevelCounts, NARROW_MAX, WIDTH};

/// Distance value meaning "unreachable".
pub const UNREACHABLE: u16 = u16::MAX;

/// Distances from `source` to every switch over alive links.
///
/// Unreachable switches get [`UNREACHABLE`].
pub fn bfs_distances(net: &Network, source: SwitchId) -> Vec<u16> {
    let n = net.num_switches();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::with_capacity(n);
    dist[source] = 0;
    queue.push_back(source);
    while let Some(s) = queue.pop_front() {
        let d = dist[s];
        for (_, nb) in net.neighbors(s) {
            if dist[nb.switch] == UNREACHABLE {
                dist[nb.switch] = d + 1;
                queue.push_back(nb.switch);
            }
        }
    }
    dist
}

/// All-pairs shortest-path distances, stored as a flat `n × n` array of
/// one byte per entry (255 for unreachable) when every finite distance fits
/// in 254, and of `u16`s otherwise. Reads yield `u16`s either way.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    d: HopTable,
    /// Whether every search reached every switch.
    connected: bool,
    /// The largest finite distance: the deepest level any search reached.
    deepest: u16,
}

impl DistanceMatrix {
    /// Computes all-pairs distances with a multi-source bit-parallel BFS
    /// (Then et al., "The More the Merrier", VLDB 2014).
    ///
    /// Sources go in batches of 256, one lane each: every switch carries
    /// the sources that have reached it (`visited`) and those that reached
    /// it on the previous level (`frontier`), four words each. One pass
    /// over the adjacency advances all 256 searches by a level. Before each
    /// level, a switch that some source has not yet reached adds the ones
    /// that have to a bit-sliced count, so once the batch stops, `d(v, s)`
    /// is the number of levels counted at `v` minus the count of `s`, or
    /// [`UNREACHABLE`] where `s` never arrived. The distances are symmetric,
    /// so each switch then writes its own row's 256-entry segment once.
    ///
    /// The whole matrix costs `⌈n/256⌉ · levels · links` lane operations
    /// plus one contiguous write per pair. Beyond the matrix it needs
    /// `O(n · log₂ levels)` lanes and one compressed adjacency list of the
    /// alive links. The searches also record whether each reached every
    /// switch and how deep the deepest went, so connectivity and the
    /// diameter cost nothing later.
    ///
    /// The entry width is chosen before the matrix is allocated, from a
    /// bound on the largest finite distance: `n − 1` on up to 255
    /// switches, otherwise twice the eccentricity of switch 0 when one BFS
    /// finds that it reaches every switch (any two switches are that close
    /// through it). A deeper or disconnected network keeps two bytes.
    pub fn compute(net: &Network) -> Self {
        let n = net.num_switches();
        let largest = if n <= NARROW_MAX + 1 {
            n.saturating_sub(1)
        } else {
            match bfs_distances(net, 0).into_iter().max() {
                Some(ecc) if ecc != UNREACHABLE => 2 * usize::from(ecc),
                _ => usize::MAX,
            }
        };
        // Every entry is written once below, so the zeroed allocation is
        // never filled up front.
        let mut d = HopTable::zeroed(n, largest);
        let (connected, deepest) = d.write(|d| Self::fill(net, d), |d| Self::fill(net, d));
        DistanceMatrix {
            d,
            connected,
            deepest,
        }
    }

    /// Writes every entry of the `n × n` matrix `d`; returns whether every
    /// search reached every switch, and the deepest level any reached.
    fn fill<E: Hop>(net: &Network, d: &mut [E]) -> (bool, u16) {
        let n = net.num_switches();
        let adj = net.adjacency();
        let mut connected = true;
        let mut deepest = 0u16;
        let mut visited = vec![Lanes::ZERO; n];
        let mut frontier = vec![Lanes::ZERO; n];
        let mut next = vec![Lanes::ZERO; n];
        // Levels counted at each switch: the level its last source reached
        // it, or every level of the batch if some source never did.
        let mut counted = vec![0u16; n];
        let mut counts = LevelCounts::new(n);
        for base in (0..n).step_by(WIDTH) {
            let batch = (n - base).min(WIDTH);
            let all = Lanes::first(batch);
            visited.fill(Lanes::ZERO);
            frontier.fill(Lanes::ZERO);
            counted.fill(0);
            counts.clear();
            for i in 0..batch {
                visited[base + i] = Lanes::single(i);
                frontier[base + i] = Lanes::single(i);
            }
            let mut level = 0u16;
            let mut advanced = true;
            while advanced {
                level += 1;
                advanced = false;
                for v in 0..n {
                    let seen = visited[v];
                    if seen == all {
                        next[v] = Lanes::ZERO;
                        continue;
                    }
                    counts.add(v, seen);
                    counted[v] += 1;
                    let reached = adj
                        .neighbors(v)
                        .iter()
                        .fold(Lanes::ZERO, |acc, &u| acc | frontier[u]);
                    let fresh = reached.and_not(seen);
                    next[v] = fresh;
                    if !fresh.is_zero() {
                        visited[v] = seen | fresh;
                        advanced = true;
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
            }
            // The last level advanced nothing; the one before it was the
            // deepest of this batch.
            deepest = deepest.max(level - 1);
            for (v, row) in d.chunks_exact_mut(n).enumerate() {
                let segment = &mut row[base..base + batch];
                segment.fill(E::wrap(counted[v]));
                counts.subtract_from(v, segment, 1);
                for i in all.and_not(visited[v]).ones() {
                    segment[i] = E::UNREACHABLE;
                    connected = false;
                }
            }
        }
        (connected, deepest)
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.d.n()
    }

    /// Bytes each entry takes: 1 when every finite distance was known to
    /// fit in 254 before the matrix was built, 2 otherwise.
    pub fn bytes_per_entry(&self) -> usize {
        self.d.bytes_per_entry()
    }

    /// Distance from `a` to `b` ([`UNREACHABLE`] if disconnected).
    #[inline]
    pub fn get(&self, a: SwitchId, b: SwitchId) -> u16 {
        self.row(a).get(b)
    }

    /// The row of distances from `a` to every switch.
    #[inline]
    pub fn row(&self, a: SwitchId) -> HopRow<'_> {
        self.d.row(a)
    }

    /// Whether every pair of switches is mutually reachable. O(1): recorded
    /// by [`compute`](Self::compute).
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Largest finite distance, or `usize::MAX` if the network is
    /// disconnected (see [`diameter_checked`](Self::diameter_checked) for
    /// the `Option` form). O(1).
    pub fn diameter(&self) -> usize {
        self.diameter_checked().unwrap_or(usize::MAX)
    }

    /// Like [`diameter`](Self::diameter) but returns `None` when disconnected,
    /// which is how Figure 1 terminates each fault sequence.
    pub fn diameter_checked(&self) -> Option<usize> {
        self.connected.then_some(usize::from(self.deepest))
    }

    /// Mean distance over all ordered pairs of distinct switches.
    ///
    /// Returns `f64::INFINITY` if the network is disconnected.
    pub fn average_distance(&self) -> f64 {
        if !self.is_connected() {
            return f64::INFINITY;
        }
        let n = self.num_switches();
        if n < 2 {
            return 0.0;
        }
        let total: u64 = (0..n).flat_map(|a| self.row(a).iter()).map(u64::from).sum();
        total as f64 / (n as f64 * (n as f64 - 1.0))
    }

    /// Largest distance from switch `s` to any other switch.
    pub fn eccentricity(&self, s: SwitchId) -> u16 {
        self.row(s).iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::complete_graph;
    use crate::hamming::HyperX;

    #[test]
    fn bfs_on_complete_graph() {
        let net = complete_graph(6);
        let d = bfs_distances(&net, 2);
        assert_eq!(d[2], 0);
        assert!(d.iter().enumerate().all(|(i, &x)| i == 2 || x == 1));
    }

    #[test]
    fn bfs_reports_unreachable() {
        let mut net = complete_graph(3);
        net.remove_link(0, 1);
        net.remove_link(0, 2);
        let d = bfs_distances(&net, 1);
        assert_eq!(d[0], UNREACHABLE);
        assert_eq!(d[2], 1);
    }

    #[test]
    fn distance_matrix_hyperx_diameter_and_average() {
        // Table 3 of the paper: the 3D HyperX of side 8 has diameter 3 and
        // average distance 2.625; the 2D of side 16 has diameter 2 and 1.8...
        // We verify the exact closed forms on smaller instances and the paper
        // values themselves in the properties module; here a 4x4x4 example.
        let hx = HyperX::regular(3, 4);
        let d = DistanceMatrix::compute(hx.network());
        assert!(d.is_connected());
        assert_eq!(d.diameter(), 3);
        // Average distance of K_k^n: n*(k-1)*k^(n-1) * k^n / (k^n*(k^n-1)) hops
        // summed... easier: expected Hamming distance between distinct vertices.
        let n = 3.0;
        let k = 4.0f64;
        let total_pairs = 64.0 * 63.0;
        let expected_sum = 64.0 * n * (k - 1.0) / k * 64.0; // E[d] over all ordered pairs incl. self
        let expected = expected_sum / total_pairs;
        assert!((d.average_distance() - expected).abs() < 1e-9);
    }

    #[test]
    fn diameter_checked_none_when_disconnected() {
        let mut net = complete_graph(4);
        for x in 1..4 {
            net.remove_link(0, x);
        }
        let d = DistanceMatrix::compute(&net);
        assert_eq!(d.diameter_checked(), None);
        assert_eq!(d.diameter(), usize::MAX);
        assert!(d.average_distance().is_infinite());
    }

    #[test]
    fn eccentricity_of_hyperx_switch() {
        let hx = HyperX::regular(2, 4);
        let d = DistanceMatrix::compute(hx.network());
        for s in 0..hx.num_switches() {
            assert_eq!(d.eccentricity(s), 2);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn row_matches_get() {
        let hx = HyperX::regular(2, 3);
        let d = DistanceMatrix::compute(hx.network());
        for a in 0..9 {
            let row = d.row(a);
            for b in 0..9 {
                assert_eq!(row.get(b), d.get(a, b));
            }
        }
    }
}
