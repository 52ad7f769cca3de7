//! Structural resiliency analysis: shortest-path counts, edge-disjoint path
//! diversity and distance distributions.
//!
//! Section 2 of the paper motivates SurePath with the structural robustness
//! of Hamming graphs: worst-case faults were characterised in \[22\] and the
//! number of surviving paths under failures is calculated in \[30\]
//! (Rottenstreich, *Path diversity and survivability for the HyperX
//! datacenter topology*). This module provides the graph-theoretic side of
//! those claims so they can be checked against the topologies actually used
//! in the evaluation:
//!
//! * [`shortest_path_count`] — how many minimal routes survive between a pair
//!   (DOR uses one of them; Omnidimensional may use all of them).
//! * [`edge_disjoint_paths`] — Menger-style path diversity, the number of
//!   faults needed to separate a specific pair.
//! * [`DistanceHistogram`] — the distribution of pairwise distances, from
//!   which diameter and average distance (Table 3) follow.
//! * [`PairSurvivability`] / [`survivability_under_faults`] — how a fault set
//!   changes distances and minimal-path counts across sampled pairs.

use crate::bfs::{bfs_distances, DistanceMatrix, UNREACHABLE};
use crate::graph::{Network, SwitchId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number of distinct shortest paths from `source` to `dest` over the alive
/// links of `net`, or 0 when `dest` is unreachable.
///
/// Counts are exact (dynamic programming over BFS levels) and saturate at
/// `u64::MAX` instead of overflowing on pathological inputs.
///
/// ```
/// use hyperx_topology::{shortest_path_count, HyperX};
///
/// // A pair differing in all three dimensions of a HyperX has 3! = 6 minimal routes.
/// let hx = HyperX::regular(3, 4);
/// let a = hx.switch_id(&[0, 0, 0]);
/// let b = hx.switch_id(&[1, 2, 3]);
/// assert_eq!(shortest_path_count(hx.network(), a, b), 6);
/// ```
pub fn shortest_path_count(net: &Network, source: SwitchId, dest: SwitchId) -> u64 {
    if source == dest {
        return 1;
    }
    let dist = bfs_distances(net, source);
    if dist[dest] == UNREACHABLE {
        return 0;
    }
    // Process switches in order of increasing distance from the source.
    let mut order: Vec<SwitchId> = (0..net.num_switches())
        .filter(|&s| dist[s] != UNREACHABLE && dist[s] <= dist[dest])
        .collect();
    order.sort_by_key(|&s| dist[s]);
    let mut count = vec![0u64; net.num_switches()];
    count[source] = 1;
    for &s in &order {
        if s == source {
            continue;
        }
        let mut total = 0u64;
        for (_, nb) in net.neighbors(s) {
            if dist[nb.switch] + 1 == dist[s] {
                total = total.saturating_add(count[nb.switch]);
            }
        }
        count[s] = total;
    }
    count[dest]
}

/// Number of pairwise edge-disjoint paths between `source` and `dest` over the
/// alive links (Menger's theorem: the minimum number of link faults that
/// disconnect the pair).
///
/// Computed with unit-capacity augmenting paths (Edmonds–Karp); the value is
/// bounded by the smaller alive degree of the two endpoints, so the number of
/// augmentation rounds stays small even on the paper's radix-46 switches.
pub fn edge_disjoint_paths(net: &Network, source: SwitchId, dest: SwitchId) -> usize {
    if source == dest {
        return 0;
    }
    let n = net.num_switches();
    // Net flow over directed pairs; an undirected link has capacity 1, and
    // sending flow against an existing unit cancels it.
    use std::collections::HashMap;
    let mut flow: HashMap<(SwitchId, SwitchId), i32> = HashMap::new();
    let mut total = 0usize;
    loop {
        // BFS over residual edges.
        let mut parent: Vec<Option<SwitchId>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source);
        parent[source] = Some(source);
        'bfs: while let Some(u) = queue.pop_front() {
            for (_, nb) in net.neighbors(u) {
                let v = nb.switch;
                if parent[v].is_some() {
                    continue;
                }
                let f = *flow.get(&(u, v)).unwrap_or(&0);
                // Residual capacity = 1 - f (capacity 1 each way, reverse flow cancels).
                if 1 - f <= 0 {
                    continue;
                }
                parent[v] = Some(u);
                if v == dest {
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
        if parent[dest].is_none() {
            break;
        }
        // Augment one unit along the parent chain.
        let mut v = dest;
        while v != source {
            let u = parent[v].expect("path reconstructed from BFS");
            *flow.entry((u, v)).or_insert(0) += 1;
            *flow.entry((v, u)).or_insert(0) -= 1;
            v = u;
        }
        total += 1;
    }
    total
}

/// Histogram of pairwise switch-to-switch distances (ordered pairs excluded,
/// unreachable pairs counted separately).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistanceHistogram {
    /// `counts[d]` is the number of unordered pairs at distance `d` (index 0 unused).
    pub counts: Vec<u64>,
    /// Number of unordered pairs that cannot reach each other.
    pub unreachable_pairs: u64,
}

impl DistanceHistogram {
    /// Builds the histogram from an all-pairs distance matrix.
    pub fn from_matrix(dm: &DistanceMatrix) -> Self {
        let n = dm.num_switches();
        let mut hist = DistanceHistogram::default();
        for a in 0..n {
            for b in (a + 1)..n {
                let d = dm.get(a, b);
                if d == UNREACHABLE {
                    hist.unreachable_pairs += 1;
                } else {
                    let d = d as usize;
                    if hist.counts.len() <= d {
                        hist.counts.resize(d + 1, 0);
                    }
                    hist.counts[d] += 1;
                }
            }
        }
        hist
    }

    /// Builds the histogram directly from a network.
    pub fn from_network(net: &Network) -> Self {
        Self::from_matrix(&DistanceMatrix::compute(net))
    }

    /// Total number of unordered reachable pairs.
    pub fn reachable_pairs(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Largest finite distance, or `None` when no pair is reachable.
    pub fn max_distance(&self) -> Option<usize> {
        self.counts
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(d, _)| d)
    }

    /// Mean pairwise distance over reachable pairs (`None` when none are).
    pub fn mean_distance(&self) -> Option<f64> {
        let pairs = self.reachable_pairs();
        if pairs == 0 {
            return None;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        Some(sum as f64 / pairs as f64)
    }
}

/// Per-pair structural effect of a fault set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairSurvivability {
    /// Source switch of the sampled pair.
    pub source: SwitchId,
    /// Destination switch of the sampled pair.
    pub dest: SwitchId,
    /// Distance in the healthy network.
    pub healthy_distance: u16,
    /// Distance with the faults applied (`u16::MAX` when disconnected).
    pub faulty_distance: u16,
    /// Number of shortest paths in the healthy network.
    pub healthy_paths: u64,
    /// Number of shortest paths (at the new, possibly longer distance) with faults.
    pub faulty_paths: u64,
}

impl PairSurvivability {
    /// Whether the pair is still connected under the faults.
    pub fn survives(&self) -> bool {
        self.faulty_distance != UNREACHABLE
    }

    /// How much longer the shortest route became (0 when disconnected —
    /// use [`survives`](Self::survives) to distinguish).
    pub fn distance_stretch(&self) -> u16 {
        if self.survives() {
            self.faulty_distance - self.healthy_distance
        } else {
            0
        }
    }
}

/// Summary of [`survivability_under_faults`] over all sampled pairs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SurvivabilityReport {
    /// Per-pair measurements.
    pub pairs: Vec<PairSurvivability>,
}

impl SurvivabilityReport {
    /// Fraction of sampled pairs that remain connected.
    pub fn survival_ratio(&self) -> f64 {
        if self.pairs.is_empty() {
            return 1.0;
        }
        self.pairs.iter().filter(|p| p.survives()).count() as f64 / self.pairs.len() as f64
    }

    /// Fraction of surviving pairs whose shortest route got longer.
    pub fn stretched_ratio(&self) -> f64 {
        let surviving: Vec<_> = self.pairs.iter().filter(|p| p.survives()).collect();
        if surviving.is_empty() {
            return 0.0;
        }
        surviving
            .iter()
            .filter(|p| p.distance_stretch() > 0)
            .count() as f64
            / surviving.len() as f64
    }

    /// Largest distance stretch across surviving pairs.
    pub fn max_stretch(&self) -> u16 {
        self.pairs
            .iter()
            .filter(|p| p.survives())
            .map(|p| p.distance_stretch())
            .max()
            .unwrap_or(0)
    }

    /// Mean ratio of surviving shortest paths to healthy shortest paths, over
    /// pairs that kept their healthy distance (the quantity studied in \[30\]).
    pub fn mean_path_retention(&self) -> f64 {
        let same_distance: Vec<_> = self
            .pairs
            .iter()
            .filter(|p| p.survives() && p.distance_stretch() == 0 && p.healthy_paths > 0)
            .collect();
        if same_distance.is_empty() {
            return 0.0;
        }
        same_distance
            .iter()
            .map(|p| p.faulty_paths as f64 / p.healthy_paths as f64)
            .sum::<f64>()
            / same_distance.len() as f64
    }
}

/// Measures how `faulty` (a network with faults already applied) compares to
/// `healthy` across `sample_pairs` random ordered pairs (or every ordered pair
/// when `sample_pairs` is `None`).
pub fn survivability_under_faults<R: Rng>(
    healthy: &Network,
    faulty: &Network,
    sample_pairs: Option<usize>,
    rng: &mut R,
) -> SurvivabilityReport {
    assert_eq!(
        healthy.num_switches(),
        faulty.num_switches(),
        "healthy and faulty networks must have the same switches"
    );
    let n = healthy.num_switches();
    let mut pairs: Vec<(SwitchId, SwitchId)> = (0..n)
        .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    if let Some(k) = sample_pairs {
        pairs.shuffle(rng);
        pairs.truncate(k);
    }
    let healthy_dm = DistanceMatrix::compute(healthy);
    let faulty_dm = DistanceMatrix::compute(faulty);
    let pairs = pairs
        .into_iter()
        .map(|(a, b)| PairSurvivability {
            source: a,
            dest: b,
            healthy_distance: healthy_dm.get(a, b),
            faulty_distance: faulty_dm.get(a, b),
            healthy_paths: shortest_path_count(healthy, a, b),
            faulty_paths: shortest_path_count(faulty, a, b),
        })
        .collect();
    SurvivabilityReport { pairs }
}

/// Number of links crossing the bisection that splits coordinate `dim` of a
/// HyperX into low and high halves. For a `k`-side dimension with `S` switches
/// in total this is `S/k · ⌈k/2⌉ · ⌊k/2⌋` in the healthy network; with faults
/// applied the count reflects only alive links.
pub fn dimension_bisection_links(hx: &crate::hamming::HyperX, net: &Network, dim: usize) -> usize {
    assert!(dim < hx.dims(), "dimension out of range");
    let half = hx.side(dim) / 2;
    let mut count = 0usize;
    for s in 0..net.num_switches() {
        let cs = hx.switch_coords(s)[dim];
        for (_, nb) in net.neighbors(s) {
            if s < nb.switch {
                let cn = hx.switch_coords(nb.switch)[dim];
                if (cs < half) != (cn < half) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::complete_graph;
    use crate::faults::{FaultSet, FaultShape};
    use crate::hamming::HyperX;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn shortest_path_counts_in_complete_graph() {
        // In K_n every distinct pair is adjacent: exactly one shortest path.
        let net = complete_graph(6);
        for a in 0..6 {
            for b in 0..6 {
                let expected = 1; // includes a == b (the empty path)
                assert_eq!(shortest_path_count(&net, a, b), expected);
            }
        }
    }

    #[test]
    fn shortest_path_counts_in_hyperx_match_permutations_of_dimensions() {
        // In a Hamming graph the minimal paths between switches differing in
        // `d` dimensions are the d! dimension orders (one candidate per
        // dimension since each correction is a single hop).
        let hx = HyperX::regular(3, 4);
        let a = hx.switch_id(&[0, 0, 0]);
        let b3 = hx.switch_id(&[1, 2, 3]);
        let b2 = hx.switch_id(&[1, 2, 0]);
        let b1 = hx.switch_id(&[0, 3, 0]);
        assert_eq!(shortest_path_count(hx.network(), a, b3), 6);
        assert_eq!(shortest_path_count(hx.network(), a, b2), 2);
        assert_eq!(shortest_path_count(hx.network(), a, b1), 1);
    }

    #[test]
    fn shortest_path_count_zero_when_disconnected() {
        let mut net = complete_graph(3);
        net.remove_link(0, 1);
        net.remove_link(0, 2);
        assert_eq!(shortest_path_count(&net, 0, 1), 0);
        assert_eq!(shortest_path_count(&net, 1, 2), 1);
    }

    #[test]
    fn edge_disjoint_paths_match_degree_in_complete_graph() {
        // K_n is (n-1)-edge-connected.
        let net = complete_graph(5);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert_eq!(edge_disjoint_paths(&net, a, b), 4);
                }
            }
        }
    }

    #[test]
    fn edge_disjoint_paths_in_hyperx_equal_switch_radix() {
        // Hamming graphs are maximally edge-connected: the edge connectivity
        // equals the degree n(k-1) (LaForge et al. [22]).
        let hx = HyperX::regular(2, 4);
        let radix = hx.switch_radix();
        let pairs = [(0usize, 5usize), (0, 15), (3, 12)];
        for (a, b) in pairs {
            assert_eq!(edge_disjoint_paths(hx.network(), a, b), radix);
        }
    }

    #[test]
    fn edge_disjoint_paths_drop_with_faults_and_hit_zero_when_disconnected() {
        let hx = HyperX::regular(2, 3);
        let mut net = hx.network().clone();
        let a = hx.switch_id(&[0, 0]);
        let b = hx.switch_id(&[2, 2]);
        let healthy = edge_disjoint_paths(&net, a, b);
        // Cut all links of `a` but one.
        let neighbors: Vec<_> = net.neighbors(a).map(|(_, nb)| nb.switch).collect();
        for &nb in &neighbors[1..] {
            net.remove_link(a, nb);
        }
        assert_eq!(edge_disjoint_paths(&net, a, b), 1);
        assert!(healthy > 1);
        net.remove_link(a, neighbors[0]);
        assert_eq!(edge_disjoint_paths(&net, a, b), 0);
    }

    #[test]
    fn distance_histogram_of_2d_hyperx() {
        // 4×4 HyperX: each switch has 6 neighbours at distance 1 and 9 at
        // distance 2; 16 switches → 48 pairs at distance 1, 72 at distance 2.
        let hx = HyperX::regular(2, 4);
        let hist = DistanceHistogram::from_network(hx.network());
        assert_eq!(hist.counts.get(1), Some(&48));
        assert_eq!(hist.counts.get(2), Some(&72));
        assert_eq!(hist.unreachable_pairs, 0);
        assert_eq!(hist.reachable_pairs(), 120);
        assert_eq!(hist.max_distance(), Some(2));
        let mean = hist.mean_distance().unwrap();
        assert!((mean - (48.0 + 2.0 * 72.0) / 120.0).abs() < 1e-12);
    }

    #[test]
    fn distance_histogram_counts_unreachable_pairs() {
        let mut net = complete_graph(4);
        for x in 1..4 {
            net.remove_link(0, x);
        }
        let hist = DistanceHistogram::from_network(&net);
        assert_eq!(hist.unreachable_pairs, 3);
        assert_eq!(hist.reachable_pairs(), 3);
    }

    #[test]
    fn table3_average_distance_from_histogram() {
        // The histogram reproduces Table 3's average distance for the 2D network.
        let hx = HyperX::regular(2, 16);
        let hist = DistanceHistogram::from_network(hx.network());
        let mean = hist.mean_distance().unwrap();
        assert!((mean - 1.8823529411764706).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn survivability_report_on_row_faults() {
        let hx = HyperX::regular(2, 8);
        let healthy = hx.network().clone();
        let mut faulty = healthy.clone();
        let shape = FaultShape::Row {
            along_dim: 0,
            at: vec![0, 3],
        };
        FaultSet::from_shape(&shape, &hx).apply(&mut faulty);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let report = survivability_under_faults(&healthy, &faulty, Some(200), &mut rng);
        assert_eq!(report.pairs.len(), 200);
        // Removing one row never disconnects an 8×8 HyperX.
        assert_eq!(report.survival_ratio(), 1.0);
        // Pairs inside the removed row must take a detour of exactly one extra hop.
        assert!(report.max_stretch() <= 2);
        assert!(report.mean_path_retention() > 0.0);
    }

    #[test]
    fn survivability_detects_disconnection() {
        let hx = HyperX::regular(1, 4);
        let healthy = hx.network().clone();
        let mut faulty = healthy.clone();
        // Isolate switch 0 completely.
        for x in 1..4 {
            faulty.remove_link(0, x);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let report = survivability_under_faults(&healthy, &faulty, None, &mut rng);
        assert!(report.survival_ratio() < 1.0);
        let dead = report.pairs.iter().filter(|p| !p.survives()).count();
        // 3 ordered pairs from 0 plus 3 into 0.
        assert_eq!(dead, 6);
    }

    #[test]
    fn pair_survivability_helpers() {
        let p = PairSurvivability {
            source: 0,
            dest: 1,
            healthy_distance: 1,
            faulty_distance: 3,
            healthy_paths: 4,
            faulty_paths: 2,
        };
        assert!(p.survives());
        assert_eq!(p.distance_stretch(), 2);
        let dead = PairSurvivability {
            faulty_distance: UNREACHABLE,
            ..p
        };
        assert!(!dead.survives());
        assert_eq!(dead.distance_stretch(), 0);
    }

    #[test]
    fn bisection_counts_match_formula() {
        // k = 4: per row, links crossing the half split = 2·2 = 4; the 2D
        // network has 4 rows per dimension ⇒ 16 crossing links along dim 0.
        let hx = HyperX::regular(2, 4);
        let crossing = dimension_bisection_links(&hx, hx.network(), 0);
        assert_eq!(crossing, 16);
        // Removing one crossing link reduces the count.
        let mut net = hx.network().clone();
        let a = hx.switch_id(&[0, 0]);
        let b = hx.switch_id(&[2, 0]);
        net.remove_link(a, b);
        assert_eq!(dimension_bisection_links(&hx, &net, 0), 15);
    }

    #[test]
    fn rpn_throughput_bound_matches_paper_bisection_argument() {
        // §4: in a K_k row with k/2 confined source/destination pairs, the
        // k²/2 server flows share k²/4 source→destination links ⇒ load 0.5.
        let k = 8usize;
        let source_dest_links = (k / 2) * (k / 2);
        let flows = k * k / 2;
        assert_eq!(source_dest_links * 2, flows);
    }
}
