//! The opportunistic Up/Down escape subnetwork of SurePath (paper §3.2).
//!
//! Starting from a chosen root switch, every link is classified by comparing
//! its endpoints' BFS distance to the root:
//!
//! * different distances → an **Up/Down link** (the paper's *black* links);
//! * equal distances → a **horizontal link** (the paper's *red* links),
//!   usable only opportunistically as a *shortcut*.
//!
//! The *Up/Down distance* between two switches is the length of the shortest
//! path made of an Up sub-path (every hop one level closer to the root)
//! followed by a Down sub-path (every hop one level further from the root).
//! A horizontal link is a valid escape hop only when it strictly reduces the
//! Up/Down distance to the destination — exactly the table rule described in
//! the paper ("each entry with a value greater than 0 representing a valid
//! candidate").
//!
//! The all-pairs Up/Down table stores one byte per entry whenever twice
//! the tree's depth fits in 254, which the root BFS tells before the table
//! is allocated, and two bytes otherwise; [`UpDownEscape::updown_distance`]
//! reads `u16`s either way, and [`UpDownEscape::escape_candidates`], which
//! only subtracts and compares finite entries, reads them unwidened.

use crate::bfs::{bfs_distances, UNREACHABLE};
use crate::graph::{Adjacency, Network, PortId, SwitchId};
use crate::lanes::{Hop, HopTable, Lanes, LevelCounts, WIDTH};
use serde::{Deserialize, Serialize};

/// Classification of a live link with respect to the escape root.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// The far endpoint is one level closer to the root (a black link walked upward).
    Up,
    /// The far endpoint is one level further from the root (a black link walked downward).
    Down,
    /// Both endpoints are at the same level (a red link, usable as a shortcut).
    Horizontal,
}

/// An escape-subnetwork candidate hop offered at some switch for some destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EscapeCandidate {
    /// Output port to request.
    pub port: PortId,
    /// Switch on the other side of the port.
    pub neighbor: SwitchId,
    /// Link class of the hop (determines its penalty).
    pub class: LinkClass,
    /// Strictly positive reduction of the Up/Down distance to the destination.
    pub reduction: u16,
}

/// The escape subnetwork: levels, each port's far switch and link class, and
/// all-pairs Up/Down distances.
///
/// Rebuild the structure (with [`UpDownEscape::new`]) whenever the set of
/// alive links changes. The construction is one BFS from the root (levels
/// and link classes) plus, per batch of 256 destinations, one sweep per
/// level over the parent links: `⌈n/256⌉ · depth · (n + parent links)`
/// lane operations and one contiguous write per pair, BFS-like work in the
/// spirit of the paper's cost for recomputing Minimal routing tables, with
/// `O(n · log₂ depth)` lanes of scratch beyond the `n × n` distance table
/// (see `compute_updown_distances`). No Up/Down distance exceeds twice the
/// depth of the tree, so the table takes one byte per entry when that is
/// at most 254 and two bytes otherwise.
#[derive(Clone, Debug)]
pub struct UpDownEscape {
    root: SwitchId,
    levels: Vec<u16>,
    /// `links[s·stride + p]`: the switch behind port `p` of switch `s` and
    /// the link's class, `None` for a dead port (or one the switch lacks).
    links: Vec<Option<(u32, LinkClass)>>,
    /// Ports per switch row of `links` (the network's largest port count).
    stride: usize,
    /// Flat `n × n` matrix of Up/Down distances, one or two bytes each.
    updown: HopTable,
}

impl UpDownEscape {
    /// Builds the escape subnetwork rooted at `root` over the alive links of `net`.
    ///
    /// # Panics
    /// Panics if the network is disconnected — an escape subnetwork cannot
    /// guarantee delivery in that case, and the caller should detect it first.
    pub fn new(net: &Network, root: SwitchId) -> Self {
        let n = net.num_switches();
        let levels = bfs_distances(net, root);
        assert!(
            !levels.contains(&UNREACHABLE),
            "the escape subnetwork requires a connected network"
        );

        assert!(
            u32::try_from(n).is_ok(),
            "{n} switches do not fit a 32-bit id"
        );
        let stride = net.max_ports();
        let mut links = vec![None; n * stride];
        for (s, row) in links.chunks_exact_mut(stride.max(1)).take(n).enumerate() {
            for (p, nb) in net.neighbors(s) {
                let class = match levels[nb.switch].cmp(&levels[s]) {
                    std::cmp::Ordering::Less => LinkClass::Up,
                    std::cmp::Ordering::Greater => LinkClass::Down,
                    std::cmp::Ordering::Equal => LinkClass::Horizontal,
                };
                row[p] = Some((nb.switch as u32, class));
            }
        }

        let depth = levels.iter().copied().max().unwrap_or(0);
        // Every entry is written once, so the zeroed allocation is never
        // filled up front.
        let mut updown = HopTable::zeroed(n, 2 * usize::from(depth));
        updown.write(
            |out| Self::compute_updown_distances(net, &levels, depth, out),
            |out| Self::compute_updown_distances(net, &levels, depth, out),
        );
        UpDownEscape {
            root,
            levels,
            links,
            stride,
            updown,
        }
    }

    /// Up/Down distances, 256 destinations per batch.
    ///
    /// `UpReach(x)` is the set of switches reachable from `x` using only Up
    /// hops. The Up/Down distance is
    /// `ud(x, y) = level(x) + level(y) − 2·max{ level(z) : z ∈ UpReach(x) ∩ UpReach(y) }`,
    /// always defined because the root belongs to every `UpReach` set.
    ///
    /// For a batch, one reverse sweep of the switches by level, each
    /// pushing its set to its parents, gives `M(z)`: the batch's
    /// destinations at or below `z`. Then, per level `L ≥ 1`, the switches
    /// of level `L` start from `M` and every deeper switch ORs its parents'
    /// sets, giving `B_L(x)`: the destinations that share an ancestor with
    /// `x` at level `L`. A shared ancestor's parent is shared too, so the
    /// sets are nested, `B_L(x) ⊆ B_{L−1}(x)`, and the deepest shared level
    /// is `#{L ≥ 1 : y ∈ B_L(x)}`, the count a bit-sliced counter per switch
    /// holds. The table is symmetric, so each switch writes its own row's
    /// 256-entry segment of `out` once: `level(x) + level(y) − 2·count`.
    fn compute_updown_distances<E: Hop>(net: &Network, levels: &[u16], depth: u16, out: &mut [E]) {
        let n = net.num_switches();
        let parents = Adjacency::from_fn(n, |s| {
            net.neighbors(s)
                .map(|(_, nb)| nb.switch)
                .filter(move |&t| levels[t] + 1 == levels[s])
        });
        // Switches in increasing level; those of level `l` and deeper are
        // `order[from[l]..]`.
        let mut order: Vec<SwitchId> = (0..n).collect();
        order.sort_by_key(|&s| levels[s]);
        let from: Vec<usize> = (0..=depth + 1)
            .map(|l| order.partition_point(|&s| levels[s] < l))
            .collect();

        let mut below = vec![Lanes::ZERO; n];
        let mut shared = vec![Lanes::ZERO; n];
        let mut counts = LevelCounts::new(n);
        for base in (0..n).step_by(WIDTH) {
            let batch = (n - base).min(WIDTH);
            below.fill(Lanes::ZERO);
            for i in 0..batch {
                below[base + i] = Lanes::single(i);
            }
            for &x in order.iter().rev() {
                let mine = below[x];
                for &p in parents.neighbors(x) {
                    below[p] |= mine;
                }
            }
            counts.clear();
            for level in 1..=usize::from(depth) {
                let at = &order[from[level]..from[level + 1]];
                let deeper = &order[from[level + 1]..];
                for &x in at {
                    shared[x] = below[x];
                    counts.add(x, below[x]);
                }
                for &x in deeper {
                    let common = parents
                        .neighbors(x)
                        .iter()
                        .fold(Lanes::ZERO, |acc, &p| acc | shared[p]);
                    shared[x] = common;
                    counts.add(x, common);
                }
            }
            let batch_levels = &levels[base..base + batch];
            for (x, row) in out.chunks_exact_mut(n).enumerate() {
                let segment = &mut row[base..base + batch];
                // Wrapping, as the subtraction is: exact whenever `ud` fits.
                for (entry, &level) in segment.iter_mut().zip(batch_levels) {
                    *entry = E::wrap(levels[x].wrapping_add(level));
                }
                counts.subtract_from(x, segment, 2);
            }
        }
    }

    /// The root switch of the escape subnetwork.
    pub fn root(&self) -> SwitchId {
        self.root
    }

    /// BFS level (distance to the root) of switch `s`.
    pub fn level(&self, s: SwitchId) -> u16 {
        self.levels[s]
    }

    /// Class of the live link at port `p` of switch `s`, or `None` for dead ports.
    pub fn link_class(&self, s: SwitchId, p: PortId) -> Option<LinkClass> {
        self.links[s * self.stride..(s + 1) * self.stride][p].map(|(_, class)| class)
    }

    /// Up/Down distance between two switches.
    #[inline]
    pub fn updown_distance(&self, a: SwitchId, b: SwitchId) -> u16 {
        self.updown.row(a).get(b)
    }

    /// Bytes each Up/Down distance takes: 1 when twice the tree's depth
    /// fits in 254, 2 otherwise.
    pub fn bytes_per_entry(&self) -> usize {
        self.updown.bytes_per_entry()
    }

    /// The escape candidates offered at `current` for a packet heading to `dest`:
    /// every live port whose far endpoint strictly reduces the Up/Down distance,
    /// in port order. Lazy, so the simulator's hot path never allocates here.
    ///
    /// Yields nothing only when `current == dest`.
    #[inline]
    pub fn escape_candidates(
        &self,
        current: SwitchId,
        dest: SwitchId,
    ) -> impl Iterator<Item = EscapeCandidate> + '_ {
        // Up/Down distances are symmetric, so row `dest` holds every
        // distance read here. At the destination `here` is 0, so nothing
        // can reduce it. The tree spans a connected network, so every
        // entry is finite and reads the same unwidened.
        let to_dest = self.updown.row(dest);
        let here = to_dest.unwidened(current);
        let row = &self.links[current * self.stride..(current + 1) * self.stride];
        row.iter().enumerate().filter_map(move |(port, link)| {
            let (neighbor, class) = (*link)?;
            let there = to_dest.unwidened(neighbor as usize);
            (there < here).then(|| EscapeCandidate {
                port,
                neighbor: neighbor as SwitchId,
                class,
                reduction: here - there,
            })
        })
    }

    /// Number of links per class, useful for diagnostics and the
    /// `escape_anatomy` example.
    pub fn class_census(&self, net: &Network) -> ClassCensus {
        let mut census = ClassCensus::default();
        for s in 0..self.levels.len() {
            for (p, nb) in net.neighbors(s) {
                if s < nb.switch {
                    match self.link_class(s, p).unwrap() {
                        LinkClass::Up | LinkClass::Down => census.updown += 1,
                        LinkClass::Horizontal => census.horizontal += 1,
                    }
                }
            }
        }
        census
    }
}

/// Counts of escape-subnetwork link classes (black vs red links).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCensus {
    /// Links whose endpoints are at different levels (black).
    pub updown: usize,
    /// Links whose endpoints are at the same level (red).
    pub horizontal: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::HyperX;

    #[test]
    fn figure2_example_classification() {
        // The 4×4 HyperX of Figure 2 rooted at (0,0): the link (1,0)-(1,1) is
        // black (levels 1 and 2) and the link (1,0)-(2,0) is red (both level 1).
        let hx = HyperX::regular(2, 4);
        let root = hx.switch_id(&[0, 0]);
        let esc = UpDownEscape::new(hx.network(), root);
        let s10 = hx.switch_id(&[1, 0]);
        let s11 = hx.switch_id(&[1, 1]);
        let s20 = hx.switch_id(&[2, 0]);
        assert_eq!(esc.level(s10), 1);
        assert_eq!(esc.level(s11), 2);
        assert_eq!(esc.level(s20), 1);
        let p_black = hx.network().port_towards(s10, s11).unwrap();
        let p_red = hx.network().port_towards(s10, s20).unwrap();
        assert_eq!(esc.link_class(s10, p_black), Some(LinkClass::Down));
        assert_eq!(
            esc.link_class(s11, hx.network().port_towards(s11, s10).unwrap()),
            Some(LinkClass::Up)
        );
        assert_eq!(esc.link_class(s10, p_red), Some(LinkClass::Horizontal));
    }

    #[test]
    fn figure2_updown_distances() {
        // From the paper: (1,0) and (2,0) are at Up/Down distance 2 (one Up,
        // one Down); (0,1) to (0,3) has Up/Down distance 2 but the direct red
        // link reduces it, so it must appear as a candidate.
        let hx = HyperX::regular(2, 4);
        let root = hx.switch_id(&[0, 0]);
        let esc = UpDownEscape::new(hx.network(), root);
        let s10 = hx.switch_id(&[1, 0]);
        let s20 = hx.switch_id(&[2, 0]);
        assert_eq!(esc.updown_distance(s10, s20), 2);
        let s01 = hx.switch_id(&[0, 1]);
        let s03 = hx.switch_id(&[0, 3]);
        assert_eq!(esc.updown_distance(s01, s03), 2);
        let cands: Vec<_> = esc.escape_candidates(s01, s03).collect();
        let direct_port = hx.network().port_towards(s01, s03).unwrap();
        let direct = cands.iter().find(|c| c.port == direct_port).unwrap();
        assert_eq!(direct.class, LinkClass::Horizontal);
        assert_eq!(direct.reduction, 2);
        // The paper: the link from (0,1) to (0,2) is never a candidate since
        // it does not decrease the Up/Down distance.
        let s02 = hx.switch_id(&[0, 2]);
        let bad_port = hx.network().port_towards(s01, s02).unwrap();
        assert!(cands.iter().all(|c| c.port != bad_port));
    }

    #[test]
    fn updown_distance_is_symmetric_and_zero_on_diagonal() {
        let hx = HyperX::regular(2, 5);
        let esc = UpDownEscape::new(hx.network(), 0);
        let n = hx.num_switches();
        for a in 0..n {
            assert_eq!(esc.updown_distance(a, a), 0);
            for b in 0..n {
                assert_eq!(esc.updown_distance(a, b), esc.updown_distance(b, a));
            }
        }
    }

    #[test]
    fn updown_distance_bounds() {
        // graph distance ≤ up/down distance ≤ level(a) + level(b)
        let hx = HyperX::regular(3, 3);
        let esc = UpDownEscape::new(hx.network(), 0);
        let d = crate::bfs::DistanceMatrix::compute(hx.network());
        for a in 0..hx.num_switches() {
            for b in 0..hx.num_switches() {
                let ud = esc.updown_distance(a, b);
                assert!(ud >= d.get(a, b));
                assert!(ud <= esc.level(a) + esc.level(b));
            }
        }
    }

    #[test]
    fn escape_candidates_always_exist_and_make_progress() {
        let hx = HyperX::regular(2, 4);
        let esc = UpDownEscape::new(hx.network(), 5);
        for cur in 0..hx.num_switches() {
            for dest in 0..hx.num_switches() {
                let cands: Vec<_> = esc.escape_candidates(cur, dest).collect();
                if cur == dest {
                    assert!(cands.is_empty());
                } else {
                    assert!(
                        !cands.is_empty(),
                        "no escape candidate from {cur} to {dest}"
                    );
                    for c in cands {
                        assert!(c.reduction > 0);
                        assert_eq!(
                            esc.updown_distance(cur, dest) - esc.updown_distance(c.neighbor, dest),
                            c.reduction
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn escape_survives_faults_while_connected() {
        let hx = HyperX::regular(2, 4);
        let mut net = hx.network().clone();
        // Remove a whole row (the worst structured shape for a 4×4) and rebuild.
        let shape = crate::faults::FaultShape::Row {
            along_dim: 0,
            at: vec![0, 2],
        };
        crate::faults::FaultSet::from_shape(&shape, &hx).apply(&mut net);
        assert!(net.is_connected());
        let esc = UpDownEscape::new(&net, 0);
        for cur in 0..hx.num_switches() {
            for dest in 0..hx.num_switches() {
                if cur != dest {
                    assert!(esc.escape_candidates(cur, dest).next().is_some());
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn disconnected_network_rejected() {
        let mut net = crate::complete::complete_graph(4);
        for x in 1..4 {
            net.remove_link(0, x);
        }
        let _ = UpDownEscape::new(&net, 1);
    }

    #[test]
    fn hyperx_minimal_horizontal_hops_reduce_updown_by_two() {
        // Paper §3.2: "In the HyperX, minimal paths that use horizontal links
        // reduce the Up/Down distance by +2 each step".
        let hx = HyperX::regular(2, 4);
        let root = hx.switch_id(&[0, 0]);
        let esc = UpDownEscape::new(hx.network(), root);
        // (0,1) -> (0,3): the direct link is horizontal and reduces by 2.
        let a = hx.switch_id(&[0, 1]);
        let b = hx.switch_id(&[0, 3]);
        let cands: Vec<_> = esc.escape_candidates(a, b).collect();
        let direct = cands
            .iter()
            .find(|c| c.neighbor == b)
            .expect("direct neighbor must be a candidate");
        assert_eq!(direct.class, LinkClass::Horizontal);
        assert_eq!(direct.reduction, 2);
    }

    #[test]
    fn class_census_totals_match_link_count() {
        let hx = HyperX::regular(2, 4);
        let esc = UpDownEscape::new(hx.network(), 0);
        let census = esc.class_census(hx.network());
        assert_eq!(census.updown + census.horizontal, hx.network().num_links());
        assert!(census.updown > 0 && census.horizontal > 0);
    }
}
