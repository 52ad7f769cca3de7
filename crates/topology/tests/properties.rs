//! Property-based tests of the topology substrate.

use hyperx_topology::bfs::UNREACHABLE;
use hyperx_topology::{
    bfs_distances, diameter_under_fault_sequence, CoordinateSystem, DistanceMatrix, FaultSet,
    FaultShape, HyperX, LinkId, Network, RootPolicy, UpDownEscape,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Strategy: HyperX sides with 1 to 3 dimensions of side 2..=6, capped in total size.
fn sides_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..=6, 1..=3).prop_filter("keep networks small", |sides| {
        sides.iter().product::<usize>() <= 128
    })
}

/// Strategy: HyperX sides whose switch count sits just below, on or just
/// above a multiple of 64, where a batch of the all-pairs passes changes word.
fn word_boundary_sides_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..=16, 1..=3).prop_filter("n near a word boundary", |sides| {
        [63, 64, 65, 100, 126, 128, 130].contains(&sides.iter().product::<usize>())
    })
}

/// HyperX sides whose switch count sits just below, on or just above 256
/// and 512, where the all-pairs passes start a new batch of sources.
const BATCH_BOUNDARY_SIDES: [&[usize]; 5] =
    [&[7, 6, 6], &[16, 16], &[13, 20], &[8, 8, 8], &[5, 8, 13]];

/// Brute-force Up/Down distances straight from the definition:
/// `level(x) + level(y) − 2·max{ level(z) : z ∈ UpReach(x) ∩ UpReach(y) }`,
/// where `UpReach(x)` holds every switch reachable from `x` by Up hops.
fn updown_oracle(net: &Network, root: usize) -> Vec<u16> {
    let n = net.num_switches();
    let levels = bfs_distances(net, root);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&s| levels[s]);
    let mut up_reach = vec![vec![false; n]; n];
    for &x in &order {
        up_reach[x][x] = true;
        for (_, nb) in net.neighbors(x) {
            if levels[nb.switch] + 1 == levels[x] {
                let parent = up_reach[nb.switch].clone();
                for (mine, theirs) in up_reach[x].iter_mut().zip(parent) {
                    *mine |= theirs;
                }
            }
        }
    }
    // Each up-reach set listed deepest first, so the first member of
    // UpReach(x) that is also in UpReach(y) is the deepest common one.
    let deepest_first: Vec<Vec<usize>> = up_reach
        .iter()
        .map(|reach| order.iter().rev().copied().filter(|&z| reach[z]).collect())
        .collect();
    let mut out = vec![0u16; n * n];
    for x in 0..n {
        for y in 0..n {
            let deepest_common = deepest_first[x]
                .iter()
                .find(|&&z| up_reach[y][z])
                .map(|&z| levels[z])
                .expect("the root is in every up-reach set");
            out[x * n + y] = levels[x] + levels[y] - 2 * deepest_common;
        }
    }
    out
}

/// Checks every row of the distance matrix of `net` against a single-source
/// BFS, and its connectivity and diameter against a scan of the entries.
fn check_distances(net: &Network, what: &str) {
    let d = DistanceMatrix::compute(net);
    let mut deepest = 0;
    for s in 0..net.num_switches() {
        let row = bfs_distances(net, s);
        assert_eq!(d.row(s).iter().collect::<Vec<_>>(), row, "{what}: row {s}");
        deepest = row
            .iter()
            .copied()
            .filter(|&x| x != UNREACHABLE)
            .fold(deepest, u16::max);
    }
    let connected = net.is_connected();
    assert_eq!(d.is_connected(), connected, "{what}");
    assert_eq!(
        d.diameter_checked(),
        connected.then_some(usize::from(deepest)),
        "{what}"
    );
}

/// Checks the Up/Down table of `net` rooted at `root` against the oracle.
fn check_updown(net: &Network, root: usize, what: &str) {
    let n = net.num_switches();
    let esc = UpDownEscape::new(net, root);
    let oracle = updown_oracle(net, root);
    for x in 0..n {
        for y in 0..n {
            assert_eq!(
                esc.updown_distance(x, y),
                oracle[x * n + y],
                "{what}: ({x}, {y})"
            );
        }
    }
}

/// A random fault sequence over every link of `hx`, and the length of its
/// shortest prefix that disconnects the network.
fn sequence_to_disconnection(hx: &HyperX, seed: u64) -> (FaultSet, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let all = FaultSet::random_sequence(hx.network(), hx.network().num_links(), &mut rng);
    let connected = |count: usize| {
        let mut net = hx.network().clone();
        all.prefix(count).apply(&mut net);
        net.is_connected()
    };
    // Removing links never reconnects, so bisect on the prefix length.
    let (mut lo, mut hi) = (0, all.len());
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if connected(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (all, hi)
}

/// `hx` faulted down to one Hamiltonian path: every link fails except those
/// between consecutive switches of `path`.
fn faulted_to_path(hx: &HyperX, path: &[usize]) -> Network {
    assert_eq!(path.len(), hx.num_switches());
    let kept: HashSet<LinkId> = path.windows(2).map(|w| LinkId::new(w[0], w[1])).collect();
    let mut net = hx.network().clone();
    let failed = net
        .links()
        .into_iter()
        .filter(|l| !kept.contains(l))
        .collect();
    FaultSet::from_links(failed).apply(&mut net);
    net
}

#[test]
fn distance_matrix_equals_per_source_bfs_up_to_disconnection() {
    // Halfway to disconnection, one fault before it and once disconnected,
    // on both sides of a batch boundary.
    for (i, sides) in BATCH_BOUNDARY_SIDES.iter().enumerate() {
        let hx = HyperX::new(sides);
        let (faults, cut) = sequence_to_disconnection(&hx, i as u64);
        for count in [cut / 2, cut - 1, cut] {
            let mut net = hx.network().clone();
            faults.prefix(count).apply(&mut net);
            check_distances(&net, &format!("{sides:?} with {count} faults"));
        }
    }
}

#[test]
fn updown_distances_equal_the_oracle_on_both_sides_of_a_batch_boundary() {
    // Healthy, halfway to disconnection and one fault before it.
    for (i, sides) in BATCH_BOUNDARY_SIDES.iter().enumerate() {
        let hx = HyperX::new(sides);
        let n = hx.num_switches();
        let (faults, cut) = sequence_to_disconnection(&hx, i as u64);
        for count in [0, cut / 2, cut - 1] {
            let mut net = hx.network().clone();
            faults.prefix(count).apply(&mut net);
            let root = (count * 7 + i) % n;
            check_updown(&net, root, &format!("{sides:?} with {count} faults"));
        }
    }
}

#[test]
fn tables_of_hamiltonian_paths_carry_into_high_count_planes() {
    // Rooted at one end, switch path[i] sits at level i, so the distance
    // matrix counts up to n − 1 levels per batch and the Up/Down pass up to
    // n − 1 shared levels: nine planes for these lengths. Along a path both
    // distances are |i − j|.
    let line = HyperX::new(&[257]);
    let line_path: Vec<usize> = (0..257).collect();
    let grid = HyperX::new(&[16, 17]);
    let snake: Vec<usize> = (0..17)
        .flat_map(|row| (0..16).map(move |i| [if row % 2 == 0 { i } else { 15 - i }, row]))
        .map(|coords| grid.switch_id(&coords))
        .collect();
    for (hx, path) in [(&line, line_path), (&grid, snake)] {
        let net = faulted_to_path(hx, &path);
        let n = net.num_switches();
        let d = DistanceMatrix::compute(&net);
        let esc = UpDownEscape::new(&net, path[0]);
        assert_eq!(d.diameter_checked(), Some(n - 1));
        for (i, &a) in path.iter().enumerate() {
            assert_eq!(usize::from(esc.level(a)), i);
            for (j, &b) in path.iter().enumerate() {
                let along = i.abs_diff(j) as u16;
                assert_eq!(d.get(a, b), along, "d({a}, {b}) on {n} switches");
                assert_eq!(
                    esc.updown_distance(a, b),
                    along,
                    "ud({a}, {b}) on {n} switches"
                );
            }
        }
    }
}

#[test]
fn each_table_takes_one_byte_exactly_when_its_entries_fit() {
    // Along a path of 255 switches the largest distance is 254, and of
    // 256 switches 255. Rooted in the middle, the escape trees are 127 and
    // 128 deep, and their largest Up/Down distances are 254 and 255 too.
    for (n, bytes) in [(255, 1), (256, 2)] {
        let path: Vec<usize> = (0..n).collect();
        let net = faulted_to_path(&HyperX::new(&[n]), &path);
        let d = DistanceMatrix::compute(&net);
        let esc = UpDownEscape::new(&net, n / 2);
        assert_eq!(d.bytes_per_entry(), bytes, "distances on {n} switches");
        assert_eq!(esc.level(0), (n / 2) as u16);
        assert_eq!(esc.bytes_per_entry(), bytes, "escape on {n} switches");
        for a in 0..n {
            for b in 0..n {
                let along = a.abs_diff(b) as u16;
                assert_eq!(d.get(a, b), along, "d({a}, {b}) on {n} switches");
                assert_eq!(esc.updown_distance(a, b), along, "ud({a}, {b})");
            }
        }
        assert_eq!(d.get(0, n - 1), (n - 1) as u16);
        assert_eq!(esc.updown_distance(n - 1, 0), (n - 1) as u16);
    }
}

#[test]
fn disconnected_pairs_read_unreachable_in_both_widths() {
    // A path cut in the middle: on 255 switches every finite distance
    // still fits one byte; on 256 the search from switch 0 misses half.
    for (n, bytes) in [(255, 1), (256, 2)] {
        let path: Vec<usize> = (0..n).collect();
        let mut net = faulted_to_path(&HyperX::new(&[n]), &path);
        net.remove_link(n / 2 - 1, n / 2);
        let d = DistanceMatrix::compute(&net);
        assert_eq!(d.bytes_per_entry(), bytes, "{n} switches");
        assert_eq!(d.get(0, n - 1), UNREACHABLE);
        assert_eq!(d.get(n - 1, 0), UNREACHABLE);
        check_distances(&net, &format!("a cut path of {n} switches"));
    }
}

/// Checks that every row of `d` reads the two ends of each live link of
/// `net` unwidened with the difference and the order `get` gives them.
fn check_unwidened_reads(net: &Network, d: &DistanceMatrix, what: &str) {
    let n = net.num_switches();
    for r in 0..n {
        let row = d.row(r);
        for a in 0..n {
            for (_, nb) in net.neighbors(a) {
                let b = nb.switch;
                let (ua, ub) = (row.unwidened(a), row.unwidened(b));
                let (ga, gb) = (row.get(a), row.get(b));
                assert_eq!(
                    i32::from(ua) - i32::from(ub),
                    i32::from(ga) - i32::from(gb),
                    "row {r}, link ({a}, {b}) on {what}"
                );
                assert_eq!(
                    ua.cmp(&ub),
                    ga.cmp(&gb),
                    "row {r}, link ({a}, {b}) on {what}"
                );
            }
        }
    }
}

#[test]
fn unwidened_reads_of_live_links_match_get_in_both_widths() {
    // Paths of 255 and 257 switches with the last one cut off: the rest
    // spans 253 and 255 hops, one and two bytes per entry, and every row
    // holds unreachable entries, which read 255 unwidened in one byte.
    for (n, bytes, unreachable) in [(255, 1, 255), (257, 2, UNREACHABLE)] {
        let path: Vec<usize> = (0..n).collect();
        let mut net = faulted_to_path(&HyperX::new(&[n]), &path);
        net.remove_link(n - 2, n - 1);
        let d = DistanceMatrix::compute(&net);
        assert_eq!(d.bytes_per_entry(), bytes, "{n} switches");
        assert_eq!(d.get(0, n - 1), UNREACHABLE);
        assert_eq!(d.row(0).unwidened(n - 1), unreachable);
        check_unwidened_reads(&net, &d, &format!("a path of {n} switches"));
    }
    // A faulted 5x5 whose switch 0 lost every link.
    let hx = HyperX::regular(2, 5);
    let mut net = hx.network().clone();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    FaultSet::random_sequence(hx.network(), 12, &mut rng).apply(&mut net);
    for nb in net
        .neighbors(0)
        .map(|(_, nb)| nb.switch)
        .collect::<Vec<_>>()
    {
        net.remove_link(0, nb);
    }
    let d = DistanceMatrix::compute(&net);
    assert_eq!(d.bytes_per_entry(), 1);
    assert_eq!(d.get(1, 0), UNREACHABLE);
    check_unwidened_reads(&net, &d, "a 5x5 with an isolated switch");
}

#[test]
fn the_fault_sweep_view_of_the_table_fixture_takes_one_byte() {
    // `12x12x12/random:200:1` of `table_digests.rs`, rooted at switch 0.
    let hx = HyperX::regular(3, 12);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut net = hx.network().clone();
    FaultSet::random_sequence(hx.network(), 200, &mut rng).apply(&mut net);
    assert_eq!(DistanceMatrix::compute(&net).bytes_per_entry(), 1);
    assert_eq!(UpDownEscape::new(&net, 0).bytes_per_entry(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn distance_matrix_equals_per_source_bfs(
        sides in word_boundary_sides_strategy(),
        fault_count in 0usize..400,
        seed in 0u64..1000,
    ) {
        // Unconstrained faults: large counts disconnect the network, so
        // UNREACHABLE entries are covered too.
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_sequence(&net, fault_count.min(net.num_links()), &mut rng).apply(&mut net);
        let d = DistanceMatrix::compute(&net);
        for s in 0..net.num_switches() {
            prop_assert_eq!(d.row(s).iter().collect::<Vec<_>>(), bfs_distances(&net, s), "row {}", s);
        }
    }

    #[test]
    fn connectivity_and_diameter_equal_a_full_scan(
        sides in word_boundary_sides_strategy(),
        fault_count in 0usize..400,
        seed in 0u64..1000,
    ) {
        // `compute` records both answers while its searches run; a scan of
        // all n² entries is the definition. Large fault counts disconnect
        // the network, and up to three words of a batch's lanes must agree.
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_sequence(&net, fault_count.min(net.num_links()), &mut rng).apply(&mut net);
        let d = DistanceMatrix::compute(&net);
        let entries = || (0..net.num_switches()).flat_map(|s| d.row(s).iter());
        let connected = entries().all(|x| x != UNREACHABLE);
        let deepest = entries().filter(|&x| x != UNREACHABLE).max().unwrap_or(0) as usize;
        prop_assert_eq!(d.is_connected(), connected);
        prop_assert_eq!(d.diameter_checked(), connected.then_some(deepest));
        prop_assert_eq!(d.diameter(), if connected { deepest } else { usize::MAX });
        if connected {
            let n = net.num_switches() as f64;
            let total: u64 = entries().map(u64::from).sum();
            prop_assert_eq!(d.average_distance(), total as f64 / (n * (n - 1.0)));
        }
    }

    #[test]
    fn updown_distances_equal_the_up_reach_oracle(
        sides in word_boundary_sides_strategy(),
        fault_count in 0usize..200,
        seed in 0u64..1000,
    ) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_connected_sequence(&net, fault_count, &mut rng).apply(&mut net);
        let n = net.num_switches();
        let root = (seed as usize * 7) % n;
        let esc = UpDownEscape::new(&net, root);
        let oracle = updown_oracle(&net, root);
        for x in 0..n {
            for y in 0..n {
                prop_assert_eq!(esc.updown_distance(x, y), oracle[x * n + y], "({}, {})", x, y);
            }
        }
    }

    #[test]
    fn distance_tables_are_symmetric_under_faults(
        sides in word_boundary_sides_strategy(),
        fault_count in 0usize..200,
        seed in 0u64..1000,
    ) {
        // Polarized routing reads rows `source` and `dest` of the distance
        // matrix, and the escape reads row `dest` of the Up/Down table, so
        // both tables must stay symmetric on faulted networks.
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_connected_sequence(&net, fault_count, &mut rng).apply(&mut net);
        let n = net.num_switches();
        let d = DistanceMatrix::compute(&net);
        let esc = UpDownEscape::new(&net, (seed as usize * 13) % n);
        for a in 0..n {
            for b in a + 1..n {
                prop_assert_eq!(d.get(a, b), d.get(b, a), "d({}, {})", a, b);
                prop_assert_eq!(
                    esc.updown_distance(a, b),
                    esc.updown_distance(b, a),
                    "ud({}, {})",
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn coordinate_lookup_and_hamming_distance_agree_with_to_coords(
        sides in prop::collection::vec(2usize..=9, 1..=4),
        seed in 0u64..1000,
    ) {
        // Random mixed-radix systems, up to 9^4 switches: sample pairs.
        let cs = CoordinateSystem::new(&sides);
        let n = cs.num_switches();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..64 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            let (ca, cb) = (cs.to_coords(a), cs.to_coords(b));
            for (d, &c) in ca.iter().enumerate() {
                prop_assert_eq!(cs.coord(a, d), c, "coord({}, {})", a, d);
            }
            let differing = ca.iter().zip(&cb).filter(|(x, y)| x != y).count();
            prop_assert_eq!(cs.hamming_distance(a, b), differing, "({}, {})", a, b);
        }
    }

    #[test]
    fn graph_distance_equals_hamming_distance(sides in sides_strategy()) {
        let hx = HyperX::new(&sides);
        let d = DistanceMatrix::compute(hx.network());
        for a in 0..hx.num_switches() {
            for b in 0..hx.num_switches() {
                prop_assert_eq!(d.get(a, b) as usize, hx.coords().hamming_distance(a, b));
            }
        }
    }

    #[test]
    fn single_source_bfs_matches_matrix(sides in sides_strategy(), seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let src = (seed as usize) % hx.num_switches();
        let d = DistanceMatrix::compute(hx.network());
        let row = bfs_distances(hx.network(), src);
        #[allow(clippy::needless_range_loop)] // b indexes row and matrix together
        for b in 0..hx.num_switches() {
            prop_assert_eq!(row[b], d.get(src, b));
        }
    }

    #[test]
    fn faults_apply_and_revert_roundtrip(sides in sides_strategy(), count in 0usize..20, seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let healthy = net.num_links();
        let count = count.min(healthy);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let faults = FaultSet::random_sequence(&net, count, &mut rng);
        prop_assert_eq!(faults.apply(&mut net), count);
        prop_assert_eq!(net.num_links(), healthy - count);
        prop_assert_eq!(net.num_faults(), count);
        prop_assert_eq!(faults.revert(&mut net), count);
        prop_assert_eq!(net.num_links(), healthy);
    }

    #[test]
    fn diameter_is_monotone_under_incremental_faults(sides in sides_strategy(), seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let total = hx.network().num_links();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let seq = FaultSet::random_sequence(hx.network(), total.min(40), &mut rng);
        let samples = diameter_under_fault_sequence(hx.network(), &seq, 5);
        let mut last = 0usize;
        for s in &samples {
            match s.diameter {
                Some(d) => {
                    prop_assert!(d >= last, "diameter shrank from {} to {}", last, d);
                    last = d;
                }
                None => break,
            }
        }
    }

    #[test]
    fn updown_distance_bounds_and_symmetry(sides in sides_strategy(), root_seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let root = (root_seed as usize) % hx.num_switches();
        let esc = UpDownEscape::new(hx.network(), root);
        let d = DistanceMatrix::compute(hx.network());
        for a in 0..hx.num_switches() {
            prop_assert_eq!(esc.updown_distance(a, a), 0);
            for b in 0..hx.num_switches() {
                let ud = esc.updown_distance(a, b);
                prop_assert_eq!(ud, esc.updown_distance(b, a));
                prop_assert!(ud >= d.get(a, b));
                prop_assert!(ud <= esc.level(a) + esc.level(b));
            }
        }
    }

    #[test]
    fn escape_candidates_exist_and_make_progress_under_faults(
        sides in sides_strategy(),
        fault_count in 0usize..25,
        seed in 0u64..1000,
    ) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Only keep faults that preserve connectivity (SurePath's precondition).
        let faults = FaultSet::random_connected_sequence(&net, fault_count, &mut rng);
        faults.apply(&mut net);
        prop_assert!(net.is_connected());
        let esc = UpDownEscape::new(&net, 0);
        for cur in 0..hx.num_switches() {
            for dest in 0..hx.num_switches() {
                let cands: Vec<_> = esc.escape_candidates(cur, dest).collect();
                if cur == dest {
                    prop_assert!(cands.is_empty());
                } else {
                    prop_assert!(!cands.is_empty(), "no escape candidate {} -> {}", cur, dest);
                    for c in cands {
                        prop_assert!(c.reduction > 0);
                        prop_assert_eq!(
                            esc.updown_distance(cur, dest) - esc.updown_distance(c.neighbor, dest),
                            c.reduction
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_shape_link_count_formula(dims in 2usize..=3, side in 3usize..=6, dim_seed in 0usize..3) {
        let hx = HyperX::regular(dims, side);
        let along_dim = dim_seed % dims;
        let shape = FaultShape::Row { along_dim, at: vec![0; dims] };
        prop_assert_eq!(shape.links(&hx).len(), side * (side - 1) / 2);
    }

    #[test]
    fn subgrid_shape_link_count_formula(dims in 2usize..=3, side in 4usize..=6, size in 2usize..=3) {
        prop_assume!(size <= side);
        let hx = HyperX::regular(dims, side);
        let shape = FaultShape::Subgrid { low: vec![0; dims], size };
        // Each of the dims · size^(dims-1) row segments is a complete K_size.
        let expected = dims * size.pow(dims as u32 - 1) * size * (size - 1) / 2;
        prop_assert_eq!(shape.links(&hx).len(), expected);
    }

    #[test]
    fn cross_shape_link_count_and_root_degree(dims in 2usize..=3, side in 4usize..=6, margin in 1usize..=2) {
        prop_assume!(margin < side);
        let hx = HyperX::regular(dims, side);
        let center = vec![side / 2; dims];
        let shape = FaultShape::Cross { center: center.clone(), margin };
        let arm = side - margin;
        prop_assert_eq!(shape.links(&hx).len(), dims * arm * (arm - 1) / 2);
        let mut net = hx.network().clone();
        FaultSet::from_shape(&shape, &hx).apply(&mut net);
        prop_assert_eq!(net.degree(hx.switch_id(&center)), dims * margin);
    }

    #[test]
    fn link_classes_partition_alive_links(sides in sides_strategy(), root_seed in 0u64..100) {
        let hx = HyperX::new(&sides);
        let root = (root_seed as usize) % hx.num_switches();
        let esc = UpDownEscape::new(hx.network(), root);
        let census = esc.class_census(hx.network());
        prop_assert_eq!(census.updown + census.horizontal, hx.network().num_links());
    }

    #[test]
    fn root_policies_always_return_valid_switches(
        sides in sides_strategy(),
        fault_count in 0usize..20,
        seed in 0u64..1000,
    ) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_connected_sequence(&net, fault_count, &mut rng).apply(&mut net);
        let dm = DistanceMatrix::compute(&net);
        for policy in RootPolicy::ablation_lineup() {
            let root = policy.select(&net);
            prop_assert!(root < hx.num_switches());
            prop_assert_eq!(policy.select_with_distances(&net, &dm), root);
        }
        // The degree-based policy must pick a switch of maximum alive degree.
        let best = RootPolicy::MaxAliveDegree.select(&net);
        let max_degree = (0..net.num_switches()).map(|s| net.degree(s)).max().unwrap();
        prop_assert_eq!(net.degree(best), max_degree);
    }
}
