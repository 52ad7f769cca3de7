//! Property-based tests of the topology substrate.

use hyperx_topology::{
    bfs_distances, diameter_under_fault_sequence, edge_disjoint_paths, shortest_path_count,
    survivability_under_faults, CoordinateSystem, DistanceHistogram, DistanceMatrix, FaultSet,
    FaultShape, HyperX, Network, RootPolicy, UpDownEscape,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Strategy: HyperX sides with 1 to 3 dimensions of side 2..=6, capped in total size.
fn sides_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..=6, 1..=3).prop_filter("keep networks small", |sides| {
        sides.iter().product::<usize>() <= 128
    })
}

/// Strategy: HyperX sides whose switch count sits just below, on or just
/// above a multiple of 64, where the all-pairs passes change word or batch.
fn word_boundary_sides_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..=16, 1..=3).prop_filter("n near a word boundary", |sides| {
        [63, 64, 65, 100, 126, 128, 130].contains(&sides.iter().product::<usize>())
    })
}

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
    let mut out = vec![0u16; n * n];
    for x in 0..n {
        for y in 0..n {
            let deepest_common = (0..n)
                .filter(|&z| up_reach[x][z] && up_reach[y][z])
                .map(|z| levels[z])
                .max()
                .expect("the root is in every up-reach set");
            out[x * n + y] = levels[x] + levels[y] - 2 * deepest_common;
        }
    }
    out
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
            prop_assert_eq!(d.row(s), &bfs_distances(&net, s)[..], "row {}", s);
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
    fn shortest_path_count_is_product_of_factorial_like_terms(sides in sides_strategy(), pair_seed in 0u64..1000) {
        // In a Hamming graph a pair differing in d dimensions has exactly d!
        // shortest paths (one single-hop correction per dimension, in any order).
        let hx = HyperX::new(&sides);
        let n = hx.num_switches();
        let a = (pair_seed as usize) % n;
        let b = (pair_seed as usize * 31 + 7) % n;
        let d = hx.coords().hamming_distance(a, b);
        let factorial: u64 = (1..=d as u64).product::<u64>().max(1);
        prop_assert_eq!(shortest_path_count(hx.network(), a, b), factorial);
    }

    #[test]
    fn edge_disjoint_paths_equal_radix_in_healthy_hyperx(sides in sides_strategy(), pair_seed in 0u64..1000) {
        // Hamming graphs are maximally edge-connected (edge connectivity = degree).
        let hx = HyperX::new(&sides);
        let n = hx.num_switches();
        prop_assume!(n >= 2);
        let a = (pair_seed as usize) % n;
        let b = (pair_seed as usize * 17 + 3) % n;
        prop_assume!(a != b);
        prop_assert_eq!(edge_disjoint_paths(hx.network(), a, b), hx.switch_radix());
    }

    #[test]
    fn edge_disjoint_paths_never_exceed_min_alive_degree(
        sides in sides_strategy(),
        fault_count in 0usize..20,
        seed in 0u64..1000,
    ) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_sequence(&net, fault_count.min(net.num_links()), &mut rng).apply(&mut net);
        let n = hx.num_switches();
        let a = (seed as usize) % n;
        let b = (seed as usize * 13 + 5) % n;
        prop_assume!(a != b);
        let paths = edge_disjoint_paths(&net, a, b);
        prop_assert!(paths <= net.degree(a).min(net.degree(b)));
        // Menger lower bound sanity: connected pairs have at least one path.
        let d = DistanceMatrix::compute(&net);
        prop_assert_eq!(paths > 0, d.get(a, b) != u16::MAX);
    }

    #[test]
    fn distance_histogram_is_consistent_with_matrix(sides in sides_strategy(), fault_count in 0usize..15, seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_sequence(&net, fault_count.min(net.num_links()), &mut rng).apply(&mut net);
        let dm = DistanceMatrix::compute(&net);
        let hist = DistanceHistogram::from_matrix(&dm);
        let n = hx.num_switches() as u64;
        prop_assert_eq!(hist.reachable_pairs() + hist.unreachable_pairs, n * (n - 1) / 2);
        if dm.is_connected() {
            prop_assert_eq!(hist.max_distance(), Some(dm.diameter()));
            let mean = hist.mean_distance().unwrap();
            prop_assert!((mean - dm.average_distance()).abs() < 1e-9);
        }
    }

    #[test]
    fn survivability_report_bounds(sides in sides_strategy(), fault_count in 0usize..20, seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let healthy = hx.network().clone();
        let mut faulty = healthy.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_sequence(&faulty, fault_count.min(faulty.num_links()), &mut rng).apply(&mut faulty);
        let report = survivability_under_faults(&healthy, &faulty, Some(50), &mut rng);
        prop_assert!(report.survival_ratio() >= 0.0 && report.survival_ratio() <= 1.0);
        prop_assert!(report.stretched_ratio() >= 0.0 && report.stretched_ratio() <= 1.0);
        for p in &report.pairs {
            // Faults can only lengthen routes.
            if p.survives() {
                prop_assert!(p.faulty_distance >= p.healthy_distance);
            }
            prop_assert!(p.healthy_paths >= 1);
        }
        if fault_count == 0 {
            prop_assert_eq!(report.survival_ratio(), 1.0);
            prop_assert_eq!(report.max_stretch(), 0);
            prop_assert!((report.mean_path_retention() - 1.0).abs() < 1e-12);
        }
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
