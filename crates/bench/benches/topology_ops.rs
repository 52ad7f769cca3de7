//! Criterion micro-benchmarks of the topology substrate: HyperX construction,
//! all-pairs BFS, Up/Down escape construction, fault-shape expansion and
//! escape-root selection.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hyperx_topology::{
    DistanceMatrix, FaultSet, FaultShape, HyperX, Network, RootPolicy, UpDownEscape,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology/construction");
    group.bench_function("hyperx_16x16", |b| {
        b.iter(|| black_box(HyperX::regular(2, 16)));
    });
    group.bench_function("hyperx_8x8x8", |b| {
        b.iter(|| black_box(HyperX::regular(3, 8)));
    });
    group.finish();
}

/// The 12×12×12 HyperX with 200 random link faults: the view shape the
/// end-to-end `views-3d-12` workload spends most of its time building.
fn faulted_12x12x12() -> Network {
    let hx = HyperX::regular(3, 12);
    let mut net = hx.network().clone();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    FaultSet::random_sequence(&net, 200, &mut rng).apply(&mut net);
    net
}

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology/distances");
    group.sample_size(20);
    let hx2 = HyperX::regular(2, 16);
    let hx3 = HyperX::regular(3, 8);
    let faulted = faulted_12x12x12();
    group.bench_function("all_pairs_bfs_16x16", |b| {
        b.iter(|| black_box(DistanceMatrix::compute(hx2.network())));
    });
    group.bench_function("all_pairs_bfs_8x8x8", |b| {
        b.iter(|| black_box(DistanceMatrix::compute(hx3.network())));
    });
    group.bench_function("all_pairs_bfs_12x12x12_200_random_faults", |b| {
        b.iter(|| black_box(DistanceMatrix::compute(&faulted)));
    });
    group.finish();
}

fn bench_escape_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology/updown_escape");
    group.sample_size(20);
    let hx2 = HyperX::regular(2, 16);
    let hx3 = HyperX::regular(3, 8);
    group.bench_function("build_16x16", |b| {
        b.iter(|| black_box(UpDownEscape::new(hx2.network(), 0)));
    });
    group.bench_function("build_8x8x8", |b| {
        b.iter(|| black_box(UpDownEscape::new(hx3.network(), 0)));
    });
    // Rebuild after a failure: the cost the paper attributes to fault recovery.
    group.bench_function("rebuild_after_star_fault_8x8x8", |b| {
        let shape = FaultShape::Cross {
            center: vec![4, 4, 4],
            margin: 1,
        };
        let faults = FaultSet::from_shape(&shape, &hx3);
        b.iter_batched(
            || {
                let mut net = hx3.network().clone();
                faults.apply(&mut net);
                net
            },
            |net| black_box(UpDownEscape::new(&net, hx3.switch_id(&[4, 4, 4]))),
            BatchSize::SmallInput,
        );
    });
    let faulted = faulted_12x12x12();
    group.bench_function("build_12x12x12_200_random_faults", |b| {
        b.iter(|| black_box(UpDownEscape::new(&faulted, 0)));
    });
    group.finish();
}

fn bench_fault_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology/faults");
    let hx3 = HyperX::regular(3, 8);
    group.bench_function("random_sequence_100_faults", |b| {
        b.iter_batched(
            || ChaCha8Rng::seed_from_u64(7),
            |mut rng| black_box(FaultSet::random_sequence(hx3.network(), 100, &mut rng)),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("star_shape_expansion", |b| {
        let shape = FaultShape::Cross {
            center: vec![4, 4, 4],
            margin: 1,
        };
        b.iter(|| black_box(shape.links(&hx3)));
    });
    group.finish();
}

fn bench_root_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology/root_selection");
    group.sample_size(10);
    let hx = HyperX::regular(3, 8);
    let mut net = hx.network().clone();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    FaultSet::random_sequence(&net, 100, &mut rng).apply(&mut net);
    group.bench_function("max_alive_degree_8x8x8", |bch| {
        bch.iter(|| black_box(RootPolicy::MaxAliveDegree.select(&net)))
    });
    group.bench_function("min_eccentricity_8x8x8", |bch| {
        bch.iter(|| black_box(RootPolicy::MinEccentricity.select(&net)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_construction,
    bench_distances,
    bench_escape_tables,
    bench_fault_models,
    bench_root_selection
);
criterion_main!(benches);
