//! Criterion micro-benchmarks of candidate generation — the per-packet,
//! per-switch hot path of the simulator — for every routing mechanism.
//!
//! Each cell calls `candidates_into` with one `RouteScratch` and one output
//! list kept across calls, the allocation-free form the engine uses.

use criterion::{criterion_group, criterion_main, Criterion};
use hyperx_routing::{Candidate, MechanismSpec, NetworkView, RouteScratch};
use hyperx_topology::{FaultSet, HyperX};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;

fn bench_mechanism_candidates(c: &mut Criterion) {
    let view = Arc::new(NetworkView::healthy(HyperX::regular(3, 8), 0));
    let mut group = c.benchmark_group("routing/candidates_8x8x8");
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    // A representative set of (source, destination) pairs at various distances.
    let pairs: Vec<(usize, usize)> = (0..64)
        .map(|i| (i * 7 % 512, (i * 13 + 101) % 512))
        .filter(|(a, b)| a != b)
        .collect();
    for spec in MechanismSpec::fault_free_lineup() {
        let mech = spec.build_default(view.clone());
        let states: Vec<_> = pairs
            .iter()
            .map(|&(s, d)| (s, mech.init_packet(s, d, &mut rng)))
            .collect();
        group.bench_function(spec.name(), |b| {
            let mut out: Vec<Candidate> = Vec::with_capacity(64);
            let mut scratch = RouteScratch::default();
            b.iter(|| {
                let mut total = 0usize;
                for (current, state) in &states {
                    out.clear();
                    mech.candidates_into(state, *current, &mut scratch, &mut out);
                    total += out.len();
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_candidates_under_faults(c: &mut Criterion) {
    let hx = HyperX::regular(3, 8);
    let mut frng = ChaCha8Rng::seed_from_u64(3);
    let faults = FaultSet::random_sequence(hx.network(), 100, &mut frng);
    let view = Arc::new(NetworkView::with_faults(hx, &faults, 0));
    let mut group = c.benchmark_group("routing/candidates_8x8x8_100_faults");
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let pairs: Vec<(usize, usize)> = (0..64)
        .map(|i| (i * 11 % 512, (i * 17 + 31) % 512))
        .filter(|(a, b)| a != b)
        .collect();
    for spec in MechanismSpec::surepath_lineup() {
        let mech = spec.build(view.clone(), 4);
        let states: Vec<_> = pairs
            .iter()
            .map(|&(s, d)| (s, mech.init_packet(s, d, &mut rng)))
            .collect();
        group.bench_function(spec.name(), |b| {
            let mut out: Vec<Candidate> = Vec::with_capacity(64);
            let mut scratch = RouteScratch::default();
            b.iter(|| {
                let mut total = 0usize;
                for (current, state) in &states {
                    out.clear();
                    mech.candidates_into(state, *current, &mut scratch, &mut out);
                    total += out.len();
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_view_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing/view_rebuild");
    group.sample_size(20);
    group.bench_function("healthy_8x8x8", |b| {
        b.iter(|| black_box(NetworkView::healthy(HyperX::regular(3, 8), 0)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mechanism_candidates,
    bench_candidates_under_faults,
    bench_view_construction
);
criterion_main!(benches);
