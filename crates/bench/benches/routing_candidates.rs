//! Criterion micro-benchmarks of candidate generation — the per-packet,
//! per-switch hot path of the simulator — for every routing mechanism.
//!
//! Each cell builds every listed packet's full candidate list
//! (`all_candidates_into`: routing part, then escape part) into one output
//! list kept across calls, the allocation-free form the engine uses. The
//! `16x16c16` group, the `rate-2d-paper` shape, and the faulted 8x8x8 group
//! also time the routing part alone (`candidates_into`), which is all the
//! engine builds while a routing candidate beats the escape floor, and its
//! cheap part (`cheap_into`), which is all it builds while a cheap
//! candidate beats the deroute floor.

use criterion::{criterion_group, criterion_main, Criterion};
use hyperx_routing::{Candidate, MechanismSpec, NetworkView, PacketState, RoutingMechanism};
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
            b.iter(|| black_box(list_all(mech.as_ref(), &states, &mut out, Part::Full)))
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
            b.iter(|| black_box(list_all(mech.as_ref(), &states, &mut out, Part::Full)))
        });
        for (part, label) in [(Part::Cheap, "cheap"), (Part::Routing, "routing")] {
            group.bench_function(&format!("{}/{label}", spec.name()), |b| {
                let mut out: Vec<Candidate> = Vec::with_capacity(64);
                b.iter(|| black_box(list_all(mech.as_ref(), &states, &mut out, part)))
            });
        }
    }
    group.finish();
}

/// Which part of each packet's candidate list a cell builds.
#[derive(Clone, Copy)]
enum Part {
    /// `cheap_into` alone.
    Cheap,
    /// `candidates_into` alone.
    Routing,
    /// `all_candidates_into`: the routing part, then the escape part.
    Full,
}

/// Builds the `part` list of every `(current, state)` into `out`, returning
/// how many candidates were listed.
fn list_all(
    mech: &dyn RoutingMechanism,
    states: &[(usize, PacketState)],
    out: &mut Vec<Candidate>,
    part: Part,
) -> usize {
    let mut total = 0;
    for (current, state) in states {
        out.clear();
        match part {
            Part::Cheap => mech.cheap_into(state, *current, out),
            Part::Routing => mech.candidates_into(state, *current, out),
            Part::Full => mech.all_candidates_into(state, *current, out),
        }
        total += out.len();
    }
    total
}

/// The `rate-2d-paper` shape: OmniSP and PolSP with 4 VCs on a 16x16
/// HyperX (16 servers per switch only set the engine's port count, not the
/// lists), over every destination from a spread of current switches.
fn bench_candidates_16x16(c: &mut Criterion) {
    let view = Arc::new(NetworkView::healthy(HyperX::regular(2, 16), 0));
    let mut group = c.benchmark_group("routing/candidates_16x16c16");
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for spec in MechanismSpec::surepath_lineup() {
        let mech = spec.build(view.clone(), 4);
        let states: Vec<_> = (0..256)
            .step_by(17)
            .flat_map(|current| (0..256).map(move |dest| (current, dest)))
            .filter(|(current, dest)| current != dest)
            .map(|(current, dest)| (current, mech.init_packet(current, dest, &mut rng)))
            .collect();
        for (part, label) in [
            (Part::Cheap, "cheap"),
            (Part::Routing, "routing"),
            (Part::Full, "full"),
        ] {
            group.bench_function(&format!("{}/{label}", spec.name()), |b| {
                let mut out: Vec<Candidate> = Vec::with_capacity(64);
                b.iter(|| black_box(list_all(mech.as_ref(), &states, &mut out, part)))
            });
        }
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
    bench_candidates_16x16,
    bench_view_construction
);
criterion_main!(benches);
