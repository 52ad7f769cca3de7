//! Criterion micro-benchmarks of the simulation engine: cycles per second at
//! a moderate load for the SurePath mechanisms on the quick topologies, plus
//! the paper's 16x16 shape with 16 servers per switch, and closed-loop
//! cycles on the shape of the benchmark's `batch-3d-star` workload.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hyperx_routing::MechanismSpec;
use std::hint::black_box;
use surepath_core::{Experiment, FaultScenario, TrafficSpec};

/// The topologies of the cycle cells.
#[derive(Clone, Copy)]
enum Shape {
    Quick2d,
    Quick3d,
    Paper2d,
}

fn warm_simulator(spec: MechanismSpec, shape: Shape) -> hyperx_sim::Simulator {
    let mut e = match shape {
        Shape::Quick2d => Experiment::quick_2d(spec, TrafficSpec::Uniform),
        Shape::Quick3d => Experiment::quick_3d(spec, TrafficSpec::Uniform),
        // 16x16, 16 servers per switch: the engine-bound shape of the
        // benchmark's `rate-2d-paper` workload.
        Shape::Paper2d => Experiment::paper_2d(spec, TrafficSpec::Uniform),
    };
    // Fill the network with traffic before measuring per-cycle cost.
    e.sim.warmup_cycles = 500;
    e.sim.measure_cycles = 1;
    let mut sim = e.build_simulator();
    sim.run_rate(0.6);
    sim
}

fn bench_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/cycles_at_load_0.6");
    group.sample_size(10);
    for (name, spec, shape) in [
        ("OmniSP_8x8", MechanismSpec::OmniSP, Shape::Quick2d),
        ("PolSP_8x8", MechanismSpec::PolSP, Shape::Quick2d),
        ("PolSP_4x4x4", MechanismSpec::PolSP, Shape::Quick3d),
        ("Minimal_8x8", MechanismSpec::Minimal, Shape::Quick2d),
        ("OmniSP_16x16_c16", MechanismSpec::OmniSP, Shape::Paper2d),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched_ref(
                || warm_simulator(spec, shape),
                |sim| {
                    for _ in 0..200 {
                        sim.step();
                    }
                    black_box(sim.total_delivered())
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// A batch run on `batch-3d-star`'s shape (8x8x8, 8 servers per switch,
/// RPN, 4 VCs, the Star `cross:1:4,4,4`), stepped past its start so the
/// network is full of blocked heads.
fn warm_batch_simulator(spec: MechanismSpec) -> hyperx_sim::Simulator {
    let star = FaultScenario::parse("cross:1:4,4,4", &[8, 8, 8]).expect("valid scenario");
    let e = Experiment::paper_3d(spec, TrafficSpec::RegularPermutationToNeighbour)
        .with_num_vcs(4)
        .with_scenario(star);
    let mut sim = e.build_simulator();
    sim.begin_batch(12);
    for _ in 0..300 {
        sim.step();
    }
    sim
}

fn bench_batch_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/batch_cycles");
    group.sample_size(10);
    for (name, spec) in [
        ("OmniSP_8x8x8_star", MechanismSpec::OmniSP),
        ("PolSP_8x8x8_star", MechanismSpec::PolSP),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched_ref(
                || warm_batch_simulator(spec),
                |sim| {
                    for _ in 0..200 {
                        sim.step();
                    }
                    black_box(sim.total_delivered())
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_simulator_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/construction");
    group.sample_size(10);
    group.bench_function("quick_3d_polsp", |b| {
        b.iter(|| {
            let e = Experiment::quick_3d(MechanismSpec::PolSP, TrafficSpec::Uniform);
            black_box(e.build_simulator())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cycles,
    bench_batch_cycles,
    bench_simulator_construction
);
criterion_main!(benches);
