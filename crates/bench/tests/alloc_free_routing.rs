//! Micro-assert: the engine's routing hot path is allocation-free at steady
//! state.
//!
//! Two checks, both with a counting global allocator:
//!
//! * every routing mechanism computes the routing part of a list
//!   (`candidates_into`), appends the escape part onto it (`escape_into`, as
//!   the engine does when a head's routing candidates lose to the escape
//!   floor) and updates packet state (`note_hop`) without touching the heap
//!   once its output list is warm — no coordinate vectors, no
//!   escape-candidate vectors;
//! * a warmed `Simulator` steps without allocating: per-slot candidate
//!   caches, request lists, event-wheel buffers and the packet arena all
//!   reuse their capacity.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide. For a fixed seed the allocation counts are
//! deterministic, so the zero assertions cannot flake.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hyperx_routing::{Candidate, MechanismSpec, NetworkView, PacketState, RoutingMechanism};
use hyperx_sim::{RngContract, ServerLayout, SimConfig, Simulator, UniformTraffic};
use hyperx_topology::{FaultSet, HyperX};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const ALL_MECHANISMS: [MechanismSpec; 10] = [
    MechanismSpec::Minimal,
    MechanismSpec::Valiant,
    MechanismSpec::OmniWAR,
    MechanismSpec::Polarized,
    MechanismSpec::OmniSP,
    MechanismSpec::PolSP,
    MechanismSpec::Dor,
    MechanismSpec::Dal,
    MechanismSpec::OmniSPTree,
    MechanismSpec::PolSPTree,
];

fn faulted_view(sides: &[usize], faults: usize) -> Arc<NetworkView> {
    let hx = HyperX::new(sides);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let fault_set = FaultSet::random_connected_sequence(hx.network(), faults, &mut rng);
    let view = Arc::new(NetworkView::with_faults(hx, &fault_set, 0));
    assert!(view.is_connected());
    view
}

/// One pass of `candidates_into`, an `escape_into` appended onto the same
/// list, and a `note_hop` on the first candidate over every (current, dest)
/// pair.
fn route_every_pair(
    view: &NetworkView,
    mech: &dyn RoutingMechanism,
    states: &[(usize, PacketState)],
    out: &mut Vec<Candidate>,
) -> usize {
    let mut offered = 0;
    for &(current, state) in states {
        out.clear();
        mech.candidates_into(&state, current, out);
        mech.escape_into(&state, current, out);
        offered += out.len();
        if let Some(cand) = out.first() {
            let next = view
                .network()
                .neighbor(current, cand.port.into())
                .unwrap()
                .switch;
            let mut moved = state;
            mech.note_hop(&mut moved, current, next, cand);
        }
    }
    offered
}

fn warmed_simulator(spec: MechanismSpec) -> Simulator {
    let view = faulted_view(&[4, 4], 4);
    let mut cfg = SimConfig::quick(2, spec.faulty_num_vcs(2));
    cfg.seed = 7;
    cfg.rng_contract = RngContract::V2Counting;
    cfg.warmup_cycles = 1_000;
    cfg.measure_cycles = 1;
    let mech = spec.build(view.clone(), cfg.num_vcs);
    let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
    let pattern = Box::new(UniformTraffic::new(&layout));
    let mut sim = Simulator::new(view, mech, pattern, cfg);
    // Leaves the generator at load 0.5 for the `step` calls below.
    let _ = sim.run_rate(0.5);
    sim
}

#[test]
fn routing_and_engine_steady_state_do_not_allocate() {
    // Routing: all ten mechanisms on a connected, faulted 4x4x4 view.
    let view = faulted_view(&[4, 4, 4], 20);
    let n = view.hyperx().num_switches();
    for spec in ALL_MECHANISMS {
        let mech = spec.build(view.clone(), spec.faulty_num_vcs(3));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let states: Vec<(usize, PacketState)> = (0..n)
            .flat_map(|current| (0..n).map(move |dest| (current, dest)))
            .map(|(current, dest)| (current, mech.init_packet(current, dest, &mut rng)))
            .collect();
        let mut out = Vec::new();
        let warm = route_every_pair(&view, mech.as_ref(), &states, &mut out);
        assert!(warm > 0, "{spec:?} offered no candidate at all");
        let before = allocations();
        let offered = route_every_pair(&view, mech.as_ref(), &states, &mut out);
        let made = allocations() - before;
        assert_eq!(offered, warm, "{spec:?}: candidates are a pure function");
        assert_eq!(
            made, 0,
            "{spec:?}: candidates_into + escape_into + note_hop made {made} allocations \
             on a warm list"
        );
    }

    // Engine: warm until ten 500-step windows in a row grew no buffer (the
    // candidate-buffer pool and the scratch high-water marks have settled),
    // then the next 500 steps must not allocate at all.
    for spec in [MechanismSpec::OmniSP, MechanismSpec::PolSP] {
        let mut sim = warmed_simulator(spec);
        let window = |sim: &mut Simulator| {
            let before = allocations();
            for _ in 0..500 {
                sim.step();
            }
            allocations() - before
        };
        let (mut windows, mut quiet) = (0, 0);
        while quiet < 10 {
            quiet = if window(&mut sim) == 0 { quiet + 1 } else { 0 };
            windows += 1;
            assert!(
                windows <= 100,
                "{spec:?}: buffers still growing after {windows} warm windows"
            );
        }
        let made = window(&mut sim);
        assert!(!sim.stalled());
        assert!(
            sim.total_delivered() > 1_000,
            "{spec:?}: the run carried traffic"
        );
        assert_eq!(made, 0, "{spec:?}: 500 warm steps made {made} allocations");
    }
}
