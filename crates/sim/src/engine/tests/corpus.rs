//! The engine's digest corpus: FNV-1a 64 digests of the observables of a
//! pinned set of runs, committed in `tests/fixtures/engine_corpus.txt`.
//!
//! The corpus was recorded from the frozen v4 engine (the per-switch-struct
//! layout the struct-of-arrays engine replaced), with the SoA engine run
//! alongside and required to match every digest of every case. It stands in
//! for that reference engine: a change that moves one RNG draw, one grant,
//! one counter increment or one trace event fails here, naming the case and
//! the observable. Each line holds one case and up to three digests:
//!
//! * `metrics` — the serialized metrics plus totals (rate runs: generated
//!   and delivered packets; batch runs: whether the network drained
//!   afterwards and the packets left in switches);
//! * `counters` — the serialized counter registry;
//! * `trace` — the packet tracer's event stream and drop count (traced
//!   cases, from a second run with the tracer attached);
//! * `stream` — the per-cycle `(alive, generated, delivered, buffered)`
//!   state of a run stepped cycle by cycle (stream cases, no metrics).
//!
//! The cases span all ten mechanisms × three loads × both RNG contracts on
//! a healthy 4×4, random link faults across seeds, switches whose
//! occupancy masks span several words, batch runs with a drain, the
//! congested closed-loop case, per-cycle state streams, and the traffic
//! axis (RSP, DCR, transpose and shift on a 4×4 with 4 servers per switch,
//! RPN batch runs on a 4×4×4), healthy and faulted, under both contracts.
//!
//! To regenerate after a *deliberate* behaviour change:
//!
//! ```text
//! cargo test -p hyperx-sim --lib -- --ignored regenerate_engine_corpus
//! ```

use super::*;
use crate::traffic::{DimensionComplementReverse, NeighbourShift, Transpose};
use std::collections::BTreeMap;
use std::fmt::Write;

/// The committed corpus.
const CORPUS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/engine_corpus.txt"
);

/// Every named mechanism, in a fixed order.
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

const CONTRACTS: [RngContract; 2] = [RngContract::V1PerServer, RngContract::V2Counting];

/// FNV-1a 64 over everything formatted into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &byte in s.as_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(args: std::fmt::Arguments<'_>) -> u64 {
    let mut hash = Fnv::new();
    hash.write_fmt(args).expect("hashing never fails");
    hash.0
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("observables serialize")
}

/// The network a case runs on.
#[derive(Clone, Copy)]
enum Net {
    /// A 4×4 HyperX with `faults` random link faults (seed 11), root 0.
    Grid { faults: usize },
    /// A 1-D HyperX of side 34: with 32 servers per switch, 65 ports and 260
    /// VC slots, so both occupancy masks span several 64-bit words.
    Wide,
    /// A 4×4×4 HyperX rooted at (2,2,2), optionally with the cross
    /// `cross:1:2,2,2` around it.
    Cube { cross: bool },
}

impl Net {
    fn view(self) -> Arc<NetworkView> {
        match self {
            Net::Grid { faults: 0 } => Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0)),
            Net::Grid { faults } => {
                let hx = HyperX::regular(2, 4);
                let mut rng = ChaCha8Rng::seed_from_u64(11);
                let faults = FaultSet::random_connected_sequence(hx.network(), faults, &mut rng);
                Arc::new(NetworkView::with_faults(hx, &faults, 0))
            }
            Net::Wide => Arc::new(NetworkView::healthy(HyperX::regular(1, 34), 0)),
            Net::Cube { cross } => {
                let hx = HyperX::regular(3, 4);
                let center = vec![2, 2, 2];
                let root = hx.switch_id(&center);
                if cross {
                    let faults =
                        FaultSet::from_shape(&FaultShape::Cross { center, margin: 1 }, &hx);
                    Arc::new(NetworkView::with_faults(hx, &faults, root))
                } else {
                    Arc::new(NetworkView::healthy(hx, root))
                }
            }
        }
    }

    fn key(self) -> String {
        match self {
            Net::Grid { faults: 0 } => "4x4".to_string(),
            Net::Grid { faults } => format!("4x4-f{faults}"),
            Net::Wide => "34".to_string(),
            Net::Cube { cross: false } => "4x4x4".to_string(),
            Net::Cube { cross: true } => "4x4x4-cross".to_string(),
        }
    }
}

/// The traffic pattern of a case.
#[derive(Clone, Copy)]
enum Traffic {
    Uniform,
    Rsp,
    Dcr,
    Transpose,
    Shift,
    Rpn,
}

impl Traffic {
    fn build(self, layout: ServerLayout, seed: u64) -> Box<dyn TrafficPattern> {
        match self {
            Traffic::Uniform => Box::new(UniformTraffic::new(&layout)),
            Traffic::Rsp => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                Box::new(RandomServerPermutation::new(&layout, &mut rng))
            }
            Traffic::Dcr => Box::new(DimensionComplementReverse::new(layout)),
            Traffic::Transpose => Box::new(Transpose::new(layout)),
            Traffic::Shift => Box::new(NeighbourShift::new(layout)),
            Traffic::Rpn => Box::new(RegularPermutationToNeighbour::new(layout)),
        }
    }

    fn key(self) -> &'static str {
        match self {
            Traffic::Uniform => "uniform",
            Traffic::Rsp => "rsp",
            Traffic::Dcr => "dcr",
            Traffic::Transpose => "transpose",
            Traffic::Shift => "shift",
            Traffic::Rpn => "rpn",
        }
    }
}

/// What a case does with its simulator.
#[derive(Clone, Copy)]
enum Run {
    /// `run_rate(load)`.
    Rate(f64),
    /// `run_batch(packets, 100)`, then `drain(100_000)`; the counters are
    /// read before the drain.
    Batch(u64),
    /// Rate-mode generation at `load` from cycle 0 (no warmup or
    /// measurement window), stepped cycle by cycle.
    Stream { load: f64, cycles: u64 },
}

struct Case {
    mechanism: MechanismSpec,
    net: Net,
    traffic: Traffic,
    cfg: SimConfig,
    run: Run,
    /// Also digest the packet tracer's events, from a traced second run.
    trace: bool,
}

impl Case {
    fn new(mechanism: MechanismSpec, net: Net, traffic: Traffic, cfg: SimConfig, run: Run) -> Self {
        Case {
            mechanism,
            net,
            traffic,
            cfg,
            run,
            trace: false,
        }
    }

    fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// The case's unique name: run, traffic, network and concentration,
    /// mechanism, RNG contract, seed and windows.
    fn name(&self) -> String {
        let run = match self.run {
            Run::Rate(load) => format!("rate{load}"),
            Run::Batch(packets) => format!("batch{packets}"),
            Run::Stream { load, cycles } => format!("stream{load}x{cycles}"),
        };
        format!(
            "{run}/{}/{}c{}/{}/{}/s{}/w{}+{}",
            self.traffic.key(),
            self.net.key(),
            self.cfg.servers_per_switch,
            self.mechanism.name(),
            self.cfg.rng_contract,
            self.cfg.seed,
            self.cfg.warmup_cycles,
            self.cfg.measure_cycles,
        )
    }

    fn build(&self) -> Simulator {
        let view = self.net.view();
        let layout = ServerLayout::new(view.hyperx(), self.cfg.servers_per_switch);
        let mechanism = self.mechanism.build(view.clone(), self.cfg.num_vcs);
        let pattern = self.traffic.build(layout, self.cfg.seed);
        Simulator::new(view, mechanism, pattern, self.cfg.clone())
    }
}

/// The `counters` digest of `sim`.
fn counters(sim: &Simulator) -> (&'static str, u64) {
    ("counters", digest(format_args!("{}", json(sim.obs()))))
}

/// Runs `sim` as `run` and returns its `metrics` (or `stream`) and
/// `counters` digests.
fn observe_run(sim: &mut Simulator, run: Run) -> Vec<(&'static str, u64)> {
    match run {
        Run::Rate(load) => {
            let metrics = sim.run_rate(load);
            vec![
                (
                    "metrics",
                    digest(format_args!(
                        "{}|gen={}|del={}",
                        json(&metrics),
                        sim.total_generated(),
                        sim.total_delivered()
                    )),
                ),
                counters(sim),
            ]
        }
        Run::Batch(packets) => {
            let metrics = sim.run_batch(packets, 100);
            let counters = counters(sim);
            let drained = sim.drain(100_000);
            vec![
                (
                    "metrics",
                    digest(format_args!(
                        "{}|drained={drained}|in_switches={}",
                        json(&metrics),
                        sim.packets_in_switches()
                    )),
                ),
                counters,
            ]
        }
        Run::Stream { load, cycles } => {
            sim.generation = GenerationMode::Rate { offered_load: load };
            let mut stream = Fnv::new();
            for _ in 0..cycles {
                sim.step();
                write!(
                    stream,
                    "{},{},{},{};",
                    sim.packets_alive(),
                    sim.total_generated(),
                    sim.total_delivered(),
                    sim.packets_in_switches()
                )
                .expect("hashing never fails");
            }
            vec![("stream", stream.0), counters(sim)]
        }
    }
}

/// Every digest of one case, in fixture order.
fn observe(case: &Case) -> Vec<(&'static str, u64)> {
    let mut digests = observe_run(&mut case.build(), case.run);
    if case.trace {
        let mut sim = case.build();
        sim.set_tracer(Some(PacketTracer::with_capacity(1 << 16)));
        observe_run(&mut sim, case.run);
        let tracer = sim.take_tracer().expect("the tracer was installed");
        digests.push((
            "trace",
            digest(format_args!(
                "dropped={}|{:?}",
                tracer.dropped(),
                tracer.events()
            )),
        ));
    }
    digests
}

/// `SimConfig::quick(servers_per_switch, num_vcs)` with the given seed,
/// contract and windows.
fn config(
    servers_per_switch: usize,
    num_vcs: usize,
    contract: RngContract,
    seed: u64,
    windows: (u64, u64),
) -> SimConfig {
    let mut cfg = SimConfig::quick(servers_per_switch, num_vcs);
    cfg.rng_contract = contract;
    cfg.seed = seed;
    (cfg.warmup_cycles, cfg.measure_cycles) = windows;
    cfg
}

/// The pinned cases, in fixture order.
fn cases() -> Vec<Case> {
    use MechanismSpec::{Dor, Minimal, OmniSP, PolSP, Valiant};
    let grid = Net::Grid { faults: 0 };
    let mut cases = Vec::new();
    // Every mechanism × load × contract on the healthy 4×4.
    for contract in CONTRACTS {
        for mechanism in ALL_MECHANISMS {
            for load in [0.1, 0.5, 0.9] {
                let cfg = config(2, 4, contract, 42, (200, 600));
                cases.push(Case::new(
                    mechanism,
                    grid,
                    Traffic::Uniform,
                    cfg,
                    Run::Rate(load),
                ));
            }
        }
    }
    // Random link faults across seeds.
    for contract in CONTRACTS {
        for mechanism in [OmniSP, PolSP, Dor] {
            for seed in [1, 7, 99] {
                let cfg = config(2, 4, contract, seed, (200, 600));
                let net = Net::Grid { faults: 4 };
                cases.push(Case::new(
                    mechanism,
                    net,
                    Traffic::Uniform,
                    cfg,
                    Run::Rate(0.6),
                ));
            }
        }
    }
    // Multi-word occupancy masks.
    let cfg = config(32, 4, RngContract::V2Counting, 8, (60, 120));
    cases.push(Case::new(
        OmniSP,
        Net::Wide,
        Traffic::Uniform,
        cfg,
        Run::Rate(0.9),
    ));
    // A batch run and its drain under link faults.
    let cfg = config(2, 4, RngContract::V2Counting, 5, (1_000, 2_000));
    let net = Net::Grid { faults: 2 };
    cases.push(Case::new(PolSP, net, Traffic::Uniform, cfg, Run::Batch(4)));
    // The congested closed-loop case of `congested_batch_sim`: blocked
    // heads hit the candidate cache, and escape hops are granted.
    for mechanism in [OmniSP, PolSP] {
        let cfg = config(4, 4, RngContract::V2Counting, 3, (1_000, 2_000));
        let net = Net::Cube { cross: true };
        let run = Run::Batch(CONGESTED_PACKETS);
        cases.push(Case::new(mechanism, net, Traffic::Rpn, cfg, run).traced());
    }
    // Per-cycle state at low load.
    for contract in CONTRACTS {
        let cfg = config(2, 4, contract, 13, (1_000, 2_000));
        let net = Net::Grid { faults: 3 };
        let run = Run::Stream {
            load: 0.2,
            cycles: 2_000,
        };
        cases.push(Case::new(OmniSP, net, Traffic::Uniform, cfg, run));
    }
    // Valiant at saturation keeps heads blocked across cycles, so the
    // counters cover the cache hit path as well as the miss path.
    let cfg = config(2, 4, RngContract::V2Counting, 4, (100, 600));
    cases.push(Case::new(
        Valiant,
        grid,
        Traffic::Uniform,
        cfg,
        Run::Rate(1.0),
    ));
    // A traced run from cycle 0.
    let cfg = config(2, 4, RngContract::V2Counting, 2, (0, 500));
    cases.push(Case::new(OmniSP, grid, Traffic::Uniform, cfg, Run::Rate(0.3)).traced());
    // The traffic axis, healthy and faulted, under both contracts.
    for contract in CONTRACTS {
        for faults in [0, 4] {
            for traffic in [
                Traffic::Rsp,
                Traffic::Dcr,
                Traffic::Transpose,
                Traffic::Shift,
            ] {
                for mechanism in [Minimal, Dor, OmniSP, PolSP] {
                    let cfg = config(4, 4, contract, 3, (200, 600));
                    let net = Net::Grid { faults };
                    let case = Case::new(mechanism, net, traffic, cfg, Run::Rate(0.5));
                    cases.push(case.traced());
                }
            }
        }
        for cross in [false, true] {
            for mechanism in [Minimal, Dor, OmniSP, PolSP] {
                let mut cfg = config(4, mechanism.faulty_num_vcs(3), contract, 3, (200, 600));
                // DOR stalls under the cross; a short watchdog ends that
                // run early.
                cfg.watchdog_cycles = 2_000;
                let net = Net::Cube { cross };
                let case = Case::new(mechanism, net, Traffic::Rpn, cfg, Run::Batch(4));
                cases.push(case.traced());
            }
        }
    }
    cases
}

/// The corpus as the engine produces it today: one line per case, the
/// case name followed by `observable=digest` pairs.
fn render_corpus() -> String {
    let mut out = String::new();
    for case in cases() {
        out.push_str(&case.name());
        for (observable, digest) in observe(&case) {
            write!(out, " {observable}={digest:016x}").expect("writing to a String");
        }
        out.push('\n');
    }
    out
}

/// Case name → `(observable, digest)` pairs of a corpus text.
fn parse_corpus(text: &str) -> BTreeMap<String, Vec<(String, String)>> {
    text.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next()?.to_string();
            let digests = fields
                .filter_map(|pair| pair.split_once('='))
                .map(|(observable, digest)| (observable.to_string(), digest.to_string()))
                .collect();
            Some((name, digests))
        })
        .collect()
}

#[test]
fn cases_have_unique_names() {
    let cases = cases();
    let names: std::collections::BTreeSet<String> = cases.iter().map(Case::name).collect();
    assert_eq!(names.len(), cases.len());
}

#[test]
fn engine_matches_the_digest_corpus() {
    let committed = std::fs::read_to_string(CORPUS_PATH)
        .unwrap_or_else(|e| panic!("corpus committed under {CORPUS_PATH}: {e}"));
    let committed = parse_corpus(&committed);
    let current = parse_corpus(&render_corpus());
    let mut drift = Vec::new();
    for (name, digests) in &current {
        let Some(expected) = committed.get(name) else {
            drift.push(format!("{name}: not in the committed corpus"));
            continue;
        };
        for (observable, digest) in digests {
            match expected.iter().find(|(o, _)| o == observable) {
                Some((_, want)) if want == digest => {}
                Some((_, want)) => drift.push(format!(
                    "{name}: {observable} digest {digest}, committed {want}"
                )),
                None => drift.push(format!("{name}: {observable} not in the committed corpus")),
            }
        }
    }
    for name in committed.keys().filter(|name| !current.contains_key(*name)) {
        drift.push(format!("{name}: committed but no longer run"));
    }
    assert!(
        drift.is_empty(),
        "the engine drifted from the digest corpus in {} place(s):\n  {}\n\
         If the change is deliberate, regenerate with `cargo test -p hyperx-sim --lib \
         -- --ignored regenerate_engine_corpus` and explain it in the change description",
        drift.len(),
        drift.join("\n  ")
    );
}

#[test]
#[ignore = "rewrites the committed corpus; run explicitly after a deliberate engine change"]
fn regenerate_engine_corpus() {
    std::fs::write(CORPUS_PATH, render_corpus()).expect("write the corpus");
}
