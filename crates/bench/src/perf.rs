//! The engine perf harness behind `surepath bench`.
//!
//! Runs a **pinned micro-campaign matrix** (mechanism × offered load ×
//! topology size) through the cycle-level engine and reports cycles/sec,
//! packets/sec and the p99 latency per cell, plus two paired matrices:
//! RNG contract v1 against v2, and the engine with and without the packet
//! tracer. Paired runs share a seed, and the tracer pairs must produce
//! byte-identical metrics, so every bench run re-checks the
//! zero-perturbation contract under timing.
//!
//! The report serializes to `BENCH_ENGINE.json` in a stable schema
//! ([`BENCH_SCHEMA`]) so successive PRs accumulate a perf trajectory:
//! wall-clock numbers vary with the host, but the schema, the matrix and
//! the headline ratios are comparable run over run.

use hyperx_routing::MechanismSpec;
use hyperx_sim::{PacketTracer, RngContract};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use surepath_core::{Experiment, FaultScenario, RootPlacement, SimConfig, TrafficSpec};

/// Schema identifier of the JSON report; bump on breaking layout changes.
/// v2 added the per-cell `latency_p99` field (from the engine's log-bucketed
/// latency histogram), so tail latency accumulates a trajectory across PRs
/// alongside throughput. v3 added the `rng_cells` matrix — rate-mode cells
/// comparing RNG contract v1 (per-server Bernoulli scan) against v2 (the
/// counting sampler) — plus the matching `rng_*` summary fields. v4 added
/// the `obs_cells` matrix — the observability-overhead pair timing the
/// engine with its counters (always on; branch-free `u64` adds) against the
/// same run with the packet tracer attached — plus the `obs_*` summary
/// fields. v5 added the `partition_cells` matrix, timing the engine at
/// 1/2/4 intra-simulation partitions on the largest pinned topology and
/// byte-comparing every partition count against P=1, and records
/// `available_parallelism` so scaling numbers are interpretable on
/// single-core runners. v6 drops the second engine layout the main and RNG
/// matrices were timed against: a main cell carries one `timing`, an RNG
/// cell its `v1` and `v2` timings, and the summary loses the layout
/// speedups and identity flags (the engine's digest corpus in `hyperx-sim`
/// pins what those identity flags checked). v7 drops the `partition_cells`
/// matrix and the `partition_*` summary fields with intra-simulation
/// partitioning itself: the engine steps every run sequentially.
pub const BENCH_SCHEMA: &str = "surepath-bench-engine/v7";

/// Loads at or below this value count as "low load" in the summary (the
/// regime active-set scheduling targets: most of the network is idle).
pub const LOW_LOAD_THRESHOLD: f64 = 0.15;

/// One cell of the pinned matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCell {
    /// Routing mechanism under test.
    pub mechanism: MechanismSpec,
    /// HyperX sides.
    pub sides: Vec<usize>,
    /// Offered load in phits/cycle/server.
    pub load: f64,
}

/// The pinned matrix plus the simulation windows of a bench run.
#[derive(Clone, Debug)]
pub struct BenchMatrix {
    /// Human name of the matrix (`quick` / `full`).
    pub mode: &'static str,
    /// Warmup cycles per run.
    pub warmup_cycles: u64,
    /// Measured cycles per run.
    pub measure_cycles: u64,
    /// The cells, in a fixed order.
    pub cells: Vec<BenchCell>,
    /// The RNG-contract cells: rate-mode points timed under contract v1
    /// (per-server Bernoulli scan) and contract v2 (counting sampler).
    /// Pinned like `cells`.
    pub rng_cells: Vec<BenchCell>,
    /// The observability-overhead cells: rate-mode points timed with the
    /// engine's counters (always on) against the same run with the packet
    /// tracer attached. Pinned like `cells`.
    pub obs_cells: Vec<BenchCell>,
}

impl BenchMatrix {
    /// The pinned matrix at the given scale. The cells are deliberately
    /// frozen — comparable across PRs — and span both regimes: low loads
    /// (where the active set is small and the scheduling win dominates)
    /// and saturation (where the win comes from the allocation-free inner
    /// loop and the candidate cache). The RNG-contract cells fix one
    /// mechanism (PolSP, the paper's headline) and sweep size × load, since
    /// the counting sampler's win is a property of generation, not routing.
    pub fn pinned(quick: bool) -> Self {
        let (sizes, loads, warmup, measure): (&[&[usize]], &[f64], u64, u64) = if quick {
            (&[&[4, 4], &[8, 8]], &[0.05, 0.3, 0.7], 200, 1_000)
        } else {
            (&[&[8, 8], &[16, 16]], &[0.05, 0.3, 0.7], 500, 3_000)
        };
        let mechanisms = [
            MechanismSpec::Minimal,
            MechanismSpec::OmniSP,
            MechanismSpec::PolSP,
        ];
        let mut cells = Vec::new();
        let mut rng_cells = Vec::new();
        for &sides in sizes {
            for mechanism in mechanisms {
                for &load in loads {
                    cells.push(BenchCell {
                        mechanism,
                        sides: sides.to_vec(),
                        load,
                    });
                    if mechanism == MechanismSpec::PolSP {
                        rng_cells.push(BenchCell {
                            mechanism,
                            sides: sides.to_vec(),
                            load,
                        });
                    }
                }
            }
        }
        // The observability pair fixes one mechanism (PolSP, the paper's
        // headline — also the mechanism with the most counter traffic) and
        // spans the size x load grid, like the RNG cells.
        let obs_cells = rng_cells.clone();
        BenchMatrix {
            mode: if quick { "quick" } else { "full" },
            warmup_cycles: warmup,
            measure_cycles: measure,
            cells,
            rng_cells,
            obs_cells,
        }
    }

    /// The side lengths of the largest topology in the matrix (by server
    /// count): the cells the RNG-contract acceptance gate keys on.
    pub fn largest_sides(&self) -> Vec<usize> {
        self.cells
            .iter()
            .chain(&self.rng_cells)
            .map(|c| &c.sides)
            .max_by_key(|sides| sides.iter().product::<usize>() * sides[0])
            .cloned()
            .unwrap_or_default()
    }
}

/// Timing of one engine run over a cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineTiming {
    /// Wall-clock milliseconds of the run (best of `repeat`).
    pub wall_ms: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Delivered packets (whole run, matching the timed span) per
    /// wall-clock second.
    pub packets_per_sec: f64,
}

/// One completed cell of the main matrix: a rate-mode point under RNG
/// contract v2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// Mechanism display name.
    pub mechanism: String,
    /// HyperX sides.
    pub sides: Vec<usize>,
    /// Offered load.
    pub load: f64,
    /// Simulated cycles per run (warmup + measurement).
    pub cycles: u64,
    /// Packets delivered in the measurement window.
    pub delivered_packets: u64,
    /// p99 end-to-end latency (cycles) of the measurement window, from the
    /// engine's histogram; `None` when nothing was delivered.
    pub latency_p99: Option<u64>,
    /// Engine timing.
    pub timing: EngineTiming,
}

/// One completed RNG-contract cell: the same rate-mode point timed under
/// contract v1 (per-server Bernoulli full scan — draw order is the
/// contract) and contract v2 (binomial count + without-replacement sample
/// over the active set). Both runs share the seed; v1 and v2 are
/// *different RNG streams* by design, so their metrics are compared
/// statistically in the engine's test suite, not byte for byte here.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RngCellResult {
    /// Mechanism display name.
    pub mechanism: String,
    /// HyperX sides.
    pub sides: Vec<usize>,
    /// Offered load.
    pub load: f64,
    /// Simulated cycles per run (warmup + measurement).
    pub cycles: u64,
    /// Contract v1 timing (generation scans every server by contract).
    pub v1: EngineTiming,
    /// Contract v2 timing (counting sampler).
    pub v2: EngineTiming,
    /// `v2.cycles_per_sec / v1.cycles_per_sec` — the counting sampler's win.
    pub speedup_v2_over_v1: f64,
}

/// One completed observability-overhead cell: the same rate-mode point
/// timed in the engine's production configuration (counter registry on —
/// it always is; the counters are branch-free unconditional `u64` adds, so
/// this leg *is* the pre-observability configuration) and with the packet
/// tracer attached. Both runs share the seed and must produce byte-identical
/// metrics — tracing is an observation, never a perturbation — so every
/// bench run re-proves the zero-perturbation contract under timing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObsCellResult {
    /// Mechanism display name.
    pub mechanism: String,
    /// HyperX sides.
    pub sides: Vec<usize>,
    /// Offered load.
    pub load: f64,
    /// Simulated cycles per run (warmup + measurement).
    pub cycles: u64,
    /// Trace events the tracer captured in the traced run.
    pub trace_events: u64,
    /// Counters on, tracer off (the production default).
    pub plain: EngineTiming,
    /// Counters on, packet tracer attached.
    pub traced: EngineTiming,
    /// `plain.cycles_per_sec` over the matching main-matrix cell's
    /// timing — the tracing-off cost against the pre-observability
    /// baseline (~1.0: the counters are unconditional adds on both sides, so
    /// this is a regression canary, not a measured feature cost). `1.0` when
    /// the main matrix has no matching cell.
    pub plain_vs_baseline: f64,
    /// `traced.cycles_per_sec / plain.cycles_per_sec` — what attaching the
    /// tracer costs.
    pub traced_vs_plain: f64,
    /// Whether the plain and traced runs produced byte-identical metrics
    /// (they must: the tracer never touches RNG or scheduling state).
    pub metrics_identical: bool,
}

/// Aggregates of a bench run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Cells in the matrix.
    pub cells: usize,
    /// Cells that ran to completion (a panicking cell is dropped, so
    /// `completed < cells` marks a broken matrix entry; CI asserts
    /// equality).
    pub completed: usize,
    /// RNG-contract cells in the matrix.
    pub rng_cells: usize,
    /// RNG-contract cells that ran to completion.
    pub rng_completed: usize,
    /// Geometric-mean v2-over-v1 speedup across all RNG-contract cells.
    pub rng_geomean_speedup: f64,
    /// Geometric-mean v2-over-v1 speedup across the low-load RNG-contract
    /// cells on the matrix's **largest** topology — the regime the counting
    /// sampler targets (most servers idle, v1 still scans them all). The
    /// acceptance gate: ≥ 2× here.
    pub rng_low_load_largest_speedup: f64,
    /// Observability-overhead cells in the matrix.
    pub obs_cells: usize,
    /// Observability-overhead cells that ran to completion.
    pub obs_completed: usize,
    /// Geometric mean of `plain_vs_baseline` — the tracing-off cycles/sec
    /// cost against the main matrix (the acceptance gate: ≥ 0.98, i.e. the
    /// observability layer costs at most 2% with counters on, tracing off).
    pub obs_plain_vs_baseline: f64,
    /// Geometric mean of `traced_vs_plain` — what attaching the tracer
    /// costs.
    pub obs_traced_vs_plain: f64,
    /// Whether every observability cell's plain and traced runs agreed byte
    /// for byte.
    pub all_obs_metrics_identical: bool,
}

/// The full JSON report of a bench run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA`].
    pub schema: String,
    /// `quick` or `full`.
    pub mode: String,
    /// Warmup cycles per run.
    pub warmup_cycles: u64,
    /// Measured cycles per run.
    pub measure_cycles: u64,
    /// Timed repetitions per run of a cell (best is reported).
    pub repeat: usize,
    /// `std::thread::available_parallelism()` of the host — context for
    /// reading the timings (every run is single-threaded).
    pub available_parallelism: usize,
    /// Per-cell results, matrix order.
    pub cells: Vec<CellResult>,
    /// Per-cell RNG-contract results, matrix order.
    pub rng_cells: Vec<RngCellResult>,
    /// Per-cell observability-overhead results, matrix order.
    pub obs_cells: Vec<ObsCellResult>,
    /// Aggregates.
    pub summary: BenchSummary,
}

/// Builds the experiment of one cell (uniform traffic, healthy network,
/// paper Table 2 parameters, pinned seed) under the given RNG contract.
fn cell_experiment(cell: &BenchCell, warmup: u64, measure: u64, rng: RngContract) -> Experiment {
    let dims = cell.sides.len();
    let concentration = cell.sides[0];
    let num_vcs = cell.mechanism.default_num_vcs(dims);
    let mut sim = SimConfig::paper_defaults(concentration, num_vcs);
    sim.warmup_cycles = warmup;
    sim.measure_cycles = measure;
    sim.seed = 1;
    sim.rng_contract = rng;
    Experiment {
        sides: cell.sides.clone(),
        concentration,
        mechanism: cell.mechanism,
        num_vcs,
        traffic: TrafficSpec::Uniform,
        scenario: FaultScenario::None,
        root: RootPlacement::Suggested,
        sim,
    }
}

/// One timed cell: the best wall clock of `repeat` runs, plus what the
/// first run observed.
struct Timed {
    timing: EngineTiming,
    /// Simulated cycles per run (warmup + measurement).
    cycles: u64,
    /// Packets delivered in the measurement window.
    delivered: u64,
    latency_p99: Option<u64>,
    /// Trace events captured plus dropped (0 without the tracer).
    trace_events: u64,
    /// The serialized metrics, for the byte-identity gates.
    metrics_json: String,
}

/// Runs the engine over one cell `repeat` times, optionally with the packet
/// tracer attached, and returns the best timing with the first run's
/// observations.
fn time_engine(experiment: &Experiment, load: f64, traced: bool, repeat: usize) -> Timed {
    let mut best_ms = f64::INFINITY;
    let mut first = None;
    for _ in 0..repeat.max(1) {
        let mut sim = experiment.build_simulator();
        if traced {
            sim.set_tracer(Some(PacketTracer::with_capacity(
                PacketTracer::DEFAULT_CAPACITY,
            )));
        }
        let started = Instant::now();
        let metrics = sim.run_rate(load);
        best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1_000.0);
        if first.is_none() {
            let trace_events = sim
                .take_tracer()
                .map_or(0, |t| t.events().len() as u64 + t.dropped());
            first = Some((sim.cycle(), sim.total_delivered(), trace_events, metrics));
        }
    }
    let (cycles, total_delivered, trace_events, metrics) = first.expect("at least one run");
    let secs = (best_ms / 1_000.0).max(1e-9);
    Timed {
        // The wall clock covers warmup + measurement, so the rates use
        // whole-run counts on both axes (measurement-window deliveries
        // over whole-run time would understate throughput).
        timing: EngineTiming {
            wall_ms: best_ms,
            cycles_per_sec: cycles as f64 / secs,
            packets_per_sec: total_delivered as f64 / secs,
        },
        cycles,
        delivered: metrics.delivered_packets,
        latency_p99: metrics
            .latency_hist
            .as_ref()
            .and_then(|h| h.value_at_quantile(0.99)),
        trace_events,
        metrics_json: serde_json::to_string(&metrics).expect("metrics serialize"),
    }
}

/// The progress line of a finished cell: label, topology, load and its
/// headline number.
fn progress_line(label: &str, sides: &[usize], load: f64, headline: &str) -> String {
    format!("{label} {} load {load:.2}: {headline}", sides_key(sides))
}

/// `[8, 8]` → `8x8`.
fn sides_key(sides: &[usize]) -> String {
    sides
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// Runs the whole matrix — the main cells, the RNG-contract cells, then
/// the observability pairs — calling
/// `progress(done, total, line)` after each completed cell with a one-line
/// summary of it.
pub fn run_engine_bench(
    matrix: &BenchMatrix,
    repeat: usize,
    mut progress: impl FnMut(usize, usize, &str),
) -> BenchReport {
    let total = matrix.cells.len() + matrix.rng_cells.len() + matrix.obs_cells.len();
    let mut done = 0;
    let mut cells = Vec::with_capacity(matrix.cells.len());
    for cell in &matrix.cells {
        // A cell that panics (a bad future matrix entry, a mechanism that
        // rejects the configuration) is dropped rather than killing the
        // run: `summary.completed < summary.cells` then fails the CI gate.
        let outcome = std::panic::catch_unwind(|| {
            let experiment = cell_experiment(
                cell,
                matrix.warmup_cycles,
                matrix.measure_cycles,
                RngContract::V2Counting,
            );
            let run = time_engine(&experiment, cell.load, false, repeat);
            CellResult {
                mechanism: cell.mechanism.name().to_string(),
                sides: cell.sides.clone(),
                load: cell.load,
                cycles: run.cycles,
                delivered_packets: run.delivered,
                latency_p99: run.latency_p99,
                timing: run.timing,
            }
        });
        let Ok(result) = outcome else {
            continue;
        };
        done += 1;
        progress(
            done,
            total,
            &progress_line(
                &result.mechanism,
                &result.sides,
                result.load,
                &format!("{:.3} Mcyc/s", result.timing.cycles_per_sec / 1e6),
            ),
        );
        cells.push(result);
    }
    let mut rng_cells = Vec::with_capacity(matrix.rng_cells.len());
    for cell in &matrix.rng_cells {
        let outcome = std::panic::catch_unwind(|| {
            let [v1, v2] = [RngContract::V1PerServer, RngContract::V2Counting].map(|rng| {
                let experiment =
                    cell_experiment(cell, matrix.warmup_cycles, matrix.measure_cycles, rng);
                time_engine(&experiment, cell.load, false, repeat)
            });
            RngCellResult {
                mechanism: cell.mechanism.name().to_string(),
                sides: cell.sides.clone(),
                load: cell.load,
                cycles: v1.cycles,
                speedup_v2_over_v1: v2.timing.cycles_per_sec / v1.timing.cycles_per_sec.max(1e-9),
                v1: v1.timing,
                v2: v2.timing,
            }
        });
        let Ok(result) = outcome else {
            continue;
        };
        done += 1;
        progress(
            done,
            total,
            &progress_line(
                &format!("{} [rng v1→v2]", result.mechanism),
                &result.sides,
                result.load,
                &format!("{:.2}x", result.speedup_v2_over_v1),
            ),
        );
        rng_cells.push(result);
    }
    let mut obs_cells = Vec::with_capacity(matrix.obs_cells.len());
    for cell in &matrix.obs_cells {
        // The tracing-off leg is judged against the matching main-matrix
        // cell (same mechanism/sides/load) — the closest thing to a
        // pre-observability baseline a single binary offers.
        let baseline_cps = cells
            .iter()
            .find(|c| {
                c.mechanism == cell.mechanism.name() && c.sides == cell.sides && c.load == cell.load
            })
            .map(|c| c.timing.cycles_per_sec);
        let outcome = std::panic::catch_unwind(|| {
            let experiment = cell_experiment(
                cell,
                matrix.warmup_cycles,
                matrix.measure_cycles,
                RngContract::V2Counting,
            );
            // Millisecond-scale quick cells are noisy; a best-of-3 floor
            // keeps the overhead ratios meaningful even at --repeat 1.
            let reps = repeat.max(3);
            let plain = time_engine(&experiment, cell.load, false, reps);
            let traced = time_engine(&experiment, cell.load, true, reps);
            ObsCellResult {
                mechanism: cell.mechanism.name().to_string(),
                sides: cell.sides.clone(),
                load: cell.load,
                cycles: plain.cycles,
                trace_events: traced.trace_events,
                plain_vs_baseline: baseline_cps
                    .map_or(1.0, |b| plain.timing.cycles_per_sec / b.max(1e-9)),
                traced_vs_plain: traced.timing.cycles_per_sec
                    / plain.timing.cycles_per_sec.max(1e-9),
                metrics_identical: plain.metrics_json == traced.metrics_json,
                plain: plain.timing,
                traced: traced.timing,
            }
        });
        let Ok(result) = outcome else {
            continue;
        };
        done += 1;
        progress(
            done,
            total,
            &progress_line(
                &format!("{} [obs trace]", result.mechanism),
                &result.sides,
                result.load,
                &format!("{:.2}x", result.traced_vs_plain),
            ),
        );
        obs_cells.push(result);
    }
    let geomean = |values: &[f64]| -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
    };
    let largest = matrix.largest_sides();
    let rng_speedups: Vec<f64> = rng_cells.iter().map(|c| c.speedup_v2_over_v1).collect();
    let rng_low_load_largest: Vec<f64> = rng_cells
        .iter()
        .filter(|c| c.load <= LOW_LOAD_THRESHOLD && c.sides == largest)
        .map(|c| c.speedup_v2_over_v1)
        .collect();
    let summary = BenchSummary {
        cells: matrix.cells.len(),
        completed: cells.len(),
        rng_cells: matrix.rng_cells.len(),
        rng_completed: rng_cells.len(),
        rng_geomean_speedup: geomean(&rng_speedups),
        rng_low_load_largest_speedup: geomean(&rng_low_load_largest),
        obs_cells: matrix.obs_cells.len(),
        obs_completed: obs_cells.len(),
        obs_plain_vs_baseline: geomean(
            &obs_cells
                .iter()
                .map(|c| c.plain_vs_baseline)
                .collect::<Vec<_>>(),
        ),
        obs_traced_vs_plain: geomean(
            &obs_cells
                .iter()
                .map(|c| c.traced_vs_plain)
                .collect::<Vec<_>>(),
        ),
        all_obs_metrics_identical: obs_cells.iter().all(|c| c.metrics_identical),
    };
    BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        mode: matrix.mode.to_string(),
        warmup_cycles: matrix.warmup_cycles,
        measure_cycles: matrix.measure_cycles,
        repeat: repeat.max(1),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cells,
        rng_cells,
        obs_cells,
        summary,
    }
}

/// Renders the report as the aligned table `surepath bench` prints.
pub fn format_bench_report(report: &BenchReport) -> String {
    use surepath_core::{format_table, ReportRow};
    let header = ["mechanism", "sides", "load", "Mcyc/s", "Mpkt/s", "p99 lat"];
    let rows: Vec<ReportRow> = report
        .cells
        .iter()
        .map(|c| ReportRow {
            label: c.mechanism.clone(),
            values: vec![
                sides_key(&c.sides),
                format!("{:.2}", c.load),
                format!("{:.3}", c.timing.cycles_per_sec / 1e6),
                format!("{:.3}", c.timing.packets_per_sec / 1e6),
                c.latency_p99
                    .map_or_else(|| "-".to_string(), |v| v.to_string()),
            ],
        })
        .collect();
    let mut out = format_table(&header, &rows);
    out.push_str(&format!(
        "{} of {} cells completed\n",
        report.summary.completed, report.summary.cells,
    ));
    if !report.rng_cells.is_empty() {
        let rng_header = [
            "mechanism",
            "sides",
            "load",
            "v1 Mcyc/s",
            "v2 Mcyc/s",
            "v2/v1",
        ];
        let rng_rows: Vec<ReportRow> = report
            .rng_cells
            .iter()
            .map(|c| ReportRow {
                label: c.mechanism.clone(),
                values: vec![
                    sides_key(&c.sides),
                    format!("{:.2}", c.load),
                    format!("{:.3}", c.v1.cycles_per_sec / 1e6),
                    format!("{:.3}", c.v2.cycles_per_sec / 1e6),
                    format!("{:.2}x", c.speedup_v2_over_v1),
                ],
            })
            .collect();
        out.push_str("\nRNG contract cells (v1 per-server scan vs v2 counting sampler):\n");
        out.push_str(&format_table(&rng_header, &rng_rows));
        out.push_str(&format!(
            "rng geomean speedup {:.2}x (low-load largest-topology {:.2}x) over {} cells\n",
            report.summary.rng_geomean_speedup,
            report.summary.rng_low_load_largest_speedup,
            report.summary.rng_completed,
        ));
    }
    if !report.obs_cells.is_empty() {
        let obs_header = [
            "mechanism",
            "sides",
            "load",
            "plain Mcyc/s",
            "traced Mcyc/s",
            "traced/plain",
            "vs baseline",
            "events",
            "identical",
        ];
        let obs_rows: Vec<ReportRow> = report
            .obs_cells
            .iter()
            .map(|c| ReportRow {
                label: c.mechanism.clone(),
                values: vec![
                    sides_key(&c.sides),
                    format!("{:.2}", c.load),
                    format!("{:.3}", c.plain.cycles_per_sec / 1e6),
                    format!("{:.3}", c.traced.cycles_per_sec / 1e6),
                    format!("{:.2}x", c.traced_vs_plain),
                    format!("{:.2}x", c.plain_vs_baseline),
                    c.trace_events.to_string(),
                    if c.metrics_identical { "yes" } else { "NO" }.to_string(),
                ],
            })
            .collect();
        out.push_str("\nObservability overhead cells (counters on / + packet tracer):\n");
        out.push_str(&format_table(&obs_header, &obs_rows));
        out.push_str(&format!(
            "obs tracing-off vs baseline {:.3}x (geomean; >=0.98 is the <=2% gate), \
             traced vs plain {:.3}x over {} cells\n",
            report.summary.obs_plain_vs_baseline,
            report.summary.obs_traced_vs_plain,
            report.summary.obs_completed,
        ));
        if !report.summary.all_obs_metrics_identical {
            out.push_str(
                "WARNING: plain and traced metrics diverged — \
                 the zero-perturbation contract is broken\n",
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_matrix_is_stable_and_covers_both_regimes() {
        let quick = BenchMatrix::pinned(true);
        assert_eq!(quick.mode, "quick");
        assert_eq!(quick.cells.len(), 18, "2 sizes x 3 mechanisms x 3 loads");
        assert!(quick.cells.iter().any(|c| c.load <= LOW_LOAD_THRESHOLD));
        assert!(quick.cells.iter().any(|c| c.load >= 0.7));
        assert_eq!(quick.rng_cells.len(), 6, "2 sizes x 3 loads, PolSP only");
        assert!(quick
            .rng_cells
            .iter()
            .all(|c| c.mechanism == MechanismSpec::PolSP));
        assert!(quick
            .rng_cells
            .iter()
            .any(|c| c.load <= LOW_LOAD_THRESHOLD && c.sides == quick.largest_sides()));
        assert_eq!(quick.obs_cells.len(), 6, "2 sizes x 3 loads, PolSP only");
        assert!(quick
            .obs_cells
            .iter()
            .all(|c| c.mechanism == MechanismSpec::PolSP));
        assert!(
            quick.obs_cells.iter().all(|obs| quick
                .cells
                .iter()
                .any(|c| c.mechanism == obs.mechanism
                    && c.sides == obs.sides
                    && c.load == obs.load)),
            "every obs cell has a main-matrix baseline cell"
        );
        assert_eq!(quick.largest_sides(), vec![8, 8]);
        let full = BenchMatrix::pinned(false);
        assert_eq!(full.mode, "full");
        assert!(full.measure_cycles > quick.measure_cycles);
        assert_eq!(full.largest_sides(), vec![16, 16]);
    }

    #[test]
    fn tiny_bench_run_reports_identical_metrics_and_parses_back() {
        // A minimal matrix — one cell per sub-matrix: the report must
        // round-trip through its JSON schema, and the traced run must
        // byte-match the plain one.
        let cell = BenchCell {
            mechanism: MechanismSpec::PolSP,
            sides: vec![4, 4],
            load: 0.1,
        };
        let matrix = BenchMatrix {
            mode: "quick",
            warmup_cycles: 50,
            measure_cycles: 200,
            cells: vec![cell.clone()],
            rng_cells: vec![cell.clone()],
            obs_cells: vec![cell],
        };
        let mut lines = Vec::new();
        let report = run_engine_bench(&matrix, 1, |done, total, line| {
            assert_eq!(total, 3);
            assert_eq!(done, lines.len() + 1);
            lines.push(line.to_string());
        });
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("PolSP 4x4 load 0.10: "), "{lines:?}");
        assert!(lines[1].contains("[rng v1→v2]"), "{lines:?}");
        assert!(lines[2].contains("[obs trace]"), "{lines:?}");
        assert_eq!(report.schema, BENCH_SCHEMA);
        assert!(report.available_parallelism >= 1);
        assert_eq!(report.summary.cells, 1);
        assert_eq!(report.summary.completed, 1);
        assert!(report.cells[0].timing.cycles_per_sec > 0.0);
        assert!(report.cells[0].delivered_packets > 0);
        assert!(report.cells[0].latency_p99.is_some());
        // The RNG-contract cell: both contracts ran, and the low-load
        // largest-topology aggregate covers this one cell.
        assert_eq!(report.summary.rng_cells, 1);
        assert_eq!(report.summary.rng_completed, 1);
        assert!(report.rng_cells[0].v1.cycles_per_sec > 0.0);
        assert!(report.rng_cells[0].v2.cycles_per_sec > 0.0);
        assert!(report.rng_cells[0].speedup_v2_over_v1 > 0.0);
        assert!(report.summary.rng_low_load_largest_speedup > 0.0);
        // The observability cell: the plain and traced runs byte-agree (the
        // zero-perturbation contract under timing), the tracer actually
        // captured lifecycles, and both overhead ratios are populated.
        assert_eq!(report.summary.obs_cells, 1);
        assert_eq!(report.summary.obs_completed, 1);
        assert!(report.summary.all_obs_metrics_identical);
        assert!(report.obs_cells[0].metrics_identical);
        assert!(report.obs_cells[0].trace_events > 0);
        assert!(report.obs_cells[0].plain.cycles_per_sec > 0.0);
        assert!(report.obs_cells[0].traced_vs_plain > 0.0);
        assert!(report.summary.obs_plain_vs_baseline > 0.0);
        assert!(report.summary.obs_traced_vs_plain > 0.0);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.cells.len(), 1);
        assert_eq!(parsed.rng_cells.len(), 1);
        assert_eq!(parsed.obs_cells.len(), 1);
        assert_eq!(parsed.summary.completed, 1);
        let table = format_bench_report(&report);
        assert!(table.contains("PolSP"), "{table}");
        assert!(table.contains("1 of 1 cells completed"), "{table}");
        assert!(table.contains("RNG contract cells"), "{table}");
        assert!(table.contains("rng geomean speedup"), "{table}");
        assert!(table.contains("Observability overhead cells"), "{table}");
        assert!(table.contains("traced vs plain"), "{table}");
    }

    #[test]
    fn a_panicking_cell_is_dropped_and_counted_as_incomplete() {
        // An out-of-range load makes run_rate assert; the run must survive,
        // report the healthy cell and expose the loss via completed < cells.
        let matrix = BenchMatrix {
            mode: "quick",
            warmup_cycles: 50,
            measure_cycles: 100,
            cells: vec![
                BenchCell {
                    mechanism: MechanismSpec::Minimal,
                    sides: vec![4, 4],
                    load: 1.5,
                },
                BenchCell {
                    mechanism: MechanismSpec::Minimal,
                    sides: vec![4, 4],
                    load: 0.1,
                },
            ],
            rng_cells: vec![],
            obs_cells: vec![],
        };
        let report = run_engine_bench(&matrix, 1, |_, _, _| {});
        assert_eq!(report.summary.cells, 2);
        assert_eq!(report.summary.completed, 1);
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].load, 0.1);
    }
}
