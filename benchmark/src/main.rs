//! surepath-benchmark: the repository's end-to-end benchmark.
//!
//! `run` turns each workload and `--seed` into a campaign spec, times
//! `surepath campaign` children from spec to finalized store (wall, CPU of
//! the process tree, peak RSS), times set-up in-process, checks every output,
//! and runs one traced in-process pass per workload for the per-layer split.
//! `compare` applies the no-regression rule to two result files. `wrap` (the
//! resource-accounting wrapper around each child) and `setup` (one set-up
//! measurement) are helper processes `run` re-executes.
//! Run it through `benchmark/run.sh`, which builds both binaries first.

mod check;
mod compare;
mod e2e;
mod layers;
mod stats;
mod trace;
mod workloads;

use serde::{Number, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::Workload;

/// A metric's name, unit and better direction, as `BENCHMARK.json` lists it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, host time. The failure share is reported and
/// compared strictly as well, but is not listed here: it is 0 on every
/// healthy run.
pub const E2E_METRICS: [MetricDef; 4] = [
    def("wall_s", "s", "lower"),
    def("cpu_s", "s", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics of the traced pass, named after the crates.
pub const LAYER_METRICS: [MetricDef; 32] = [
    def("topology.hyperx_build_ms", "ms", "lower"),
    def("topology.fault_set_ms", "ms", "lower"),
    def("topology.distance_matrix_ms", "ms", "lower"),
    def("topology.updown_ms", "ms", "lower"),
    def("routing.view_build_ms", "ms", "lower"),
    def("routing.views_built", "count", "lower"),
    def("routing.mechanism_build_ms", "ms", "lower"),
    def("routing.cand_cache_hit_ratio", "ratio", "higher"),
    def("core.view_cache_hit_ratio", "ratio", "higher"),
    def("core.job_experiment_us", "us", "lower"),
    def("sim.new_ms", "ms", "lower"),
    def("sim.run_s", "s", "lower"),
    def("sim.ns_per_packet", "ns", "lower"),
    def("sim.ns_per_switch_cycle", "ns", "lower"),
    def("sim.snapshot_us", "us", "lower"),
    def("sim.alloc_grant_ratio", "ratio", "higher"),
    def("sim.escape_grant_share", "ratio", "lower"),
    def("sim.blocked_cycles", "count", "lower"),
    def("sim.partition_speedup", "x", "higher"),
    def("runner.expand_ms", "ms", "lower"),
    def("runner.fingerprint_us", "us", "lower"),
    def("runner.store_append_us", "us", "lower"),
    def("runner.store_finalize_ms", "ms", "lower"),
    def("runner.outside_job_share", "ratio", "lower"),
    def("runner.job_ms_p50", "ms", "lower"),
    def("runner.job_ms_tail", "ms", "lower"),
    def("dist.overhead_share", "ratio", "lower"),
    def("dist.frame_us", "us", "lower"),
    def("dist.worker_imbalance", "x", "lower"),
    def("dist.reoffered", "count", "lower"),
    def("bench.trace_overhead", "ratio", "lower"),
    def("bench.unattributed_share", "ratio", "lower"),
];

/// Where runs put their temporary stores, traces and results, relative to the
/// repository root.
const OUT_DIR: &str = "benchmark/out";
/// One set-up sample is the mean over fresh-process set-ups adding up to
/// this many seconds (or a single one, if that takes longer). Set-ups of a
/// few milliseconds land in the host's fast or slow CPU phases at random,
/// up to 1.7x apart on the reference host; single samples made the run's
/// median jump between the two.
const SETUP_SAMPLE_SECONDS: f64 = 0.1;
/// The traced pass fails if layer spans leave more than this share of its
/// wall time unattributed.
const MAX_UNATTRIBUTED: f64 = 0.10;

const USAGE: &str = "usage:
  surepath-benchmark run --surepath PATH [--workload NAME]... [--seed N]
                         [--repeats N | --seconds S] [--trace 0|1] [--out PATH]
  surepath-benchmark compare BASELINE.json CANDIDATE.json
Without --trace a run measures end to end and then makes the traced pass;
--trace 0 measures end to end only, --trace 1 makes the traced pass only.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("wrap") => e2e::wrap(args.get(2..).unwrap_or_default()).map(|()| true),
        Some("setup") if args.len() == 3 => {
            e2e::setup_seconds(Path::new(&args[1]), Path::new(&args[2])).map(|s| {
                println!("{s}");
                true
            })
        }
        Some("compare") => compare_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let [base, cand] = args else {
        return Err(USAGE.to_string());
    };
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, pass) = compare::compare(&load(base)?, &load(cand)?, &load("BENCHMARK.json")?);
    print!("{report}");
    println!("{}", if pass { "no regression" } else { "FAILED" });
    Ok(pass)
}

struct RunArgs {
    surepath: PathBuf,
    workloads: Vec<&'static Workload>,
    seed: u64,
    repeats: usize,
    seconds: Option<f64>,
    /// `None`: end to end, then the traced pass.
    trace: Option<bool>,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        surepath: PathBuf::new(),
        workloads: Vec::new(),
        seed: check::PINNED_SEED,
        repeats: 15,
        seconds: None,
        trace: None,
        out: Path::new(OUT_DIR).join("results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--surepath" => run.surepath = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                run.workloads
                    .push(workloads::find(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => run.seed = number(value()?)?,
            "--repeats" => run.repeats = number(value()?)?.max(1) as usize,
            "--seconds" => run.seconds = Some(number(value()?)?.max(1) as f64),
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => run.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if run.surepath.as_os_str().is_empty() {
        return Err(format!("--surepath is required\n{USAGE}"));
    }
    if run.workloads.is_empty() {
        run.workloads = workloads::WORKLOADS.iter().collect();
    }
    Ok(run)
}

/// Everything measured for one workload.
struct WorkloadRun {
    w: &'static Workload,
    spec: PathBuf,
    jobs: usize,
    attempted: usize,
    failed: usize,
    samples: Vec<e2e::ChildSample>,
    setup_s: Vec<f64>,
    digest: Option<String>,
    /// The first finalized store; every later store must equal it.
    bytes: Option<Vec<u8>>,
    traced: Option<layers::TracedRun>,
}

impl WorkloadRun {
    /// One end-to-end repeat: a set-up sample, then a campaign child.
    /// Set-up is sampled next to every child rather than all at once, so its
    /// median spans the same stretch of host time as the children's.
    fn repeat(&mut self, surepath: &Path, tmp: &Path) -> Result<(), String> {
        let store = tmp.join(format!("{}-setup.jsonl", self.w.name));
        let (mut total, mut count) = (0.0, 0);
        while count == 0 || total < SETUP_SAMPLE_SECONDS {
            total += e2e::run_setup(&self.spec, &store)?;
            count += 1;
        }
        self.setup_s.push(total / count as f64);
        self.run_child(surepath, tmp)
    }

    /// Runs one `surepath campaign` child into a fresh store and checks it.
    fn run_child(&mut self, surepath: &Path, tmp: &Path) -> Result<(), String> {
        let store = tmp.join(format!("{}-{}.jsonl", self.w.name, self.samples.len()));
        let sample = e2e::run_child(surepath, &self.spec, &store, &self.w.cli_args())?;
        let bytes = self.accept_store(&store, "campaign child")?;
        self.samples.push(sample);
        for path in [
            store.clone(),
            surepath_runner::timings_path(&store),
            surepath_runner::manifest_path(&store),
        ] {
            let _ = std::fs::remove_file(path);
        }
        if self.bytes.is_none() {
            self.bytes = Some(bytes);
        }
        Ok(())
    }

    /// Checks a finalized store: every job ok and not stalled, and the same
    /// digest and bytes as every earlier store of this invocation.
    fn accept_store(&mut self, store: &Path, what: &str) -> Result<Vec<u8>, String> {
        let bytes =
            std::fs::read(store).map_err(|e| format!("cannot read {}: {e}", store.display()))?;
        let text = String::from_utf8(bytes.clone()).map_err(|e| e.to_string())?;
        let found = check::check_store(&text)?;
        self.attempted += self.jobs;
        self.failed += found.failed + self.jobs.saturating_sub(found.records);
        let name = self.w.name;
        if found.failed > 0 || found.records != self.jobs {
            return Err(format!(
                "{name}: {what} stored {} of {} jobs, {} failed or stalled",
                found.records, self.jobs, found.failed
            ));
        }
        if let Some(digest) = &self.digest {
            if *digest != found.digest {
                return Err(format!(
                    "{name}: {what} digest {} differs from {digest}",
                    found.digest
                ));
            }
        }
        if self.bytes.as_ref().is_some_and(|first| *first != bytes) {
            return Err(format!(
                "{name}: {what} store bytes differ from the first run"
            ));
        }
        self.digest = Some(found.digest);
        Ok(bytes)
    }

    /// Whether this run has end-to-end samples (with `--trace 1` it holds
    /// only the one reference child of the traced pass, and no set-up).
    fn measured_e2e(&self) -> bool {
        !self.setup_s.is_empty() && !self.samples.is_empty()
    }

    fn e2e_values(&self, metric: &str) -> Vec<f64> {
        match metric {
            "setup_s" => self.setup_s.clone(),
            _ => self
                .samples
                .iter()
                .map(|s| match metric {
                    "wall_s" => s.wall_s,
                    "cpu_s" => s.cpu_s,
                    "peak_rss_mb" => s.peak_rss_mb,
                    other => unreachable!("no end-to-end metric {other}"),
                })
                .collect(),
        }
    }
}

fn run_cmd(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let mut runs: Vec<WorkloadRun> = Vec::new();
    let outcome = measure(&args, &tmp, &mut runs);
    let _ = std::fs::remove_dir_all(&tmp);
    let correct = match &outcome {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    };
    print_summary(&args, &runs);
    // Written on failure too, so `compare` sees a candidate's failures.
    let results = results_json(&args, &runs, correct);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&args.out, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("results: {}", args.out.display());
    let line = final_line(&args, &runs, correct);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

fn measure(args: &RunArgs, tmp: &Path, runs: &mut Vec<WorkloadRun>) -> Result<(), String> {
    eprintln!("model: unvalidated (no hardware or paper reference, so no error figure)");
    for &w in &args.workloads {
        let spec = tmp.join(format!("{}.toml", w.name));
        let text = w.spec_toml(args.seed);
        std::fs::write(&spec, &text).map_err(|e| format!("cannot write spec: {e}"))?;
        let jobs = surepath_runner::spec::spec_from_toml(&text)?
            .expand()?
            .len();
        runs.push(WorkloadRun {
            w,
            spec,
            jobs,
            attempted: 0,
            failed: 0,
            samples: Vec::new(),
            setup_s: Vec::new(),
            digest: None,
            bytes: None,
            traced: None,
        });
    }
    if args.trace != Some(true) {
        match args.seconds {
            // One workload after another, each for the given time: a repeat
            // starts only if one as long as the longest so far still fits.
            Some(seconds) => {
                for run in runs.iter_mut() {
                    let start = Instant::now();
                    let mut longest: f64 = 0.0;
                    loop {
                        let repeat = Instant::now();
                        run.repeat(&args.surepath, tmp)?;
                        longest = longest.max(repeat.elapsed().as_secs_f64());
                        if start.elapsed().as_secs_f64() + longest > seconds {
                            break;
                        }
                    }
                }
            }
            // Round-robin, so slow drift in the host spreads over all workloads.
            None => {
                for _ in 0..args.repeats {
                    for run in runs.iter_mut() {
                        run.repeat(&args.surepath, tmp)?;
                    }
                }
            }
        }
    }
    if args.trace != Some(false) {
        for run in runs.iter_mut() {
            if run.samples.is_empty() {
                // The untraced reference for the store bytes and the overhead.
                run.run_child(&args.surepath, tmp)?;
            }
            let walls = run.e2e_values("wall_s");
            let store = tmp.join(format!("{}-traced.jsonl", run.w.name));
            let traced = layers::traced_pass(run.w, &run.spec, &store, tmp, stats::median(&walls))?;
            let names = traced.metrics.iter().map(|(name, _)| *name);
            if !names.eq(LAYER_METRICS.iter().map(|m| m.name)) {
                return Err("the traced pass's metrics do not match LAYER_METRICS".to_string());
            }
            run.accept_store(&store, "traced pass")?;
            if run.bytes.as_deref() != Some(&traced.replay_bytes[..]) {
                return Err(format!(
                    "{}: replaying the results through the store API gave other bytes",
                    run.w.name
                ));
            }
            let unattributed = traced.self_s.get("unattributed").copied().unwrap_or(0.0);
            if unattributed > MAX_UNATTRIBUTED * traced.wall_s {
                return Err(format!(
                    "{}: layer spans leave {unattributed:.3} s of the traced {:.3} s unattributed",
                    run.w.name, traced.wall_s
                ));
            }
            let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", run.w.name));
            trace::write_jsonl(&path, &traced.spans)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            run.traced = Some(traced);
        }
    }
    for run in runs.iter() {
        let digest = run.digest.as_deref().unwrap_or_default();
        check::verify_pinned(run.w.name, args.seed, digest)?;
    }
    Ok(())
}

fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn summary_stats(values: &[f64], unit: &str) -> Value {
    let (q1, q3) = stats::quartiles(values);
    obj(vec![
        ("unit", Value::String(unit.to_string())),
        ("median", num(stats::median(values))),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("n", Value::Number(Number::UInt(values.len() as u64))),
        (
            "values",
            Value::Array(values.iter().map(|&v| num(v)).collect()),
        ),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The full results file: medians, quartiles, counts and raw values of the
/// end-to-end metrics, the failure share, and the traced pass's per-layer
/// numbers.
fn results_json(args: &RunArgs, runs: &[WorkloadRun], correct: bool) -> Value {
    let workloads = runs
        .iter()
        .map(|run| {
            let mut entries = vec![
                ("name", Value::String(run.w.name.to_string())),
                (
                    "digest",
                    Value::String(run.digest.clone().unwrap_or_default()),
                ),
                ("jobs", Value::Number(Number::UInt(run.jobs as u64))),
                (
                    "attempted",
                    Value::Number(Number::UInt(run.attempted as u64)),
                ),
                ("failed", Value::Number(Number::UInt(run.failed as u64))),
            ];
            if run.measured_e2e() {
                let mut e2e: Vec<(&str, Value)> = E2E_METRICS
                    .iter()
                    .map(|m| (m.name, summary_stats(&run.e2e_values(m.name), m.unit)))
                    .collect();
                let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
                e2e.push(("failed_frac", summary_stats(&[failed_frac], "share")));
                entries.push(("e2e", obj(e2e)));
            }
            if let Some(t) = &run.traced {
                let layers = LAYER_METRICS
                    .iter()
                    .zip(&t.metrics)
                    .map(|(m, (_, v))| {
                        (
                            m.name,
                            obj(vec![
                                ("unit", Value::String(m.unit.to_string())),
                                ("value", num(*v)),
                            ]),
                        )
                    })
                    .collect();
                entries.push(("layers", obj(layers)));
                entries.push((
                    "trace",
                    obj(vec![
                        ("wall_s", num(t.wall_s)),
                        (
                            "self_s",
                            Value::Object(
                                t.self_s.iter().map(|(k, v)| (k.clone(), num(*v))).collect(),
                            ),
                        ),
                        ("job_tail_pct", num(t.job_tail_pct)),
                        ("partition_probe_job", Value::String(t.probe_job.clone())),
                        (
                            "spans",
                            Value::String(format!("{OUT_DIR}/trace-{}.jsonl", run.w.name)),
                        ),
                    ]),
                ));
            }
            obj(entries)
        })
        .collect();
    obj(vec![
        ("schema", Value::String("surepath-benchmark/v1".to_string())),
        ("correct", Value::Bool(correct)),
        ("seed", Value::Number(Number::UInt(args.seed))),
        (
            "repeats",
            match args.seconds {
                Some(_) => Value::Null,
                None => Value::Number(Number::UInt(args.repeats as u64)),
            },
        ),
        ("seconds", args.seconds.map_or(Value::Null, num)),
        ("nproc", Value::Number(Number::UInt(nproc()))),
        ("cpu_model", Value::String(cpu_model())),
        ("model", Value::String("unvalidated".to_string())),
        ("workloads", Value::Array(workloads)),
    ])
}

/// The last stdout line: correctness, job counts, and the metrics
/// (end-to-end unless only the traced pass ran; per-layer when it ran).
/// Set-up time is the median of the run's set-up samples; every other
/// end-to-end metric is the run's smallest sample. On a shared host,
/// interference only ever adds time, so the fastest child is the one closest
/// to the program's own cost, while the median moves with how much of the
/// run the host was busy: over ten seeds on the reference host, per-run
/// minima spread 2-9% where medians spread 3-13%. Names carry a
/// `<workload>/` prefix when several workloads ran.
fn final_line(args: &RunArgs, runs: &[WorkloadRun], correct: bool) -> Value {
    let prefix = |w: &str, m: &str| {
        if runs.len() == 1 {
            m.to_string()
        } else {
            format!("{w}/{m}")
        }
    };
    let metric = |v: f64, unit: &str| {
        obj(vec![
            ("value", num(v)),
            ("unit", Value::String(unit.to_string())),
        ])
    };
    let mut metrics: Vec<(String, Value)> = Vec::new();
    if correct {
        for run in runs {
            if args.trace != Some(true) {
                for m in &E2E_METRICS {
                    let values = run.e2e_values(m.name);
                    let v = match m.name {
                        "setup_s" => stats::median(&values),
                        _ => values.iter().copied().fold(f64::INFINITY, f64::min),
                    };
                    metrics.push((prefix(run.w.name, m.name), metric(v, m.unit)));
                }
            }
            if let Some(t) = &run.traced {
                for (m, (_, v)) in LAYER_METRICS.iter().zip(&t.metrics) {
                    metrics.push((prefix(run.w.name, m.name), metric(*v, m.unit)));
                }
            }
        }
    }
    let attempted: usize = runs.iter().map(|r| r.attempted).sum();
    let failed: usize = runs.iter().map(|r| r.failed).sum();
    obj(vec![
        ("correct", Value::Bool(correct)),
        (
            "attempted",
            Value::Number(Number::UInt(attempted.max(1) as u64)),
        ),
        ("failed", Value::Number(Number::UInt(failed as u64))),
        ("metrics", Value::Object(metrics)),
    ])
}

fn print_summary(args: &RunArgs, runs: &[WorkloadRun]) {
    println!(
        "surepath benchmark: seed {}, nproc {}, {}; model unvalidated (no error figure)",
        args.seed,
        nproc(),
        cpu_model()
    );
    for run in runs {
        println!(
            "\n== {} ({})\n   {} jobs, {} attempted, {} failed, digest {}",
            run.w.name,
            run.w.why,
            run.jobs,
            run.attempted,
            run.failed,
            run.digest.as_deref().unwrap_or("-")
        );
        if run.measured_e2e() {
            for m in &E2E_METRICS {
                let v = run.e2e_values(m.name);
                let (q1, q3) = stats::quartiles(&v);
                println!(
                    "  {:<12} {:>10.4} {:<3} q1 {:.4} q3 {:.4} n {}",
                    m.name,
                    stats::median(&v),
                    m.unit,
                    q1,
                    q3,
                    v.len()
                );
            }
        }
        if let Some(t) = &run.traced {
            let layers: Vec<String> = t
                .self_s
                .iter()
                .map(|(k, v)| format!("{k} {v:.3}"))
                .collect();
            println!(
                "  traced pass {:.3} s; self seconds summed over threads: {}",
                t.wall_s,
                layers.join(", ")
            );
            println!(
                "  partition probe job: {}; job tail percentile p{}",
                t.probe_job, t.job_tail_pct
            );
            for (m, (_, v)) in LAYER_METRICS.iter().zip(&t.metrics) {
                println!("  {:<30} {:>14.4} {}", m.name, v, m.unit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let bench = benchmark_json();
        let names = |key: &str| -> Vec<String> {
            bench[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m["name"].as_str().unwrap().to_string())
                .collect()
        };
        let workload_names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workload_names);
        for (entry, w) in bench["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .zip(&workloads::WORKLOADS)
        {
            assert_eq!(entry["why"].as_str(), Some(w.why));
        }
        for (key, defs) in [
            ("end_to_end", &E2E_METRICS[..]),
            ("per_layer", &LAYER_METRICS[..]),
        ] {
            let listed = bench[key].as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry["name"].as_str(), Some(d.name));
                assert_eq!(entry["unit"].as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(entry["better"].as_str(), Some(d.better), "{}", d.name);
            }
        }
    }
}
