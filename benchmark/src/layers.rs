//! The traced in-process pass and the per-layer metrics it yields.
//!
//! The pass runs a workload's campaign the way `surepath campaign` does:
//! through `surepath_runner::run_campaign_with`, or, for a distributed
//! workload, `surepath_dist::serve` with `run_worker` threads over loopback.
//! The job function is the benchmark's own instrumented copy of the core job
//! path (`surepath_core::run_job_tuned`), so each layer is timed at its public
//! entry point; a test holds the copy byte-equal to the original.
//!
//! After the pass, probes outside the traced interval measure what the job
//! path cannot split without duplicating work: the topology steps inside
//! `NetworkView::with_faults`, store append and finalize (by replaying the
//! results), the dist frame codec, and the slowest job at one and two
//! engine partitions.

use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::workloads::Workload;
use hyperx_routing::NetworkView;
use hyperx_sim::traffic::ServerLayout;
use hyperx_sim::{Counter, CounterRegistry, Simulator};
use hyperx_topology::{DistanceMatrix, FaultSet, HyperX, UpDownEscape};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use surepath_core::{Experiment, RootPlacement};
use surepath_runner::{job_fingerprint, CampaignSpec, JobSpec, StoreRecord};

/// What one job's engine run leaves behind besides its spans.
struct JobCounts {
    switch_cycles: u64,
    delivered: u64,
    counters: CounterRegistry,
    view_hit: bool,
}

/// The instrumented job path. One per executor (a local campaign, or one
/// dist worker), like the CLI's one `ViewCache` per process.
struct JobPath<'a> {
    rec: &'a Recorder,
    partitions: usize,
    /// Same key and semantics as `surepath_core::ViewCache`: a miss builds
    /// outside the lock, so two threads racing one key both build it.
    views: Mutex<HashMap<String, Arc<NetworkView>>>,
    counts: &'a Mutex<Vec<JobCounts>>,
}

impl<'a> JobPath<'a> {
    fn new(rec: &'a Recorder, partitions: usize, counts: &'a Mutex<Vec<JobCounts>>) -> Self {
        JobPath {
            rec,
            partitions,
            views: Mutex::new(HashMap::new()),
            counts,
        }
    }

    /// Runs one job under a `core.job` span caused by `parent`.
    fn run(&self, job: &JobSpec, parent: u64) -> Result<Value, String> {
        let fp = job_fingerprint(job);
        self.rec
            .span("core.job", parent, Some(&fp), |id| {
                self.run_inner(job, &fp, id)
            })
            .map_err(|e| {
                format!(
                    "job `{}` (campaign `{}`, fp {fp}): {e}",
                    job.label(),
                    job.campaign
                )
            })
    }

    fn run_inner(&self, job: &JobSpec, fp: &str, id: u64) -> Result<Value, String> {
        let rec = self.rec;
        let fp = Some(fp);
        let mut experiment = rec.span("core.job_experiment", id, fp, |_| {
            surepath_core::job_experiment(job)
        })?;
        experiment.sim.partitions = self.partitions.max(1);
        let key = format!("{:?}|{:?}|{:?}", job.sides, job.scenario, job.root);
        let cached = self
            .views
            .lock()
            .expect("view cache poisoned")
            .get(&key)
            .cloned();
        let view_hit = cached.is_some();
        let view = match cached {
            Some(view) => view,
            None => {
                let hx = rec.span("topology.hyperx_build", id, fp, |_| experiment.topology());
                let (faults, root) = rec.span("topology.fault_set", id, fp, |_| {
                    let faults = experiment.scenario.faults(&hx);
                    let root = escape_root(&experiment, &hx, &faults);
                    (faults, root)
                });
                let view = rec.span("routing.view_build", id, fp, |_| {
                    Arc::new(NetworkView::with_faults(hx, &faults, root))
                });
                self.views
                    .lock()
                    .expect("view cache poisoned")
                    .insert(key, view.clone());
                view
            }
        };
        let mechanism = rec.span("routing.mechanism_build", id, fp, |_| {
            experiment.mechanism.build(view.clone(), experiment.num_vcs)
        });
        let mut sim = rec.span("sim.new", id, fp, |_| {
            let layout = ServerLayout::new(view.hyperx(), experiment.concentration);
            let pattern = experiment.traffic.build(&layout, experiment.sim.seed);
            let mut cfg = experiment.sim.clone();
            cfg.servers_per_switch = experiment.concentration;
            cfg.num_vcs = experiment.num_vcs;
            Simulator::new(view.clone(), mechanism, pattern, cfg)
        });
        let value = match job.kind.as_str() {
            "rate" => {
                let load = job.load.ok_or("rate jobs need a load")?;
                let metrics = rec.span("sim.run", id, fp, |_| sim.run_rate(load));
                rec.span("sim.snapshot", id, fp, |_| snapshot(&metrics, &sim))?
            }
            "batch" => {
                let packets = job
                    .packets_per_server
                    .ok_or("batch jobs need packets_per_server")?;
                let window = job
                    .sample_window
                    .unwrap_or(surepath_core::DEFAULT_SAMPLE_WINDOW);
                let metrics = rec.span("sim.run", id, fp, |_| sim.run_batch(packets, window));
                rec.span("sim.snapshot", id, fp, |_| snapshot(&metrics, &sim))?
            }
            other => return Err(format!("unknown job kind '{other}'")),
        };
        self.counts
            .lock()
            .expect("job counts poisoned")
            .push(JobCounts {
                switch_cycles: view.hyperx().num_switches() as u64 * sim.cycle(),
                delivered: sim.total_delivered(),
                counters: sim.obs().clone(),
                view_hit,
            });
        Ok(value)
    }
}

/// The stored result: the metrics with the engine counters appended.
fn snapshot<M: serde::Serialize>(metrics: &M, sim: &Simulator) -> Result<Value, String> {
    let mut value = serde_json::to_value(metrics).map_err(|e| e.to_string())?;
    let counters = serde_json::to_value(sim.obs()).map_err(|e| e.to_string())?;
    match &mut value {
        Value::Object(fields) => fields.push(("counters".to_string(), counters)),
        _ => return Err("simulation metrics serialize to an object".to_string()),
    }
    Ok(value)
}

/// The escape root `Experiment::build_view` picks.
fn escape_root(experiment: &Experiment, hx: &HyperX, faults: &FaultSet) -> usize {
    match experiment.root {
        RootPlacement::Suggested => experiment.scenario.suggested_root(hx),
        RootPlacement::Switch(s) => s,
        RootPlacement::Policy(policy) => {
            let mut faulted = hx.network().clone();
            faults.apply(&mut faulted);
            policy.select(&faulted)
        }
    }
}

/// Everything the traced pass and its probes measured.
pub struct TracedRun {
    /// The traced interval: spec load to finalized store.
    pub wall_s: f64,
    /// Per-layer metrics, in `crate::LAYER_METRICS` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Self seconds per layer inside the traced interval; `unattributed` is
    /// the part no layer span covers.
    pub self_s: BTreeMap<String, f64>,
    /// The percentile `runner.job_ms_tail` reports.
    pub job_tail_pct: f64,
    /// The job the partition probe ran.
    pub probe_job: String,
    /// Store bytes rebuilt by replaying the results through the store API.
    pub replay_bytes: Vec<u8>,
    pub spans: Vec<Span>,
}

/// Runs the traced pass of `w` into `store`, then the probes; `e2e_wall_s`
/// is the untraced wall time the pass's overhead is reported against.
pub fn traced_pass(
    w: &Workload,
    spec_path: &Path,
    store: &Path,
    tmp: &Path,
    e2e_wall_s: f64,
) -> Result<TracedRun, String> {
    let rec = Recorder::new();
    let counts = Mutex::new(Vec::new());
    let mut reoffered = 0usize;
    let spec: CampaignSpec = rec.span("bench.traced_pass", 0, None, |root| {
        let spec = rec.span("runner.load_spec", root, None, |_| {
            surepath_runner::load_spec_file(spec_path)
        })?;
        rec.span("core.validate", root, None, |_| {
            surepath_core::validate_campaign(&spec)
        })?;
        let partitions = spec.partitions.unwrap_or(1);
        if w.dist_workers == 0 {
            let path = JobPath::new(&rec, partitions, &counts);
            let opts = surepath_runner::RunOptions {
                threads: Some(w.threads),
                quiet: true,
                ..surepath_runner::RunOptions::default()
            };
            let outcome = rec
                .span("runner.campaign", root, None, |id| {
                    surepath_runner::run_campaign_with(&spec, store, &opts, |job| path.run(job, id))
                })
                .map_err(|e| format!("traced campaign: {e}"))?;
            if !outcome.is_complete() {
                return Err(format!("traced campaign incomplete: {outcome:?}"));
            }
        } else {
            reoffered = serve_traced(w, &spec, store, &rec, root, &counts)?;
        }
        Ok::<_, String>(spec)
    })?;
    // Every span lies under the one root, which closed last.
    let traced = rec.into_spans();
    let root = traced.last().expect("the root span is recorded");
    let wall_s = root.duration_ns() as f64 / 1e9;
    let selfs = trace::self_times(&traced);
    let mut self_s: BTreeMap<String, f64> = BTreeMap::new();
    for s in &traced {
        let layer = if s.layer() == "bench" {
            "unattributed"
        } else {
            s.layer()
        };
        *self_s.entry(layer.to_string()).or_default() += selfs[&s.id] as f64 / 1e9;
    }

    let jobs = spec.expand()?;
    let records = read_records(store)?;
    let probes = Probes::run(&spec, &jobs, &records, &traced, tmp)?;
    let counts = counts.into_inner().expect("job counts poisoned");
    let lanes = w.threads * w.dist_workers.max(1);
    let m = Measured {
        traced: &traced,
        counts: &counts,
        wall_s,
        lanes,
        dist: w.dist_workers > 0,
        reoffered,
        unattributed_s: self_s.get("unattributed").copied().unwrap_or(0.0),
        e2e_wall_s,
    };
    let (metrics, job_tail_pct) = m.metrics(&probes);
    Ok(TracedRun {
        wall_s,
        metrics,
        self_s,
        job_tail_pct,
        probe_job: probes.partition_job,
        replay_bytes: probes.replay_bytes,
        spans: traced,
    })
}

/// The distributed leg: `serve` on this thread, `dist_workers` `run_worker`
/// threads over loopback, each with its own job path and view cache.
/// Returns how many jobs were re-offered.
fn serve_traced(
    w: &Workload,
    spec: &CampaignSpec,
    store: &Path,
    rec: &Recorder,
    root: u64,
    counts: &Mutex<Vec<JobCounts>>,
) -> Result<usize, String> {
    let jobs = rec.span("runner.expand", root, None, |_| spec.expand())?;
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("no local address: {e}"))?
        .to_string();
    let partitions = spec.partitions.unwrap_or(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..w.dist_workers)
            .map(|i| {
                let addr = &addr;
                scope.spawn(move || {
                    rec.span("dist.worker", root, None, |id| {
                        let path = JobPath::new(rec, partitions, counts);
                        let opts = surepath_dist::WorkerOptions {
                            threads: Some(w.threads),
                            quiet: true,
                            ..surepath_dist::WorkerOptions::default()
                        };
                        surepath_dist::run_worker(addr, &format!("bench-{i}"), &opts, |job| {
                            path.run(job, id)
                        })
                    })
                })
            })
            .collect();
        let opts = surepath_dist::ServeOptions {
            quiet: true,
            ..surepath_dist::ServeOptions::default()
        };
        let served = rec.span("dist.serve", root, None, |_| {
            surepath_dist::serve(listener, &spec.name, &jobs, store, &opts)
        });
        for worker in workers {
            match worker.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(format!("traced worker failed: {e}")),
                Err(_) => return Err("traced worker panicked".to_string()),
            }
        }
        let outcome = served.map_err(|e| format!("traced coordinator failed: {e}"))?;
        if !outcome.is_complete() {
            return Err(format!("traced dist campaign incomplete: {outcome:?}"));
        }
        Ok(outcome.reoffered)
    })
}

fn read_records(store: &Path) -> Result<Vec<StoreRecord>, String> {
    std::fs::read_to_string(store)
        .map_err(|e| format!("cannot read {}: {e}", store.display()))?
        .lines()
        .map(|line| serde_json::from_str(line).map_err(|e| format!("store line: {e}")))
        .collect()
}

/// Runs `f` at least once and until `min` has passed; returns the mean
/// seconds per call.
fn mean_seconds(min: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0;
    while calls == 0 || start.elapsed() < min {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Measurements taken after the traced interval.
struct Probes {
    /// Per distinct view, milliseconds: HyperX build, fault set (with root
    /// choice and application), distance matrix, Up/Down construction.
    topology_ms: [f64; 4],
    expand_ms: f64,
    fingerprint_us: f64,
    store_append_us: f64,
    store_finalize_ms: f64,
    frame_us: f64,
    partition_speedup: f64,
    partition_job: String,
    replay_bytes: Vec<u8>,
}

impl Probes {
    fn run(
        spec: &CampaignSpec,
        jobs: &[JobSpec],
        records: &[StoreRecord],
        traced: &[Span],
        tmp: &Path,
    ) -> Result<Probes, String> {
        let mut expand: Vec<f64> = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            std::hint::black_box(spec.expand()?);
            expand.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let fingerprint_us = mean_seconds(Duration::from_millis(20), || {
            for job in jobs {
                std::hint::black_box(job_fingerprint(job));
            }
        }) / jobs.len() as f64
            * 1e6;
        let (store_append_us, store_finalize_ms, replay_bytes) = replay(jobs, records, tmp)?;
        let (partition_speedup, partition_job) = partition_probe(jobs, records, traced)?;
        Ok(Probes {
            topology_ms: topology_split(jobs)?,
            expand_ms: stats::median(&expand),
            fingerprint_us,
            store_append_us,
            store_finalize_ms,
            frame_us: frame_round_trip(records)?,
            partition_speedup,
            partition_job,
            replay_bytes,
        })
    }
}

/// Times the steps of `Experiment::build_view` one by one, once per
/// distinct view of the grid, and returns their means in milliseconds.
fn topology_split(jobs: &[JobSpec]) -> Result<[f64; 4], String> {
    let mut seen = std::collections::HashSet::new();
    let mut sums = [0.0; 4];
    for job in jobs {
        if !seen.insert(format!("{:?}|{:?}|{:?}", job.sides, job.scenario, job.root)) {
            continue;
        }
        let experiment = surepath_core::job_experiment(job)?;
        let t0 = Instant::now();
        let hx = experiment.topology();
        let t1 = Instant::now();
        let faults = experiment.scenario.faults(&hx);
        let root = escape_root(&experiment, &hx, &faults);
        let mut net = hx.network().clone();
        faults.apply(&mut net);
        let t2 = Instant::now();
        let distances = DistanceMatrix::compute(&net);
        let t3 = Instant::now();
        let escape = UpDownEscape::new(&net, root);
        let t4 = Instant::now();
        std::hint::black_box((distances, escape));
        for (sum, (a, b)) in sums
            .iter_mut()
            .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
        {
            *sum += (b - a).as_secs_f64() * 1e3;
        }
    }
    Ok(sums.map(|s| s / seen.len() as f64))
}

/// Appends every result to a fresh store in store order, then finalizes it.
/// Returns the mean append (µs), the finalize (ms) and the rebuilt bytes,
/// which must equal the campaign's own store.
fn replay(
    jobs: &[JobSpec],
    records: &[StoreRecord],
    tmp: &Path,
) -> Result<(f64, f64, Vec<u8>), String> {
    let path = tmp.join("replay.jsonl");
    let io = |e: std::io::Error| format!("replay store: {e}");
    let mut store = surepath_runner::ResultStore::open(&path).map_err(io)?;
    let pending: Vec<(&JobSpec, Value)> = records
        .iter()
        .map(|r| (&r.job, r.result.clone().unwrap_or(Value::Null)))
        .collect();
    let start = Instant::now();
    for (job, result) in pending {
        store.append_ok(job, result).map_err(io)?;
    }
    let append_us = start.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64;
    let start = Instant::now();
    store.finalize(jobs).map_err(io)?;
    let finalize_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(store);
    let bytes = std::fs::read(&path).map_err(io)?;
    std::fs::remove_file(&path).map_err(io)?;
    Ok((append_us, finalize_ms, bytes))
}

/// Mean microseconds to encode one result as a worker's `Deliver` frame and
/// decode it again; every frame must decode to the record it carried.
fn frame_round_trip(records: &[StoreRecord]) -> Result<f64, String> {
    let frames: Vec<surepath_dist::Request> = records
        .iter()
        .map(|record| surepath_dist::Request::Deliver {
            record: record.clone(),
            millis: 1,
        })
        .collect();
    let mut bad = None;
    let mut buf = Vec::new();
    let per_pass = mean_seconds(Duration::from_millis(50), || {
        for frame in &frames {
            buf.clear();
            surepath_dist::write_message(&mut buf, frame).expect("writing to memory");
            let back: Option<surepath_dist::Request> =
                surepath_dist::read_message(&mut buf.as_slice()).unwrap_or(None);
            if back.as_ref() != Some(frame) {
                bad = Some(frame.clone());
            }
        }
    });
    if let Some(frame) = bad {
        return Err(format!("dist frame did not round-trip: {frame:?}"));
    }
    Ok(per_pass / frames.len().max(1) as f64 * 1e6)
}

/// Reruns the pass's slowest job through `surepath_core::run_job_tuned` at
/// one and two engine partitions, alternating, over a warm view cache.
/// Every run must reproduce the stored result. Returns the median P=1 time
/// over the median P=2 time, and the job's label.
fn partition_probe(
    jobs: &[JobSpec],
    records: &[StoreRecord],
    traced: &[Span],
) -> Result<(f64, String), String> {
    let slowest = traced
        .iter()
        .filter(|s| s.name == "core.job")
        .max_by_key(|s| s.duration_ns())
        .and_then(|s| s.fp.clone())
        .ok_or("the traced pass ran no jobs")?;
    let job = jobs
        .iter()
        .find(|j| job_fingerprint(j) == slowest)
        .ok_or("slowest job not in the grid")?;
    let stored = records
        .iter()
        .find(|r| r.fp == slowest)
        .and_then(|r| r.result.as_ref())
        .ok_or("slowest job not in the store")?;
    let expected = serde_json::to_string(stored).map_err(|e| e.to_string())?;
    let views = surepath_core::ViewCache::new();
    let mut times = [Vec::new(), Vec::new()];
    let start = Instant::now();
    // The first call also builds the view; it is not timed.
    for round in 0.. {
        for (slot, partitions) in [1usize, 2].into_iter().enumerate() {
            let tuning = surepath_core::RunTuning {
                partitions,
                views: Some(&views),
            };
            let t = Instant::now();
            let value = surepath_core::run_job_tuned(job, &tuning)?;
            let seconds = t.elapsed().as_secs_f64();
            if serde_json::to_string(&value).map_err(|e| e.to_string())? != expected {
                return Err(format!(
                    "{} at {partitions} partitions differs from the stored result",
                    job.label()
                ));
            }
            if round > 0 {
                times[slot].push(seconds);
            }
        }
        if round >= 3 && (start.elapsed() > Duration::from_secs(1) || round >= 50) {
            break;
        }
    }
    Ok((
        stats::median(&times[0]) / stats::median(&times[1]),
        job.label(),
    ))
}

/// Inputs of the per-layer metrics.
struct Measured<'a> {
    traced: &'a [Span],
    counts: &'a [JobCounts],
    wall_s: f64,
    /// Executor threads across all workers.
    lanes: usize,
    dist: bool,
    reoffered: usize,
    unattributed_s: f64,
    e2e_wall_s: f64,
}

impl Measured<'_> {
    fn durations(&self, name: &str) -> Vec<f64> {
        self.traced
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    fn counter(&self, counter: Counter) -> f64 {
        self.counts
            .iter()
            .map(|c| c.counters.get(counter) as f64)
            .sum()
    }

    fn metrics(&self, probes: &Probes) -> (Vec<(&'static str, f64)>, f64) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let jobs = self.durations("core.job");
        let job_ns: f64 = jobs.iter().sum();
        let run_ns: f64 = self.durations("sim.run").iter().sum();
        let executor = if self.dist {
            "dist.worker"
        } else {
            "runner.campaign"
        };
        // Executor lane-time: each executor span times the threads it runs.
        let lanes_each = self.lanes as f64 / self.durations(executor).len().max(1) as f64;
        let executor_ns: f64 = self.durations(executor).iter().sum::<f64>() * lanes_each;
        let serve_ns: f64 = self.durations("dist.serve").iter().sum();
        // Busy time per executor thread; a dist worker is one executor.
        let mut busy: HashMap<u64, f64> = HashMap::new();
        for s in self.traced.iter().filter(|s| s.name == "core.job") {
            let key = if self.dist { s.parent } else { s.lane };
            *busy.entry(key).or_default() += s.duration_ns() as f64;
        }
        let busy: Vec<f64> = busy.into_values().collect();
        let imbalance = ratio(
            busy.iter().cloned().fold(0.0, f64::max),
            busy.iter().sum::<f64>() / busy.len().max(1) as f64,
        );
        let job_ms: Vec<f64> = jobs.iter().map(|ns| ns / 1e6).collect();
        let tail_pct = stats::tail_percentile(job_ms.len()).unwrap_or(50.0);
        let hits = self.counts.iter().filter(|c| c.view_hit).count() as f64;
        let [hyperx_ms, fault_ms, distance_ms, updown_ms] = probes.topology_ms;
        let metrics = vec![
            ("topology.hyperx_build_ms", hyperx_ms),
            ("topology.fault_set_ms", fault_ms),
            ("topology.distance_matrix_ms", distance_ms),
            ("topology.updown_ms", updown_ms),
            (
                "routing.view_build_ms",
                self.mean_ns("routing.view_build") / 1e6,
            ),
            (
                "routing.views_built",
                self.durations("routing.view_build").len() as f64,
            ),
            (
                "routing.mechanism_build_ms",
                self.mean_ns("routing.mechanism_build") / 1e6,
            ),
            (
                "routing.cand_cache_hit_ratio",
                ratio(
                    self.counter(Counter::CandCacheHits),
                    self.counter(Counter::CandCacheHits) + self.counter(Counter::CandCacheMisses),
                ),
            ),
            (
                "core.view_cache_hit_ratio",
                ratio(hits, self.counts.len() as f64),
            ),
            (
                "core.job_experiment_us",
                self.mean_ns("core.job_experiment") / 1e3,
            ),
            ("sim.new_ms", self.mean_ns("sim.new") / 1e6),
            ("sim.run_s", run_ns / 1e9),
            (
                "sim.ns_per_packet",
                ratio(run_ns, self.counts.iter().map(|c| c.delivered as f64).sum()),
            ),
            (
                "sim.ns_per_switch_cycle",
                ratio(
                    run_ns,
                    self.counts.iter().map(|c| c.switch_cycles as f64).sum(),
                ),
            ),
            ("sim.snapshot_us", self.mean_ns("sim.snapshot") / 1e3),
            (
                "sim.alloc_grant_ratio",
                ratio(
                    self.counter(Counter::AllocGrants),
                    self.counter(Counter::AllocRequests),
                ),
            ),
            (
                "sim.escape_grant_share",
                ratio(
                    self.counter(Counter::EscapeGrants),
                    self.counter(Counter::AllocGrants),
                ),
            ),
            ("sim.blocked_cycles", self.counter(Counter::BlockedCycles)),
            ("sim.partition_speedup", probes.partition_speedup),
            ("runner.expand_ms", probes.expand_ms),
            ("runner.fingerprint_us", probes.fingerprint_us),
            ("runner.store_append_us", probes.store_append_us),
            ("runner.store_finalize_ms", probes.store_finalize_ms),
            ("runner.outside_job_share", 1.0 - ratio(job_ns, executor_ns)),
            ("runner.job_ms_p50", stats::percentile(&job_ms, 50.0)),
            ("runner.job_ms_tail", stats::percentile(&job_ms, tail_pct)),
            (
                "dist.overhead_share",
                if self.dist {
                    1.0 - ratio(job_ns, serve_ns * self.lanes as f64)
                } else {
                    0.0
                },
            ),
            ("dist.frame_us", probes.frame_us),
            ("dist.worker_imbalance", imbalance),
            ("dist.reoffered", self.reoffered as f64),
            ("bench.trace_overhead", self.wall_s / self.e2e_wall_s - 1.0),
            (
                "bench.unattributed_share",
                ratio(self.unattributed_s, self.wall_s),
            ),
        ];
        (metrics, tail_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate_job() -> JobSpec {
        JobSpec {
            campaign: "bench-path".into(),
            kind: "rate".into(),
            sides: vec![4, 4],
            concentration: Some(4),
            mechanism: Some("polsp".into()),
            traffic: Some("uniform".into()),
            scenario: Some("random:5:3".into()),
            load: Some(0.4),
            seed: 11,
            vcs: Some(4),
            warmup: Some(100),
            measure: Some(300),
            rng: Some("v2".into()),
            ..JobSpec::default()
        }
    }

    fn batch_job() -> JobSpec {
        JobSpec {
            kind: "batch".into(),
            load: None,
            packets_per_server: Some(20),
            sample_window: Some(250),
            ..rate_job()
        }
    }

    #[test]
    fn instrumented_path_is_byte_equal_to_core_run_job() {
        let rec = Recorder::new();
        let counts = Mutex::new(Vec::new());
        for partitions in [1, 2] {
            let path = JobPath::new(&rec, partitions, &counts);
            for job in [rate_job(), batch_job()] {
                let core = surepath_core::run_job(&job).unwrap();
                // Twice: a view-cache miss, then a hit.
                for _ in 0..2 {
                    let ours = path.run(&job, 0).unwrap();
                    assert_eq!(
                        serde_json::to_string(&ours).unwrap(),
                        serde_json::to_string(&core).unwrap(),
                        "{} job at {partitions} partitions",
                        job.kind
                    );
                }
            }
        }
        let spans = rec.into_spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("core.job"), 8);
        assert_eq!(count("routing.view_build"), 2, "one miss per path");
        assert_eq!(count("sim.run"), 8);
        let counts = counts.into_inner().unwrap();
        assert_eq!(counts.iter().filter(|c| c.view_hit).count(), 6);
        assert!(counts
            .iter()
            .all(|c| c.delivered > 0 && c.switch_cycles > 0));
    }

    #[test]
    fn instrumented_path_reports_errors_like_core() {
        let rec = Recorder::new();
        let counts = Mutex::new(Vec::new());
        let path = JobPath::new(&rec, 1, &counts);
        let mut job = rate_job();
        job.kind = "teleport".into();
        assert_eq!(
            path.run(&job, 0).unwrap_err(),
            surepath_core::run_job(&job).unwrap_err()
        );
    }
}
