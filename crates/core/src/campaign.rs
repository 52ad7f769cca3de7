//! The bridge between declarative campaign jobs (`surepath-runner`) and
//! runnable [`Experiment`]s.
//!
//! `surepath-runner` is domain-agnostic: it expands specs, schedules jobs
//! and stores results, but a [`JobSpec`] is just names and numbers. This
//! module gives those names their simulation semantics:
//!
//! * [`job_experiment`] — builds the [`Experiment`] a job describes
//!   (parsing mechanism / traffic / scenario strings with the same parsers
//!   the CLI uses);
//! * [`run_job`] — executes one job and returns its metrics as a JSON value
//!   ready for the result store;
//! * [`run_campaign`] — the full pipeline: expand, skip completed
//!   fingerprints, execute on the work-stealing pool, stream to the JSONL
//!   store.
//!
//! Determinism: a job's result depends only on the job itself. The
//! simulator, the traffic permutation draw and the fault sequence are all
//! seeded from `JobSpec::seed` (and scenario-embedded seeds), never from
//! global state, so re-running a fingerprinted job reproduces its bytes.

use crate::experiment::{Experiment, RootPlacement, TrafficSpec};
use crate::scenario::FaultScenario;
use hyperx_routing::{MechanismSpec, NetworkView};
use hyperx_sim::{PacketTracer, RngContract, SimConfig};
use serde::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use surepath_runner::{
    job_fingerprint, trace_path, CampaignOutcome, CampaignSpec, JobSpec, TraceLog, TraceRecord,
};

/// Default batch throughput-sampling window (cycles) when a batch job does
/// not carry its own, matching the CLI `--batch` default.
pub const DEFAULT_SAMPLE_WINDOW: u64 = 1_000;

/// A campaign-scoped cache of built network views.
///
/// A [`NetworkView`] is the expensive part of simulator construction
/// (topology build, fault application, distance tables) and is immutable
/// during a run, while campaign grids typically sweep mechanisms, loads and
/// seeds over a handful of topology/scenario pairs. Executor threads share
/// one cache per campaign: the first job of each distinct
/// (sides, scenario, root) key builds the view, every later job clones the
/// `Arc`. Views are observations of the job description alone, so sharing
/// them cannot perturb results.
///
/// Builds are single-flight: each key owns a [`OnceLock`] cell, so threads
/// that miss the same key while it is being built wait for that one build
/// instead of repeating it, and builds of different keys run in parallel.
#[derive(Default)]
pub struct ViewCache {
    views: Mutex<HashMap<String, Arc<OnceLock<Arc<NetworkView>>>>>,
}

impl ViewCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct views currently cached.
    pub fn len(&self) -> usize {
        self.cells().values().filter(|c| c.get().is_some()).count()
    }

    /// Whether the cache holds no views yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key → cell map. A panic while the lock is held cannot leave the
    /// map half-updated, so a poisoned lock is still safe to use.
    fn cells(&self) -> MutexGuard<'_, HashMap<String, Arc<OnceLock<Arc<NetworkView>>>>> {
        self.views.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The view under `key`, built by `build` on first use. `key` must
    /// capture every job field the view depends on (sides, scenario, root)
    /// — [`view_cache_key`] derives it from a [`JobSpec`].
    fn get_or_build(
        &self,
        key: String,
        build: impl FnOnce() -> Arc<NetworkView>,
    ) -> Arc<NetworkView> {
        // The map lock covers only the cell lookup; the build runs under
        // the key's own cell.
        let cell = self.cells().entry(key).or_default().clone();
        cell.get_or_init(build).clone()
    }
}

/// The cache key of a job's network view: exactly the fields
/// [`Experiment::build_view`] reads. Mechanism, traffic, load and seed do
/// not shape the view, so jobs differing only in those share one entry.
fn view_cache_key(job: &JobSpec) -> String {
    format!("{:?}|{:?}|{:?}", job.sides, job.scenario, job.root)
}

/// Builds the [`Experiment`] described by a campaign job.
pub fn job_experiment(job: &JobSpec) -> Result<Experiment, String> {
    if job.sides.is_empty() || job.sides.iter().any(|&k| k < 2) {
        return Err(format!(
            "invalid sides {:?}: need >= 2 per dimension",
            job.sides
        ));
    }
    let dims = job.sides.len();
    let mechanism_name = job
        .mechanism
        .as_deref()
        .ok_or("simulation jobs need a mechanism")?;
    let mechanism = MechanismSpec::parse(mechanism_name)
        .ok_or_else(|| format!("unknown mechanism '{mechanism_name}'"))?;
    let traffic = match job.traffic.as_deref() {
        None => TrafficSpec::Uniform,
        Some(name) => {
            TrafficSpec::parse(name).ok_or_else(|| format!("unknown traffic pattern '{name}'"))?
        }
    };
    let scenario = match job.scenario.as_deref() {
        None => FaultScenario::None,
        Some(spec) => FaultScenario::parse(spec, &job.sides)?,
    };
    let root = match job.root.as_deref() {
        None => RootPlacement::Suggested,
        Some(spec) => RootPlacement::parse(spec)?,
    };
    let concentration = job.concentration.unwrap_or(job.sides[0]);
    let num_vcs = job.vcs.unwrap_or_else(|| mechanism.default_num_vcs(dims));
    let mut experiment = Experiment {
        sides: job.sides.clone(),
        concentration,
        mechanism,
        num_vcs,
        traffic,
        scenario,
        root,
        sim: SimConfig::paper_defaults(concentration, num_vcs),
    };
    // Jobs that would otherwise panic when built are rejected here, and so
    // by `validate_campaign` before anything runs.
    experiment.validate()?;
    experiment.sim.servers_per_switch = concentration;
    // An absent `rng` means contract v1: every store written before the
    // contract was versioned ran v1, and re-running its jobs must stay
    // byte-identical.
    experiment.sim.rng_contract = match job.rng.as_deref() {
        None | Some("v1") => RngContract::V1PerServer,
        Some("v2") => RngContract::V2Counting,
        Some(other) => return Err(format!("unknown RNG contract '{other}'")),
    };
    experiment = experiment.with_seed(job.seed);
    if let (Some(warmup), Some(measure)) = (job.warmup, job.measure) {
        experiment = experiment.with_windows(warmup, measure);
    }
    Ok(experiment)
}

/// Executes one simulation job, without the diagnostic context wrapper.
/// Returns the result value and, if `tracer` was supplied, the tracer back
/// with its recorded events.
///
/// The simulator is built here (rather than through [`Experiment::run_rate`])
/// so the engine's counter registry survives the run: its serialization is
/// attached to the result as a sibling `counters` key. Counters are
/// observations of a deterministic run, so the key is itself deterministic —
/// and the engine's zero-perturbation contract guarantees the value is
/// byte-identical whether a tracer was attached or not.
fn run_job_inner(
    job: &JobSpec,
    tracer: Option<PacketTracer>,
    tuning: &RunTuning<'_>,
) -> Result<(Value, Option<PacketTracer>), String> {
    let mut experiment = job_experiment(job)?;
    // Partitions are run tuning, never part of the job: the engine's
    // byte-identity contract makes the result bytes independent of the
    // value, so it stays out of fingerprints and stores.
    experiment.sim.partitions = tuning.partitions.max(1);
    let view = match tuning.views {
        Some(cache) => cache.get_or_build(view_cache_key(job), || experiment.build_view()),
        None => experiment.build_view(),
    };
    let mut sim = experiment.build_simulator_with_view(view);
    sim.set_tracer(tracer);
    let mut value = match job.kind.as_str() {
        "rate" => {
            let load = job.load.ok_or("rate jobs need a load")?;
            let metrics = sim.run_rate(load);
            serde_json::to_value(&metrics).map_err(|e| e.to_string())?
        }
        "batch" => {
            let packets = job
                .packets_per_server
                .ok_or("batch jobs need packets_per_server")?;
            let window = job.sample_window.unwrap_or(DEFAULT_SAMPLE_WINDOW);
            // BatchMetrics serializes whole: completion time, delivered
            // packets, the throughput-over-time samples and the stalled flag.
            let metrics = sim.run_batch(packets, window);
            serde_json::to_value(&metrics).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown job kind '{other}'")),
    };
    let counters = serde_json::to_value(sim.obs()).map_err(|e| e.to_string())?;
    match &mut value {
        Value::Object(fields) => fields.push(("counters".to_string(), counters)),
        _ => return Err("simulation metrics serialize to an object".to_string()),
    }
    Ok((value, sim.take_tracer()))
}

/// Executes one campaign job. Understands kind `"rate"` (open-loop
/// simulation at `job.load`) and kind `"batch"` (closed-loop completion-time
/// run of `job.packets_per_server` packets per server, Figure 10); other
/// kinds live with their callers (e.g. the figure binaries define analysis
/// kinds on the same runner).
///
/// Errors carry the job's campaign name and fingerprint, so a failed record
/// in a store — or a bad campaign TOML — is diagnosable from the message
/// alone.
pub fn run_job(job: &JobSpec) -> Result<Value, String> {
    run_job_tuned(job, &RunTuning::default())
}

/// Execution knobs that tune *how* a job runs without changing *what* it
/// computes: every combination produces byte-identical results, so none of
/// these enter fingerprints or stores.
#[derive(Default)]
pub struct RunTuning<'a> {
    /// Intra-simulation partition count ([`SimConfig::partitions`]);
    /// `0` and `1` both mean sequential.
    pub partitions: usize,
    /// Shared view cache; `None` builds each job's view from scratch.
    pub views: Option<&'a ViewCache>,
}

/// [`run_job`] with explicit execution tuning (partition count, shared view
/// cache). Results are byte-identical to [`run_job`] for every tuning.
pub fn run_job_tuned(job: &JobSpec, tuning: &RunTuning<'_>) -> Result<Value, String> {
    run_job_inner(job, None, tuning)
        .map(|(value, _)| value)
        .map_err(|e| job_error_context(job, e))
}

/// Executes one campaign job with packet tracing enabled: like [`run_job`],
/// but also returns the recorded lifecycle events as store-agnostic
/// [`TraceRecord`]s tagged with the job's fingerprint. The result value is
/// byte-identical to the untraced one (the zero-perturbation contract).
pub fn run_job_traced(job: &JobSpec, capacity: usize) -> Result<(Value, Vec<TraceRecord>), String> {
    run_job_traced_tuned(job, capacity, &RunTuning::default())
}

/// [`run_job_traced`] with explicit execution tuning.
pub fn run_job_traced_tuned(
    job: &JobSpec,
    capacity: usize,
    tuning: &RunTuning<'_>,
) -> Result<(Value, Vec<TraceRecord>), String> {
    let (value, tracer) = run_job_inner(job, Some(PacketTracer::with_capacity(capacity)), tuning)
        .map_err(|e| job_error_context(job, e))?;
    let fp = job_fingerprint(job);
    let records = tracer
        .map(|mut t| t.take_events())
        .unwrap_or_default()
        .iter()
        .map(|e| TraceRecord {
            fp: fp.clone(),
            packet: e.packet,
            cycle: e.cycle,
            event: e.kind.name().to_string(),
            switch: e.switch,
            hops: e.hops,
            escape_hops: e.escape_hops,
        })
        .collect();
    Ok((value, records))
}

fn job_error_context(job: &JobSpec, e: String) -> String {
    format!(
        "job `{}` (campaign `{}`, fp {}): {e}",
        job.label(),
        job.campaign,
        job_fingerprint(job)
    )
}

/// Checks every job of a campaign before running anything, so a typo in a
/// mechanism name fails in milliseconds instead of after the first hour of
/// simulation. Rejects job kinds the core bridge does not understand —
/// callers with custom kinds (e.g. `diameter`) validate on their own.
pub fn validate_campaign(spec: &CampaignSpec) -> Result<(), String> {
    for (index, job) in spec.expand()?.iter().enumerate() {
        let context = |e: String| {
            format!(
                "campaign `{}` job #{index} `{}` (fp {}): {e}",
                spec.name,
                job.label(),
                job_fingerprint(job)
            )
        };
        match job.kind.as_str() {
            "rate" => {
                job_experiment(job).map_err(&context)?;
                if job.load.is_none() {
                    return Err(context("rate jobs need a load".to_string()));
                }
            }
            "batch" => {
                job_experiment(job).map_err(&context)?;
                if job.packets_per_server.is_none() {
                    return Err(context("batch jobs need packets_per_server".to_string()));
                }
            }
            other => {
                return Err(context(format!(
                    "unknown job kind '{other}' (the core bridge understands `rate` and `batch`)"
                )))
            }
        }
    }
    Ok(())
}

/// Runs (or resumes) a simulation campaign end to end: expands `spec`,
/// skips jobs already fingerprint-complete in the store at `store_path`,
/// executes the rest on `threads` workers and streams results to the store.
pub fn run_campaign(
    spec: &CampaignSpec,
    store_path: &Path,
    threads: Option<usize>,
    quiet: bool,
) -> std::io::Result<CampaignOutcome> {
    validate_campaign(spec)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    // One view cache and one partition count for the whole campaign:
    // `spec.partitions` is run tuning (see `CampaignSpec`), so the store
    // bytes are identical whatever value it holds.
    let views = ViewCache::new();
    let tuning = RunTuning {
        partitions: spec.partitions.unwrap_or(1),
        views: Some(&views),
    };
    surepath_runner::run_campaign(spec, store_path, threads, quiet, |job| {
        run_job_tuned(job, &tuning)
    })
}

/// [`run_campaign`] with packet tracing: every executed job also streams its
/// lifecycle events to the `<store>.trace.jsonl` sidecar. The store itself is
/// byte-identical to an untraced run — traces are observations and ride next
/// to the store, never inside it. Sidecar record order follows job completion
/// order (each record carries its job's fingerprint for grouping).
pub fn run_campaign_traced(
    spec: &CampaignSpec,
    store_path: &Path,
    threads: Option<usize>,
    quiet: bool,
) -> std::io::Result<CampaignOutcome> {
    validate_campaign(spec)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let log = Mutex::new(TraceLog::open(&trace_path(store_path))?);
    let views = ViewCache::new();
    let tuning = RunTuning {
        partitions: spec.partitions.unwrap_or(1),
        views: Some(&views),
    };
    surepath_runner::run_campaign(spec, store_path, threads, quiet, |job| {
        let (value, records) = run_job_traced_tuned(job, PacketTracer::DEFAULT_CAPACITY, &tuning)?;
        // One lock per job, not per event: jobs append their whole batch
        // atomically, so lifecycles are contiguous within the sidecar.
        if let Ok(mut log) = log.lock() {
            for record in &records {
                let _ = log.append(record);
            }
            let _ = log.flush();
        }
        Ok(value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use surepath_runner::TopologySpec;

    fn tiny_job() -> JobSpec {
        JobSpec {
            campaign: "bridge-test".into(),
            kind: "rate".into(),
            sides: vec![4, 4],
            concentration: Some(4),
            mechanism: Some("polsp".into()),
            traffic: Some("uniform".into()),
            scenario: Some("random:5:3".into()),
            load: Some(0.3),
            seed: 11,
            warmup: Some(150),
            measure: Some(400),
            ..JobSpec::default()
        }
    }

    fn tiny_batch_job() -> JobSpec {
        JobSpec {
            campaign: "bridge-batch-test".into(),
            kind: "batch".into(),
            load: None,
            packets_per_server: Some(20),
            sample_window: Some(250),
            ..tiny_job()
        }
    }

    #[test]
    fn job_experiment_builds_the_described_experiment() {
        let e = job_experiment(&tiny_job()).unwrap();
        assert_eq!(e.sides, vec![4, 4]);
        assert_eq!(e.concentration, 4);
        assert_eq!(e.mechanism, MechanismSpec::PolSP);
        assert_eq!(e.traffic, TrafficSpec::Uniform);
        assert_eq!(e.scenario, FaultScenario::Random { count: 5, seed: 3 });
        assert_eq!(e.sim.seed, 11);
        assert_eq!(e.sim.warmup_cycles, 150);
        assert_eq!(e.sim.measure_cycles, 400);
    }

    #[test]
    fn job_rng_contract_maps_absent_to_v1() {
        // Legacy jobs (no rng field) must re-run under the contract that
        // produced their stores: v1.
        let e = job_experiment(&tiny_job()).unwrap();
        assert_eq!(e.sim.rng_contract, RngContract::V1PerServer);

        let mut j = tiny_job();
        j.rng = Some("v1".into());
        assert_eq!(
            job_experiment(&j).unwrap().sim.rng_contract,
            RngContract::V1PerServer
        );

        let mut j = tiny_job();
        j.rng = Some("v2".into());
        assert_eq!(
            job_experiment(&j).unwrap().sim.rng_contract,
            RngContract::V2Counting
        );

        let mut j = tiny_job();
        j.rng = Some("v7".into());
        assert!(job_experiment(&j).unwrap_err().contains("v7"));
    }

    #[test]
    fn invalid_jobs_are_rejected_with_messages() {
        let mut j = tiny_job();
        j.mechanism = Some("warp-drive".into());
        assert!(job_experiment(&j).unwrap_err().contains("warp-drive"));

        let mut j = tiny_job();
        j.traffic = Some("gridlock".into());
        assert!(job_experiment(&j).unwrap_err().contains("gridlock"));

        let mut j = tiny_job();
        j.scenario = Some("meteor".into());
        assert!(job_experiment(&j).is_err());

        let mut j = tiny_job();
        j.sides = vec![1, 4];
        assert!(job_experiment(&j).is_err());

        let mut j = tiny_job();
        j.mechanism = None;
        assert!(job_experiment(&j).is_err());

        let mut j = tiny_job();
        j.root = Some("volcano".into());
        assert!(job_experiment(&j).unwrap_err().contains("volcano"));

        let mut j = tiny_job();
        j.kind = "teleport".into();
        let err = run_job(&j).unwrap_err();
        assert!(err.contains("teleport"), "{err}");
        // Errors identify the failing job: campaign name and fingerprint.
        assert!(err.contains("bridge-test"), "{err}");
        assert!(err.contains(&surepath_runner::job_fingerprint(&j)), "{err}");
    }

    #[test]
    fn run_job_produces_batch_metrics_json() {
        let result = run_job(&tiny_batch_job()).unwrap();
        assert_eq!(result["stalled"].as_bool(), Some(false));
        assert!(result["completion_time"].as_u64().unwrap() > 0);
        // 4x4 switches x 4 servers x 20 packets.
        assert_eq!(result["delivered_packets"].as_u64(), Some(16 * 4 * 20));
        assert!(
            !result["samples"].as_array().unwrap().is_empty(),
            "throughput-over-time samples are stored"
        );
    }

    #[test]
    fn batch_jobs_are_deterministic_and_need_packets() {
        let a = run_job(&tiny_batch_job()).unwrap();
        let b = run_job(&tiny_batch_job()).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );

        let mut j = tiny_batch_job();
        j.packets_per_server = None;
        let err = run_job(&j).unwrap_err();
        assert!(err.contains("packets_per_server"), "{err}");
    }

    #[test]
    fn run_job_produces_rate_metrics_json() {
        let result = run_job(&tiny_job()).unwrap();
        assert!(result["accepted_load"].as_f64().unwrap() > 0.05);
        assert_eq!(result["stalled"].as_bool(), Some(false));
    }

    #[test]
    fn results_carry_engine_counters() {
        for job in [tiny_job(), tiny_batch_job()] {
            let result = run_job(&job).unwrap();
            let counters = &result["counters"];
            assert_eq!(counters["v"].as_u64(), Some(1), "{}", job.kind);
            let slots = counters["c"].as_array().unwrap();
            assert!(!slots.is_empty(), "{} jobs populate counters", job.kind);
        }
    }

    #[test]
    fn traced_runs_produce_identical_result_bytes_plus_lifecycles() {
        let job = tiny_job();
        let untraced = run_job(&job).unwrap();
        let (traced, records) = run_job_traced(&job, 1 << 20).unwrap();
        // The zero-perturbation contract, observed at the store layer.
        assert_eq!(
            serde_json::to_string(&untraced).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
        assert!(!records.is_empty());
        let fp = job_fingerprint(&job);
        assert!(records.iter().all(|r| r.fp == fp));
        assert_eq!(records[0].event, "inject");
        assert!(records.iter().any(|r| r.event == "deliver"));
    }

    #[test]
    fn tuned_runs_are_byte_identical_and_share_views() {
        // The tuning knobs change how a job runs, never what it computes:
        // every partition count over a shared view cache must reproduce the
        // untuned bytes exactly. This is the store-level face of the
        // engine's partition-invariance contract.
        let plain = run_job(&tiny_job()).unwrap();
        let plain_batch = run_job(&tiny_batch_job()).unwrap();
        let views = ViewCache::new();
        for partitions in [1, 2, 4] {
            let tuning = RunTuning {
                partitions,
                views: Some(&views),
            };
            let tuned = run_job_tuned(&tiny_job(), &tuning).unwrap();
            assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&tuned).unwrap(),
                "rate job at {partitions} partitions"
            );
            let tuned_batch = run_job_tuned(&tiny_batch_job(), &tuning).unwrap();
            assert_eq!(
                serde_json::to_string(&plain_batch).unwrap(),
                serde_json::to_string(&tuned_batch).unwrap(),
                "batch job at {partitions} partitions"
            );
        }
        // Both jobs share sides/scenario/root, so one view served all runs.
        assert_eq!(views.len(), 1);
        assert!(!views.is_empty());
    }

    #[test]
    fn concurrent_misses_of_one_key_build_the_view_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let job = tiny_job();
        let experiment = job_experiment(&job).unwrap();
        let views = ViewCache::new();
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let got: Vec<Arc<NetworkView>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        views.get_or_build(view_cache_key(&job), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Hold the build open so every thread misses.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            experiment.build_view()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert!(got.iter().all(|v| Arc::ptr_eq(v, &got[0])));
        assert_eq!(views.len(), 1);
    }

    #[test]
    fn run_job_is_deterministic_per_seed() {
        let a = run_job(&tiny_job()).unwrap();
        let b = run_job(&tiny_job()).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let mut other = tiny_job();
        other.seed = 12;
        let c = run_job(&other).unwrap();
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
    }

    /// A 4×4, c=2 `omnisp` rate spec with one override, as the bugfix
    /// cases below need: each used to pass validation and fail every job.
    fn small_rate_spec(tweak: impl FnOnce(&mut CampaignSpec)) -> CampaignSpec {
        let mut spec = CampaignSpec {
            name: "reject".into(),
            topologies: vec![TopologySpec {
                sides: vec![4, 4],
                concentration: Some(2),
            }],
            mechanisms: Some(vec!["omnisp".into()]),
            traffics: Some(vec!["uniform".into()]),
            scenarios: Some(vec!["none".into()]),
            loads: Some(vec![0.2]),
            warmup: Some(50),
            measure: Some(100),
            ..CampaignSpec::default()
        };
        tweak(&mut spec);
        spec
    }

    #[test]
    fn validation_rejects_more_random_faults_than_links() {
        let spec = small_rate_spec(|s| s.scenarios = Some(vec!["random:1000:1".into()]));
        let err = validate_campaign(&spec).unwrap_err();
        assert!(
            err.contains("cannot fail 1000 links, only 48 exist"),
            "{err}"
        );
        assert!(err.contains("campaign `reject` job #0"), "{err}");
        let fits = small_rate_spec(|s| s.scenarios = Some(vec!["random:48:1".into()]));
        assert!(job_experiment(&fits.expand().unwrap()[0]).is_ok());
    }

    #[test]
    fn validation_rejects_surepath_with_one_vc() {
        let spec = small_rate_spec(|s| s.vcs = Some(1));
        let err = validate_campaign(&spec).unwrap_err();
        assert!(
            err.contains("OmniSP needs 2 to 255 VCs, got vcs = 1"),
            "{err}"
        );
        assert!(err.contains("campaign `reject` job #0"), "{err}");
        // A Ladder mechanism runs on one VC.
        let minimal = small_rate_spec(|s| {
            s.vcs = Some(1);
            s.mechanisms = Some(vec!["minimal".into()]);
        });
        assert!(validate_campaign(&minimal).is_ok());
    }

    #[test]
    fn validation_rejects_an_escape_root_outside_the_topology() {
        let spec = small_rate_spec(|s| s.roots = Some(vec!["switch:99".into()]));
        let err = validate_campaign(&spec).unwrap_err();
        assert!(
            err.contains("escape root switch:99 out of range: the topology has 16 switches"),
            "{err}"
        );
        assert!(err.contains("campaign `reject` job #0"), "{err}");
        let last = small_rate_spec(|s| s.roots = Some(vec!["switch:15".into()]));
        assert!(validate_campaign(&last).is_ok());
    }

    #[test]
    fn validation_rejects_traffic_the_topology_cannot_carry() {
        for (sides, traffic, message) in [
            (
                vec![4, 4],
                "rpn",
                "RPN is defined on 3D HyperX networks, got 2 dimension(s)",
            ),
            (vec![3, 3, 3], "rpn", "RPN requires an even side, got 3"),
            (
                vec![4, 4],
                "dcr",
                "so the concentration must equal the side 4, got 2",
            ),
            (
                vec![4, 8],
                "transpose",
                "Transpose requires a regular HyperX (all sides equal), got sides [4, 8]",
            ),
        ] {
            let spec = small_rate_spec(|s| {
                s.topologies[0].sides = sides;
                s.traffics = Some(vec!["uniform".into(), traffic.into()]);
            });
            let err = validate_campaign(&spec).unwrap_err();
            assert!(err.contains(message), "{err}");
            assert!(err.contains("campaign `reject` job #1"), "{err}");
        }
        let fits = small_rate_spec(|s| {
            s.topologies[0].concentration = Some(4);
            s.traffics = Some(vec!["dcr".into(), "transpose".into()]);
        });
        assert!(validate_campaign(&fits).is_ok());
    }

    #[test]
    fn validate_campaign_catches_typos_upfront() {
        let spec = CampaignSpec {
            name: "validate".into(),
            topologies: vec![TopologySpec {
                sides: vec![4, 4],
                concentration: None,
            }],
            mechanisms: Some(vec!["polsp".into(), "nonsense".into()]),
            traffics: Some(vec!["uniform".into()]),
            scenarios: Some(vec!["none".into()]),
            loads: Some(vec![0.2]),
            warmup: Some(50),
            measure: Some(100),
            ..CampaignSpec::default()
        };
        let err = validate_campaign(&spec).unwrap_err();
        assert!(err.contains("nonsense"), "{err}");
        // The message pins down which grid cell is broken: campaign name,
        // job index and fingerprint.
        assert!(err.contains("campaign `validate` job #1"), "{err}");
        assert!(err.contains("fp "), "{err}");

        let batch = CampaignSpec {
            kind: Some("batch".into()),
            mechanisms: Some(vec!["polsp".into()]),
            loads: None,
            ..spec.clone()
        };
        let err = validate_campaign(&batch).unwrap_err();
        assert!(err.contains("packets_per_server"), "{err}");

        let unknown = CampaignSpec {
            kind: Some("teleport".into()),
            mechanisms: Some(vec!["polsp".into()]),
            ..spec.clone()
        };
        let err = validate_campaign(&unknown).unwrap_err();
        assert!(err.contains("unknown job kind 'teleport'"), "{err}");
        assert!(err.contains("job #0"), "{err}");
    }

    #[test]
    fn batch_campaigns_validate_and_run_end_to_end() {
        let spec = CampaignSpec {
            name: "batch-bridge".into(),
            kind: Some("batch".into()),
            topologies: vec![TopologySpec {
                sides: vec![4, 4],
                concentration: Some(4),
            }],
            mechanisms: Some(vec!["omnisp".into(), "polsp".into()]),
            traffics: Some(vec!["uniform".into()]),
            scenarios: Some(vec!["none".into()]),
            seeds: Some(vec![1]),
            vcs: Some(4),
            packets_per_server: Some(15),
            sample_window: Some(200),
            ..CampaignSpec::default()
        };
        assert!(validate_campaign(&spec).is_ok());
        let dir = std::env::temp_dir().join("surepath-core-batch-campaign");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("batch-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let outcome = run_campaign(&spec, &path, Some(2), true).unwrap();
        assert_eq!(outcome.total, 2);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn traced_campaigns_write_identical_stores_plus_a_sidecar() {
        let spec = CampaignSpec {
            name: "trace-bridge".into(),
            topologies: vec![TopologySpec {
                sides: vec![4, 4],
                concentration: Some(4),
            }],
            mechanisms: Some(vec!["polsp".into()]),
            traffics: Some(vec!["uniform".into()]),
            scenarios: Some(vec!["none".into()]),
            loads: Some(vec![0.2, 0.4]),
            seeds: Some(vec![7]),
            warmup: Some(100),
            measure: Some(300),
            ..CampaignSpec::default()
        };
        let dir = std::env::temp_dir().join("surepath-core-traced-campaign");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let plain = dir.join(format!("plain-{pid}.jsonl"));
        let traced = dir.join(format!("traced-{pid}.jsonl"));
        let sidecar = trace_path(&traced);
        for p in [&plain, &traced, &sidecar] {
            let _ = std::fs::remove_file(p);
        }
        run_campaign(&spec, &plain, Some(2), true).unwrap();
        let outcome = run_campaign_traced(&spec, &traced, Some(2), true).unwrap();
        assert!(outcome.is_complete());
        assert_eq!(
            std::fs::read(&plain).unwrap(),
            std::fs::read(&traced).unwrap(),
            "tracing must not change store bytes"
        );
        let records = surepath_runner::load_trace(&sidecar).unwrap();
        assert!(!records.is_empty());
        let jobs = spec.expand().unwrap();
        let fps: Vec<String> = jobs.iter().map(job_fingerprint).collect();
        assert!(records.iter().all(|r| fps.contains(&r.fp)));
        for p in [&plain, &traced, &sidecar] {
            let _ = std::fs::remove_file(p);
        }
    }
}
