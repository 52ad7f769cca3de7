//! The campaign driver: spec → jobs → executor → store.

use crate::executor::{run_pool, JobOutcome};
use crate::fingerprint::job_fingerprint;
use crate::progress::ProgressReporter;
use crate::spec::{CampaignSpec, JobSpec};
use crate::store::ResultStore;
use crate::timings::{timings_path, TimingRecord, TimingsLog};
use serde::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// What a finished campaign run looked like.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignOutcome {
    /// Total jobs in the expanded grid.
    pub total: usize,
    /// Jobs skipped because the store already had them.
    pub skipped: usize,
    /// Jobs executed this run.
    pub executed: usize,
    /// Of the executed jobs, how many failed (error or panic).
    pub failed: usize,
    /// Whether the global deadline stopped the run before the grid was
    /// drained (the store was still finalized cleanly; re-running resumes).
    pub deadline_hit: bool,
}

impl CampaignOutcome {
    /// Whether every grid cell now has a successful result.
    pub fn is_complete(&self) -> bool {
        self.skipped + self.executed - self.failed == self.total
    }
}

/// Knobs of [`run_campaign_with`] beyond the spec itself.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads (`None` = all cores).
    pub threads: Option<usize>,
    /// Suppress per-job progress output.
    pub quiet: bool,
    /// Explicit wall-clock budget; `None` resolves `SUREPATH_DEADLINE_SECS`,
    /// then the spec's `deadline_secs` field.
    pub deadline: Option<Duration>,
    /// Write per-job wall-clock to the `<store>.timings.jsonl` sidecar.
    pub timings: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: None,
            quiet: false,
            deadline: None,
            timings: true,
        }
    }
}

/// The environment variable whose budget overrides a spec's `deadline_secs`.
const DEADLINE_ENV: &str = "SUREPATH_DEADLINE_SECS";

/// The deadline from `SUREPATH_DEADLINE_SECS`: `None` when it is unset, and
/// an error naming the variable and its value when it is set to anything
/// but a whole number of seconds, at least 1.
pub fn deadline_from_env() -> Result<Option<Duration>, String> {
    std::env::var_os(DEADLINE_ENV)
        .map(|raw| parse_deadline_secs(&raw.to_string_lossy()))
        .transpose()
}

fn parse_deadline_secs(raw: &str) -> Result<Duration, String> {
    match raw.parse::<u64>() {
        Ok(secs) if secs > 0 => Ok(Duration::from_secs(secs)),
        _ => Err(format!(
            "{DEADLINE_ENV} must be a whole number of seconds, at least 1; got `{raw}`"
        )),
    }
}

/// Runs (or resumes) a campaign.
///
/// Expands `spec`, skips every job whose fingerprint is already complete in
/// the store at `store_path`, and executes the rest in grid order on a pool
/// of `threads` workers (`None` = all cores). Each pending job is passed to
/// `job_fn`; `Ok(value)` is streamed to the store as a success, `Err` (and
/// any panic) as a retryable failure. On completion the store is rewritten
/// in canonical grid order, making repeated runs byte-identical.
pub fn run_campaign<F>(
    spec: &CampaignSpec,
    store_path: &Path,
    threads: Option<usize>,
    quiet: bool,
    job_fn: F,
) -> std::io::Result<CampaignOutcome>
where
    F: Fn(&JobSpec) -> Result<Value, String> + Sync,
{
    run_campaign_with(
        spec,
        store_path,
        &RunOptions {
            threads,
            quiet,
            ..RunOptions::default()
        },
        job_fn,
    )
}

/// [`run_campaign`] with the full option set: an optional global deadline
/// (stop dequeuing, finalize the partial store cleanly, report
/// `deadline_hit` so callers can exit with a distinct code and a later run
/// resumes the rest) and the per-job wall-clock sidecar.
pub fn run_campaign_with<F>(
    spec: &CampaignSpec,
    store_path: &Path,
    opts: &RunOptions,
    job_fn: F,
) -> std::io::Result<CampaignOutcome>
where
    F: Fn(&JobSpec) -> Result<Value, String> + Sync,
{
    let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
    let jobs = spec.expand().map_err(invalid)?;
    // Env beats the spec field: an operator reclaiming a machine overrides
    // whatever budget the spec author wrote.
    let budget = match opts.deadline {
        Some(budget) => Some(budget),
        None => deadline_from_env()
            .map_err(invalid)?
            .or(spec.deadline_secs.map(Duration::from_secs)),
    };
    let mut store = ResultStore::open(store_path)?;
    let mut timings = if opts.timings {
        Some(TimingsLog::open(&timings_path(store_path))?)
    } else {
        None
    };
    let deadline = budget.map(|budget| Instant::now() + budget);

    let pending: Vec<JobSpec> = jobs
        .iter()
        .filter(|job| !store.is_complete(&job_fingerprint(job)))
        .cloned()
        .collect();
    let skipped = jobs.len() - pending.len();

    let mut progress = ProgressReporter::new(jobs.len(), skipped, !opts.quiet);
    let mut io_error: Option<std::io::Error> = None;
    let mut deadline_hit = false;
    run_pool(
        &pending,
        opts.threads
            .unwrap_or_else(crate::executor::default_threads),
        |_, job| {
            let started = Instant::now();
            let result = job_fn(job);
            (result, started.elapsed().as_millis() as u64)
        },
        |idx, outcome| {
            let job = &pending[idx];
            let (write_result, millis) = match outcome {
                JobOutcome::Completed((Ok(result), millis)) => {
                    progress.job_finished(&job.label(), true);
                    (store.append_ok(job, result), Some(millis))
                }
                JobOutcome::Completed((Err(error), millis)) => {
                    progress.job_finished(&job.label(), false);
                    (store.append_failed(job, error), Some(millis))
                }
                JobOutcome::Panicked(message) => {
                    progress.job_finished(&job.label(), false);
                    (store.append_failed(job, format!("panic: {message}")), None)
                }
            };
            if let (Some(log), Some(millis)) = (&mut timings, millis) {
                // Sidecar trouble is not worth losing simulation results
                // over; the store write below is what gates continuation.
                let _ = log.append(&TimingRecord {
                    fp: job_fingerprint(job),
                    label: job.label(),
                    millis,
                    worker: "local".to_string(),
                });
            }
            match write_result {
                Ok(()) => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        // Budget exhausted: stop dequeuing. In-flight jobs
                        // finish but are not persisted; the finalized
                        // partial store resumes them next run.
                        deadline_hit = true;
                        return false;
                    }
                    true
                }
                Err(e) => {
                    // A store that cannot be written makes every further
                    // result unpersistable: stop the pool instead of burning
                    // hours of simulation that would be lost.
                    io_error.get_or_insert(e);
                    false
                }
            }
        },
    );
    if let Some(e) = io_error {
        return Err(e);
    }
    let (executed, failed) = progress.finish();
    store.finalize(&jobs)?;
    Ok(CampaignOutcome {
        total: jobs.len(),
        skipped,
        executed,
        failed,
        deadline_hit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spec(name: &str) -> CampaignSpec {
        CampaignSpec {
            name: name.to_string(),
            topologies: vec![TopologySpec {
                sides: vec![4, 4],
                concentration: None,
            }],
            mechanisms: Some(vec!["a".into(), "b".into()]),
            traffics: Some(vec!["uniform".into()]),
            scenarios: Some(vec!["none".into()]),
            loads: Some(vec![0.25, 0.5]),
            seeds: Some(vec![1, 2, 3]),
            ..CampaignSpec::default()
        }
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("surepath-runner-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    /// A deterministic fake workload: result derives only from the job.
    fn fake_result(job: &JobSpec) -> Result<Value, String> {
        let score = job.seed as f64 * job.load.unwrap_or(1.0);
        serde_json::to_value(&score).map_err(|e| e.to_string())
    }

    #[test]
    fn full_run_then_resume_skips_everything() {
        let path = temp_store("resume-all");
        let _ = std::fs::remove_file(&path);
        let s = spec("resume-all");

        let first = run_campaign(&s, &path, Some(4), true, fake_result).unwrap();
        assert_eq!(first.total, 12);
        assert_eq!(first.executed, 12);
        assert_eq!(first.skipped, 0);
        assert!(first.is_complete());

        let executed = AtomicUsize::new(0);
        let second = run_campaign(&s, &path, Some(4), true, |job| {
            executed.fetch_add(1, Ordering::Relaxed);
            fake_result(job)
        })
        .unwrap();
        assert_eq!(second.skipped, 12);
        assert_eq!(second.executed, 0);
        assert_eq!(executed.load(Ordering::Relaxed), 0, "no job re-ran");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let path_a = temp_store("bytes-a");
        let path_b = temp_store("bytes-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let s = spec("bytes");
        run_campaign(&s, &path_a, Some(1), true, fake_result).unwrap();
        run_campaign(&s, &path_b, Some(6), true, fake_result).unwrap();
        let a = std::fs::read(&path_a).unwrap();
        let b = std::fs::read(&path_b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "different thread counts must give identical stores");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn interrupted_campaign_reruns_only_missing_jobs() {
        let path = temp_store("partial");
        let _ = std::fs::remove_file(&path);
        let s = spec("partial");
        let jobs = s.expand().unwrap();

        // Simulate an interrupted run: only 5 of 12 results made it to disk.
        {
            let mut store = ResultStore::open(&path).unwrap();
            for job in jobs.iter().take(5) {
                store.append_ok(job, fake_result(job).unwrap()).unwrap();
            }
        }
        let executed = AtomicUsize::new(0);
        let outcome = run_campaign(&s, &path, Some(4), true, |job| {
            executed.fetch_add(1, Ordering::Relaxed);
            fake_result(job)
        })
        .unwrap();
        assert_eq!(outcome.skipped, 5);
        assert_eq!(outcome.executed, 7);
        assert_eq!(executed.load(Ordering::Relaxed), 7);
        assert!(outcome.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panicking_job_fails_alone_and_is_retried_next_run() {
        let path = temp_store("panic");
        let _ = std::fs::remove_file(&path);
        let s = spec("panic");

        let outcome = run_campaign(&s, &path, Some(4), true, |job| {
            if job.seed == 2 && job.mechanism.as_deref() == Some("a") {
                panic!("simulated simulator bug");
            }
            fake_result(job)
        })
        .unwrap();
        assert_eq!(outcome.executed, 12);
        assert_eq!(outcome.failed, 2, "seed 2 × mechanism a × two loads");
        assert!(!outcome.is_complete());

        // The failure is recorded, and a healthy re-run completes the grid.
        let store = ResultStore::open(&path).unwrap();
        let failed: Vec<_> = store.records().filter(|r| r.status == "failed").collect();
        assert_eq!(failed.len(), 2);
        assert!(failed[0]
            .error
            .as_deref()
            .unwrap()
            .contains("simulated simulator bug"));

        let retry = run_campaign(&s, &path, Some(4), true, fake_result).unwrap();
        assert_eq!(retry.skipped, 10);
        assert_eq!(retry.executed, 2);
        assert!(retry.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn campaign_writes_the_timings_sidecar_by_default() {
        let path = temp_store("timings");
        let sidecar = crate::timings::timings_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
        let s = spec("timings");
        run_campaign(&s, &path, Some(2), true, fake_result).unwrap();
        let records = crate::timings::load_timings(&sidecar).unwrap();
        assert_eq!(records.len(), 12, "one timing per executed job");
        assert!(records.iter().all(|r| r.worker == "local"));
        // The deterministic store never mentions wall-clock.
        let store_text = std::fs::read_to_string(&path).unwrap();
        assert!(!store_text.contains("millis"), "{store_text}");

        // Opting out suppresses the sidecar.
        let path2 = temp_store("timings-off");
        let sidecar2 = crate::timings::timings_path(&path2);
        let _ = std::fs::remove_file(&path2);
        let _ = std::fs::remove_file(&sidecar2);
        run_campaign_with(
            &s,
            &path2,
            &RunOptions {
                threads: Some(2),
                quiet: true,
                timings: false,
                ..RunOptions::default()
            },
            fake_result,
        )
        .unwrap();
        assert!(!sidecar2.exists());
        for p in [&path, &sidecar, &path2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn deadline_stops_dequeuing_finalizes_and_resumes() {
        let path = temp_store("deadline");
        let _ = std::fs::remove_file(&path);
        let s = spec("deadline");
        // A zero-length budget: the first completed job trips the deadline.
        let outcome = run_campaign_with(
            &s,
            &path,
            &RunOptions {
                threads: Some(1),
                quiet: true,
                deadline: Some(std::time::Duration::ZERO),
                timings: false,
            },
            fake_result,
        )
        .unwrap();
        assert!(outcome.deadline_hit);
        assert!(outcome.executed >= 1, "at least the in-flight job landed");
        assert!(outcome.executed < outcome.total, "the grid was cut short");
        assert!(!outcome.is_complete());

        // The partial store was finalized cleanly: a later unbudgeted run
        // resumes exactly the missing jobs and completes the grid.
        let resumed = run_campaign(&s, &path, Some(2), true, fake_result).unwrap();
        assert!(!resumed.deadline_hit);
        assert_eq!(resumed.skipped, outcome.executed);
        assert_eq!(resumed.executed, outcome.total - outcome.executed);
        assert!(resumed.is_complete());

        // The resumed store is byte-identical to a single uninterrupted run.
        let clean = temp_store("deadline-clean");
        let _ = std::fs::remove_file(&clean);
        run_campaign(&s, &clean, Some(2), true, fake_result).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&clean).unwrap()
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&clean);
    }

    #[test]
    fn spec_deadline_field_is_honoured() {
        let path = temp_store("deadline-spec");
        let _ = std::fs::remove_file(&path);
        let s = CampaignSpec {
            // u64 seconds; Duration::ZERO is not expressible in the spec, so
            // use the smallest budget and a job that outlasts it.
            deadline_secs: Some(1),
            ..spec("deadline-spec")
        };
        let outcome = run_campaign_with(
            &s,
            &path,
            &RunOptions {
                threads: Some(1),
                quiet: true,
                timings: false,
                ..RunOptions::default()
            },
            |job| {
                std::thread::sleep(std::time::Duration::from_millis(150));
                fake_result(job)
            },
        )
        .unwrap();
        assert!(
            outcome.deadline_hit,
            "1s budget, >100ms per job on 1 thread"
        );
        assert!(!outcome.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deadline_env_values_must_be_whole_seconds_of_at_least_one() {
        assert_eq!(parse_deadline_secs("3600"), Ok(Duration::from_secs(3600)));
        for raw in ["90s", "0", "-1", "1.5", ""] {
            let err = parse_deadline_secs(raw).unwrap_err();
            assert!(err.contains("SUREPATH_DEADLINE_SECS"), "{err}");
            assert!(err.contains(&format!("got `{raw}`")), "{err}");
        }
    }

    #[test]
    fn job_errors_are_recorded_not_fatal() {
        let path = temp_store("errors");
        let _ = std::fs::remove_file(&path);
        let s = spec("errors");
        let outcome = run_campaign(&s, &path, Some(2), true, |job| {
            if job.mechanism.as_deref() == Some("b") {
                Err("unknown mechanism `b`".to_string())
            } else {
                fake_result(job)
            }
        })
        .unwrap();
        assert_eq!(outcome.failed, 6);
        assert_eq!(outcome.executed, 12);
        let _ = std::fs::remove_file(&path);
    }
}
