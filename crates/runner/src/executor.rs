//! A fixed-size work-stealing thread pool for independent jobs.
//!
//! The previous generation of this codebase spawned **one OS thread per
//! simulation** (`std::thread::scope` fan-outs in `surepath-core`), which
//! falls over on large campaigns: a 2,000-job grid would try to run 2,000
//! concurrent cycle-level simulations. This executor instead runs a bounded
//! worker pool:
//!
//! * jobs are distributed round-robin into **per-worker deques**;
//! * each worker pops from the *front* of its own deque and, when empty,
//!   **steals from the back** of a sibling's deque, so uneven job costs
//!   (e.g. high-load saturation points next to cheap low-load points)
//!   still keep every core busy;
//! * every job runs under `catch_unwind`, so one panicking simulation is
//!   reported as a failed job instead of killing the whole campaign;
//! * results are delivered to a single consumer callback as they finish,
//!   which is what lets the store stream records to disk mid-campaign.
//!
//! Determinism note: job *results* must depend only on the job (the
//! simulator is seeded per job), never on scheduling. The executor makes no
//! ordering promises between `on_complete` calls; callers that need a
//! canonical order (the JSONL store does) re-order afterwards.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

/// What happened to one job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Completed(T),
    /// The job panicked; the payload message is preserved.
    Panicked(String),
}

impl<T> JobOutcome<T> {
    /// Unwraps a completed outcome, re-panicking with the original message
    /// for panicked jobs (used by callers that want fail-fast semantics).
    pub fn unwrap_completed(self) -> T {
        match self {
            JobOutcome::Completed(v) => v,
            JobOutcome::Panicked(msg) => panic!("job panicked: {msg}"),
        }
    }
}

/// The default worker count: all available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Adaptive chunk sizing for very cheap jobs.
///
/// A campaign of tiny jobs (fig01-style quick cells that simulate for a few
/// milliseconds) pays a queue lock, a steal scan and a channel send **per
/// job** — dispatch overhead comparable to the work itself. With chunking a
/// worker grabs several jobs per queue visit, sized so a chunk is worth
/// roughly [`ChunkOptions::target_millis`] of work according to a moving
/// estimate of per-job wall-clock. Expensive jobs (estimate ≥ target) keep
/// chunk = 1, preserving stealability; cheap jobs amortise dispatch.
///
/// The estimate starts from [`ChunkOptions::initial_estimate_millis`]
/// (callers seed it from the `<store>.timings.jsonl` sidecar of a previous
/// run) and is updated as an exponentially weighted moving average as jobs
/// finish. Results still flow to `on_complete` one by one, so store bytes
/// are unaffected — chunking only changes how workers pull work.
#[derive(Clone, Debug)]
pub struct ChunkOptions {
    /// Target wall-clock per chunk in milliseconds.
    pub target_millis: u64,
    /// Hard cap on jobs per chunk (keeps stealing effective and bounds the
    /// work lost when a run is cancelled mid-chunk).
    pub max_chunk: usize,
    /// Seed for the per-job wall-clock estimate; `None` starts at chunk = 1
    /// until the first measurements arrive.
    pub initial_estimate_millis: Option<f64>,
}

impl Default for ChunkOptions {
    fn default() -> Self {
        ChunkOptions {
            target_millis: 25,
            max_chunk: 32,
            initial_estimate_millis: None,
        }
    }
}

/// EWMA weight of each new per-job sample.
const ESTIMATE_ALPHA: f64 = 0.2;

/// The moving per-job wall-clock estimate, shared across workers as f64
/// bits in an atomic. Zero means "no estimate yet". Updates race benignly —
/// the estimate is a scheduling heuristic, never a correctness input.
struct JobCostEstimate(AtomicU64);

impl JobCostEstimate {
    fn new(initial_millis: Option<f64>) -> Self {
        JobCostEstimate(AtomicU64::new(
            initial_millis
                .filter(|m| m.is_finite() && *m > 0.0)
                .map_or(0, f64::to_bits),
        ))
    }

    fn record(&self, millis: f64) {
        let old = f64::from_bits(self.0.load(Ordering::Relaxed));
        let new = if old > 0.0 {
            old * (1.0 - ESTIMATE_ALPHA) + millis * ESTIMATE_ALPHA
        } else {
            millis
        };
        self.0.store(new.to_bits(), Ordering::Relaxed);
    }

    /// Jobs per chunk under `opts`, given the current estimate.
    fn chunk_size(&self, opts: &ChunkOptions) -> usize {
        let estimate = f64::from_bits(self.0.load(Ordering::Relaxed));
        if estimate <= 0.0 {
            return 1;
        }
        ((opts.target_millis as f64 / estimate) as usize).clamp(1, opts.max_chunk)
    }
}

/// Runs `worker` over every item on a work-stealing pool of `threads`
/// workers, invoking `on_complete(index, outcome)` on the calling thread as
/// jobs finish (in completion order, not index order).
///
/// `on_complete` returns whether to keep going: returning `false` shuts the
/// pool down promptly — workers finish their in-flight job and stop pulling
/// new ones. Callers that cannot make use of further results (e.g. the
/// store's disk is full) use this to avoid burning hours of simulation that
/// could never be persisted.
pub fn run_work_stealing<I, T, F, C>(items: &[I], threads: usize, worker: F, on_complete: C)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
    C: FnMut(usize, JobOutcome<T>) -> bool,
{
    // A chunk cap of 1 disables chunking (and its timing overhead is two
    // Instant reads per job — negligible against any real simulation).
    run_work_stealing_chunked(
        items,
        threads,
        &ChunkOptions {
            max_chunk: 1,
            ..ChunkOptions::default()
        },
        worker,
        on_complete,
    );
}

/// [`run_work_stealing`] with adaptive chunking: workers pull up to
/// `JobCostEstimate::chunk_size` jobs per queue visit (see
/// [`ChunkOptions`]). Results are still delivered per job; only dispatch
/// granularity changes, so anything derived from job results — the result
/// store included — is byte-identical to unchunked execution.
pub fn run_work_stealing_chunked<I, T, F, C>(
    items: &[I],
    threads: usize,
    chunking: &ChunkOptions,
    worker: F,
    mut on_complete: C,
) where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
    C: FnMut(usize, JobOutcome<T>) -> bool,
{
    if items.is_empty() {
        return;
    }
    let threads = threads.clamp(1, items.len());
    let estimate = JobCostEstimate::new(chunking.initial_estimate_millis);

    // Round-robin initial distribution across per-worker deques.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| {
            Mutex::new(
                (0..items.len())
                    .filter(|i| i % threads == w)
                    .collect::<VecDeque<usize>>(),
            )
        })
        .collect();

    let pop_chunk = |own: usize, chunk: &mut Vec<usize>| {
        let want = estimate.chunk_size(chunking);
        // Own deque first (front: cache-friendly FIFO of the initial share)…
        {
            let mut queue = queues[own].lock().expect("queue lock");
            while chunk.len() < want {
                match queue.pop_front() {
                    Some(idx) => chunk.push(idx),
                    None => break,
                }
            }
        }
        if !chunk.is_empty() {
            return;
        }
        // …then steal from the back of a sibling's deque, preferring the most
        // loaded one. Every queue is attempted: a single measured victim can
        // be drained by other thieves between the measurement and the steal,
        // and bailing out then would retire this worker while work remains.
        // (No job ever re-enters a queue, so observing every queue empty is a
        // safe termination condition.)
        let mut victims: Vec<usize> = (0..queues.len()).filter(|&w| w != own).collect();
        victims.sort_by_key(|&w| std::cmp::Reverse(queues[w].lock().expect("queue lock").len()));
        for w in victims {
            let mut queue = queues[w].lock().expect("queue lock");
            while chunk.len() < want {
                match queue.pop_back() {
                    Some(idx) => chunk.push(idx),
                    None => break,
                }
            }
            if !chunk.is_empty() {
                return;
            }
        }
    };

    std::thread::scope(|scope| {
        let (sender, receiver) = mpsc::channel::<(usize, JobOutcome<T>)>();
        for w in 0..threads {
            let sender = sender.clone();
            let worker = &worker;
            let items_ref = items;
            let pop_chunk = &pop_chunk;
            let estimate = &estimate;
            scope.spawn(move || {
                let mut chunk: Vec<usize> = Vec::new();
                'outer: loop {
                    chunk.clear();
                    pop_chunk(w, &mut chunk);
                    if chunk.is_empty() {
                        break;
                    }
                    for &idx in &chunk {
                        let started = Instant::now();
                        let outcome =
                            match catch_unwind(AssertUnwindSafe(|| worker(idx, &items_ref[idx]))) {
                                Ok(value) => JobOutcome::Completed(value),
                                Err(payload) => JobOutcome::Panicked(panic_message(payload)),
                            };
                        estimate.record(started.elapsed().as_secs_f64() * 1_000.0);
                        if sender.send((idx, outcome)).is_err() {
                            // Consumer hung up; nothing useful left to do
                            // (the rest of the chunk is abandoned too).
                            break 'outer;
                        }
                    }
                }
            });
        }
        drop(sender);
        for (idx, outcome) in receiver {
            if !on_complete(idx, outcome) {
                // Dropping the receiver makes every worker's next send fail,
                // so the pool drains promptly without starting new jobs.
                break;
            }
        }
    });
}

/// Convenience wrapper: maps `f` over `items` on the pool and returns
/// results **in input order**. Panics (with the original message) if any job
/// panicked — the fail-fast behaviour `surepath-core`'s sweep helpers want.
pub fn parallel_map<I, T, F>(items: &[I], threads: Option<usize>, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = threads.unwrap_or_else(default_threads);
    let mut slots: Vec<Option<JobOutcome<T>>> = (0..items.len()).map(|_| None).collect();
    run_work_stealing(
        items,
        threads,
        |_, item| f(item),
        |idx, outcome| {
            slots[idx] = Some(outcome);
            true
        },
    );
    slots
        .into_iter()
        .map(|slot| {
            slot.expect("executor completed every job")
                .unwrap_completed()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_job_exactly_once() {
        let items: Vec<usize> = (0..97).collect();
        let executed = AtomicUsize::new(0);
        let mut seen = vec![false; items.len()];
        run_work_stealing(
            &items,
            4,
            |_, &v| {
                executed.fetch_add(1, Ordering::Relaxed);
                v * 2
            },
            |idx, outcome| {
                assert!(!seen[idx], "job {idx} completed twice");
                seen[idx] = true;
                assert_eq!(outcome, JobOutcome::Completed(items[idx] * 2));
                true
            },
        );
        assert_eq!(executed.load(Ordering::Relaxed), items.len());
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..50).collect();
        let doubled = parallel_map(&items, Some(8), |&v| v * 2);
        assert_eq!(doubled, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn uses_a_bounded_pool_not_thread_per_job() {
        use std::sync::atomic::AtomicIsize;
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        parallel_map(&items, Some(3), |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "peak concurrency {} exceeded pool size",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn work_stealing_drains_uneven_queues() {
        // Worker 0's initial share is expensive; the others must steal it.
        let items: Vec<usize> = (0..32).collect();
        let slow_worker_jobs = AtomicUsize::new(0);
        let mut completed = 0;
        run_work_stealing(
            &items,
            4,
            |_, &v| {
                if v % 4 == 0 {
                    slow_worker_jobs.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                v
            },
            |_, _| {
                completed += 1;
                true
            },
        );
        assert_eq!(completed, 32);
        assert_eq!(slow_worker_jobs.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let items: Vec<usize> = (0..20).collect();
        let mut ok = 0;
        let mut panicked = 0;
        run_work_stealing(
            &items,
            4,
            |_, &v| {
                if v == 7 {
                    panic!("job {v} exploded");
                }
                v
            },
            |_, outcome| {
                match outcome {
                    JobOutcome::Completed(_) => ok += 1,
                    JobOutcome::Panicked(msg) => {
                        assert!(msg.contains("exploded"), "message preserved: {msg}");
                        panicked += 1;
                    }
                }
                true
            },
        );
        assert_eq!(ok, 19);
        assert_eq!(panicked, 1);
    }

    #[test]
    #[should_panic(expected = "job panicked")]
    fn parallel_map_propagates_panics() {
        let items = [1usize, 2, 3];
        let _ = parallel_map(&items, Some(2), |&v| {
            if v == 2 {
                panic!("boom");
            }
            v
        });
    }

    #[test]
    fn returning_false_from_on_complete_stops_the_pool_promptly() {
        let items: Vec<usize> = (0..200).collect();
        let executed = AtomicUsize::new(0);
        let mut delivered = 0;
        run_work_stealing(
            &items,
            2,
            |_, &v| {
                executed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
                v
            },
            |_, _| {
                delivered += 1;
                delivered < 5 // cancel after the fifth result
            },
        );
        assert_eq!(delivered, 5);
        // Workers stop pulling new jobs once the consumer hangs up; at most
        // the in-flight jobs (one per worker) plus a small channel backlog
        // run beyond the cancellation point.
        let total = executed.load(Ordering::Relaxed);
        assert!(
            total < 200,
            "cancellation must not run the whole grid (ran {total})"
        );
    }

    #[test]
    fn chunk_size_follows_the_cost_estimate() {
        let opts = ChunkOptions {
            target_millis: 20,
            max_chunk: 16,
            initial_estimate_millis: None,
        };
        let est = JobCostEstimate::new(None);
        assert_eq!(est.chunk_size(&opts), 1, "no estimate yet -> no chunking");
        let est = JobCostEstimate::new(Some(0.5));
        assert_eq!(est.chunk_size(&opts), 16, "40 jobs' worth caps at max");
        let est = JobCostEstimate::new(Some(5.0));
        assert_eq!(est.chunk_size(&opts), 4);
        let est = JobCostEstimate::new(Some(500.0));
        assert_eq!(est.chunk_size(&opts), 1, "expensive jobs stay stealable");
        // Bad seeds are ignored rather than poisoning the estimate.
        let est = JobCostEstimate::new(Some(f64::NAN));
        assert_eq!(est.chunk_size(&opts), 1);
        let est = JobCostEstimate::new(Some(-3.0));
        assert_eq!(est.chunk_size(&opts), 1);
    }

    #[test]
    fn estimate_moves_towards_new_samples() {
        let est = JobCostEstimate::new(None);
        est.record(10.0);
        let opts = ChunkOptions {
            target_millis: 20,
            max_chunk: 32,
            initial_estimate_millis: None,
        };
        assert_eq!(est.chunk_size(&opts), 2, "first sample is adopted as-is");
        for _ in 0..60 {
            est.record(1.0);
        }
        assert!(
            est.chunk_size(&opts) >= 16,
            "the EWMA converges to the cheap-job regime"
        );
    }

    #[test]
    fn chunked_execution_runs_every_job_exactly_once() {
        // A pre-seeded cheap estimate makes workers pull whole chunks; every
        // job must still run exactly once and deliver its own result.
        let items: Vec<usize> = (0..193).collect();
        let opts = ChunkOptions {
            target_millis: 50,
            max_chunk: 8,
            initial_estimate_millis: Some(0.01),
        };
        let executed = AtomicUsize::new(0);
        let mut seen = vec![false; items.len()];
        run_work_stealing_chunked(
            &items,
            4,
            &opts,
            |_, &v| {
                executed.fetch_add(1, Ordering::Relaxed);
                v * 3
            },
            |idx, outcome| {
                assert!(!seen[idx], "job {idx} completed twice");
                seen[idx] = true;
                assert_eq!(outcome, JobOutcome::Completed(items[idx] * 3));
                true
            },
        );
        assert_eq!(executed.load(Ordering::Relaxed), items.len());
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chunked_cancellation_abandons_the_rest_of_the_chunk() {
        let items: Vec<usize> = (0..400).collect();
        let opts = ChunkOptions {
            target_millis: 100,
            max_chunk: 16,
            initial_estimate_millis: Some(0.01),
        };
        let executed = AtomicUsize::new(0);
        let mut delivered = 0;
        run_work_stealing_chunked(
            &items,
            2,
            &opts,
            |_, &v| {
                executed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(200));
                v
            },
            |_, _| {
                delivered += 1;
                delivered < 5
            },
        );
        assert_eq!(delivered, 5);
        assert!(
            executed.load(Ordering::Relaxed) < 400,
            "cancellation must not run the whole grid"
        );
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let items: Vec<usize> = Vec::new();
        let mut calls = 0;
        run_work_stealing(
            &items,
            4,
            |_, &v| v,
            |_, _| {
                calls += 1;
                true
            },
        );
        assert_eq!(calls, 0);
    }
}
