//! A fixed-size work-stealing thread pool for independent jobs.
//!
//! The previous generation of this codebase spawned **one OS thread per
//! simulation** (`std::thread::scope` fan-outs in `surepath-core`), which
//! falls over on large campaigns: a 2,000-job grid would try to run 2,000
//! concurrent cycle-level simulations. This executor instead runs a bounded
//! worker pool:
//!
//! * jobs are fed round-robin into **per-worker deques**;
//! * each worker pops from the *front* of its own deque and, when empty,
//!   **steals from the back** of a sibling's deque, so uneven job costs
//!   (e.g. high-load saturation points next to cheap low-load points)
//!   still keep every core busy;
//! * a worker that finds every deque empty **waits for more work** until
//!   the feed is closed, so one pool can serve a consumer that learns of
//!   its jobs over time (a distributed worker fetching from its
//!   coordinator) as well as a fixed list ([`run_work_stealing`] feeds
//!   every item and closes at once);
//! * every job runs under `catch_unwind`, so one panicking simulation is
//!   reported as a failed job instead of killing the whole campaign;
//! * results are delivered to a single consumer as they finish, which is
//!   what lets the store stream records to disk mid-campaign.
//!
//! Determinism note: job *results* must depend only on the job (the
//! simulator is seeded per job), never on scheduling. The executor makes no
//! ordering promises between results; callers that need a canonical order
//! (the JSONL store does) re-order afterwards.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

impl ChunkOptions {
    /// One job per queue visit: no chunking.
    pub fn unchunked() -> Self {
        ChunkOptions {
            max_chunk: 1,
            ..ChunkOptions::default()
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

/// What a pool reports to its consumer (see [`with_pool`]).
#[derive(Debug)]
pub enum PoolEvent<I, T> {
    /// A job thread took items off the deques, so [`Pool::unstarted`] fell.
    Started,
    /// One item ran; it comes back with its outcome.
    Finished(I, JobOutcome<T>),
}

/// Whether the feed is still open, and where the next fed item goes.
struct FeedState {
    next: usize,
    closed: bool,
}

/// Locks a pool mutex. No update of the deques or the feed state can stop
/// halfway, so a poisoned lock still guards valid data; recovering it
/// keeps [`Release`] from panicking while a consumer unwinds.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The per-worker deques of a pool and the feed that fills them.
struct Queues<I> {
    deques: Vec<Mutex<VecDeque<I>>>,
    /// Items fed and not yet taken by a job thread. Raised before an item
    /// is pushed and lowered after it is taken, so it never underflows.
    unstarted: AtomicUsize,
    /// Held while items are pushed and while an idle job thread looks for
    /// work before it waits on `fed`: a feed can never slip between a
    /// worker's last look and its wait.
    feed: Mutex<FeedState>,
    fed: Condvar,
}

impl<I> Queues<I> {
    fn new(threads: usize) -> Self {
        Queues {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            unstarted: AtomicUsize::new(0),
            feed: Mutex::new(FeedState {
                next: 0,
                closed: false,
            }),
            fed: Condvar::new(),
        }
    }

    fn push(&self, items: impl IntoIterator<Item = I>) {
        let mut feed = lock(&self.feed);
        for item in items {
            self.unstarted.fetch_add(1, Ordering::SeqCst);
            lock(&self.deques[feed.next]).push_back(item);
            feed.next = (feed.next + 1) % self.deques.len();
        }
        self.fed.notify_all();
    }

    fn close(&self) {
        lock(&self.feed).closed = true;
        self.fed.notify_all();
    }

    fn drop_unstarted(&self) -> usize {
        let mut dropped = 0;
        for deque in &self.deques {
            let mut deque = lock(deque);
            dropped += deque.len();
            deque.clear();
        }
        self.unstarted.fetch_sub(dropped, Ordering::SeqCst);
        dropped
    }

    /// Moves up to `want` items into `chunk` for job thread `own`, waiting
    /// while the deques are empty and the feed is open. Returns false once
    /// they are empty and the feed is closed.
    fn take(&self, own: usize, want: usize, chunk: &mut Vec<I>) -> bool {
        if self.try_take(own, want, chunk) {
            return true;
        }
        let mut feed = lock(&self.feed);
        loop {
            if self.try_take(own, want, chunk) {
                return true;
            }
            if feed.closed {
                return false;
            }
            feed = self.fed.wait(feed).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn try_take(&self, own: usize, want: usize, chunk: &mut Vec<I>) -> bool {
        // Own deque first (front: cache-friendly FIFO of the fed share)…
        {
            let mut deque = lock(&self.deques[own]);
            let n = want.min(deque.len());
            chunk.extend(deque.drain(..n));
        }
        // …then steal from the back of a sibling's deque, preferring the most
        // loaded one. Every deque is attempted: a single measured victim can
        // be drained by other thieves between the measurement and the steal.
        if chunk.is_empty() {
            let mut victims: Vec<usize> = (0..self.deques.len()).filter(|&w| w != own).collect();
            victims.sort_by_key(|&w| std::cmp::Reverse(lock(&self.deques[w]).len()));
            for w in victims {
                let mut deque = lock(&self.deques[w]);
                while chunk.len() < want {
                    match deque.pop_back() {
                        Some(item) => chunk.push(item),
                        None => break,
                    }
                }
                if !chunk.is_empty() {
                    break;
                }
            }
        }
        self.unstarted.fetch_sub(chunk.len(), Ordering::SeqCst);
        !chunk.is_empty()
    }
}

/// The consumer's side of a running pool: it feeds items in and reads
/// events out. See [`with_pool`].
pub struct Pool<'q, I, T> {
    queues: &'q Queues<I>,
    events: mpsc::Receiver<PoolEvent<I, T>>,
}

impl<I, T> Pool<'_, I, T> {
    /// Hands `items` to the job threads, round-robin over their deques.
    pub fn feed(&self, items: impl IntoIterator<Item = I>) {
        self.queues.push(items);
    }

    /// Ends the feed: job threads exit once the deques are empty, and
    /// [`Pool::next`] returns `None` after the last item has reported.
    pub fn close(&self) {
        self.queues.close();
    }

    /// Drops every fed item no job thread has taken yet; returns how many.
    pub fn drop_unstarted(&self) -> usize {
        self.queues.drop_unstarted()
    }

    /// Fed items no job thread has taken yet.
    pub fn unstarted(&self) -> usize {
        self.queues.unstarted.load(Ordering::SeqCst)
    }

    /// The next event, waiting for it. `None` once the feed is closed and
    /// every taken item has reported.
    pub fn next(&self) -> Option<PoolEvent<I, T>> {
        self.events.recv().ok()
    }
}

/// Ends the feed and drops what is left of it when the consumer returns or
/// unwinds, so the job threads finish the items they hold and exit.
struct Release<'q, I>(&'q Queues<I>);

impl<I> Drop for Release<'_, I> {
    fn drop(&mut self) {
        self.0.drop_unstarted();
        self.0.close();
    }
}

/// Runs a pool of `threads` job threads (at least one) for as long as
/// `consume` runs on the calling thread. `consume` feeds items through the
/// [`Pool`] whenever it has them and reads [`PoolEvent`]s as job threads
/// take and finish them; a job thread with nothing to do waits for the
/// next feed until the feed is closed. When `consume` returns, items no
/// job thread has taken are dropped, the job threads finish the one they
/// run, and their results are discarded.
///
/// With `chunking`, a job thread takes up to
/// `JobCostEstimate::chunk_size` items per deque visit (see
/// [`ChunkOptions`]); results still report one by one.
pub fn with_pool<I, T, F, R>(
    threads: usize,
    chunking: &ChunkOptions,
    job: F,
    consume: impl FnOnce(&Pool<'_, I, T>) -> R,
) -> R
where
    I: Send,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = threads.max(1);
    let queues = Queues::new(threads);
    let estimate = JobCostEstimate::new(chunking.initial_estimate_millis);
    std::thread::scope(|scope| {
        let (sender, events) = mpsc::channel();
        for own in 0..threads {
            let sender = sender.clone();
            let (queues, estimate, job) = (&queues, &estimate, &job);
            scope.spawn(move || job_thread(own, queues, chunking, estimate, job, sender));
        }
        drop(sender);
        let pool = Pool {
            queues: &queues,
            events,
        };
        let _release = Release(&queues);
        consume(&pool)
    })
}

/// The pool's one worker loop: take a chunk (waiting for the feed when
/// every deque is empty), run each item under `catch_unwind`, report it.
fn job_thread<I, T, F>(
    own: usize,
    queues: &Queues<I>,
    chunking: &ChunkOptions,
    estimate: &JobCostEstimate,
    job: &F,
    events: mpsc::Sender<PoolEvent<I, T>>,
) where
    F: Fn(&I) -> T,
{
    let mut chunk = Vec::new();
    while queues.take(own, estimate.chunk_size(chunking), &mut chunk) {
        if events.send(PoolEvent::Started).is_err() {
            return;
        }
        for item in chunk.drain(..) {
            let started = Instant::now();
            let outcome = match catch_unwind(AssertUnwindSafe(|| job(&item))) {
                Ok(value) => JobOutcome::Completed(value),
                Err(payload) => JobOutcome::Panicked(panic_message(payload)),
            };
            estimate.record(started.elapsed().as_secs_f64() * 1_000.0);
            if events.send(PoolEvent::Finished(item, outcome)).is_err() {
                // The consumer is gone; the rest of the chunk is abandoned.
                return;
            }
        }
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
        &ChunkOptions::unchunked(),
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
    let job = |&idx: &usize| worker(idx, &items[idx]);
    with_pool(threads.clamp(1, items.len()), chunking, job, |pool| {
        pool.feed(0..items.len());
        pool.close();
        while let Some(event) = pool.next() {
            if let PoolEvent::Finished(idx, outcome) = event {
                if !on_complete(idx, outcome) {
                    return;
                }
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

    /// Feeds `batches` one after another, pausing between them so the job
    /// threads go idle and must wait for the next feed, then closes; returns
    /// every finished item with its outcome.
    fn feed_in_batches<T: Send>(
        threads: usize,
        batches: &[std::ops::Range<usize>],
        job: impl Fn(&usize) -> T + Sync,
    ) -> Vec<(usize, JobOutcome<T>)> {
        with_pool(threads, &ChunkOptions::unchunked(), job, |pool| {
            let mut finished = Vec::new();
            for batch in batches {
                let expected = finished.len() + batch.len();
                pool.feed(batch.clone());
                while finished.len() < expected {
                    match pool.next() {
                        Some(PoolEvent::Finished(item, outcome)) => finished.push((item, outcome)),
                        Some(PoolEvent::Started) => {}
                        None => panic!("the pool ended before its feed was closed"),
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            pool.close();
            while let Some(event) = pool.next() {
                if let PoolEvent::Finished(item, outcome) = event {
                    finished.push((item, outcome));
                }
            }
            finished
        })
    }

    #[test]
    fn a_fed_pool_runs_every_fed_item_exactly_once() {
        let executed = AtomicUsize::new(0);
        let finished = feed_in_batches(3, &[0..7, 7..8, 8..40], |&v| {
            executed.fetch_add(1, Ordering::Relaxed);
            v * 2
        });
        let mut seen = [false; 40];
        for (item, outcome) in finished {
            assert!(!seen[item], "item {item} finished twice");
            seen[item] = true;
            assert_eq!(outcome, JobOutcome::Completed(item * 2));
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(executed.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn a_fed_pool_isolates_a_panic_and_keeps_taking_feeds() {
        let finished = feed_in_batches(2, &[0..4, 4..9], |&v| {
            if v == 2 {
                panic!("item {v} exploded");
            }
            v
        });
        assert_eq!(finished.len(), 9);
        for (item, outcome) in finished {
            match outcome {
                JobOutcome::Panicked(msg) => {
                    assert_eq!(item, 2);
                    assert!(msg.contains("exploded"), "{msg}");
                }
                JobOutcome::Completed(v) => assert_eq!(v, item),
            }
        }
    }

    #[test]
    fn a_fed_pool_never_uses_more_than_its_threads() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicIsize;
        let ids = Mutex::new(HashSet::new());
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let finished = feed_in_batches(3, &[0..10, 10..11, 11..30, 30..31], |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(finished.len(), 31);
        assert!(ids.lock().unwrap().len() <= 3, "{:?}", ids.lock().unwrap());
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn a_fed_pool_stops_promptly_when_the_consumer_returns() {
        let executed = AtomicUsize::new(0);
        let started = Instant::now();
        let delivered = with_pool(
            2,
            &ChunkOptions::unchunked(),
            |_: &usize| {
                executed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
            |pool| {
                pool.feed(0..500);
                let mut delivered = 0;
                while let Some(event) = pool.next() {
                    if let PoolEvent::Finished(..) = event {
                        delivered += 1;
                        if delivered == 5 {
                            break;
                        }
                    }
                }
                delivered
            },
        );
        assert_eq!(delivered, 5);
        // The feed was never closed: returning alone let the threads go,
        // each after the item it held (plus the few results that finished
        // while the consumer read the fifth).
        let total = executed.load(Ordering::Relaxed);
        assert!(total < 20, "ran {total} of 500 items");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn dropping_unstarted_items_leaves_the_running_ones() {
        let release = std::sync::atomic::AtomicBool::new(false);
        let finished = with_pool(
            1,
            &ChunkOptions::unchunked(),
            |&v: &usize| {
                while v == 0 && !release.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                v
            },
            |pool| {
                pool.feed(0..4);
                // Item 0 holds the only job thread; 1..4 wait unstarted.
                while pool.unstarted() > 3 {
                    assert!(matches!(pool.next(), Some(PoolEvent::Started)));
                }
                assert_eq!(pool.drop_unstarted(), 3);
                assert_eq!(pool.unstarted(), 0);
                release.store(true, Ordering::SeqCst);
                pool.feed([9]);
                pool.close();
                let mut finished = Vec::new();
                while let Some(event) = pool.next() {
                    if let PoolEvent::Finished(item, _) = event {
                        finished.push(item);
                    }
                }
                finished
            },
        );
        assert_eq!(finished, vec![0, 9]);
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
