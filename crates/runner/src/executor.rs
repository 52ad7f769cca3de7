//! A fixed-size thread pool for independent jobs, fed through one queue.
//!
//! The previous generation of this codebase spawned **one OS thread per
//! simulation** (`std::thread::scope` fan-outs in `surepath-core`), which
//! falls over on large campaigns: a 2,000-job grid would try to run 2,000
//! concurrent cycle-level simulations. This executor instead runs a bounded
//! worker pool:
//!
//! * fed items wait in **one queue, in feed order**; an idle job thread
//!   takes the front item, so items start in the order they were fed, and
//!   a slow job holds up only the thread that runs it;
//! * a job thread that finds the queue empty **waits for more work** until
//!   the feed is closed, so one pool can serve a consumer that learns of
//!   its jobs over time (a distributed worker fetching from its
//!   coordinator) as well as a fixed list ([`run_pool`] feeds every item
//!   and closes at once);
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
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

/// What a pool reports to its consumer (see [`with_pool`]).
#[derive(Debug)]
pub enum PoolEvent<I, T> {
    /// A job thread took an item off the queue, so [`Pool::unstarted`] fell.
    Started,
    /// One item ran; it comes back with its outcome.
    Finished(I, JobOutcome<T>),
}

/// Locks the pool's queue. No update of the queue can stop halfway, so a
/// poisoned lock still guards valid data; recovering it keeps [`Release`]
/// from panicking while a consumer unwinds.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fed items no job thread has taken yet, in feed order, and whether the
/// feed is closed.
struct Feed<I> {
    items: VecDeque<I>,
    closed: bool,
}

/// The pool's one queue. Job threads wait on `fed` while it is empty and
/// the feed is open; every feed and the close wake them.
struct Queue<I> {
    feed: Mutex<Feed<I>>,
    fed: Condvar,
}

impl<I> Queue<I> {
    fn new() -> Self {
        Queue {
            feed: Mutex::new(Feed {
                items: VecDeque::new(),
                closed: false,
            }),
            fed: Condvar::new(),
        }
    }

    fn push(&self, items: impl IntoIterator<Item = I>) {
        lock(&self.feed).items.extend(items);
        self.fed.notify_all();
    }

    fn close(&self) {
        lock(&self.feed).closed = true;
        self.fed.notify_all();
    }

    fn drop_unstarted(&self) -> usize {
        let mut feed = lock(&self.feed);
        let dropped = feed.items.len();
        feed.items.clear();
        dropped
    }

    fn len(&self) -> usize {
        lock(&self.feed).items.len()
    }

    /// The front item, waiting while the queue is empty and the feed is
    /// open; `None` once it is empty and the feed is closed.
    fn pop(&self) -> Option<I> {
        let mut feed = lock(&self.feed);
        loop {
            if let Some(item) = feed.items.pop_front() {
                return Some(item);
            }
            if feed.closed {
                return None;
            }
            feed = self.fed.wait(feed).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The consumer's side of a running pool: it feeds items in and reads
/// events out. See [`with_pool`].
pub struct Pool<'q, I, T> {
    queue: &'q Queue<I>,
    events: mpsc::Receiver<PoolEvent<I, T>>,
}

impl<I, T> Pool<'_, I, T> {
    /// Appends `items` to the back of the queue.
    pub fn feed(&self, items: impl IntoIterator<Item = I>) {
        self.queue.push(items);
    }

    /// Ends the feed: job threads exit once the queue is empty, and
    /// [`Pool::next`] returns `None` after the last item has reported.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Drops every fed item no job thread has taken yet; returns how many.
    pub fn drop_unstarted(&self) -> usize {
        self.queue.drop_unstarted()
    }

    /// Fed items no job thread has taken yet.
    pub fn unstarted(&self) -> usize {
        self.queue.len()
    }

    /// The next event, waiting for it. `None` once the feed is closed and
    /// every taken item has reported.
    pub fn next(&self) -> Option<PoolEvent<I, T>> {
        self.events.recv().ok()
    }
}

/// Ends the feed and drops what is left of it when the consumer returns or
/// unwinds, so the job threads finish the items they hold and exit.
struct Release<'q, I>(&'q Queue<I>);

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
pub fn with_pool<I, T, F, R>(
    threads: usize,
    job: F,
    consume: impl FnOnce(&Pool<'_, I, T>) -> R,
) -> R
where
    I: Send,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let queue = Queue::new();
    std::thread::scope(|scope| {
        let (sender, events) = mpsc::channel();
        for _ in 0..threads.max(1) {
            let sender = sender.clone();
            let (queue, job) = (&queue, &job);
            scope.spawn(move || job_thread(queue, job, sender));
        }
        drop(sender);
        let pool = Pool {
            queue: &queue,
            events,
        };
        let _release = Release(&queue);
        consume(&pool)
    })
}

/// The pool's one worker loop: take the front item (waiting for the feed
/// when the queue is empty), run it under `catch_unwind`, report it.
fn job_thread<I, T, F>(queue: &Queue<I>, job: &F, events: mpsc::Sender<PoolEvent<I, T>>)
where
    F: Fn(&I) -> T,
{
    while let Some(item) = queue.pop() {
        if events.send(PoolEvent::Started).is_err() {
            return;
        }
        let outcome = match catch_unwind(AssertUnwindSafe(|| job(&item))) {
            Ok(value) => JobOutcome::Completed(value),
            Err(payload) => JobOutcome::Panicked(panic_message(payload)),
        };
        if events.send(PoolEvent::Finished(item, outcome)).is_err() {
            return;
        }
    }
}

/// Runs `worker` over every item on a pool of `threads` workers, which
/// start the items in index order, invoking `on_complete(index, outcome)`
/// on the calling thread as jobs finish (in completion order, not index
/// order).
///
/// `on_complete` returns whether to keep going: returning `false` shuts the
/// pool down promptly — workers finish their in-flight job and stop pulling
/// new ones. Callers that cannot make use of further results (e.g. the
/// store's disk is full) use this to avoid burning hours of simulation that
/// could never be persisted.
pub fn run_pool<I, T, F, C>(items: &[I], threads: usize, worker: F, mut on_complete: C)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
    C: FnMut(usize, JobOutcome<T>) -> bool,
{
    if items.is_empty() {
        return;
    }
    let job = |&idx: &usize| worker(idx, &items[idx]);
    with_pool(threads.clamp(1, items.len()), job, |pool| {
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
    run_pool(
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
        run_pool(
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
    fn uneven_job_costs_drain_the_queue() {
        // Every fourth item is slow; the threads free meanwhile take the rest.
        let items: Vec<usize> = (0..32).collect();
        let slow_worker_jobs = AtomicUsize::new(0);
        let mut completed = 0;
        run_pool(
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
    fn jobs_start_in_feed_order_around_a_slow_one() {
        // One thread holds item 0 for 50 ms while the other works down the
        // queue; no item waits behind the slow one. Two threads that take
        // adjacent items may record their starts in either order.
        let items: Vec<usize> = (0..40).collect();
        let starts = Mutex::new(Vec::new());
        run_pool(
            &items,
            2,
            |_, &v| {
                starts.lock().unwrap().push(v);
                let millis = if v == 0 { 50 } else { 1 };
                std::thread::sleep(std::time::Duration::from_millis(millis));
            },
            |_, _| true,
        );
        let starts = starts.into_inner().unwrap();
        assert_eq!(starts.len(), items.len());
        for (position, &item) in starts.iter().enumerate() {
            assert!(position.abs_diff(item) <= 1, "start order {starts:?}");
        }
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let items: Vec<usize> = (0..20).collect();
        let mut ok = 0;
        let mut panicked = 0;
        run_pool(
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
        run_pool(
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

    /// Feeds `batches` one after another, pausing between them so the job
    /// threads go idle and must wait for the next feed, then closes; returns
    /// every finished item with its outcome.
    fn feed_in_batches<T: Send>(
        threads: usize,
        batches: &[std::ops::Range<usize>],
        job: impl Fn(&usize) -> T + Sync,
    ) -> Vec<(usize, JobOutcome<T>)> {
        with_pool(threads, job, |pool| {
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
        let started = std::time::Instant::now();
        let delivered = with_pool(
            2,
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
        run_pool(
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
