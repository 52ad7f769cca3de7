//! The coordinator's lease queue: pending jobs in grid order plus the
//! leases on the jobs handed out.
//!
//! Jobs are indices into the coordinator's pending list, queued in
//! grid-expansion order. A fetch takes jobs from the front and leases each
//! to the asking connection until a deadline. A lease released (its
//! connection died or its worker re-introduced itself) or expired puts its
//! job back at the front, so re-offered jobs run before the untouched tail.
//! This module knows nothing of job contents, sockets or stores.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// One outstanding lease: the connection holding the job, and when the job
/// is re-offered if no result came back.
struct Lease {
    conn: String,
    expires: Instant,
}

/// Pending jobs in grid order and the lease table over them. Every job is
/// in exactly one place: queued, leased, or (once complete) neither.
pub(crate) struct LeaseQueue {
    queue: VecDeque<usize>,
    leases: HashMap<usize, Lease>,
    lease_duration: Duration,
}

impl LeaseQueue {
    /// Queues jobs `0..jobs` in order; leases expire after `lease_duration`.
    pub(crate) fn new(jobs: usize, lease_duration: Duration) -> Self {
        LeaseQueue {
            queue: (0..jobs).collect(),
            leases: HashMap::new(),
            lease_duration,
        }
    }

    /// Jobs waiting to be handed out.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Jobs handed out and not yet complete.
    pub(crate) fn leased(&self) -> usize {
        self.leases.len()
    }

    /// Takes up to `max` jobs from the front, leasing each to `conn` until
    /// `now` plus the lease duration.
    pub(crate) fn take(&mut self, conn: &str, max: usize, now: Instant) -> Vec<usize> {
        let taken: Vec<usize> = self.queue.drain(..max.min(self.queue.len())).collect();
        let expires = now + self.lease_duration;
        for &job in &taken {
            let conn = conn.to_string();
            self.leases.insert(job, Lease { conn, expires });
        }
        taken
    }

    /// Re-queues every lease that expired by `now` and says how many.
    pub(crate) fn reap_expired(&mut self, now: Instant) -> usize {
        self.requeue(|lease| lease.expires <= now).len()
    }

    /// Re-queues every lease `conn` holds and returns the jobs, in order.
    pub(crate) fn release(&mut self, conn: &str) -> Vec<usize> {
        self.requeue(|lease| lease.conn == conn)
    }

    /// Moves the leased jobs `matches` picks back to the front of the
    /// queue, keeping them in grid order there.
    fn requeue(&mut self, matches: impl Fn(&Lease) -> bool) -> Vec<usize> {
        let mut jobs: Vec<usize> = self
            .leases
            .iter()
            .filter(|(_, lease)| matches(lease))
            .map(|(&job, _)| job)
            .collect();
        jobs.sort_unstable();
        for &job in jobs.iter().rev() {
            self.leases.remove(&job);
            self.queue.push_front(job);
        }
        jobs
    }

    /// Takes a job out of the queue for good: a result for it arrived. Its
    /// lease goes, whoever holds it; a job re-queued after its lease ran
    /// out leaves the queue.
    pub(crate) fn complete(&mut self, job: usize) {
        if self.leases.remove(&job).is_none() {
            if let Some(at) = self.queue.iter().position(|&queued| queued == job) {
                self.queue.remove(at);
            }
        }
    }

    /// Whether `conn` holds any lease.
    pub(crate) fn holds_lease(&self, conn: &str) -> bool {
        self.leases.values().any(|lease| lease.conn == conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disconnect_requeues_at_the_front() {
        let mut q = LeaseQueue::new(6, Duration::from_secs(30));
        let now = Instant::now();
        assert_eq!(q.take("a#1", 2, now), vec![0, 1]);
        assert_eq!(q.take("b#2", 2, now), vec![2, 3]);
        assert_eq!((q.queued(), q.leased()), (2, 4));
        assert!(q.holds_lease("a#1"));
        assert_eq!(q.release("b#2"), vec![2, 3]);
        assert_eq!(q.release("a#1"), vec![0, 1]);
        assert!(!q.holds_lease("a#1"));
        // Re-offered jobs come back in grid order, before the untouched tail.
        assert_eq!(q.take("c#3", 10, now), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.queued(), 0);
    }

    #[test]
    fn expired_leases_are_reaped_and_reoffered() {
        let mut q = LeaseQueue::new(3, Duration::from_millis(5));
        let start = Instant::now();
        assert_eq!(q.take("hung#1", 1, start), vec![0]);
        assert_eq!(q.reap_expired(start), 0, "not expired yet");
        let later = start + Duration::from_millis(10);
        assert_eq!(q.reap_expired(later), 1);
        assert_eq!(q.take("fast#2", 1, later), vec![0]);
        assert!(q.holds_lease("fast#2") && !q.holds_lease("hung#1"));
    }

    /// Completing a job the queue no longer holds (or never held) changes
    /// nothing.
    #[test]
    fn complete_on_an_unleased_job_is_a_no_op() {
        let mut q = LeaseQueue::new(2, Duration::from_secs(30));
        let now = Instant::now();
        assert_eq!(q.take("w#1", 1, now), vec![0]);
        q.complete(0);
        q.complete(0);
        q.complete(99);
        assert_eq!((q.queued(), q.leased()), (1, 0));
        assert_eq!(q.take("w#1", 2, now), vec![1]);
    }

    /// A late result for a job whose lease expired and went back to the
    /// queue takes it out: the job is not offered again.
    #[test]
    fn a_late_result_takes_a_requeued_job_out_of_the_queue() {
        let mut q = LeaseQueue::new(3, Duration::from_millis(5));
        let start = Instant::now();
        assert_eq!(q.take("slow#1", 2, start), vec![0, 1]);
        q.reap_expired(start + Duration::from_millis(10));
        q.complete(1);
        assert_eq!((q.queued(), q.leased()), (2, 0));
        assert_eq!(q.take("w#2", 3, start), vec![0, 2]);
    }
}
