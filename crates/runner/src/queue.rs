//! Shard queues with leases: the scheduling core of distributed campaigns.
//!
//! A distributed campaign partitions its pending jobs **statically by
//! fingerprint prefix** into a fixed number of shards — a machine-independent
//! assignment, so every coordinator (re)start deals the same jobs to the
//! same shard. On top of that static layout sits a **work-stealing shared
//! queue**: a worker drains the front of its own shard first and, when that
//! is empty, steals from the back of the most loaded other shard, so fast
//! workers finish slow workers' tails instead of idling.
//!
//! Handed-out jobs are covered by **leases**. A lease names the worker and
//! carries a deadline; when the worker disconnects (or the deadline passes
//! without a result) the job returns to its shard queue and is re-offered.
//! Jobs are identified by their index into the caller's pending list — this
//! module knows nothing about job contents, sockets or stores.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// One outstanding lease: a job handed to a worker, awaited back.
#[derive(Clone, Debug)]
pub struct Lease {
    /// The shard the job belongs to (where it returns on expiry).
    pub shard: usize,
    /// The worker holding the lease.
    pub worker: String,
    /// When the lease expires and the job is re-offered.
    pub expires: Instant,
}

/// The static shard of a fingerprint: its leading hex prefix reduced modulo
/// the shard count. Stable across processes and machines (fingerprints are
/// FNV-1a of canonical job JSON), so a restarted coordinator re-deals
/// identically.
pub fn shard_of_fingerprint(fingerprint: &str, shards: usize) -> usize {
    debug_assert!(shards > 0, "need at least one shard");
    let prefix = fingerprint.get(..8).unwrap_or(fingerprint);
    let value = u64::from_str_radix(prefix, 16).unwrap_or_else(|_| {
        // Non-hex identifiers (tests, custom kinds) still shard stably.
        crate::fingerprint::fnv1a64(fingerprint.as_bytes())
    });
    (value % shards as u64) as usize
}

/// Fixed shard queues plus the lease table over them.
#[derive(Debug)]
pub struct ShardQueues {
    queues: Vec<VecDeque<usize>>,
    leases: HashMap<usize, Lease>,
    lease_duration: Duration,
}

impl ShardQueues {
    /// Creates `shards` empty queues; leases expire after `lease_duration`.
    pub fn new(shards: usize, lease_duration: Duration) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardQueues {
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            leases: HashMap::new(),
            lease_duration,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a job index on a shard (back of the queue).
    pub fn push(&mut self, shard: usize, job: usize) {
        let shard = shard % self.queues.len();
        self.queues[shard].push_back(job);
    }

    /// Jobs currently queued (not leased).
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Jobs currently leased out.
    pub fn outstanding(&self) -> usize {
        self.leases.len()
    }

    /// Jobs still queued, per shard (for live metrics reporting).
    pub fn queued_per_shard(&self) -> Vec<usize> {
        self.queues.iter().map(VecDeque::len).collect()
    }

    /// Outstanding leases, per shard (for live metrics reporting).
    pub fn leased_per_shard(&self) -> Vec<usize> {
        let shards = self.queues.len();
        let mut counts = vec![0usize; shards];
        for lease in self.leases.values() {
            counts[lease.shard % shards] += 1;
        }
        counts
    }

    /// Whether no work remains: every queue empty and no lease outstanding.
    pub fn is_drained(&self) -> bool {
        self.queued() == 0 && self.leases.is_empty()
    }

    /// Returns expired leases to their shard queues (front, so re-offered
    /// jobs run before fresh tails) and reports how many were reclaimed.
    pub fn reap_expired(&mut self, now: Instant) -> usize {
        let expired: Vec<usize> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.expires <= now)
            .map(|(&job, _)| job)
            .collect();
        for job in &expired {
            let lease = self.leases.remove(job).expect("collected above");
            self.queues[lease.shard].push_front(*job);
        }
        expired.len()
    }

    /// Returns every lease held by `worker` to its shard queue and reports
    /// which job indices were released (sorted, so callers journal them
    /// deterministically). This is both the disconnect path — a dropped
    /// connection re-offers immediately, without waiting for the deadline —
    /// and the re-Hello reclaim path: a worker reconnecting after a network
    /// failure gets its dead connection's leases freed at handshake time.
    pub fn release_worker(&mut self, worker: &str) -> Vec<usize> {
        let mut held: Vec<usize> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.worker == worker)
            .map(|(&job, _)| job)
            .collect();
        held.sort_unstable();
        for job in &held {
            let lease = self.leases.remove(job).expect("collected above");
            self.queues[lease.shard].push_front(*job);
        }
        held
    }

    /// Pops up to `max` jobs for `worker` (preferring its own shard's front,
    /// then stealing from the back of the most loaded other shard), leasing
    /// each until `now + lease_duration`. Expired leases are reaped first.
    pub fn pop_for(&mut self, worker: &str, shard: usize, max: usize, now: Instant) -> Vec<usize> {
        self.reap_expired(now);
        let own = shard % self.queues.len();
        let mut taken = Vec::new();
        while taken.len() < max {
            let (from, job) = if let Some(job) = self.queues[own].pop_front() {
                (own, job)
            } else {
                // Steal from the back of the most loaded sibling.
                let victim = (0..self.queues.len())
                    .filter(|&s| s != own && !self.queues[s].is_empty())
                    .max_by_key(|&s| self.queues[s].len());
                match victim {
                    Some(s) => (s, self.queues[s].pop_back().expect("non-empty victim")),
                    None => break,
                }
            };
            self.leases.insert(
                job,
                Lease {
                    shard: from,
                    worker: worker.to_string(),
                    expires: now + self.lease_duration,
                },
            );
            taken.push(job);
        }
        taken
    }

    /// Completes a leased job (a result arrived). Returns the released
    /// lease, or `None` if the job was not leased — e.g. a slow worker
    /// delivering after its lease expired and the job was re-offered.
    pub fn complete(&mut self, job: usize) -> Option<Lease> {
        self.leases.remove(&job)
    }

    /// The lease on a job, if any.
    pub fn lease(&self, job: usize) -> Option<&Lease> {
        self.leases.get(&job)
    }

    /// Whether `worker` holds any lease.
    pub fn holds_lease(&self, worker: &str) -> bool {
        self.leases.values().any(|lease| lease.worker == worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(shards: usize) -> ShardQueues {
        ShardQueues::new(shards, Duration::from_secs(30))
    }

    #[test]
    fn fingerprint_sharding_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for fp in ["00ff00ff00ff00ff", "cbf29ce484222325", "not-hex-at-all"] {
                let s = shard_of_fingerprint(fp, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_fingerprint(fp, shards), "stable");
            }
        }
        // Distinct prefixes land on distinct shards often enough to spread
        // load: over 256 synthetic fingerprints and 8 shards, every shard
        // gets something.
        let mut seen = vec![false; 8];
        for i in 0..256u64 {
            let fp = format!("{:016x}", i.wrapping_mul(0x9e3779b97f4a7c15));
            seen[shard_of_fingerprint(&fp, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards populated: {seen:?}");
    }

    #[test]
    fn own_shard_first_then_steal_from_most_loaded() {
        let mut q = queues(3);
        q.push(0, 10);
        q.push(1, 20);
        q.push(1, 21);
        q.push(1, 22);
        q.push(2, 30);
        let now = Instant::now();
        // Own shard drains first...
        assert_eq!(q.pop_for("w0", 0, 1, now), vec![10]);
        // ...then the most loaded sibling's *back*.
        assert_eq!(q.pop_for("w0", 0, 1, now), vec![22]);
        assert_eq!(q.outstanding(), 2);
        assert_eq!(q.queued(), 3);
    }

    #[test]
    fn batch_pop_spans_shards_and_leases_everything() {
        let mut q = queues(2);
        for job in 0..5 {
            q.push(job % 2, job);
        }
        let taken = q.pop_for("w1", 1, 10, Instant::now());
        assert_eq!(taken.len(), 5);
        assert_eq!(q.queued(), 0);
        assert_eq!(q.outstanding(), 5);
        assert!(!q.is_drained(), "leased jobs still count as work");
        for job in taken {
            assert_eq!(q.lease(job).unwrap().worker, "w1");
            q.complete(job);
        }
        assert!(q.is_drained());
    }

    #[test]
    fn disconnect_requeues_at_the_front() {
        let mut q = queues(1);
        q.push(0, 1);
        q.push(0, 2);
        q.push(0, 3);
        let now = Instant::now();
        assert_eq!(q.pop_for("dead", 0, 2, now), vec![1, 2]);
        assert_eq!(q.release_worker("dead"), vec![1, 2]);
        assert_eq!(q.outstanding(), 0);
        // Re-offered jobs come back before the untouched tail.
        let next = q.pop_for("alive", 0, 3, now);
        assert_eq!(next.len(), 3);
        assert!(next.contains(&1) && next.contains(&2) && next.contains(&3));
        assert_ne!(next[0], 3, "requeued jobs precede the tail");
    }

    #[test]
    fn expired_leases_are_reaped_and_reoffered() {
        let mut q = ShardQueues::new(1, Duration::from_millis(5));
        q.push(0, 7);
        let start = Instant::now();
        assert_eq!(q.pop_for("hung", 0, 1, start), vec![7]);
        // Before the deadline nothing is re-offered.
        assert!(q.pop_for("fast", 0, 1, start).is_empty());
        // After the deadline the job moves to the requester.
        let later = start + Duration::from_millis(10);
        assert_eq!(q.pop_for("fast", 0, 1, later), vec![7]);
        assert_eq!(q.lease(7).unwrap().worker, "fast");
        // The hung worker's late completion is recognisable: the lease now
        // belongs to someone else only if it was re-leased; `complete`
        // releases whoever holds it.
        assert!(q.complete(7).is_some());
        assert!(q.is_drained());
    }

    #[test]
    fn complete_on_an_unleased_job_is_a_no_op() {
        let mut q = queues(2);
        assert!(q.complete(99).is_none());
        assert!(q.is_drained());
    }
}
