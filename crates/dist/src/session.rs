//! Session identity and reconnect policy for distributed campaigns.
//!
//! A long-running campaign sees coordinators restart and links flap. Two
//! pieces of identity make that survivable without ever corrupting a store:
//!
//! * the **campaign fingerprint** — a stable hash of the campaign name and
//!   every job fingerprint in its expanded grid. It is the same for every
//!   (re)start of the same campaign and different for any other grid, so a
//!   reconnecting worker can tell "same coordinator restarted, resume" from
//!   "this port now serves a different campaign — abort loudly";
//! * the **session nonce** — fresh per coordinator process. It does not
//!   gate anything (the fingerprint does), but lets both sides log whether
//!   a reconnect landed on the same process or a restarted one.
//!
//! [`ReconnectPolicy`] is the worker's dial plan after a transport failure:
//! capped exponential backoff with **deterministic jitter** (ChaCha8 keyed
//! by worker id and attempt), so a fleet of workers losing the same
//! coordinator does not stampede the listener in lockstep, yet every test
//! run sleeps the exact same schedule.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;
use surepath_runner::fingerprint::fnv1a64;

/// The stable identity of a campaign grid: FNV-1a over the campaign name
/// and the *sorted* set of its job fingerprints. Sorting makes the value a
/// function of the grid as a set — the same jobs always fingerprint
/// identically, however the spec happened to enumerate them. Takes the
/// fingerprints ([`surepath_runner::job_fingerprint`]) because the
/// coordinator computes each job's once.
pub fn campaign_fingerprint(campaign: &str, fingerprints: &[String]) -> String {
    let mut fps: Vec<&str> = fingerprints.iter().map(String::as_str).collect();
    fps.sort_unstable();
    let mut material = String::with_capacity(campaign.len() + 1 + fps.len() * 17);
    material.push_str(campaign);
    for fp in fps {
        material.push('\n');
        material.push_str(fp);
    }
    format!("{:016x}", fnv1a64(material.as_bytes()))
}

/// A nonce naming one coordinator process's serving session: pid plus a
/// wall-clock stamp. Unique enough to distinguish "same process" from
/// "restarted process" — the only question it answers.
pub fn session_nonce() -> String {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    format!("{}-{stamp:x}", std::process::id())
}

/// Whether an I/O error is worth retrying: the peer (or the network) was
/// unreachable or dropped us, conditions that a coordinator restart cures.
/// Anything else — invalid address, permission denied, protocol violations
/// surfaced as `InvalidData` — fails fast: retrying cannot fix it.
pub fn is_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::Interrupted
    )
}

/// The worker's re-dial plan after a transport failure mid-campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Consecutive failed reconnect attempts before giving up. The counter
    /// resets on every successful `Welcome`, so a link that flaps once a
    /// minute never exhausts it — only a coordinator that stays gone does.
    pub retries: usize,
    /// Backoff before the first reconnect attempt; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling for the exponential growth.
    pub max_backoff: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        // 100ms, 200, 400, ... capped at 2s: eight attempts span ~9s of
        // coordinator downtime, comfortably covering a restart.
        ReconnectPolicy {
            retries: 8,
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl ReconnectPolicy {
    /// A policy with `retries` attempts and `backoff_ms` as the initial
    /// backoff, keeping the default ceiling (or the initial backoff, if
    /// that is larger — the schedule never shrinks mid-flight).
    pub fn with(retries: usize, backoff_ms: u64) -> Self {
        let initial = Duration::from_millis(backoff_ms);
        let default = ReconnectPolicy::default();
        ReconnectPolicy {
            retries,
            initial_backoff: initial,
            max_backoff: default.max_backoff.max(initial),
        }
    }

    /// The longest delay [`ReconnectPolicy::delay`] returns: the backoff
    /// ceiling plus its largest jitter, half the ceiling. A worker in its
    /// reconnect loop dials at least once in any window this long.
    pub fn longest_delay(&self) -> Duration {
        self.max_backoff + self.max_backoff / 2
    }

    /// The delay before reconnect `attempt` (1-based): exponential from
    /// `initial_backoff`, capped at `max_backoff`, plus a deterministic
    /// jitter in `[0, step/2]` drawn from ChaCha8 keyed by the worker id
    /// and the attempt number. Two workers never share a schedule; one
    /// worker's schedule never changes between runs.
    pub fn delay(&self, attempt: usize, worker_id: &str) -> Duration {
        let exponent = attempt.saturating_sub(1).min(20) as u32;
        let step = self
            .initial_backoff
            .saturating_mul(2u32.saturating_pow(exponent))
            .min(self.max_backoff);
        let half = step.as_millis() as u64 / 2;
        if half == 0 {
            return step;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(
            fnv1a64(worker_id.as_bytes()) ^ (attempt as u64).rotate_left(32),
        );
        step + Duration::from_millis(rng.next_u64() % (half + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surepath_runner::{job_fingerprint, JobSpec};

    fn job(seed: u64) -> JobSpec {
        JobSpec {
            campaign: "session".into(),
            sides: vec![4, 4],
            mechanism: Some("polsp".into()),
            load: Some(0.5),
            seed,
            ..JobSpec::default()
        }
    }

    #[test]
    fn campaign_fingerprint_is_order_blind_and_content_sensitive() {
        let jobs: Vec<String> = [job(1), job(2), job(3)]
            .iter()
            .map(job_fingerprint)
            .collect();
        let reversed: Vec<String> = jobs.iter().rev().cloned().collect();
        let fp = campaign_fingerprint("c", &jobs);
        assert_eq!(fp, campaign_fingerprint("c", &reversed), "order-blind");
        assert_ne!(fp, campaign_fingerprint("d", &jobs), "name-sensitive");
        assert_ne!(fp, campaign_fingerprint("c", &jobs[..2]), "grid-sensitive");
        assert_eq!(fp.len(), 16, "fixed-width hex");
    }

    #[test]
    fn session_nonces_differ_and_name_the_process() {
        let a = session_nonce();
        let b = session_nonce();
        assert_ne!(a, b, "nanosecond stamp separates calls");
        assert!(a.starts_with(&format!("{}-", std::process::id())));
    }

    #[test]
    fn transient_kinds_are_exactly_the_network_failures() {
        assert!(is_transient(std::io::ErrorKind::ConnectionRefused));
        assert!(is_transient(std::io::ErrorKind::ConnectionReset));
        assert!(is_transient(std::io::ErrorKind::UnexpectedEof));
        assert!(is_transient(std::io::ErrorKind::TimedOut));
        assert!(!is_transient(std::io::ErrorKind::InvalidData));
        assert!(!is_transient(std::io::ErrorKind::PermissionDenied));
        assert!(!is_transient(std::io::ErrorKind::InvalidInput));
        assert!(!is_transient(std::io::ErrorKind::NotFound));
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = ReconnectPolicy::default();
        let d1 = policy.delay(1, "w");
        let d4 = policy.delay(4, "w");
        // Exponential growth with jitter in [step, 1.5*step].
        assert!(
            d1 >= Duration::from_millis(100) && d1 <= Duration::from_millis(150),
            "{d1:?}"
        );
        assert!(
            d4 >= Duration::from_millis(800) && d4 <= Duration::from_millis(1200),
            "{d4:?}"
        );
        // The cap holds whatever the attempt number.
        let late = policy.delay(30, "w");
        assert!(late <= Duration::from_secs(3), "{late:?}");
        assert_eq!(policy.longest_delay(), Duration::from_secs(3));
        for attempt in 1..40 {
            for worker in ["w", "other-worker", "host:1234"] {
                assert!(policy.delay(attempt, worker) <= policy.longest_delay());
            }
        }
        // Deterministic per (worker, attempt); distinct across workers.
        assert_eq!(policy.delay(2, "w"), policy.delay(2, "w"));
        assert_ne!(policy.delay(2, "w"), policy.delay(2, "other-worker"));
    }

    #[test]
    fn with_raises_the_cap_when_the_initial_backoff_exceeds_it() {
        let policy = ReconnectPolicy::with(3, 5_000);
        assert_eq!(policy.retries, 3);
        assert_eq!(policy.initial_backoff, Duration::from_secs(5));
        assert_eq!(policy.max_backoff, Duration::from_secs(5));
        assert_eq!(policy.longest_delay(), Duration::from_millis(7_500));
    }
}
