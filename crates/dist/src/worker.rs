//! The campaign worker: pull jobs over TCP, run them on one pool of the
//! runner's work-stealing executor, stream store-format results back.
//!
//! The worker is domain-agnostic like the runner: the caller supplies the
//! closure that turns one [`JobSpec`] into one JSON result (the CLI and the
//! figure binaries pass `surepath_core::run_job`). Panics inside the
//! closure are caught by the executor and delivered as `failed` records —
//! exactly the semantics of a local campaign — so one crashing simulation
//! costs one grid cell, not a worker.
//!
//! The pool's job threads live for the whole campaign, reconnects
//! included, and the worker keeps them fed: it holds at most `chunk` jobs
//! (fetched and not yet delivered), delivers each result as it finishes,
//! and asks for `chunk − held` more as soon as fewer than `threads` fetched
//! jobs wait unstarted, so a job thread that finishes one job finds the
//! next already queued. It keeps one request in flight (see
//! [`crate::protocol`]). After a `Wait` it asks again only once it has
//! delivered a result or holds no job: the coordinator answers a
//! connection that holds leases at once, and holds the `Fetch` of one that
//! holds none until it has work, the grid drains, or the backoff passes.
//!
//! The worker also survives the *coordinator* failing: any transport error
//! mid-campaign (EOF, reset, broken pipe) sends it into a reconnect loop
//! driven by [`ReconnectPolicy`] — capped exponential backoff with
//! deterministic jitter — where it re-dials, re-Hellos with its stable
//! `worker_id`, and resumes. The campaign fingerprint in `Welcome` gates
//! resumption: a restarted coordinator serving the *same* grid is resumed
//! silently, while a different campaign on the same address aborts loudly
//! instead of folding foreign results. A lost connection takes its work
//! with it: the worker drops that connection's unstarted jobs and the
//! results of its jobs still running, and the coordinator re-offers their
//! leases when the worker re-Hellos. Duplicate deliveries fold
//! idempotently, so the finished store stays byte-identical to a local run
//! across any kill/restart sequence.

use crate::protocol::{read_message, write_message, Reply, Request};
use crate::session::{is_transient, ReconnectPolicy};
use serde::Value;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use surepath_runner::{
    job_fingerprint, log_info, log_warn, with_pool, ChunkOptions, JobOutcome, JobSpec, Pool,
    PoolEvent, StoreRecord,
};

/// Tuning knobs of [`run_worker`].
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Executor threads on this worker (`None` = all cores).
    pub threads: Option<usize>,
    /// The most jobs the worker holds at once, fetched and not yet
    /// delivered (`None` = 2x the thread count, so every job thread has a
    /// next job queued while results stream out).
    pub chunk: Option<usize>,
    /// How long the first dial keeps retrying (the coordinator may still be
    /// binding, or a `--spawn-local` parent may win the race). Later dials
    /// go once each, after their [`ReconnectPolicy`] backoff.
    pub connect_retry: Duration,
    /// The re-dial plan after a transport failure mid-campaign.
    pub reconnect: ReconnectPolicy,
    /// Suppress progress output (reconnects and the final tally).
    pub quiet: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            threads: None,
            chunk: None,
            connect_retry: Duration::from_secs(10),
            reconnect: ReconnectPolicy::default(),
            quiet: true,
        }
    }
}

/// What a worker did before the coordinator drained it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Jobs executed on this worker (re-runs after a reconnect count again:
    /// this measures work done here, not distinct grid cells).
    pub executed: usize,
    /// Of those, how many failed (error or panic).
    pub failed: usize,
    /// Successful reconnects after a transport failure mid-campaign.
    pub reconnects: usize,
}

/// Connects to `addr`, retrying **transient** failures (refused, reset,
/// unreachable, timed out — see [`is_transient`]) until `retry_for`
/// elapses; anything else fails fast, because retrying cannot cure a bad
/// address or a permission error. The deadline is exact: the last attempt
/// fires at or before it, never after (the pre-attempt sleep is clamped to
/// the time remaining).
fn connect_with_retry(addr: &str, retry_for: Duration) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + retry_for;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if !is_transient(e.kind()) => {
                return Err(std::io::Error::new(
                    e.kind(),
                    format!("cannot reach coordinator at {addr}: {e}"),
                ))
            }
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("cannot reach coordinator at {addr}: {e}"),
                    ));
                }
                std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
            }
        }
    }
}

/// Builds the store-format record for one executed job — the same record a
/// local campaign would append, so the coordinator's store stays
/// byte-identical to a local run's.
fn record_for(job: &JobSpec, outcome: JobOutcome<Result<Value, String>>) -> StoreRecord {
    let fp = job_fingerprint(job);
    match outcome {
        JobOutcome::Completed(Ok(result)) => StoreRecord {
            fp,
            status: "ok".to_string(),
            job: job.clone(),
            result: Some(result),
            error: None,
        },
        JobOutcome::Completed(Err(error)) => StoreRecord {
            fp,
            status: "failed".to_string(),
            job: job.clone(),
            result: None,
            error: Some(error),
        },
        JobOutcome::Panicked(message) => StoreRecord {
            fp,
            status: "failed".to_string(),
            job: job.clone(),
            result: None,
            error: Some(format!("panic: {message}")),
        },
    }
}

/// Per-campaign state that survives reconnects.
struct Session {
    executed: usize,
    failed: usize,
    reconnects: usize,
    /// Connections dialed so far. Every fed job carries the number of the
    /// connection that fetched it, so a result of a lost connection is
    /// recognised and dropped.
    connection: usize,
    /// The session nonce from the last `Welcome` (sent back in the next
    /// `Hello` so both sides can log resume-vs-restart).
    nonce: Option<String>,
    /// The campaign fingerprint from the first `Welcome`. Every later
    /// `Welcome` must match — a mismatch means the address now serves a
    /// different campaign and the worker must abort, not resume.
    fingerprint: Option<String>,
}

/// The worker's job pool: each job with the connection that fetched it,
/// each result with the job's wall-clock milliseconds.
type JobPool<'q> = Pool<'q, (usize, JobSpec), (Result<Value, String>, u64)>;

/// Runs a worker against the coordinator at `addr` until the campaign is
/// drained. `worker_id` names this worker in leases, manifests and timing
/// records — it must be unique among concurrent workers (host + pid is the
/// CLI's choice). Jobs run on one pool of the runner's work-stealing
/// executor with `opts.threads` job threads, kept for the whole campaign;
/// results stream back one by one as they finish. Transport failures
/// trigger the reconnect loop described in the module docs; only a
/// non-transient error, a campaign-fingerprint mismatch, or an exhausted
/// [`ReconnectPolicy`] make the worker give up.
pub fn run_worker<F>(
    addr: &str,
    worker_id: &str,
    opts: &WorkerOptions,
    job_fn: F,
) -> std::io::Result<WorkerOutcome>
where
    F: Fn(&JobSpec) -> Result<Value, String> + Sync,
{
    let threads = opts
        .threads
        .unwrap_or_else(surepath_runner::default_threads)
        .max(1);
    let chunk = opts.chunk.unwrap_or(threads.saturating_mul(2)).max(1);
    let run = |(_, job): &(usize, JobSpec)| {
        let started = Instant::now();
        let result = job_fn(job);
        (result, started.elapsed().as_millis() as u64)
    };
    with_pool(threads, &ChunkOptions::unchunked(), run, |pool| {
        work_until_drained(addr, worker_id, opts, pool, threads, chunk)
    })
}

/// [`run_worker`]'s reconnect loop over its pool: one [`run_session`] per
/// connection until the campaign drains or the worker gives up.
fn work_until_drained(
    addr: &str,
    worker_id: &str,
    opts: &WorkerOptions,
    pool: &JobPool<'_>,
    threads: usize,
    chunk: usize,
) -> std::io::Result<WorkerOutcome> {
    let mut session = Session {
        executed: 0,
        failed: 0,
        reconnects: 0,
        connection: 0,
        nonce: None,
        fingerprint: None,
    };
    let mut attempt = 0usize;
    loop {
        let welcomed_before = session.nonce.is_some();
        let reconnects_before = session.reconnects;
        match run_session(addr, worker_id, opts, pool, threads, chunk, &mut session) {
            Ok(()) => {
                if !opts.quiet {
                    log_info!(
                        &format!("worker {worker_id}"),
                        "drained: {} executed, {} failed",
                        session.executed,
                        session.failed
                    );
                }
                return Ok(WorkerOutcome {
                    executed: session.executed,
                    failed: session.failed,
                    reconnects: session.reconnects,
                });
            }
            Err(e) if is_transient(e.kind()) => {
                // A session that got as far as a Welcome proves the link
                // works: reset the counter so only *consecutive* failed
                // attempts count against the retry budget.
                let welcomed = session.reconnects > reconnects_before
                    || (!welcomed_before && session.nonce.is_some());
                if welcomed {
                    attempt = 0;
                }
                attempt += 1;
                if attempt > opts.reconnect.retries {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!(
                            "giving up after {} reconnect attempt(s): {e}",
                            opts.reconnect.retries
                        ),
                    ));
                }
                let delay = opts.reconnect.delay(attempt, worker_id);
                if !opts.quiet {
                    log_warn!(
                        &format!("worker {worker_id}"),
                        "connection lost ({e}); reconnect attempt {attempt}/{} in {delay:?}",
                        opts.reconnect.retries
                    );
                }
                std::thread::sleep(delay);
            }
            Err(e) => return Err(e),
        }
    }
}

/// One connection's worth of campaign work: dial, handshake, then stream
/// jobs until `Drained`. `Ok(())` means the campaign drained; any transport
/// error bubbles up for [`run_worker`]'s reconnect loop, after the
/// connection's unstarted jobs are dropped.
#[allow(clippy::too_many_arguments)]
fn run_session(
    addr: &str,
    worker_id: &str,
    opts: &WorkerOptions,
    pool: &JobPool<'_>,
    threads: usize,
    chunk: usize,
    session: &mut Session,
) -> std::io::Result<()> {
    let retry_for = if session.connection == 0 {
        opts.connect_retry
    } else {
        Duration::ZERO
    };
    session.connection += 1;
    let stream = connect_with_retry(addr, retry_for)?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;

    let reconnecting = session.nonce.is_some();
    write_message(
        &mut writer,
        &Request::Hello {
            worker: worker_id.to_string(),
            session: session.nonce.clone(),
        },
    )?;
    let welcome: Reply = read_message(&mut reader)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "coordinator hung up during handshake",
        )
    })?;
    match welcome {
        Reply::Welcome {
            campaign,
            session: nonce,
            fingerprint,
            ..
        } => {
            // The fingerprint is the resume gate: same grid resumes, a
            // different grid on the same address is a fatal mix-up.
            if let Some(expected) = &session.fingerprint {
                if expected != &fingerprint {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "coordinator at {addr} now serves a different campaign \
                             (fingerprint {fingerprint}, expected {expected}); aborting"
                        ),
                    ));
                }
            }
            session.fingerprint = Some(fingerprint);
            if reconnecting {
                session.reconnects += 1;
                if !opts.quiet {
                    log_info!(
                        &format!("worker {worker_id}"),
                        "reconnected, resuming `{campaign}`"
                    );
                }
            }
            session.nonce = Some(nonce);
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected Welcome, got {other:?}"),
            ))
        }
    }

    let streamed = stream_jobs(&mut reader, &mut writer, pool, threads, chunk, session);
    if streamed.is_err() {
        // The coordinator re-offers this connection's leases when the worker
        // re-Hellos; its jobs still queued here would run for nothing.
        pool.drop_unstarted();
    }
    streamed
}

/// Fetches, runs and delivers jobs over one connection until `Drained`,
/// one request in flight.
fn stream_jobs(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    pool: &JobPool<'_>,
    threads: usize,
    chunk: usize,
    session: &mut Session,
) -> std::io::Result<()> {
    let connection = session.connection;
    // Jobs fetched on this connection and not yet delivered.
    let mut held = 0usize;
    // A `Wait` answered a fetch while jobs were held: ask again only after
    // the next delivery.
    let mut waiting = false;
    loop {
        if !waiting && held < chunk && pool.unstarted() < threads {
            match exchange(reader, writer, &Request::Fetch { max: chunk - held })? {
                Reply::Assign { jobs } => {
                    held += jobs.len();
                    pool.feed(jobs.into_iter().map(|job| (connection, job)));
                }
                Reply::Wait { millis } if held == 0 => {
                    std::thread::sleep(Duration::from_millis(millis.min(1_000)));
                }
                Reply::Wait { .. } => waiting = true,
                Reply::Drained => return Ok(()),
                other => return Err(unexpected(other)),
            }
            continue;
        }
        let ((fetched_on, job), (outcome, millis)) = match pool.next() {
            Some(PoolEvent::Finished(item, JobOutcome::Completed((result, millis)))) => {
                (item, (JobOutcome::Completed(result), millis))
            }
            Some(PoolEvent::Finished(item, JobOutcome::Panicked(message))) => {
                (item, (JobOutcome::Panicked(message), 0))
            }
            // A job thread took a job: the refill condition may hold now.
            Some(PoolEvent::Started) => continue,
            None => {
                return Err(std::io::Error::other("the job pool stopped"));
            }
        };
        session.executed += 1;
        if !matches!(outcome, JobOutcome::Completed(Ok(_))) {
            session.failed += 1;
        }
        if fetched_on != connection {
            // Fetched on a lost connection: its lease went back to the
            // coordinator at the re-Hello.
            continue;
        }
        held -= 1;
        waiting = false;
        let record = record_for(&job, outcome);
        match exchange(reader, writer, &Request::Deliver { record, millis })? {
            Reply::Drained => return Ok(()),
            Reply::Wait { .. } => {}
            other => return Err(unexpected(other)),
        }
    }
}

/// Writes one request and reads its reply. EOF instead of a reply means the
/// coordinator (or the network) died: a transport error, so the reconnect
/// loop re-dials, and a half-finished campaign never looks drained. A
/// `ProtocolError` reply is an `InvalidData` error.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &Request,
) -> std::io::Result<Reply> {
    write_message(writer, request)?;
    match read_message(reader)? {
        Some(Reply::ProtocolError { message }) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            message,
        )),
        Some(reply) => Ok(reply),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "coordinator hung up before draining the campaign",
        )),
    }
}

fn unexpected(reply: Reply) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected reply {reply:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_with_retry_respects_the_deadline_exactly() {
        // Port 1 on loopback refuses immediately (transient), so the retry
        // loop spins until the deadline — which it must not overshoot by
        // more than one 50ms sleep plus scheduling noise.
        let started = Instant::now();
        let err = connect_with_retry("127.0.0.1:1", Duration::from_millis(200)).unwrap_err();
        let elapsed = started.elapsed();
        assert!(is_transient(err.kind()), "{err}");
        assert!(elapsed >= Duration::from_millis(200), "{elapsed:?}");
        assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
    }

    #[test]
    fn connect_with_retry_with_zero_window_tries_exactly_once() {
        let started = Instant::now();
        let err = connect_with_retry("127.0.0.1:1", Duration::ZERO).unwrap_err();
        assert!(is_transient(err.kind()), "{err}");
        assert!(started.elapsed() < Duration::from_millis(500));
    }
}
