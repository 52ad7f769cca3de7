//! The campaign coordinator: expand once, serve one lease queue over TCP,
//! fold streamed results into one byte-deterministic store.
//!
//! The coordinator owns the three artefacts of a distributed run:
//!
//! * the **result store** (`ResultStore`) — records append in arrival order
//!   while workers stream, then `finalize(&jobs)` rewrites the canonical
//!   grid order, exactly like a local `run_campaign`. Same records, same
//!   finalize: the finished store is **byte-identical to a local run**,
//!   whatever the worker count, join order, or mid-run losses were;
//! * the **assignment manifest** (`<store>.manifest.jsonl`) — every lease and
//!   every delivery is journalled, so `--report` can tell "missing" from
//!   "assigned elsewhere / in-flight" and a coordinator restarted after a
//!   crash re-offers only unfinished fingerprints;
//! * the **timings sidecar** (`<store>.timings.jsonl`) — workers report
//!   per-job wall-clock with each delivery; it never touches the store.
//!
//! Scheduling is one queue of pending jobs in grid order: a `Fetch` takes
//! the next jobs from its front. A worker that disconnects (or sits on a
//! lease past its deadline) has its jobs put back at the front and
//! re-offered; duplicate deliveries — a slow worker finishing after its
//! lease was re-offered and re-run — are folded idempotently (results are
//! deterministic functions of the job, so both copies carry the same bytes;
//! `ok` is never downgraded). A coordinator restarted after a crash keeps
//! accepting for a grace period after the grid drains, so the workers of
//! its predecessor, which are still in their reconnect loops, hear
//! `Drained` instead of a refused connection. A manifest left beside a
//! newer store (one that lacks a result the manifest marks delivered) is
//! replaced instead, with no grace.
//!
//! A `Fetch` that finds nothing to hand out is answered at once when its
//! connection still holds leases (that worker asks again after its next
//! delivery). From a connection that holds none, it is held for up to
//! [`WAIT_BACKOFF_MILLIS`], until a lease reclaim gives it work or the
//! grid drains, so an idle worker hears `Drained` the moment the last
//! result lands instead of after a backoff.
//!
//! The acceptor and the live-metrics endpoint block in `accept`. When the
//! serve ends, it sets a stop flag and dials each listener once, so the
//! thread returns at once instead of polling.

use crate::protocol::{write_message, Reply, Request, DRAIN_LINGER_MILLIS, WAIT_BACKOFF_MILLIS};
use crate::queue::LeaseQueue;
use crate::session::{campaign_fingerprint, session_nonce, ReconnectPolicy};
use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use surepath_runner::manifest::MANIFEST_DONE;
use surepath_runner::{
    job_fingerprint, log_info, log_warn, manifest_path, timings_path, AssignmentManifest, JobSpec,
    ResultStore, StoreRecord, TimingRecord, TimingsLog,
};

/// One pending job with the identity the coordinator computed for it once,
/// at serve start: its fingerprint.
struct PendingJob {
    job: JobSpec,
    fp: String,
}

/// Tuning knobs of [`serve`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Lease duration: a job not delivered within this window is re-offered.
    pub lease: Duration,
    /// Max jobs handed out per `Fetch`.
    pub chunk: usize,
    /// Suppress progress output on stderr.
    pub quiet: bool,
    /// Stop serving after this many deliveries even if the grid is not
    /// drained (`None` = serve to completion). The partial store is
    /// finalized cleanly and a later `serve` on the same path resumes the
    /// rest — this is the fault-injection hook the crash/restart tests use
    /// to emulate a coordinator dying mid-campaign inside one process.
    pub stop_after_deliveries: Option<usize>,
    /// Bind address of the read-only live-metrics endpoint (`None` = off).
    /// Every accepted connection receives one Prometheus-style text snapshot
    /// of fleet state over plain HTTP and is closed — no request parsing, no
    /// auth, no mutation path.
    pub metrics_addr: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            lease: Duration::from_secs(60),
            chunk: 8,
            quiet: false,
            stop_after_deliveries: None,
            metrics_addr: None,
        }
    }
}

/// What a finished distributed campaign looked like (the coordinator's
/// analogue of `CampaignOutcome`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Total jobs in the expanded grid.
    pub total: usize,
    /// Jobs skipped because the store already had them.
    pub skipped: usize,
    /// Jobs executed by workers this run.
    pub executed: usize,
    /// Of the executed jobs, how many failed (error or panic on the worker).
    pub failed: usize,
    /// Distinct workers that introduced themselves.
    pub workers: usize,
    /// Jobs that were re-offered after a lost worker or an expired lease.
    pub reoffered: usize,
    /// Connections beyond each worker's first — the auto-reconnects this
    /// coordinator served (session resumes after network failures).
    pub reconnects: usize,
    /// Whether `stop_after_deliveries` cut the run short (the store is
    /// partial but finalized; re-serving resumes).
    pub stopped: bool,
}

impl ServeOutcome {
    /// Whether every grid cell now has a successful result.
    pub fn is_complete(&self) -> bool {
        self.skipped + self.executed - self.failed == self.total
    }
}

/// Everything the per-connection handler threads share.
struct Shared {
    /// The pending jobs (not complete in the store at serve start).
    pending: Vec<PendingJob>,
    /// Fingerprint → index into `pending`.
    by_fp: HashMap<String, usize>,
    /// The lease queue over `pending` indices. Leases are keyed by
    /// *connection name* (`worker#N`), not worker id: a reconnecting
    /// worker's new leases must never be released by its dead connection's
    /// late cleanup.
    queue: LeaseQueue,
    store: ResultStore,
    manifest: AssignmentManifest,
    timings: TimingsLog,
    /// Indices of `pending` jobs whose result has been folded in.
    delivered: Vec<bool>,
    delivered_count: usize,
    failed: usize,
    /// Every worker id that ever introduced itself.
    worker_ids: HashSet<String>,
    /// Worker id → the connection name currently speaking for it.
    live_conns: HashMap<String, String>,
    /// Monotonic connection counter (uniquifies lease names).
    connections: usize,
    reoffered: usize,
    reconnects: usize,
    /// Mirror of `ServeOptions::stop_after_deliveries`.
    stop_budget: Option<usize>,
    /// `stop_after_deliveries` tripped: stop serving, finalize partial.
    stopped: bool,
    quiet: bool,
}

impl Shared {
    fn is_done(&self) -> bool {
        self.delivered_count == self.pending.len()
    }

    /// Whether handlers should wind down: grid drained or stop tripped.
    fn is_over(&self) -> bool {
        self.is_done() || self.stopped
    }

    /// Puts every lease `conn` holds back at the front of the queue,
    /// journalling each reclaim, and forgets the connection if it still
    /// speaks for `worker`. Safe against reconnect races: lease names are
    /// unique per connection, so a dead connection can only ever release
    /// its own, and its late cleanup after a re-Hello leaves the new
    /// connection registered.
    fn reclaim_connection(&mut self, worker: &str, conn: &str) -> usize {
        let released = self.queue.release(conn);
        for &idx in &released {
            let _ = self
                .manifest
                .record_reclaimed(&self.pending[idx].fp, worker);
        }
        self.reoffered += released.len();
        if self.live_conns.get(worker).map(String::as_str) == Some(conn) {
            self.live_conns.remove(worker);
        }
        released.len()
    }
}

/// The shared state and the signal that it changed in a way a held `Fetch`
/// or the serving thread waits for: leases came back to the queue, the
/// grid drained, or the stop hook tripped.
struct State {
    shared: Mutex<Shared>,
    changed: Condvar,
}

impl State {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("coordinator state")
    }

    /// [`Shared::reclaim_connection`], waking held fetches when leases came
    /// back.
    fn reclaim(&self, worker: &str, conn: &str) -> usize {
        let released = self.lock().reclaim_connection(worker, conn);
        if released > 0 {
            self.changed.notify_all();
        }
        released
    }
}

/// Renders one Prometheus-style text snapshot of fleet state: overall job
/// accounting, queue depth and outstanding leases, worker
/// liveness, reconnects and lease reclaims. Read-only — the metrics thread
/// takes the state lock for the duration of this render and nothing else.
fn render_metrics(shared: &Shared) -> String {
    let mut out = String::new();
    let total = shared.pending.len();
    out.push_str("# TYPE surepath_jobs_total gauge\n");
    out.push_str(&format!("surepath_jobs_total {total}\n"));
    out.push_str("# TYPE surepath_jobs_delivered gauge\n");
    out.push_str(&format!(
        "surepath_jobs_delivered {}\n",
        shared.delivered_count
    ));
    out.push_str("# TYPE surepath_jobs_failed gauge\n");
    out.push_str(&format!("surepath_jobs_failed {}\n", shared.failed));
    out.push_str("# TYPE surepath_jobs_pending gauge\n");
    out.push_str(&format!(
        "surepath_jobs_pending {}\n",
        shared.queue.queued()
    ));
    out.push_str("# TYPE surepath_jobs_leased gauge\n");
    out.push_str(&format!("surepath_jobs_leased {}\n", shared.queue.leased()));
    out.push_str("# TYPE surepath_workers_live gauge\n");
    out.push_str(&format!(
        "surepath_workers_live {}\n",
        shared.live_conns.len()
    ));
    out.push_str("# TYPE surepath_workers_total gauge\n");
    out.push_str(&format!(
        "surepath_workers_total {}\n",
        shared.worker_ids.len()
    ));
    out.push_str("# TYPE surepath_reconnects_total counter\n");
    out.push_str(&format!(
        "surepath_reconnects_total {}\n",
        shared.reconnects
    ));
    out.push_str("# TYPE surepath_lease_reclaims_total counter\n");
    out.push_str(&format!(
        "surepath_lease_reclaims_total {}\n",
        shared.reoffered
    ));
    out
}

/// Answers one metrics connection: best-effort drain of whatever request the
/// client sent (so well-behaved HTTP clients are not reset mid-send), then
/// one HTTP/1.0 response carrying `body`, then close. Errors are swallowed —
/// a misbehaving scraper must never disturb the campaign.
fn answer_metrics_request(mut stream: TcpStream, body: &str) {
    use std::io::{Read as _, Write as _};
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut scratch = [0u8; 1024];
    let _ = stream.read(&mut scratch);
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Wakes a thread blocked in `accept` on a listener bound to `addr`, by
/// dialing it once (loopback when it is bound to an unspecified address).
/// The thread reads the stop flag, set before this call, and returns. A
/// refused dial means the listener is closed already.
fn wake_acceptor(addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect(SocketAddr::new(ip, addr.port()));
}

/// What one polled read produced. A malformed frame is deliberately *not*
/// collapsed into "connection gone": a worker speaking garbage deserves a
/// `ProtocolError` naming the offending line, a dead worker deserves
/// silence — the two must stay distinguishable end to end.
enum ReadOutcome {
    /// A well-formed request (boxed: `Deliver` dwarfs the other variants).
    Request(Box<Request>),
    /// EOF, a transport error, or `keep_waiting` said stop.
    Disconnected,
    /// A complete line arrived but did not parse; carries the line.
    Malformed(String),
}

/// Reads one request off a connection whose socket has a short read
/// timeout, treating each timeout as a poll tick rather than a failure:
/// partially received lines accumulate across ticks (so a message split
/// across TCP segments can never desync the stream), and `keep_waiting`
/// decides whether to go on waiting — the handler passes "campaign not
/// done yet".
fn read_request_polling(
    reader: &mut BufReader<TcpStream>,
    mut keep_waiting: impl FnMut() -> bool,
) -> ReadOutcome {
    use std::io::BufRead as _;
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return ReadOutcome::Disconnected, // clean EOF
            // `read_line` returns only at the delimiter or EOF; a line
            // without its newline is a connection that died mid-message.
            Ok(_) if !line.ends_with('\n') => return ReadOutcome::Disconnected,
            Ok(_) => {
                let trimmed = line.trim_end();
                return match serde_json::from_str(trimmed) {
                    Ok(request) => ReadOutcome::Request(request),
                    Err(_) => ReadOutcome::Malformed(trimmed.to_string()),
                };
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Poll tick; any bytes already read stay in `line`.
                if !keep_waiting() {
                    return ReadOutcome::Disconnected;
                }
            }
            Err(_) => return ReadOutcome::Disconnected,
        }
    }
}

/// The `ProtocolError` reply for a frame that did not parse: names the
/// offending line (clipped — it may be arbitrary garbage) so the worker's
/// error message is actionable.
fn malformed_reply(line: &str) -> Reply {
    const CLIP: usize = 120;
    let shown: String = line.chars().take(CLIP).collect();
    let ellipsis = if line.chars().count() > CLIP {
        "…"
    } else {
        ""
    };
    Reply::ProtocolError {
        message: format!("malformed frame: `{shown}{ellipsis}` is not a valid request"),
    }
}

/// One worker connection, served to completion on its own thread.
///
/// Reads poll with a short timeout, but a timeout is **not** a verdict on
/// the worker: a worker crunching a long job is legitimately silent for the
/// whole job duration, so the handler just keeps waiting (the job's *lease*
/// is what re-offers the work if the worker really is hung). The poll
/// exists so the handler can notice campaign completion and exit instead of
/// blocking the coordinator's shutdown on a worker that will never speak
/// again. Only EOF / a transport error means the worker is gone — its
/// leases re-offer immediately.
fn handle_connection(
    stream: TcpStream,
    campaign: &str,
    fingerprint: &str,
    session: &str,
    state: &State,
    chunk: usize,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;

    // Campaign completion does not end the conversation instantly: a worker
    // between two requests (or sleeping through a backoff another
    // coordinator quoted) still deserves its final `Drained` instead of a
    // closed socket, so the handler lingers for a grace period after it
    // first observes completion ([`DRAIN_LINGER_MILLIS`]) and only then
    // stops waiting for silent peers.
    let mut done_at: Option<Instant> = None;
    let mut keep_waiting = move |state: &State| -> bool {
        if !state.lock().is_over() {
            return true;
        }
        done_at.get_or_insert_with(Instant::now).elapsed()
            < Duration::from_millis(DRAIN_LINGER_MILLIS)
    };

    // First message must be Hello; it names the worker for leases/manifest.
    let (worker, resumed_session) = match read_request_polling(&mut reader, || keep_waiting(state))
    {
        ReadOutcome::Request(request) => match *request {
            Request::Hello { worker, session } => (worker, session),
            _ => {
                let _ = write_message(
                    &mut writer,
                    &Reply::ProtocolError {
                        message: "first message must be Hello".into(),
                    },
                );
                return;
            }
        },
        ReadOutcome::Malformed(line) => {
            let _ = write_message(&mut writer, &malformed_reply(&line));
            return;
        }
        ReadOutcome::Disconnected => return,
    };
    // The connection name keys this connection's leases; the worker id
    // keys manifest/timing rows. Keeping them separate is what makes
    // re-Hello reclaim safe: releasing `worker#3` can never touch the
    // leases `worker#4` (the same worker, reconnected) holds.
    let conn = {
        let mut shared = state.lock();
        shared.connections += 1;
        let conn = format!("{worker}#{}", shared.connections);
        // A previous connection still speaking for this worker id is dead
        // weight (the worker would not re-Hello otherwise): reclaim its
        // leases now instead of waiting for EOF detection or lease expiry.
        if let Some(old_conn) = shared.live_conns.get(&worker).cloned() {
            let released = shared.reclaim_connection(&worker, &old_conn);
            if released > 0 {
                state.changed.notify_all();
                if !shared.quiet {
                    log_warn!(
                        "dist",
                        "worker `{worker}` re-introduced itself; reclaimed {released} \
                         lease(s) from its previous connection"
                    );
                }
            }
        }
        shared.live_conns.insert(worker.clone(), conn.clone());
        let fresh = shared.worker_ids.insert(worker.clone());
        let resumed = resumed_session.as_deref() == Some(session);
        if !fresh {
            shared.reconnects += 1;
        }
        if !shared.quiet {
            log_info!(
                "dist",
                "worker `{worker}` {}",
                if fresh {
                    "joined"
                } else if resumed {
                    "reconnected (same session)"
                } else {
                    "reconnected"
                }
            );
        }
        conn
    };
    if write_message(
        &mut writer,
        &Reply::Welcome {
            campaign: campaign.to_string(),
            session: session.to_string(),
            fingerprint: fingerprint.to_string(),
        },
    )
    .is_err()
    {
        state.reclaim(&worker, &conn);
        return;
    }
    let quiet = state.lock().quiet;

    loop {
        let request = match read_request_polling(&mut reader, || keep_waiting(state)) {
            ReadOutcome::Request(request) => *request,
            // A complete but unparseable line: the peer is alive but not
            // speaking the protocol. Name the offending frame, then close —
            // its leases re-offer like any other lost connection.
            ReadOutcome::Malformed(line) => {
                let _ = write_message(&mut writer, &malformed_reply(&line));
                let released = state.reclaim(&worker, &conn);
                if !quiet {
                    log_warn!(
                        "dist",
                        "worker `{worker}` sent a malformed frame; closing \
                         ({released} lease(s) re-offered)"
                    );
                }
                return;
            }
            // EOF, a broken pipe, or campaign completion while the worker
            // was silent. If the worker is really gone its leases re-offer
            // immediately instead of waiting for the deadline; on
            // completion there are no leases left to release.
            ReadOutcome::Disconnected => {
                let released = state.reclaim(&worker, &conn);
                if released > 0 && !quiet {
                    log_warn!(
                        "dist",
                        "worker `{worker}` lost; re-offering {released} job(s)"
                    );
                }
                return;
            }
        };
        // Crash emulation: once the stop hook has tripped, this coordinator
        // behaves like a killed process — connections sever without a
        // goodbye, so workers exercise their real reconnect path instead of
        // receiving a polite `Drained` no crashed process could send.
        if state.lock().stopped {
            state.reclaim(&worker, &conn);
            return;
        }
        let reply = match request {
            Request::Hello { .. } => Reply::ProtocolError {
                message: "duplicate Hello".into(),
            },
            Request::Fetch { max } => {
                match answer_fetch(state, &worker, &conn, max.clamp(1, chunk), quiet) {
                    Some(reply) => reply,
                    None => return,
                }
            }
            Request::Deliver { record, millis } => {
                let mut shared = state.lock();
                match fold_delivery(&mut shared, &worker, record, millis) {
                    Ok(()) => {
                        if let Some(budget) = shared.stop_budget {
                            if shared.delivered_count >= budget {
                                shared.stopped = true;
                            }
                        }
                        if shared.is_over() {
                            state.changed.notify_all();
                        }
                        if shared.stopped {
                            // The delivery that tripped the budget is safely
                            // folded; now "crash" — sever without an ack.
                            shared.reclaim_connection(&worker, &conn);
                            return;
                        }
                        if shared.is_done() {
                            Reply::Drained
                        } else {
                            // No reply needed per delivery; but the protocol
                            // is strict request/reply, so acknowledge with
                            // the next state: more work or wait.
                            Reply::Wait { millis: 0 }
                        }
                    }
                    Err(message) => Reply::ProtocolError { message },
                }
            }
        };
        let done = matches!(reply, Reply::Drained);
        if write_message(&mut writer, &reply).is_err() || done {
            state.reclaim(&worker, &conn);
            return;
        }
    }
}

/// Answers one `Fetch` of up to `max` jobs from connection `conn`: `Assign`
/// of the next queued jobs when there are any, `Drained` once the grid is,
/// and otherwise `Wait` — at once for a connection that holds leases, after
/// holding the request for up to [`WAIT_BACKOFF_MILLIS`] for one that holds
/// none. `None` means the stop hook tripped: the connection is severed
/// without a reply.
fn answer_fetch(state: &State, worker: &str, conn: &str, max: usize, quiet: bool) -> Option<Reply> {
    let deadline = Instant::now() + Duration::from_millis(WAIT_BACKOFF_MILLIS);
    let mut shared = state.lock();
    loop {
        // Crash emulation, as for any request: a stop that trips while the
        // fetch is held severs it too.
        if shared.stopped {
            shared.reclaim_connection(worker, conn);
            return None;
        }
        let now = Instant::now();
        let reaped = shared.queue.reap_expired(now);
        if reaped > 0 {
            shared.reoffered += reaped;
            state.changed.notify_all();
            if !quiet {
                log_warn!("dist", "{reaped} lease(s) expired; re-offering");
            }
        }
        // Both sides bound the batch: the worker's appetite and the
        // coordinator's `--chunk` cap (small chunks keep expensive tails
        // spread across workers). The queue holds only undelivered jobs.
        let taken = shared.queue.take(conn, max, now);
        if !taken.is_empty() {
            let fields = &mut *shared;
            let jobs = taken
                .into_iter()
                .map(|idx| {
                    let pending = &fields.pending[idx];
                    let _ = fields.manifest.record_assigned(&pending.fp, worker);
                    pending.job.clone()
                })
                .collect();
            return Some(Reply::Assign { jobs });
        }
        if shared.is_done() {
            return Some(Reply::Drained);
        }
        // Everything is leased out elsewhere. A worker still holding leases
        // asks again after its next delivery; one holding none is held until
        // there is something to say, or the backoff passes.
        if now >= deadline || shared.queue.holds_lease(conn) {
            return Some(Reply::Wait { millis: 0 });
        }
        shared = state
            .changed
            .wait_timeout(shared, deadline - now)
            .expect("coordinator state")
            .0;
    }
}

/// Folds one delivered record into store + manifest + timings. Duplicate
/// and stale deliveries (lease expired, job re-offered and already
/// delivered by someone else) are dropped idempotently.
///
/// Trust nothing, but check once: the record's fingerprint must name a
/// pending job of the grid and its job must be that job, which is the
/// fingerprint check without fingerprinting the job again. Only a record
/// that fails it is fingerprinted, to say which check it failed. The store
/// normalises status, result and error as it does for every record
/// ([`ResultStore::append_delivered`]).
fn fold_delivery(
    shared: &mut Shared,
    worker: &str,
    record: StoreRecord,
    millis: u64,
) -> Result<(), String> {
    let idx = match shared.by_fp.get(&record.fp) {
        Some(&idx) if shared.pending[idx].job == record.job => idx,
        _ => {
            let fp = job_fingerprint(&record.job);
            return Err(if fp != record.fp {
                format!(
                    "record fingerprint {} does not match its job ({fp})",
                    record.fp
                )
            } else {
                format!("job {fp} is not part of this campaign's grid")
            });
        }
    };
    if shared.delivered[idx] {
        // A slow worker delivering after re-offer + re-delivery: results are
        // deterministic per job, so the copy adds nothing. Drop it.
        return Ok(());
    }
    let ok = record.status == "ok";
    shared
        .store
        .append_delivered(record)
        .map_err(|e| format!("cannot persist result: {e}"))?;
    shared.queue.complete(idx);
    let pending = &shared.pending[idx];
    let label = pending.job.label();
    let _ = shared.manifest.record_done(&pending.fp, worker);
    let _ = shared.timings.append(&TimingRecord {
        fp: pending.fp.clone(),
        label: label.clone(),
        millis,
        worker: worker.to_string(),
    });
    shared.delivered[idx] = true;
    shared.delivered_count += 1;
    if !ok {
        shared.failed += 1;
    }
    if !shared.quiet {
        log_info!(
            "dist",
            "[{}/{}] {}  {label} (worker `{worker}`, {millis} ms)",
            shared.delivered_count,
            shared.pending.len(),
            if ok { "done" } else { "FAILED" },
        );
    }
    Ok(())
}

/// Serves the expanded `jobs` of a campaign named `campaign` to workers
/// connecting on `listener`, folding results into the store at `store_path`
/// until every pending job has a result, then finalizes the store in
/// canonical grid order and returns.
///
/// Already-complete fingerprints are skipped (resume), assignments and
/// deliveries are journalled to `<store>.manifest.jsonl`, and per-job
/// wall-clock goes to `<store>.timings.jsonl`. When the manifest already
/// names jobs of this grid and some are still pending, an earlier serve
/// crashed: this one then keeps accepting, and answering `Drained`, for
/// [`ReconnectPolicy::longest_delay`] of the default policy after the grid
/// drains. A manifest that marks a grid job delivered while the store holds
/// no line for it is older than the store; it is replaced by a new one,
/// with a warning, and arms no grace. The caller is responsible for having
/// validated the jobs (the coordinator never executes one).
pub fn serve(
    listener: TcpListener,
    campaign: &str,
    jobs: &[JobSpec],
    store_path: &Path,
    opts: &ServeOptions,
) -> std::io::Result<ServeOutcome> {
    let store = ResultStore::open(store_path)?;
    let mut manifest = AssignmentManifest::open(&manifest_path(store_path))?;
    let timings = TimingsLog::open(&timings_path(store_path))?;

    // Each job is fingerprinted once, here: the resume filter, `by_fp`,
    // the manifest rows, the campaign fingerprint and the final rewrite all
    // read these.
    let fps: Vec<String> = jobs.iter().map(job_fingerprint).collect();
    // Only unfinished fingerprints are (re-)offered — the resume contract —
    // in grid order.
    let pending: Vec<PendingJob> = jobs
        .iter()
        .zip(&fps)
        .filter(|(_, fp)| !store.is_complete(fp))
        .map(|(job, fp)| PendingJob {
            job: job.clone(),
            fp: fp.clone(),
        })
        .collect();
    let skipped = jobs.len() - pending.len();
    let total = jobs.len();
    let by_fp: HashMap<String, usize> = pending
        .iter()
        .enumerate()
        .map(|(idx, job)| (job.fp.clone(), idx))
        .collect();

    // A `done` row is written only after its record is in the store
    // (`fold_delivery`), so a manifest marking done a grid job the store
    // holds no line for was written beside an older store: the store was
    // deleted or replaced since, and no worker of that serve is waiting.
    // Otherwise, a manifest naming jobs of this grid while some are pending
    // was left by an earlier serve that crashed (or was stopped), and its
    // workers may still be redialing.
    let (stale, restarted) = {
        let grid: HashSet<&str> = fps.iter().map(String::as_str).collect();
        let mut rows = manifest
            .records_in_order()
            .filter(|record| grid.contains(record.fp.as_str()))
            .peekable();
        let named = rows.peek().is_some();
        let stale = rows.any(|record| record.status == MANIFEST_DONE && !store.holds(&record.fp));
        (stale, !stale && named && !pending.is_empty())
    };
    if stale {
        if !opts.quiet {
            log_warn!(
                "dist",
                "{} marks jobs delivered that {} does not hold; starting a new manifest",
                manifest.path().display(),
                store_path.display()
            );
        }
        drop(manifest);
        manifest = AssignmentManifest::create(&manifest_path(store_path))?;
    }
    let shared = Mutex::new(Shared {
        delivered: vec![false; pending.len()],
        queue: LeaseQueue::new(pending.len(), opts.lease),
        pending,
        by_fp,
        store,
        manifest,
        timings,
        delivered_count: 0,
        failed: 0,
        worker_ids: HashSet::new(),
        live_conns: HashMap::new(),
        connections: 0,
        reoffered: 0,
        reconnects: 0,
        stop_budget: opts.stop_after_deliveries,
        stopped: false,
        quiet: opts.quiet,
    });
    let state = Arc::new(State {
        shared,
        changed: Condvar::new(),
    });
    if !opts.quiet && skipped > 0 {
        log_info!(
            "dist",
            "[{skipped}/{total}] already complete in the store, skipping"
        );
    }

    let stop = Arc::new(AtomicBool::new(false));

    // The live-metrics endpoint: its own listener, its own thread, read-only
    // over the shared state. It serves snapshots until the campaign ends.
    let metrics_thread = match &opts.metrics_addr {
        Some(addr) => {
            let metrics_listener = TcpListener::bind(addr)?;
            let metrics_addr = metrics_listener.local_addr()?;
            if !opts.quiet {
                log_info!("dist", "metrics endpoint listening on {metrics_addr}");
            }
            let metrics_state = Arc::clone(&state);
            let metrics_stop = Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                while let Ok((stream, _)) = metrics_listener.accept() {
                    if metrics_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let body = render_metrics(&metrics_state.lock());
                    answer_metrics_request(stream, &body);
                }
            });
            Some((handle, metrics_addr))
        }
        None => None,
    };

    let accept_state = Arc::clone(&state);
    let accept_stop = Arc::clone(&stop);
    let campaign_name = campaign.to_string();
    // The session nonce and campaign fingerprint are fixed for the lifetime
    // of this serve: every Welcome quotes them, so a reconnecting worker can
    // tell "coordinator restarted, same campaign" from "different campaign".
    let session = session_nonce();
    let fingerprint = campaign_fingerprint(campaign, &fps);
    let chunk = opts.chunk.max(1);
    listener.set_nonblocking(false)?;
    let listen_addr = listener.local_addr()?;
    // The accept loop runs on its own thread so the main thread can watch
    // for completion; handler threads are detached and guarded by the
    // delivered flags (late deliveries after completion are no-ops).
    let acceptor = std::thread::spawn(move || {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while let Ok((stream, _)) = listener.accept() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let state = Arc::clone(&accept_state);
            let campaign = campaign_name.clone();
            let session = session.clone();
            let fingerprint = fingerprint.clone();
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &campaign, &fingerprint, &session, &state, chunk);
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
    });

    // Wait for the grid to drain (or the stop hook to trip). A restarted
    // coordinator then keeps accepting for one grace: a worker of its
    // predecessor that dialed after it returned would redial a closed port
    // until its retry budget ran out. The manifest cannot name every such
    // worker (one welcomed but never given a job has no row), so the grace
    // is not cut short; it is the longest sleep between two dials on the
    // default reconnect policy.
    let grace = if restarted {
        ReconnectPolicy::default().longest_delay()
    } else {
        Duration::ZERO
    };
    let mut drained_at: Option<Instant> = None;
    {
        let mut shared = state.lock();
        while !shared.stopped {
            shared = if shared.is_done() {
                let drained = drained_at.get_or_insert_with(Instant::now).elapsed();
                if drained >= grace {
                    break;
                }
                state
                    .changed
                    .wait_timeout(shared, grace - drained)
                    .expect("coordinator state")
                    .0
            } else {
                state.changed.wait(shared).expect("coordinator state")
            };
        }
    }
    stop.store(true, Ordering::SeqCst);
    wake_acceptor(listen_addr);
    let _ = acceptor.join();
    if let Some((handle, metrics_addr)) = metrics_thread {
        wake_acceptor(metrics_addr);
        let _ = handle.join();
    }

    let mut shared = match Arc::try_unwrap(state) {
        Ok(state) => state.shared.into_inner().expect("coordinator state"),
        // A handler thread still holds a reference (it is about to exit) —
        // fall back to working through the lock.
        Err(arc) => {
            let guard = arc.lock();
            return finalize_locked(guard, &fps, total, skipped);
        }
    };
    shared.store.finalize_by_fingerprint(&fps)?;
    Ok(outcome_of(&shared, total, skipped))
}

/// The finalize path when a handler thread still shares the state.
fn finalize_locked(
    mut guard: MutexGuard<'_, Shared>,
    fps: &[String],
    total: usize,
    skipped: usize,
) -> std::io::Result<ServeOutcome> {
    guard.store.finalize_by_fingerprint(fps)?;
    Ok(outcome_of(&guard, total, skipped))
}

fn outcome_of(shared: &Shared, total: usize, skipped: usize) -> ServeOutcome {
    ServeOutcome {
        total,
        skipped,
        executed: shared.delivered_count,
        failed: shared.failed,
        workers: shared.worker_ids.len(),
        reoffered: shared.reoffered,
        reconnects: shared.reconnects,
        stopped: shared.stopped,
    }
}
