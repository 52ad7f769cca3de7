//! The worker's side of the wire, against scripted coordinators: a reply
//! cut mid-frame, a campaign that ends on a `Drained` ack, a
//! `ProtocolError` answering a delivery, one request in flight, a refill
//! that overlaps the running job, one job pool across reconnects, and a
//! lost connection's work staying lost.

use std::collections::HashSet;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use surepath_dist::{
    is_transient, read_message, run_worker, write_message, ReconnectPolicy, Reply, Request,
    WorkerOptions,
};
use surepath_runner::JobSpec;

fn job(seed: u64) -> JobSpec {
    JobSpec {
        campaign: "scripted".into(),
        sides: vec![4, 4],
        mechanism: Some("polsp".into()),
        load: Some(0.5),
        seed,
        ..JobSpec::default()
    }
}

fn welcome() -> Reply {
    Reply::Welcome {
        campaign: "scripted".into(),
        shard: 0,
        session: "scripted-session".into(),
        fingerprint: "0123456789abcdef".into(),
    }
}

fn options(threads: usize, chunk: usize, retries: usize) -> WorkerOptions {
    WorkerOptions {
        threads: Some(threads),
        chunk: Some(chunk),
        connect_retry: Duration::from_secs(5),
        reconnect: ReconnectPolicy::with(retries, 10),
        quiet: true,
    }
}

fn instant_job(job: &JobSpec) -> Result<serde::Value, String> {
    Ok(serde_json::to_value(&job.seed).unwrap())
}

/// A scripted coordinator: accepts connections on a loopback port until
/// `window` passes without one, hands each to `script` (with its index),
/// and reports how many it accepted.
fn scripted_coordinator(
    window: Duration,
    script: impl Fn(usize, TcpStream) + Send + 'static,
) -> (String, std::thread::JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    listener.set_nonblocking(true).unwrap();
    let handle = std::thread::spawn(move || {
        let mut accepted = 0;
        let mut last = Instant::now();
        while last.elapsed() < window {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).unwrap();
                    script(accepted, stream);
                    accepted += 1;
                    last = Instant::now();
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        accepted
    });
    (addr, handle)
}

fn split(stream: TcpStream) -> (BufReader<TcpStream>, TcpStream) {
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn expect_hello(reader: &mut BufReader<TcpStream>) {
    match read_message::<Request>(reader).unwrap() {
        Some(Request::Hello { .. }) => {}
        other => panic!("expected Hello, got {other:?}"),
    }
}

#[test]
fn a_reply_cut_mid_frame_makes_the_worker_dial_again() {
    // The first connection gets half a Welcome, then EOF: a transport
    // failure, so the worker must dial again rather than give up.
    let (addr, coordinator) = scripted_coordinator(Duration::from_secs(2), |_, stream| {
        let (mut reader, mut writer) = split(stream);
        expect_hello(&mut reader);
        let mut frame = Vec::new();
        write_message(&mut frame, &welcome()).unwrap();
        use std::io::Write as _;
        writer.write_all(&frame[..frame.len() / 2]).unwrap();
    });
    let err = run_worker(&addr, "cut-frame", &options(1, 2, 1), instant_job).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(err.to_string().contains("giving up"), "{err}");
    assert_eq!(
        coordinator.join().unwrap(),
        2,
        "the worker dialed a second time"
    );
}

/// The campaign ends on the ack of a delivery and the coordinator hangs up
/// at once: the worker is done, so it returns without dialing again.
#[test]
fn a_drained_ack_ends_the_session_at_once() {
    let (addr, coordinator) = scripted_coordinator(Duration::from_millis(500), |_, stream| {
        let (mut reader, mut writer) = split(stream);
        expect_hello(&mut reader);
        write_message(&mut writer, &welcome()).unwrap();
        let mut assigned = false;
        loop {
            match read_message::<Request>(&mut reader).unwrap() {
                Some(Request::Fetch { .. }) if !assigned => {
                    assigned = true;
                    let jobs = vec![job(1)];
                    write_message(&mut writer, &Reply::Assign { jobs }).unwrap();
                }
                Some(Request::Fetch { .. }) => {
                    write_message(&mut writer, &Reply::Wait { millis: 0 }).unwrap();
                }
                Some(Request::Deliver { .. }) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        write_message(&mut writer, &Reply::Drained).unwrap();
    });
    let started = Instant::now();
    let outcome = run_worker(&addr, "drained-ack", &options(2, 2, 3), instant_job).unwrap();
    assert_eq!(outcome.executed, 1);
    assert_eq!(
        outcome.reconnects, 0,
        "a drained campaign is never re-dialed"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "no reconnect loop"
    );
    assert_eq!(coordinator.join().unwrap(), 1, "the worker dialed once");
}

#[test]
fn a_protocol_error_answering_a_delivery_aborts_the_worker() {
    let (addr, coordinator) = scripted_coordinator(Duration::from_millis(500), |_, stream| {
        let (mut reader, mut writer) = split(stream);
        expect_hello(&mut reader);
        write_message(&mut writer, &welcome()).unwrap();
        let mut assigned = false;
        while let Ok(Some(request)) = read_message::<Request>(&mut reader) {
            let reply = match request {
                Request::Fetch { .. } if !assigned => {
                    assigned = true;
                    Reply::Assign {
                        jobs: vec![job(1), job(2)],
                    }
                }
                Request::Fetch { .. } => Reply::Wait { millis: 10 },
                Request::Deliver { record, .. } => Reply::ProtocolError {
                    message: format!(
                        "record fingerprint {} does not match its job (0000000000000000)",
                        record.fp
                    ),
                },
                Request::Hello { .. } => panic!("duplicate Hello"),
            };
            if write_message(&mut writer, &reply).is_err() {
                break;
            }
        }
    });
    let err = run_worker(&addr, "mismatch", &options(1, 2, 3), instant_job).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("does not match its job"), "{err}");
    assert_eq!(
        coordinator.join().unwrap(),
        1,
        "a protocol error is not retried"
    );
}

/// Against a slow coordinator with fast jobs, results pile up on the
/// worker, yet it never sends a request before the last one is answered.
#[test]
fn the_worker_keeps_one_request_in_flight() {
    const JOBS: u64 = 24;
    const CHUNK: usize = 4;
    let max_outstanding = Arc::new(AtomicUsize::new(0));
    let delivered = Arc::new(AtomicUsize::new(0));
    let (max_seen, delivered_seen) = (Arc::clone(&max_outstanding), Arc::clone(&delivered));
    let (addr, coordinator) = scripted_coordinator(Duration::from_millis(500), move |_, stream| {
        let (mut reader, mut writer) = split(stream);
        expect_hello(&mut reader);
        write_message(&mut writer, &welcome()).unwrap();
        // A reader thread takes requests off the socket as they arrive, so
        // the count of unanswered requests is what the worker has in flight.
        let replied = Arc::new(AtomicUsize::new(0));
        let (requests, inbox) = mpsc::channel::<Request>();
        let (answered, max) = (Arc::clone(&replied), Arc::clone(&max_seen));
        let reading = std::thread::spawn(move || {
            let mut read = 0;
            while let Ok(Some(request)) = read_message::<Request>(&mut reader) {
                read += 1;
                max.fetch_max(read - answered.load(Ordering::SeqCst), Ordering::SeqCst);
                if requests.send(request).is_err() {
                    break;
                }
            }
        });
        let mut next = 0;
        let mut done = 0;
        for request in inbox {
            // A slow coordinator: every reply takes a while.
            std::thread::sleep(Duration::from_millis(3));
            let reply = match request {
                Request::Deliver { .. } => {
                    done += 1;
                    if done == JOBS {
                        Reply::Drained
                    } else {
                        Reply::Wait { millis: 0 }
                    }
                }
                Request::Fetch { max } if next < JOBS => {
                    let take = (max as u64).min(JOBS - next);
                    let jobs = (next..next + take).map(job).collect();
                    next += take;
                    Reply::Assign { jobs }
                }
                Request::Fetch { .. } if done == JOBS => Reply::Drained,
                Request::Fetch { .. } => Reply::Wait { millis: 5 },
                Request::Hello { .. } => panic!("duplicate Hello"),
            };
            let last = reply == Reply::Drained;
            // Counted before it is sent, so a request the reply releases is
            // never seen as a second one in flight.
            replied.fetch_add(1, Ordering::SeqCst);
            write_message(&mut writer, &reply).unwrap();
            if last {
                break;
            }
        }
        delivered_seen.store(done as usize, Ordering::SeqCst);
        drop(writer);
        let _ = reading.join();
    });
    let outcome = run_worker(&addr, "bounded", &options(2, CHUNK, 3), instant_job).unwrap();
    assert_eq!(coordinator.join().unwrap(), 1);
    assert_eq!(outcome.executed, JOBS as usize);
    assert_eq!(delivered.load(Ordering::SeqCst), JOBS as usize);
    let max = max_outstanding.load(Ordering::SeqCst);
    assert_eq!(max, 1, "{max} requests were in flight at once");
}

fn next_request(reader: &mut BufReader<TcpStream>) -> Option<Request> {
    read_message::<Request>(reader).ok().flatten()
}

/// Waits (up to five seconds) until `flag` is set.
fn wait_for(flag: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The worker asks for its next job while its only fetched job still runs,
/// so the job thread finds the next job queued when it finishes.
#[test]
fn the_refill_fetch_goes_out_while_the_last_job_runs() {
    let finished = Arc::new(AtomicBool::new(false));
    let refilled_while_running = Arc::new(AtomicBool::new(false));
    let (job_done, seen) = (Arc::clone(&finished), Arc::clone(&refilled_while_running));
    let (addr, coordinator) = scripted_coordinator(Duration::from_millis(500), move |_, stream| {
        let (mut reader, mut writer) = split(stream);
        expect_hello(&mut reader);
        write_message(&mut writer, &welcome()).unwrap();
        assert!(matches!(
            next_request(&mut reader),
            Some(Request::Fetch { max: 2 })
        ));
        let jobs = vec![job(1)];
        write_message(&mut writer, &Reply::Assign { jobs }).unwrap();
        match next_request(&mut reader) {
            Some(Request::Fetch { max: 1 }) => {
                seen.store(!job_done.load(Ordering::SeqCst), Ordering::SeqCst);
            }
            other => panic!("expected the refill Fetch, got {other:?}"),
        }
        write_message(&mut writer, &Reply::Wait { millis: 0 }).unwrap();
        assert!(matches!(
            next_request(&mut reader),
            Some(Request::Deliver { .. })
        ));
        write_message(&mut writer, &Reply::Drained).unwrap();
    });
    let (release, job_done) = (Arc::clone(&refilled_while_running), Arc::clone(&finished));
    let outcome = run_worker(&addr, "refill", &options(1, 2, 0), move |job| {
        wait_for(&release);
        job_done.store(true, Ordering::SeqCst);
        instant_job(job)
    })
    .unwrap();
    assert_eq!(outcome.executed, 1);
    assert_eq!(coordinator.join().unwrap(), 1);
    assert!(refilled_while_running.load(Ordering::SeqCst));
}

/// Three assignments over two connections run on one pool of two job
/// threads: the pool lasts the whole campaign, reconnect included.
#[test]
fn one_job_pool_serves_every_assignment_and_the_reconnect() {
    let (addr, coordinator) = scripted_coordinator(Duration::from_millis(500), |conn, stream| {
        let (mut reader, mut writer) = split(stream);
        expect_hello(&mut reader);
        write_message(&mut writer, &welcome()).unwrap();
        // The first connection makes two assignments, the second one.
        let planned = if conn == 0 { 2 } else { 1 };
        let mut assigns = 0;
        let mut delivered = 0;
        while let Some(request) = next_request(&mut reader) {
            let reply = match request {
                Request::Fetch { max } if assigns < planned => {
                    assigns += 1;
                    let first = 10 * (conn as u64 + 1) + 2 * assigns as u64;
                    Reply::Assign {
                        jobs: (first..first + max as u64).map(job).collect(),
                    }
                }
                Request::Fetch { .. } => Reply::Wait { millis: 0 },
                // The first delivery after the first connection's second
                // assignment is cut off: no reply, the socket closes.
                Request::Deliver { .. } if conn == 0 && assigns == 2 => return,
                Request::Deliver { .. } => {
                    delivered += 1;
                    if conn == 1 && delivered == 2 {
                        Reply::Drained
                    } else {
                        Reply::Wait { millis: 0 }
                    }
                }
                Request::Hello { .. } => panic!("duplicate Hello"),
            };
            let last = reply == Reply::Drained;
            write_message(&mut writer, &reply).unwrap();
            if last {
                return;
            }
        }
    });
    let threads = Mutex::new(HashSet::new());
    let outcome = run_worker(&addr, "one-pool", &options(2, 2, 3), |job| {
        threads.lock().unwrap().insert(std::thread::current().id());
        std::thread::sleep(Duration::from_millis(2));
        instant_job(job)
    })
    .unwrap();
    assert_eq!(coordinator.join().unwrap(), 2);
    assert_eq!(outcome.reconnects, 1);
    let seen = threads.lock().unwrap().len();
    assert!(seen <= 2, "jobs ran on {seen} threads");
}

/// After a cut, a result of the dead connection's running job is dropped:
/// the new connection hears only of jobs it assigned, and a job assigned
/// again runs again and is delivered once.
#[test]
fn a_lost_connections_results_are_not_delivered_on_the_next() {
    let release = Arc::new(AtomicBool::new(false));
    let stale_done = Arc::new(AtomicBool::new(false));
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let (reconnected, seen) = (Arc::clone(&release), Arc::clone(&delivered));
    let (addr, coordinator) =
        scripted_coordinator(Duration::from_millis(500), move |conn, stream| {
            let (mut reader, mut writer) = split(stream);
            expect_hello(&mut reader);
            if conn == 1 {
                // Only now may the first connection's job finish.
                reconnected.store(true, Ordering::SeqCst);
            }
            write_message(&mut writer, &welcome()).unwrap();
            if conn == 0 {
                assert!(matches!(
                    next_request(&mut reader),
                    Some(Request::Fetch { .. })
                ));
                let jobs = vec![job(1)];
                write_message(&mut writer, &Reply::Assign { jobs }).unwrap();
                // The refill, sent while job 1 runs: cut the connection.
                match next_request(&mut reader) {
                    Some(Request::Fetch { .. }) => return,
                    other => panic!("expected the refill Fetch, got {other:?}"),
                }
            }
            let mut assigned = false;
            while let Some(request) = next_request(&mut reader) {
                let reply = match request {
                    Request::Fetch { .. } if !assigned => {
                        assigned = true;
                        Reply::Assign {
                            jobs: vec![job(3), job(1)],
                        }
                    }
                    Request::Fetch { .. } => Reply::Wait { millis: 0 },
                    Request::Deliver { record, .. } => {
                        let mut seen = seen.lock().unwrap();
                        seen.push(record.job.seed);
                        if seen.len() == 2 {
                            Reply::Drained
                        } else {
                            Reply::Wait { millis: 0 }
                        }
                    }
                    Request::Hello { .. } => panic!("duplicate Hello"),
                };
                let last = reply == Reply::Drained;
                write_message(&mut writer, &reply).unwrap();
                if last {
                    return;
                }
            }
        });
    let (gate, first_copy_done) = (Arc::clone(&release), Arc::clone(&stale_done));
    let outcome = run_worker(&addr, "cut", &options(1, 2, 3), move |job| {
        if job.seed == 1 && !first_copy_done.load(Ordering::SeqCst) {
            // The copy fetched on the first connection: it runs across the
            // cut and finishes only after the worker reconnected.
            wait_for(&gate);
            first_copy_done.store(true, Ordering::SeqCst);
        }
        instant_job(job)
    })
    .unwrap();
    assert_eq!(coordinator.join().unwrap(), 2);
    assert_eq!(outcome.reconnects, 1);
    assert!(stale_done.load(Ordering::SeqCst));
    // Job 1's first copy finished before job 3 started (one job thread), so
    // a stale delivery would have come first.
    assert_eq!(*delivered.lock().unwrap(), vec![3, 1]);
}

/// Only the first dial waits out `connect_retry`; the reconnect attempts
/// after it dial once each, after their backoff.
#[test]
fn only_the_first_dial_waits_for_the_coordinator() {
    let opts = WorkerOptions {
        threads: Some(1),
        chunk: None,
        connect_retry: Duration::from_secs(2),
        reconnect: ReconnectPolicy::with(2, 10),
        quiet: true,
    };
    let started = Instant::now();
    let err = run_worker("127.0.0.1:1", "refused", &opts, instant_job).unwrap_err();
    let elapsed = started.elapsed();
    assert!(is_transient(err.kind()), "{err}");
    assert!(err.to_string().contains("giving up"), "{err}");
    assert!(elapsed >= Duration::from_secs(2), "{elapsed:?}");
    assert!(elapsed < Duration::from_secs(4), "{elapsed:?}");
}
