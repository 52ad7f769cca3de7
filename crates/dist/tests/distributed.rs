//! End-to-end tests of the coordinator/worker fan-out with a fake
//! deterministic workload: the determinism contract (a distributed store is
//! byte-identical to a local run's, for any worker count and join order),
//! resume, lease expiry, worker loss, a restarted coordinator's grace, and
//! which `Fetch` the coordinator holds.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surepath_dist::protocol::WAIT_BACKOFF_MILLIS;
use surepath_dist::{
    read_message, run_worker, serve, write_message, ReconnectPolicy, Reply, Request, ServeOptions,
    WorkerOptions,
};
use surepath_runner::{
    job_fingerprint, manifest_path, run_campaign_with, AssignmentManifest, CampaignSpec, JobSpec,
    ResultStore, RunOptions, TopologySpec,
};

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
        loads: Some(vec![0.25, 0.5, 0.75]),
        seeds: Some(vec![1, 2, 3, 4]),
        ..CampaignSpec::default()
    }
}

/// Deterministic fake workload: the result is a pure function of the job.
fn fake_result(job: &JobSpec) -> Result<serde::Value, String> {
    let score = job.seed as f64 * job.load.unwrap_or(1.0) + job.sides.len() as f64;
    serde_json::to_value(&score).map_err(|e| e.to_string())
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("surepath-dist-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

fn clean(path: &std::path::Path) {
    for p in [
        path.to_path_buf(),
        manifest_path(path),
        surepath_runner::timings_path(path),
    ] {
        let _ = std::fs::remove_file(p);
    }
}

/// The byte-ground-truth: the same spec run by the local driver.
fn local_store_bytes(s: &CampaignSpec, name: &str) -> Vec<u8> {
    let path = temp_store(name);
    clean(&path);
    run_campaign_with(
        s,
        &path,
        &RunOptions {
            threads: Some(2),
            quiet: true,
            timings: false,
            ..RunOptions::default()
        },
        fake_result,
    )
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    clean(&path);
    bytes
}

/// Serves `s` on an ephemeral port with `workers` in-process workers.
///
/// Every worker holds its jobs until all `workers` have received one. The
/// fake jobs are instant, so otherwise the first worker to connect could
/// drain the grid and the coordinator stop accepting before a worker thread
/// the host scheduled late dials in; that worker would then exhaust its
/// reconnect budget against a closed port. Callers keep at least
/// `workers × 4` jobs (two threads, chunk 4) pending so every worker gets a
/// batch.
fn serve_with_workers(
    s: &CampaignSpec,
    store: &std::path::Path,
    workers: usize,
    opts: ServeOptions,
) -> surepath_dist::ServeOutcome {
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let joined = Arc::new(AtomicUsize::new(0));
    let worker_handles: Vec<_> = (0..workers)
        .map(|i| {
            let addr = addr.clone();
            let joined = Arc::clone(&joined);
            std::thread::spawn(move || {
                let first_job = AtomicBool::new(true);
                run_worker(
                    &addr,
                    &format!("test-worker-{i}"),
                    &WorkerOptions {
                        threads: Some(2),
                        ..WorkerOptions::default()
                    },
                    |job| {
                        if first_job.swap(false, Ordering::SeqCst) {
                            joined.fetch_add(1, Ordering::SeqCst);
                        }
                        let deadline = Instant::now() + Duration::from_secs(30);
                        while joined.load(Ordering::SeqCst) < workers && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        fake_result(job)
                    },
                )
            })
        })
        .collect();
    let outcome = serve(listener, &s.name, &jobs, store, &opts).unwrap();
    for h in worker_handles {
        h.join().unwrap().unwrap();
    }
    outcome
}

fn quiet_opts() -> ServeOptions {
    ServeOptions {
        quiet: true,
        ..ServeOptions::default()
    }
}

#[test]
fn distributed_stores_are_byte_identical_to_local_for_any_worker_count() {
    let s = spec("dist-bytes");
    let local = local_store_bytes(&s, "dist-bytes-local");
    for workers in [1usize, 2, 4] {
        let path = temp_store(&format!("dist-bytes-{workers}w"));
        clean(&path);
        let outcome = serve_with_workers(&s, &path, workers, quiet_opts());
        assert_eq!(outcome.total, 24);
        assert_eq!(outcome.executed, 24);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.workers, workers);
        assert!(outcome.is_complete());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            local,
            "{workers}-worker distributed store must match the local bytes"
        );
        // The manifest records every job as done.
        let manifest = AssignmentManifest::open_read_only(&manifest_path(&path)).unwrap();
        assert_eq!(manifest.len(), 24);
        assert!(manifest
            .records_in_order()
            .all(|r| r.status == surepath_runner::manifest::MANIFEST_DONE));
        clean(&path);
    }
}

#[test]
fn distributed_run_resumes_only_missing_fingerprints() {
    let s = spec("dist-resume");
    let path = temp_store("dist-resume");
    clean(&path);
    let jobs = s.expand().unwrap();
    // Simulate an interrupted earlier run: 10 of 24 results already landed.
    {
        let mut store = ResultStore::open(&path).unwrap();
        for job in jobs.iter().take(10) {
            store.append_ok(job, fake_result(job).unwrap()).unwrap();
        }
    }
    let outcome = serve_with_workers(&s, &path, 2, quiet_opts());
    assert_eq!(outcome.skipped, 10);
    assert_eq!(outcome.executed, 14);
    assert!(outcome.is_complete());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        local_store_bytes(&s, "dist-resume-local"),
        "resumed distributed store matches an uninterrupted local run"
    );
    clean(&path);
}

#[test]
fn worker_failures_are_recorded_per_job_not_fatal() {
    let s = spec("dist-failures");
    let path = temp_store("dist-failures");
    clean(&path);
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            run_worker(
                &addr,
                "flaky",
                &WorkerOptions {
                    threads: Some(2),
                    ..WorkerOptions::default()
                },
                |job: &JobSpec| {
                    if job.mechanism.as_deref() == Some("b") && job.seed == 2 {
                        panic!("simulated simulator bug");
                    }
                    if job.mechanism.as_deref() == Some("b") && job.seed == 3 {
                        return Err("unknown mechanism".to_string());
                    }
                    fake_result(job)
                },
            )
        })
    };
    let outcome = serve(listener, &s.name, &jobs, &path, &quiet_opts()).unwrap();
    worker.join().unwrap().unwrap();
    assert_eq!(outcome.executed, 24);
    assert_eq!(outcome.failed, 6, "2 bad seeds x 3 loads on mechanism b");
    assert!(!outcome.is_complete());
    let store = ResultStore::open_read_only(&path).unwrap();
    let failed: Vec<_> = store.records().filter(|r| r.status == "failed").collect();
    assert_eq!(failed.len(), 6);
    assert!(failed
        .iter()
        .any(|r| r.error.as_deref().unwrap().contains("panic")));
    clean(&path);
}

/// A deliberately bad citizen: says hello, takes a batch, and vanishes
/// without delivering anything — the mid-campaign worker kill.
fn killed_worker(addr: &str, max: usize) -> usize {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_message(
        &mut writer,
        &Request::Hello {
            worker: "doomed".into(),
            session: None,
        },
    )
    .unwrap();
    let _: Reply = read_message(&mut reader).unwrap().unwrap();
    write_message(&mut writer, &Request::Fetch { max }).unwrap();
    match read_message::<Reply>(&mut reader).unwrap().unwrap() {
        Reply::Assign { jobs } => jobs.len(), // dropped: connection closes here
        other => panic!("expected an assignment, got {other:?}"),
    }
}

#[test]
fn killed_worker_jobs_are_reoffered_and_the_store_stays_byte_identical() {
    let s = spec("dist-kill");
    let path = temp_store("dist-kill");
    clean(&path);
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let (name, jobs, path) = (s.name.clone(), jobs.clone(), path.clone());
        std::thread::spawn(move || serve(listener, &name, &jobs, &path, &quiet_opts()))
    };

    // The victim takes a fat batch and dies with it.
    let taken = killed_worker(&addr, 8);
    assert!(taken > 0, "the victim actually held leases");

    // A healthy worker then drains the whole grid, victim's share included.
    let survivor = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            run_worker(
                &addr,
                "survivor",
                &WorkerOptions {
                    threads: Some(2),
                    ..WorkerOptions::default()
                },
                fake_result,
            )
        })
    };
    let outcome = server.join().unwrap().unwrap();
    survivor.join().unwrap().unwrap();
    assert_eq!(outcome.executed, 24, "every job, including re-offered ones");
    assert!(
        outcome.reoffered >= taken,
        "the victim's leases were re-offered"
    );
    assert!(outcome.is_complete());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        local_store_bytes(&s, "dist-kill-local"),
        "worker loss must not perturb the final bytes"
    );
    clean(&path);
}

/// A hung worker: holds leases on an open connection and never delivers.
/// The lease deadline, not the connection state, must free its jobs.
#[test]
fn expired_leases_are_reoffered_while_the_connection_stays_open() {
    let s = spec("dist-lease");
    let path = temp_store("dist-lease");
    clean(&path);
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let opts = ServeOptions {
        lease: Duration::from_millis(100),
        quiet: true,
        ..ServeOptions::default()
    };
    let server = {
        let (name, jobs, path, opts) = (s.name.clone(), jobs.clone(), path.clone(), opts.clone());
        std::thread::spawn(move || serve(listener, &name, &jobs, &path, &opts))
    };

    // The hung worker: fetches a batch, then sits on the open socket.
    let hung_stream = TcpStream::connect(&addr).unwrap();
    let mut hung_reader = std::io::BufReader::new(hung_stream.try_clone().unwrap());
    let mut hung_writer = hung_stream.try_clone().unwrap();
    write_message(
        &mut hung_writer,
        &Request::Hello {
            worker: "hung".into(),
            session: None,
        },
    )
    .unwrap();
    let _: Reply = read_message(&mut hung_reader).unwrap().unwrap();
    write_message(&mut hung_writer, &Request::Fetch { max: 6 }).unwrap();
    let taken = match read_message::<Reply>(&mut hung_reader).unwrap().unwrap() {
        Reply::Assign { jobs } => jobs.len(),
        other => panic!("expected an assignment, got {other:?}"),
    };
    assert!(taken > 0);

    let survivor = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            run_worker(
                &addr,
                "survivor",
                &WorkerOptions {
                    threads: Some(2),
                    ..WorkerOptions::default()
                },
                fake_result,
            )
        })
    };
    let outcome = server.join().unwrap().unwrap();
    survivor.join().unwrap().unwrap();
    drop(hung_stream);
    assert!(outcome.is_complete());
    assert!(
        outcome.reoffered >= taken,
        "expired leases were re-offered: {outcome:?}"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        local_store_bytes(&s, "dist-lease-local"),
        "lease expiry must not perturb the final bytes"
    );
    clean(&path);
}

#[test]
fn manifest_distinguishes_in_flight_from_missing() {
    // Drive the protocol by hand: assign a batch, deliver one record, then
    // inspect the manifest mid-campaign (coordinator still serving).
    let s = spec("dist-manifest");
    let path = temp_store("dist-manifest");
    clean(&path);
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let serve_jobs = jobs.clone();
    let serve_path = path.clone();
    let server_name = s.name.clone();
    let server = std::thread::spawn(move || {
        serve(
            listener,
            &server_name,
            &serve_jobs,
            &serve_path,
            &ServeOptions {
                quiet: true,
                ..ServeOptions::default()
            },
        )
    });

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_message(
        &mut writer,
        &Request::Hello {
            worker: "manual".into(),
            session: None,
        },
    )
    .unwrap();
    let _: Reply = read_message(&mut reader).unwrap().unwrap();
    write_message(&mut writer, &Request::Fetch { max: 4 }).unwrap();
    let batch = match read_message::<Reply>(&mut reader).unwrap().unwrap() {
        Reply::Assign { jobs } => jobs,
        other => panic!("expected an assignment, got {other:?}"),
    };
    // Deliver exactly one of the four.
    let job = batch[0].clone();
    write_message(
        &mut writer,
        &Request::Deliver {
            record: surepath_runner::StoreRecord {
                fp: job_fingerprint(&job),
                status: "ok".into(),
                job: job.clone(),
                result: Some(fake_result(&job).unwrap()),
                error: None,
            },
            millis: 5,
        },
    )
    .unwrap();
    let _: Reply = read_message(&mut reader).unwrap().unwrap();

    // Mid-campaign: 4 assigned, 1 done → 3 in flight, the rest missing.
    let manifest = AssignmentManifest::open_read_only(&manifest_path(&path)).unwrap();
    let store = ResultStore::open_read_only(&path).unwrap();
    assert_eq!(manifest.len(), 4);
    let in_flight = manifest.in_flight(&|fp: &str| store.is_complete(fp));
    assert_eq!(in_flight.len(), 3);
    assert!(in_flight.iter().all(|r| r.worker == "manual"));
    let assigned_fps: std::collections::HashSet<&str> =
        manifest.records_in_order().map(|r| r.fp.as_str()).collect();
    let missing = jobs
        .iter()
        .filter(|j| !assigned_fps.contains(job_fingerprint(j).as_str()))
        .count();
    assert_eq!(missing, jobs.len() - 4, "unassigned jobs are `missing`");

    // Hang up: the manual worker's three leases re-offer immediately (no
    // need to wait out the lease deadline), and a real worker finishes the
    // campaign so the server thread exits.
    writer.shutdown(std::net::Shutdown::Both).unwrap();
    drop(writer);
    let finisher = std::thread::spawn(move || {
        run_worker(&addr, "finisher", &WorkerOptions::default(), fake_result)
    });
    let outcome = server.join().unwrap().unwrap();
    finisher.join().unwrap().unwrap();
    assert!(outcome.is_complete());
    assert!(outcome.reoffered >= 3, "{outcome:?}");
    clean(&path);
}

/// Fetch/deliver in a loop over a manual connection until `Drained`,
/// returning every job label this connection executed.
fn drain_via_client(
    reader: &mut std::io::BufReader<TcpStream>,
    writer: &mut TcpStream,
    max: usize,
) -> Vec<String> {
    let mut ran = Vec::new();
    loop {
        write_message(writer, &Request::Fetch { max }).unwrap();
        match read_message::<Reply>(reader).unwrap().unwrap() {
            Reply::Assign { jobs } => {
                for job in jobs {
                    ran.push(job.label());
                    write_message(
                        writer,
                        &Request::Deliver {
                            record: surepath_runner::StoreRecord {
                                fp: job_fingerprint(&job),
                                status: "ok".into(),
                                job: job.clone(),
                                result: Some(fake_result(&job).unwrap()),
                                error: None,
                            },
                            millis: 1,
                        },
                    )
                    .unwrap();
                    match read_message::<Reply>(reader).unwrap().unwrap() {
                        Reply::Drained => return ran,
                        Reply::Wait { .. } => {}
                        other => panic!("unexpected delivery ack {other:?}"),
                    }
                }
            }
            Reply::Wait { millis } => std::thread::sleep(Duration::from_millis(millis.max(10))),
            Reply::Drained => return ran,
            other => panic!("unexpected fetch reply {other:?}"),
        }
    }
}

/// The re-Hello reclaim contract: when a worker id re-introduces itself,
/// its previous connection's leases are reclaimed *immediately* (no lease
/// expiry involved — the lease here is 10 minutes), already-delivered jobs
/// are never re-offered (the `delivered[idx]` dedup), and the store still
/// comes out byte-identical.
#[test]
fn re_hello_reclaims_the_old_connections_leases_without_double_running() {
    let s = spec("dist-rehello");
    let path = temp_store("dist-rehello");
    clean(&path);
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let opts = ServeOptions {
        lease: Duration::from_secs(600), // reclaim must not depend on expiry
        quiet: true,
        ..ServeOptions::default()
    };
    let server = {
        let (name, jobs, path, opts) = (s.name.clone(), jobs.clone(), path.clone(), opts);
        std::thread::spawn(move || serve(listener, &name, &jobs, &path, &opts))
    };

    // Connection 1: hello as `phoenix`, lease a batch, deliver two jobs,
    // then go silent with the socket still open (a half-dead worker).
    let stream1 = TcpStream::connect(&addr).unwrap();
    let mut reader1 = std::io::BufReader::new(stream1.try_clone().unwrap());
    let mut writer1 = stream1.try_clone().unwrap();
    write_message(
        &mut writer1,
        &Request::Hello {
            worker: "phoenix".into(),
            session: None,
        },
    )
    .unwrap();
    let (nonce1, fingerprint1) = match read_message::<Reply>(&mut reader1).unwrap().unwrap() {
        Reply::Welcome {
            session,
            fingerprint,
            ..
        } => (session, fingerprint),
        other => panic!("expected Welcome, got {other:?}"),
    };
    write_message(&mut writer1, &Request::Fetch { max: 6 }).unwrap();
    let batch = match read_message::<Reply>(&mut reader1).unwrap().unwrap() {
        Reply::Assign { jobs } => jobs,
        other => panic!("expected an assignment, got {other:?}"),
    };
    assert!(batch.len() >= 3, "need a few leases to strand");
    let mut delivered_labels = Vec::new();
    for job in batch.iter().take(2) {
        delivered_labels.push(job.label());
        write_message(
            &mut writer1,
            &Request::Deliver {
                record: surepath_runner::StoreRecord {
                    fp: job_fingerprint(job),
                    status: "ok".into(),
                    job: job.clone(),
                    result: Some(fake_result(job).unwrap()),
                    error: None,
                },
                millis: 1,
            },
        )
        .unwrap();
        let _: Reply = read_message(&mut reader1).unwrap().unwrap();
    }

    // Connection 2: the same worker id re-Hellos (as after a reconnect),
    // quoting the session nonce it learned. The coordinator must hand back
    // the stranded leases right away and never re-offer the delivered two.
    let stream2 = TcpStream::connect(&addr).unwrap();
    let mut reader2 = std::io::BufReader::new(stream2.try_clone().unwrap());
    let mut writer2 = stream2;
    write_message(
        &mut writer2,
        &Request::Hello {
            worker: "phoenix".into(),
            session: Some(nonce1.clone()),
        },
    )
    .unwrap();
    match read_message::<Reply>(&mut reader2).unwrap().unwrap() {
        Reply::Welcome {
            session,
            fingerprint,
            ..
        } => {
            assert_eq!(session, nonce1, "same coordinator process, same nonce");
            assert_eq!(fingerprint, fingerprint1, "same campaign grid");
        }
        other => panic!("expected Welcome, got {other:?}"),
    }
    let ran = drain_via_client(&mut reader2, &mut writer2, 24);
    assert_eq!(ran.len(), 22, "everything except the two already delivered");
    for label in &delivered_labels {
        assert!(
            !ran.contains(label),
            "job `{label}` was double-run after the re-Hello reclaim"
        );
    }

    let outcome = server.join().unwrap().unwrap();
    drop(stream1);
    assert!(outcome.is_complete());
    assert_eq!(outcome.workers, 1, "one worker id across two connections");
    assert_eq!(outcome.reconnects, 1, "the re-Hello counted as a reconnect");
    assert_eq!(
        outcome.reoffered,
        batch.len() - 2,
        "exactly the stranded leases were reclaimed"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        local_store_bytes(&s, "dist-rehello-local"),
        "reclaim + dedup must not perturb the final bytes"
    );
    clean(&path);
}

/// A malformed frame is a protocol violation, not a silent disconnect: the
/// coordinator names the offending line in a `ProtocolError`, closes the
/// connection, and re-offers the connection's leases.
#[test]
fn garbage_frames_get_a_protocol_error_naming_the_line() {
    use std::io::{BufRead, Write};

    let s = spec("dist-garbage");
    let path = temp_store("dist-garbage");
    clean(&path);
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let (name, jobs, path) = (s.name.clone(), jobs.clone(), path.clone());
        std::thread::spawn(move || serve(listener, &name, &jobs, &path, &quiet_opts()))
    };

    // Garbage as the very first frame: ProtocolError, then EOF.
    {
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"HELO I AM NOT JSON\n").unwrap();
        writer.flush().unwrap();
        match read_message::<Reply>(&mut reader).unwrap().unwrap() {
            Reply::ProtocolError { message } => {
                assert!(message.contains("malformed frame"), "{message}");
                assert!(message.contains("HELO I AM NOT JSON"), "{message}");
            }
            other => panic!("expected ProtocolError, got {other:?}"),
        }
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection closed");
    }

    // Garbage mid-conversation, with leases held: same error, and the
    // leases re-offer so a healthy worker can still finish everything.
    let taken = {
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_message(
            &mut writer,
            &Request::Hello {
                worker: "babbler".into(),
                session: None,
            },
        )
        .unwrap();
        let _: Reply = read_message(&mut reader).unwrap().unwrap();
        write_message(&mut writer, &Request::Fetch { max: 5 }).unwrap();
        let taken = match read_message::<Reply>(&mut reader).unwrap().unwrap() {
            Reply::Assign { jobs } => jobs.len(),
            other => panic!("expected an assignment, got {other:?}"),
        };
        writer.write_all(b"{\"Fetch\":{\"max\":}}\n").unwrap();
        writer.flush().unwrap();
        match read_message::<Reply>(&mut reader).unwrap().unwrap() {
            Reply::ProtocolError { message } => {
                assert!(message.contains("malformed frame"), "{message}");
                assert!(message.contains("{\"Fetch\":{\"max\":}}"), "{message}");
            }
            other => panic!("expected ProtocolError, got {other:?}"),
        }
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection closed");
        taken
    };
    assert!(taken > 0);

    let finisher = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            run_worker(&addr, "finisher", &WorkerOptions::default(), fake_result)
        })
    };
    let outcome = server.join().unwrap().unwrap();
    finisher.join().unwrap().unwrap();
    assert!(outcome.is_complete());
    assert!(outcome.reoffered >= taken, "{outcome:?}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        local_store_bytes(&s, "dist-garbage-local"),
        "a babbling client must not perturb the final bytes"
    );
    clean(&path);
}

/// Deliveries are input from outside the coordinator: a record whose job
/// is not the one its fingerprint names, or a job outside the grid, gets
/// a `ProtocolError` and never reaches the store.
#[test]
fn forged_deliveries_are_rejected_and_never_stored() {
    let s = spec("dist-forged");
    let path = temp_store("dist-forged");
    clean(&path);
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let (name, jobs, path) = (s.name.clone(), jobs.clone(), path.clone());
        std::thread::spawn(move || serve(listener, &name, &jobs, &path, &quiet_opts()))
    };

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_message(
        &mut writer,
        &Request::Hello {
            worker: "forger".into(),
            session: None,
        },
    )
    .unwrap();
    let _: Reply = read_message(&mut reader).unwrap().unwrap();
    write_message(&mut writer, &Request::Fetch { max: 1 }).unwrap();
    let leased = match read_message::<Reply>(&mut reader).unwrap().unwrap() {
        Reply::Assign { jobs } => jobs.into_iter().next().unwrap(),
        other => panic!("expected an assignment, got {other:?}"),
    };
    let outside = JobSpec {
        seed: 99,
        ..leased.clone()
    };
    let record = |fp: String, job: &JobSpec| surepath_runner::StoreRecord {
        fp,
        status: "ok".into(),
        job: job.clone(),
        result: Some(fake_result(job).unwrap()),
        error: None,
    };
    let forgeries = [
        // The leased job's fingerprint on another job.
        (
            record(job_fingerprint(&leased), &outside),
            "does not match its job",
        ),
        // The leased job under a fingerprint that names nothing.
        (
            record("0000000000000000".into(), &leased),
            "does not match its job",
        ),
        // An honest record of a job outside the grid.
        (
            record(job_fingerprint(&outside), &outside),
            "is not part of this campaign's grid",
        ),
    ];
    for (record, expected) in forgeries {
        write_message(&mut writer, &Request::Deliver { record, millis: 1 }).unwrap();
        match read_message::<Reply>(&mut reader).unwrap().unwrap() {
            Reply::ProtocolError { message } => assert!(message.contains(expected), "{message}"),
            other => panic!("expected ProtocolError, got {other:?}"),
        }
    }
    // Hanging up releases the lease at once.
    drop((reader, writer));

    let finisher = run_worker(&addr, "finisher", &WorkerOptions::default(), fake_result);
    let outcome = server.join().unwrap().unwrap();
    finisher.unwrap();
    assert!(outcome.is_complete(), "{outcome:?}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        local_store_bytes(&s, "dist-forged-local"),
        "no forged record may reach the store"
    );
    clean(&path);
}

/// Serves `s` on an empty store whose manifest already names `fp` for
/// `worker`: the manifest of an earlier serve that died with the whole grid
/// pending when `fp` is a job of `s`, or one of another campaign sharing
/// the store when it is not. Returns the address, the serve thread and the
/// store path.
fn serve_after_an_earlier_serve(
    s: &CampaignSpec,
    fp: &str,
    worker: &str,
) -> (
    String,
    std::thread::JoinHandle<surepath_dist::ServeOutcome>,
    PathBuf,
) {
    let path = temp_store(&s.name);
    clean(&path);
    AssignmentManifest::open(&manifest_path(&path))
        .unwrap()
        .record_assigned(fp, worker)
        .unwrap();
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (campaign, store) = (s.name.clone(), path.clone());
    let server = std::thread::spawn(move || {
        serve(listener, &campaign, &jobs, &store, &quiet_opts()).unwrap()
    });
    (addr, server, path)
}

/// Drains the grid on `addr` with one worker; returns once it has heard
/// `Drained`.
fn drain_with_one_worker(addr: &str) -> Instant {
    let outcome = run_worker(addr, "survivor", &WorkerOptions::default(), fake_result).unwrap();
    assert_eq!(outcome.executed, 24);
    Instant::now()
}

#[test]
fn a_restarted_serve_tells_a_late_worker_the_campaign_is_drained() {
    let s = spec("dist-restart-late");
    let fp = job_fingerprint(&s.expand().unwrap()[0]);
    let (addr, server, path) = serve_after_an_earlier_serve(&s, &fp, "crashed-run");
    let drained = drain_with_one_worker(&addr);
    // A worker the manifest does not name (welcomed by the crashed serve,
    // say, but never given a job) dials after the drain. One dial, no
    // retry window to speak of: the coordinator must still be there.
    let late = run_worker(
        &addr,
        "late",
        &WorkerOptions {
            connect_retry: Duration::from_millis(200),
            ..WorkerOptions::default()
        },
        fake_result,
    )
    .unwrap();
    assert_eq!(late.executed, 0);
    let outcome = server.join().unwrap();
    let waited = drained.elapsed();
    let grace = ReconnectPolicy::default().longest_delay();
    assert!(waited >= grace - Duration::from_millis(500), "{waited:?}");
    assert!(waited < grace + Duration::from_secs(2), "{waited:?}");
    assert!(outcome.is_complete(), "{outcome:?}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        local_store_bytes(&s, "dist-restart-late-local")
    );
    clean(&path);
}

#[test]
fn a_serve_after_another_campaign_returns_when_the_grid_drains() {
    let s = spec("dist-restart-other");
    let (addr, server, path) = serve_after_an_earlier_serve(&s, "ffffffffffffffff", "elsewhere");
    let drained = drain_with_one_worker(&addr);
    let outcome = server.join().unwrap();
    assert!(
        drained.elapsed() < Duration::from_secs(1),
        "{:?}",
        drained.elapsed()
    );
    assert!(outcome.is_complete(), "{outcome:?}");
    clean(&path);
}

#[test]
fn a_manifest_left_beside_a_deleted_store_is_replaced_without_a_grace() {
    let s = spec("dist-stale-manifest");
    let path = temp_store(&s.name);
    clean(&path);
    let jobs = s.expand().unwrap();
    let serve_and_drain = || {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (campaign, jobs, store) = (s.name.clone(), jobs.clone(), path.clone());
        let server = std::thread::spawn(move || {
            serve(listener, &campaign, &jobs, &store, &quiet_opts()).unwrap()
        });
        let drained = drain_with_one_worker(&addr);
        let outcome = server.join().unwrap();
        assert!(outcome.is_complete(), "{outcome:?}");
        drained.elapsed()
    };
    serve_and_drain();
    // The store goes; its manifest, which marks every job delivered, stays.
    std::fs::remove_file(&path).unwrap();
    let waited = serve_and_drain();
    assert!(waited < Duration::from_secs(1), "{waited:?}");
    // One assignment and one delivery per job, all from the second serve.
    let manifest = manifest_path(&path);
    let rows = std::fs::read_to_string(&manifest).unwrap().lines().count();
    assert_eq!(rows, 2 * jobs.len());
    let manifest = AssignmentManifest::open_read_only(&manifest).unwrap();
    assert_eq!(manifest.len(), jobs.len());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        local_store_bytes(&s, "dist-stale-manifest-local")
    );
    clean(&path);
}

/// Says `Hello` as `worker` on a fresh connection to `addr` and reads the
/// `Welcome`.
fn hello(addr: &str, worker: &str) -> (std::io::BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let hello = Request::Hello {
        worker: worker.into(),
        session: None,
    };
    write_message(&mut writer, &hello).unwrap();
    assert!(matches!(
        read_message::<Reply>(&mut reader).unwrap(),
        Some(Reply::Welcome { .. })
    ));
    (reader, writer)
}

fn ask(
    reader: &mut std::io::BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &Request,
) -> Reply {
    write_message(writer, request).unwrap();
    read_message(reader).unwrap().unwrap()
}

fn delivery(job: &JobSpec) -> Request {
    Request::Deliver {
        record: surepath_runner::StoreRecord {
            fp: job_fingerprint(job),
            status: "ok".into(),
            job: job.clone(),
            result: Some(fake_result(job).unwrap()),
            error: None,
        },
        millis: 1,
    }
}

/// Serves `name` with a chunk cap of the whole grid, so one `Fetch` can
/// lease every job.
fn serve_whole_grid_chunks(
    name: &str,
) -> (
    String,
    Vec<JobSpec>,
    std::thread::JoinHandle<surepath_dist::ServeOutcome>,
    PathBuf,
) {
    let s = spec(name);
    let path = temp_store(name);
    clean(&path);
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let opts = ServeOptions {
        chunk: jobs.len(),
        quiet: true,
        ..ServeOptions::default()
    };
    let server = {
        let (jobs, path) = (jobs.clone(), path.clone());
        std::thread::spawn(move || serve(listener, &s.name, &jobs, &path, &opts).unwrap())
    };
    (addr, jobs, server, path)
}

/// One client leases the whole grid; another, holding no lease, asks for
/// work. Its `Fetch` gets no reply while the first runs the jobs, and
/// `Drained` the moment the last result lands, not after a backoff.
#[test]
fn an_idle_fetch_is_held_and_answered_drained_when_the_grid_drains() {
    let (addr, jobs, server, path) = serve_whole_grid_chunks("dist-held-fetch");
    let (mut reader, mut writer) = hello(&addr, "holder");
    let leased = match ask(&mut reader, &mut writer, &Request::Fetch { max: 24 }) {
        Reply::Assign { jobs } => jobs,
        other => panic!("expected an assignment, got {other:?}"),
    };
    assert_eq!(leased.len(), jobs.len());
    for job in &leased[1..] {
        assert_eq!(
            ask(&mut reader, &mut writer, &delivery(job)),
            Reply::Wait { millis: 0 }
        );
    }

    let (mut idle_reader, mut idle_writer) = hello(&addr, "idle");
    write_message(&mut idle_writer, &Request::Fetch { max: 4 }).unwrap();
    let stream = idle_reader.get_ref();
    stream
        .set_read_timeout(Some(Duration::from_millis(30)))
        .unwrap();
    let early = stream.peek(&mut [0u8; 1]);
    assert!(
        matches!(&early, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
            || e.kind() == std::io::ErrorKind::TimedOut),
        "the idle Fetch was answered while jobs were still leased: {early:?}"
    );
    stream.set_read_timeout(None).unwrap();

    let last = Instant::now();
    assert_eq!(
        ask(&mut reader, &mut writer, &delivery(&leased[0])),
        Reply::Drained
    );
    let reply: Reply = read_message(&mut idle_reader).unwrap().unwrap();
    let after_last = last.elapsed();
    assert_eq!(reply, Reply::Drained);
    assert!(
        after_last < Duration::from_millis(WAIT_BACKOFF_MILLIS / 2),
        "Drained came {after_last:?} after the last delivery"
    );
    assert!(server.join().unwrap().is_complete());
    clean(&path);
}

/// A `Fetch` from a connection that still holds a lease is answered at
/// once, even with nothing to hand out: that worker asks again after its
/// next delivery, and holding the request would hold up its results.
#[test]
fn a_fetch_from_a_connection_holding_leases_is_answered_at_once() {
    let (addr, jobs, server, path) = serve_whole_grid_chunks("dist-held-lease");
    let (mut reader, mut writer) = hello(&addr, "holder");
    let leased = match ask(&mut reader, &mut writer, &Request::Fetch { max: 24 }) {
        Reply::Assign { jobs } => jobs,
        other => panic!("expected an assignment, got {other:?}"),
    };
    assert_eq!(leased.len(), jobs.len());
    let mut fastest = Duration::MAX;
    for _ in 0..5 {
        let asked = Instant::now();
        let reply = ask(&mut reader, &mut writer, &Request::Fetch { max: 4 });
        fastest = fastest.min(asked.elapsed());
        assert!(matches!(reply, Reply::Wait { .. }), "{reply:?}");
    }
    assert!(
        fastest < Duration::from_millis(WAIT_BACKOFF_MILLIS / 2),
        "the fastest answer took {fastest:?}"
    );
    for job in &leased {
        let _ = ask(&mut reader, &mut writer, &delivery(job));
    }
    assert!(server.join().unwrap().is_complete());
    clean(&path);
}

/// A `Fetch` takes the next jobs in grid order, and jobs taken back from a
/// lost connection are offered again before the untouched tail.
#[test]
fn fetches_take_the_grid_in_order_and_reoffer_lost_jobs_first() {
    let (addr, jobs, server, path) = serve_whole_grid_chunks("dist-grid-order");
    let fetch =
        |reader: &mut std::io::BufReader<TcpStream>, writer: &mut TcpStream, max: usize| match ask(
            reader,
            writer,
            &Request::Fetch { max },
        ) {
            Reply::Assign { jobs } => jobs,
            other => panic!("expected an assignment, got {other:?}"),
        };
    let (mut first_reader, mut first_writer) = hello(&addr, "w");
    assert_eq!(fetch(&mut first_reader, &mut first_writer, 4), jobs[..4]);
    // The same worker introduces itself again: its first connection's four
    // leases go back to the front of the queue.
    let (mut reader, mut writer) = hello(&addr, "w");
    assert_eq!(fetch(&mut reader, &mut writer, 6), jobs[..6]);
    assert_eq!(fetch(&mut reader, &mut writer, jobs.len()), jobs[6..]);
    for job in &jobs {
        let _ = ask(&mut reader, &mut writer, &delivery(job));
    }
    drop((first_reader, first_writer));
    let outcome = server.join().unwrap();
    assert!(outcome.is_complete(), "{outcome:?}");
    assert_eq!((outcome.executed, outcome.reoffered), (jobs.len(), 4));
    clean(&path);
}

/// A serve stopped by its stop hook returns although nothing dials it
/// after the stop: it wakes its own blocking acceptor and metrics
/// listener. Both are bound to unspecified addresses here, so the wake
/// dials loopback.
#[test]
fn a_serve_stopped_by_its_hook_returns_with_no_connection_after_the_stop() {
    let s = spec("dist-stop-wake");
    let path = temp_store(&s.name);
    clean(&path);
    let jobs = s.expand().unwrap();
    let listener = TcpListener::bind("0.0.0.0:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let opts = ServeOptions {
        stop_after_deliveries: Some(2),
        metrics_addr: Some("0.0.0.0:0".into()),
        ..quiet_opts()
    };
    let (returned, outcome) = std::sync::mpsc::channel();
    let server = {
        let path = path.clone();
        std::thread::spawn(move || {
            let _ = returned.send(serve(listener, &s.name, &jobs, &path, &opts).unwrap());
        })
    };
    let (mut reader, mut writer) = hello(&addr, "only");
    let leased = match ask(&mut reader, &mut writer, &Request::Fetch { max: 4 }) {
        Reply::Assign { jobs } => jobs,
        other => panic!("expected an assignment, got {other:?}"),
    };
    assert_eq!(
        ask(&mut reader, &mut writer, &delivery(&leased[0])),
        Reply::Wait { millis: 0 }
    );
    // The second delivery trips the hook: it is stored, and the connection
    // is severed without a reply.
    write_message(&mut writer, &delivery(&leased[1])).unwrap();
    assert!(matches!(
        read_message::<Reply>(&mut reader),
        Ok(None) | Err(_)
    ));
    drop((reader, writer));
    let outcome = outcome
        .recv_timeout(Duration::from_secs(10))
        .expect("the stopped serve returns without another connection");
    server.join().unwrap();
    assert!(outcome.stopped, "{outcome:?}");
    assert_eq!(outcome.executed, 2);
    clean(&path);
}
