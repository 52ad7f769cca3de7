//! End-to-end tests of the coordinator/worker fan-out with a fake
//! deterministic workload: the determinism contract (a distributed store is
//! byte-identical to a local run's, for any worker count and join order),
//! resume, lease expiry and worker loss.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surepath_dist::{
    read_message, run_worker, serve, write_message, Reply, Request, ServeOptions, WorkerOptions,
};
use surepath_runner::{
    job_fingerprint, manifest_path, run_campaign_with, CampaignSpec, JobSpec, ResultStore,
    RunOptions, ShardManifest, TopologySpec,
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
        let manifest = ShardManifest::open_read_only(&manifest_path(&path)).unwrap();
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
    let manifest = ShardManifest::open_read_only(&manifest_path(&path)).unwrap();
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
