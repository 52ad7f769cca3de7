//! End-to-end tests of the distributed campaign driver against the *real*
//! simulator: the spawn-local smoke (1/2/4 workers over loopback TCP must
//! produce a store byte-identical to a plain local run) and worker loss
//! mid-campaign (dropped leases re-offer; the final bytes still match).
//!
//! The dist crate's own tests cover the protocol and scheduling machinery
//! with a fake workload; these runs push actual cycle-level simulations
//! through the wire, so result-JSON round-tripping (floats included) is
//! part of what byte-equality verifies.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surepath::core::{run_campaign, run_job, CampaignSpec, TopologySpec};
use surepath::dist::{
    read_message, run_worker, serve, write_message, Reply, Request, ServeOptions, WorkerOptions,
};
use surepath::runner::manifest_path;

mod common;
use common::test_threads;

fn tiny_spec(name: &str) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        topologies: vec![TopologySpec {
            sides: vec![4, 4],
            concentration: None,
        }],
        mechanisms: Some(vec!["omnisp".into(), "polsp".into()]),
        traffics: Some(vec!["uniform".into()]),
        scenarios: Some(vec!["none".into(), "random:6:5".into()]),
        loads: Some(vec![0.3]),
        seeds: Some(vec![1, 2]),
        vcs: Some(4),
        warmup: Some(100),
        measure: Some(250),
        ..CampaignSpec::default()
    }
}

fn temp_store(name: &str) -> PathBuf {
    common::temp_store("surepath-integration-dist", name)
}

fn clean(path: &std::path::Path) {
    for suffix in ["jsonl", "manifest.jsonl", "timings.jsonl"] {
        let _ = std::fs::remove_file(path.with_extension(suffix));
    }
}

/// A local single-process run of the same spec: the byte ground truth.
fn local_bytes(spec: &CampaignSpec, name: &str) -> Vec<u8> {
    let path = temp_store(name);
    clean(&path);
    run_campaign(spec, &path, Some(test_threads()), true).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    clean(&path);
    bytes
}

/// Serves `spec` over loopback TCP with `workers` in-process workers, all
/// running the real simulation bridge.
///
/// Every worker holds its jobs until all `workers` have started one, as
/// `serve_with_workers` in the dist crate's tests does: otherwise the first
/// workers could drain the 8-job grid and the coordinator return before a
/// worker thread the host started late dials in, and that worker would
/// spend its reconnect budget on a closed port. Holding at most two jobs
/// each, four workers can each take two while the others wait.
fn distributed_bytes(spec: &CampaignSpec, name: &str, workers: usize) -> Vec<u8> {
    let path = temp_store(name);
    clean(&path);
    let jobs = spec.expand().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let joined = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            let addr = addr.clone();
            let joined = Arc::clone(&joined);
            std::thread::spawn(move || {
                let first_job = AtomicBool::new(true);
                run_worker(
                    &addr,
                    &format!("int-worker-{i}"),
                    &WorkerOptions {
                        threads: Some(2),
                        chunk: Some(2),
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
                        run_job(job)
                    },
                )
            })
        })
        .collect();
    let outcome = serve(
        listener,
        &spec.name,
        &jobs,
        &path,
        &ServeOptions {
            quiet: true,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    for handle in handles {
        handle.join().unwrap().unwrap();
    }
    assert!(outcome.is_complete(), "{outcome:?}");
    assert_eq!(outcome.workers, workers);
    let bytes = std::fs::read(&path).unwrap();
    // The manifest sidecar exists and covers the executed grid.
    let manifest =
        surepath::runner::AssignmentManifest::open_read_only(&manifest_path(&path)).unwrap();
    assert_eq!(manifest.len(), outcome.executed);
    clean(&path);
    bytes
}

#[test]
fn spawn_local_smoke_one_two_four_workers_match_the_local_store() {
    let spec = tiny_spec("dist-int-smoke");
    let local = local_bytes(&spec, "smoke-local");
    assert!(!local.is_empty());
    for workers in [1usize, 2, 4] {
        assert_eq!(
            distributed_bytes(&spec, &format!("smoke-{workers}w"), workers),
            local,
            "{workers} real-simulation TCP workers must reproduce the local bytes"
        );
    }
}

#[test]
fn killed_worker_mid_campaign_still_yields_identical_bytes() {
    let spec = tiny_spec("dist-int-kill");
    let jobs = spec.expand().unwrap();
    let path = temp_store("kill");
    clean(&path);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let (name, jobs, path) = (spec.name.clone(), jobs.clone(), path.clone());
        std::thread::spawn(move || {
            serve(
                listener,
                &name,
                &jobs,
                &path,
                &ServeOptions {
                    quiet: true,
                    ..ServeOptions::default()
                },
            )
        })
    };

    // The victim: hello, fetch a batch, die without delivering.
    let taken = {
        let stream = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_message(
            &mut writer,
            &Request::Hello {
                worker: "victim".into(),
                session: None,
            },
        )
        .unwrap();
        let _: Reply = read_message(&mut reader).unwrap().unwrap();
        write_message(&mut writer, &Request::Fetch { max: 4 }).unwrap();
        match read_message::<Reply>(&mut reader).unwrap().unwrap() {
            Reply::Assign { jobs } => jobs.len(),
            other => panic!("expected an assignment, got {other:?}"),
        }
    }; // both socket halves drop here: the kill
    assert!(taken > 0);

    let survivor = std::thread::spawn(move || {
        run_worker(
            &addr,
            "survivor",
            &WorkerOptions {
                threads: Some(2),
                ..WorkerOptions::default()
            },
            run_job,
        )
    });
    let outcome = server.join().unwrap().unwrap();
    survivor.join().unwrap().unwrap();
    assert!(outcome.is_complete());
    assert!(outcome.reoffered >= taken);
    let bytes = std::fs::read(&path).unwrap();
    clean(&path);
    assert_eq!(
        bytes,
        local_bytes(&spec, "kill-local"),
        "a worker killed mid-campaign must not perturb the final bytes"
    );
}

#[test]
fn metrics_endpoint_serves_live_fleet_state_without_perturbing_bytes() {
    let spec = tiny_spec("dist-int-metrics");
    let jobs = spec.expand().unwrap();
    let path = temp_store("metrics");
    clean(&path);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Reserve a port for the metrics endpoint (bind-then-drop: the tiny
    // reuse window is harmless on loopback in a test).
    let metrics_addr = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let server = {
        let (name, jobs, path, metrics_addr) = (
            spec.name.clone(),
            jobs.clone(),
            path.clone(),
            metrics_addr.clone(),
        );
        std::thread::spawn(move || {
            serve(
                listener,
                &name,
                &jobs,
                &path,
                &ServeOptions {
                    quiet: true,
                    metrics_addr: Some(metrics_addr),
                    ..ServeOptions::default()
                },
            )
        })
    };

    // Scrape before any worker joins: the whole grid is pending.
    let scrape = || -> String {
        use std::io::{Read as _, Write as _};
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match std::net::TcpStream::connect(&metrics_addr) {
                Ok(mut stream) => {
                    let _ = stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
                    let mut body = String::new();
                    stream.read_to_string(&mut body).unwrap();
                    return body;
                }
                Err(e) if std::time::Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(e) => panic!("metrics endpoint never came up: {e}"),
            }
        }
    };
    let before = scrape();
    assert!(before.starts_with("HTTP/1.0 200 OK"), "{before}");
    assert!(before.contains("surepath_jobs_delivered 0"), "{before}");
    assert!(
        before.contains(&format!("surepath_jobs_total {}", jobs.len())),
        "{before}"
    );
    assert!(before.contains("surepath_workers_live 0"), "{before}");
    assert!(
        before.contains(&format!("surepath_jobs_pending {}", jobs.len())),
        "{before}"
    );
    assert!(before.contains("surepath_jobs_leased 0"), "{before}");
    assert!(
        before.contains("surepath_lease_reclaims_total 0"),
        "{before}"
    );

    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            run_worker(
                &addr,
                "metrics-worker",
                &WorkerOptions {
                    threads: Some(2),
                    ..WorkerOptions::default()
                },
                run_job,
            )
        })
    };
    let outcome = server.join().unwrap().unwrap();
    worker.join().unwrap().unwrap();
    assert!(outcome.is_complete());
    let bytes = std::fs::read(&path).unwrap();
    clean(&path);
    assert_eq!(
        bytes,
        local_bytes(&spec, "metrics-local"),
        "a scraped campaign must still produce the local bytes"
    );
}
