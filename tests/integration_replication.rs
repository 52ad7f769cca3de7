//! End-to-end tests of replication-aware campaigns: the `replicas`
//! dimension against the real simulator, mean ± CI rendering in `--report`,
//! and the statistically-grounded `--diff` between stores — including the
//! acceptance contract that a store diffed against itself reports zero
//! regressions while a degraded candidate fails, with byte-identical output
//! whatever the executor thread count was.
//!
//! The worker count honours `SUREPATH_TEST_THREADS` (default 4) so CI can
//! run the whole suite at 1 and at 4 executor threads.

use serde::Value;
use std::path::PathBuf;
use surepath::cli::{run_campaign_command, CampaignCommand};
use surepath::core::{
    diff_stores, format_store_diff, report_store, run_campaign, store_points, CampaignSpec,
    RateMetrics, ResultStore, TopologySpec,
};
use surepath::runner::StoreRecord;

mod common;
use common::test_threads;

fn replicated_spec(name: &str) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        topologies: vec![TopologySpec {
            sides: vec![4, 4],
            concentration: None,
        }],
        mechanisms: Some(vec!["omnisp".into(), "polsp".into()]),
        traffics: Some(vec!["uniform".into()]),
        scenarios: Some(vec!["none".into()]),
        loads: Some(vec![0.3]),
        replicas: Some(3),
        vcs: Some(4),
        warmup: Some(100),
        measure: Some(250),
        ..CampaignSpec::default()
    }
}

fn temp_store(name: &str) -> PathBuf {
    common::temp_store("surepath-integration-replication", name)
}

#[test]
fn replicated_campaign_stores_and_reports_are_identical_across_thread_counts() {
    let spec = replicated_spec("replication-bytes");
    let path_serial = temp_store("replication-bytes-serial");
    let path_pool = temp_store("replication-bytes-pool");
    let _ = std::fs::remove_file(&path_serial);
    let _ = std::fs::remove_file(&path_pool);

    let a = run_campaign(&spec, &path_serial, Some(1), true).unwrap();
    let b = run_campaign(&spec, &path_pool, Some(test_threads()), true).unwrap();
    assert_eq!(a.total, 6, "2 mechanisms x 3 replicas");
    assert_eq!(b.executed, 6);
    assert_eq!(a.failed + b.failed, 0);

    let serial = std::fs::read(&path_serial).unwrap();
    let pool = std::fs::read(&path_pool).unwrap();
    assert_eq!(serial, pool, "replicated stores are byte-identical");

    // The rendered report and the self-diff are byte-identical too — the
    // acceptance criterion for deterministic output across schedules.
    let store_serial = ResultStore::open_read_only(&path_serial).unwrap();
    let store_pool = ResultStore::open_read_only(&path_pool).unwrap();
    assert_eq!(report_store(&store_serial), report_store(&store_pool));
    assert_eq!(
        format_store_diff(&diff_stores(&store_serial, &store_pool)),
        format_store_diff(&diff_stores(&store_pool, &store_serial)),
        "diff of identical stores is symmetric and deterministic"
    );
    let _ = std::fs::remove_file(&path_serial);
    let _ = std::fs::remove_file(&path_pool);
}

#[test]
fn replicated_report_prints_mean_and_half_width_per_point() {
    let spec = replicated_spec("replication-report");
    let path = temp_store("replication-report");
    let _ = std::fs::remove_file(&path);
    run_campaign(&spec, &path, Some(test_threads()), true).unwrap();

    let store = ResultStore::open_read_only(&path).unwrap();
    let points = store_points(&store, "replication-report", "rate");
    assert_eq!(points.len(), 2, "one aggregated point per mechanism");
    for p in &points {
        assert_eq!(
            p.runs::<RateMetrics>().len(),
            3,
            "all three replicas grouped"
        );
        let accepted = p.summary(|m: &RateMetrics| m.accepted_load);
        assert!(accepted.mean > 0.05);
        assert!(
            accepted.std_dev > 0.0,
            "different seeds give different draws"
        );
        assert!(accepted.half_width().is_finite());
    }
    let report = report_store(&store);
    assert!(
        report.contains('±'),
        "report shows mean ± half-width: {report}"
    );
    assert!(report.contains("6 ok, 0 failed"), "{report}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn diff_against_itself_is_clean_and_a_degraded_candidate_regresses() {
    let spec = replicated_spec("replication-diff");
    let path = temp_store("replication-diff");
    let degraded_path = temp_store("replication-diff-degraded");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&degraded_path);
    run_campaign(&spec, &path, Some(test_threads()), true).unwrap();

    // Self-diff: no significant differences, no regressions — and the CLI
    // command wrapping it succeeds (exit 0).
    let store = ResultStore::open_read_only(&path).unwrap();
    let self_diff = diff_stores(&store, &store);
    assert_eq!(self_diff.points.len(), 2);
    assert_eq!(self_diff.significant(), 0);
    assert!(!self_diff.has_regressions());
    let cli_ok = run_campaign_command(&CampaignCommand::Diff {
        baseline: path.to_string_lossy().into_owned(),
        candidate: path.to_string_lossy().into_owned(),
        campaign: None,
        csv: None,
    })
    .expect("self-diff must succeed")
    .text;
    assert!(cli_ok.contains("result: no regressions"), "{cli_ok}");

    // A candidate store where one mechanism degraded (the simulated "routing
    // change went wrong"): every polsp replica loses a third of its
    // throughput, far outside the replica CIs.
    {
        let mut degraded = ResultStore::open(&degraded_path).unwrap();
        let mut records: Vec<StoreRecord> = store.records_in_order().cloned().collect();
        for record in &mut records {
            if record.job.mechanism.as_deref() == Some("polsp") {
                let result = record.result.as_mut().unwrap();
                let accepted = result["accepted_load"].as_f64().unwrap();
                if let Value::Object(fields) = result {
                    for (name, v) in fields.iter_mut() {
                        if name.as_str() == "accepted_load" {
                            *v = serde_json::to_value(&(accepted * 0.66)).unwrap();
                        }
                    }
                }
            }
            degraded
                .append_ok(&record.job, record.result.clone().unwrap())
                .unwrap();
        }
    }
    let degraded = ResultStore::open_read_only(&degraded_path).unwrap();
    let diff = diff_stores(&store, &degraded);
    assert!(
        diff.has_regressions(),
        "the degraded mechanism must be flagged"
    );
    assert_eq!(
        diff.regressions(),
        1,
        "only polsp's accepted_load regressed"
    );
    let text = format_store_diff(&diff);
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("accepted_load"), "{text}");

    // The CLI command fails (nonzero exit) on regression, with the table.
    let cli_err = surepath_cli::run_campaign_command(&surepath_cli::CampaignCommand::Diff {
        baseline: path.to_string_lossy().into_owned(),
        candidate: degraded_path.to_string_lossy().into_owned(),
        campaign: None,
        csv: None,
    })
    .expect_err("a regression must fail the diff command");
    assert!(cli_err.contains("REGRESSION"), "{cli_err}");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&degraded_path);
}

#[test]
fn replicas_resume_and_align_with_legacy_single_seed_stores() {
    // A store written by the old single-seed spec stays valid when the spec
    // switches to `replicas`: the first replica's fingerprint is unchanged,
    // so only the new replicas run.
    let legacy = CampaignSpec {
        replicas: None,
        seeds: Some(vec![1]),
        ..replicated_spec("replication-upgrade")
    };
    let spec = replicated_spec("replication-upgrade");
    let path = temp_store("replication-upgrade");
    let _ = std::fs::remove_file(&path);

    let first = run_campaign(&legacy, &path, Some(test_threads()), true).unwrap();
    assert_eq!(first.total, 2);
    let upgraded = run_campaign(&spec, &path, Some(test_threads()), true).unwrap();
    assert_eq!(upgraded.total, 6);
    assert_eq!(upgraded.skipped, 2, "the legacy seed-1 rows are reused");
    assert_eq!(upgraded.executed, 4);

    // And the legacy rows group into the same points as the new replicas.
    let store = ResultStore::open_read_only(&path).unwrap();
    let points = store_points(&store, "replication-upgrade", "rate");
    assert_eq!(points.len(), 2);
    assert!(points.iter().all(|p| p.runs::<RateMetrics>().len() == 3));
    let _ = std::fs::remove_file(&path);
}
