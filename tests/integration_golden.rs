//! Golden-store fixture tests: tiny finalized JSONL stores are checked in
//! under `tests/fixtures/`, and every store renderer — the `--report` text,
//! its CSV, the SVG charts, the Gnuplot scripts and data, the counters
//! tables, the `--diff` of a store against itself and the ablation tables —
//! must match the committed snapshots **byte for byte**. This pins the exact
//! output format across refactors and platforms — store contents are already
//! byte-deterministic, so any diff here is a rendering change, which should be
//! deliberate and reviewed.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! cargo test --test integration_golden -- --ignored regenerate_golden_fixtures
//! ```
//!
//! Regeneration re-renders every snapshot from the committed stores and
//! records only stores that are missing: the legacy `golden_store.jsonl`
//! predates latency histograms on purpose, and re-recording it would lose
//! that. Delete a store to re-record it.

use std::path::{Path, PathBuf};
use surepath::core::{
    ablation_points_from_store, ablation_to_csv, diff_stores, format_ablation_table,
    format_counters_report, format_store_diff, report_charts, report_csv, report_gnuplot,
    report_store, run_campaign, store_diff_csv, CampaignSpec, ResultStore, TopologySpec,
};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn store_path() -> PathBuf {
    fixtures_dir().join("golden_store.jsonl")
}

fn report_path() -> PathBuf {
    fixtures_dir().join("golden_report.txt")
}

fn diff_path() -> PathBuf {
    fixtures_dir().join("golden_diff.txt")
}

fn store_v2_path() -> PathBuf {
    fixtures_dir().join("golden_store_v2.jsonl")
}

fn report_v2_path() -> PathBuf {
    fixtures_dir().join("golden_report_v2.txt")
}

/// The rate campaign of the fixture: two mechanisms, three replicas each.
fn golden_rate_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden".to_string(),
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

/// The batch campaign sharing the fixture store: two replicas per point.
fn golden_batch_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden-batch".to_string(),
        kind: Some("batch".into()),
        loads: None,
        replicas: Some(2),
        packets_per_server: Some(10),
        sample_window: Some(200),
        ..golden_rate_spec()
    }
}

/// The v2 fixture campaign: same grid as the legacy fixture, but recorded
/// *after* latency histograms landed, so every result carries `latency_hist`
/// and the report grows the percentile columns. The legacy `golden_store.jsonl`
/// is deliberately kept pre-histogram — it pins that old stores still render
/// byte-identically.
fn golden_v2_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden-v2".to_string(),
        ..golden_rate_spec()
    }
}

/// A single-run campaign pair (one seed, no replicas) under RNG contract v2:
/// every record carries a latency histogram and engine counters, and the
/// store varies no dimension the report leaves out of its columns.
fn golden_single_specs() -> [CampaignSpec; 2] {
    let rate = CampaignSpec {
        name: "golden-single".to_string(),
        topologies: vec![TopologySpec {
            sides: vec![4, 4],
            concentration: None,
        }],
        mechanisms: Some(vec!["omnisp".into(), "polsp".into()]),
        traffics: Some(vec!["uniform".into(), "dcr".into()]),
        scenarios: Some(vec!["none".into()]),
        loads: Some(vec![0.2, 0.4]),
        vcs: Some(4),
        warmup: Some(100),
        measure: Some(250),
        rng: Some("v2".into()),
        ..CampaignSpec::default()
    };
    let batch = CampaignSpec {
        name: "golden-single-batch".to_string(),
        kind: Some("batch".into()),
        loads: None,
        packets_per_server: Some(10),
        sample_window: Some(200),
        ..rate.clone()
    };
    [rate, batch]
}

/// A replicated VC-budget ablation: the `vc_counts` dimension the ablation
/// binaries render with `ablation_points_from_store`.
fn golden_ablation_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden-ablation".to_string(),
        mechanisms: Some(vec!["omnisp".into(), "polsp".into()]),
        vc_counts: Some(vec![2, 4]),
        vcs: None,
        replicas: Some(2),
        ..golden_rate_spec()
    }
}

fn store_single_path() -> PathBuf {
    fixtures_dir().join("golden_store_single.jsonl")
}

fn store_ablation_path() -> PathBuf {
    fixtures_dir().join("golden_store_ablation.jsonl")
}

/// The chart, Gnuplot, CSV and counters renders of a store, as
/// `(fixture file name, contents)` pairs.
fn store_artifacts(store: &ResultStore) -> Vec<(String, String)> {
    let mut files = vec![
        ("report.csv".to_string(), report_csv(store)),
        ("counters.txt".to_string(), format_counters_report(store)),
    ];
    for (stem, svg) in report_charts(store) {
        files.push((format!("{stem}.svg"), svg));
    }
    for artifact in report_gnuplot(store) {
        files.push((format!("{}.gp", artifact.stem), artifact.script));
        files.push((format!("{}.dat", artifact.stem), artifact.data));
    }
    files
}

/// Every snapshot of the single-run store.
fn single_snapshots(store: &ResultStore) -> Vec<(String, String)> {
    let mut files = store_artifacts(store);
    files.push(("report.txt".to_string(), report_store(store)));
    files
}

/// The snapshots of the v2 store beyond `golden_report_v2.txt`.
fn v2_snapshots(store: &ResultStore) -> Vec<(String, String)> {
    let mut files = store_artifacts(store);
    files.push((
        "diff.csv".to_string(),
        store_diff_csv(&diff_stores(store, store)),
    ));
    files
}

/// The ablation table and CSV of the VC-budget store.
fn ablation_snapshots(store: &ResultStore) -> Vec<(String, String)> {
    let points = ablation_points_from_store(store, "golden-ablation", "vcs", |_| true);
    vec![
        ("table.txt".to_string(), format_ablation_table(&points)),
        ("points.csv".to_string(), ablation_to_csv(&points)),
    ]
}

/// Asserts `dir` holds exactly `files`, byte for byte.
fn assert_matches_snapshot_dir(dir: &Path, files: &[(String, String)]) {
    let mut committed: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("snapshot dir {} committed: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    committed.sort();
    let mut rendered: Vec<String> = files.iter().map(|(name, _)| name.clone()).collect();
    rendered.sort();
    assert_eq!(
        rendered,
        committed,
        "renderers produced a different artifact set than {}",
        dir.display()
    );
    for (name, contents) in files {
        let golden = std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(
            contents,
            &golden,
            "{name} drifted from {}; regenerate if intentional (see module docs)",
            dir.display()
        );
    }
}

/// Replaces `dir` with exactly `files`.
fn write_snapshot_dir(dir: &Path, files: &[(String, String)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, contents) in files {
        std::fs::write(dir.join(name), contents).unwrap();
    }
}

#[test]
fn golden_report_matches_committed_snapshot_byte_for_byte() {
    let store = ResultStore::open_read_only(&store_path())
        .expect("fixture store is committed under tests/fixtures/");
    let rendered = report_store(&store);
    let golden = std::fs::read_to_string(report_path()).expect("golden report committed");
    assert_eq!(
        rendered, golden,
        "--report output drifted from tests/fixtures/golden_report.txt; if the \
         format change is intentional, regenerate with \
         `cargo test --test integration_golden -- --ignored regenerate_golden_fixtures`"
    );
    // The fixture really is replicated — the snapshot shows mean ± CI.
    assert!(golden.contains('±'), "{golden}");
}

#[test]
fn golden_self_diff_matches_committed_snapshot_and_reports_no_regressions() {
    let store = ResultStore::open_read_only(&store_path()).expect("fixture store committed");
    let diff = diff_stores(&store, &store);
    assert!(!diff.has_regressions());
    assert_eq!(diff.significant(), 0);
    let rendered = format_store_diff(&diff);
    let golden = std::fs::read_to_string(diff_path()).expect("golden diff committed");
    assert_eq!(
        rendered, golden,
        "--diff output drifted from tests/fixtures/golden_diff.txt; regenerate \
         if intentional (see module docs)"
    );
    assert!(golden.contains("result: no regressions"), "{golden}");
}

#[test]
fn golden_v2_report_renders_percentiles_and_matches_snapshot() {
    let store = ResultStore::open_read_only(&store_v2_path())
        .expect("v2 fixture store is committed under tests/fixtures/");
    let rendered = report_store(&store);
    let golden = std::fs::read_to_string(report_v2_path()).expect("v2 golden report committed");
    assert_eq!(
        rendered, golden,
        "--report output drifted from tests/fixtures/golden_report_v2.txt; if the \
         format change is intentional, regenerate with \
         `cargo test --test integration_golden -- --ignored regenerate_golden_fixtures`"
    );
    // The store carries histograms and the report surfaces the tail columns.
    let raw = std::fs::read_to_string(store_v2_path()).unwrap();
    assert!(
        raw.contains("latency_hist"),
        "v2 store must embed histograms"
    );
    for column in ["p50", "p99", "p99.9"] {
        assert!(golden.contains(column), "missing `{column}` in:\n{golden}");
    }
}

#[test]
fn golden_single_run_store_renders_every_artifact_byte_for_byte() {
    let store = ResultStore::open_read_only(&store_single_path())
        .expect("single-run fixture store is committed under tests/fixtures/");
    let files = single_snapshots(&store);
    assert_matches_snapshot_dir(&fixtures_dir().join("golden_single"), &files);
    // Fresh v2 records: histograms (the `_latency` chart variant) and
    // counters are both present, and the single-run table has no `n` column.
    let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
    assert!(
        names.contains(&"golden-single_rate_latency.svg"),
        "{names:?}"
    );
    let counters = &files.iter().find(|(n, _)| n == "counters.txt").unwrap().1;
    assert!(counters.contains("alloc_requests"), "{counters}");
    let report = &files.iter().find(|(n, _)| n == "report.txt").unwrap().1;
    assert!(!report.contains('±'), "{report}");
}

#[test]
fn golden_v2_store_renders_every_artifact_byte_for_byte() {
    let store = ResultStore::open_read_only(&store_v2_path()).expect("v2 fixture store committed");
    assert_matches_snapshot_dir(&fixtures_dir().join("golden_v2"), &v2_snapshots(&store));
}

#[test]
fn golden_ablation_store_renders_the_vc_budget_table_byte_for_byte() {
    let store = ResultStore::open_read_only(&store_ablation_path())
        .expect("ablation fixture store is committed under tests/fixtures/");
    let files = ablation_snapshots(&store);
    assert_matches_snapshot_dir(&fixtures_dir().join("golden_ablation"), &files);
    // One point per (mechanism, VC budget), each averaging two replicas.
    assert_eq!(files[1].1.lines().count(), 1 + 4, "{}", files[1].1);
}

#[test]
fn golden_store_reruns_are_fingerprint_complete() {
    // Every committed store must be complete for its specs: re-running the
    // campaigns against a copy skips everything (nothing is re-simulated and
    // the bytes do not change).
    let stores = [
        (store_path(), vec![golden_rate_spec(), golden_batch_spec()]),
        (store_v2_path(), vec![golden_v2_spec()]),
        (store_single_path(), golden_single_specs().to_vec()),
        (store_ablation_path(), vec![golden_ablation_spec()]),
    ];
    for (i, (path, specs)) in stores.iter().enumerate() {
        let copy = std::env::temp_dir().join(format!(
            "surepath-golden-copy-{}-{i}.jsonl",
            std::process::id()
        ));
        std::fs::copy(path, &copy).unwrap();
        for spec in specs {
            let outcome = run_campaign(spec, &copy, Some(2), true).unwrap();
            assert_eq!(outcome.executed, 0, "campaign `{}` re-ran jobs", spec.name);
            assert!(outcome.is_complete());
        }
        assert_eq!(
            std::fs::read(path).unwrap(),
            std::fs::read(&copy).unwrap(),
            "re-finalizing a complete store must not change its bytes"
        );
        let _ = std::fs::remove_file(&copy);
    }
}

/// Records `specs` into the fixture store at `path` unless it is committed.
fn record_missing_store(path: &Path, specs: &[CampaignSpec]) {
    if path.exists() {
        return;
    }
    for spec in specs {
        let outcome = run_campaign(spec, path, Some(2), true).unwrap();
        assert!(outcome.is_complete(), "campaign `{}` failed", spec.name);
    }
    let _ = std::fs::remove_file(surepath::runner::timings_path(path));
}

/// Regenerates the snapshots (and any missing fixture store). Run explicitly
/// (`--ignored`) after an intentional format change, then commit the updated
/// files.
#[test]
#[ignore]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(fixtures_dir()).unwrap();
    record_missing_store(&store_path(), &[golden_rate_spec(), golden_batch_spec()]);
    record_missing_store(&store_v2_path(), &[golden_v2_spec()]);
    record_missing_store(&store_single_path(), &golden_single_specs());
    record_missing_store(&store_ablation_path(), &[golden_ablation_spec()]);

    let store = ResultStore::open_read_only(&store_path()).unwrap();
    std::fs::write(report_path(), report_store(&store)).unwrap();
    std::fs::write(diff_path(), format_store_diff(&diff_stores(&store, &store))).unwrap();
    let v2 = ResultStore::open_read_only(&store_v2_path()).unwrap();
    std::fs::write(report_v2_path(), report_store(&v2)).unwrap();
    write_snapshot_dir(&fixtures_dir().join("golden_v2"), &v2_snapshots(&v2));
    let single = ResultStore::open_read_only(&store_single_path()).unwrap();
    write_snapshot_dir(
        &fixtures_dir().join("golden_single"),
        &single_snapshots(&single),
    );
    let ablation = ResultStore::open_read_only(&store_ablation_path()).unwrap();
    write_snapshot_dir(
        &fixtures_dir().join("golden_ablation"),
        &ablation_snapshots(&ablation),
    );
}
