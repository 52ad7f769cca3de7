//! `--spawn-local` does not wait for a spawned worker that never joined: a
//! worker that dials after the grid drained finds the port closed, and the
//! campaign stops it instead of waiting out its reconnect budget.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Two jobs: fewer than the four workers spawned below.
const SPEC: &str = r#"name = "spawn-local-linger"
mechanisms = ["omnisp"]
traffics = ["uniform"]
scenarios = ["none", "random:3:2"]
loads = [0.3]
vcs = 4
warmup = 30
measure = 80

[[topologies]]
sides = [4, 4]
"#;

fn tmp_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn spawn_local_returns_promptly_when_workers_outnumber_jobs() {
    let spec = tmp_path("spawn_local_linger.toml");
    std::fs::write(&spec, SPEC).unwrap();
    let store = tmp_path("spawn_local_linger.jsonl");
    for run in 0..10 {
        for suffix in ["jsonl", "manifest.jsonl", "timings.jsonl"] {
            let _ = std::fs::remove_file(store.with_extension(suffix));
        }
        let started = Instant::now();
        let output = Command::new(env!("CARGO_BIN_EXE_surepath"))
            .args([
                "campaign",
                spec.to_str().unwrap(),
                "--quiet",
                "--store",
                store.to_str().unwrap(),
                "--spawn-local",
                "4",
                "--threads",
                "1",
            ])
            .output()
            .expect("the surepath binary runs");
        let elapsed = started.elapsed();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "run {run}: {stderr}");
        assert!(
            elapsed < Duration::from_secs(10),
            "run {run} took {elapsed:?}"
        );
        assert!(
            stdout.contains("2 executed") && !stdout.contains("exited nonzero"),
            "run {run}: {stdout}"
        );
    }
}
