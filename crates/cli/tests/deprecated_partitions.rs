//! The `partitions` spec key and the `--partitions` flag are deprecated and
//! ignored: a run that sets either prints one warning on stderr and writes
//! the store bytes of a plain run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WARNING: &str = "deprecated and ignored";

const SPEC: &str = r#"name = "deprecated-partitions"
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

fn surepath(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_surepath"))
        .args(args)
        .output()
        .expect("the surepath binary runs")
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs `surepath campaign <spec> <extra>` into a fresh store and returns
/// its bytes and the run's stderr.
fn run(spec: &Path, store: &str, extra: &[&str]) -> (Vec<u8>, String) {
    let store = scratch(store);
    for suffix in ["jsonl", "manifest.jsonl", "timings.jsonl"] {
        let _ = std::fs::remove_file(store.with_extension(suffix));
    }
    let mut args = vec![
        "campaign",
        spec.to_str().unwrap(),
        "--quiet",
        "--store",
        store.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let output = surepath(&args);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(0), "{extra:?}: {stderr}");
    (std::fs::read(&store).unwrap(), stderr)
}

#[test]
fn partitions_warn_once_and_change_no_store_byte() {
    let plain_spec = scratch("deprecated_partitions_plain.toml");
    std::fs::write(&plain_spec, SPEC).unwrap();
    let keyed_spec = scratch("deprecated_partitions_keyed.toml");
    std::fs::write(&keyed_spec, format!("partitions = 4\n{SPEC}")).unwrap();

    let (plain, stderr) = run(&plain_spec, "deprecated_partitions_plain.jsonl", &[]);
    assert!(!stderr.contains(WARNING), "{stderr}");
    for (spec, store, extra) in [
        (&keyed_spec, "deprecated_partitions_key.jsonl", &[][..]),
        (
            &plain_spec,
            "deprecated_partitions_flag.jsonl",
            &["--partitions", "2"][..],
        ),
        (
            &keyed_spec,
            "deprecated_partitions_both.jsonl",
            &["--partitions", "2"][..],
        ),
        (
            &keyed_spec,
            "deprecated_partitions_spawned.jsonl",
            &["--spawn-local", "1", "--partitions", "2"][..],
        ),
    ] {
        let (bytes, stderr) = run(spec, store, extra);
        assert_eq!(stderr.matches(WARNING).count(), 1, "{store}: {stderr}");
        assert!(
            bytes == plain,
            "{store}: the store differs from a plain run"
        );
    }
}

#[test]
fn zero_partitions_is_still_rejected() {
    let spec = scratch("deprecated_partitions_zero.toml");
    std::fs::write(&spec, format!("partitions = 0\n{SPEC}")).unwrap();
    let output = surepath(&["campaign", spec.to_str().unwrap(), "--dry-run"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("`partitions` must be at least 1"),
        "{stderr}"
    );
    let output = surepath(&["campaign", "x.toml", "--partitions", "0"]);
    assert_eq!(output.status.code(), Some(2));
}
