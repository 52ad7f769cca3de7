//! Experiments whose traffic pattern the topology cannot carry, switches
//! too wide for the engine, and `--batch 0` are refused up front: a single
//! run exits 2 with a message instead of panicking, and a campaign exits 2
//! naming the job before any job runs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn surepath(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_surepath"))
        .args(args)
        .output()
        .expect("the surepath binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn single_runs_exit_2_with_a_message() {
    for (args, message) in [
        (
            &[
                "--sides",
                "4x4",
                "--mechanism",
                "omnisp",
                "--traffic",
                "rpn",
                "--batch",
                "2",
            ][..],
            "RPN is defined on 3D HyperX networks, got 2 dimension(s)",
        ),
        (
            &["--sides", "3x3x3", "--traffic", "rpn", "--load", "0.1"][..],
            "RPN requires an even side, got 3",
        ),
        (
            &[
                "--sides",
                "4x4",
                "--concentration",
                "2",
                "--traffic",
                "dcr",
                "--load",
                "0.1",
            ][..],
            "so the concentration must equal the side 4, got 2",
        ),
        (
            &["--sides", "4x8", "--traffic", "transpose", "--load", "0.1"][..],
            "Transpose requires a regular HyperX (all sides equal), got sides [4, 8]",
        ),
        (
            &["--sides", "4x4", "--batch", "0"][..],
            "--batch must be at least 1 packet per server",
        ),
        (
            &[
                "--sides",
                "4x4",
                "--concentration",
                "70000",
                "--mechanism",
                "minimal",
                "--vcs",
                "4",
                "--load",
                "0.1",
                "--warmup",
                "1",
                "--measure",
                "1",
            ][..],
            "a switch with 70006 ports (radix plus concentration) does not fit",
        ),
    ] {
        let output = surepath(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(
            stderr(&output).contains(message),
            "{args:?}: {}",
            stderr(&output)
        );
    }
}

#[test]
fn campaigns_reject_the_job_before_running_any() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let spec = dir.join("rpn_on_a_plane.toml");
    let store = dir.join("rpn_on_a_plane.results.jsonl");
    let _ = std::fs::remove_file(&store);
    std::fs::write(
        &spec,
        r#"name = "rpn-on-a-plane"
mechanisms = ["omnisp"]
traffics = ["uniform", "rpn"]
loads = [0.1]
warmup = 20
measure = 20

[[topologies]]
sides = [4, 4]
"#,
    )
    .unwrap();
    let output = surepath(&[
        "campaign",
        spec.to_str().unwrap(),
        "--quiet",
        "--store",
        store.to_str().unwrap(),
    ]);
    let err = stderr(&output);
    assert_eq!(output.status.code(), Some(2), "{err}");
    assert!(err.contains("campaign `rpn-on-a-plane` job #1"), "{err}");
    assert!(
        err.contains("RPN is defined on 3D HyperX networks"),
        "{err}"
    );
    assert!(!store.exists(), "no job ran, so no store was written");
}

#[test]
fn campaigns_reject_switches_too_wide_for_the_engine() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let spec = dir.join("too_wide.toml");
    let store = dir.join("too_wide.results.jsonl");
    let _ = std::fs::remove_file(&store);
    std::fs::write(
        &spec,
        r#"name = "too-wide"
mechanisms = ["minimal"]
loads = [0.1]
vcs = 4
warmup = 1
measure = 1

[[topologies]]
sides = [4, 4]
concentration = 70000
"#,
    )
    .unwrap();
    let output = surepath(&[
        "campaign",
        spec.to_str().unwrap(),
        "--quiet",
        "--store",
        store.to_str().unwrap(),
    ]);
    let err = stderr(&output);
    assert_eq!(output.status.code(), Some(2), "{err}");
    assert!(err.contains("campaign `too-wide` job #0"), "{err}");
    assert!(err.contains("16-bit port index"), "{err}");
    assert!(!store.exists(), "no job ran, so no store was written");
}
