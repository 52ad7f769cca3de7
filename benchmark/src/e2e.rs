//! End-to-end measurement: one `surepath campaign` child per repeat, timed
//! and resource-accounted by a re-executed wrapper process, plus the set-up
//! time measured around the library calls.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one campaign child cost.
#[derive(Clone, Copy, Debug)]
pub struct ChildSample {
    /// Spec to finalized store, around the child.
    pub wall_s: f64,
    /// User plus system time of the whole process tree.
    pub cpu_s: f64,
    /// Resident set of the largest process in the tree.
    pub peak_rss_mb: f64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the resource wrapper reads Linux's 64-bit `struct rusage`");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux's `struct rusage`: two timevals, then fourteen longs, the first of
/// which is `ru_maxrss` in kilobytes.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// CPU seconds and peak RSS (MB) of every waited-for descendant.
fn children_usage() -> std::io::Result<(f64, f64)> {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of Linux's
    // 64-bit `struct rusage` (checked by the cfg above), and getrusage
    // writes only within that struct.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok((
        secs(&usage.utime) + secs(&usage.stime),
        usage.maxrss_kb as f64 / 1024.0,
    ))
}

/// The wrapper's body: runs `cmd`, waits for it, then prints one JSON line
/// with the child's exit code, wall time and the usage of its whole tree.
/// A fresh wrapper per child keeps `RUSAGE_CHILDREN` to exactly that tree
/// (a `--spawn-local` coordinator waits for its workers, so their usage is
/// folded into the coordinator's).
pub fn wrap(cmd: &[String]) -> Result<(), String> {
    let (program, args) = cmd.split_first().ok_or("wrap needs a command")?;
    let start = Instant::now();
    let status = Command::new(program)
        .args(args)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let (cpu_s, peak_rss_mb) = children_usage().map_err(|e| format!("getrusage: {e}"))?;
    println!(
        "{{\"code\":{},\"wall_s\":{wall_s},\"cpu_s\":{cpu_s},\"peak_rss_mb\":{peak_rss_mb}}}",
        status.code().unwrap_or(-1)
    );
    Ok(())
}

/// Runs `surepath campaign <spec> --store <store> --quiet <args>` under the
/// wrapper and returns its cost; a nonzero exit is an error.
pub fn run_child(
    surepath: &Path,
    spec: &Path,
    store: &Path,
    args: &[String],
) -> Result<ChildSample, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let out = Command::new(me)
        .arg("wrap")
        .arg("--")
        .arg(surepath)
        .arg("campaign")
        .arg(spec)
        .arg("--store")
        .arg(store)
        .arg("--quiet")
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the wrapper: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let v: serde::Value =
        serde_json::from_str(line).map_err(|e| format!("wrapper said {line:?}: {e}"))?;
    let num = |k: &str| {
        v[k].as_f64()
            .ok_or(format!("wrapper output lacks {k}: {line}"))
    };
    if !out.status.success() || v["code"].as_i64() != Some(0) {
        return Err(format!(
            "`surepath campaign {}` failed (wrapper: {line})",
            spec.display()
        ));
    }
    Ok(ChildSample {
        wall_s: num("wall_s")?,
        cpu_s: num("cpu_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
    })
}

/// Runs [`setup_seconds`] in a fresh process (`surepath-benchmark setup`),
/// which starts cold as `surepath campaign` does; a repeat inside one
/// process would reuse the heap an earlier set-up already faulted in.
pub fn run_setup(spec: &Path, store: &Path) -> Result<f64, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let out = Command::new(me)
        .arg("setup")
        .arg(spec)
        .arg(store)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!("set-up probe failed: {}", text.trim())),
    }
}

/// Seconds from reading the spec until the first simulator is ready to
/// step, through the same public entry points the CLI takes: spec load,
/// validation, expansion, store open, and the first job's experiment, view
/// and simulator. Measured in-process without tracing.
pub fn setup_seconds(spec_path: &Path, store_path: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let spec = surepath_runner::load_spec_file(spec_path)?;
    surepath_core::validate_campaign(&spec)?;
    let jobs = spec.expand()?;
    let store = surepath_runner::ResultStore::open(store_path)
        .map_err(|e| format!("cannot open {}: {e}", store_path.display()))?;
    let job = jobs.first().ok_or("the campaign has no jobs")?;
    let mut experiment = surepath_core::job_experiment(job)?;
    experiment.sim.partitions = spec.partitions.unwrap_or(1).max(1);
    let view = experiment.build_view();
    let sim = experiment.build_simulator_with_view(view);
    let seconds = start.elapsed().as_secs_f64();
    drop((sim, store));
    std::fs::remove_file(store_path).map_err(|e| format!("cannot remove set-up store: {e}"))?;
    Ok(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_usage_grows_after_a_child_runs() {
        let (cpu_before, _) = children_usage().unwrap();
        let status = Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .status()
            .unwrap();
        assert!(status.success());
        let (cpu_after, rss_mb) = children_usage().unwrap();
        assert!(cpu_after > cpu_before, "{cpu_before} -> {cpu_after}");
        assert!(rss_mb > 0.0);
    }
}
