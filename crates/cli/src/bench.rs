//! The `surepath bench` subcommand: the engine perf harness.
//!
//! Runs the pinned micro-campaign matrix of `hyperx_bench::perf` (mechanism
//! × load × size), printing cycles/sec, packets/sec and p99 latency per
//! cell plus the RNG-contract and tracer pairs, and writes the
//! machine-readable report to `BENCH_ENGINE.json` (stable schema) so the
//! repo accumulates a perf trajectory across PRs. A traced run diverging
//! from its plain twin is a hard error, so every bench run also re-checks
//! the zero-perturbation contract.

use crate::CommandOutput;
use hyperx_bench::perf::{format_bench_report, run_engine_bench, BenchMatrix};

/// The usage string of the `bench` subcommand.
pub const BENCH_USAGE: &str =
    "usage: surepath bench [--quick|--full] [--out <path>] [--repeat N] [--quiet]
  Benchmarks the cycle-level engine over a pinned matrix (mechanism x load
  x topology size), plus a second matrix comparing RNG contract v1
  (per-server Bernoulli scan) against v2 (counting sampler), plus a third
  timing the observability layer (the always-on counter registry vs the
  same run with the packet tracer attached). Paired runs share seeds:
  traced metrics that differ from the plain run fail the command.

  --quick              small topologies and short windows (default)
  --full               larger topologies and longer windows
  --out PATH           JSON report path (default: BENCH_ENGINE.json)
  --repeat N           timed repetitions per run of a cell; the best
                       run is reported (default 1)
  --quiet              suppress per-cell progress on stderr
  --help               this message";

/// A parsed `surepath bench` command line.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCliConfig {
    /// Small matrix (`--quick`, the default) or the larger one (`--full`).
    pub quick: bool,
    /// Where to write the JSON report.
    pub out: String,
    /// Timed repetitions per run of a cell.
    pub repeat: usize,
    /// Suppress per-cell progress output.
    pub quiet: bool,
}

impl Default for BenchCliConfig {
    fn default() -> Self {
        BenchCliConfig {
            quick: true,
            out: "BENCH_ENGINE.json".to_string(),
            repeat: 1,
            quiet: false,
        }
    }
}

/// Parses the arguments of the `bench` subcommand (everything after the
/// literal `bench`).
pub fn parse_bench_args(args: &[String]) -> Result<BenchCliConfig, String> {
    let mut cfg = BenchCliConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--full" => cfg.quick = false,
            "--out" => cfg.out = value("--out")?,
            "--repeat" => {
                cfg.repeat = match value("--repeat")?.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => return Err("--repeat must be a positive integer".to_string()),
                };
            }
            "--quiet" => cfg.quiet = true,
            "--help" | "-h" => return Err(BENCH_USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{BENCH_USAGE}")),
        }
    }
    Ok(cfg)
}

/// Runs the bench, writes the JSON report and returns the table to print.
/// Any metrics divergence between paired runs is an error (nonzero exit).
pub fn run_bench_command(cfg: &BenchCliConfig) -> Result<CommandOutput, String> {
    let matrix = BenchMatrix::pinned(cfg.quick);
    let quiet = cfg.quiet;
    let report = run_engine_bench(&matrix, cfg.repeat, |done, total, line| {
        if !quiet {
            eprintln!("[bench {done}/{total}] {line}");
        }
    });
    let mut json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    json.push('\n');
    std::fs::write(&cfg.out, json).map_err(|e| format!("could not write {}: {e}", cfg.out))?;
    let mut text = format_bench_report(&report);
    text.push_str(&format!("(report written to {})\n", cfg.out));
    if !report.summary.all_obs_metrics_identical {
        return Err(format!(
            "{text}observability divergence: plain and traced metrics differ — \
             the zero-perturbation contract is broken"
        ));
    }
    Ok(CommandOutput { text, exit_code: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bench_args_parse_and_reject() {
        assert_eq!(parse_bench_args(&[]).unwrap(), BenchCliConfig::default());
        let cfg = parse_bench_args(&args(&[
            "--full",
            "--out",
            "perf.json",
            "--repeat",
            "3",
            "--quiet",
        ]))
        .unwrap();
        assert!(!cfg.quick);
        assert_eq!(cfg.out, "perf.json");
        assert_eq!(cfg.repeat, 3);
        assert!(cfg.quiet);
        assert!(parse_bench_args(&args(&["--repeat", "0"])).is_err());
        assert!(parse_bench_args(&args(&["--bogus"])).is_err());
        assert!(parse_bench_args(&args(&["--help"]))
            .unwrap_err()
            .contains("usage"));
    }

    // Running the pinned matrix is too slow for a unit test; the end-to-end
    // command (JSON written, schema fields, exit code) is covered by the CI
    // bench smoke job and by crates/bench's tiny-matrix perf tests.
}
