//! # hyperx-bench
//!
//! The benchmark harness of the SurePath reproduction. Each binary in
//! `src/bin/` regenerates the data behind one table or figure of the paper
//! (see DESIGN.md for the experiment index); the Criterion benches in
//! `benches/` measure the hot paths of the topology, routing and simulation
//! layers.
//!
//! Every figure binary accepts:
//!
//! * `--quick` (default) — scaled-down topologies (8×8 and 4×4×4) and short
//!   measurement windows, so the whole suite runs on a laptop in minutes;
//! * `--full` — the paper's 16×16 and 8×8×8 networks with Table 2 windows
//!   (hours of CPU time; the shapes are the same, the absolute numbers larger);
//! * `--csv <path>` — additionally write the results as CSV.
//!
//! Every experiment binary executes on the **campaign runner**: it builds a
//! declarative [`CampaignSpec`], runs it on the bounded thread pool
//! (`--threads`) against a resumable JSONL result store (`--store`), and
//! renders its figure/table **from the store** — so re-running skips every
//! fingerprint-complete point, and `surepath campaign --report <store>`
//! reproduces the output without simulating.

pub mod perf;

use hyperx_routing::MechanismSpec;
use surepath_core::{CampaignSpec, Experiment, ResultStore, TrafficSpec};

/// Which topology/window scale a figure binary runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down topologies and short windows (default).
    Quick,
    /// The paper's full-size topologies and windows.
    Paper,
}

/// Command-line options shared by every figure binary.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Scale of the experiment.
    pub scale: Scale,
    /// Optional path for a CSV copy of the results.
    pub csv: Option<String>,
    /// Campaign result store path override (`--store`); binaries ported onto
    /// the campaign runner resume from this JSONL file.
    pub store: Option<String>,
    /// Worker thread count override (`--threads`).
    pub threads: Option<usize>,
    /// Fan the campaigns out to this many TCP workers (`--distributed N`)
    /// instead of the in-process pool. The store stays byte-identical either
    /// way; this exercises (and scales on) the coordinator/worker path.
    pub distributed: Option<usize>,
}

const HARNESS_USAGE: &str = "usage: [--quick|--full] [--csv <path>] [--store <results.jsonl>] \
     [--threads <n>] [--distributed <workers>]";

impl HarnessOptions {
    /// Parses the options from `std::env::args`, exiting with a usage message
    /// on unknown flags.
    pub fn from_args() -> Self {
        let mut scale = Scale::Quick;
        let mut csv = None;
        let mut store = None;
        let mut threads = None;
        let mut distributed = None;
        let mut args = std::env::args().skip(1);
        let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => scale = Scale::Quick,
                "--full" | "--paper" => scale = Scale::Paper,
                "--csv" => csv = Some(value(&mut args, "--csv")),
                "--store" => store = Some(value(&mut args, "--store")),
                "--threads" => {
                    let n: usize = value(&mut args, "--threads").parse().unwrap_or(0);
                    if n == 0 {
                        eprintln!("--threads must be a positive integer");
                        std::process::exit(2);
                    }
                    threads = Some(n);
                }
                "--distributed" => {
                    let n: usize = value(&mut args, "--distributed").parse().unwrap_or(0);
                    if n == 0 {
                        eprintln!("--distributed must be a positive worker count");
                        std::process::exit(2);
                    }
                    distributed = Some(n);
                }
                "--help" | "-h" => {
                    println!("{HARNESS_USAGE}");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    eprintln!("{HARNESS_USAGE}");
                    std::process::exit(2);
                }
            }
        }
        HarnessOptions {
            scale,
            csv,
            store,
            threads,
            distributed,
        }
    }

    /// The campaign store path for a figure binary: `--store` if given, else
    /// `results/<stem>_<scale>.jsonl`.
    pub fn store_path(&self, stem: &str) -> std::path::PathBuf {
        match &self.store {
            Some(path) => std::path::PathBuf::from(path),
            None => {
                let scale = match self.scale {
                    Scale::Quick => "quick",
                    Scale::Paper => "full",
                };
                std::path::PathBuf::from(format!("results/{stem}_{scale}.jsonl"))
            }
        }
    }

    /// Writes `contents` to the CSV path if one was requested.
    pub fn maybe_write_csv(&self, contents: &str) {
        if let Some(path) = &self.csv {
            std::fs::write(path, contents).unwrap_or_else(|e| {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            });
            println!("(results also written to {path})");
        }
    }
}

/// Runs every campaign against the shared store at `opts.store_path(stem)`
/// (skipping fingerprint-complete points, so interrupted runs resume) and
/// reopens the store for rendering. Prints per-campaign outcomes on stderr
/// and exits with a message if a campaign cannot run.
///
/// With `--distributed N` the campaigns fan out over the coordinator/worker
/// TCP path instead of the in-process pool: N workers connect over
/// loopback, each running the same simulation bridge. The resulting store
/// is byte-identical either way — that is the distributed driver's
/// determinism contract.
pub fn run_campaigns_to_store(
    opts: &HarnessOptions,
    stem: &str,
    campaigns: &[CampaignSpec],
) -> ResultStore {
    let store_path = opts.store_path(stem);
    for campaign in campaigns {
        match opts.distributed {
            None => {
                let outcome =
                    surepath_core::run_campaign(campaign, &store_path, opts.threads, true)
                        .unwrap_or_else(|e| {
                            eprintln!("campaign `{}` failed: {e}", campaign.name);
                            std::process::exit(1);
                        });
                eprintln!(
                    "{}: {} points ({} skipped, {} executed, {} failed)",
                    campaign.name, outcome.total, outcome.skipped, outcome.executed, outcome.failed
                );
            }
            Some(workers) => {
                let outcome = run_campaign_distributed(campaign, &store_path, workers, opts)
                    .unwrap_or_else(|e| {
                        eprintln!("distributed campaign `{}` failed: {e}", campaign.name);
                        std::process::exit(1);
                    });
                eprintln!(
                    "{}: {} points ({} skipped, {} executed, {} failed) on {} workers",
                    campaign.name,
                    outcome.total,
                    outcome.skipped,
                    outcome.executed,
                    outcome.failed,
                    outcome.workers
                );
            }
        }
    }
    eprintln!(
        "(campaign store: {}; rerun to resume/skip)",
        store_path.display()
    );
    ResultStore::open_read_only(&store_path).unwrap_or_else(|e| {
        eprintln!("cannot reopen store {}: {e}", store_path.display());
        std::process::exit(1);
    })
}

/// The `--distributed` execution path: a loopback coordinator plus
/// `workers` in-process worker threads, all running `run_job`. The
/// coordinator's machinery (the lease queue, the manifest sidecar) is
/// exactly what a multi-host run uses — only the transport distance
/// differs.
fn run_campaign_distributed(
    campaign: &CampaignSpec,
    store_path: &std::path::Path,
    workers: usize,
    opts: &HarnessOptions,
) -> Result<surepath_dist::ServeOutcome, String> {
    surepath_core::validate_campaign(campaign)?;
    let jobs = campaign.expand()?;
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot bind a loopback coordinator: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve coordinator address: {e}"))?
        .to_string();
    let threads_each = opts
        .threads
        .unwrap_or_else(surepath_runner::default_threads)
        .div_ceil(workers)
        .max(1);
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                surepath_dist::run_worker(
                    &addr,
                    &format!("bench-worker-{i}"),
                    &surepath_dist::WorkerOptions {
                        threads: Some(threads_each),
                        ..surepath_dist::WorkerOptions::default()
                    },
                    surepath_core::run_job,
                )
            })
        })
        .collect();
    let outcome = surepath_dist::serve(
        listener,
        &campaign.name,
        &jobs,
        store_path,
        &surepath_dist::ServeOptions {
            quiet: true,
            ..surepath_dist::ServeOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    for handle in handles {
        handle
            .join()
            .map_err(|_| "worker thread panicked".to_string())?
            .map_err(|e| format!("worker failed: {e}"))?;
    }
    Ok(outcome)
}

/// Renders a Figures-8/9-style fault-shape comparison from the store: one
/// section per shape with faulty vs healthy accepted load (replica mean ±
/// CI) and the drop percentage of the means, for every (traffic, SurePath
/// mechanism) pair, appending CSV rows. `label_width` sizes the
/// `traffic / mechanism` column (the 3D pattern names are longer).
pub fn render_fault_shape_figure(
    figure: &str,
    label_width: usize,
    store: &ResultStore,
    campaign: &str,
    patterns: &[TrafficSpec],
    shapes: &[(&str, surepath_core::FaultScenario)],
    csv: &mut String,
) {
    use surepath_core::{csv_half_width, format_mean_hw, FaultScenario, RateMetrics};
    // Index replica-aggregated accepted loads by (mechanism, traffic,
    // scenario) display names.
    let mut accepted = std::collections::HashMap::new();
    for p in surepath_core::store_points(store, campaign, "rate") {
        if !p.runs::<RateMetrics>().is_empty() {
            let summary = p.summary(|m: &RateMetrics| m.accepted_load);
            accepted.insert((p.mechanism, p.traffic, p.scenario), summary);
        }
    }
    for (shape_name, scenario) in shapes {
        println!("=== {figure} / {shape_name} faults ===");
        println!(
            "{:>label_width$}  {:>14}  {:>14}  {:>8}",
            "traffic / mechanism", "faulty", "healthy", "drop%"
        );
        for &traffic in patterns {
            for mechanism in MechanismSpec::surepath_lineup() {
                let key = |s: &FaultScenario| {
                    (
                        mechanism.name().to_string(),
                        traffic.name().to_string(),
                        s.name(),
                    )
                };
                let (Some(faulty), Some(healthy)) = (
                    accepted.get(&key(scenario)),
                    accepted.get(&key(&FaultScenario::None)),
                ) else {
                    println!(
                        "{:>label_width$}  (missing from store; rerun to retry)",
                        format!("{} / {}", traffic.name(), mechanism.name())
                    );
                    continue;
                };
                let drop = if healthy.mean > 0.0 {
                    100.0 * (1.0 - faulty.mean / healthy.mean)
                } else {
                    0.0
                };
                println!(
                    "{:>label_width$}  {:>14}  {:>14}  {drop:>8.1}",
                    format!("{} / {}", traffic.name(), mechanism.name()),
                    format_mean_hw(faulty, 3),
                    format_mean_hw(healthy, 3),
                );
                csv.push_str(&format!(
                    "{shape_name},{},{},{},{:.6},{},{:.6},{},{drop:.2}\n",
                    traffic.name().replace(',', ";"),
                    mechanism.name(),
                    faulty.n,
                    faulty.mean,
                    csv_half_width(faulty, 6),
                    healthy.mean,
                    csv_half_width(healthy, 6),
                ));
            }
        }
        println!();
    }
}

/// The mechanism keys (campaign-spec form) of a lineup.
pub fn mechanism_keys(lineup: &[MechanismSpec]) -> Vec<String> {
    lineup
        .iter()
        .map(|m| m.name().to_ascii_lowercase())
        .collect()
}

/// The traffic keys (campaign-spec form) of a lineup.
pub fn traffic_keys(lineup: &[TrafficSpec]) -> Vec<String> {
    lineup.iter().map(|t| t.key().to_string()).collect()
}

/// The 2D experiment template at the given scale.
pub fn experiment_2d(scale: Scale, mechanism: MechanismSpec, traffic: TrafficSpec) -> Experiment {
    match scale {
        Scale::Quick => Experiment::quick_2d(mechanism, traffic),
        Scale::Paper => Experiment::paper_2d(mechanism, traffic),
    }
}

/// The 3D experiment template at the given scale.
pub fn experiment_3d(scale: Scale, mechanism: MechanismSpec, traffic: TrafficSpec) -> Experiment {
    match scale {
        Scale::Quick => Experiment::quick_3d(mechanism, traffic),
        Scale::Paper => Experiment::paper_3d(mechanism, traffic),
    }
}

/// The offered-load grid used by the fault-free sweeps at the given scale.
pub fn load_grid(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        Scale::Paper => surepath_core::paper_load_grid(),
    }
}

/// The random-fault counts of Figure 6 at the given scale.
pub fn fault_steps(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => (0..=5).map(|i| i * 10).collect(),
        Scale::Paper => (0..=10).map(|i| i * 10).collect(),
    }
}

/// The offered load the bar-chart fault experiments (Figures 8 and 9) use:
/// high enough to be at or past saturation for every mechanism.
pub fn saturation_load() -> f64 {
    0.9
}

/// The replication factor of the figure campaigns at the given scale: every
/// grid point runs this many seeds, so the rendered tables carry a mean ±
/// CI instead of a single draw. Kept small at quick scale (the suite stays
/// laptop-sized) and a bit deeper at paper scale.
pub fn replicas(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 3,
        Scale::Paper => 5,
    }
}

/// The (warmup, measure) simulation windows at the given scale, for campaign
/// specs (matching `SimConfig::quick` and Table 2 respectively).
pub fn windows(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Quick => (1_000, 2_000),
        Scale::Paper => (5_000, 10_000),
    }
}

/// The 2D/3D topology sides at the given scale.
pub fn sides_2d(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![8, 8],
        Scale::Paper => vec![16, 16],
    }
}

/// See [`sides_2d`].
pub fn sides_3d(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![4, 4, 4],
        Scale::Paper => vec![8, 8, 8],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_pick_the_right_topologies() {
        let q = experiment_2d(Scale::Quick, MechanismSpec::OmniSP, TrafficSpec::Uniform);
        assert_eq!(q.sides, vec![8, 8]);
        let p = experiment_2d(Scale::Paper, MechanismSpec::OmniSP, TrafficSpec::Uniform);
        assert_eq!(p.sides, vec![16, 16]);
        let q3 = experiment_3d(Scale::Quick, MechanismSpec::PolSP, TrafficSpec::Uniform);
        assert_eq!(q3.sides, vec![4, 4, 4]);
        let p3 = experiment_3d(Scale::Paper, MechanismSpec::PolSP, TrafficSpec::Uniform);
        assert_eq!(p3.sides, vec![8, 8, 8]);
    }

    #[test]
    fn grids_are_well_formed() {
        assert_eq!(load_grid(Scale::Paper).len(), 20);
        assert_eq!(load_grid(Scale::Quick).len(), 10);
        assert_eq!(fault_steps(Scale::Quick).last(), Some(&50));
        assert_eq!(fault_steps(Scale::Paper).last(), Some(&100));
        assert!(saturation_load() > 0.8);
        assert!(replicas(Scale::Quick) >= 2, "CIs need at least 2 replicas");
        assert!(replicas(Scale::Paper) >= replicas(Scale::Quick));
    }

    #[test]
    fn campaign_helpers_match_experiment_templates() {
        // The campaign-spec helpers must describe the same configurations the
        // Experiment constructors build, or fingerprints would quietly drift.
        let q2 = experiment_2d(Scale::Quick, MechanismSpec::OmniSP, TrafficSpec::Uniform);
        assert_eq!(sides_2d(Scale::Quick), q2.sides);
        assert_eq!(
            windows(Scale::Quick),
            (q2.sim.warmup_cycles, q2.sim.measure_cycles)
        );
        let p3 = experiment_3d(Scale::Paper, MechanismSpec::PolSP, TrafficSpec::Uniform);
        assert_eq!(sides_3d(Scale::Paper), p3.sides);
        assert_eq!(
            windows(Scale::Paper),
            (p3.sim.warmup_cycles, p3.sim.measure_cycles)
        );
        let opts = HarnessOptions {
            scale: Scale::Quick,
            csv: None,
            store: None,
            threads: None,
            distributed: None,
        };
        assert_eq!(
            opts.store_path("fig06"),
            std::path::PathBuf::from("results/fig06_quick.jsonl")
        );
    }
}
