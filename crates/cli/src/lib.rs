//! Argument parsing and experiment construction for the `surepath` binary.
//!
//! The command line maps one-to-one onto [`surepath_core::Experiment`]: pick a
//! HyperX, a routing mechanism, a traffic pattern, an optional fault scenario
//! and an operating point, run it, and print the paper's metrics as text or
//! JSON. Everything the figure binaries do can also be scripted through this
//! front end, one point at a time.

pub mod bench;
pub use bench::{parse_bench_args, run_bench_command, BenchCliConfig, BENCH_USAGE};

use hyperx_routing::MechanismSpec;
use surepath_core::{Experiment, FaultScenario, RootPlacement, SimConfig, TrafficSpec};

/// What the simulation should measure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RunMode {
    /// Open-loop run at a fixed offered load (phits/cycle/server).
    Rate(f64),
    /// Closed-loop run: every server sends this many packets, measure completion time.
    Batch(u64),
}

/// A fully parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct CliConfig {
    /// HyperX sides, e.g. `[8, 8, 8]`.
    pub sides: Vec<usize>,
    /// Servers per switch.
    pub concentration: usize,
    /// Routing mechanism.
    pub mechanism: MechanismSpec,
    /// Traffic pattern.
    pub traffic: TrafficSpec,
    /// Fault scenario.
    pub scenario: FaultScenario,
    /// Escape-root placement.
    pub root: RootPlacement,
    /// Virtual channels per port (`None` = the paper's 2n default).
    pub vcs: Option<usize>,
    /// Random seed.
    pub seed: u64,
    /// Warmup and measurement windows (`None` = Table 2 defaults).
    pub windows: Option<(u64, u64)>,
    /// Rate or batch mode.
    pub mode: RunMode,
    /// Print JSON instead of text.
    pub json: bool,
}

impl Default for CliConfig {
    fn default() -> Self {
        CliConfig {
            sides: vec![8, 8, 8],
            concentration: 8,
            mechanism: MechanismSpec::PolSP,
            traffic: TrafficSpec::Uniform,
            scenario: FaultScenario::None,
            root: RootPlacement::Suggested,
            vcs: None,
            seed: 1,
            windows: None,
            mode: RunMode::Rate(0.5),
            json: false,
        }
    }
}

/// The usage string of the `campaign` subcommand.
pub const CAMPAIGN_USAGE: &str = "usage: surepath campaign <spec.toml|spec.json> [options]
       surepath campaign <spec> --serve <addr> | --spawn-local <n> [options]
       surepath campaign --worker <addr> [--threads N]
                         [--reconnect-retries N] [--backoff-ms N] [--quiet]
       surepath campaign --report <store.jsonl>... [--merge <out.jsonl>] [--csv <out.csv>]
                         [--plots <dir> [--gnuplot]] [--timings]
       surepath campaign --merge <out.jsonl> <store.jsonl>...
       surepath campaign --diff <baseline.jsonl> <candidate.jsonl>
                         [--campaign <name>] [--csv <out.csv>]
  Runs (or resumes) a declarative experiment campaign: the spec's
  topology x mechanism x traffic x scenario x root x VCs x load x seed
  cross-product (with `replicas = N`, each point runs N seeds) is executed
  in grid order on a bounded thread pool and streamed to a resumable JSONL
  result store. Already-completed jobs (matched by fingerprint) are
  skipped, so re-running a finished campaign is instant.

  Run options:
  --store PATH         result store (default: <spec>.results.jsonl)
  --threads N          worker threads (default: all cores)
  --partitions N       deprecated and ignored: the engine steps each job
                       sequentially (prints a warning, as does the spec's
                       `partitions` key)
  --quiet              suppress per-job progress on stderr
  --dry-run            expand and validate the grid, run nothing
  --trace              also record packet lifecycles (inject/grant/hop/
                       deliver/block) to <store>.trace.jsonl; the store
                       bytes are identical with and without it (render
                       with `surepath trace <store>`)
  A global wall-clock budget in whole seconds, at least 1
  (SUREPATH_DEADLINE_SECS env var or the spec's `deadline_secs` field)
  stops dequeuing when exhausted, finalizes the partial store cleanly and
  exits with code 3; re-running resumes the rest.

  Distributed campaigns (coordinator/worker over TCP):
  --serve ADDR         serve the spec's grid to workers connecting on ADDR
                       (e.g. 0.0.0.0:7777); workers take jobs from one queue
                       in grid order, lost workers' leases are re-offered
                       first, and the finalized store is byte-identical to a
                       local run
  --worker ADDR        run jobs for the coordinator at ADDR until drained;
                       transport failures trigger auto-reconnect with capped
                       exponential backoff, and the campaign fingerprint in
                       the handshake gates resumption (a different campaign
                       on the same address aborts loudly)
  --reconnect-retries N  consecutive failed reconnect attempts before the
                       worker gives up (8; the counter resets whenever a
                       reconnect succeeds)
  --backoff-ms N       initial reconnect backoff in milliseconds (100);
                       doubles per attempt, capped, with deterministic
                       per-worker jitter
  --spawn-local N      serve on an ephemeral local port and fork N worker
                       processes (single-machine scale-out and tests);
                       --threads sets each worker's pool size (default:
                       the machine's cores split across the N workers)
  --lease-secs N       re-offer jobs not delivered within N seconds (60)
  --chunk N            max jobs per worker fetch (8)
  --metrics-addr ADDR  with --serve/--spawn-local: also serve live fleet
                       metrics (Prometheus text format) on ADDR — jobs
                       pending/leased, worker liveness,
                       reconnects, lease reclaims; read-only, no effect
                       on scheduling or the store
  Assignments are journalled to <store>.manifest.jsonl so --report can tell
  `missing` from `assigned elsewhere / in-flight`, and a restarted
  coordinator re-offers only unfinished fingerprints.

  Store tooling (no simulation):
  --report             render figures/tables straight from the store(s):
                       rate campaigns as sweep tables (replicated points as
                       mean ± CI), batch campaigns as completion times +
                       throughput-over-time series
  --merge OUT          merge sharded stores into OUT (fingerprint-deduped,
                       ok beats failed, deterministic byte order)
  --diff               compare two stores point by point (aligned by
                       fingerprint minus seed): significant per-metric
                       deltas are tabulated and a regression (significant
                       delta in the worse direction) exits nonzero
  --campaign NAME      with --diff: compare only this campaign's points
  --csv PATH           with --report/--diff: also write the data as CSV
  --plots DIR          with --report: write the core::plot SVG figures to
                       DIR (one per campaign/kind)
  --gnuplot            with --report --plots: also write Gnuplot artifacts
                       (<stem>.gp + <stem>.dat, same data as the SVGs) to
                       DIR; render with `gnuplot <stem>.gp`
  --timings            with --report: print the slowest-jobs table from the
                       <store>.timings.jsonl sidecar(s); a missing sidecar
                       warns instead of failing the report
  --counters           with --report: print the merged engine-counter table
                       (allocator, candidate cache, escape usage, RNG draws)
                       per campaign/kind
  --help               this message";

/// The usage string printed by `--help` and on parse errors.
pub const USAGE: &str = "usage: surepath [options]
       surepath campaign <spec.toml|spec.json> [options]   (see `surepath campaign --help`)
       surepath trace <store.jsonl>                        (see `surepath trace --help`)
       surepath bench [--quick|--full] [options]           (see `surepath bench --help`)
  --sides KxKxK        HyperX sides (default 8x8x8)
  --concentration N    servers per switch (default: the first side)
  --mechanism NAME     minimal|valiant|omniwar|polarized|omnisp|polsp|dor|dal|omnisp-tree|polsp-tree
  --traffic NAME       uniform|rsp|dcr|rpn|transpose|shift
  --faults SPEC        none | random:COUNT[:SEED] | row | subgrid:SIZE | cross:MARGIN | star
  --root SPEC          suggested | switch:ID | max-degree | min-eccentricity | min-distance
  --vcs N              virtual channels per port (default 2n)
  --load F             offered load in phits/cycle/server (default 0.5)
  --batch PACKETS      closed-loop mode: packets per server (overrides --load)
  --seed N             random seed (default 1)
  --warmup N           warmup cycles (with --measure; default: Table 2 windows)
  --measure N          measurement cycles
  --json               print metrics as JSON
  --help               this message";

fn parse_sides(s: &str) -> Result<Vec<usize>, String> {
    let sides: Result<Vec<usize>, _> = s.split('x').map(str::parse::<usize>).collect();
    match sides {
        Ok(v) if !v.is_empty() && v.iter().all(|&k| k >= 2) => Ok(v),
        _ => Err(format!(
            "invalid --sides '{s}': expected e.g. 16x16 or 8x8x8 with sides >= 2"
        )),
    }
}

fn parse_faults(spec: &str, sides: &[usize]) -> Result<FaultScenario, String> {
    // The parser lives in surepath-core so campaign specs share it.
    FaultScenario::parse(spec, sides)
}

fn parse_root(spec: &str) -> Result<RootPlacement, String> {
    // The parser lives in surepath-core so campaign specs share it.
    RootPlacement::parse(spec)
}

/// Parses the command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<CliConfig, String> {
    let mut cfg = CliConfig::default();
    let mut concentration_set = false;
    let mut faults_spec: Option<String> = None;
    let mut warmup: Option<u64> = None;
    let mut measure: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--sides" => cfg.sides = parse_sides(&value("--sides")?)?,
            "--concentration" => {
                cfg.concentration = value("--concentration")?
                    .parse()
                    .map_err(|_| "invalid --concentration")?;
                concentration_set = true;
            }
            "--mechanism" => {
                let name = value("--mechanism")?;
                cfg.mechanism = MechanismSpec::parse(&name)
                    .ok_or_else(|| format!("unknown mechanism '{name}'"))?;
            }
            "--traffic" => {
                let name = value("--traffic")?;
                cfg.traffic = TrafficSpec::parse(&name)
                    .ok_or_else(|| format!("unknown traffic pattern '{name}'"))?;
            }
            "--faults" => faults_spec = Some(value("--faults")?),
            "--root" => cfg.root = parse_root(&value("--root")?)?,
            "--vcs" => cfg.vcs = Some(value("--vcs")?.parse().map_err(|_| "invalid --vcs")?),
            "--load" => {
                let load: f64 = value("--load")?.parse().map_err(|_| "invalid --load")?;
                if !(0.0..=1.0).contains(&load) || load == 0.0 {
                    return Err("--load must be in (0, 1]".to_string());
                }
                cfg.mode = RunMode::Rate(load);
            }
            "--batch" => {
                let packets: u64 = value("--batch")?.parse().map_err(|_| "invalid --batch")?;
                if packets == 0 {
                    return Err("--batch must be at least 1 packet per server".to_string());
                }
                cfg.mode = RunMode::Batch(packets)
            }
            "--seed" => cfg.seed = value("--seed")?.parse().map_err(|_| "invalid --seed")?,
            "--warmup" => {
                warmup = Some(value("--warmup")?.parse().map_err(|_| "invalid --warmup")?)
            }
            "--measure" => {
                measure = Some(
                    value("--measure")?
                        .parse()
                        .map_err(|_| "invalid --measure")?,
                )
            }
            "--json" => cfg.json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if !concentration_set {
        cfg.concentration = cfg.sides[0];
    }
    if cfg.concentration == 0 {
        return Err("--concentration must be at least 1".to_string());
    }
    cfg.scenario = match faults_spec {
        Some(spec) => parse_faults(&spec, &cfg.sides)?,
        None => FaultScenario::None,
    };
    cfg.windows = match (warmup, measure) {
        (None, None) => None,
        (Some(w), Some(m)) => Some((w, m)),
        _ => return Err("--warmup and --measure must be given together".to_string()),
    };
    Ok(cfg)
}

/// Builds the [`Experiment`] described by a parsed configuration, rejecting
/// the ones that could not run (see [`Experiment::validate`]).
pub fn build_experiment(cfg: &CliConfig) -> Result<Experiment, String> {
    let dims = cfg.sides.len();
    let num_vcs = cfg
        .vcs
        .unwrap_or_else(|| cfg.mechanism.default_num_vcs(dims));
    let mut experiment = Experiment {
        sides: cfg.sides.clone(),
        concentration: cfg.concentration,
        mechanism: cfg.mechanism,
        num_vcs,
        traffic: cfg.traffic,
        scenario: cfg.scenario.clone(),
        root: cfg.root,
        sim: SimConfig::paper_defaults(cfg.concentration, num_vcs),
    };
    experiment.sim.servers_per_switch = cfg.concentration;
    experiment = experiment.with_seed(cfg.seed);
    if let Some((warmup, measure)) = cfg.windows {
        experiment = experiment.with_windows(warmup, measure);
    }
    experiment.validate()?;
    Ok(experiment)
}

/// Runs the experiment and renders the result as text or JSON.
pub fn run(cfg: &CliConfig) -> Result<String, String> {
    let experiment = build_experiment(cfg)?;
    Ok(match cfg.mode {
        RunMode::Rate(load) => {
            let metrics = experiment.run_rate(load);
            if cfg.json {
                serde_json::to_string_pretty(&metrics).expect("metrics serialise")
            } else {
                format!(
                    "{}\noffered {:.3}  accepted {:.3}  latency {:.1}  jain {:.3}  escape {:.1}%  hops {:.2}  stalled {}",
                    experiment.label(),
                    metrics.offered_load,
                    metrics.accepted_load,
                    metrics.average_latency,
                    metrics.jain_generated,
                    100.0 * metrics.escape_fraction,
                    metrics.average_hops,
                    metrics.stalled
                )
            }
        }
        RunMode::Batch(packets) => {
            let metrics = experiment.run_batch(packets, 1000);
            if cfg.json {
                serde_json::to_string_pretty(&metrics).expect("metrics serialise")
            } else {
                format!(
                    "{}\ncompletion {} cycles  delivered {}  latency {:.1}  stalled {}",
                    experiment.label(),
                    metrics.completion_time,
                    metrics.delivered_packets,
                    metrics.average_latency,
                    metrics.stalled
                )
            }
        }
    })
}

/// A parsed `surepath campaign` command line.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignCliConfig {
    /// Path of the TOML/JSON campaign spec.
    pub spec_path: String,
    /// Result store path (`None` = `<spec>.results.jsonl`).
    pub store: Option<String>,
    /// Worker threads (`None` = all cores).
    pub threads: Option<usize>,
    /// Suppress per-job progress output.
    pub quiet: bool,
    /// Validate and expand only; run nothing.
    pub dry_run: bool,
    /// Record packet lifecycles to the `<store>.trace.jsonl` sidecar
    /// (`--trace`). The store bytes are identical either way.
    pub trace: bool,
}

/// What a `surepath campaign` invocation asks for: run a spec (locally or
/// distributed), or operate on existing result stores (report / merge /
/// diff) without simulating anything.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignCommand {
    /// Run (or resume) the campaign described by a spec file.
    Run(CampaignCliConfig),
    /// Serve the spec's grid to TCP workers (`--serve` / `--spawn-local`).
    Serve {
        /// Path of the TOML/JSON campaign spec.
        spec_path: String,
        /// Result store path (`None` = `<spec>.results.jsonl`).
        store: Option<String>,
        /// The address to listen on (`--serve`; `--spawn-local` alone uses
        /// an ephemeral loopback port).
        addr: String,
        /// Fork this many local worker processes (`--spawn-local`).
        spawn_local: Option<usize>,
        /// Executor threads **per spawned worker** (`--threads`; `None` =
        /// split the machine's cores across the workers). Only meaningful
        /// with `spawn_local` — the coordinator itself executes nothing.
        threads: Option<usize>,
        /// Lease duration in seconds before a job is re-offered.
        lease_secs: u64,
        /// Max jobs per worker fetch (`None` = default).
        chunk: Option<usize>,
        /// Serve live fleet metrics (Prometheus text format) on this
        /// address (`--metrics-addr`). Read-only; `None` = no endpoint.
        metrics_addr: Option<String>,
        /// Suppress per-job progress output.
        quiet: bool,
    },
    /// Run jobs for a coordinator until its grid is drained (`--worker`).
    Worker {
        /// The coordinator's address.
        addr: String,
        /// Executor threads on this worker (`None` = all cores).
        threads: Option<usize>,
        /// Consecutive failed reconnect attempts before giving up
        /// (`--reconnect-retries`; `None` = the policy default).
        reconnect_retries: Option<usize>,
        /// Initial reconnect backoff in milliseconds (`--backoff-ms`;
        /// `None` = the policy default).
        backoff_ms: Option<u64>,
        /// Suppress progress output.
        quiet: bool,
    },
    /// Render figures/tables from one or more stores; optionally persist the
    /// merged store, a CSV copy, SVG plots and/or the slowest-jobs table.
    Report {
        /// Input store shards (at least one).
        stores: Vec<String>,
        /// Where to write the merged store (`None` = don't persist a merge).
        merge: Option<String>,
        /// Where to write the CSV copy of the report data.
        csv: Option<String>,
        /// Directory for the `core::plot` SVG artifacts (`--plots`).
        plots: Option<String>,
        /// Also write Gnuplot `.gp` + `.dat` artifacts to the plots
        /// directory (`--gnuplot`; requires `--plots`).
        gnuplot: bool,
        /// Print the slowest-jobs table from the timings sidecar(s).
        timings: bool,
        /// Print the merged engine-counter table per campaign/kind
        /// (`--counters`).
        counters: bool,
    },
    /// Merge store shards into one store, nothing else.
    Merge {
        /// Output store path.
        output: String,
        /// Input store shards (at least one).
        inputs: Vec<String>,
    },
    /// Compare two stores point by point (aligned by fingerprint minus
    /// seed) and report significant per-metric deltas; regressions make the
    /// command fail, so `--diff` gates CI and before/after experiments.
    Diff {
        /// The baseline store.
        baseline: String,
        /// The candidate store, judged against the baseline.
        candidate: String,
        /// Compare only this campaign's points (`--campaign`).
        campaign: Option<String>,
        /// Also write the full per-metric comparison as CSV (`--csv`).
        csv: Option<String>,
    },
}

impl CampaignCliConfig {
    /// The effective store path.
    pub fn store_path(&self) -> std::path::PathBuf {
        match &self.store {
            Some(path) => std::path::PathBuf::from(path),
            None => {
                let spec = std::path::Path::new(&self.spec_path);
                spec.with_extension("results.jsonl")
            }
        }
    }
}

/// Parses the arguments of the `campaign` subcommand (everything after the
/// literal `campaign`).
pub fn parse_campaign_args(args: &[String]) -> Result<CampaignCommand, String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut store = None;
    let mut threads = None;
    let mut quiet = false;
    let mut dry_run = false;
    let mut report = false;
    let mut diff = false;
    let mut timings = false;
    let mut counters = false;
    let mut trace = false;
    let mut gnuplot = false;
    let mut metrics_addr: Option<String> = None;
    let mut merge: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut plots: Option<String> = None;
    let mut campaign_filter: Option<String> = None;
    let mut serve: Option<String> = None;
    let mut worker: Option<String> = None;
    let mut spawn_local: Option<usize> = None;
    let mut lease_secs: Option<u64> = None;
    let mut chunk: Option<usize> = None;
    let mut reconnect_retries: Option<usize> = None;
    let mut backoff_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let positive = |name: &str, raw: String| -> Result<usize, String> {
            match raw.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{name} must be a positive integer")),
            }
        };
        match arg.as_str() {
            "--store" => store = Some(value("--store")?),
            "--threads" => threads = Some(positive("--threads", value("--threads")?)?),
            "--partitions" => {
                positive("--partitions", value("--partitions")?)?;
                warn_partitions_ignored();
            }
            "--quiet" => quiet = true,
            "--dry-run" => dry_run = true,
            "--report" => report = true,
            "--diff" => diff = true,
            "--timings" => timings = true,
            "--counters" => counters = true,
            "--trace" => trace = true,
            "--gnuplot" => gnuplot = true,
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")?),
            "--merge" => merge = Some(value("--merge")?),
            "--csv" => csv = Some(value("--csv")?),
            "--plots" => plots = Some(value("--plots")?),
            "--campaign" => campaign_filter = Some(value("--campaign")?),
            "--serve" => serve = Some(value("--serve")?),
            "--worker" => worker = Some(value("--worker")?),
            "--spawn-local" => {
                spawn_local = Some(positive("--spawn-local", value("--spawn-local")?)?)
            }
            "--lease-secs" => {
                lease_secs = Some(positive("--lease-secs", value("--lease-secs")?)? as u64)
            }
            "--shards" => {
                return Err(
                    "--shards was removed: the coordinator serves one queue in grid order"
                        .to_string(),
                )
            }
            "--chunk" => chunk = Some(positive("--chunk", value("--chunk")?)?),
            "--reconnect-retries" => {
                reconnect_retries = Some(positive(
                    "--reconnect-retries",
                    value("--reconnect-retries")?,
                )?)
            }
            "--backoff-ms" => {
                backoff_ms = Some(positive("--backoff-ms", value("--backoff-ms")?)? as u64)
            }
            "--help" | "-h" => return Err(CAMPAIGN_USAGE.to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown argument '{other}'\n{CAMPAIGN_USAGE}"))
            }
            positional => positionals.push(positional.to_string()),
        }
    }
    let distributed_flags =
        serve.is_some() || spawn_local.is_some() || lease_secs.is_some() || chunk.is_some();
    if let Some(addr) = worker {
        if distributed_flags
            || report
            || diff
            || dry_run
            || timings
            || counters
            || trace
            || gnuplot
            || metrics_addr.is_some()
            || store.is_some()
            || merge.is_some()
            || csv.is_some()
            || plots.is_some()
            || campaign_filter.is_some()
            || !positionals.is_empty()
        {
            return Err(
                "--worker only combines with --threads, --reconnect-retries, --backoff-ms \
                 and --quiet"
                    .to_string(),
            );
        }
        return Ok(CampaignCommand::Worker {
            addr,
            threads,
            reconnect_retries,
            backoff_ms,
            quiet,
        });
    }
    if reconnect_retries.is_some() || backoff_ms.is_some() {
        return Err("--reconnect-retries/--backoff-ms only apply to --worker".to_string());
    }
    if serve.is_some() || spawn_local.is_some() {
        if report
            || diff
            || dry_run
            || timings
            || counters
            || trace
            || gnuplot
            || merge.is_some()
            || csv.is_some()
            || plots.is_some()
            || campaign_filter.is_some()
        {
            return Err(
                "--serve/--spawn-local only combine with --store, --quiet, --lease-secs, \
                 --chunk and --metrics-addr"
                    .to_string(),
            );
        }
        if threads.is_some() && spawn_local.is_none() {
            return Err(
                "--threads belongs to workers; the coordinator executes nothing \
                 (use it with --worker or --spawn-local)"
                    .to_string(),
            );
        }
        if positionals.len() != 1 {
            return Err(format!(
                "--serve/--spawn-local need exactly one spec file\n{CAMPAIGN_USAGE}"
            ));
        }
        // --spawn-local alone picks an ephemeral loopback port; worker
        // children are told the resolved address after bind.
        let addr = serve.unwrap_or_else(|| "127.0.0.1:0".to_string());
        return Ok(CampaignCommand::Serve {
            spec_path: positionals.pop().expect("checked above"),
            store,
            addr,
            spawn_local,
            threads,
            lease_secs: lease_secs.unwrap_or(60),
            chunk,
            metrics_addr,
            quiet,
        });
    }
    if metrics_addr.is_some() {
        return Err("--metrics-addr only applies to --serve/--spawn-local".to_string());
    }
    if diff {
        if report
            || store.is_some()
            || threads.is_some()
            || dry_run
            || quiet
            || timings
            || counters
            || trace
            || gnuplot
            || merge.is_some()
            || plots.is_some()
        {
            return Err("--diff takes exactly two stores, --campaign and --csv only".to_string());
        }
        if positionals.len() != 2 {
            return Err(format!(
                "--diff needs exactly two stores (baseline, candidate)\n{CAMPAIGN_USAGE}"
            ));
        }
        let candidate = positionals.pop().expect("checked above");
        let baseline = positionals.pop().expect("checked above");
        return Ok(CampaignCommand::Diff {
            baseline,
            candidate,
            campaign: campaign_filter,
            csv,
        });
    }
    if campaign_filter.is_some() {
        return Err("--campaign only applies to --diff".to_string());
    }
    if report {
        if store.is_some() || threads.is_some() || dry_run || quiet || trace {
            return Err(
                "--report only combines with --merge, --csv, --plots, --gnuplot, --timings \
                 and --counters"
                    .to_string(),
            );
        }
        if gnuplot && plots.is_none() {
            return Err("--gnuplot needs --plots <dir> to write into".to_string());
        }
        if positionals.is_empty() {
            return Err(format!(
                "--report needs at least one store\n{CAMPAIGN_USAGE}"
            ));
        }
        return Ok(CampaignCommand::Report {
            stores: positionals,
            merge,
            csv,
            plots,
            gnuplot,
            timings,
            counters,
        });
    }
    if timings {
        return Err("--timings only applies to --report".to_string());
    }
    if counters {
        return Err("--counters only applies to --report".to_string());
    }
    if gnuplot {
        return Err("--gnuplot only applies to --report --plots".to_string());
    }
    if plots.is_some() {
        return Err("--plots only applies to --report".to_string());
    }
    if let Some(output) = merge {
        if store.is_some() || threads.is_some() || dry_run || csv.is_some() || quiet || trace {
            return Err("--merge (without --report) only takes input stores".to_string());
        }
        if positionals.is_empty() {
            return Err(format!(
                "--merge needs at least one input store\n{CAMPAIGN_USAGE}"
            ));
        }
        return Ok(CampaignCommand::Merge {
            output,
            inputs: positionals,
        });
    }
    if csv.is_some() {
        return Err("--csv only applies to --report and --diff".to_string());
    }
    if positionals.len() > 1 {
        return Err("campaign takes exactly one spec file".to_string());
    }
    if dry_run && trace {
        return Err("--dry-run executes nothing, so --trace records nothing".to_string());
    }
    Ok(CampaignCommand::Run(CampaignCliConfig {
        spec_path: positionals
            .pop()
            .ok_or_else(|| format!("missing spec file\n{CAMPAIGN_USAGE}"))?,
        store,
        threads,
        quiet,
        dry_run,
        trace,
    }))
}

/// Warns, once per process, that the `partitions` spec key and the
/// `--partitions` flag are ignored.
fn warn_partitions_ignored() {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "warning: `partitions` / `--partitions` is deprecated and ignored: the engine \
             steps each job sequentially, and results are unchanged"
        );
    });
}

/// Whether a path names a store *sidecar* (timings/manifest/trace) rather
/// than a result store. Sidecars share the `.jsonl` suffix, so shell globs
/// hand them to `--report` by accident; they must never be parsed as stores.
fn is_sidecar_path(path: &str) -> bool {
    [".timings.jsonl", ".manifest.jsonl", ".trace.jsonl"]
        .iter()
        .any(|suffix| path.ends_with(suffix))
}

/// Rejects input store paths that do not exist — opening them would
/// silently create empty stores and report nothing instead of the mistake.
fn require_stores_exist(paths: &[String]) -> Result<(), String> {
    for path in paths {
        if !std::path::Path::new(path).is_file() {
            return Err(format!("store not found: {path}"));
        }
    }
    Ok(())
}

/// Where `--report` merges several shards for the duration of one report.
fn report_merge_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "surepath-report-merge-{}.jsonl",
        std::process::id()
    ))
}

/// A temporary file removed when dropped, so every exit path — `?` returns
/// included — cleans it up.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// What a successfully executed `campaign` subcommand hands back to `main`:
/// the text to print and the process exit code. Most commands exit 0; a run
/// stopped by the global deadline exits [`EXIT_DEADLINE`] so schedulers can
/// tell "budget exhausted, resume me" from success (0) and errors (2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommandOutput {
    /// The summary to print on stdout.
    pub text: String,
    /// The process exit code.
    pub exit_code: i32,
}

impl CommandOutput {
    fn ok(text: String) -> Self {
        CommandOutput { text, exit_code: 0 }
    }
}

/// Exit code of a run stopped by the global deadline (partial store
/// finalized; re-running resumes).
pub const EXIT_DEADLINE: i32 = 3;

/// Runs a parsed `campaign` subcommand, returning the text to print and the
/// exit code.
pub fn run_campaign_command(cmd: &CampaignCommand) -> Result<CommandOutput, String> {
    match cmd {
        CampaignCommand::Run(cfg) => run_campaign_cli(cfg),
        CampaignCommand::Serve {
            spec_path,
            store,
            addr,
            spawn_local,
            threads,
            lease_secs,
            chunk,
            metrics_addr,
            quiet,
        } => run_serve(
            spec_path,
            store.as_deref(),
            addr,
            *spawn_local,
            *threads,
            *lease_secs,
            *chunk,
            metrics_addr.as_deref(),
            *quiet,
        )
        .map(CommandOutput::ok),
        CampaignCommand::Worker {
            addr,
            threads,
            reconnect_retries,
            backoff_ms,
            quiet,
        } => {
            let worker_id = default_worker_id();
            let defaults = surepath_dist::ReconnectPolicy::default();
            let reconnect = surepath_dist::ReconnectPolicy::with(
                reconnect_retries.unwrap_or(defaults.retries),
                backoff_ms.unwrap_or(defaults.initial_backoff.as_millis() as u64),
            );
            // The view cache tunes execution only: the result bytes a worker
            // folds into the coordinator's store are identical either way.
            let views = surepath_core::ViewCache::new();
            let tuning = surepath_core::RunTuning {
                views: Some(&views),
                ..surepath_core::RunTuning::default()
            };
            let outcome = surepath_dist::run_worker(
                addr,
                &worker_id,
                &surepath_dist::WorkerOptions {
                    threads: *threads,
                    reconnect,
                    quiet: *quiet,
                    ..surepath_dist::WorkerOptions::default()
                },
                |job| surepath_core::run_job_tuned(job, &tuning),
            )
            .map_err(|e| format!("worker failed: {e}"))?;
            let reconnects = if outcome.reconnects > 0 {
                format!(", {} reconnect(s)", outcome.reconnects)
            } else {
                String::new()
            };
            Ok(CommandOutput::ok(format!(
                "worker `{worker_id}` drained: {} executed, {} failed{reconnects}",
                outcome.executed, outcome.failed
            )))
        }
        CampaignCommand::Merge { output, inputs } => {
            require_stores_exist(inputs)?;
            let paths: Vec<std::path::PathBuf> =
                inputs.iter().map(std::path::PathBuf::from).collect();
            let summary = surepath_runner::merge_stores(std::path::Path::new(output), &paths)
                .map_err(|e| format!("merge failed: {e}"))?;
            Ok(CommandOutput::ok(format!(
                "merged {} stores: {} records read, {} written, {} duplicates dropped\nmerged store: {output}",
                inputs.len(),
                summary.read,
                summary.written,
                summary.duplicates
            )))
        }
        CampaignCommand::Report {
            stores,
            merge,
            csv,
            plots,
            gnuplot,
            timings,
            counters,
        } => {
            // Sidecar files (timings/manifest/trace) ride next to stores and
            // share the .jsonl suffix; a glob like `results/*.jsonl` sweeps
            // them in. They are observations, not results — skip them with a
            // warning instead of parsing them as (empty-looking) stores.
            let mut preamble = String::new();
            let stores: Vec<String> = stores
                .iter()
                .filter(|path| {
                    if is_sidecar_path(path) {
                        preamble.push_str(&format!(
                            "(skipping sidecar {path} — timings/manifest/trace files are not \
                             result stores)\n"
                        ));
                        false
                    } else {
                        true
                    }
                })
                .cloned()
                .collect();
            if stores.is_empty() {
                return Err(format!(
                    "{preamble}--report needs at least one result store (sidecars don't count)"
                ));
            }
            require_stores_exist(&stores)?;
            // With several shards (or an explicit --merge) the report runs
            // over the merged store; a single shard is read directly. A
            // temporary merge lives exactly as long as `_temp_merge`.
            let (store_path, _temp_merge) = match (merge, stores.len()) {
                (Some(out), _) => {
                    let paths: Vec<std::path::PathBuf> =
                        stores.iter().map(std::path::PathBuf::from).collect();
                    surepath_runner::merge_stores(std::path::Path::new(out), &paths)
                        .map_err(|e| format!("merge failed: {e}"))?;
                    (std::path::PathBuf::from(out), None)
                }
                (None, 1) => (std::path::PathBuf::from(&stores[0]), None),
                (None, _) => {
                    let tmp = TempFile(report_merge_path());
                    let paths: Vec<std::path::PathBuf> =
                        stores.iter().map(std::path::PathBuf::from).collect();
                    surepath_runner::merge_stores(&tmp.0, &paths)
                        .map_err(|e| format!("merge failed: {e}"))?;
                    (tmp.0.clone(), Some(tmp))
                }
            };
            // Read-only: reporting must work on archived stores without
            // write access and must not create files.
            let store = surepath_core::ResultStore::open_read_only(&store_path)
                .map_err(|e| format!("cannot open store {}: {e}", store_path.display()))?;
            let mut out = preamble;
            out.push_str(&surepath_core::report_store(&store));
            // Assignment manifests (distributed campaigns): label incomplete
            // points as in-flight/assigned rather than leaving them to look
            // missing. Reported per input store — each coordinator writes
            // its own sidecar.
            for input in &stores {
                let manifest_file = surepath_runner::manifest_path(std::path::Path::new(input));
                if let Ok(manifest) =
                    surepath_core::AssignmentManifest::open_read_only(&manifest_file)
                {
                    out.push_str(&format!("[{input}] "));
                    out.push_str(&surepath_core::format_manifest_status(&manifest, &store));
                }
            }
            if *counters {
                out.push_str(&surepath_core::format_counters_report(&store));
            }
            if *timings {
                // Timings are best-effort observations: a missing or
                // truncated sidecar degrades the table, it does not fail the
                // report (archived stores routinely travel without them).
                let mut records: Vec<surepath_core::TimingRecord> = Vec::new();
                for input in &stores {
                    let sidecar = surepath_runner::timings_path(std::path::Path::new(input));
                    match surepath_runner::load_timings(&sidecar) {
                        Ok(mut loaded) => records.append(&mut loaded),
                        Err(_) => out.push_str(&format!(
                            "(warning: no timings sidecar at {} — timed jobs from {input} \
                             are missing from the table)\n",
                            sidecar.display()
                        )),
                    }
                }
                out.push_str("=== slowest jobs (wall-clock) ===\n");
                out.push_str(&surepath_core::format_timings_table(&records, 15));
            }
            if let Some(csv_path) = csv {
                std::fs::write(csv_path, surepath_core::report_csv(&store))
                    .map_err(|e| format!("could not write {csv_path}: {e}"))?;
                out.push_str(&format!("(CSV written to {csv_path})\n"));
            }
            if let Some(dir) = plots {
                let dir_path = std::path::Path::new(dir);
                std::fs::create_dir_all(dir_path)
                    .map_err(|e| format!("could not create {dir}: {e}"))?;
                let charts = surepath_core::report_charts(&store);
                if charts.is_empty() {
                    out.push_str("(no plottable campaigns in the store)\n");
                }
                for (stem, svg) in &charts {
                    let file = dir_path.join(format!("{stem}.svg"));
                    std::fs::write(&file, svg)
                        .map_err(|e| format!("could not write {}: {e}", file.display()))?;
                    out.push_str(&format!("(plot written to {})\n", file.display()));
                }
                if *gnuplot {
                    // Same extraction path as the SVGs (core::report), so
                    // the .gp/.dat artifacts always agree with the charts.
                    for artifact in surepath_core::report_gnuplot(&store) {
                        let gp = dir_path.join(format!("{}.gp", artifact.stem));
                        let dat = dir_path.join(format!("{}.dat", artifact.stem));
                        std::fs::write(&gp, &artifact.script)
                            .map_err(|e| format!("could not write {}: {e}", gp.display()))?;
                        std::fs::write(&dat, &artifact.data)
                            .map_err(|e| format!("could not write {}: {e}", dat.display()))?;
                        out.push_str(&format!(
                            "(gnuplot script written to {}; data to {})\n",
                            gp.display(),
                            dat.display()
                        ));
                    }
                }
            }
            Ok(CommandOutput::ok(out))
        }
        CampaignCommand::Diff {
            baseline,
            candidate,
            campaign,
            csv,
        } => {
            require_stores_exist(std::slice::from_ref(baseline))?;
            require_stores_exist(std::slice::from_ref(candidate))?;
            let open = |path: &String| {
                surepath_core::ResultStore::open_read_only(std::path::Path::new(path))
                    .map_err(|e| format!("cannot open store {path}: {e}"))
            };
            let diff = surepath_core::diff_stores_filtered(
                &open(baseline)?,
                &open(candidate)?,
                campaign.as_deref(),
            );
            let mut text = format!(
                "diff: baseline {baseline} vs candidate {candidate}{}\n{}",
                match campaign {
                    Some(name) => format!(" (campaign `{name}`)"),
                    None => String::new(),
                },
                surepath_core::format_store_diff(&diff)
            );
            if let Some(csv_path) = csv {
                std::fs::write(csv_path, surepath_core::store_diff_csv(&diff))
                    .map_err(|e| format!("could not write {csv_path}: {e}"))?;
                text.push_str(&format!("(CSV written to {csv_path})\n"));
            }
            // A regression is the command's failure mode: the caller (CI, a
            // before/after check) gets a nonzero exit code, with the full
            // table on stderr.
            if diff.has_regressions() {
                Err(text)
            } else {
                Ok(CommandOutput::ok(text))
            }
        }
    }
}

/// A worker id unique among concurrent workers: host (when the environment
/// names one) plus pid.
fn default_worker_id() -> String {
    let host = std::env::var("HOSTNAME").unwrap_or_else(|_| "worker".to_string());
    format!("{host}:{}", std::process::id())
}

/// Loads a campaign spec, warning if it sets the ignored `partitions` key.
fn load_spec(path: &str) -> Result<surepath_runner::CampaignSpec, String> {
    let spec = surepath_runner::load_spec_file(std::path::Path::new(path))?;
    if spec.partitions.is_some() {
        warn_partitions_ignored();
    }
    Ok(spec)
}

/// The `--serve` / `--spawn-local` path: validate + expand the spec, bind,
/// optionally fork local worker processes, then coordinate until the grid
/// is drained and the store is finalized.
#[allow(clippy::too_many_arguments)]
fn run_serve(
    spec_path: &str,
    store: Option<&str>,
    addr: &str,
    spawn_local: Option<usize>,
    worker_threads: Option<usize>,
    lease_secs: u64,
    chunk: Option<usize>,
    metrics_addr: Option<&str>,
    quiet: bool,
) -> Result<String, String> {
    let spec = load_spec(spec_path)?;
    surepath_core::validate_campaign(&spec)?;
    let jobs = spec.expand()?;
    let store_path = CampaignCliConfig {
        spec_path: spec_path.to_string(),
        store: store.map(str::to_string),
        threads: None,
        quiet,
        dry_run: false,
        trace: false,
    }
    .store_path();

    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve listen address: {e}"))?;
    if !quiet {
        eprintln!(
            "[dist] serving campaign `{}` ({} jobs) on {local_addr}",
            spec.name,
            jobs.len()
        );
    }

    // A fully complete store needs no workers: serve() will finalize and
    // return immediately, and forked children would only find a closed port.
    let pending = match surepath_runner::ResultStore::open_read_only(&store_path) {
        Ok(existing) => jobs
            .iter()
            .filter(|job| !existing.is_complete(&surepath_runner::job_fingerprint(job)))
            .count(),
        Err(_) => jobs.len(),
    };

    // Fork the local workers *after* binding, so they have something to
    // connect to (they also retry, covering the accept-loop startup).
    let mut children = Vec::new();
    if let Some(n) = spawn_local.filter(|_| pending > 0) {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the surepath binary: {e}"))?;
        // --threads names each worker's pool size; the default splits the
        // machine's cores across the workers instead of oversubscribing
        // every one of them.
        let threads_each =
            worker_threads.unwrap_or_else(|| (surepath_runner::default_threads() / n).max(1));
        for _ in 0..n {
            let child = std::process::Command::new(&exe)
                .arg("campaign")
                .arg("--worker")
                .arg(local_addr.to_string())
                .arg("--threads")
                .arg(threads_each.to_string())
                .arg("--quiet")
                .spawn()
                .map_err(|e| format!("cannot spawn local worker: {e}"))?;
            children.push(child);
        }
    }

    let defaults = surepath_dist::ServeOptions::default();
    let opts = surepath_dist::ServeOptions {
        lease: std::time::Duration::from_secs(lease_secs),
        chunk: chunk.unwrap_or(defaults.chunk),
        quiet,
        metrics_addr: metrics_addr.map(str::to_string),
        ..defaults
    };
    let served = surepath_dist::serve(listener, &spec.name, &jobs, &store_path, &opts);
    let worker_failures = reap_workers(children);
    let outcome = served.map_err(|e| format!("distributed campaign failed: {e}"))?;
    let mut summary = format!(
        "distributed campaign `{}`: {} jobs total, {} skipped (already complete), {} executed, \
         {} failed, {} worker(s), {} re-offered\nresults: {}\nmanifest: {}",
        spec.name,
        outcome.total,
        outcome.skipped,
        outcome.executed,
        outcome.failed,
        outcome.workers,
        outcome.reoffered,
        store_path.display(),
        surepath_runner::manifest_path(&store_path).display(),
    );
    if worker_failures > 0 {
        summary.push_str(&format!(
            "\n(warning: {worker_failures} spawned worker(s) exited nonzero)"
        ));
    }
    Ok(summary)
}

/// Waits for spawned workers once `serve` has returned, and counts those
/// that exited nonzero. A worker still running after
/// [`DRAIN_LINGER_MILLIS`](surepath_dist::protocol::DRAIN_LINGER_MILLIS)
/// has nothing left to deliver (one that dialed after the grid drained
/// would redial a closed port until its reconnect budget ran out), so it is
/// stopped, and not counted. The standard library has no wait with a
/// timeout, so this polls every millisecond.
fn reap_workers(mut children: Vec<std::process::Child>) -> usize {
    let linger = std::time::Duration::from_millis(surepath_dist::protocol::DRAIN_LINGER_MILLIS);
    let deadline = std::time::Instant::now() + linger;
    let mut failures = 0;
    loop {
        let late = std::time::Instant::now() >= deadline;
        children.retain_mut(|child| match child.try_wait() {
            Ok(Some(status)) => {
                failures += usize::from(!status.success());
                false
            }
            Ok(None) if late => {
                let _ = child.kill();
                let _ = child.wait();
                false
            }
            Ok(None) => true,
            Err(_) => {
                failures += 1;
                false
            }
        });
        if children.is_empty() {
            return failures;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Runs the `campaign` subcommand, returning the summary to print and the
/// exit code ([`EXIT_DEADLINE`] when the global deadline cut the run short).
pub fn run_campaign_cli(cfg: &CampaignCliConfig) -> Result<CommandOutput, String> {
    let spec = load_spec(&cfg.spec_path)?;
    if cfg.dry_run {
        // The run path below validates on its own; only the dry run needs
        // the expansion here (for the counts).
        let jobs = spec.expand()?;
        surepath_core::validate_campaign(&spec)?;
        return Ok(CommandOutput::ok(format!(
            "campaign `{}`: {} jobs valid ({} topologies x {} mechanisms x {} traffics x {} scenarios x {} roots x {} VC budgets x {} loads x {} {}); dry run, nothing executed",
            spec.name,
            jobs.len(),
            spec.topologies.len(),
            spec.mechanisms.as_ref().map_or(1, Vec::len),
            spec.traffics.as_ref().map_or(1, Vec::len),
            spec.scenarios.as_ref().map_or(1, Vec::len),
            spec.roots.as_ref().map_or(1, Vec::len),
            spec.vc_counts.as_ref().map_or(1, Vec::len),
            spec.loads.as_ref().map_or(1, Vec::len),
            spec.replica_seeds().len(),
            if spec.replicas.is_some() {
                "replicas"
            } else {
                "seeds"
            },
        )));
    }
    let store_path = cfg.store_path();
    let outcome = if cfg.trace {
        surepath_core::run_campaign_traced(&spec, &store_path, cfg.threads, cfg.quiet)
    } else {
        surepath_core::run_campaign(&spec, &store_path, cfg.threads, cfg.quiet)
    }
    .map_err(|e| format!("campaign failed: {e}"))?;
    let mut text = format!(
        "campaign `{}`: {} jobs total, {} skipped (already complete), {} executed, {} failed\nresults: {}",
        spec.name,
        outcome.total,
        outcome.skipped,
        outcome.executed,
        outcome.failed,
        store_path.display()
    );
    if cfg.trace {
        text.push_str(&format!(
            "\ntrace: {} (render with `surepath trace {}`)",
            surepath_runner::trace_path(&store_path).display(),
            store_path.display()
        ));
    }
    let exit_code = if outcome.deadline_hit {
        text.push_str("\n(deadline hit: partial store finalized; re-run to resume the rest)");
        EXIT_DEADLINE
    } else {
        0
    };
    Ok(CommandOutput { text, exit_code })
}

/// The usage string of the `trace` subcommand.
pub const TRACE_USAGE: &str = "usage: surepath trace <store.jsonl>
  Renders the packet-trace sidecar (<store>.trace.jsonl, recorded by
  `surepath campaign <spec> --trace`) as per-job lifecycle summaries: a
  latency breakdown of delivered packets bucketed by hop count, plus an
  escape-tree usage summary. Pass either the store or the sidecar path.
  Read-only — nothing is simulated and nothing is written.
  --help               this message";

/// Runs the `trace` subcommand: load the packet-trace sidecar next to a
/// store and render the per-hop latency / escape-usage breakdown.
pub fn run_trace_command(args: &[String]) -> Result<CommandOutput, String> {
    let mut input: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Err(TRACE_USAGE.to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown argument '{other}'\n{TRACE_USAGE}"))
            }
            positional => {
                if input.replace(positional.to_string()).is_some() {
                    return Err(format!("trace takes exactly one store\n{TRACE_USAGE}"));
                }
            }
        }
    }
    let input = input.ok_or_else(|| format!("missing store\n{TRACE_USAGE}"))?;
    // Accept the sidecar itself, too: `surepath trace x.trace.jsonl` renders
    // the same file as `surepath trace x.jsonl`.
    let (store_file, sidecar) = match input.strip_suffix(".trace.jsonl") {
        Some(stem) => (
            std::path::PathBuf::from(format!("{stem}.jsonl")),
            std::path::PathBuf::from(&input),
        ),
        None => {
            let store = std::path::PathBuf::from(&input);
            let sidecar = surepath_runner::trace_path(&store);
            (store, sidecar)
        }
    };
    if !sidecar.is_file() {
        return Err(format!(
            "no trace sidecar at {} — record one with `surepath campaign <spec> --trace`",
            sidecar.display()
        ));
    }
    let records = surepath_runner::load_trace(&sidecar)
        .map_err(|e| format!("cannot read {}: {e}", sidecar.display()))?;
    // Job labels come from the store when it is readable; a sidecar that
    // travelled without its store still renders (fingerprint labels).
    let store = surepath_core::ResultStore::open_read_only(&store_file).ok();
    let mut out = format!(
        "trace: {} record(s) from {}\n",
        records.len(),
        sidecar.display()
    );
    out.push_str(&surepath_core::format_trace_report(
        &records,
        store.as_ref(),
    ));
    Ok(CommandOutput::ok(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use surepath_core::{FaultShape, RootPolicy};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_match_the_paper_3d_configuration() {
        let cfg = parse_args(&[]).unwrap();
        assert_eq!(cfg.sides, vec![8, 8, 8]);
        assert_eq!(cfg.concentration, 8);
        assert_eq!(cfg.mechanism, MechanismSpec::PolSP);
        assert_eq!(cfg.mode, RunMode::Rate(0.5));
        assert_eq!(cfg.scenario, FaultScenario::None);
        let e = build_experiment(&cfg).unwrap();
        assert_eq!(e.num_vcs, 6);
        assert_eq!(e.sides, vec![8, 8, 8]);
    }

    #[test]
    fn full_command_line_round_trips() {
        let cfg = parse_args(&args(&[
            "--sides",
            "16x16",
            "--mechanism",
            "omnisp",
            "--traffic",
            "dcr",
            "--faults",
            "cross:5",
            "--vcs",
            "4",
            "--load",
            "0.9",
            "--seed",
            "7",
            "--root",
            "max-degree",
            "--json",
        ]))
        .unwrap();
        assert_eq!(cfg.sides, vec![16, 16]);
        assert_eq!(
            cfg.concentration, 16,
            "concentration defaults to the first side"
        );
        assert_eq!(cfg.mechanism, MechanismSpec::OmniSP);
        assert_eq!(cfg.traffic, TrafficSpec::DimensionComplementReverse);
        assert_eq!(cfg.vcs, Some(4));
        assert_eq!(cfg.mode, RunMode::Rate(0.9));
        assert_eq!(cfg.seed, 7);
        assert!(cfg.json);
        assert_eq!(cfg.root, RootPlacement::Policy(RootPolicy::MaxAliveDegree));
        match &cfg.scenario {
            FaultScenario::Shape(FaultShape::Cross { center, margin }) => {
                assert_eq!(center, &vec![8, 8]);
                assert_eq!(*margin, 5);
            }
            other => panic!("unexpected scenario {other:?}"),
        }
        let e = build_experiment(&cfg).unwrap();
        assert_eq!(e.num_vcs, 4);
        assert_eq!(e.sim.seed, 7);
    }

    #[test]
    fn fault_specs_cover_every_named_shape() {
        let sides = vec![8usize, 8, 8];
        assert_eq!(parse_faults("none", &sides).unwrap(), FaultScenario::None);
        assert!(matches!(
            parse_faults("random:30:5", &sides).unwrap(),
            FaultScenario::Random { count: 30, seed: 5 }
        ));
        assert!(matches!(
            parse_faults("row", &sides).unwrap(),
            FaultScenario::Shape(FaultShape::Row { along_dim: 0, .. })
        ));
        assert!(matches!(
            parse_faults("subcube:3", &sides).unwrap(),
            FaultScenario::Shape(FaultShape::Subgrid { size: 3, .. })
        ));
        assert!(matches!(
            parse_faults("star", &sides).unwrap(),
            FaultScenario::Shape(FaultShape::Cross { margin: 1, .. })
        ));
        assert!(parse_faults("subgrid:9", &sides).is_err());
        assert!(parse_faults("cross:8", &sides).is_err());
        assert!(parse_faults("meteor", &sides).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected_with_messages() {
        assert!(parse_args(&args(&["--sides", "1x8"])).is_err());
        assert!(parse_args(&args(&["--mechanism", "nonsense"])).is_err());
        assert!(parse_args(&args(&["--traffic", "nonsense"])).is_err());
        assert!(parse_args(&args(&["--load", "1.5"])).is_err());
        assert!(parse_args(&args(&["--load", "0"])).is_err());
        assert!(parse_args(&args(&["--batch", "0"])).is_err());
        assert!(
            parse_args(&args(&["--warmup", "10"])).is_err(),
            "warmup without measure"
        );
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["--help"]))
            .unwrap_err()
            .contains("usage"));
    }

    #[test]
    fn experiments_that_cannot_be_built_are_errors_not_panics() {
        // Each parses, and `surepath campaign` rejects the same job.
        for (extra, message) in [
            (
                &["--mechanism", "omnisp", "--vcs", "1", "--load", "0.1"][..],
                "OmniSP needs 2 to 255 VCs, got vcs = 1",
            ),
            (
                &["--mechanism", "minimal", "--vcs", "300"][..],
                "Minimal needs 1 to 255 VCs, got vcs = 300",
            ),
            (
                &["--faults", "random:999:1"][..],
                "cannot fail 999 links, only 48 exist",
            ),
            (
                &["--root", "switch:16"][..],
                "escape root switch:16 out of range: the topology has 16 switches",
            ),
        ] {
            let mut list = vec!["--sides", "4x4"];
            list.extend_from_slice(extra);
            let cfg = parse_args(&args(&list)).unwrap();
            assert_eq!(build_experiment(&cfg).unwrap_err(), message, "{list:?}");
            assert_eq!(run(&cfg).unwrap_err(), message, "{list:?}");
        }
    }

    #[test]
    fn batch_mode_and_windows_are_parsed() {
        let cfg = parse_args(&args(&[
            "--sides",
            "4x4",
            "--batch",
            "60",
            "--warmup",
            "100",
            "--measure",
            "400",
        ]))
        .unwrap();
        assert_eq!(cfg.mode, RunMode::Batch(60));
        assert_eq!(cfg.windows, Some((100, 400)));
        let e = build_experiment(&cfg).unwrap();
        assert_eq!(e.sim.warmup_cycles, 100);
        assert_eq!(e.sim.measure_cycles, 400);
    }

    fn parse_run(list: &[&str]) -> Result<CampaignCliConfig, String> {
        match parse_campaign_args(&args(list))? {
            CampaignCommand::Run(cfg) => Ok(cfg),
            other => Err(format!("expected a run command, got {other:?}")),
        }
    }

    #[test]
    fn campaign_args_parse_and_reject() {
        let cfg = parse_run(&[
            "grid.toml",
            "--threads",
            "4",
            "--quiet",
            "--store",
            "out.jsonl",
        ])
        .unwrap();
        assert_eq!(cfg.spec_path, "grid.toml");
        assert_eq!(cfg.threads, Some(4));
        assert!(cfg.quiet);
        assert_eq!(cfg.store_path(), std::path::PathBuf::from("out.jsonl"));

        let default_store = parse_run(&["grid.toml"]).unwrap();
        assert_eq!(
            default_store.store_path(),
            std::path::PathBuf::from("grid.results.jsonl")
        );

        assert!(parse_campaign_args(&args(&[])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "b.toml"])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "--threads", "0"])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "--bogus"])).is_err());
        assert!(parse_campaign_args(&args(&["--help"]))
            .unwrap_err()
            .contains("campaign"));
    }

    #[test]
    fn report_and_merge_args_parse_and_reject() {
        assert_eq!(
            parse_campaign_args(&args(&["--report", "a.jsonl", "b.jsonl"])).unwrap(),
            CampaignCommand::Report {
                stores: vec!["a.jsonl".into(), "b.jsonl".into()],
                merge: None,
                csv: None,
                plots: None,
                gnuplot: false,
                timings: false,
                counters: false,
            }
        );
        assert_eq!(
            parse_campaign_args(&args(&[
                "--report",
                "a.jsonl",
                "--merge",
                "all.jsonl",
                "--csv",
                "out.csv"
            ]))
            .unwrap(),
            CampaignCommand::Report {
                stores: vec!["a.jsonl".into()],
                merge: Some("all.jsonl".into()),
                csv: Some("out.csv".into()),
                plots: None,
                gnuplot: false,
                timings: false,
                counters: false,
            }
        );
        assert_eq!(
            parse_campaign_args(&args(&["--merge", "all.jsonl", "a.jsonl", "b.jsonl"])).unwrap(),
            CampaignCommand::Merge {
                output: "all.jsonl".into(),
                inputs: vec!["a.jsonl".into(), "b.jsonl".into()],
            }
        );
        // Stores are mandatory, must exist, and the modes do not mix with
        // run flags.
        assert!(parse_campaign_args(&args(&["--report"])).is_err());
        assert!(parse_campaign_args(&args(&["--merge", "all.jsonl"])).is_err());
        let missing = run_campaign_command(&CampaignCommand::Report {
            stores: vec!["/nonexistent/store.jsonl".into()],
            merge: None,
            csv: None,
            plots: None,
            gnuplot: false,
            timings: false,
            counters: false,
        })
        .unwrap_err();
        assert!(missing.contains("store not found"), "{missing}");
        assert!(parse_campaign_args(&args(&["--report", "a.jsonl", "--dry-run"])).is_err());
        assert!(parse_campaign_args(&args(&["--report", "a.jsonl", "--threads", "2"])).is_err());
        assert!(parse_campaign_args(&args(&["--report", "a.jsonl", "--quiet"])).is_err());
        assert!(parse_campaign_args(&args(&["--merge", "o.jsonl", "a.jsonl", "--quiet"])).is_err());
        assert!(parse_campaign_args(&args(&["spec.toml", "--csv", "x.csv"])).is_err());
    }

    #[test]
    fn diff_args_parse_and_reject() {
        assert_eq!(
            parse_campaign_args(&args(&["--diff", "a.jsonl", "b.jsonl"])).unwrap(),
            CampaignCommand::Diff {
                baseline: "a.jsonl".into(),
                candidate: "b.jsonl".into(),
                campaign: None,
                csv: None,
            }
        );
        // Exactly two stores, no other flags.
        assert!(parse_campaign_args(&args(&["--diff"])).is_err());
        assert!(parse_campaign_args(&args(&["--diff", "a.jsonl"])).is_err());
        assert!(parse_campaign_args(&args(&["--diff", "a.jsonl", "b.jsonl", "c.jsonl"])).is_err());
        assert!(parse_campaign_args(&args(&["--diff", "a.jsonl", "b.jsonl", "--quiet"])).is_err());
        assert!(parse_campaign_args(&args(&["--diff", "--report", "a.jsonl", "b.jsonl"])).is_err());
        assert_eq!(
            parse_campaign_args(&args(&[
                "--diff",
                "a.jsonl",
                "b.jsonl",
                "--csv",
                "x.csv",
                "--campaign",
                "fig06"
            ]))
            .unwrap(),
            CampaignCommand::Diff {
                baseline: "a.jsonl".into(),
                candidate: "b.jsonl".into(),
                campaign: Some("fig06".into()),
                csv: Some("x.csv".into()),
            }
        );
        assert!(
            parse_campaign_args(&args(&["--campaign", "fig06", "--report", "a.jsonl"])).is_err(),
            "--campaign belongs to --diff"
        );
        let missing = run_campaign_command(&CampaignCommand::Diff {
            baseline: "/nonexistent/a.jsonl".into(),
            candidate: "/nonexistent/b.jsonl".into(),
            campaign: None,
            csv: None,
        })
        .unwrap_err();
        assert!(missing.contains("store not found"), "{missing}");
    }

    #[test]
    fn distributed_args_parse_and_reject() {
        assert_eq!(
            parse_campaign_args(&args(&["grid.toml", "--serve", "0.0.0.0:7777", "--quiet"]))
                .unwrap(),
            CampaignCommand::Serve {
                spec_path: "grid.toml".into(),
                store: None,
                addr: "0.0.0.0:7777".into(),
                spawn_local: None,
                threads: None,
                lease_secs: 60,
                chunk: None,
                metrics_addr: None,
                quiet: true,
            }
        );
        assert_eq!(
            parse_campaign_args(&args(&[
                "grid.toml",
                "--spawn-local",
                "3",
                "--store",
                "out.jsonl",
                "--lease-secs",
                "5",
                "--chunk",
                "2",
            ]))
            .unwrap(),
            CampaignCommand::Serve {
                spec_path: "grid.toml".into(),
                store: Some("out.jsonl".into()),
                addr: "127.0.0.1:0".into(),
                spawn_local: Some(3),
                threads: None,
                lease_secs: 5,
                chunk: Some(2),
                metrics_addr: None,
                quiet: false,
            }
        );
        assert_eq!(
            parse_campaign_args(&args(&["--worker", "host:7777", "--threads", "2"])).unwrap(),
            CampaignCommand::Worker {
                addr: "host:7777".into(),
                threads: Some(2),
                reconnect_retries: None,
                backoff_ms: None,
                quiet: false,
            }
        );
        // Reconnect tuning rides on --worker and nothing else.
        assert_eq!(
            parse_campaign_args(&args(&[
                "--worker",
                "host:7777",
                "--reconnect-retries",
                "3",
                "--backoff-ms",
                "250"
            ]))
            .unwrap(),
            CampaignCommand::Worker {
                addr: "host:7777".into(),
                threads: None,
                reconnect_retries: Some(3),
                backoff_ms: Some(250),
                quiet: false,
            }
        );
        assert!(parse_campaign_args(&args(&["a.toml", "--reconnect-retries", "3"])).is_err());
        assert!(
            parse_campaign_args(&args(&["a.toml", "--serve", "h:1", "--backoff-ms", "50"]))
                .is_err()
        );
        assert!(
            parse_campaign_args(&args(&["--worker", "h:1", "--reconnect-retries", "0"])).is_err()
        );
        // --threads with --spawn-local is each forked worker's pool size.
        match parse_campaign_args(&args(&["g.toml", "--spawn-local", "2", "--threads", "4"]))
            .unwrap()
        {
            CampaignCommand::Serve {
                spawn_local,
                threads,
                ..
            } => {
                assert_eq!(spawn_local, Some(2));
                assert_eq!(threads, Some(4));
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // Serve needs a spec; worker takes none; the modes do not mix.
        assert!(parse_campaign_args(&args(&["--serve", "0.0.0.0:7777"])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "b.toml", "--spawn-local", "2"])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "--spawn-local", "0"])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "--worker", "h:1"])).is_err());
        assert!(parse_campaign_args(&args(&["--worker", "h:1", "--report", "a.jsonl"])).is_err());
        assert!(parse_campaign_args(&args(&["--worker", "h:1", "--serve", "h:2"])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "--serve", "h:1", "--dry-run"])).is_err());
        assert!(
            parse_campaign_args(&args(&["a.toml", "--serve", "h:1", "--threads", "2"])).is_err(),
            "the coordinator executes nothing"
        );
        assert!(parse_campaign_args(&args(&["a.toml", "--lease-secs", "0"])).is_err());
        // Report gains --plots/--timings; they stay report-only.
        assert_eq!(
            parse_campaign_args(&args(&[
                "--report",
                "a.jsonl",
                "--plots",
                "figs",
                "--timings"
            ]))
            .unwrap(),
            CampaignCommand::Report {
                stores: vec!["a.jsonl".into()],
                merge: None,
                csv: None,
                plots: Some("figs".into()),
                gnuplot: false,
                timings: true,
                counters: false,
            }
        );
        assert!(parse_campaign_args(&args(&["a.toml", "--plots", "figs"])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "--timings"])).is_err());
    }

    #[test]
    fn gnuplot_flag_parses_and_rejects() {
        assert_eq!(
            parse_campaign_args(&args(&[
                "--report",
                "a.jsonl",
                "--plots",
                "figs",
                "--gnuplot"
            ]))
            .unwrap(),
            CampaignCommand::Report {
                stores: vec!["a.jsonl".into()],
                merge: None,
                csv: None,
                plots: Some("figs".into()),
                gnuplot: true,
                timings: false,
                counters: false,
            }
        );
        // --gnuplot needs --plots (a directory to write into) and --report.
        assert!(parse_campaign_args(&args(&["--report", "a.jsonl", "--gnuplot"])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "--gnuplot"])).is_err());
        assert!(
            parse_campaign_args(&args(&["--diff", "a.jsonl", "b.jsonl", "--gnuplot"])).is_err()
        );
        assert!(parse_campaign_args(&args(&["--worker", "h:1", "--gnuplot"])).is_err());
        assert!(parse_campaign_args(&args(&["a.toml", "--serve", "h:1", "--gnuplot"])).is_err());
    }

    #[test]
    fn worker_command_drains_a_real_coordinator() {
        // A coordinator served straight from dist; the CLI-level Worker
        // command (with the real simulation bridge) must drain it.
        let dir = std::env::temp_dir().join("surepath-cli-worker-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let store_path = dir.join(format!("worker-{pid}.jsonl"));
        for suffix in ["jsonl", "manifest.jsonl", "timings.jsonl"] {
            let _ = std::fs::remove_file(store_path.with_extension(suffix));
        }
        let spec = surepath_core::CampaignSpec {
            name: "cli-worker".into(),
            topologies: vec![surepath_core::TopologySpec {
                sides: vec![4, 4],
                concentration: None,
            }],
            mechanisms: Some(vec!["polsp".into()]),
            traffics: Some(vec!["uniform".into()]),
            scenarios: Some(vec!["none".into()]),
            loads: Some(vec![0.3]),
            seeds: Some(vec![1, 2]),
            warmup: Some(100),
            measure: Some(250),
            ..surepath_core::CampaignSpec::default()
        };
        let jobs = spec.expand().unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let (jobs, store_path) = (jobs.clone(), store_path.clone());
            std::thread::spawn(move || {
                surepath_dist::serve(
                    listener,
                    "cli-worker",
                    &jobs,
                    &store_path,
                    &surepath_dist::ServeOptions {
                        quiet: true,
                        ..surepath_dist::ServeOptions::default()
                    },
                )
            })
        };
        let output = run_campaign_command(&CampaignCommand::Worker {
            addr,
            threads: Some(2),
            reconnect_retries: None,
            backoff_ms: None,
            quiet: true,
        })
        .unwrap();
        assert!(
            output.text.contains("2 executed, 0 failed"),
            "{}",
            output.text
        );
        let outcome = server.join().unwrap().unwrap();
        assert!(outcome.is_complete());

        // The distributed store matches a plain local run byte for byte.
        let local_path = dir.join(format!("worker-{pid}-local.jsonl"));
        let _ = std::fs::remove_file(&local_path);
        surepath_core::run_campaign(&spec, &local_path, Some(2), true).unwrap();
        assert_eq!(
            std::fs::read(&store_path).unwrap(),
            std::fs::read(&local_path).unwrap(),
            "distributed (real simulation) store must equal the local bytes"
        );

        // --report sees the manifest sidecar and the timings table.
        let report = run_campaign_command(&CampaignCommand::Report {
            stores: vec![store_path.to_string_lossy().into_owned()],
            merge: None,
            csv: None,
            plots: None,
            gnuplot: false,
            timings: true,
            counters: false,
        })
        .unwrap()
        .text;
        assert!(
            report.contains("2 assignment(s), 2 delivered, 0 in flight"),
            "{report}"
        );
        assert!(report.contains("slowest jobs"), "{report}");
        assert!(report.contains("2 timed jobs"), "{report}");

        for suffix in ["jsonl", "manifest.jsonl", "timings.jsonl"] {
            let _ = std::fs::remove_file(store_path.with_extension(suffix));
        }
        let _ = std::fs::remove_file(&local_path);
        let _ = std::fs::remove_file(surepath_runner::timings_path(&local_path));
    }

    #[test]
    fn replicated_campaign_reports_ci_and_diffs_clean_against_itself() {
        let dir = std::env::temp_dir().join("surepath-cli-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let spec_path = dir.join(format!("rep-{pid}.toml"));
        let store_a = dir.join(format!("rep-{pid}-a.jsonl"));
        let store_b = dir.join(format!("rep-{pid}-b.jsonl"));
        for p in [&store_a, &store_b] {
            let _ = std::fs::remove_file(p);
        }
        std::fs::write(
            &spec_path,
            r#"
                name = "rep"
                mechanisms = ["polsp"]
                traffics = ["uniform"]
                scenarios = ["none"]
                loads = [0.3]
                replicas = 3
                warmup = 100
                measure = 250

                [[topologies]]
                sides = [4, 4]
            "#,
        )
        .unwrap();
        for store in [&store_a, &store_b] {
            let summary = run_campaign_cli(&CampaignCliConfig {
                spec_path: spec_path.to_string_lossy().into_owned(),
                store: Some(store.to_string_lossy().into_owned()),
                threads: Some(2),
                quiet: true,
                dry_run: false,
                trace: false,
            })
            .unwrap()
            .text;
            assert!(summary.contains("3 jobs total"), "{summary}");
        }
        // Identical runs produce identical stores; the report shows mean ± CI.
        assert_eq!(
            std::fs::read(&store_a).unwrap(),
            std::fs::read(&store_b).unwrap()
        );
        let report = run_campaign_command(&CampaignCommand::Report {
            stores: vec![store_a.to_string_lossy().into_owned()],
            merge: None,
            csv: None,
            plots: None,
            gnuplot: false,
            timings: false,
            counters: false,
        })
        .unwrap()
        .text;
        assert!(
            report.contains('±'),
            "replicated report shows CIs: {report}"
        );

        // Self-diff: zero significant regressions.
        let diff = run_campaign_command(&CampaignCommand::Diff {
            baseline: store_a.to_string_lossy().into_owned(),
            candidate: store_b.to_string_lossy().into_owned(),
            campaign: None,
            csv: None,
        })
        .unwrap()
        .text;
        assert!(diff.contains("result: no regressions"), "{diff}");

        // The dry run reports the replica dimension.
        let dry = run_campaign_cli(&CampaignCliConfig {
            spec_path: spec_path.to_string_lossy().into_owned(),
            store: None,
            threads: None,
            quiet: true,
            dry_run: true,
            trace: false,
        })
        .unwrap()
        .text;
        assert!(dry.contains("3 replicas"), "{dry}");

        for p in [&spec_path, &store_a, &store_b] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn report_and_merge_render_stores_without_simulating() {
        let dir = std::env::temp_dir().join("surepath-cli-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let spec_path = dir.join(format!("report-{pid}.toml"));
        let shard_a = dir.join(format!("report-{pid}-a.jsonl"));
        let shard_b = dir.join(format!("report-{pid}-b.jsonl"));
        let merged = dir.join(format!("report-{pid}-all.jsonl"));
        let csv = dir.join(format!("report-{pid}.csv"));
        for p in [&shard_a, &shard_b, &merged, &csv] {
            let _ = std::fs::remove_file(p);
        }
        // Two shards of the same campaign, produced by independent runs
        // (e.g. two machines splitting the seeds).
        let spec_text = |seeds: &str| {
            format!(
                r#"
                    name = "sharded"
                    mechanisms = ["polsp"]
                    traffics = ["uniform"]
                    scenarios = ["none"]
                    loads = [0.3]
                    seeds = [{seeds}]
                    warmup = 100
                    measure = 250

                    [[topologies]]
                    sides = [4, 4]
                "#
            )
        };
        for (seeds, shard) in [("1", &shard_a), ("2", &shard_b)] {
            std::fs::write(&spec_path, spec_text(seeds)).unwrap();
            run_campaign_cli(&CampaignCliConfig {
                spec_path: spec_path.to_string_lossy().into_owned(),
                store: Some(shard.to_string_lossy().into_owned()),
                threads: Some(2),
                quiet: true,
                dry_run: false,
                trace: false,
            })
            .unwrap();
        }

        let report = run_campaign_command(&CampaignCommand::Report {
            stores: vec![
                shard_a.to_string_lossy().into_owned(),
                shard_b.to_string_lossy().into_owned(),
            ],
            merge: Some(merged.to_string_lossy().into_owned()),
            csv: Some(csv.to_string_lossy().into_owned()),
            plots: None,
            gnuplot: false,
            timings: false,
            counters: false,
        })
        .unwrap()
        .text;
        assert!(
            report.contains("campaign `sharded` / kind `rate`"),
            "{report}"
        );
        assert!(report.contains("2 ok, 0 failed"), "{report}");
        assert!(report.contains("PolSP"), "{report}");
        assert!(merged.exists(), "--merge persisted the merged store");
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert_eq!(csv_text.lines().count(), 3, "header + one line per seed");

        let summary = run_campaign_command(&CampaignCommand::Merge {
            output: merged.to_string_lossy().into_owned(),
            inputs: vec![
                shard_a.to_string_lossy().into_owned(),
                shard_b.to_string_lossy().into_owned(),
            ],
        })
        .unwrap()
        .text;
        assert!(summary.contains("2 written"), "{summary}");

        for p in [&spec_path, &shard_a, &shard_b, &merged, &csv] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn report_over_shards_removes_its_temporary_merge_on_failure() {
        let dir = std::env::temp_dir().join("surepath-cli-report-merge-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let shards: Vec<std::path::PathBuf> = ["a", "b"]
            .iter()
            .map(|s| dir.join(format!("shard-{pid}-{s}.jsonl")))
            .collect();
        for (seed, shard) in shards.iter().enumerate() {
            let _ = std::fs::remove_file(shard);
            let mut store = surepath_runner::ResultStore::open(shard).unwrap();
            let job = surepath_runner::JobSpec {
                campaign: "shards".into(),
                sides: vec![4, 4],
                seed: seed as u64 + 1,
                ..surepath_runner::JobSpec::default()
            };
            store
                .append_ok(&job, serde_json::to_value(&1u64).unwrap())
                .unwrap();
        }
        // The CSV write fails after the merge: the error must not leak the
        // temporary merged store.
        let result = run_campaign_command(&CampaignCommand::Report {
            stores: shards
                .iter()
                .map(|p| p.to_string_lossy().into_owned())
                .collect(),
            merge: None,
            csv: Some(dir.join("no-such-dir/x.csv").to_string_lossy().into_owned()),
            plots: None,
            gnuplot: false,
            timings: false,
            counters: false,
        });
        assert!(result.is_err(), "{result:?}");
        assert!(
            !report_merge_path().exists(),
            "temporary merge left at {}",
            report_merge_path().display()
        );
        for shard in &shards {
            let _ = std::fs::remove_file(shard);
        }
    }

    #[test]
    fn campaign_cli_runs_then_resumes_instantly() {
        let dir = std::env::temp_dir().join("surepath-cli-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join(format!("quick-{}.toml", std::process::id()));
        let store_path = dir.join(format!("quick-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&store_path);
        std::fs::write(
            &spec_path,
            r#"
                name = "cli-test"
                mechanisms = ["polsp"]
                traffics = ["uniform"]
                scenarios = ["none", "random:4:2"]
                loads = [0.3]
                seeds = [1, 2]
                warmup = 100
                measure = 250

                [[topologies]]
                sides = [4, 4]
            "#,
        )
        .unwrap();
        let cfg = CampaignCliConfig {
            spec_path: spec_path.to_string_lossy().into_owned(),
            store: Some(store_path.to_string_lossy().into_owned()),
            threads: Some(2),
            quiet: true,
            dry_run: false,
            trace: false,
        };
        let output = run_campaign_cli(&cfg).unwrap();
        assert_eq!(output.exit_code, 0);
        let summary = output.text;
        assert!(summary.contains("4 jobs total"), "{summary}");
        assert!(summary.contains("4 executed"), "{summary}");
        assert!(summary.contains("0 failed"), "{summary}");

        // Second invocation: everything fingerprint-complete, nothing runs.
        let resumed = run_campaign_cli(&cfg).unwrap().text;
        assert!(resumed.contains("4 skipped"), "{resumed}");
        assert!(resumed.contains("0 executed"), "{resumed}");

        // A dry run validates without touching the store.
        let dry = CampaignCliConfig {
            dry_run: true,
            ..cfg.clone()
        };
        assert!(run_campaign_cli(&dry).unwrap().text.contains("dry run"));

        let _ = std::fs::remove_file(&spec_path);
        let _ = std::fs::remove_file(&store_path);
    }

    #[test]
    fn observability_flags_parse_and_reject() {
        // --trace rides on a plain run.
        assert!(parse_run(&["grid.toml", "--trace"]).unwrap().trace);
        assert!(!parse_run(&["grid.toml"]).unwrap().trace);
        // --counters rides on --report.
        match parse_campaign_args(&args(&["--report", "a.jsonl", "--counters"])).unwrap() {
            CampaignCommand::Report { counters, .. } => assert!(counters),
            other => panic!("expected Report, got {other:?}"),
        }
        // --metrics-addr rides on --serve / --spawn-local.
        match parse_campaign_args(&args(&[
            "g.toml",
            "--serve",
            "h:1",
            "--metrics-addr",
            "127.0.0.1:9100",
        ]))
        .unwrap()
        {
            CampaignCommand::Serve { metrics_addr, .. } => {
                assert_eq!(metrics_addr.as_deref(), Some("127.0.0.1:9100"))
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // Each flag stays in its lane.
        assert!(parse_campaign_args(&args(&["--report", "a.jsonl", "--trace"])).is_err());
        assert!(parse_campaign_args(&args(&["g.toml", "--serve", "h:1", "--trace"])).is_err());
        assert!(parse_campaign_args(&args(&["--worker", "h:1", "--trace"])).is_err());
        assert!(parse_campaign_args(&args(&["--diff", "a.jsonl", "b.jsonl", "--trace"])).is_err());
        assert!(parse_campaign_args(&args(&["g.toml", "--counters"])).is_err());
        assert!(
            parse_campaign_args(&args(&["--diff", "a.jsonl", "b.jsonl", "--counters"])).is_err()
        );
        assert!(parse_campaign_args(&args(&["--worker", "h:1", "--counters"])).is_err());
        assert!(parse_campaign_args(&args(&["g.toml", "--metrics-addr", "h:9100"])).is_err());
        assert!(
            parse_campaign_args(&args(&["--worker", "h:1", "--metrics-addr", "h:9100"])).is_err()
        );
        assert!(
            parse_campaign_args(&args(&["--report", "a.jsonl", "--metrics-addr", "h:9100"]))
                .is_err()
        );
        assert!(
            parse_campaign_args(&args(&["g.toml", "--dry-run", "--trace"])).is_err(),
            "a dry run executes nothing, so there is nothing to trace"
        );
    }

    #[test]
    fn traced_campaign_keeps_store_bytes_and_renders_everywhere() {
        let dir = std::env::temp_dir().join("surepath-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let spec_path = dir.join(format!("trace-{pid}.toml"));
        let plain = dir.join(format!("trace-{pid}-plain.jsonl"));
        let traced = dir.join(format!("trace-{pid}-traced.jsonl"));
        let sidecar = surepath_runner::trace_path(&traced);
        for p in [&plain, &traced, &sidecar] {
            let _ = std::fs::remove_file(p);
        }
        std::fs::write(
            &spec_path,
            r#"
                name = "traced"
                mechanisms = ["polsp"]
                traffics = ["uniform"]
                scenarios = ["none"]
                loads = [0.3]
                seeds = [1]
                warmup = 100
                measure = 250

                [[topologies]]
                sides = [4, 4]
            "#,
        )
        .unwrap();
        let run = |store: &std::path::Path, trace: bool| {
            run_campaign_cli(&CampaignCliConfig {
                spec_path: spec_path.to_string_lossy().into_owned(),
                store: Some(store.to_string_lossy().into_owned()),
                threads: Some(1),
                quiet: true,
                dry_run: false,
                trace,
            })
            .unwrap()
            .text
        };
        run(&plain, false);
        let summary = run(&traced, true);
        assert!(summary.contains("trace:"), "{summary}");
        // The zero-perturbation contract, end to end through the CLI: the
        // traced store is byte-identical, the sidecar is extra.
        assert_eq!(
            std::fs::read(&plain).unwrap(),
            std::fs::read(&traced).unwrap(),
            "tracing must not change the store bytes"
        );
        assert!(sidecar.is_file(), "trace sidecar written");

        // `surepath trace` renders the sidecar, by store path or directly.
        for input in [&traced, &sidecar] {
            let rendered = run_trace_command(&[input.to_string_lossy().into_owned()])
                .unwrap()
                .text;
            assert!(rendered.contains("=== trace: job"), "{rendered}");
            assert!(rendered.contains("packet(s) injected"), "{rendered}");
            assert!(rendered.contains("avg latency"), "{rendered}");
        }
        let missing = run_trace_command(&[plain.to_string_lossy().into_owned()]).unwrap_err();
        assert!(missing.contains("no trace sidecar"), "{missing}");

        // --report --counters prints the merged engine-counter table.
        let report = run_campaign_command(&CampaignCommand::Report {
            stores: vec![traced.to_string_lossy().into_owned()],
            merge: None,
            csv: None,
            plots: None,
            gnuplot: false,
            timings: false,
            counters: true,
        })
        .unwrap()
        .text;
        assert!(report.contains("=== counters:"), "{report}");
        assert!(report.contains("alloc_requests"), "{report}");

        // Sidecar paths handed to --report (e.g. by a shell glob) are
        // skipped with a warning, never parsed as stores.
        let report = run_campaign_command(&CampaignCommand::Report {
            stores: vec![
                traced.to_string_lossy().into_owned(),
                sidecar.to_string_lossy().into_owned(),
            ],
            merge: None,
            csv: None,
            plots: None,
            gnuplot: false,
            timings: false,
            counters: false,
        })
        .unwrap()
        .text;
        assert!(report.contains("skipping sidecar"), "{report}");
        assert!(report.contains("campaign `traced`"), "{report}");
        let only_sidecars = run_campaign_command(&CampaignCommand::Report {
            stores: vec![sidecar.to_string_lossy().into_owned()],
            merge: None,
            csv: None,
            plots: None,
            gnuplot: false,
            timings: false,
            counters: false,
        })
        .unwrap_err();
        assert!(
            only_sidecars.contains("sidecars don't count"),
            "{only_sidecars}"
        );

        // --timings warns (instead of failing) when the sidecar is gone.
        let _ = std::fs::remove_file(surepath_runner::timings_path(&traced));
        let report = run_campaign_command(&CampaignCommand::Report {
            stores: vec![traced.to_string_lossy().into_owned()],
            merge: None,
            csv: None,
            plots: None,
            gnuplot: false,
            timings: true,
            counters: false,
        })
        .unwrap()
        .text;
        assert!(report.contains("warning: no timings sidecar"), "{report}");
        assert!(report.contains("slowest jobs"), "{report}");

        for p in [&spec_path, &plain, &traced, &sidecar] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_file(surepath_runner::timings_path(&plain));
    }

    #[test]
    fn run_produces_text_and_json_output() {
        let mut cfg = parse_args(&args(&[
            "--sides",
            "4x4",
            "--mechanism",
            "polsp",
            "--load",
            "0.3",
            "--warmup",
            "150",
            "--measure",
            "400",
        ]))
        .unwrap();
        cfg.concentration = 4;
        let text = run(&cfg).unwrap();
        assert!(text.contains("accepted"));
        assert!(text.contains("PolSP"));
        cfg.json = true;
        let json = run(&cfg).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(parsed["accepted_load"].as_f64().unwrap() > 0.1);
        assert_eq!(parsed["stalled"], serde_json::Value::Bool(false));
    }
}
