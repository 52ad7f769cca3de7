//! Figure 1: evolution of the HyperX diameter as random link failures
//! accumulate, for several independent fault sequences.
//!
//! The paper uses the 8×8×8 HyperX (`--full`); `--quick` uses 4×4×4 so the
//! all-pairs BFS stays cheap.
//!
//! Ported onto the campaign runner with a custom `diameter` job kind: one
//! job per fault sequence, run in parallel on the bounded thread pool and
//! streamed to a resumable JSONL store — a worked example of a non-simulation
//! analysis campaign (the runner is domain-agnostic; the closure below gives
//! `diameter` jobs their meaning).

use hyperx_bench::{HarnessOptions, Scale};
use hyperx_topology::{diameter_under_fault_sequence, DiameterSample, FaultSet, HyperX};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use surepath_core::{CampaignSpec, FaultScenario, ResultStore, TopologySpec};
use surepath_runner::{job_fingerprint, JobSpec};

fn campaign(scale: Scale) -> (CampaignSpec, usize) {
    let (side, step, sequences) = match scale {
        Scale::Quick => (4usize, 8usize, 3usize),
        Scale::Paper => (8, 40, 4),
    };
    let hx = HyperX::regular(3, side);
    let total_links = hx.network().num_links();
    let spec = CampaignSpec {
        name: "fig01-diameter".to_string(),
        kind: Some("diameter".to_string()),
        topologies: vec![TopologySpec {
            sides: vec![side; 3],
            concentration: None,
        }],
        // One fault sequence per scenario; the scenario string carries both
        // the sequence length (all links) and the sequence seed.
        scenarios: Some(
            (0..sequences)
                .map(|i| format!("random:{total_links}:{}", 1000 + i as u64))
                .collect(),
        ),
        // Reuse the measure field as the diameter sampling step so the
        // fingerprint captures it (a different step is a different curve).
        measure: Some(step as u64),
        ..CampaignSpec::default()
    };
    (spec, total_links)
}

/// Executes one `diameter` job: replay the scenario's fault sequence and
/// sample the diameter every `measure` faults.
fn run_diameter_job(job: &JobSpec) -> Result<serde::Value, String> {
    if job.kind != "diameter" {
        return Err(format!(
            "fig01 only understands diameter jobs, got '{}'",
            job.kind
        ));
    }
    let scenario = job
        .scenario
        .as_deref()
        .ok_or("diameter jobs need a scenario")?;
    let FaultScenario::Random { count, seed } = FaultScenario::parse(scenario, &job.sides)? else {
        return Err(format!(
            "diameter jobs need a random:<count>:<seed> scenario, got '{scenario}'"
        ));
    };
    let step = job
        .measure
        .ok_or("diameter jobs store their step in `measure`")? as usize;
    let hx = HyperX::new(&job.sides);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sequence = FaultSet::random_sequence(hx.network(), count, &mut rng);
    let samples = diameter_under_fault_sequence(hx.network(), &sequence, step);
    serde_json::to_value(&samples).map_err(|e| e.to_string())
}

fn main() {
    let opts = HarnessOptions::from_args();
    let (spec, total_links) = campaign(opts.scale);
    let store_path = opts.store_path("fig01");
    let side = spec.topologies[0].sides[0];
    println!(
        "Figure 1: diameter vs random link failures on a {side}^3 HyperX ({total_links} links)"
    );
    println!();

    let outcome =
        surepath_runner::run_campaign(&spec, &store_path, opts.threads, true, run_diameter_job)
            .unwrap_or_else(|e| {
                eprintln!("campaign failed: {e}");
                std::process::exit(1);
            });
    eprintln!(
        "fig01: {} sequences ({} skipped, {} executed, {} failed)",
        outcome.total, outcome.skipped, outcome.executed, outcome.failed
    );

    let store = ResultStore::open_read_only(&store_path).unwrap_or_else(|e| {
        eprintln!("cannot reopen store {}: {e}", store_path.display());
        std::process::exit(1);
    });
    let jobs = spec.expand().expect("fig01 campaign expands");
    let mut csv = String::from("sequence,faults,fault_ratio,diameter\n");
    for (seq_idx, job) in jobs.iter().enumerate() {
        let record = match store.record(&job_fingerprint(job)) {
            Some(record) if record.status == "ok" => record,
            Some(failed) => {
                eprintln!(
                    "sequence {seq_idx}: failed ({}); rerun to retry",
                    failed.error.as_deref().unwrap_or("unknown error")
                );
                continue;
            }
            None => {
                eprintln!("sequence {seq_idx}: missing from store; rerun to retry");
                continue;
            }
        };
        let result = record.result.clone().expect("ok records carry results");
        let samples: Vec<DiameterSample> =
            serde_json::from_value(result).expect("diameter samples deserialize");
        println!("sequence {seq_idx}:");
        let mut last_reported = usize::MAX;
        let mut first_diameter_jump = None;
        for s in &samples {
            let label = match s.diameter {
                Some(d) => d.to_string(),
                None => "disconnected".to_string(),
            };
            csv.push_str(&format!(
                "{seq_idx},{},{:.4},{}\n",
                s.faults,
                s.faults as f64 / total_links as f64,
                label
            ));
            // Print only the transitions to keep the console output readable.
            let current = s.diameter.unwrap_or(usize::MAX - 1);
            if current != last_reported {
                println!(
                    "  {:>5} faults ({:>5.1}% of links): diameter {}",
                    s.faults,
                    100.0 * s.faults as f64 / total_links as f64,
                    label
                );
                if first_diameter_jump.is_none()
                    && s.diameter == Some(samples[0].diameter.unwrap() + 1)
                {
                    first_diameter_jump = Some(s.faults);
                }
                last_reported = current;
            }
            if s.diameter.is_none() {
                break;
            }
        }
        if let Some(f) = first_diameter_jump {
            println!("  -> first diameter increase after {f} faults");
        }
        println!();
    }
    println!(
        "Paper reference (8x8x8): ~80 faults to reach diameter 4, ~35% of links for diameter 5, \
         ~75% to disconnect."
    );
    println!(
        "(campaign store: {}; rerun to resume/skip)",
        store_path.display()
    );
    opts.maybe_write_csv(&csv);
}
