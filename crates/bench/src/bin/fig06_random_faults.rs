//! Figure 6: accepted load of OmniSP and PolSP as random link failures
//! accumulate (0 to 100 faults in the paper), for every traffic pattern, in
//! both the 2D and the 3D HyperX. SurePath runs with 4 VCs (3 routing + 1
//! escape), the configuration the paper highlights as a 33% VC saving.
//!
//! Ported onto the campaign runner: the whole grid is one declarative
//! [`CampaignSpec`] per network, executed on a bounded thread pool
//! and streamed to a resumable JSONL store (`--store`, default
//! `results/fig06_<scale>.jsonl`). Re-running the binary skips every
//! fingerprint-complete point, so an interrupted `--full` run resumes where
//! it stopped instead of starting over.

use hyperx_bench::{
    fault_steps, replicas, saturation_load, sides_2d, sides_3d, windows, HarnessOptions, Scale,
};
use hyperx_routing::MechanismSpec;
use surepath_core::{
    csv_half_width, store_points, CampaignSpec, RateMetrics, ResultStore, TopologySpec, TrafficSpec,
};

const FAULT_SEED: u64 = 20_240_404;

fn network_campaign(
    label: &str,
    scale: Scale,
    sides: Vec<usize>,
    patterns: &[TrafficSpec],
    steps: &[usize],
) -> CampaignSpec {
    let (warmup, measure) = windows(scale);
    CampaignSpec {
        name: format!("fig06-{label}"),
        topologies: vec![TopologySpec {
            sides,
            concentration: None,
        }],
        mechanisms: Some(hyperx_bench::mechanism_keys(
            &MechanismSpec::surepath_lineup(),
        )),
        traffics: Some(patterns.iter().map(|t| t.key().to_string()).collect()),
        scenarios: Some(
            steps
                .iter()
                .map(|count| format!("random:{count}:{FAULT_SEED}"))
                .collect(),
        ),
        loads: Some(vec![saturation_load()]),
        // Every (pattern, fault-count) point replicates across derived seeds
        // — the figure reports the replica mean, the CSV carries the CI.
        replicas: Some(replicas(scale)),
        // The paper's 4-VC SurePath configuration (3 routing + 1 escape).
        vcs: Some(4),
        warmup: Some(warmup),
        measure: Some(measure),
        ..CampaignSpec::default()
    }
}

/// `random:COUNT:SEED` → COUNT.
fn fault_count(scenario: &str) -> usize {
    scenario
        .split(':')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("fig06 scenarios are random:COUNT:SEED")
}

fn render_network(
    name: &str,
    store: &ResultStore,
    campaign: &CampaignSpec,
    patterns: &[TrafficSpec],
    steps: &[usize],
    csv: &mut String,
) {
    println!("=== Figure 6 / {name} ===");
    print!("{:>28} ", "pattern / mechanism");
    for count in steps {
        print!("{:>8}", format!("f={count}"));
    }
    println!();
    // Index the replica-aggregated points by (mechanism, traffic, fault
    // count). Only keyed lookups below — the render order comes from the
    // fixed lineups. The table prints the replica mean; the CSV carries the
    // sample size and ±2σ/√n half-widths.
    let mut cells = std::collections::HashMap::new();
    for point in store_points(store, &campaign.name, "rate") {
        let n = point.runs::<RateMetrics>().len();
        if n == 0 {
            continue;
        }
        let key = (
            point.job.mechanism.clone().unwrap_or_default(),
            point.job.traffic.clone().unwrap_or_default(),
            fault_count(point.job.scenario.as_deref().unwrap_or_default()),
        );
        cells.insert(key, (n, point));
    }
    for &traffic in patterns {
        for mechanism in MechanismSpec::surepath_lineup() {
            print!(
                "{:>28} ",
                format!("{} / {}", traffic.name(), mechanism.name())
            );
            for &count in steps {
                let key = (
                    mechanism.name().to_ascii_lowercase(),
                    traffic.key().to_string(),
                    count,
                );
                let Some((n, point)) = cells.get(&key) else {
                    print!("{:>8}", "-");
                    continue;
                };
                let accepted = point.summary(|m: &RateMetrics| m.accepted_load);
                let latency = point.summary(|m: &RateMetrics| m.average_latency);
                print!("{:>8.3}", accepted.mean);
                csv.push_str(&format!(
                    "{name},{},{},{count},{n},{:.6},{},{:.3},{},{:.5}\n",
                    mechanism.name(),
                    traffic.name().replace(',', ";"),
                    accepted.mean,
                    csv_half_width(&accepted, 6),
                    latency.mean,
                    csv_half_width(&latency, 3),
                    point.summary(|m: &RateMetrics| m.jain_generated).mean,
                ));
            }
            println!();
        }
    }
    println!();
}

fn main() {
    let opts = HarnessOptions::from_args();
    let steps = fault_steps(opts.scale);
    let store_path = opts.store_path("fig06");
    let mut csv = String::from(
        "network,mechanism,traffic,faults,replicas,accepted_mean,accepted_hw,latency_mean,latency_hw,jain_mean\n",
    );

    let patterns_2d = TrafficSpec::lineup_2d();
    let patterns_3d = TrafficSpec::lineup_3d();
    let networks: Vec<(&str, CampaignSpec, &[TrafficSpec])> = vec![
        (
            "2D HyperX",
            network_campaign("2d", opts.scale, sides_2d(opts.scale), &patterns_2d, &steps),
            &patterns_2d,
        ),
        (
            "3D HyperX",
            network_campaign("3d", opts.scale, sides_3d(opts.scale), &patterns_3d, &steps),
            &patterns_3d,
        ),
    ];

    // Runs locally by default; `--distributed N` fans the same grids out to
    // N TCP workers (the store is byte-identical either way).
    let specs: Vec<surepath_core::CampaignSpec> = networks
        .iter()
        .map(|(_, campaign, _)| campaign.clone())
        .collect();
    let store = hyperx_bench::run_campaigns_to_store(&opts, "fig06", &specs);
    for (name, campaign, patterns) in &networks {
        render_network(name, &store, campaign, patterns, &steps, &mut csv);
    }

    println!("Paper shape to check: degradation is smooth — Uniform drops roughly from 0.9 to 0.8");
    println!("over 100 faults on the full-size networks, the adversarial patterns barely move.");
    println!(
        "(campaign store: {}; rerun to resume/skip)",
        store_path.display()
    );
    opts.maybe_write_csv(&csv);
}
