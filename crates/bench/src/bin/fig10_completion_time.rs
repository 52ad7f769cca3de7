//! Figure 10: completion time of a fixed batch of Regular Permutation to
//! Neighbour traffic under the Star fault configuration, for OmniSP and PolSP.
//!
//! The paper sends 8000 phits (500 packets of 16 phits) per server and shows
//! that although OmniSP sustains a higher peak accepted load, its completion
//! time is about 2.8× PolSP's because the servers at the almost-isolated
//! escape root become stragglers.
//!
//! Ported onto the campaign runner with the core bridge's `kind = "batch"`:
//! the two closed-loop runs are a declarative campaign carrying
//! `packets_per_server` and `sample_window`, executed in parallel with a
//! resumable store, and everything below — the completion-time lines, the
//! throughput-over-time series and the OmniSP/PolSP ratio — renders from
//! the store (`surepath campaign --report` reproduces it).

use hyperx_bench::{mechanism_keys, run_campaigns_to_store, sides_3d, HarnessOptions, Scale};
use hyperx_routing::MechanismSpec;
use hyperx_topology::FaultShape;
use surepath_core::{
    batch_samples_csv, completion_ratio, format_batch_table, store_points, BatchMetrics,
    CampaignSpec, FaultScenario, StorePoint, TopologySpec,
};

fn campaign(scale: Scale) -> (CampaignSpec, u64) {
    let (scenario, packets_per_server, sample_window) = match scale {
        Scale::Paper => (FaultScenario::star_3d(), 500u64, 5_000u64),
        Scale::Quick => (
            FaultScenario::Shape(FaultShape::Cross {
                center: vec![2, 2, 2],
                margin: 1,
            }),
            60u64,
            1_000u64,
        ),
    };
    let spec = CampaignSpec {
        name: "fig10-batch".to_string(),
        kind: Some("batch".to_string()),
        topologies: vec![TopologySpec {
            sides: sides_3d(scale),
            concentration: None,
        }],
        mechanisms: Some(mechanism_keys(&MechanismSpec::surepath_lineup())),
        traffics: Some(vec!["rpn".to_string()]),
        scenarios: Some(vec![scenario.key()]),
        vcs: Some(4),
        packets_per_server: Some(packets_per_server),
        sample_window: Some(sample_window),
        ..CampaignSpec::default()
    };
    (spec, packets_per_server)
}

fn main() {
    let opts = HarnessOptions::from_args();
    let (spec, packets_per_server) = campaign(opts.scale);
    println!(
        "Figure 10: completion time, Regular Permutation to Neighbour, Star faults, {} packets/server",
        packets_per_server
    );
    println!();

    let store = run_campaigns_to_store(&opts, "fig10", std::slice::from_ref(&spec));
    let points = store_points(&store, &spec.name, "batch");
    print!("{}", format_batch_table(&points));
    println!();

    // Throughput-over-time series (the curve of Figure 10).
    let runs: Vec<(&StorePoint, BatchMetrics)> = points
        .iter()
        .flat_map(|p| p.runs().into_iter().map(move |run| (p, run)))
        .collect();
    for (point, run) in &runs {
        println!("accepted load over time for {}:", point.label);
        for sample in &run.samples {
            println!("  cycle {:>8}: {:.3}", sample.cycle, sample.accepted_load);
        }
        println!();
    }

    match completion_ratio(&points, "OmniSP", "PolSP") {
        Some(ratio) => println!(
            "OmniSP completion time is {ratio:.2}x PolSP's (the paper reports about 2.8x on the \
             full-size network)."
        ),
        None => println!(
            "OmniSP/PolSP completion ratio unavailable: the store has {} completed run(s) \
             ({}); rerun to retry missing jobs.",
            runs.len(),
            if runs.is_empty() {
                "none".to_string()
            } else {
                runs.iter()
                    .map(|(p, _)| p.label.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        ),
    }
    opts.maybe_write_csv(&batch_samples_csv(&points));
}
