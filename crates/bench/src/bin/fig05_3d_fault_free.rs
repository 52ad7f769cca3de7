//! Figure 5: fault-free performance on the 3D HyperX — the same sweep as
//! Figure 4 plus the Regular Permutation to Neighbour pattern that separates
//! Omnidimensional routes from Polarized routes.
//!
//! Runs as one declarative campaign on the bounded thread pool with a
//! resumable store; the tables are rendered from the store (see fig04).

use hyperx_bench::{
    load_grid, mechanism_keys, run_campaigns_to_store, sides_3d, traffic_keys, windows,
    HarnessOptions, Scale,
};
use hyperx_routing::MechanismSpec;
use surepath_core::{
    format_rate_table, rate_metrics_to_csv, store_points, CampaignSpec, TopologySpec, TrafficSpec,
};

fn campaign(scale: Scale) -> CampaignSpec {
    let (warmup, measure) = windows(scale);
    CampaignSpec {
        name: "fig05-3d".to_string(),
        topologies: vec![TopologySpec {
            sides: sides_3d(scale),
            concentration: None,
        }],
        mechanisms: Some(mechanism_keys(&MechanismSpec::fault_free_lineup())),
        traffics: Some(traffic_keys(&TrafficSpec::lineup_3d())),
        scenarios: Some(vec!["none".to_string()]),
        loads: Some(load_grid(scale)),
        // Fair comparison: every mechanism gets its default 2n VCs (vcs: None).
        warmup: Some(warmup),
        measure: Some(measure),
        ..CampaignSpec::default()
    }
}

fn main() {
    let opts = HarnessOptions::from_args();
    let spec = campaign(opts.scale);
    let store = run_campaigns_to_store(&opts, "fig05", std::slice::from_ref(&spec));

    let points = store_points(&store, &spec.name, "rate");
    let mut all_points = Vec::new();
    for traffic in TrafficSpec::lineup_3d() {
        println!("=== Figure 5 / {} ===", traffic.name());
        let group: Vec<_> = points
            .iter()
            .filter(|p| p.traffic == traffic.name())
            .cloned()
            .collect();
        println!("{}", format_rate_table(group.iter().cloned()));
        all_points.extend(group);
    }
    println!("Paper shapes to check: under Regular Permutation to Neighbour, OmniWAR/OmniSP stay");
    println!(
        "near 0.5 while Polarized/PolSP exceed it; SurePath variants lead the other patterns."
    );
    opts.maybe_write_csv(&rate_metrics_to_csv(all_points));
}
