//! Figure 4: fault-free performance on the 2D HyperX — accepted throughput,
//! average latency and Jain fairness versus offered load, for the six routing
//! mechanisms under Uniform, Random Server Permutation and Dimension
//! Complement Reverse traffic.
//!
//! Ported onto the campaign runner: the whole (mechanism × traffic × load)
//! grid is one declarative [`CampaignSpec`] executed on the bounded thread
//! pool and streamed to a resumable JSONL store, and the tables below are
//! rendered **from the store** — `surepath campaign --report` reproduces
//! them without re-simulating.

use hyperx_bench::{
    load_grid, mechanism_keys, run_campaigns_to_store, sides_2d, traffic_keys, windows,
    HarnessOptions, Scale,
};
use hyperx_routing::MechanismSpec;
use surepath_core::{
    format_rate_table, rate_metrics_to_csv, store_points, CampaignSpec, TopologySpec, TrafficSpec,
};

fn campaign(scale: Scale) -> CampaignSpec {
    let (warmup, measure) = windows(scale);
    CampaignSpec {
        name: "fig04-2d".to_string(),
        topologies: vec![TopologySpec {
            sides: sides_2d(scale),
            concentration: None,
        }],
        mechanisms: Some(mechanism_keys(&MechanismSpec::fault_free_lineup())),
        traffics: Some(traffic_keys(&TrafficSpec::lineup_2d())),
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
    let store = run_campaigns_to_store(&opts, "fig04", std::slice::from_ref(&spec));

    let points = store_points(&store, &spec.name, "rate");
    let mut all_points = Vec::new();
    for traffic in TrafficSpec::lineup_2d() {
        println!("=== Figure 4 / {} ===", traffic.name());
        let group: Vec<_> = points
            .iter()
            .filter(|p| p.traffic == traffic.name())
            .cloned()
            .collect();
        println!("{}", format_rate_table(group.iter().cloned()));
        all_points.extend(group);
    }
    println!("Paper shapes to check: Valiant caps near 0.5 under Uniform; Minimal saturates early");
    println!("under DCR; OmniSP/PolSP match or beat OmniWAR/Polarized everywhere.");
    opts.maybe_write_csv(&rate_metrics_to_csv(all_points));
}
