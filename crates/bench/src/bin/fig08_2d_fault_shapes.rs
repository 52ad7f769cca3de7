//! Figure 8: accepted load of OmniSP and PolSP on the 2D HyperX when all the
//! links of a geometric shape fail — Row, Subplane and Cross — under Uniform,
//! Random Server Permutation and Dimension Complement Reverse traffic, with
//! the healthy-network value as a reference mark.
//!
//! Ported onto the campaign runner: faulty shapes and the healthy reference
//! are one declarative grid (the scenario strings carry explicit shape
//! coordinates, `FaultScenario::key()`), executed on the bounded thread pool
//! with a resumable store and rendered from the store.

use hyperx_bench::{
    mechanism_keys, render_fault_shape_figure, run_campaigns_to_store, saturation_load, sides_2d,
    traffic_keys, windows, HarnessOptions, Scale,
};
use hyperx_routing::MechanismSpec;
use hyperx_topology::FaultShape;
use surepath_core::{CampaignSpec, FaultScenario, TopologySpec, TrafficSpec};

fn scenarios(scale: Scale) -> Vec<(&'static str, FaultScenario)> {
    match scale {
        Scale::Paper => vec![
            ("Row", FaultScenario::row_2d()),
            ("Subplane", FaultScenario::subplane_2d()),
            ("Cross", FaultScenario::cross_2d()),
        ],
        // Scaled-down analogues on the 8×8 network, keeping the defining
        // property of each shape (Cross still goes through the escape root).
        Scale::Quick => vec![
            (
                "Row",
                FaultScenario::Shape(FaultShape::Row {
                    along_dim: 0,
                    at: vec![0, 4],
                }),
            ),
            (
                "Subplane",
                FaultScenario::Shape(FaultShape::Subgrid {
                    low: vec![2, 2],
                    size: 3,
                }),
            ),
            (
                "Cross",
                FaultScenario::Shape(FaultShape::Cross {
                    center: vec![4, 4],
                    margin: 2,
                }),
            ),
        ],
    }
}

fn campaign(scale: Scale, shapes: &[(&str, FaultScenario)]) -> CampaignSpec {
    let (warmup, measure) = windows(scale);
    let mut scenario_keys = vec!["none".to_string()];
    scenario_keys.extend(shapes.iter().map(|(_, s)| s.key()));
    CampaignSpec {
        name: "fig08-2d".to_string(),
        topologies: vec![TopologySpec {
            sides: sides_2d(scale),
            concentration: None,
        }],
        mechanisms: Some(mechanism_keys(&MechanismSpec::surepath_lineup())),
        traffics: Some(traffic_keys(&TrafficSpec::lineup_2d())),
        scenarios: Some(scenario_keys),
        loads: Some(vec![saturation_load()]),
        // Every point replicates across derived seeds: the figure reports
        // mean ± CI instead of a single draw.
        replicas: Some(hyperx_bench::replicas(scale)),
        // The paper's 4-VC SurePath configuration, healthy reference included.
        vcs: Some(4),
        warmup: Some(warmup),
        measure: Some(measure),
        ..CampaignSpec::default()
    }
}

fn main() {
    let opts = HarnessOptions::from_args();
    let shapes = scenarios(opts.scale);
    let spec = campaign(opts.scale, &shapes);
    let store = run_campaigns_to_store(&opts, "fig08", std::slice::from_ref(&spec));

    let mut csv = String::from(
        "shape,traffic,mechanism,replicas,accepted_mean,accepted_hw,healthy_mean,healthy_hw,drop_percent\n",
    );
    render_fault_shape_figure(
        "Figure 8",
        32,
        &store,
        &spec.name,
        &TrafficSpec::lineup_2d(),
        &shapes,
        &mut csv,
    );
    println!("Paper shape to check: Row and Subplane lose around 11%, the Cross (which removes");
    println!("two thirds of the escape root's links) is the stressful one with a ~37% drop under Uniform.");
    opts.maybe_write_csv(&csv);
}
