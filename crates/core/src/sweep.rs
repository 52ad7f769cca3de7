//! Offered-load sweeps and mechanism comparisons, parallelised on the
//! campaign runner's bounded thread pool (`surepath-runner`) rather
//! than one OS thread per simulation.

use crate::experiment::{Experiment, TrafficSpec};
use crate::scenario::FaultScenario;
use hyperx_routing::MechanismSpec;
use hyperx_sim::RateMetrics;
use serde::{Deserialize, Serialize};

/// One point of a throughput/latency curve: a mechanism, a traffic pattern, a
/// scenario and an offered load, with the measured metrics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Mechanism under test.
    pub mechanism: String,
    /// Traffic pattern.
    pub traffic: String,
    /// Fault scenario.
    pub scenario: String,
    /// Offered load.
    pub offered_load: f64,
    /// Measured metrics.
    pub metrics: RateMetrics,
}

/// Runs one experiment at every offered load of `loads`, in parallel on the
/// runner's thread pool (bounded by the core count, not by the number
/// of loads). Panics if a simulation panics, preserving the pre-runner
/// fail-fast behaviour.
pub fn sweep_loads(experiment: &Experiment, loads: &[f64]) -> Vec<SweepPoint> {
    let metrics = surepath_runner::parallel_map(loads, None, |&load| experiment.run_rate(load));
    loads
        .iter()
        .zip(metrics)
        .map(|(&offered_load, metrics)| SweepPoint {
            mechanism: experiment.mechanism.name().to_string(),
            traffic: experiment.traffic.name().to_string(),
            scenario: experiment.scenario.name(),
            offered_load,
            metrics,
        })
        .collect()
}

/// Runs a full mechanism comparison (one curve per mechanism) for a fixed
/// traffic pattern and scenario: the building block of Figures 4 and 5.
#[allow(clippy::too_many_arguments)]
pub fn sweep_mechanisms(
    template: &Experiment,
    mechanisms: &[MechanismSpec],
    traffic: TrafficSpec,
    scenario: &FaultScenario,
    loads: &[f64],
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &mechanism in mechanisms {
        let mut exp = template.clone();
        exp.mechanism = mechanism;
        exp.traffic = traffic;
        exp.scenario = scenario.clone();
        // Keep the VC budget fair: every mechanism gets the same 2n VCs the
        // template was built with (paper §4).
        out.extend(sweep_loads(&exp, loads));
    }
    out
}

/// The offered-load grid the paper's throughput plots use (0.05 to 1.0).
pub fn paper_load_grid() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 0.05).collect()
}

/// A coarser grid for quick runs.
pub fn quick_load_grid() -> Vec<f64> {
    vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment() -> Experiment {
        let mut e = Experiment::quick_2d(MechanismSpec::OmniSP, TrafficSpec::Uniform);
        e.sim.warmup_cycles = 150;
        e.sim.measure_cycles = 400;
        e
    }

    #[test]
    fn sweep_loads_returns_one_point_per_load() {
        let e = tiny_experiment();
        let loads = [0.2, 0.5];
        let points = sweep_loads(&e, &loads);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].offered_load, 0.2);
        assert_eq!(points[1].offered_load, 0.5);
        assert!(points.iter().all(|p| p.mechanism == "OmniSP"));
        // Higher offered load can only increase (or match) accepted load in an
        // unsaturated tiny network.
        assert!(points[1].metrics.accepted_load >= points[0].metrics.accepted_load * 0.8);
    }

    #[test]
    fn sweep_mechanisms_produces_a_curve_per_mechanism() {
        let e = tiny_experiment();
        let points = sweep_mechanisms(
            &e,
            &[MechanismSpec::Minimal, MechanismSpec::PolSP],
            TrafficSpec::Uniform,
            &FaultScenario::None,
            &[0.3],
        );
        assert_eq!(points.len(), 2);
        let names: Vec<&str> = points.iter().map(|p| p.mechanism.as_str()).collect();
        assert!(names.contains(&"Minimal"));
        assert!(names.contains(&"PolSP"));
    }

    #[test]
    fn load_grids_are_sorted_and_bounded() {
        let grid = paper_load_grid();
        assert_eq!(grid.len(), 20);
        assert!((grid[0] - 0.05).abs() < 1e-12);
        assert!((grid[19] - 1.0).abs() < 1e-12);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        let quick = quick_load_grid();
        assert!(quick.iter().all(|&l| l > 0.0 && l <= 1.0));
    }
}
