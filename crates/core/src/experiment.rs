//! Experiment description and execution: topology + mechanism + traffic +
//! faults + simulation parameters, bundled into a single runnable value.

use crate::scenario::FaultScenario;
use hyperx_routing::{MechanismSpec, NetworkView, RoutingMechanism};
use hyperx_sim::traffic::{
    DimensionComplementReverse, NeighbourShift, RandomServerPermutation,
    RegularPermutationToNeighbour, ServerLayout, TrafficPattern, Transpose, UniformTraffic,
};
use hyperx_sim::{BatchMetrics, RateMetrics, SimConfig, Simulator};
use hyperx_topology::{HyperX, RootPolicy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The synthetic traffic patterns of the paper, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficSpec {
    /// Uniform random traffic.
    Uniform,
    /// A fixed random permutation of the servers.
    RandomServerPermutation,
    /// Dimension Complement Reverse (2D and 3D variants).
    DimensionComplementReverse,
    /// Regular Permutation to Neighbour (3D only).
    RegularPermutationToNeighbour,
    /// Coordinate-reversal permutation (extension pattern, not in the paper).
    Transpose,
    /// One-minimal-hop neighbour shift (extension pattern, not in the paper).
    NeighbourShift,
}

impl TrafficSpec {
    /// The patterns evaluated on the 2D HyperX (Figure 4).
    pub fn lineup_2d() -> [TrafficSpec; 3] {
        [
            TrafficSpec::Uniform,
            TrafficSpec::RandomServerPermutation,
            TrafficSpec::DimensionComplementReverse,
        ]
    }

    /// The patterns evaluated on the 3D HyperX (Figure 5).
    pub fn lineup_3d() -> [TrafficSpec; 4] {
        [
            TrafficSpec::Uniform,
            TrafficSpec::RandomServerPermutation,
            TrafficSpec::DimensionComplementReverse,
            TrafficSpec::RegularPermutationToNeighbour,
        ]
    }

    /// Display name matching the paper's figure captions.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficSpec::Uniform => "Uniform",
            TrafficSpec::RandomServerPermutation => "Random Server Permutation",
            TrafficSpec::DimensionComplementReverse => "Dimension Complement Reverse",
            TrafficSpec::RegularPermutationToNeighbour => "Regular Permutation to Neighbour",
            TrafficSpec::Transpose => "Transpose",
            TrafficSpec::NeighbourShift => "Neighbour Shift",
        }
    }

    /// Builds the pattern over the given layout; `seed` fixes the random
    /// permutation draw (ignored by the deterministic patterns).
    pub fn build(&self, layout: &ServerLayout, seed: u64) -> Box<dyn TrafficPattern> {
        match self {
            TrafficSpec::Uniform => Box::new(UniformTraffic::new(layout)),
            TrafficSpec::RandomServerPermutation => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_7AB1E);
                Box::new(RandomServerPermutation::new(layout, &mut rng))
            }
            TrafficSpec::DimensionComplementReverse => {
                Box::new(DimensionComplementReverse::new(layout.clone()))
            }
            TrafficSpec::RegularPermutationToNeighbour => {
                Box::new(RegularPermutationToNeighbour::new(layout.clone()))
            }
            TrafficSpec::Transpose => Box::new(Transpose::new(layout.clone())),
            TrafficSpec::NeighbourShift => Box::new(NeighbourShift::new(layout.clone())),
        }
    }

    /// Why the pattern cannot run on a HyperX with these `sides` and
    /// `concentration` servers per switch, if it cannot: the check each
    /// pattern's constructor panics on.
    pub fn check(&self, sides: &[usize], concentration: usize) -> Result<(), String> {
        match self {
            TrafficSpec::Uniform
            | TrafficSpec::RandomServerPermutation
            | TrafficSpec::NeighbourShift => Ok(()),
            TrafficSpec::DimensionComplementReverse => {
                DimensionComplementReverse::check(sides, concentration)
            }
            TrafficSpec::RegularPermutationToNeighbour => {
                RegularPermutationToNeighbour::check(sides)
            }
            TrafficSpec::Transpose => Transpose::check(sides),
        }
    }

    /// The canonical parse token of this pattern: the inverse of
    /// [`TrafficSpec::parse`], used when generating campaign specs.
    pub fn key(&self) -> &'static str {
        match self {
            TrafficSpec::Uniform => "uniform",
            TrafficSpec::RandomServerPermutation => "rsp",
            TrafficSpec::DimensionComplementReverse => "dcr",
            TrafficSpec::RegularPermutationToNeighbour => "rpn",
            TrafficSpec::Transpose => "transpose",
            TrafficSpec::NeighbourShift => "shift",
        }
    }

    /// Parses a traffic name from a command line (`uniform`, `rsp`, `dcr`, `rpn`,
    /// plus the extension patterns `transpose` and `shift`).
    pub fn parse(name: &str) -> Option<TrafficSpec> {
        match name.to_ascii_lowercase().as_str() {
            "uniform" => Some(TrafficSpec::Uniform),
            "rsp" | "permutation" | "random-server-permutation" => {
                Some(TrafficSpec::RandomServerPermutation)
            }
            "dcr" | "dimension-complement-reverse" => Some(TrafficSpec::DimensionComplementReverse),
            "rpn" | "regular-permutation-to-neighbour" => {
                Some(TrafficSpec::RegularPermutationToNeighbour)
            }
            "transpose" => Some(TrafficSpec::Transpose),
            "shift" | "neighbour-shift" | "neighbor-shift" => Some(TrafficSpec::NeighbourShift),
            _ => None,
        }
    }
}

/// How the escape-subnetwork root is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RootPlacement {
    /// Use the scenario's suggestion: inside the fault region for the
    /// geometric shapes (the paper's stressful choice), switch 0 otherwise.
    Suggested,
    /// A fixed switch.
    Switch(usize),
    /// Select the root with a [`RootPolicy`] evaluated on the *faulty*
    /// network — e.g. [`RootPolicy::MaxAliveDegree`] implements the paper's
    /// §6 advice of avoiding a heavily-faulted root.
    Policy(RootPolicy),
}

impl RootPlacement {
    /// Parses a root-placement spec, as used by the CLI `--root` flag and by
    /// campaign specs: `suggested`, `switch:ID`, `max-degree`
    /// (alias `max-alive-degree`), `min-eccentricity` (alias `min-ecc`),
    /// `min-distance` (alias `min-total-distance`).
    pub fn parse(spec: &str) -> Result<RootPlacement, String> {
        let mut parts = spec.split(':');
        match parts.next().unwrap_or("") {
            "suggested" => Ok(RootPlacement::Suggested),
            "switch" => {
                let id: usize = parts
                    .next()
                    .ok_or("switch root needs an id, e.g. switch:0")?
                    .parse()
                    .map_err(|_| "invalid root switch id")?;
                Ok(RootPlacement::Switch(id))
            }
            "max-degree" | "max-alive-degree" => {
                Ok(RootPlacement::Policy(RootPolicy::MaxAliveDegree))
            }
            "min-eccentricity" | "min-ecc" => {
                Ok(RootPlacement::Policy(RootPolicy::MinEccentricity))
            }
            "min-distance" | "min-total-distance" => {
                Ok(RootPlacement::Policy(RootPolicy::MinTotalDistance))
            }
            other => Err(format!("unknown root spec '{other}'")),
        }
    }

    /// The canonical spec string of this placement: the inverse of
    /// [`RootPlacement::parse`], used when generating campaign specs.
    pub fn key(&self) -> String {
        match self {
            RootPlacement::Suggested => "suggested".to_string(),
            RootPlacement::Switch(id) => format!("switch:{id}"),
            RootPlacement::Policy(policy) => policy.name(),
        }
    }
}

/// A fully described experiment.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// HyperX sides, e.g. `[16, 16]` or `[8, 8, 8]`.
    pub sides: Vec<usize>,
    /// Servers per switch.
    pub concentration: usize,
    /// Routing mechanism under test.
    pub mechanism: MechanismSpec,
    /// Virtual channels per port.
    pub num_vcs: usize,
    /// Traffic pattern.
    pub traffic: TrafficSpec,
    /// Failure scenario.
    pub scenario: FaultScenario,
    /// Escape-subnetwork root placement.
    pub root: RootPlacement,
    /// Simulation parameters.
    pub sim: SimConfig,
}

impl Experiment {
    /// The paper's 2D configuration (16×16 HyperX, 16 servers per switch,
    /// 2n = 4 VCs) with the paper's Table 2 simulation parameters.
    pub fn paper_2d(mechanism: MechanismSpec, traffic: TrafficSpec) -> Self {
        let num_vcs = mechanism.default_num_vcs(2);
        Experiment {
            sides: vec![16, 16],
            concentration: 16,
            mechanism,
            num_vcs,
            traffic,
            scenario: FaultScenario::None,
            root: RootPlacement::Suggested,
            sim: SimConfig::paper_defaults(16, num_vcs),
        }
    }

    /// The paper's 3D configuration (8×8×8 HyperX, 8 servers per switch, 2n = 6 VCs).
    pub fn paper_3d(mechanism: MechanismSpec, traffic: TrafficSpec) -> Self {
        let num_vcs = mechanism.default_num_vcs(3);
        Experiment {
            sides: vec![8, 8, 8],
            concentration: 8,
            mechanism,
            num_vcs,
            traffic,
            scenario: FaultScenario::None,
            root: RootPlacement::Suggested,
            sim: SimConfig::paper_defaults(8, num_vcs),
        }
    }

    /// A scaled-down 2D configuration (8×8, 8 servers per switch) with short
    /// simulation windows, for laptops and tests. The `--quick` mode of every
    /// benchmark binary uses it.
    pub fn quick_2d(mechanism: MechanismSpec, traffic: TrafficSpec) -> Self {
        let num_vcs = mechanism.default_num_vcs(2);
        Experiment {
            sides: vec![8, 8],
            concentration: 8,
            mechanism,
            num_vcs,
            traffic,
            scenario: FaultScenario::None,
            root: RootPlacement::Suggested,
            sim: SimConfig::quick(8, num_vcs),
        }
    }

    /// A scaled-down 3D configuration (4×4×4, 4 servers per switch).
    pub fn quick_3d(mechanism: MechanismSpec, traffic: TrafficSpec) -> Self {
        let num_vcs = mechanism.default_num_vcs(3);
        Experiment {
            sides: vec![4, 4, 4],
            concentration: 4,
            mechanism,
            num_vcs,
            traffic,
            scenario: FaultScenario::None,
            root: RootPlacement::Suggested,
            sim: SimConfig::quick(4, num_vcs),
        }
    }

    /// Sets the fault scenario (and keeps everything else).
    pub fn with_scenario(mut self, scenario: FaultScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Overrides the number of VCs, also updating the simulator configuration.
    pub fn with_num_vcs(mut self, num_vcs: usize) -> Self {
        self.num_vcs = num_vcs;
        self.sim.num_vcs = num_vcs;
        self
    }

    /// Overrides the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Overrides warmup and measurement windows.
    pub fn with_windows(mut self, warmup: u64, measure: u64) -> Self {
        self.sim.warmup_cycles = warmup;
        self.sim.measure_cycles = measure;
        self
    }

    /// A short human-readable label for reports.
    pub fn label(&self) -> String {
        format!(
            "{}D HyperX side {} / {} / {} / {}",
            self.sides.len(),
            self.sides[0],
            self.mechanism.name(),
            self.traffic.name(),
            self.scenario.name()
        )
    }

    /// Builds the healthy topology of this experiment.
    pub fn topology(&self) -> HyperX {
        HyperX::new(&self.sides)
    }

    /// Overrides the escape-root placement.
    pub fn with_root(mut self, root: RootPlacement) -> Self {
        self.root = root;
        self
    }

    /// Rejects what would otherwise panic when the experiment is built:
    /// more random link faults than the topology has links, an escape root
    /// outside it, no servers per switch, a VC count outside 1..=255
    /// (2..=255 for the SurePath mechanisms, which reserve an escape VC),
    /// switches too wide for the engine ([`Simulator::check_widths`]: radix
    /// plus concentration must fit a `u16`), or a traffic pattern the
    /// topology cannot carry ([`TrafficSpec::check`]).
    pub fn validate(&self) -> Result<(), String> {
        let switches: usize = self.sides.iter().product();
        if let FaultScenario::Random { count, .. } = self.scenario {
            let links = switches * self.sides.iter().map(|&k| k - 1).sum::<usize>() / 2;
            if count > links {
                return Err(format!("cannot fail {count} links, only {links} exist"));
            }
        }
        if let RootPlacement::Switch(id) = self.root {
            if id >= switches {
                return Err(format!(
                    "escape root switch:{id} out of range: the topology has {switches} switches"
                ));
            }
        }
        if self.concentration == 0 {
            return Err("concentration must be at least 1".to_string());
        }
        let min_vcs = if self.mechanism.is_surepath() { 2 } else { 1 };
        if !(min_vcs..=u8::MAX as usize).contains(&self.num_vcs) {
            return Err(format!(
                "{} needs {min_vcs} to {} VCs, got vcs = {}",
                self.mechanism.name(),
                u8::MAX,
                self.num_vcs
            ));
        }
        let radix: usize = self.sides.iter().map(|&k| k.saturating_sub(1)).sum();
        Simulator::check_widths(
            switches,
            radix.saturating_add(self.concentration),
            self.num_vcs,
        )?;
        self.traffic.check(&self.sides, self.concentration)
    }

    /// Builds the faulty network view this experiment runs on.
    pub fn build_view(&self) -> Arc<NetworkView> {
        let hx = self.topology();
        let faults = self.scenario.faults(&hx);
        let view = match self.root {
            RootPlacement::Suggested => {
                let root = self.scenario.suggested_root(&hx);
                NetworkView::with_faults(hx, &faults, root)
            }
            RootPlacement::Switch(s) => NetworkView::with_faults(hx, &faults, s),
            // Evaluate the policy on the faulty network so it can react to
            // the failures (the whole point of the §6 advice), over the
            // distances the view computes anyway.
            RootPlacement::Policy(policy) => {
                NetworkView::with_faults_rooted(hx, &faults, |net, dm| {
                    policy.select_with_distances(net, dm)
                })
            }
        };
        Arc::new(view)
    }

    /// Builds the simulator ready to run.
    pub fn build_simulator(&self) -> Simulator {
        self.build_simulator_with_view(self.build_view())
    }

    /// Builds the simulator over an already-built network view. The view is
    /// the expensive part of simulator construction (topology, fault
    /// application, distance tables), and it is immutable during a run —
    /// campaigns whose jobs share a topology/scenario pair pass one `Arc`
    /// here instead of rebuilding the view per job.
    ///
    /// `view` must describe the same topology/faults/root this experiment
    /// would build ([`Experiment::build_view`]); passing a mismatched view is
    /// a logic error.
    pub fn build_simulator_with_view(&self, view: Arc<NetworkView>) -> Simulator {
        let (mechanism, pattern, cfg) = self.simulator_parts(&view);
        Simulator::new(view, mechanism, pattern, cfg)
    }

    /// Turns `sim` into the simulator [`Experiment::build_simulator_with_view`]
    /// would build, in place ([`Simulator::reset`]): a job that reuses the
    /// simulator of a finished one keeps its memory instead of allocating
    /// and faulting in a new one.
    pub(crate) fn reset_simulator(&self, sim: &mut Simulator, view: Arc<NetworkView>) {
        let (mechanism, pattern, cfg) = self.simulator_parts(&view);
        sim.reset(view, mechanism, pattern, cfg);
    }

    /// The routing mechanism, traffic pattern and engine configuration of
    /// this experiment's simulator over `view`.
    fn simulator_parts(
        &self,
        view: &Arc<NetworkView>,
    ) -> (
        Box<dyn RoutingMechanism>,
        Box<dyn TrafficPattern>,
        SimConfig,
    ) {
        let mechanism = self.mechanism.build(view.clone(), self.num_vcs);
        let layout = ServerLayout::new(view.hyperx(), self.concentration);
        let pattern = self.traffic.build(&layout, self.sim.seed);
        let mut cfg = self.sim.clone();
        cfg.servers_per_switch = self.concentration;
        cfg.num_vcs = self.num_vcs;
        (mechanism, pattern, cfg)
    }

    /// Runs the open-loop experiment at the given offered load.
    pub fn run_rate(&self, offered_load: f64) -> RateMetrics {
        self.build_simulator().run_rate(offered_load)
    }

    /// Runs the closed-loop (completion time) experiment.
    pub fn run_batch(&self, packets_per_server: u64, sample_window: u64) -> BatchMetrics {
        self.build_simulator()
            .run_batch(packets_per_server, sample_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_match_table3_and_table4() {
        let e2 = Experiment::paper_2d(MechanismSpec::OmniSP, TrafficSpec::Uniform);
        assert_eq!(e2.sides, vec![16, 16]);
        assert_eq!(e2.concentration, 16);
        assert_eq!(e2.num_vcs, 4);
        let e3 = Experiment::paper_3d(MechanismSpec::Polarized, TrafficSpec::Uniform);
        assert_eq!(e3.sides, vec![8, 8, 8]);
        assert_eq!(e3.concentration, 8);
        assert_eq!(e3.num_vcs, 6);
    }

    #[test]
    fn traffic_keys_round_trip_through_parse() {
        for traffic in [
            TrafficSpec::Uniform,
            TrafficSpec::RandomServerPermutation,
            TrafficSpec::DimensionComplementReverse,
            TrafficSpec::RegularPermutationToNeighbour,
            TrafficSpec::Transpose,
            TrafficSpec::NeighbourShift,
        ] {
            assert_eq!(TrafficSpec::parse(traffic.key()), Some(traffic));
        }
    }

    #[test]
    fn traffic_spec_lineups_and_names() {
        assert_eq!(TrafficSpec::lineup_2d().len(), 3);
        assert_eq!(TrafficSpec::lineup_3d().len(), 4);
        assert_eq!(TrafficSpec::parse("uniform"), Some(TrafficSpec::Uniform));
        assert_eq!(
            TrafficSpec::parse("rpn"),
            Some(TrafficSpec::RegularPermutationToNeighbour)
        );
        assert_eq!(
            TrafficSpec::parse("dcr"),
            Some(TrafficSpec::DimensionComplementReverse)
        );
        assert_eq!(
            TrafficSpec::parse("rsp"),
            Some(TrafficSpec::RandomServerPermutation)
        );
        assert_eq!(TrafficSpec::parse("junk"), None);
    }

    #[test]
    fn quick_experiment_runs_end_to_end() {
        let mut e = Experiment::quick_2d(MechanismSpec::OmniSP, TrafficSpec::Uniform);
        e.sim.warmup_cycles = 300;
        e.sim.measure_cycles = 800;
        let m = e.run_rate(0.3);
        assert!(!m.stalled);
        assert!(m.accepted_load > 0.15, "accepted {}", m.accepted_load);
    }

    #[test]
    fn faulty_quick_experiment_runs_end_to_end() {
        let mut e = Experiment::quick_2d(MechanismSpec::PolSP, TrafficSpec::Uniform)
            .with_scenario(FaultScenario::Random { count: 10, seed: 4 })
            .with_num_vcs(4);
        e.sim.warmup_cycles = 300;
        e.sim.measure_cycles = 800;
        let m = e.run_rate(0.3);
        assert!(!m.stalled);
        assert!(m.accepted_load > 0.1);
    }

    #[test]
    fn label_mentions_all_components() {
        let e = Experiment::paper_3d(
            MechanismSpec::PolSP,
            TrafficSpec::RegularPermutationToNeighbour,
        )
        .with_scenario(FaultScenario::star_3d());
        let label = e.label();
        assert!(label.contains("PolSP"));
        assert!(label.contains("Regular Permutation"));
        assert!(label.contains("Star"));
        assert!(label.contains("3D"));
    }

    #[test]
    fn build_view_applies_scenario_and_root() {
        let e = Experiment::paper_2d(MechanismSpec::OmniSP, TrafficSpec::Uniform)
            .with_scenario(FaultScenario::cross_2d());
        let view = e.build_view();
        assert_eq!(view.network().num_faults(), 110);
        assert_eq!(view.escape_root(), view.hyperx().switch_id(&[8, 8]));
        assert!(view.is_connected());
    }

    #[test]
    fn policy_root_placement_avoids_the_star_center() {
        let e = Experiment::paper_3d(MechanismSpec::PolSP, TrafficSpec::Uniform)
            .with_scenario(FaultScenario::star_3d())
            .with_root(RootPlacement::Policy(RootPolicy::MaxAliveDegree));
        let view = e.build_view();
        let center = view.hyperx().switch_id(&[4, 4, 4]);
        assert_ne!(view.escape_root(), center);
        assert!(view.network().degree(view.escape_root()) > 3);
    }

    #[test]
    fn policy_roots_are_picked_from_the_views_own_distances() {
        let hx = Experiment::paper_3d(MechanismSpec::PolSP, TrafficSpec::Uniform).topology();
        for scenario in [
            FaultScenario::star_3d(),
            FaultScenario::Random { count: 60, seed: 3 },
        ] {
            let faults = scenario.faults(&hx);
            let mut faulted = hx.network().clone();
            faults.apply(&mut faulted);
            for policy in RootPolicy::ablation_lineup() {
                let view = Experiment::paper_3d(MechanismSpec::PolSP, TrafficSpec::Uniform)
                    .with_scenario(scenario.clone())
                    .with_root(RootPlacement::Policy(policy))
                    .build_view();
                let root = policy.select(&faulted);
                assert_eq!(view.escape_root(), root, "{}", policy.name());
                let reference = NetworkView::with_faults(hx.clone(), &faults, root);
                for s in 0..hx.num_switches() {
                    assert_eq!(
                        view.distances().row(s).iter().collect::<Vec<_>>(),
                        reference.distances().row(s).iter().collect::<Vec<_>>(),
                        "{} row {s}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn extension_traffic_specs_build_and_run() {
        for traffic in [TrafficSpec::Transpose, TrafficSpec::NeighbourShift] {
            let mut e = Experiment::quick_2d(MechanismSpec::PolSP, traffic);
            e.sim.warmup_cycles = 200;
            e.sim.measure_cycles = 500;
            let m = e.run_rate(0.2);
            assert!(!m.stalled, "{} stalled", traffic.name());
            assert!(
                m.accepted_load > 0.05,
                "{} accepted {}",
                traffic.name(),
                m.accepted_load
            );
        }
        assert_eq!(
            TrafficSpec::parse("transpose"),
            Some(TrafficSpec::Transpose)
        );
        assert_eq!(
            TrafficSpec::parse("shift"),
            Some(TrafficSpec::NeighbourShift)
        );
    }

    // key()/parse() round-trips over generated placements live in the
    // property suite (tests/properties.rs); only the alias and rejection
    // behaviour stays hand-picked here.
    #[test]
    fn root_placement_aliases_and_rejections() {
        assert_eq!(
            RootPlacement::parse("max-degree"),
            Ok(RootPlacement::Policy(RootPolicy::MaxAliveDegree))
        );
        assert!(RootPlacement::parse("volcano").is_err());
        assert!(RootPlacement::parse("switch").is_err());
    }

    #[test]
    fn with_helpers_override_fields() {
        let e = Experiment::quick_3d(MechanismSpec::PolSP, TrafficSpec::Uniform)
            .with_num_vcs(4)
            .with_seed(77)
            .with_windows(10, 20);
        assert_eq!(e.num_vcs, 4);
        assert_eq!(e.sim.num_vcs, 4);
        assert_eq!(e.sim.seed, 77);
        assert_eq!(e.sim.warmup_cycles, 10);
        assert_eq!(e.sim.measure_cycles, 20);
    }
}
