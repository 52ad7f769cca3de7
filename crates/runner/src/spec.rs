//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] names every dimension of an experiment grid —
//! topologies, mechanisms, traffic patterns, fault scenarios, offered loads
//! and seeds — and [`CampaignSpec::expand`] turns the cross-product into a
//! flat, deterministically ordered list of [`JobSpec`]s. Job semantics
//! (what a mechanism name means, how a scenario string is parsed) belong to
//! the caller; the runner only guarantees a stable grid and stable
//! fingerprints.

use serde::{Deserialize, Serialize};
use std::path::Path;

/// The most jobs one campaign may expand to. [`CampaignSpec::expand`]
/// materializes every job, and the runner fingerprints each before the
/// first one runs: at a few hundred bytes per job, a million jobs already
/// hold hundreds of megabytes. The figure grids of this reproduction expand
/// to a few thousand jobs at most.
const MAX_JOBS: u128 = 1_000_000;

/// One topology of a campaign: HyperX sides plus an optional concentration
/// (servers per switch; callers default it to the first side).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// HyperX sides, e.g. `[16, 16]` or `[8, 8, 8]`.
    pub sides: Vec<usize>,
    /// Servers per switch (`None` = caller's default).
    pub concentration: Option<usize>,
}

impl TopologySpec {
    /// A short label like `8x8x8`.
    pub fn label(&self) -> String {
        self.sides
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("x")
    }
}

/// A declarative experiment matrix.
///
/// Missing dimensions default to a single neutral entry, so analysis-style
/// campaigns (e.g. diameter-under-faults, which has no traffic or load) can
/// omit what they do not use.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (used in job fingerprints and reports).
    pub name: String,
    /// Job kind understood by the executing bridge: `"rate"` (default) for
    /// open-loop simulation points, `"batch"` for closed-loop completion-time
    /// runs; other kinds (e.g. `"diameter"`) are defined by their callers.
    pub kind: Option<String>,
    /// The topologies of the grid (at least one).
    pub topologies: Vec<TopologySpec>,
    /// Routing mechanism names (e.g. `polsp`, `omnisp`).
    pub mechanisms: Option<Vec<String>>,
    /// Traffic pattern names (e.g. `uniform`, `dcr`).
    pub traffics: Option<Vec<String>>,
    /// Fault scenario strings (e.g. `none`, `random:30:5`, `cross:5`).
    pub scenarios: Option<Vec<String>>,
    /// Escape-root placement specs (e.g. `suggested`, `max-degree`); a
    /// dimension of the grid, `None` = the caller's default placement.
    pub roots: Option<Vec<String>>,
    /// Offered loads in phits/cycle/server.
    pub loads: Option<Vec<f64>>,
    /// Random seeds (default `[1]`). With `replicas` set, at most one seed
    /// is allowed: it becomes the base of the derived replica seeds.
    pub seeds: Option<Vec<u64>>,
    /// Replication factor: every grid point expands into this many jobs with
    /// derived consecutive seeds (`base`, `base + 1`, …, where `base` is the
    /// single `seeds` entry, default 1). Replication is an expansion-time
    /// concept only — the expanded [`JobSpec`]s are indistinguishable from an
    /// explicit seed grid, so fingerprints (and existing stores) stay valid.
    pub replicas: Option<usize>,
    /// Virtual channels per port (`None` = mechanism default). Mutually
    /// exclusive with `vc_counts`.
    pub vcs: Option<usize>,
    /// VC budgets swept as a grid dimension (ablation studies). Mutually
    /// exclusive with `vcs`.
    pub vc_counts: Option<Vec<usize>>,
    /// Warmup cycles override.
    pub warmup: Option<u64>,
    /// Measurement cycles override.
    pub measure: Option<u64>,
    /// Packets each server sends in a `"batch"` (closed-loop) campaign.
    pub packets_per_server: Option<u64>,
    /// Sampling window (cycles) of the batch throughput-over-time curve.
    pub sample_window: Option<u64>,
    /// RNG determinism contract of rate-mode generation: `"v1"` (per-server
    /// Bernoulli trials, the pre-versioning contract) or `"v2"` (the
    /// counting sampler). `None` means v1 — every store written before the
    /// contract was versioned ran v1, and `None` keeps those fingerprints
    /// (and byte-identical re-runs) valid. Not a grid dimension: one
    /// campaign runs under one contract.
    pub rng: Option<String>,
    /// Optional global wall-clock budget in seconds: once exceeded, the
    /// driver stops dequeuing, finalizes the partial store cleanly and
    /// reports the deadline hit (re-running resumes the rest). The
    /// `SUREPATH_DEADLINE_SECS` environment variable overrides this field.
    /// Not a grid dimension — it never enters [`JobSpec`]s or fingerprints.
    pub deadline_secs: Option<u64>,
    /// Deprecated and ignored: the engine no longer steps a simulation in
    /// partitions. Old specs that set it still parse (`0` is still
    /// rejected), and the `surepath` CLI warns about it. It never enters
    /// [`JobSpec`]s or fingerprints.
    pub partitions: Option<usize>,
}

impl Default for CampaignSpec {
    /// An empty (invalid) spec: a convenience base for struct updates in
    /// spec-building code; `validate` rejects it until a name and at least
    /// one topology are filled in.
    fn default() -> Self {
        CampaignSpec {
            name: String::new(),
            kind: None,
            topologies: Vec::new(),
            mechanisms: None,
            traffics: None,
            scenarios: None,
            roots: None,
            loads: None,
            seeds: None,
            replicas: None,
            vcs: None,
            vc_counts: None,
            warmup: None,
            measure: None,
            packets_per_server: None,
            sample_window: None,
            rng: None,
            deadline_secs: None,
            partitions: None,
        }
    }
}

/// One fully instantiated cell of the campaign grid. Serialized verbatim
/// into the result store; its canonical JSON is what gets fingerprinted.
/// `Serialize` is manual (below): it mirrors the derive field for field,
/// except `rng: None` is omitted entirely — the field did not exist when
/// pre-contract stores were written, and re-finalizing such a store under
/// a newer binary must not change its bytes.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct JobSpec {
    /// Owning campaign name.
    pub campaign: String,
    /// Job kind (see [`CampaignSpec::kind`]).
    pub kind: String,
    /// HyperX sides.
    pub sides: Vec<usize>,
    /// Servers per switch.
    pub concentration: Option<usize>,
    /// Routing mechanism name.
    pub mechanism: Option<String>,
    /// Traffic pattern name.
    pub traffic: Option<String>,
    /// Fault scenario string.
    pub scenario: Option<String>,
    /// Escape-root placement spec.
    pub root: Option<String>,
    /// Offered load.
    pub load: Option<f64>,
    /// Random seed.
    pub seed: u64,
    /// VC override.
    pub vcs: Option<usize>,
    /// Warmup cycles override.
    pub warmup: Option<u64>,
    /// Measurement cycles override.
    pub measure: Option<u64>,
    /// Packets per server (batch jobs).
    pub packets_per_server: Option<u64>,
    /// Throughput sampling window in cycles (batch jobs).
    pub sample_window: Option<u64>,
    /// RNG determinism contract (`"v1"` / `"v2"`; `None` = v1, the contract
    /// every pre-versioning store ran under). `None` is dropped from the
    /// canonical JSON, so legacy fingerprints are untouched; `"v2"` jobs
    /// fingerprint differently — deliberately, because their byte streams
    /// are from a different distribution draw order.
    pub rng: Option<String>,
}

impl Default for JobSpec {
    /// A neutral `"rate"` job with nothing filled in — a convenience base
    /// for tests and spec-building code.
    fn default() -> Self {
        JobSpec {
            campaign: String::new(),
            kind: "rate".to_string(),
            sides: Vec::new(),
            concentration: None,
            mechanism: None,
            traffic: None,
            scenario: None,
            root: None,
            load: None,
            seed: 1,
            vcs: None,
            warmup: None,
            measure: None,
            packets_per_server: None,
            sample_window: None,
            rng: None,
        }
    }
}

impl Serialize for JobSpec {
    /// Mirrors the derived impl — declaration order, one entry per field —
    /// except `rng` is **omitted** (not `null`) when unset. Store records
    /// embed this JSON verbatim, so an always-present `"rng":null` would
    /// change the bytes of every record a legacy store rewrites on
    /// finalize; omission keeps pre-contract stores byte-stable while
    /// `"rng":"v2"` still serializes (and fingerprints) when set.
    fn serialize(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("campaign".into(), Serialize::serialize(&self.campaign)),
            ("kind".into(), Serialize::serialize(&self.kind)),
            ("sides".into(), Serialize::serialize(&self.sides)),
            (
                "concentration".into(),
                Serialize::serialize(&self.concentration),
            ),
            ("mechanism".into(), Serialize::serialize(&self.mechanism)),
            ("traffic".into(), Serialize::serialize(&self.traffic)),
            ("scenario".into(), Serialize::serialize(&self.scenario)),
            ("root".into(), Serialize::serialize(&self.root)),
            ("load".into(), Serialize::serialize(&self.load)),
            ("seed".into(), Serialize::serialize(&self.seed)),
            ("vcs".into(), Serialize::serialize(&self.vcs)),
            ("warmup".into(), Serialize::serialize(&self.warmup)),
            ("measure".into(), Serialize::serialize(&self.measure)),
            (
                "packets_per_server".into(),
                Serialize::serialize(&self.packets_per_server),
            ),
            (
                "sample_window".into(),
                Serialize::serialize(&self.sample_window),
            ),
        ];
        if self.rng.is_some() {
            fields.push(("rng".into(), Serialize::serialize(&self.rng)));
        }
        serde::Value::Object(fields)
    }
}

impl JobSpec {
    /// A one-line human label for progress output.
    pub fn label(&self) -> String {
        let mut parts = vec![self
            .sides
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("x")];
        if let Some(m) = &self.mechanism {
            parts.push(m.clone());
        }
        if let Some(t) = &self.traffic {
            parts.push(t.clone());
        }
        if let Some(s) = &self.scenario {
            parts.push(s.clone());
        }
        if let Some(r) = &self.root {
            parts.push(format!("root={r}"));
        }
        if let Some(v) = self.vcs {
            parts.push(format!("vcs={v}"));
        }
        if let Some(l) = self.load {
            parts.push(format!("load={l}"));
        }
        if let Some(p) = self.packets_per_server {
            parts.push(format!("packets={p}"));
        }
        if let Some(r) = &self.rng {
            parts.push(format!("rng={r}"));
        }
        parts.push(format!("seed={}", self.seed));
        parts.join(" / ")
    }
}

impl CampaignSpec {
    /// The job kind, defaulting to `"rate"`.
    pub fn kind(&self) -> &str {
        self.kind.as_deref().unwrap_or("rate")
    }

    /// Checks the spec is a well-formed grid.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("campaign name must not be empty".to_string());
        }
        if self.topologies.is_empty() {
            return Err("campaign needs at least one topology".to_string());
        }
        for t in &self.topologies {
            if t.sides.is_empty() || t.sides.iter().any(|&s| s < 2) {
                return Err(format!(
                    "topology {:?}: sides must be non-empty and >= 2",
                    t.sides
                ));
            }
        }
        for (dim, empty) in [
            (
                "mechanisms",
                self.mechanisms.as_ref().is_some_and(Vec::is_empty),
            ),
            (
                "traffics",
                self.traffics.as_ref().is_some_and(Vec::is_empty),
            ),
            (
                "scenarios",
                self.scenarios.as_ref().is_some_and(Vec::is_empty),
            ),
            ("roots", self.roots.as_ref().is_some_and(Vec::is_empty)),
        ] {
            if empty {
                return Err(format!("campaign dimension `{dim}` is present but empty"));
            }
        }
        if self.loads.as_ref().is_some_and(Vec::is_empty) {
            return Err("campaign dimension `loads` is present but empty".to_string());
        }
        if let Some(loads) = &self.loads {
            if loads.iter().any(|&l| !(0.0..=1.0).contains(&l) || l == 0.0) {
                return Err("offered loads must lie in (0, 1]".to_string());
            }
        }
        if self.seeds.as_ref().is_some_and(Vec::is_empty) {
            return Err("campaign dimension `seeds` is present but empty".to_string());
        }
        if let Some(seeds) = &self.seeds {
            let mut seen = std::collections::HashSet::new();
            for &seed in seeds {
                if !seen.insert(seed) {
                    return Err(format!(
                        "campaign `{}`: duplicate seed {seed} in `seeds` (every grid row \
                         would collide on its fingerprint)",
                        self.name
                    ));
                }
            }
        }
        if let Some(replicas) = self.replicas {
            if replicas == 0 {
                return Err(format!(
                    "campaign `{}`: `replicas` must be at least 1",
                    self.name
                ));
            }
            if self.seeds.as_ref().is_some_and(|s| s.len() > 1) {
                return Err(format!(
                    "campaign `{}`: `replicas` cannot be combined with a multi-seed `seeds` \
                     grid (ambiguous replication; give a single base seed or drop `seeds`)",
                    self.name
                ));
            }
        }
        if self.vc_counts.as_ref().is_some_and(Vec::is_empty) {
            return Err("campaign dimension `vc_counts` is present but empty".to_string());
        }
        if self.vcs.is_some() && self.vc_counts.is_some() {
            return Err("`vcs` and `vc_counts` are mutually exclusive".to_string());
        }
        match self.job_count() {
            Some(jobs) if jobs <= MAX_JOBS => {}
            jobs => {
                let jobs = jobs.map_or(format!("more than {}", u128::MAX), |n| n.to_string());
                return Err(format!(
                    "campaign `{}`: the grid expands to {jobs} jobs, above the limit of \
                     {MAX_JOBS} per campaign (split it into several campaigns)",
                    self.name
                ));
            }
        }
        if self.packets_per_server == Some(0) {
            return Err("`packets_per_server` must be at least 1".to_string());
        }
        if self.sample_window == Some(0) {
            return Err("`sample_window` must be at least 1".to_string());
        }
        if self.deadline_secs == Some(0) {
            return Err("`deadline_secs` must be at least 1".to_string());
        }
        if self.partitions == Some(0) {
            return Err("`partitions` must be at least 1".to_string());
        }
        if let Some(rng) = &self.rng {
            if rng != "v1" && rng != "v2" {
                return Err(format!(
                    "campaign `{}`: unknown RNG contract `{rng}` (expected `v1` or `v2`)",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// The number of jobs [`expand`](Self::expand) yields: the product of
    /// every dimension's length, `None` if even a `u128` cannot hold it.
    fn job_count(&self) -> Option<u128> {
        let len = |dim: Option<usize>| dim.unwrap_or(1) as u128;
        let seeds = self.replicas.or_else(|| self.seeds.as_ref().map(Vec::len));
        [
            self.topologies.len() as u128,
            len(self.mechanisms.as_ref().map(Vec::len)),
            len(self.traffics.as_ref().map(Vec::len)),
            len(self.scenarios.as_ref().map(Vec::len)),
            len(self.roots.as_ref().map(Vec::len)),
            len(self.vc_counts.as_ref().map(Vec::len)),
            len(self.loads.as_ref().map(Vec::len)),
            len(seeds),
        ]
        .into_iter()
        .try_fold(1u128, u128::checked_mul)
    }

    /// The effective seed list of the grid: the derived consecutive replica
    /// seeds when `replicas` is set, the explicit `seeds` grid (default
    /// `[1]`) otherwise. The base replica seed is the single `seeds` entry,
    /// so a store written with `seeds = [1]` stays fingerprint-valid for the
    /// first replica after switching the spec to `replicas = N`.
    pub fn replica_seeds(&self) -> Vec<u64> {
        match self.replicas {
            Some(n) => {
                let base = self.seeds.as_ref().map_or(1, |s| s[0]);
                (0..n as u64).map(|i| base.wrapping_add(i)).collect()
            }
            None => self.seeds.clone().unwrap_or_else(|| vec![1]),
        }
    }

    /// Expands the cross-product into the flat job list, in a deterministic
    /// order: topology, mechanism, traffic, scenario, root, VC budget, load,
    /// seed (innermost; with `replicas`, the derived replica seeds).
    pub fn expand(&self) -> Result<Vec<JobSpec>, String> {
        self.validate()?;
        let none_str = [None];
        let opt_strings = |dim: &Option<Vec<String>>| -> Vec<Option<String>> {
            match dim {
                Some(values) => values.iter().cloned().map(Some).collect(),
                None => none_str.to_vec(),
            }
        };
        let mechanisms = opt_strings(&self.mechanisms);
        let traffics = opt_strings(&self.traffics);
        let scenarios = opt_strings(&self.scenarios);
        let roots = opt_strings(&self.roots);
        let vc_budgets: Vec<Option<usize>> = match &self.vc_counts {
            Some(values) => values.iter().copied().map(Some).collect(),
            None => vec![self.vcs],
        };
        let loads: Vec<Option<f64>> = match &self.loads {
            Some(values) => values.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let seeds = self.replica_seeds();

        let mut jobs = Vec::new();
        for topology in &self.topologies {
            for mechanism in &mechanisms {
                for traffic in &traffics {
                    for scenario in &scenarios {
                        for root in &roots {
                            for &vcs in &vc_budgets {
                                for load in &loads {
                                    for &seed in &seeds {
                                        jobs.push(JobSpec {
                                            campaign: self.name.clone(),
                                            kind: self.kind().to_string(),
                                            sides: topology.sides.clone(),
                                            concentration: topology.concentration,
                                            mechanism: mechanism.clone(),
                                            traffic: traffic.clone(),
                                            scenario: scenario.clone(),
                                            root: root.clone(),
                                            load: *load,
                                            seed,
                                            vcs,
                                            warmup: self.warmup,
                                            measure: self.measure,
                                            packets_per_server: self.packets_per_server,
                                            sample_window: self.sample_window,
                                            rng: self.rng.clone(),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }
}

/// Parses a campaign spec from TOML text.
pub fn spec_from_toml(text: &str) -> Result<CampaignSpec, String> {
    let value = crate::toml::parse(text).map_err(|e| format!("TOML parse error: {e}"))?;
    serde::Deserialize::deserialize(&value).map_err(|e| format!("invalid campaign spec: {e}"))
}

/// Parses a campaign spec from JSON text.
pub fn spec_from_json(text: &str) -> Result<CampaignSpec, String> {
    serde_json::from_str(text).map_err(|e| format!("invalid campaign spec: {e}"))
}

/// Loads a campaign spec from a `.toml` or `.json` file (by extension;
/// unknown extensions try TOML first, then JSON).
pub fn load_spec_file(path: &Path) -> Result<CampaignSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("json") => spec_from_json(&text),
        Some("toml") => spec_from_toml(&text),
        _ => spec_from_toml(&text).or_else(|toml_err| {
            spec_from_json(&text).map_err(|json_err| {
                format!("not parseable as TOML ({toml_err}) nor JSON ({json_err})")
            })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> CampaignSpec {
        CampaignSpec {
            name: "quick".to_string(),
            topologies: vec![TopologySpec {
                sides: vec![4, 4],
                concentration: None,
            }],
            mechanisms: Some(vec!["polsp".into(), "omnisp".into()]),
            traffics: Some(vec!["uniform".into()]),
            scenarios: Some(vec!["none".into(), "random:5:1".into()]),
            loads: Some(vec![0.2, 0.4]),
            seeds: Some(vec![1, 2, 3]),
            warmup: Some(100),
            measure: Some(200),
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn deeply_nested_specs_are_errors_not_stack_overflows() {
        let deep = format!("x = {}", "[".repeat(200_000));
        let err = spec_from_toml(&deep).unwrap_err();
        assert!(err.contains("TOML parse error"), "{err}");
        assert!(err.contains("deeper than 128"), "{err}");
        let deep_json = format!("{{\"x\": {}", "[".repeat(200_000));
        let err = spec_from_json(&deep_json).unwrap_err();
        assert!(err.contains("recursion limit exceeded"), "{err}");
    }

    #[test]
    fn expansion_is_a_full_cross_product_in_stable_order() {
        let jobs = quick_spec().expand().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 3);
        // Innermost dimension is the seed.
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[1].seed, 2);
        assert_eq!(jobs[2].seed, 3);
        assert_eq!(jobs[3].load, Some(0.4));
        // Outermost (after topology) is the mechanism.
        assert!(jobs[..12]
            .iter()
            .all(|j| j.mechanism.as_deref() == Some("polsp")));
        assert!(jobs[12..]
            .iter()
            .all(|j| j.mechanism.as_deref() == Some("omnisp")));
        // Expansion is deterministic.
        assert_eq!(jobs, quick_spec().expand().unwrap());
    }

    #[test]
    fn missing_dimensions_default_to_single_neutral_entries() {
        let spec = CampaignSpec {
            name: "analysis".to_string(),
            kind: Some("diameter".to_string()),
            topologies: vec![TopologySpec {
                sides: vec![4, 4, 4],
                concentration: None,
            }],
            scenarios: Some(vec!["random:100:7".into()]),
            seeds: Some(vec![7, 8]),
            ..CampaignSpec::default()
        };
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].kind, "diameter");
        assert_eq!(jobs[0].mechanism, None);
        assert_eq!(jobs[0].root, None);
        assert_eq!(jobs[0].load, None);
        assert_eq!(jobs[0].packets_per_server, None);
    }

    #[test]
    fn roots_and_vc_counts_are_grid_dimensions() {
        let spec = CampaignSpec {
            roots: Some(vec!["suggested".into(), "max-degree".into()]),
            vc_counts: Some(vec![2, 4, 6]),
            loads: Some(vec![0.4]),
            seeds: Some(vec![1]),
            scenarios: Some(vec!["star".into()]),
            ..quick_spec()
        };
        let jobs = spec.expand().unwrap();
        // 2 mechanisms x 1 traffic x 1 scenario x 2 roots x 3 VC budgets.
        assert_eq!(jobs.len(), 12);
        assert_eq!(jobs[0].root.as_deref(), Some("suggested"));
        assert_eq!(jobs[0].vcs, Some(2));
        assert_eq!(jobs[1].vcs, Some(4), "vcs vary inside a root");
        assert_eq!(jobs[3].root.as_deref(), Some("max-degree"));
        let label = jobs[3].label();
        assert!(label.contains("root=max-degree"), "{label}");
        assert!(label.contains("vcs=2"), "{label}");
    }

    #[test]
    fn batch_fields_reach_every_job() {
        let spec = CampaignSpec {
            kind: Some("batch".to_string()),
            loads: None,
            packets_per_server: Some(60),
            sample_window: Some(500),
            ..quick_spec()
        };
        let jobs = spec.expand().unwrap();
        assert!(jobs
            .iter()
            .all(|j| j.packets_per_server == Some(60) && j.sample_window == Some(500)));
        assert!(jobs[0].label().contains("packets=60"));
    }

    #[test]
    fn validation_rejects_bad_grids() {
        let mut s = quick_spec();
        s.topologies.clear();
        assert!(s.expand().is_err());

        let mut s = quick_spec();
        s.loads = Some(vec![1.5]);
        assert!(s.expand().is_err());

        let mut s = quick_spec();
        s.mechanisms = Some(vec![]);
        assert!(s.expand().is_err());

        let mut s = quick_spec();
        s.topologies[0].sides = vec![1, 4];
        assert!(s.expand().is_err());

        let mut s = quick_spec();
        s.vcs = Some(4);
        s.vc_counts = Some(vec![2, 4]);
        assert!(s.expand().unwrap_err().contains("mutually exclusive"));

        let mut s = quick_spec();
        s.vc_counts = Some(vec![]);
        assert!(s.expand().is_err());

        let mut s = quick_spec();
        s.roots = Some(vec![]);
        assert!(s.expand().is_err());

        let mut s = quick_spec();
        s.packets_per_server = Some(0);
        assert!(s.expand().is_err());

        let mut s = quick_spec();
        s.sample_window = Some(0);
        assert!(s.expand().is_err());
    }

    #[test]
    fn replicas_expand_into_consecutive_derived_seeds() {
        let spec = CampaignSpec {
            seeds: None,
            replicas: Some(3),
            loads: Some(vec![0.2]),
            scenarios: Some(vec!["none".into()]),
            mechanisms: Some(vec!["polsp".into()]),
            ..quick_spec()
        };
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(
            jobs.iter().map(|j| j.seed).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "replica seeds derive from the default base seed 1"
        );

        // An explicit single seed becomes the replica base.
        let based = CampaignSpec {
            seeds: Some(vec![10]),
            ..spec.clone()
        };
        let jobs = based.expand().unwrap();
        assert_eq!(
            jobs.iter().map(|j| j.seed).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );

        // The first replica of a `replicas` spec is the same job as the old
        // single-seed grid point — existing stores stay fingerprint-valid.
        let legacy = CampaignSpec {
            replicas: None,
            seeds: Some(vec![1]),
            ..spec.clone()
        };
        assert_eq!(legacy.expand().unwrap()[0], spec.expand().unwrap()[0]);
    }

    #[test]
    fn replicas_reject_multi_seed_grids_and_zero() {
        let mut s = quick_spec();
        s.replicas = Some(4);
        // quick_spec has seeds = [1, 2, 3]: ambiguous replication.
        let err = s.expand().unwrap_err();
        assert!(err.contains("campaign `quick`"), "{err}");
        assert!(err.contains("multi-seed"), "{err}");

        let mut s = quick_spec();
        s.seeds = Some(vec![7]);
        s.replicas = Some(4);
        assert!(s.expand().is_ok(), "a single base seed is fine");

        let mut s = quick_spec();
        s.seeds = None;
        s.replicas = Some(0);
        let err = s.expand().unwrap_err();
        assert!(err.contains("campaign `quick`"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn grids_above_the_job_limit_are_rejected_with_their_count() {
        // `replicas = usize::MAX` used to panic with `capacity overflow`
        // while the seeds were materialized.
        let mut s = quick_spec();
        s.seeds = None;
        s.replicas = Some(usize::MAX);
        let err = s.expand().unwrap_err();
        // 1 topology x 2 mechanisms x 2 scenarios x 2 loads x usize::MAX.
        let jobs = 8 * u128::from(u64::MAX);
        assert!(err.contains(&format!("expands to {jobs} jobs")), "{err}");
        assert!(err.contains("campaign `quick`"), "{err}");
        // Dimensions whose product overflows even a u128: 700^7 x usize::MAX.
        s.topologies = vec![s.topologies[0].clone(); 700];
        s.mechanisms = Some(vec!["polsp".into(); 700]);
        s.traffics = Some(vec!["uniform".into(); 700]);
        s.scenarios = Some(vec!["none".into(); 700]);
        s.roots = Some(vec!["suggested".into(); 700]);
        s.vc_counts = Some(vec![4; 700]);
        s.loads = Some(vec![0.5; 700]);
        let err = s.validate().unwrap_err();
        assert!(err.contains(&format!("more than {}", u128::MAX)), "{err}");
        // The limit itself is allowed, one more job is not.
        let mut s = quick_spec();
        s.seeds = None;
        s.replicas = Some(MAX_JOBS as usize / 8);
        assert!(s.validate().is_ok());
        s.replicas = Some(MAX_JOBS as usize / 8 + 1);
        let err = s.validate().unwrap_err();
        assert!(err.contains("expands to 1000008 jobs"), "{err}");
    }

    #[test]
    fn partitions_knob_validates_but_never_reaches_jobs() {
        let mut s = quick_spec();
        s.partitions = Some(0);
        let err = s.validate().unwrap_err();
        assert!(err.contains("`partitions` must be at least 1"), "{err}");

        // The ignored key never reaches the expanded jobs, so fingerprints
        // and store bytes are identical for every value.
        let mut p1 = quick_spec();
        p1.partitions = Some(1);
        let mut p4 = quick_spec();
        p4.partitions = Some(4);
        assert_eq!(p1.expand().unwrap(), p4.expand().unwrap());
        assert_eq!(p1.expand().unwrap(), quick_spec().expand().unwrap());
    }

    #[test]
    fn rng_contract_reaches_every_job_and_is_validated() {
        let spec = CampaignSpec {
            rng: Some("v2".to_string()),
            ..quick_spec()
        };
        let jobs = spec.expand().unwrap();
        assert!(jobs.iter().all(|j| j.rng.as_deref() == Some("v2")));
        assert!(jobs[0].label().contains("rng=v2"), "{}", jobs[0].label());

        // Absent = v1 (the pre-versioning contract): no rng in the jobs, so
        // legacy stores keep their fingerprints.
        let legacy = quick_spec().expand().unwrap();
        assert!(legacy.iter().all(|j| j.rng.is_none()));
        assert!(!legacy[0].label().contains("rng="));

        let mut bad = quick_spec();
        bad.rng = Some("v3".to_string());
        let err = bad.expand().unwrap_err();
        assert!(err.contains("unknown RNG contract `v3`"), "{err}");
    }

    #[test]
    fn job_serialization_omits_unset_rng_entirely() {
        // Store records embed the job JSON verbatim: an unset contract must
        // serialize exactly as it did before the field existed (no
        // `"rng":null`), or re-finalizing a legacy store changes its bytes.
        let job = JobSpec {
            campaign: "c".into(),
            sides: vec![4, 4],
            ..JobSpec::default()
        };
        let json = serde_json::to_string(&Serialize::serialize(&job)).unwrap();
        assert!(!json.contains("rng"), "{json}");
        assert!(json.contains("\"sample_window\":null"), "{json}");

        let mut v2 = job.clone();
        v2.rng = Some("v2".into());
        let json = serde_json::to_string(&Serialize::serialize(&v2)).unwrap();
        assert!(json.ends_with("\"rng\":\"v2\"}"), "{json}");

        // And both shapes round-trip through Deserialize.
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v2);
        let legacy_json = serde_json::to_string(&Serialize::serialize(&job)).unwrap();
        let back: JobSpec = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn duplicate_seeds_are_rejected_naming_the_spec() {
        let mut s = quick_spec();
        s.seeds = Some(vec![1, 2, 1]);
        let err = s.expand().unwrap_err();
        assert!(err.contains("campaign `quick`"), "{err}");
        assert!(err.contains("duplicate seed 1"), "{err}");
    }

    #[test]
    fn toml_and_json_specs_agree() {
        let toml_text = r#"
            name = "demo"
            mechanisms = ["polsp"]
            traffics = ["uniform"]
            scenarios = ["none"]
            loads = [0.3]
            seeds = [1, 2]
            warmup = 50
            measure = 100

            [[topologies]]
            sides = [4, 4]
            concentration = 4
        "#;
        let json_text = r#"{
            "name": "demo",
            "topologies": [{"sides": [4, 4], "concentration": 4}],
            "mechanisms": ["polsp"],
            "traffics": ["uniform"],
            "scenarios": ["none"],
            "loads": [0.3],
            "seeds": [1, 2],
            "warmup": 50,
            "measure": 100
        }"#;
        let from_toml = spec_from_toml(toml_text).unwrap();
        let from_json = spec_from_json(json_text).unwrap();
        assert_eq!(from_toml, from_json);
        assert_eq!(from_toml.expand().unwrap().len(), 2);
    }

    #[test]
    fn job_labels_are_informative() {
        let jobs = quick_spec().expand().unwrap();
        let label = jobs[0].label();
        assert!(label.contains("4x4"));
        assert!(label.contains("polsp"));
        assert!(label.contains("seed=1"));
    }
}
