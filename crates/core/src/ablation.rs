//! Ablation studies of SurePath's design choices.
//!
//! The paper motivates several design decisions without isolating their
//! individual contribution: the opportunistic shortcuts of the escape
//! subnetwork (§3.2), the number of virtual channels SurePath actually needs
//! (§3.1 / §6: "2 VCs suffice, 4 VCs are used in the fault experiments"), and
//! the placement of the escape root (§6: avoid a heavily-faulted switch).
//! This module turns each of those into a runnable study so the claims can be
//! quantified on the same simulator as the main figures:
//!
//! * [`vc_count_study`] — SurePath throughput as a function of its VC budget,
//!   run live;
//! * [`ablation_points_from_store`] — any of the three studies (VC budget,
//!   escape shortcuts, root placement) read back from a campaign store, the
//!   way the ablation binaries render them.

use crate::experiment::Experiment;
use crate::report::store_points;
use hyperx_routing::MechanismSpec;
use hyperx_sim::RateMetrics;
use serde::{Deserialize, Serialize};

/// One measurement of an ablation study: the varied knob, its value and the
/// accepted load / latency it produced at the probe load.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Name of the knob being varied ("vcs", "escape", "root").
    pub knob: String,
    /// Value of the knob for this point.
    pub value: String,
    /// Mechanism under test.
    pub mechanism: String,
    /// Offered load of the probe.
    pub offered_load: f64,
    /// How many replica runs the metrics average over (1 for a direct probe).
    pub replicas: usize,
    /// Accepted load measured (replica mean).
    pub accepted_load: f64,
    /// Average message latency measured (replica mean).
    pub average_latency: f64,
    /// Fraction of delivered packets that used the escape subnetwork
    /// (replica mean).
    pub escape_fraction: f64,
}

/// Runs the given SurePath experiment with every VC budget in `vc_counts`
/// (each must be ≥ 2) at the probe load.
///
/// The paper's claim this study quantifies: SurePath keeps its performance
/// with far fewer VCs than the Ladder mechanisms need (2 is functional, 4 is
/// the budget used in the fault experiments, 2n matches the fair comparison).
pub fn vc_count_study(template: &Experiment, vc_counts: &[usize], load: f64) -> Vec<AblationPoint> {
    assert!(
        template.mechanism.is_surepath(),
        "the VC-count study only makes sense for SurePath mechanisms"
    );
    vc_counts
        .iter()
        .map(|&vcs| {
            assert!(vcs >= 2, "SurePath needs at least 2 VCs");
            let exp = template.clone().with_num_vcs(vcs);
            let metrics = exp.run_rate(load);
            AblationPoint {
                knob: "vcs".to_string(),
                value: vcs.to_string(),
                mechanism: exp.mechanism.name().to_string(),
                offered_load: load,
                replicas: 1,
                accepted_load: metrics.accepted_load,
                average_latency: metrics.average_latency,
                escape_fraction: metrics.escape_fraction,
            }
        })
        .collect()
}

/// Reconstructs ablation points from a campaign result store (campaign name
/// + `rate` kind), deriving the varied knob's value from the stored job:
///
/// * `"vcs"` — the job's VC budget;
/// * `"root"` — the job's root-placement spec (`suggested`, the default, is
///   labelled `suggested(in-fault)`: the paper's stressful root);
/// * `"escape"` — `tree-only` for the `*-tree` mechanism variants,
///   `opportunistic` otherwise.
///
/// One point per grid point of the [`store_points`] query, in the store's
/// canonical grid order: replicas collapse into their replica means
/// (NaN-free; non-finite rows only shrink the sample), with `replicas`
/// recording the sample size, and failed records are skipped (re-run the
/// campaign to heal them). `filter` selects the points to render by their
/// job (e.g. one mechanism × traffic section of a study) — pass `|_| true`
/// for everything.
pub fn ablation_points_from_store(
    store: &surepath_runner::ResultStore,
    campaign: &str,
    knob: &str,
    filter: impl Fn(&surepath_runner::JobSpec) -> bool,
) -> Vec<AblationPoint> {
    store_points(store, campaign, "rate")
        .into_iter()
        .filter(|p| filter(&p.job))
        .filter_map(|p| {
            let runs: Vec<RateMetrics> = p.runs();
            let first = runs.first()?;
            let job = &p.job;
            let value = match knob {
                "vcs" => job.vcs.map_or("default".to_string(), |v| v.to_string()),
                "root" => match job.root.as_deref() {
                    None | Some("suggested") => "suggested(in-fault)".to_string(),
                    Some(root) => root.to_string(),
                },
                "escape" => {
                    let tree_only = matches!(
                        MechanismSpec::parse(job.mechanism.as_deref().unwrap_or_default()),
                        Some(MechanismSpec::OmniSPTree | MechanismSpec::PolSPTree)
                    );
                    if tree_only {
                        "tree-only".to_string()
                    } else {
                        "opportunistic".to_string()
                    }
                }
                other => other.to_string(),
            };
            let mean = |f: fn(&RateMetrics) -> f64| -> f64 {
                crate::stats::Summary::of_finite(&runs.iter().map(f).collect::<Vec<_>>()).mean
            };
            Some(AblationPoint {
                knob: knob.to_string(),
                value,
                offered_load: job.load.unwrap_or(first.offered_load),
                replicas: runs.len(),
                accepted_load: mean(|m| m.accepted_load),
                average_latency: mean(|m| m.average_latency),
                escape_fraction: mean(|m| m.escape_fraction),
                mechanism: p.mechanism,
            })
        })
        .collect()
}

/// Formats ablation points as an aligned text table.
pub fn format_ablation_table(points: &[AblationPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<22} {:<12} {:>8} {:>3} {:>9} {:>9} {:>8}\n",
        "knob", "value", "mechanism", "offered", "n", "accepted", "latency", "escape%"
    ));
    out.push_str(&"-".repeat(88));
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{:<10} {:<22} {:<12} {:>8.2} {:>3} {:>9.3} {:>9.1} {:>8.1}\n",
            p.knob,
            p.value,
            p.mechanism,
            p.offered_load,
            p.replicas,
            p.accepted_load,
            p.average_latency,
            100.0 * p.escape_fraction,
        ));
    }
    out
}

/// Serialises ablation points to CSV.
pub fn ablation_to_csv(points: &[AblationPoint]) -> String {
    let mut out = String::from(
        "knob,value,mechanism,offered_load,replicas,accepted_load,average_latency,escape_fraction\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            p.knob,
            p.value,
            p.mechanism,
            p.offered_load,
            p.replicas,
            p.accepted_load,
            p.average_latency,
            p.escape_fraction
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::TrafficSpec;

    fn tiny_template(mechanism: MechanismSpec) -> Experiment {
        let mut e = Experiment::quick_2d(mechanism, TrafficSpec::Uniform);
        e.sim.warmup_cycles = 150;
        e.sim.measure_cycles = 400;
        e
    }

    #[test]
    fn vc_count_study_produces_one_point_per_budget() {
        let points = vc_count_study(&tiny_template(MechanismSpec::PolSP), &[2, 4], 0.3);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].value, "2");
        assert_eq!(points[1].value, "4");
        for p in &points {
            assert_eq!(p.knob, "vcs");
            assert!(p.accepted_load > 0.1, "accepted {}", p.accepted_load);
        }
    }

    #[test]
    #[should_panic]
    fn vc_count_study_rejects_ladder_mechanisms() {
        let _ = vc_count_study(&tiny_template(MechanismSpec::Minimal), &[2], 0.3);
    }

    #[test]
    fn ablation_points_reconstruct_from_a_store() {
        use surepath_runner::{JobSpec, ResultStore};
        let dir = std::env::temp_dir().join("surepath-ablation-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("points-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();

        let metrics = hyperx_sim::RateMetrics {
            offered_load: 0.9,
            accepted_load: 0.7,
            generated_load: 0.9,
            average_latency: 120.0,
            max_latency: Some(400),
            jain_generated: 0.99,
            escape_fraction: 0.04,
            average_hops: 2.1,
            delivered_packets: 999,
            in_flight_at_end: 1,
            stalled: false,
            latency_hist: None,
        };
        let base = JobSpec {
            campaign: "study".into(),
            sides: vec![4, 4, 4],
            mechanism: Some("polsp".into()),
            traffic: Some("uniform".into()),
            load: Some(0.9),
            ..JobSpec::default()
        };
        let jobs = [
            JobSpec {
                vcs: Some(2),
                ..base.clone()
            },
            JobSpec {
                root: Some("max-alive-degree".into()),
                seed: 2,
                ..base.clone()
            },
            JobSpec {
                mechanism: Some("polsp-tree".into()),
                seed: 3,
                ..base.clone()
            },
        ];
        for job in &jobs {
            store
                .append_ok(job, serde_json::to_value(&metrics).unwrap())
                .unwrap();
        }

        let vcs = ablation_points_from_store(&store, "study", "vcs", |_| true);
        assert_eq!(vcs.len(), 3);
        assert_eq!(vcs[0].value, "2");
        assert_eq!(vcs[1].value, "default");
        assert_eq!(vcs[0].mechanism, "PolSP");
        assert!((vcs[0].accepted_load - 0.7).abs() < 1e-12);

        let roots = ablation_points_from_store(&store, "study", "root", |_| true);
        assert_eq!(roots[0].value, "suggested(in-fault)");
        assert_eq!(roots[1].value, "max-alive-degree");

        let escape = ablation_points_from_store(&store, "study", "escape", |_| true);
        assert_eq!(escape[0].value, "opportunistic");
        assert_eq!(escape[2].value, "tree-only");
        assert_eq!(escape[2].mechanism, "PolSP-tree");

        // The filter narrows to a section of the study.
        let filtered = ablation_points_from_store(&store, "study", "vcs", |j| j.seed == 3);
        assert_eq!(filtered.len(), 1);
        assert_eq!(
            ablation_points_from_store(&store, "other", "vcs", |_| true).len(),
            0
        );

        // Replicas of a grid point (same job, different seed) collapse into
        // one point averaging their metrics.
        let mut richer = metrics;
        richer.accepted_load = 0.8;
        store
            .append_ok(
                &JobSpec {
                    vcs: Some(2),
                    seed: 9,
                    ..base.clone()
                },
                serde_json::to_value(&richer).unwrap(),
            )
            .unwrap();
        let vcs = ablation_points_from_store(&store, "study", "vcs", |_| true);
        assert_eq!(vcs.len(), 3, "the new record joined the vcs=2 point");
        assert_eq!(vcs[0].replicas, 2);
        assert!(
            (vcs[0].accepted_load - 0.75).abs() < 1e-12,
            "mean of 0.7/0.8"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tables_and_csv_contain_every_point() {
        let points = vec![
            AblationPoint {
                knob: "vcs".into(),
                value: "2".into(),
                mechanism: "PolSP".into(),
                offered_load: 0.3,
                replicas: 1,
                accepted_load: 0.29,
                average_latency: 120.0,
                escape_fraction: 0.05,
            },
            AblationPoint {
                knob: "vcs".into(),
                value: "4".into(),
                mechanism: "PolSP".into(),
                offered_load: 0.3,
                replicas: 3,
                accepted_load: 0.30,
                average_latency: 110.0,
                escape_fraction: 0.03,
            },
        ];
        let table = format_ablation_table(&points);
        assert!(table.contains("PolSP"));
        assert_eq!(table.lines().count(), 2 + points.len());
        let csv = ablation_to_csv(&points);
        assert_eq!(csv.lines().count(), 1 + points.len());
        assert!(csv.starts_with("knob,value"));
    }
}
