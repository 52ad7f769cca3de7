//! Multi-seed replication and summary statistics.
//!
//! The paper reports single simulation runs per point (the convention for
//! cycle-level interconnect studies). For claims that hinge on small
//! differences — e.g. "OmniSP and PolSP provide almost the same throughput" —
//! this reproduction additionally replicates runs across seeds and reports
//! mean, standard deviation and extreme values, so noise and signal can be
//! told apart in EXPERIMENTS.md.

use crate::experiment::Experiment;
use hyperx_sim::RateMetrics;
use serde::{Deserialize, Serialize};

/// Summary statistics of one scalar metric across replications.
///
/// ```
/// use surepath_core::Summary;
///
/// let s = Summary::of(&[0.70, 0.72, 0.71]);
/// assert_eq!(s.n, 3);
/// assert!((s.mean - 0.71).abs() < 1e-12);
/// assert!(s.std_dev < 0.02);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of replications.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when `n < 2`).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a slice of observations.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary::default();
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Computes the summary of the *finite* observations in a slice,
    /// silently dropping NaN and infinities. Stalled batch runs can report
    /// non-finite latencies (no packet ever completed); aggregating them
    /// through this keeps every downstream mean/CI NaN-free — the dropped
    /// rows simply shrink `n`.
    pub fn of_finite(values: &[f64]) -> Self {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        Summary::of(&finite)
    }

    /// The same distribution under a linear rescale (e.g. a fraction summary
    /// rendered as a percentage): every statistic multiplies by `factor`.
    pub fn scaled(&self, factor: f64) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean * factor,
            std_dev: self.std_dev * factor.abs(),
            min: self.min * factor,
            max: self.max * factor,
        }
    }

    /// Half-width of the ±2σ/√n interval around the mean (a pragmatic ~95 %
    /// confidence half-width for the small replication counts used here).
    ///
    /// With fewer than two observations the spread is unknown, so the
    /// half-width is **infinite**: a single run can never be declared
    /// significantly different from anything (see [`Summary::differs_from`]).
    pub fn half_width(&self) -> f64 {
        if self.n < 2 {
            f64::INFINITY
        } else {
            2.0 * self.std_dev / (self.n as f64).sqrt()
        }
    }

    /// Whether another summary's mean lies outside this one's ±2σ/√n interval
    /// (a cheap "the difference looks real" check). `false` whenever either
    /// side has fewer than two observations — their half-width is infinite —
    /// or a non-finite mean.
    pub fn differs_from(&self, other: &Summary) -> bool {
        (self.mean - other.mean).abs() > self.half_width() + other.half_width()
    }
}

/// One latency percentile surfaced across `--report`, `--diff` and the chart
/// emitters: the derived-metric key used in diff rows/CSV, the column label,
/// and the quantile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PercentileLevel {
    /// Derived-metric key (`latency_p99`), stable across report and diff.
    pub key: &'static str,
    /// Human column label (`p99`).
    pub label: &'static str,
    /// The quantile in `[0, 1]`.
    pub q: f64,
}

/// The tail percentiles the observability layer reports, coldest first.
/// Ordering matters: chart series colors ramp cold→hot along this list.
pub const LATENCY_PERCENTILES: [PercentileLevel; 3] = [
    PercentileLevel {
        key: "latency_p50",
        label: "p50",
        q: 0.50,
    },
    PercentileLevel {
        key: "latency_p99",
        label: "p99",
        q: 0.99,
    },
    PercentileLevel {
        key: "latency_p999",
        label: "p99.9",
        q: 0.999,
    },
];

/// The percentile level behind a derived-metric key, if `key` is one.
pub fn percentile_level(key: &str) -> Option<PercentileLevel> {
    LATENCY_PERCENTILES.iter().copied().find(|l| l.key == key)
}

/// Per-percentile tail comparison: summarises each side's per-replica
/// percentile observations and applies the same conservative CI-overlap test
/// `--diff` uses for means. Returns `(level, baseline, candidate, differs)`
/// per level — `differs` is what gates CI on a tail regression even when the
/// means stay flat.
pub fn compare_tail_percentiles(
    baseline: &[&hyperx_sim::LatencyHistogram],
    candidate: &[&hyperx_sim::LatencyHistogram],
) -> Vec<(PercentileLevel, Summary, Summary, bool)> {
    let side = |hists: &[&hyperx_sim::LatencyHistogram], q: f64| -> Summary {
        let values: Vec<f64> = hists
            .iter()
            .filter_map(|h| h.value_at_quantile(q))
            .map(|v| v as f64)
            .collect();
        Summary::of(&values)
    };
    LATENCY_PERCENTILES
        .iter()
        .map(|&level| {
            let b = side(baseline, level.q);
            let c = side(candidate, level.q);
            let differs = b.differs_from(&c);
            (level, b, c, differs)
        })
        .collect()
}

/// Replicated metrics of one experiment point across seeds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplicatedPoint {
    /// Mechanism under test.
    pub mechanism: String,
    /// Traffic pattern.
    pub traffic: String,
    /// Fault scenario.
    pub scenario: String,
    /// Offered load.
    pub offered_load: f64,
    /// Accepted-load summary across seeds.
    pub accepted_load: Summary,
    /// Latency summary across seeds.
    pub average_latency: Summary,
    /// Jain-index summary across seeds.
    pub jain_generated: Summary,
    /// The raw per-seed metrics, in seed order.
    pub runs: Vec<RateMetrics>,
}

/// Runs `experiment` at `offered_load` once per seed, in parallel on the
/// runner's bounded thread pool, and summarises the headline metrics.
pub fn replicate(experiment: &Experiment, offered_load: f64, seeds: &[u64]) -> ReplicatedPoint {
    assert!(!seeds.is_empty(), "at least one seed is required");
    let runs: Vec<RateMetrics> = surepath_runner::parallel_map(seeds, None, |&seed| {
        experiment.clone().with_seed(seed).run_rate(offered_load)
    });
    let collect = |f: fn(&RateMetrics) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    ReplicatedPoint {
        mechanism: experiment.mechanism.name().to_string(),
        traffic: experiment.traffic.name().to_string(),
        scenario: experiment.scenario.name(),
        offered_load,
        accepted_load: Summary::of(&collect(|m| m.accepted_load)),
        average_latency: Summary::of(&collect(|m| m.average_latency)),
        jain_generated: Summary::of(&collect(|m| m.jain_generated)),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::TrafficSpec;
    use hyperx_routing::MechanismSpec;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.half_width() > 0.0);
    }

    #[test]
    fn summary_of_single_or_empty_inputs() {
        let one = Summary::of(&[7.0]);
        assert_eq!(one.n, 1);
        assert_eq!(one.std_dev, 0.0);
        assert!(one.half_width().is_infinite(), "n=1 carries no spread info");
        let none = Summary::of(&[]);
        assert_eq!(none.n, 0);
        assert_eq!(none.mean, 0.0);
        assert!(none.half_width().is_infinite());
    }

    #[test]
    fn single_replica_is_never_significantly_different() {
        // n = 1 means an infinite-width CI: even a huge mean separation must
        // not be reported as significant, in either direction.
        let one = Summary::of(&[1.0]);
        let far = Summary::of(&[1000.0, 1000.1, 999.9]);
        assert!(!one.differs_from(&far));
        assert!(!far.differs_from(&one));
        assert!(!one.differs_from(&Summary::of(&[-50.0])));
        assert!(!Summary::of(&[]).differs_from(&far));
    }

    #[test]
    fn identical_replicas_have_zero_variance_and_separate_cleanly() {
        // Zero variance (a deterministic metric replicated across seeds that
        // happen to agree): the CI collapses to a point, so any nonzero mean
        // separation is significant and a zero separation is not.
        let a = Summary::of(&[0.5, 0.5, 0.5]);
        assert_eq!(a.std_dev, 0.0);
        assert_eq!(a.half_width(), 0.0);
        let b = Summary::of(&[0.5, 0.5, 0.5]);
        assert!(!a.differs_from(&b), "identical replicas: no difference");
        let c = Summary::of(&[0.500001, 0.500001, 0.500001]);
        assert!(a.differs_from(&c), "zero-variance summaries separate");
    }

    #[test]
    fn of_finite_drops_nan_and_infinite_observations() {
        // Stalled batch rows can carry NaN latencies; aggregation must stay
        // NaN-free and only shrink n.
        let s = Summary::of_finite(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.n, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(s.mean.is_finite() && s.std_dev.is_finite());
        let all_bad = Summary::of_finite(&[f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(all_bad.n, 0);
        assert_eq!(all_bad.mean, 0.0, "empty aggregation stays finite");
        assert!(!all_bad.differs_from(&s), "n=0 can never be significant");
    }

    #[test]
    fn differs_from_detects_separated_means() {
        let a = Summary::of(&[1.0, 1.01, 0.99]);
        let b = Summary::of(&[2.0, 2.01, 1.99]);
        assert!(a.differs_from(&b));
        let c = Summary::of(&[1.0, 1.2, 0.8]);
        let d = Summary::of(&[1.05, 1.25, 0.85]);
        assert!(!c.differs_from(&d));
    }

    #[test]
    fn replicate_runs_every_seed_and_is_deterministic_per_seed() {
        let mut e = Experiment::quick_2d(MechanismSpec::PolSP, TrafficSpec::Uniform);
        e.sim.warmup_cycles = 150;
        e.sim.measure_cycles = 400;
        let point = replicate(&e, 0.3, &[1, 2, 1]);
        assert_eq!(point.runs.len(), 3);
        assert_eq!(point.accepted_load.n, 3);
        assert!(point.accepted_load.mean > 0.1);
        // Identical seeds give identical runs (seed 1 appears twice).
        assert_eq!(point.runs[0].accepted_load, point.runs[2].accepted_load);
        assert_eq!(point.runs[0].average_latency, point.runs[2].average_latency);
    }

    #[test]
    #[should_panic]
    fn replicate_rejects_empty_seed_list() {
        let e = Experiment::quick_2d(MechanismSpec::PolSP, TrafficSpec::Uniform);
        let _ = replicate(&e, 0.3, &[]);
    }

    #[test]
    fn percentile_levels_resolve_by_key_and_ramp_upward() {
        assert_eq!(percentile_level("latency_p99").unwrap().q, 0.99);
        assert!(percentile_level("accepted_load").is_none());
        assert!(LATENCY_PERCENTILES.windows(2).all(|w| w[0].q < w[1].q));
    }

    #[test]
    fn tail_comparison_flags_a_shifted_tail_even_with_flat_means() {
        use hyperx_sim::LatencyHistogram;
        // Baseline and candidate share the same mean-ish body; the candidate
        // moves its worst 2% of samples out by 8×. Three replicas per side,
        // deterministic per replica, so the percentile CIs collapse to points.
        let build = |tail: u64| {
            let mut h = LatencyHistogram::new();
            for i in 0..98 {
                h.record(100 + (i % 7));
            }
            h.record(tail);
            h.record(tail);
            h
        };
        let base: Vec<LatencyHistogram> = (0..3).map(|_| build(200)).collect();
        let cand: Vec<LatencyHistogram> = (0..3).map(|_| build(1_600)).collect();
        let base_refs: Vec<&LatencyHistogram> = base.iter().collect();
        let cand_refs: Vec<&LatencyHistogram> = cand.iter().collect();
        let rows = compare_tail_percentiles(&base_refs, &cand_refs);
        assert_eq!(rows.len(), LATENCY_PERCENTILES.len());
        let by_key = |k: &str| rows.iter().find(|(l, ..)| l.key == k).unwrap();
        let (_, b50, c50, p50_differs) = by_key("latency_p50");
        assert_eq!(b50.mean, c50.mean, "body unchanged");
        assert!(!*p50_differs);
        let (_, b99, c99, p99_differs) = by_key("latency_p99");
        assert!(*p99_differs, "tail shift must gate");
        assert!(c99.mean > b99.mean);
    }

    #[test]
    fn tail_comparison_with_empty_sides_is_never_significant() {
        let rows = compare_tail_percentiles(&[], &[]);
        assert!(rows.iter().all(|(_, b, c, d)| b.n == 0 && c.n == 0 && !d));
    }
}
