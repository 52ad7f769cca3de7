//! Report emitters: aligned text tables and CSV for the benchmark binaries,
//! and renderers that reconstruct figure output **straight from campaign
//! result stores** — no re-simulation. Every store renderer reads one
//! grouped query, [`store_points`], so `surepath campaign --report`, the
//! charts, `--diff` and the figure binaries label points alike.

use crate::experiment::TrafficSpec;
use crate::scenario::FaultScenario;
use crate::stats::Summary;
use crate::sweep::SweepPoint;
use hyperx_routing::MechanismSpec;
use hyperx_sim::{BatchMetrics, Counter, CounterRegistry, LatencyHistogram, RateMetrics};
use serde::{Deserialize, Serialize};
use surepath_runner::{
    group_replicas, AssignmentManifest, JobSpec, ResultStore, StoreRecord, TimingRecord,
    TraceRecord,
};

/// A generic row of a report table: a label and a set of named columns.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReportRow {
    /// Row label (e.g. a mechanism name).
    pub label: String,
    /// Column values, in the order of the table's header.
    pub values: Vec<String>,
}

/// Renders rows as an aligned plain-text table.
pub fn format_table(header: &[&str], rows: &[ReportRow]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        widths[0] = widths[0].max(row.label.len());
        for (i, v) in row.values.iter().enumerate() {
            if i + 1 < widths.len() {
                widths[i + 1] = widths[i + 1].max(v.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        line.push_str(&format!("{:<width$}  ", h, width = widths[i]));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        let mut line = format!("{:<width$}  ", row.label, width = widths[0]);
        for (i, v) in row.values.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", v, width = widths[i + 1]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// One grid point of a result store: the records of one (campaign, kind)
/// that share a point fingerprint (the job minus its seed). A single run is
/// a group of one; replicas are the other members. This is the one place
/// that decides how stored records become labelled points — every store
/// renderer (the report tables and CSV, the charts, the counters, `--diff`,
/// the ablation tables and the figure binaries) reads [`store_points`].
#[derive(Clone, Debug)]
pub struct StorePoint {
    /// The point fingerprint the records share.
    pub point: String,
    /// A representative job (the first record's; only `seed` differs
    /// between records).
    pub job: JobSpec,
    /// Mechanism display name (e.g. `PolSP`).
    pub mechanism: String,
    /// Traffic display name.
    pub traffic: String,
    /// Scenario display name.
    pub scenario: String,
    /// The label every renderer prints: the mechanism, followed in brackets
    /// by each of sides, concentration, vcs, root, packets per server and
    /// rng that takes more than one value within the point's (campaign,
    /// kind) — e.g. `PolSP [4x4 / vcs=2]` — so points that differ only in a
    /// dimension no column shows never look identical.
    pub label: String,
    /// The point's records in store order, failed ones included.
    pub records: Vec<StoreRecord>,
}

impl StorePoint {
    /// The successful records.
    fn ok_records(&self) -> impl Iterator<Item = &StoreRecord> {
        self.records.iter().filter(|r| r.status == "ok")
    }

    /// The successful runs' results parsed as `M` (`RateMetrics`,
    /// `BatchMetrics`, ...), with their seeds; unparseable results are
    /// skipped.
    fn seeded_runs<M: Deserialize>(&self) -> Vec<(u64, M)> {
        self.ok_records()
            .filter_map(|r| Some((r.job.seed, M::deserialize(r.result.as_ref()?).ok()?)))
            .collect()
    }

    /// The successful runs' results parsed as `M`; unparseable results are
    /// skipped.
    pub fn runs<M: Deserialize>(&self) -> Vec<M> {
        self.seeded_runs().into_iter().map(|(_, m)| m).collect()
    }

    /// The summary of one metric across the runs (non-finite values
    /// dropped).
    pub fn summary<M: Deserialize>(&self, metric: impl Fn(&M) -> f64) -> Summary {
        Summary::of_finite(&self.runs().iter().map(metric).collect::<Vec<_>>())
    }

    /// The runs' latency histograms merged by exact count addition (never
    /// averaged percentiles); `None` when no run carries one.
    pub fn latency_hist(&self) -> Option<LatencyHistogram> {
        self.ok_records()
            .filter_map(|r| result_field::<LatencyHistogram>(r, "latency_hist"))
            .reduce(|mut merged, hist| {
                merged.merge(&hist);
                merged
            })
    }

    /// The runs' engine counters merged by exact addition (the distributed
    /// fold's algebra); `None` when no run carries them.
    pub fn counters(&self) -> Option<CounterRegistry> {
        self.ok_records()
            .filter_map(|r| result_field::<CounterRegistry>(r, "counters"))
            .reduce(|mut merged, registry| {
                merged.merge(&registry);
                merged
            })
    }
}

/// A field of a record's result, parsed.
fn result_field<T: Deserialize>(record: &StoreRecord, key: &str) -> Option<T> {
    T::deserialize(record.result.as_ref()?.get(key)?).ok()
}

impl From<&SweepPoint> for StorePoint {
    /// A live sweep point as a one-run point, so live sweeps render through
    /// the same tables as stores.
    fn from(p: &SweepPoint) -> Self {
        let job = JobSpec {
            load: Some(p.offered_load),
            ..JobSpec::default()
        };
        StorePoint {
            point: String::new(),
            mechanism: p.mechanism.clone(),
            traffic: p.traffic.clone(),
            scenario: p.scenario.clone(),
            label: p.mechanism.clone(),
            records: vec![StoreRecord {
                fp: String::new(),
                status: "ok".to_string(),
                job: job.clone(),
                result: Some(p.metrics.serialize()),
                error: None,
            }],
            job,
        }
    }
}

/// The records of one (campaign, kind) of a store grouped into grid points,
/// in store (canonical grid) order: the query under every store renderer.
/// Works alike for stores written with the `replicas` dimension and for old
/// stores whose seeds were an explicit grid axis.
pub fn store_points(store: &ResultStore, campaign: &str, kind: &str) -> Vec<StorePoint> {
    let records: Vec<StoreRecord> = store.records_of(campaign, kind).collect();
    let dimensions: Vec<[String; 6]> = records.iter().map(|r| hidden_dimensions(&r.job)).collect();
    let varies: Vec<bool> = (0..6)
        .map(|i| dimensions.iter().any(|d| d[i] != dimensions[0][i]))
        .collect();
    group_replicas(&records)
        .into_iter()
        .map(|(point, records)| {
            let job = records[0].job.clone();
            let (mechanism, traffic, scenario) = display_names(&job);
            let qualifiers: Vec<String> = hidden_dimensions(&job)
                .into_iter()
                .zip(&varies)
                .filter_map(|(value, &varies)| varies.then_some(value))
                .collect();
            let label = if qualifiers.is_empty() {
                mechanism.clone()
            } else {
                format!("{mechanism} [{}]", qualifiers.join(" / "))
            };
            StorePoint {
                point,
                job,
                mechanism,
                traffic,
                scenario,
                label,
                records: records.into_iter().cloned().collect(),
            }
        })
        .collect()
}

/// The dimensions of a job that no report column shows, as label
/// qualifiers: sides, concentration, vcs, root, packets per server, rng.
fn hidden_dimensions(job: &JobSpec) -> [String; 6] {
    let or_default = |value: Option<String>| value.unwrap_or_else(|| "default".to_string());
    [
        sides_label(&job.sides),
        format!("c={}", or_default(job.concentration.map(|c| c.to_string()))),
        format!("vcs={}", or_default(job.vcs.map(|v| v.to_string()))),
        format!("root={}", or_default(job.root.clone())),
        format!(
            "packets={}",
            or_default(job.packets_per_server.map(|p| p.to_string()))
        ),
        // Absent = contract v1.
        format!("rng={}", job.rng.as_deref().unwrap_or("v1")),
    ]
}

/// `[8, 8, 8]` → `8x8x8`.
fn sides_label(sides: &[usize]) -> String {
    sides
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// The paper-facing display names of a stored job: mechanism, traffic and
/// scenario keys mapped back through the same parsers that executed the job.
/// Unparseable values (e.g. custom kinds) fall back to the raw string.
fn display_names(job: &JobSpec) -> (String, String, String) {
    let mechanism = job
        .mechanism
        .as_deref()
        .map(|m| match MechanismSpec::parse(m) {
            Some(spec) => spec.name().to_string(),
            None => m.to_string(),
        })
        .unwrap_or_default();
    let traffic = job
        .traffic
        .as_deref()
        .map(|t| match TrafficSpec::parse(t) {
            Some(spec) => spec.name().to_string(),
            None => t.to_string(),
        })
        .unwrap_or_else(|| TrafficSpec::Uniform.name().to_string());
    let scenario = match job.scenario.as_deref() {
        None => FaultScenario::None.name(),
        Some(s) => match FaultScenario::parse(s, &job.sides) {
            Ok(scenario) => scenario.name(),
            Err(_) => s.to_string(),
        },
    };
    (mechanism, traffic, scenario)
}

/// A rate point's parsed runs with its offered load; `None` when no run
/// parsed.
fn rate_runs(p: &StorePoint) -> Option<(f64, Vec<RateMetrics>)> {
    let runs: Vec<RateMetrics> = p.runs();
    let first = runs.first()?;
    Some((p.job.load.unwrap_or(first.offered_load), runs))
}

/// Formats rate points as the table the figure binaries and `--report`
/// print: one row per point with the three paper metrics. While every point
/// has one run the cells are that run's values; once any point has
/// replicas, an `n` column appears and every cell is the replica mean
/// ±2σ/√n. Accepts store points and live [`SweepPoint`]s alike.
pub fn format_rate_table(points: impl IntoIterator<Item = impl Into<StorePoint>>) -> String {
    let points: Vec<StorePoint> = points.into_iter().map(Into::into).collect();
    let rows: Vec<(&StorePoint, f64, Vec<RateMetrics>)> = points
        .iter()
        .filter_map(|p| rate_runs(p).map(|(offered, runs)| (p, offered, runs)))
        .collect();
    let replicated = rows.iter().any(|(_, _, runs)| runs.len() > 1);
    let mut header = vec!["mechanism", "traffic", "scenario", "offered"];
    if replicated {
        header.push("n");
    }
    header.extend(["accepted", "latency", "jain", "escape%"]);
    // Quantiles come from the runs' merged histogram. Percentile columns
    // appear only when at least one point carries a histogram, so reports of
    // pre-histogram stores render byte-identically.
    let hists: Vec<Option<LatencyHistogram>> =
        rows.iter().map(|(p, _, _)| p.latency_hist()).collect();
    let with_tail = hists.iter().any(Option::is_some);
    if with_tail {
        header.extend(crate::stats::LATENCY_PERCENTILES.iter().map(|l| l.label));
        header.push("max");
    }
    let rows: Vec<ReportRow> = rows
        .iter()
        .zip(&hists)
        .map(|((p, offered, runs), hist)| {
            let cell = |metric: fn(&RateMetrics) -> f64, scale: f64, decimals: usize| {
                if replicated {
                    let values: Vec<f64> = runs.iter().map(metric).collect();
                    format_mean_hw(&Summary::of_finite(&values).scaled(scale), decimals)
                } else {
                    format!("{:.decimals$}", scale * metric(&runs[0]))
                }
            };
            let mut values = vec![
                p.traffic.clone(),
                p.scenario.clone(),
                format!("{offered:.2}"),
            ];
            if replicated {
                values.push(runs.len().to_string());
            }
            values.extend([
                cell(|m| m.accepted_load, 1.0, 3),
                cell(|m| m.average_latency, 1.0, 1),
                cell(|m| m.jain_generated, 1.0, 3),
                cell(|m| m.escape_fraction, 100.0, 1),
            ]);
            if with_tail {
                let max_latency = runs.iter().filter_map(|m| m.max_latency).max();
                values.extend(latency_percentile_cells(hist.as_ref(), max_latency));
            }
            ReportRow {
                label: p.label.clone(),
                values,
            }
        })
        .collect();
    format_table(&header, &rows)
}

/// The p50/p99/p99.9/max table cells of one point: a dash for anything
/// absent (pre-histogram results, or nothing delivered).
fn latency_percentile_cells(
    hist: Option<&LatencyHistogram>,
    max_latency: Option<u64>,
) -> Vec<String> {
    let mut cells: Vec<String> = crate::stats::LATENCY_PERCENTILES
        .iter()
        .map(|level| {
            hist.and_then(|h| h.value_at_quantile(level.q))
                // Quantiles report bucket upper bounds (≤ 1/16 above the true
                // value); never print one beyond the exact observed maximum.
                .map(|v| max_latency.map_or(v, |m| v.min(m)))
                .map_or_else(|| "-".to_string(), |v| v.to_string())
        })
        .collect();
    cells.push(max_latency.map_or_else(|| "-".to_string(), |v| v.to_string()));
    cells
}

const RATE_CSV_HEADER: &str = "mechanism,traffic,scenario,offered_load,accepted_load,generated_load,average_latency,latency_p50,latency_p99,latency_p999,max_latency,jain_generated,escape_fraction,average_hops,delivered_packets,stalled";

/// Serializes rate points as CSV (with a header line), one line per run,
/// ready for plotting. Accepts store points and live [`SweepPoint`]s alike.
pub fn rate_metrics_to_csv(points: impl IntoIterator<Item = impl Into<StorePoint>>) -> String {
    let mut out = format!("{RATE_CSV_HEADER}\n");
    for point in points {
        out.push_str(&rate_csv_lines(&point.into()));
    }
    out
}

/// The CSV lines of one rate point's runs.
fn rate_csv_lines(p: &StorePoint) -> String {
    let mut out = String::new();
    for m in p.runs::<RateMetrics>() {
        let percentile = |q: f64| -> String {
            m.latency_hist
                .as_ref()
                .and_then(|h| h.value_at_quantile(q))
                .map(|v| m.max_latency.map_or(v, |max| v.min(max)))
                .map_or_else(String::new, |v| v.to_string())
        };
        out.push_str(&format!(
            "{},{},{},{:.4},{:.6},{:.6},{:.3},{},{},{},{},{:.5},{:.5},{:.3},{},{}\n",
            p.label.replace(',', ";"),
            p.traffic.replace(',', ";"),
            p.scenario.replace(',', ";"),
            p.job.load.unwrap_or(m.offered_load),
            m.accepted_load,
            m.generated_load,
            m.average_latency,
            percentile(0.50),
            percentile(0.99),
            percentile(0.999),
            m.max_latency.map_or_else(String::new, |v| v.to_string()),
            m.jain_generated,
            m.escape_fraction,
            m.average_hops,
            m.delivered_packets,
            m.stalled
        ));
    }
    out
}

/// The display label of a batch entry: the point label alone when no other
/// entry shares it (Figure 10's two-line case), else qualified with traffic
/// and scenario — and with the seed when the entry is a single run.
fn batch_label(p: &StorePoint, sharing: usize, seed: Option<u64>) -> String {
    match seed {
        _ if sharing <= 1 => p.label.clone(),
        Some(seed) => format!("{} [{} / {} / seed {seed}]", p.label, p.traffic, p.scenario),
        None => format!("{} [{} / {}]", p.label, p.traffic, p.scenario),
    }
}

/// Formats batch points as the completion-time lines Figure 10 prints. While
/// every point has one run each line is that run's values; once any point
/// has replicas, each line is the replica mean ±2σ/√n with its `n` and the
/// count of stalled replicas. Non-finite per-run values (a stalled run that
/// delivered nothing) only shrink a summary's sample.
pub fn format_batch_table(points: &[StorePoint]) -> String {
    let rows: Vec<(&StorePoint, Vec<(u64, BatchMetrics)>)> = points
        .iter()
        .map(|p| (p, p.seeded_runs()))
        .filter(|(_, runs)| !runs.is_empty())
        .collect();
    let replicated = rows.iter().any(|(_, runs)| runs.len() > 1);
    let mut out = String::new();
    for (p, runs) in &rows {
        let sharing = rows.iter().filter(|(q, _)| q.label == p.label).count();
        // The percentile suffix appears only for histogram-bearing results,
        // keeping pre-histogram store renders byte-identical.
        let tail = p
            .latency_hist()
            .map(|h| format_latency_tail_suffix(&h))
            .unwrap_or_default();
        if replicated {
            let summary = |metric: fn(&BatchMetrics) -> f64| {
                Summary::of_finite(&runs.iter().map(|(_, m)| metric(m)).collect::<Vec<_>>())
            };
            let stalled = runs.iter().filter(|(_, m)| m.stalled).count();
            out.push_str(&format!(
                "{}: completion time {} cycles, {} packets delivered, average latency {} cycles{tail} (n={}{})\n",
                batch_label(p, sharing, None),
                format_mean_hw(&summary(|m| m.completion_time as f64), 0),
                format_mean_hw(&summary(|m| m.delivered_packets as f64), 0),
                format_mean_hw(&summary(|m| m.average_latency), 1),
                runs.len(),
                if stalled > 0 {
                    format!(", {stalled} STALLED")
                } else {
                    String::new()
                }
            ));
        } else {
            let (seed, m) = &runs[0];
            out.push_str(&format!(
                "{}: completion time {} cycles, {} packets delivered, average latency {:.1} cycles{tail}{}\n",
                batch_label(p, sharing, Some(*seed)),
                m.completion_time,
                m.delivered_packets,
                m.average_latency,
                if m.stalled { " (STALLED)" } else { "" }
            ));
        }
    }
    out
}

/// The `, p50/p99/p99.9 a/b/c` suffix of a batch completion line; empty when
/// the histogram recorded nothing.
fn format_latency_tail_suffix(hist: &LatencyHistogram) -> String {
    let cells: Vec<String> = crate::stats::LATENCY_PERCENTILES
        .iter()
        .filter_map(|level| hist.value_at_quantile(level.q).map(|v| v.to_string()))
        .collect();
    if cells.is_empty() {
        return String::new();
    }
    let labels: Vec<&str> = crate::stats::LATENCY_PERCENTILES
        .iter()
        .map(|l| l.label)
        .collect();
    format!(", {} {}", labels.join("/"), cells.join("/"))
}

/// Serializes the throughput-over-time series of batch points as CSV
/// (Figure 10's curve), one block of rows per run. Every row carries the
/// full run identity — campaign included — so multi-campaign stores and
/// multi-scenario or multi-seed campaigns stay separable when plotting.
pub fn batch_samples_csv(points: &[StorePoint]) -> String {
    let mut out = String::from("campaign,mechanism,traffic,scenario,seed,cycle,accepted_load\n");
    for p in points {
        for (seed, run) in p.seeded_runs::<BatchMetrics>() {
            for sample in &run.samples {
                out.push_str(&format!(
                    "{},{},{},{},{seed},{},{:.6}\n",
                    p.job.campaign,
                    p.label.replace(',', ";"),
                    p.traffic.replace(',', ";"),
                    p.scenario.replace(',', ";"),
                    sample.cycle,
                    sample.accepted_load
                ));
            }
        }
    }
    out
}

/// The mean completion-time ratio between two mechanisms of a batch
/// campaign (the paper's "OmniSP takes ~2.8x PolSP's time" headline).
/// Returns `None` when either mechanism has no completed run — e.g. a
/// filtered or renamed lineup — instead of panicking, so callers can degrade
/// gracefully.
pub fn completion_ratio(points: &[StorePoint], numerator: &str, denominator: &str) -> Option<f64> {
    let mean = |name: &str| {
        points
            .iter()
            .filter(|p| p.mechanism == name)
            .map(|p| p.summary(|m: &BatchMetrics| m.completion_time as f64))
            .find(|s| s.n > 0)
            .map(|s| s.mean)
    };
    Some(mean(numerator)? / mean(denominator)?.max(1.0))
}

/// Renders a replica summary as `mean ±half-width` (the ±2σ/√n CI). A
/// single replica has an infinite-width CI, so only its mean is printed; an
/// empty summary renders as `-`.
pub fn format_mean_hw(summary: &Summary, decimals: usize) -> String {
    if summary.n == 0 {
        "-".to_string()
    } else if summary.n == 1 {
        format!("{:.decimals$}", summary.mean)
    } else {
        format!(
            "{:.decimals$} ±{:.decimals$}",
            summary.mean,
            summary.half_width()
        )
    }
}

/// Renders a replica summary's half-width for a numeric CSV column: the
/// ±2σ/√n value with `decimals` places, or an **empty field** when the
/// half-width is unknown (n < 2 has an infinite CI) — numeric CSV consumers
/// must never see `inf`.
pub fn csv_half_width(summary: &Summary, decimals: usize) -> String {
    let hw = summary.half_width();
    if hw.is_finite() {
        format!("{hw:.decimals$}")
    } else {
        String::new()
    }
}

/// One metric of a grid point compared between two stores.
#[derive(Clone, Debug)]
pub struct MetricDiff {
    /// Metric name (a stored-result field, e.g. `accepted_load`).
    pub metric: &'static str,
    /// Whether larger values of this metric are better.
    pub higher_is_better: bool,
    /// Display decimals.
    pub decimals: usize,
    /// The baseline store's replica summary.
    pub baseline: Summary,
    /// The candidate store's replica summary.
    pub candidate: Summary,
    /// Whether the means lie outside each other's ±2σ/√n intervals.
    pub significant: bool,
    /// Significant *and* worse in the candidate.
    pub regression: bool,
}

/// One grid point aligned between two stores (by point fingerprint — the
/// job identity minus the seed — so replicated and explicit-seed stores
/// align alike).
#[derive(Clone, Debug)]
pub struct PointDiff {
    /// Human label of the point (display names, no seed).
    pub label: String,
    /// Owning campaign.
    pub campaign: String,
    /// Job kind (`rate` or `batch`).
    pub kind: String,
    /// Per-metric comparisons.
    pub metrics: Vec<MetricDiff>,
}

/// The comparison of two result stores: `surepath campaign --diff`.
#[derive(Clone, Debug, Default)]
pub struct StoreDiff {
    /// Points present in both stores, compared metric by metric.
    pub points: Vec<PointDiff>,
    /// Points only the baseline store has.
    pub baseline_only: usize,
    /// Points only the candidate store has.
    pub candidate_only: usize,
    /// Common points whose kind the diff engine cannot compare
    /// (custom kinds owned by their binaries).
    pub uncompared: usize,
    /// Labels of baseline points whose candidate rows exist but **all
    /// failed**: the candidate could not even complete these jobs, which is
    /// worse than any metric delta and counts as a regression.
    pub candidate_failed: Vec<String>,
    /// Warnings for point pairs that are the same experiment under
    /// **different RNG contract versions** (e.g. baseline `rng=v1`,
    /// candidate `rng=v2`). Their metrics come from different draw-order
    /// distributions, so the diff refuses to compare them metric by metric —
    /// but it also refuses to pass them off as grid mismatches: each pair is
    /// surfaced as an explicit per-point warning. Never a regression.
    pub rng_mismatch: Vec<String>,
}

impl StoreDiff {
    /// Significant metric deltas across all compared points.
    pub fn significant(&self) -> usize {
        self.points
            .iter()
            .flat_map(|p| &p.metrics)
            .filter(|m| m.significant)
            .count()
    }

    /// Significant deltas that are worse in the candidate store.
    pub fn regressions(&self) -> usize {
        self.points
            .iter()
            .flat_map(|p| &p.metrics)
            .filter(|m| m.regression)
            .count()
    }

    /// Significant deltas that are better in the candidate store.
    pub fn improvements(&self) -> usize {
        self.significant() - self.regressions()
    }

    /// Whether the candidate store regressed anywhere — a significant
    /// worse-direction metric delta *or* a point whose candidate jobs all
    /// failed: the `--diff` exit criterion.
    pub fn has_regressions(&self) -> bool {
        self.regressions() > 0 || !self.candidate_failed.is_empty()
    }
}

/// The metrics `--diff` compares per job kind, with the direction that
/// counts as better. `stalled` enters as a 0/1 indicator per replica, so a
/// mechanism that starts stalling shows up as a regression of its mean.
/// The `latency_p*` entries are derived from the stored histogram (see
/// [`metric_value`]) and gate CI on tail regressions the mean can hide;
/// for pre-histogram stores they summarise to n = 0, which is never
/// significant, so old diffs are unaffected.
fn diff_metrics(kind: &str) -> &'static [(&'static str, bool, usize)] {
    match kind {
        "rate" => &[
            ("accepted_load", true, 3),
            ("average_latency", false, 1),
            ("latency_p50", false, 0),
            ("latency_p99", false, 0),
            ("latency_p999", false, 0),
            ("jain_generated", true, 3),
            ("stalled", false, 2),
        ],
        "batch" => &[
            ("completion_time", false, 0),
            ("average_latency", false, 1),
            ("latency_p50", false, 0),
            ("latency_p99", false, 0),
            ("latency_p999", false, 0),
            ("delivered_packets", true, 0),
            ("stalled", false, 2),
        ],
        _ => &[],
    }
}

/// A stored result's metric as f64 (booleans count 0/1), if present.
/// `latency_p*` keys are derived per replica from the result's serialized
/// histogram — each replica contributes its own quantile observation, and
/// the [`Summary`]-level CI-overlap test in `crate::stats` does the rest.
fn metric_value(record: &StoreRecord, metric: &str) -> Option<f64> {
    let result = record.result.as_ref()?;
    if let Some(level) = crate::stats::percentile_level(metric) {
        let hist: hyperx_sim::LatencyHistogram =
            serde::Deserialize::deserialize(result.get("latency_hist")?).ok()?;
        return hist.value_at_quantile(level.q).map(|v| v as f64);
    }
    let value = &result[metric];
    value
        .as_f64()
        .or_else(|| value.as_bool().map(|b| if b { 1.0 } else { 0.0 }))
}

/// The label of a grid point in diff output: the owning campaign, the job's
/// display names and every set dimension except the seed — campaigns with
/// identical grids sharing a store stay distinguishable row by row.
fn point_label(job: &JobSpec) -> String {
    let (mechanism, traffic, scenario) = display_names(job);
    let mut parts = vec![job.campaign.clone(), sides_label(&job.sides)];
    for part in [mechanism, traffic, scenario] {
        if !part.is_empty() {
            parts.push(part);
        }
    }
    if let Some(root) = &job.root {
        parts.push(format!("root={root}"));
    }
    if let Some(vcs) = job.vcs {
        parts.push(format!("vcs={vcs}"));
    }
    if let Some(load) = job.load {
        parts.push(format!("load={load}"));
    }
    if let Some(packets) = job.packets_per_server {
        parts.push(format!("packets={packets}"));
    }
    // Absent = contract v1: legacy labels stay byte-identical.
    if let Some(rng) = &job.rng {
        parts.push(format!("rng={rng}"));
    }
    parts.join(" / ")
}

/// Compares two stores point by point: rows are aligned by fingerprint
/// minus seed, each aligned point's replicas are summarised per metric on
/// both sides, and a delta is **significant** when the means lie outside
/// each other's ±2σ/√n intervals ([`Summary::differs_from`]) — so a
/// single-replica store can never produce a significant delta, and two runs
/// of the same campaign (deterministic per seed) always diff clean. A
/// significant delta in the worse direction is a **regression** — as is a
/// baseline point whose candidate jobs exist but *all failed* (the candidate
/// could not complete them at all), so crashing jobs cannot slip past the
/// exit-code gate.
pub fn diff_stores(baseline: &ResultStore, candidate: &ResultStore) -> StoreDiff {
    diff_stores_filtered(baseline, candidate, None)
}

/// [`diff_stores`] restricted to one campaign: records of other campaigns
/// (both stores) are ignored entirely — they neither compare nor count as
/// baseline-only/candidate-only. `None` compares everything.
pub fn diff_stores_filtered(
    baseline: &ResultStore,
    candidate: &ResultStore,
    campaign: Option<&str>,
) -> StoreDiff {
    let points = |store: &ResultStore| -> Vec<StorePoint> {
        store
            .groups()
            .into_iter()
            .filter(|(name, _)| campaign.is_none_or(|wanted| name == wanted))
            .flat_map(|(name, kind)| store_points(store, &name, &kind))
            .collect()
    };
    let has_ok = |p: &&StorePoint| p.ok_records().next().is_some();
    let baseline_points = points(baseline);
    let baseline_groups: Vec<&StorePoint> = baseline_points.iter().filter(has_ok).collect();
    // Every candidate point, failed-only ones included — distinguishes "the
    // candidate never ran this point" (grid mismatch, tolerated) from "the
    // candidate ran it and every replica failed" (a regression).
    let candidate_points = points(candidate);
    let candidate_attempted: std::collections::HashSet<&str> =
        candidate_points.iter().map(|p| p.point.as_str()).collect();
    let candidate_groups: Vec<&StorePoint> = candidate_points.iter().filter(has_ok).collect();
    let candidate_index: std::collections::HashMap<&str, &StorePoint> = candidate_groups
        .iter()
        .map(|p| (p.point.as_str(), *p))
        .collect();
    let baseline_keys: std::collections::HashSet<&str> =
        baseline_groups.iter().map(|p| p.point.as_str()).collect();

    // Candidate points absent from the baseline, indexed by the *rng-blind*
    // point fingerprint: an unmatched baseline point that shares this key
    // with one of them is the same experiment under a different RNG contract
    // — a warning, not a pair of grid mismatches. (Equal blind keys with
    // unequal plain keys can only mean the `rng` field differs.)
    let mut candidate_unmatched: Vec<(String, &StorePoint, bool)> = candidate_groups
        .iter()
        .filter(|p| !baseline_keys.contains(p.point.as_str()))
        .map(|p| {
            (
                surepath_runner::point_fingerprint_ignoring_rng(&p.job),
                *p,
                false,
            )
        })
        .collect();
    let rng_name = |job: &JobSpec| job.rng.clone().unwrap_or_else(|| "v1".into());

    let mut diff = StoreDiff::default();
    for base in baseline_groups {
        let job = &base.job;
        let Some(cand) = candidate_index.get(base.point.as_str()) else {
            if candidate_attempted.contains(base.point.as_str()) {
                diff.candidate_failed.push(point_label(job));
            } else {
                let blind = surepath_runner::point_fingerprint_ignoring_rng(job);
                if let Some((_, peer, consumed)) = candidate_unmatched
                    .iter_mut()
                    .find(|(key, _, consumed)| !*consumed && *key == blind)
                {
                    *consumed = true;
                    diff.rng_mismatch.push(format!(
                        "{}: baseline rng={}, candidate rng={}",
                        point_label(job),
                        rng_name(job),
                        rng_name(&peer.job),
                    ));
                } else {
                    diff.baseline_only += 1;
                }
            }
            continue;
        };
        let specs = diff_metrics(&job.kind);
        if specs.is_empty() {
            diff.uncompared += 1;
            continue;
        }
        let summarise = |p: &StorePoint, metric: &str| -> Summary {
            Summary::of_finite(
                &p.ok_records()
                    .filter_map(|r| metric_value(r, metric))
                    .collect::<Vec<_>>(),
            )
        };
        let metrics = specs
            .iter()
            .map(|&(metric, higher_is_better, decimals)| {
                let a = summarise(base, metric);
                let b = summarise(cand, metric);
                let significant = a.differs_from(&b);
                let worse = if higher_is_better {
                    b.mean < a.mean
                } else {
                    b.mean > a.mean
                };
                MetricDiff {
                    metric,
                    higher_is_better,
                    decimals,
                    baseline: a,
                    candidate: b,
                    significant,
                    regression: significant && worse,
                }
            })
            .collect();
        diff.points.push(PointDiff {
            label: point_label(job),
            campaign: job.campaign.clone(),
            kind: job.kind.clone(),
            metrics,
        });
    }
    diff.candidate_only = candidate_unmatched
        .iter()
        .filter(|(_, _, consumed)| !consumed)
        .count();
    diff
}

/// Renders a [`StoreDiff`] as the `--diff` regression table: one row per
/// significant metric delta (regressions and improvements), then the
/// counters and the verdict line. Deterministic — two byte-identical store
/// pairs render identically.
pub fn format_store_diff(diff: &StoreDiff) -> String {
    let mut out = String::new();
    let header = [
        "point",
        "metric",
        "baseline",
        "candidate",
        "delta",
        "verdict",
    ];
    let mut rows: Vec<ReportRow> = diff
        .points
        .iter()
        .flat_map(|p| {
            p.metrics
                .iter()
                .filter(|m| m.significant)
                .map(|m| ReportRow {
                    label: p.label.clone(),
                    values: vec![
                        m.metric.to_string(),
                        format_mean_hw(&m.baseline, m.decimals),
                        format_mean_hw(&m.candidate, m.decimals),
                        format!(
                            "{:+.decimals$}",
                            m.candidate.mean - m.baseline.mean,
                            decimals = m.decimals
                        ),
                        if m.regression {
                            "REGRESSION".to_string()
                        } else {
                            "improvement".to_string()
                        },
                    ],
                })
        })
        .collect();
    rows.extend(diff.candidate_failed.iter().map(|label| ReportRow {
        label: label.clone(),
        values: vec![
            "(completion)".to_string(),
            "ok".to_string(),
            "all FAILED".to_string(),
            "-".to_string(),
            "REGRESSION".to_string(),
        ],
    }));
    if rows.is_empty() {
        out.push_str("(no significant per-metric differences)\n");
    } else {
        out.push_str(&format_table(&header, &rows));
    }
    for warning in &diff.rng_mismatch {
        out.push_str(&format!(
            "warning: RNG contract mismatch — {warning}: metrics come from \
             different draw-order distributions; not compared\n"
        ));
    }
    out.push_str(&format!(
        "compared {} points ({} baseline-only, {} candidate-only, {} uncompared kinds, {} candidate-failed)\n",
        diff.points.len(),
        diff.baseline_only,
        diff.candidate_only,
        diff.uncompared,
        diff.candidate_failed.len(),
    ));
    out.push_str(&format!(
        "significant deltas: {} ({} regressions, {} improvements)\n",
        diff.significant(),
        diff.regressions(),
        diff.improvements()
    ));
    if diff.has_regressions() {
        out.push_str(&format!(
            "result: {} regression(s)\n",
            diff.regressions() + diff.candidate_failed.len()
        ));
    } else {
        out.push_str("result: no regressions\n");
    }
    out
}

/// Serializes a [`StoreDiff`] as CSV — **every** compared metric, not just
/// the significant ones, so spreadsheet/plotting consumers see the full
/// comparison surface. Half-width columns are empty when the CI is unknown
/// (n < 2), matching [`csv_half_width`]'s contract.
pub fn store_diff_csv(diff: &StoreDiff) -> String {
    let mut out = String::from(
        "point,campaign,kind,metric,baseline_n,baseline_mean,baseline_hw,candidate_n,candidate_mean,candidate_hw,delta,significant,regression\n",
    );
    for point in &diff.points {
        for m in &point.metrics {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{},{},{:.6},{},{:+.6},{},{}\n",
                point.label.replace(',', ";"),
                point.campaign.replace(',', ";"),
                point.kind,
                m.metric,
                m.baseline.n,
                m.baseline.mean,
                csv_half_width(&m.baseline, 6),
                m.candidate.n,
                m.candidate.mean,
                csv_half_width(&m.candidate, 6),
                m.candidate.mean - m.baseline.mean,
                m.significant,
                m.regression
            ));
        }
    }
    for label in &diff.candidate_failed {
        out.push_str(&format!(
            "{},,,completion,,,,,,,,true,true\n",
            label.replace(',', ";")
        ));
    }
    for label in &diff.rng_mismatch {
        out.push_str(&format!(
            "{},,,rng_mismatch,,,,,,,,false,false\n",
            label.replace(',', ";")
        ));
    }
    out
}

/// Renders the slowest jobs of a timings sidecar as an aligned table: the
/// `--report --timings` view. Jobs sort by wall-clock descending (ties by
/// fingerprint so the output is deterministic); `top` bounds the row count.
pub fn format_timings_table(records: &[TimingRecord], top: usize) -> String {
    if records.is_empty() {
        return "(no timing records)\n".to_string();
    }
    let mut sorted: Vec<&TimingRecord> = records.iter().collect();
    sorted.sort_by(|a, b| b.millis.cmp(&a.millis).then(a.fp.cmp(&b.fp)));
    let total_ms: u64 = records.iter().map(|r| r.millis).sum();
    let rows: Vec<ReportRow> = sorted
        .iter()
        .take(top)
        .map(|r| ReportRow {
            label: r.label.clone(),
            values: vec![
                r.worker.clone(),
                format!("{:.3}", r.millis as f64 / 1000.0),
                format!("{:.1}", 100.0 * r.millis as f64 / total_ms.max(1) as f64),
            ],
        })
        .collect();
    let mut out = format_table(&["job", "worker", "seconds", "% of total"], &rows);
    out.push_str(&format!(
        "{} timed jobs, {:.1}s of wall-clock recorded\n",
        records.len(),
        total_ms as f64 / 1000.0
    ));
    // Nearest-rank percentiles over *all* timed jobs (not just the top rows):
    // the distribution summary that replaces eyeballing the slowest-N list.
    let mut millis: Vec<u64> = records.iter().map(|r| r.millis).collect();
    millis.sort_unstable();
    let at = |q: f64| {
        let rank = ((q * millis.len() as f64).ceil() as usize).clamp(1, millis.len());
        millis[rank - 1] as f64 / 1000.0
    };
    out.push_str(&format!(
        "job wall-clock percentiles: p50 {:.3}s, p99 {:.3}s, max {:.3}s\n",
        at(0.50),
        at(0.99),
        millis[millis.len() - 1] as f64 / 1000.0
    ));
    out
}

/// Summarises an assignment manifest against its store: how many fingerprints are
/// assigned to workers but not yet complete — "in flight / assigned
/// elsewhere", as opposed to *missing* (never assigned anywhere). This is
/// what lets a `--report` over a mid-campaign distributed store label
/// incomplete points honestly.
pub fn format_manifest_status(manifest: &AssignmentManifest, store: &ResultStore) -> String {
    let in_flight = manifest.in_flight(&|fp: &str| store.is_complete(fp));
    let done = manifest
        .records_in_order()
        .filter(|r| store.is_complete(&r.fp))
        .count();
    let mut out = format!(
        "manifest: {} assignment(s), {done} delivered, {} in flight\n",
        manifest.len(),
        in_flight.len()
    );
    const SHOWN: usize = 10;
    for record in in_flight.iter().take(SHOWN) {
        out.push_str(&format!(
            "  in flight: {} (assigned to `{}`)\n",
            record.fp, record.worker
        ));
    }
    if in_flight.len() > SHOWN {
        out.push_str(&format!("  ... and {} more\n", in_flight.len() - SHOWN));
    }
    out
}

/// Renders the engine counters of a store as per-campaign tables: one
/// column per point label (first-seen store order), one row per counter
/// slot, each cell the **exact-addition merge** of every successful record's
/// `counters` field — the same algebra the distributed fold uses, so a
/// folded store reports identical numbers to a local run. The
/// `--report --counters` view. Pre-observability records (no `counters`
/// field) contribute nothing; groups where no record carries counters are
/// skipped with a note.
pub fn format_counters_report(store: &ResultStore) -> String {
    let mut out = String::new();
    let groups = store.groups();
    if groups.is_empty() {
        out.push_str("store is empty\n");
        return out;
    }
    for (campaign, kind) in &groups {
        out.push_str(&format!(
            "=== counters: campaign `{campaign}` / kind `{kind}` ===\n"
        ));
        // Labels in first-seen order, each with its merge.
        let mut labels: Vec<String> = Vec::new();
        let mut merged: Vec<CounterRegistry> = Vec::new();
        let mut jobs_with_counters = 0usize;
        for p in store_points(store, campaign, kind) {
            let Some(registry) = p.counters() else {
                continue;
            };
            jobs_with_counters += p
                .ok_records()
                .filter_map(|r| result_field::<CounterRegistry>(r, "counters"))
                .count();
            match labels.iter().position(|l| l == &p.label) {
                Some(i) => merged[i].merge(&registry),
                None => {
                    labels.push(p.label);
                    merged.push(registry);
                }
            }
        }
        if labels.is_empty() {
            out.push_str("(no counters recorded — store predates the observability schema)\n\n");
            continue;
        }
        let mut header: Vec<&str> = vec!["counter"];
        header.extend(labels.iter().map(String::as_str));
        let rows: Vec<ReportRow> = Counter::ALL
            .iter()
            .map(|&counter| ReportRow {
                label: counter.name().to_string(),
                values: merged.iter().map(|r| r.get(counter).to_string()).collect(),
            })
            .collect();
        out.push_str(&format_table(&header, &rows));
        out.push_str(&format!(
            "counters merged from {jobs_with_counters} job(s)\n\n"
        ));
    }
    out
}

/// Renders a packet-trace sidecar as per-job lifecycle summaries: a per-hop
/// latency breakdown (delivered packets bucketed by hop count, with average
/// end-to-end latency and cycles/hop) and an escape-usage summary. The
/// `surepath trace <store>` view. When `store` is given, job fingerprints
/// resolve to human labels.
pub fn format_trace_report(records: &[TraceRecord], store: Option<&ResultStore>) -> String {
    if records.is_empty() {
        return "(no trace records)\n".to_string();
    }
    let mut out = String::new();
    // Jobs in first-seen sidecar order.
    let mut fps: Vec<&str> = Vec::new();
    for r in records {
        if !fps.contains(&r.fp.as_str()) {
            fps.push(&r.fp);
        }
    }
    for fp in fps {
        let job: Vec<&TraceRecord> = records.iter().filter(|r| r.fp == fp).collect();
        let label = store
            .and_then(|s| s.record(fp))
            .map(|r| format!("`{}`", r.job.label()))
            .unwrap_or_else(|| format!("fp {fp}"));
        out.push_str(&format!("=== trace: job {label} ===\n"));

        // Lifecycle accounting: inject cycle per packet, then stats at the
        // packet's deliver event.
        let mut injected: Vec<(u64, u64)> = Vec::new(); // (packet, inject cycle)
                                                        // Per hop-count buckets over delivered packets:
                                                        // (hops, packets, total latency, escape users, total escape hops).
        let mut buckets: Vec<(u64, u64, u64, u64, u64)> = Vec::new();
        let mut delivered = 0u64;
        let mut blocks = 0u64;
        for r in &job {
            match r.event.as_str() {
                "inject" => injected.push((r.packet, r.cycle)),
                "block" => blocks += 1,
                "deliver" => {
                    let Some(&(_, inject_cycle)) = injected.iter().find(|(p, _)| *p == r.packet)
                    else {
                        // Inject fell outside the trace buffer: skip the
                        // packet rather than invent a latency.
                        continue;
                    };
                    delivered += 1;
                    let latency = r.cycle.saturating_sub(inject_cycle);
                    let bucket = match buckets.iter_mut().find(|b| b.0 == r.hops) {
                        Some(b) => b,
                        None => {
                            buckets.push((r.hops, 0, 0, 0, 0));
                            buckets.last_mut().expect("just pushed")
                        }
                    };
                    bucket.1 += 1;
                    bucket.2 += latency;
                    if r.escape_hops > 0 {
                        bucket.3 += 1;
                        bucket.4 += r.escape_hops;
                    }
                }
                _ => {}
            }
        }
        out.push_str(&format!(
            "{} event(s): {} packet(s) injected, {} delivered with a traced \
             lifecycle, {} allocation block(s)\n",
            job.len(),
            injected.len(),
            delivered,
            blocks
        ));
        if delivered > 0 {
            buckets.sort_by_key(|b| b.0);
            let rows: Vec<ReportRow> = buckets
                .iter()
                .map(|&(hops, packets, latency, _, _)| ReportRow {
                    label: hops.to_string(),
                    values: vec![
                        packets.to_string(),
                        format!("{:.1}", latency as f64 / packets as f64),
                        format!(
                            "{:.1}",
                            latency as f64 / packets as f64 / hops.max(1) as f64
                        ),
                    ],
                })
                .collect();
            out.push_str(&format_table(
                &["hops", "packets", "avg latency", "avg cycles/hop"],
                &rows,
            ));
            let escape_users: u64 = buckets.iter().map(|b| b.3).sum();
            let escape_hops: u64 = buckets.iter().map(|b| b.4).sum();
            if escape_users > 0 {
                out.push_str(&format!(
                    "escape usage: {escape_users}/{delivered} delivered packet(s) took the \
                     escape tree ({:.1} escape hop(s) each on average)\n",
                    escape_hops as f64 / escape_users as f64
                ));
            } else {
                out.push_str(&format!(
                    "escape usage: 0/{delivered} delivered packet(s) took the escape tree\n"
                ));
            }
        }
        out.push('\n');
    }
    out
}

/// Renders everything a store contains as a human-readable report, grouped
/// by campaign and kind in the store's canonical order: rate campaigns as
/// the figure tables, batch campaigns as completion-time lines plus their
/// throughput series, custom kinds and failures as summaries. This is the
/// engine of `surepath campaign --report` — figures come straight from the
/// store, no simulation.
pub fn report_store(store: &ResultStore) -> String {
    let mut out = String::new();
    let groups = store.groups();
    if groups.is_empty() {
        out.push_str("store is empty\n");
        return out;
    }
    for (campaign, kind) in &groups {
        let points = store_points(store, campaign, kind);
        let records: Vec<&StoreRecord> = points.iter().flat_map(|p| &p.records).collect();
        let ok = records.iter().filter(|r| r.status == "ok").count();
        let failed = records.len() - ok;
        out.push_str(&format!(
            "=== campaign `{campaign}` / kind `{kind}`: {ok} ok, {failed} failed ===\n"
        ));
        match kind.as_str() {
            "rate" => out.push_str(&format_rate_table(points.iter().cloned())),
            "batch" => {
                out.push_str(&format_batch_table(&points));
                out.push('\n');
                out.push_str(&batch_samples_csv(&points));
            }
            _ => {
                out.push_str(&format!(
                    "(kind `{kind}` is rendered by its owning binary; {ok} result records in store)\n"
                ));
            }
        }
        for record in records.iter().filter(|r| r.status == "failed") {
            out.push_str(&format!(
                "failed: `{}`: {}\n",
                record.job.label(),
                record.error.as_deref().unwrap_or("unknown error")
            ));
        }
        out.push('\n');
    }
    out
}

/// A filesystem-safe artifact stem for a campaign/kind pair.
fn chart_stem(campaign: &str, kind: &str) -> String {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '-'
                }
            })
            .collect()
    };
    format!("{}_{}", sanitize(campaign), sanitize(kind))
}

/// One chart series: `(name, (x, y) points, stroke colour override)`. A
/// `Some` colour pins the series to the cold→hot percentile ramp; `None`
/// takes the palette by index.
type ChartSeries = (String, Vec<(f64, f64)>, Option<&'static str>);

/// The plottable line series of one (campaign, kind) group: the shared
/// data-extraction path behind `--plots` (SVG via [`report_charts`]) and
/// `--gnuplot` (scripts via [`report_gnuplot`]), so the two artifact
/// families can never drift apart.
struct ChartData {
    /// Artifact stem (campaign/kind, plus `_latency` for the percentile
    /// variant).
    stem: String,
    /// Chart title.
    title: String,
    /// X-axis label.
    x_label: &'static str,
    /// Y-axis label.
    y_label: &'static str,
    /// Clamp the y axis to `[0, 1]` (rate charts: loads are normalised).
    unit_y: bool,
    /// Series in deterministic first-seen order.
    series: Vec<ChartSeries>,
}

/// Stroke colours of the latency-percentile series, cold→hot, aligned with
/// [`crate::stats::LATENCY_PERCENTILES`]: the body is cool blue, the deep
/// tail is hot red (the lithos perf-suite convention).
const PERCENTILE_COLORS: [&str; 3] = ["#1f77b4", "#ff7f0e", "#d62728"];

/// Extracts the charts of every (campaign, kind) group of a store, skipping
/// groups with nothing plottable (custom kinds, empty campaigns). Rate
/// campaigns yield the classic accepted-versus-offered chart plus — whenever
/// the store carries histograms — a latency-percentile variant with one
/// cold→hot series triple per configuration; batch campaigns yield one
/// throughput-over-time series per run.
fn chart_datas(store: &ResultStore) -> Vec<ChartData> {
    let mut charts = Vec::new();
    for (campaign, kind) in store.groups() {
        let stem = chart_stem(&campaign, &kind);
        let points = store_points(store, &campaign, &kind);
        match kind.as_str() {
            "rate" => rate_charts(&campaign, stem, &points, &mut charts),
            "batch" => {
                let runs: Vec<(&StorePoint, u64, BatchMetrics)> = points
                    .iter()
                    .flat_map(|p| p.seeded_runs().into_iter().map(move |(s, m)| (p, s, m)))
                    .collect();
                let series: Vec<ChartSeries> = runs
                    .iter()
                    .filter(|(_, _, run)| !run.samples.is_empty())
                    .map(|(p, seed, run)| {
                        let sharing = runs.iter().filter(|(q, _, _)| q.label == p.label).count();
                        let samples = run
                            .samples
                            .iter()
                            .map(|s| (s.cycle as f64, s.accepted_load))
                            .collect();
                        (batch_label(p, sharing, Some(*seed)), samples, None)
                    })
                    .collect();
                if !series.is_empty() {
                    charts.push(ChartData {
                        stem,
                        title: format!("campaign `{campaign}` (throughput over time)"),
                        x_label: "cycle",
                        y_label: "accepted load",
                        unit_y: false,
                        series,
                    });
                }
            }
            // Custom kinds are rendered by their owning binaries.
            _ => {}
        }
    }
    charts
}

/// The charts of one rate campaign: accepted versus offered load (replica
/// means), and the latency-percentile variant when histograms exist.
fn rate_charts(campaign: &str, stem: String, points: &[StorePoint], charts: &mut Vec<ChartData>) {
    let points: Vec<(&StorePoint, f64)> = points
        .iter()
        .filter_map(|p| rate_runs(p).map(|(offered, _)| (p, offered)))
        .collect();
    let Some(&(first, _)) = points.first() else {
        return;
    };
    // One series per configuration: the point label, qualified with traffic
    // and scenario when the campaign has several combinations.
    let multi = points
        .iter()
        .any(|(p, _)| (&p.traffic, &p.scenario) != (&first.traffic, &first.scenario));
    let series_name = |p: &StorePoint| {
        if multi {
            format!("{} / {} / {}", p.label, p.traffic, p.scenario)
        } else {
            p.label.clone()
        }
    };
    let mut order: Vec<String> = Vec::new();
    for (p, _) in &points {
        let name = series_name(p);
        if !order.contains(&name) {
            order.push(name);
        }
    }
    let series_of = |name: &String, y: &dyn Fn(&StorePoint) -> Option<f64>| -> Vec<(f64, f64)> {
        points
            .iter()
            .filter(|(p, _)| &series_name(p) == name)
            .filter_map(|&(p, offered)| Some((offered, y(p)?)))
            .collect()
    };
    let accepted = |p: &StorePoint| Some(p.summary(|m: &RateMetrics| m.accepted_load).mean);
    charts.push(ChartData {
        stem: stem.clone(),
        title: format!("campaign `{campaign}`"),
        x_label: "offered load",
        y_label: "accepted load",
        unit_y: true,
        series: order
            .iter()
            .map(|name| (name.clone(), series_of(name, &accepted), None))
            .collect(),
    });
    // The percentile variant: per configuration, one series per tail level
    // from the runs' merged histogram. Only emitted when the store carries
    // histograms, so legacy stores keep producing exactly the artifacts they
    // always did.
    let mut series = Vec::new();
    for name in &order {
        for (level, color) in crate::stats::LATENCY_PERCENTILES
            .iter()
            .zip(PERCENTILE_COLORS)
        {
            let quantile =
                |p: &StorePoint| Some(p.latency_hist()?.value_at_quantile(level.q)? as f64);
            let pts = series_of(name, &quantile);
            if !pts.is_empty() {
                series.push((format!("{name} {}", level.label), pts, Some(color)));
            }
        }
    }
    if !series.is_empty() {
        charts.push(ChartData {
            stem: format!("{stem}_latency"),
            title: format!("campaign `{campaign}` (latency percentiles)"),
            x_label: "offered load",
            y_label: "latency (cycles)",
            unit_y: false,
            series,
        });
    }
}

/// Builds the `core::plot` SVG artifacts a store supports, one per
/// (campaign, kind) group, straight from the stored records — the plotting
/// face of [`report_store`] (ROADMAP "Richer reports"):
///
/// * `rate` campaigns become accepted-versus-offered line charts, one
///   series per labelled configuration with replica means;
/// * `batch` campaigns become throughput-over-time line charts, one series
///   per run.
///
/// Returns `(file stem, svg document)` pairs in store order; kinds with
/// nothing plottable are skipped. `--report --plots <dir>` writes each pair
/// to `<dir>/<stem>.svg`.
pub fn report_charts(store: &ResultStore) -> Vec<(String, String)> {
    use crate::plot::{LineChart, Series};
    chart_datas(store)
        .into_iter()
        .map(|data| {
            let mut chart = LineChart::new(data.title, data.x_label, data.y_label);
            if data.unit_y {
                chart = chart.with_y_range(0.0, 1.0);
            }
            for (name, points, color) in data.series {
                let mut series = Series::new(name, points);
                if let Some(color) = color {
                    series = series.with_color(color);
                }
                chart = chart.with_series(series);
            }
            (data.stem, chart.to_svg())
        })
        .collect()
}

/// One Gnuplot artifact pair of a store group: `<stem>.gp` (the script) and
/// `<stem>.dat` (whitespace-separated series blocks the script indexes).
#[derive(Clone, Debug, PartialEq)]
pub struct GnuplotArtifact {
    /// Filesystem-safe artifact stem (shared with the SVG of the group).
    pub stem: String,
    /// The `.gp` script; running `gnuplot <stem>.gp` in the artifact
    /// directory renders `<stem>.svg`.
    pub script: String,
    /// The `.dat` data file: one `index` block per series, two blank lines
    /// between blocks.
    pub data: String,
}

/// Builds Gnuplot scripts + data files for everything a store can plot,
/// from exactly the same extracted series as [`report_charts`] — the
/// `--report --plots <dir> --gnuplot` artifacts (ROADMAP "Richer reports":
/// Gnuplot script emission). Deterministic: byte-identical stores produce
/// byte-identical artifacts.
pub fn report_gnuplot(store: &ResultStore) -> Vec<GnuplotArtifact> {
    let mut artifacts = Vec::new();
    for chart in chart_datas(store) {
        let stem = chart.stem;
        // Gnuplot titles live inside double quotes; keep names printable.
        let quote = |s: &str| s.replace('"', "'");
        let mut data = String::new();
        for (i, (name, points, _)) in chart.series.iter().enumerate() {
            if i > 0 {
                data.push_str("\n\n");
            }
            data.push_str(&format!("# series {i}: {name}\n"));
            for (x, y) in points {
                data.push_str(&format!("{x:.6} {y:.6}\n"));
            }
        }
        let mut script = format!(
            "# Generated by `surepath campaign --report --plots <dir> --gnuplot`.\n\
                 # Render with: gnuplot {stem}.gp  (writes {stem}.svg)\n\
                 set title \"{}\"\n\
                 set xlabel \"{}\"\n\
                 set ylabel \"{}\"\n",
            quote(&chart.title),
            chart.x_label,
            chart.y_label
        );
        if chart.unit_y {
            script.push_str("set yrange [0:1]\n");
        }
        script.push_str("set key outside right\nset grid\nset terminal svg size 900,560 dynamic\n");
        script.push_str(&format!("set output \"{stem}.svg\"\n"));
        script.push_str("plot \\\n");
        for (i, (name, _, color)) in chart.series.iter().enumerate() {
            let style = match color {
                Some(c) => format!("lc rgb \"{c}\" "),
                None => String::new(),
            };
            script.push_str(&format!(
                "  \"{stem}.dat\" index {i} using 1:2 with linespoints {style}title \"{}\"{}\n",
                quote(name),
                if i + 1 < chart.series.len() {
                    ", \\"
                } else {
                    ""
                }
            ));
        }
        artifacts.push(GnuplotArtifact { stem, script, data });
    }
    artifacts
}

/// The CSV companion of [`report_store`]: rate points and batch samples of
/// every campaign in the store, concatenated with section headers. Every
/// row leads with its campaign name, so same-named configurations from
/// different campaigns sharing a store stay separable.
pub fn report_csv(store: &ResultStore) -> String {
    let groups = store.groups();
    let mut out = String::new();
    let rate_campaigns: Vec<&String> = groups
        .iter()
        .filter(|(_, kind)| kind == "rate")
        .map(|(campaign, _)| campaign)
        .collect();
    if !rate_campaigns.is_empty() {
        out.push_str(&format!("campaign,{RATE_CSV_HEADER}\n"));
        for campaign in rate_campaigns {
            for p in store_points(store, campaign, "rate") {
                for line in rate_csv_lines(&p).lines() {
                    out.push_str(&format!("{campaign},{line}\n"));
                }
            }
        }
    }
    let batch_points: Vec<StorePoint> = groups
        .iter()
        .filter(|(_, kind)| kind == "batch")
        .flat_map(|(campaign, kind)| store_points(store, campaign, kind))
        .collect();
    if batch_points
        .iter()
        .any(|p| !p.runs::<BatchMetrics>().is_empty())
    {
        out.push_str(&batch_samples_csv(&batch_points));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_point(mechanism: &str, load: f64, accepted: f64) -> SweepPoint {
        SweepPoint {
            mechanism: mechanism.to_string(),
            traffic: "Uniform".to_string(),
            scenario: "Healthy".to_string(),
            offered_load: load,
            metrics: RateMetrics {
                offered_load: load,
                accepted_load: accepted,
                generated_load: load,
                average_latency: 80.0,
                max_latency: Some(200),
                jain_generated: 0.999,
                escape_fraction: 0.02,
                average_hops: 2.0,
                delivered_packets: 1000,
                in_flight_at_end: 5,
                stalled: false,
                latency_hist: None,
            },
        }
    }

    #[test]
    fn table_is_aligned_and_contains_all_rows() {
        let rows = vec![
            ReportRow {
                label: "OmniSP".into(),
                values: vec!["0.5".into(), "0.48".into()],
            },
            ReportRow {
                label: "PolSP".into(),
                values: vec!["0.5".into(), "0.49".into()],
            },
        ];
        let s = format_table(&["mech", "offered", "accepted"], &rows);
        assert!(s.contains("OmniSP"));
        assert!(s.contains("PolSP"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn rate_table_formats_metrics() {
        let points = vec![
            dummy_point("OmniSP", 0.5, 0.47),
            dummy_point("PolSP", 0.5, 0.49),
        ];
        let s = format_rate_table(&points);
        assert!(s.contains("0.470"));
        assert!(s.contains("0.490"));
        assert!(s.contains("escape%"));
    }

    #[test]
    fn csv_has_header_plus_one_line_per_point() {
        let points = vec![
            dummy_point("Minimal", 0.2, 0.2),
            dummy_point("Valiant", 0.2, 0.2),
        ];
        let csv = rate_metrics_to_csv(&points);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().next().unwrap().starts_with("mechanism,traffic"));
        assert!(csv.contains("Minimal"));
        assert!(csv.contains("Valiant"));
    }

    use hyperx_sim::ThroughputSample;

    fn dummy_batch(completion: u64) -> BatchMetrics {
        BatchMetrics {
            completion_time: completion,
            delivered_packets: 1000,
            samples: vec![
                ThroughputSample {
                    cycle: 500,
                    accepted_load: 0.4,
                },
                ThroughputSample {
                    cycle: completion,
                    accepted_load: 0.1,
                },
            ],
            average_latency: 150.0,
            stalled: false,
            latency_hist: None,
        }
    }

    /// The points of a `fig10-test` batch store holding one RPN run per
    /// `(mechanism, scenario, seed, completion time)`.
    fn batch_points(name: &str, runs: &[(&str, &str, u64, u64)]) -> Vec<StorePoint> {
        let path = temp_store(name);
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        for &(mechanism, scenario, seed, completion) in runs {
            let job = JobSpec {
                campaign: "fig10-test".into(),
                kind: "batch".into(),
                sides: vec![4, 4, 4],
                mechanism: Some(mechanism.into()),
                traffic: Some("rpn".into()),
                scenario: Some(scenario.into()),
                packets_per_server: Some(60),
                seed,
                ..JobSpec::default()
            };
            store
                .append_ok(
                    &job,
                    serde_json::to_value(&dummy_batch(completion)).unwrap(),
                )
                .unwrap();
        }
        let points = store_points(&store, "fig10-test", "batch");
        let _ = std::fs::remove_file(&path);
        points
    }

    #[test]
    fn batch_table_and_samples_render_every_run() {
        let points = batch_points(
            "batch-table",
            &[
                ("omnisp", "star:2,2,2", 1, 2800),
                ("polsp", "star:2,2,2", 1, 1000),
            ],
        );
        let table = format_batch_table(&points);
        assert!(table.contains("OmniSP: completion time 2800 cycles"));
        assert!(table.contains("PolSP: completion time 1000 cycles"));
        let csv = batch_samples_csv(&points);
        assert_eq!(csv.lines().count(), 1 + 4, "header + 2 samples per run");
        assert!(
            csv.contains("fig10-test,OmniSP,Regular Permutation to Neighbour,Star,1,500,0.400000")
        );
    }

    #[test]
    fn ambiguous_batch_runs_are_qualified_by_scenario_and_seed() {
        // Two runs of the same mechanism (e.g. a multi-seed campaign) must
        // stay distinguishable in the table and the CSV.
        let points = batch_points(
            "batch-ambiguous",
            &[
                ("omnisp", "star:2,2,2", 1, 2800),
                ("omnisp", "none", 2, 900),
            ],
        );
        let table = format_batch_table(&points);
        assert!(
            table.contains("OmniSP [Regular Permutation to Neighbour / Star / seed 1]:"),
            "{table}"
        );
        assert!(
            table.contains("OmniSP [Regular Permutation to Neighbour / Healthy / seed 2]:"),
            "{table}"
        );
        let csv = batch_samples_csv(&points);
        assert!(csv.contains(",Star,1,"), "{csv}");
        assert!(csv.contains(",Healthy,2,"), "{csv}");
    }

    #[test]
    fn completion_ratio_is_graceful_when_a_mechanism_is_missing() {
        let points = batch_points(
            "batch-ratio",
            &[
                ("omnisp", "star:2,2,2", 1, 2800),
                ("polsp", "star:2,2,2", 1, 1000),
            ],
        );
        let ratio = completion_ratio(&points, "OmniSP", "PolSP").unwrap();
        assert!((ratio - 2.8).abs() < 1e-9);

        // Regression: a filtered or renamed lineup must not panic — the old
        // fig10 binary `.unwrap()`ed this exact lookup.
        assert_eq!(completion_ratio(&points[1..], "OmniSP", "PolSP"), None);
        assert_eq!(completion_ratio(&[], "OmniSP", "PolSP"), None);
    }

    fn temp_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("surepath-report-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn rate_job(mechanism: &str, load: f64, seed: u64) -> JobSpec {
        JobSpec {
            campaign: "replicated".into(),
            sides: vec![4, 4],
            mechanism: Some(mechanism.into()),
            traffic: Some("uniform".into()),
            scenario: Some("none".into()),
            load: Some(load),
            seed,
            ..JobSpec::default()
        }
    }

    fn rate_result(accepted: f64, latency: f64) -> serde::Value {
        serde_json::to_value(&RateMetrics {
            offered_load: 0.3,
            accepted_load: accepted,
            generated_load: 0.3,
            average_latency: latency,
            max_latency: Some(200),
            jain_generated: 0.99,
            escape_fraction: 0.02,
            average_hops: 2.0,
            delivered_packets: 1000,
            in_flight_at_end: 0,
            stalled: false,
            latency_hist: None,
        })
        .unwrap()
    }

    /// A rate result whose histogram holds 98 body samples near 100 cycles
    /// and 2 tail samples at `tail` — the mean fields stay fixed regardless,
    /// so shifting `tail` moves p99 while every mean metric stays flat.
    fn rate_result_with_tail(tail: u64) -> serde::Value {
        let mut hist = hyperx_sim::LatencyHistogram::new();
        for i in 0..98u64 {
            hist.record(100 + (i % 7));
        }
        hist.record(tail);
        hist.record(tail);
        serde_json::to_value(&RateMetrics {
            offered_load: 0.3,
            accepted_load: 0.7,
            generated_load: 0.3,
            average_latency: 80.0,
            max_latency: Some(tail),
            jain_generated: 0.99,
            escape_fraction: 0.02,
            average_hops: 2.0,
            delivered_packets: 100,
            in_flight_at_end: 0,
            stalled: false,
            latency_hist: Some(hist),
        })
        .unwrap()
    }

    #[test]
    fn diff_gates_on_injected_p99_regression_while_means_stay_flat() {
        let path_a = temp_store("diff-tail-a");
        let path_b = temp_store("diff-tail-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let mut a = ResultStore::open(&path_a).unwrap();
        let mut b = ResultStore::open(&path_b).unwrap();
        for seed in 1u64..=3 {
            a.append_ok(&rate_job("polsp", 0.3, seed), rate_result_with_tail(200))
                .unwrap();
            b.append_ok(&rate_job("polsp", 0.3, seed), rate_result_with_tail(1_600))
                .unwrap();
        }
        let diff = diff_stores(&a, &b);
        assert!(diff.has_regressions(), "tail shift must gate CI");
        let metrics = &diff.points[0].metrics;
        let by_name = |name: &str| metrics.iter().find(|m| m.metric == name).unwrap();
        // Every mean metric is identical between the stores...
        assert!(!by_name("accepted_load").significant);
        assert!(!by_name("average_latency").significant);
        assert!(!by_name("latency_p50").significant, "body unchanged");
        // ...only the tail percentiles flag the regression.
        assert!(by_name("latency_p99").regression);
        assert!(by_name("latency_p999").regression);
        // And the reversed diff reports it as an improvement, not a regression.
        let reversed = diff_stores(&b, &a);
        assert!(!reversed.has_regressions());
        assert!(reversed.improvements() > 0);
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn diff_warns_on_rng_contract_mismatch_without_comparing_or_failing() {
        let path_a = temp_store("diff-rng-a");
        let path_b = temp_store("diff-rng-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let mut a = ResultStore::open(&path_a).unwrap();
        let mut b = ResultStore::open(&path_b).unwrap();
        // Same experiment under different RNG contracts: baseline a legacy
        // (rng absent = v1) store, candidate an explicit v2 store — with
        // wildly different metrics that would scream "regression" if the
        // diff engine dared to compare them.
        for seed in 1u64..=3 {
            a.append_ok(&rate_job("polsp", 0.3, seed), rate_result(0.70, 80.0))
                .unwrap();
            let mut v2 = rate_job("polsp", 0.3, seed);
            v2.rng = Some("v2".into());
            b.append_ok(&v2, rate_result(0.30, 400.0)).unwrap();
        }
        // A genuinely unmatched baseline point must still count as
        // baseline-only, not get swallowed by the mismatch pairing.
        a.append_ok(&rate_job("polsp", 0.5, 1), rate_result(0.65, 90.0))
            .unwrap();
        let diff = diff_stores(&a, &b);
        assert!(diff.points.is_empty(), "mismatched contracts never compare");
        assert_eq!(diff.rng_mismatch.len(), 1, "{:?}", diff.rng_mismatch);
        assert!(
            diff.rng_mismatch[0].contains("baseline rng=v1, candidate rng=v2"),
            "{:?}",
            diff.rng_mismatch
        );
        assert_eq!(diff.baseline_only, 1);
        assert_eq!(diff.candidate_only, 0, "the paired point is accounted for");
        assert!(!diff.has_regressions(), "a warning is not a regression");
        let text = format_store_diff(&diff);
        assert!(text.contains("warning: RNG contract mismatch"), "{text}");
        assert!(text.contains("not compared"), "{text}");
        assert!(text.contains("result: no regressions"), "{text}");
        let csv = store_diff_csv(&diff);
        assert!(csv.contains("rng_mismatch"), "{csv}");
        assert!(!csv.contains("true,true"), "{csv}");
        // Same-contract stores stay byte-identical in behaviour: no warning.
        let clean = diff_stores(&a, &a);
        assert!(clean.rng_mismatch.is_empty());
        assert!(!format_store_diff(&clean).contains("RNG contract"));
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn rate_tables_gate_percentile_columns_on_histogram_presence() {
        // Histogram-free points (a legacy store) render the classic header.
        let legacy = vec![dummy_point("OmniSP", 0.5, 0.48)];
        let table = format_rate_table(&legacy);
        assert!(!table.contains("p99"), "{table}");
        // A histogram-bearing point gains p50/p99/p99.9/max columns.
        let mut rich = dummy_point("OmniSP", 0.5, 0.48);
        let mut hist = hyperx_sim::LatencyHistogram::new();
        for v in [10u64, 12, 14, 200] {
            hist.record(v);
        }
        rich.metrics.latency_hist = Some(hist);
        let table = format_rate_table(&[rich.clone()]);
        for column in ["p50", "p99", "p99.9", "max"] {
            assert!(table.contains(column), "missing {column}: {table}");
        }
        // A histogram-free row in a mixed table renders dashes.
        let table = format_rate_table(&[rich, dummy_point("PolSP", 0.5, 0.47)]);
        assert!(table.lines().last().unwrap().contains('-'), "{table}");
    }

    #[test]
    fn replica_groups_merge_histograms_before_quantiling() {
        let path = temp_store("replicated-hist");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        // Replica 1 holds the body, replica 2 the tail: the true merged p50
        // sits in the body, but an average of per-replica p50s would not.
        let result = |values: &[u64], max: u64| {
            let mut hist = hyperx_sim::LatencyHistogram::new();
            for &v in values {
                hist.record(v);
            }
            let mut v = rate_result(0.7, 80.0);
            let serde::Value::Object(entries) = &mut v else {
                unreachable!()
            };
            for (key, value) in entries.iter_mut() {
                if key == "latency_hist" {
                    *value = serde::Serialize::serialize(&hist);
                }
                if key == "max_latency" {
                    *value = serde_json::to_value(&max).unwrap();
                }
            }
            v
        };
        store
            .append_ok(&rate_job("polsp", 0.3, 1), result(&[10, 10, 10], 10))
            .unwrap();
        store
            .append_ok(&rate_job("polsp", 0.3, 2), result(&[1_000], 1_000))
            .unwrap();
        let points = store_points(&store, "replicated", "rate");
        assert_eq!(points.len(), 1);
        let merged = points[0].latency_hist().unwrap();
        assert_eq!(merged.count(), 4);
        // Merged p50 = 2nd of [10,10,10,1000] = 10; averaging per-replica
        // p50s would have given ~500-ish. Max is the max over replicas.
        assert_eq!(merged.value_at_quantile(0.5), Some(10));
        let table = format_rate_table(points);
        assert!(table.contains("p99"), "{table}");
        assert!(table.lines().last().unwrap().ends_with(" 1000"), "{table}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replicated_points_group_seeds_and_summarise() {
        let path = temp_store("replicated-points");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        // One point, three replicas; a second point with a single replica.
        for (seed, accepted) in [(1u64, 0.70), (2, 0.72), (3, 0.71)] {
            store
                .append_ok(&rate_job("polsp", 0.3, seed), rate_result(accepted, 80.0))
                .unwrap();
        }
        store
            .append_ok(&rate_job("omnisp", 0.3, 1), rate_result(0.69, 82.0))
            .unwrap();

        let points = store_points(&store, "replicated", "rate");
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].runs::<RateMetrics>().len(), 3);
        assert_eq!(points[0].mechanism, "PolSP");
        let accepted = points[0].summary(|m: &RateMetrics| m.accepted_load);
        assert!((accepted.mean - 0.71).abs() < 1e-12);
        assert!(accepted.half_width() > 0.0);
        assert_eq!(points[1].runs::<RateMetrics>().len(), 1);

        // Once any point has replicas the table renders mean ± half-width
        // per point, with an `n` column.
        let table = format_rate_table(points);
        assert!(table.contains("±"), "{table}");
        assert!(table.contains("0.710"), "{table}");
        let report = report_store(&store);
        assert!(report.contains("±"), "{report}");
        assert!(report.contains("n"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn gnuplot_artifacts_share_the_chart_extraction_and_are_deterministic() {
        let path = temp_store("gnuplot");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        for (mech, accepted) in [("polsp", 0.70), ("omnisp", 0.65)] {
            for load in [0.2, 0.4] {
                store
                    .append_ok(&rate_job(mech, load, 1), rate_result(accepted, 80.0))
                    .unwrap();
            }
        }
        let charts = report_charts(&store);
        let artifacts = report_gnuplot(&store);
        assert_eq!(artifacts.len(), 1);
        assert_eq!(
            charts
                .iter()
                .map(|(stem, _)| stem.clone())
                .collect::<Vec<_>>(),
            artifacts.iter().map(|a| a.stem.clone()).collect::<Vec<_>>(),
            "gnuplot artifacts mirror the SVG charts one to one"
        );
        let a = &artifacts[0];
        // Two series (PolSP, OmniSP) -> two indexed data blocks, and the
        // script plots both from the .dat file and targets the shared stem.
        assert_eq!(a.data.matches("# series").count(), 2, "{}", a.data);
        assert!(a.data.contains("0.200000 0.700000"), "{}", a.data);
        assert!(a.script.contains(&format!("\"{}.dat\" index 0", a.stem)));
        assert!(a.script.contains(&format!("\"{}.dat\" index 1", a.stem)));
        assert!(a.script.contains(&format!("set output \"{}.svg\"", a.stem)));
        assert!(a.script.contains("title \"PolSP\""), "{}", a.script);
        assert!(a.script.contains("set yrange [0:1]"), "rate charts clamp y");
        // Deterministic: a second extraction is byte-identical.
        assert_eq!(report_gnuplot(&store), artifacts);

        // A second topology splits the series (the label qualifies them by
        // sides) instead of folding into a self-overlapping line.
        let mut wide = rate_job("polsp", 0.2, 1);
        wide.sides = vec![8, 8];
        store.append_ok(&wide, rate_result(0.72, 85.0)).unwrap();
        let split = report_gnuplot(&store);
        assert_eq!(
            split[0].data.matches("# series").count(),
            3,
            "{}",
            split[0].data
        );
        assert!(split[0].data.contains("PolSP [4x4]"), "{}", split[0].data);
        assert!(split[0].data.contains("PolSP [8x8]"), "{}", split[0].data);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_of_a_store_against_itself_reports_no_regressions() {
        let path = temp_store("self-diff");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        for (seed, accepted) in [(1u64, 0.70), (2, 0.72), (3, 0.71)] {
            store
                .append_ok(&rate_job("polsp", 0.3, seed), rate_result(accepted, 80.0))
                .unwrap();
        }
        let diff = diff_stores(&store, &store);
        assert_eq!(diff.points.len(), 1);
        assert_eq!(diff.significant(), 0);
        assert!(!diff.has_regressions());
        let text = format_store_diff(&diff);
        assert!(
            text.contains("no significant per-metric differences"),
            "{text}"
        );
        assert!(text.contains("result: no regressions"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_flags_a_degraded_candidate_as_regression_and_a_gain_as_improvement() {
        let path_a = temp_store("diff-base");
        let path_b = temp_store("diff-cand");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let mut a = ResultStore::open(&path_a).unwrap();
        let mut b = ResultStore::open(&path_b).unwrap();
        for (seed, accepted) in [(1u64, 0.700), (2, 0.702), (3, 0.701)] {
            a.append_ok(&rate_job("polsp", 0.3, seed), rate_result(accepted, 80.0))
                .unwrap();
            // The candidate lost throughput but improved latency.
            b.append_ok(
                &rate_job("polsp", 0.3, seed),
                rate_result(accepted - 0.1, 60.0),
            )
            .unwrap();
        }
        let diff = diff_stores(&a, &b);
        assert_eq!(diff.regressions(), 1, "accepted_load regressed");
        assert_eq!(diff.improvements(), 1, "average_latency improved");
        assert!(diff.has_regressions());
        let text = format_store_diff(&diff);
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("improvement"), "{text}");
        assert!(text.contains("accepted_load"), "{text}");
        assert!(text.contains("result: 1 regression(s)"), "{text}");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn diff_with_single_replicas_never_reports_significance() {
        // n = 1 per side: the CI is infinite, so even a large delta must not
        // be called significant (the stats satellite's CLI-facing face).
        let path_a = temp_store("diff-single-a");
        let path_b = temp_store("diff-single-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let mut a = ResultStore::open(&path_a).unwrap();
        let mut b = ResultStore::open(&path_b).unwrap();
        a.append_ok(&rate_job("polsp", 0.3, 1), rate_result(0.9, 80.0))
            .unwrap();
        b.append_ok(&rate_job("polsp", 0.3, 1), rate_result(0.1, 300.0))
            .unwrap();
        let diff = diff_stores(&a, &b);
        assert_eq!(diff.points.len(), 1);
        assert_eq!(diff.significant(), 0);
        assert!(!diff.has_regressions());
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn diff_counts_unaligned_and_uncompared_points() {
        let path_a = temp_store("diff-align-a");
        let path_b = temp_store("diff-align-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let mut a = ResultStore::open(&path_a).unwrap();
        let mut b = ResultStore::open(&path_b).unwrap();
        // Shared point, a baseline-only point, a candidate-only point and a
        // custom-kind point the engine cannot compare.
        a.append_ok(&rate_job("polsp", 0.3, 1), rate_result(0.7, 80.0))
            .unwrap();
        b.append_ok(&rate_job("polsp", 0.3, 2), rate_result(0.7, 80.0))
            .unwrap();
        a.append_ok(&rate_job("polsp", 0.4, 1), rate_result(0.8, 90.0))
            .unwrap();
        b.append_ok(&rate_job("omnisp", 0.3, 1), rate_result(0.7, 85.0))
            .unwrap();
        let custom = JobSpec {
            kind: "diameter".into(),
            ..rate_job("polsp", 0.5, 1)
        };
        a.append_ok(&custom, serde_json::to_value(&3u64).unwrap())
            .unwrap();
        b.append_ok(&custom, serde_json::to_value(&3u64).unwrap())
            .unwrap();
        let diff = diff_stores(&a, &b);
        assert_eq!(diff.points.len(), 1, "only the shared rate point compares");
        assert_eq!(diff.baseline_only, 1);
        assert_eq!(diff.candidate_only, 1);
        assert_eq!(diff.uncompared, 1);
        let text = format_store_diff(&diff);
        assert!(
            text.contains("compared 1 points (1 baseline-only, 1 candidate-only, 1 uncompared"),
            "{text}"
        );
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn diff_treats_an_all_failed_candidate_point_as_a_regression() {
        // A candidate whose jobs crash must not slip past the exit-code
        // gate: failed-only points count as regressions, while points the
        // candidate never attempted stay baseline-only (grid mismatch).
        let path_a = temp_store("diff-failed-a");
        let path_b = temp_store("diff-failed-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let mut a = ResultStore::open(&path_a).unwrap();
        let mut b = ResultStore::open(&path_b).unwrap();
        for seed in 1u64..=3 {
            a.append_ok(&rate_job("polsp", 0.3, seed), rate_result(0.7, 80.0))
                .unwrap();
            b.append_failed(
                &rate_job("polsp", 0.3, seed),
                "routing change panicked".into(),
            )
            .unwrap();
        }
        // A point only the baseline has (candidate never attempted it).
        a.append_ok(&rate_job("polsp", 0.4, 1), rate_result(0.8, 90.0))
            .unwrap();
        let diff = diff_stores(&a, &b);
        assert_eq!(diff.candidate_failed.len(), 1);
        assert_eq!(diff.baseline_only, 1, "unattempted points are tolerated");
        assert!(diff.has_regressions(), "all-failed point fails the gate");
        let text = format_store_diff(&diff);
        assert!(text.contains("all FAILED"), "{text}");
        assert!(text.contains("result: 1 regression(s)"), "{text}");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn replicated_batch_points_stay_nan_free_with_stalled_rows() {
        let path = temp_store("replicated-batch");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        let batch_job = |seed: u64| JobSpec {
            campaign: "batch-rep".into(),
            kind: "batch".into(),
            packets_per_server: Some(10),
            load: None,
            ..rate_job("omnisp", 0.3, seed)
        };
        let ok = dummy_batch(1000);
        let mut stalled = dummy_batch(5000);
        stalled.stalled = true;
        stalled.average_latency = f64::NAN; // no packet ever completed
        store
            .append_ok(&batch_job(1), serde_json::to_value(&ok).unwrap())
            .unwrap();
        store
            .append_ok(&batch_job(2), serde_json::to_value(&stalled).unwrap())
            .unwrap();

        let points = store_points(&store, "batch-rep", "batch");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].runs::<BatchMetrics>().len(), 2);
        let latency = points[0].summary(|m: &BatchMetrics| m.average_latency);
        assert_eq!(latency.n, 1, "NaN latency dropped");
        assert!(latency.mean.is_finite());
        let completion = points[0].summary(|m: &BatchMetrics| m.completion_time as f64);
        assert!(completion.mean.is_finite());
        let table = format_batch_table(&points);
        assert!(table.contains("(n=2, 1 STALLED)"), "{table}");
        assert!(!table.contains("NaN"), "{table}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_campaign_filter_ignores_other_campaigns_entirely() {
        let path_a = temp_store("diff-filter-a");
        let path_b = temp_store("diff-filter-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let mut a = ResultStore::open(&path_a).unwrap();
        let mut b = ResultStore::open(&path_b).unwrap();
        let other = |seed: u64| JobSpec {
            campaign: "other".into(),
            ..rate_job("polsp", 0.3, seed)
        };
        for seed in 1u64..=3 {
            a.append_ok(&rate_job("polsp", 0.3, seed), rate_result(0.7, 80.0))
                .unwrap();
            b.append_ok(&rate_job("polsp", 0.3, seed), rate_result(0.7, 80.0))
                .unwrap();
            // The `other` campaign regressed badly — it must not leak into a
            // `replicated`-filtered diff, in the table or the counters.
            a.append_ok(&other(seed), rate_result(0.9, 50.0)).unwrap();
            b.append_ok(&other(seed), rate_result(0.1, 500.0)).unwrap();
        }
        let unfiltered = diff_stores(&a, &b);
        assert!(unfiltered.has_regressions());
        let filtered = diff_stores_filtered(&a, &b, Some("replicated"));
        assert_eq!(filtered.points.len(), 1);
        assert_eq!(filtered.candidate_only, 0);
        assert!(!filtered.has_regressions());
        let missing = diff_stores_filtered(&a, &b, Some("no-such-campaign"));
        assert_eq!(missing.points.len(), 0);
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn diff_csv_lists_every_metric_with_flags() {
        let path_a = temp_store("diff-csv-a");
        let path_b = temp_store("diff-csv-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let mut a = ResultStore::open(&path_a).unwrap();
        let mut b = ResultStore::open(&path_b).unwrap();
        for (seed, accepted) in [(1u64, 0.700), (2, 0.702), (3, 0.701)] {
            a.append_ok(&rate_job("polsp", 0.3, seed), rate_result(accepted, 80.0))
                .unwrap();
            b.append_ok(
                &rate_job("polsp", 0.3, seed),
                rate_result(accepted - 0.1, 80.0),
            )
            .unwrap();
        }
        let csv = store_diff_csv(&diff_stores(&a, &b));
        // Header + 7 rate metrics (4 scalar + 3 derived percentiles) for the
        // single compared point.
        assert_eq!(csv.lines().count(), 8, "{csv}");
        assert!(csv.starts_with("point,campaign,kind,metric,"), "{csv}");
        assert!(csv.contains("accepted_load"), "{csv}");
        assert!(csv.contains("jain_generated"), "{csv}");
        assert!(csv.contains("latency_p99"), "{csv}");
        // The regressed metric is flagged; an identical one is not.
        let accepted_row = csv.lines().find(|l| l.contains("accepted_load")).unwrap();
        assert!(accepted_row.ends_with("true,true"), "{accepted_row}");
        let jain_row = csv.lines().find(|l| l.contains("jain_generated")).unwrap();
        assert!(jain_row.ends_with("false,false"), "{jain_row}");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn timings_table_ranks_slowest_jobs_deterministically() {
        let record = |fp: &str, millis: u64, worker: &str| TimingRecord {
            fp: fp.into(),
            label: format!("job-{fp}"),
            millis,
            worker: worker.into(),
        };
        let records = vec![
            record("aa", 100, "local"),
            record("bb", 900, "worker-1"),
            record("cc", 500, "worker-2"),
            record("dd", 500, "worker-1"),
        ];
        let table = format_timings_table(&records, 3);
        let lines: Vec<&str> = table.lines().collect();
        // Header, rule, 3 rows, summary, percentile line.
        assert_eq!(lines.len(), 7, "{table}");
        assert!(lines[2].starts_with("job-bb"), "{table}");
        // The 500ms tie breaks by fingerprint: cc before dd.
        assert!(lines[3].starts_with("job-cc"), "{table}");
        assert!(lines[4].starts_with("job-dd"), "{table}");
        assert!(lines[5].contains("4 timed jobs"), "{table}");
        // Nearest-rank over all 4 jobs (100/500/500/900): p50 is the 2nd
        // slowest-sorted value, p99 and max the slowest.
        assert_eq!(
            lines[6], "job wall-clock percentiles: p50 0.500s, p99 0.900s, max 0.900s",
            "{table}"
        );
        assert!(table.contains("45.0"), "900/2000 ms = 45%: {table}");
        assert_eq!(
            format_timings_table(&[], 5),
            "(no timing records)\n".to_string()
        );
    }

    #[test]
    fn manifest_status_reports_in_flight_against_the_store() {
        let dir = std::env::temp_dir().join("surepath-report-manifest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let store_path = dir.join(format!("status-{pid}.jsonl"));
        let manifest_path = dir.join(format!("status-{pid}.manifest.jsonl"));
        let _ = std::fs::remove_file(&store_path);
        let _ = std::fs::remove_file(&manifest_path);
        let mut store = ResultStore::open(&store_path).unwrap();
        let done_job = rate_job("polsp", 0.3, 1);
        store.append_ok(&done_job, rate_result(0.7, 80.0)).unwrap();
        let mut manifest = AssignmentManifest::open(&manifest_path).unwrap();
        let done_fp = surepath_runner::job_fingerprint(&done_job);
        manifest.record_assigned(&done_fp, "w1").unwrap();
        manifest.record_done(&done_fp, "w1").unwrap();
        manifest.record_assigned("feedbeef00000000", "w2").unwrap();
        let status = format_manifest_status(&manifest, &store);
        assert!(
            status.contains("2 assignment(s), 1 delivered, 1 in flight"),
            "{status}"
        );
        assert!(
            status.contains("feedbeef00000000 (assigned to `w2`)"),
            "{status}"
        );
        let _ = std::fs::remove_file(&store_path);
        let _ = std::fs::remove_file(&manifest_path);
    }

    #[test]
    fn report_charts_render_rate_and_batch_campaigns_as_svg() {
        let path = temp_store("charts");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        // A two-mechanism rate sweep over two loads, with replicas.
        for mechanism in ["polsp", "omnisp"] {
            for load in [0.3, 0.6] {
                for seed in 1u64..=2 {
                    let mut job = rate_job(mechanism, load, seed);
                    job.campaign = "fig-rate".into();
                    store
                        .append_ok(&job, rate_result(load * 0.9 + seed as f64 * 0.001, 80.0))
                        .unwrap();
                }
            }
        }
        // A batch campaign with sampled throughput.
        let batch_job = JobSpec {
            campaign: "fig10".into(),
            kind: "batch".into(),
            sides: vec![4, 4],
            mechanism: Some("omnisp".into()),
            packets_per_server: Some(60),
            ..JobSpec::default()
        };
        store
            .append_ok(
                &batch_job,
                serde_json::to_value(&dummy_batch(1500)).unwrap(),
            )
            .unwrap();

        let charts = report_charts(&store);
        assert_eq!(charts.len(), 2, "one artifact per campaign/kind");
        let (rate_stem, rate_svg) = &charts[0];
        assert_eq!(rate_stem, "fig-rate_rate");
        assert!(rate_svg.starts_with("<svg"));
        assert_eq!(rate_svg.matches("<polyline").count(), 2, "two mechanisms");
        assert!(rate_svg.contains("PolSP"), "{rate_stem}");
        let (batch_stem, batch_svg) = &charts[1];
        assert_eq!(batch_stem, "fig10_batch");
        assert!(batch_svg.contains("throughput over time"));
        assert!(batch_svg.contains("<polyline"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_reconstructs_figures_from_a_store_without_simulating() {
        let path = temp_store("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();

        let rate_job = JobSpec {
            campaign: "fig-rate".into(),
            sides: vec![4, 4],
            mechanism: Some("polsp".into()),
            traffic: Some("uniform".into()),
            scenario: Some("none".into()),
            load: Some(0.3),
            ..JobSpec::default()
        };
        let rate_metrics = RateMetrics {
            offered_load: 0.3,
            accepted_load: 0.29,
            generated_load: 0.3,
            average_latency: 88.0,
            max_latency: Some(301),
            jain_generated: 0.999,
            escape_fraction: 0.01,
            average_hops: 1.9,
            delivered_packets: 4242,
            in_flight_at_end: 3,
            stalled: false,
            latency_hist: None,
        };
        store
            .append_ok(&rate_job, serde_json::to_value(&rate_metrics).unwrap())
            .unwrap();

        let batch_job = JobSpec {
            campaign: "fig10".into(),
            kind: "batch".into(),
            sides: vec![4, 4, 4],
            mechanism: Some("omnisp".into()),
            traffic: Some("rpn".into()),
            scenario: Some("star:2,2,2".into()),
            packets_per_server: Some(60),
            sample_window: Some(500),
            ..JobSpec::default()
        };
        store
            .append_ok(
                &batch_job,
                serde_json::to_value(&dummy_batch(1234)).unwrap(),
            )
            .unwrap();

        let failed_job = JobSpec {
            campaign: "fig-rate".into(),
            seed: 9,
            ..rate_job.clone()
        };
        store
            .append_failed(&failed_job, "simulated crash".into())
            .unwrap();

        // Points come back with paper display names and the stored numbers;
        // the failed seed joins its point's records but yields no run.
        let points = store_points(&store, "fig-rate", "rate");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].records.len(), 2);
        assert_eq!(points[0].mechanism, "PolSP");
        assert_eq!(points[0].traffic, "Uniform");
        assert_eq!(points[0].scenario, "Healthy");
        let runs: Vec<RateMetrics> = points[0].runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].delivered_packets, 4242);

        let points = store_points(&store, "fig10", "batch");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].mechanism, "OmniSP");
        assert_eq!(points[0].scenario, "Star");
        let runs: Vec<BatchMetrics> = points[0].runs();
        assert_eq!(runs[0].completion_time, 1234);

        // The full report covers both campaigns and surfaces the failure.
        let report = report_store(&store);
        assert!(
            report.contains("campaign `fig-rate` / kind `rate`"),
            "{report}"
        );
        assert!(
            report.contains("campaign `fig10` / kind `batch`"),
            "{report}"
        );
        assert!(report.contains("OmniSP: completion time 1234 cycles"));
        assert!(report.contains("simulated crash"));

        let csv = report_csv(&store);
        assert!(csv.contains("campaign,mechanism,traffic,scenario"));
        assert!(csv.contains("campaign,mechanism,traffic,scenario,seed,cycle,accepted_load"));
        assert!(csv.contains("fig-rate,PolSP,Uniform,Healthy,"), "{csv}");
        assert!(csv.contains("fig10,OmniSP,"), "{csv}");
        let _ = std::fs::remove_file(&path);
    }

    /// A rate result carrying a `counters` sibling key, as `run_job` writes.
    fn rate_result_with_counters(requests: u64, grants: u64) -> serde::Value {
        let mut registry = CounterRegistry::new();
        registry.add(Counter::AllocRequests, requests);
        registry.add(Counter::AllocGrants, grants);
        let mut value = rate_result(0.5, 90.0);
        if let serde::Value::Object(fields) = &mut value {
            fields.push((
                "counters".to_string(),
                serde_json::to_value(&registry).unwrap(),
            ));
        }
        value
    }

    #[test]
    fn counters_report_merges_by_exact_addition_per_mechanism() {
        let path = temp_store("counters-report");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        store
            .append_ok(
                &rate_job("polsp", 0.3, 1),
                rate_result_with_counters(100, 90),
            )
            .unwrap();
        store
            .append_ok(
                &rate_job("polsp", 0.3, 2),
                rate_result_with_counters(50, 40),
            )
            .unwrap();
        store
            .append_ok(&rate_job("omnisp", 0.3, 1), rate_result_with_counters(7, 5))
            .unwrap();
        // A pre-observability record merges as nothing, not as an error.
        store
            .append_ok(&rate_job("minimal", 0.3, 1), rate_result(0.4, 100.0))
            .unwrap();
        let report = format_counters_report(&store);
        assert!(
            report.contains("campaign `replicated` / kind `rate`"),
            "{report}"
        );
        // PolSP column: 100 + 50 requests, 90 + 40 grants.
        let requests_row = report
            .lines()
            .find(|l| l.starts_with("alloc_requests"))
            .unwrap();
        assert!(requests_row.contains("150"), "{requests_row}");
        assert!(requests_row.contains('7'), "{requests_row}");
        let grants_row = report
            .lines()
            .find(|l| l.starts_with("alloc_grants"))
            .unwrap();
        assert!(grants_row.contains("130"), "{grants_row}");
        assert!(report.contains("merged from 3 job(s)"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn points_that_differ_only_in_hidden_dimensions_get_distinct_labels() {
        // Sides, vcs and root have no column of their own: the label must
        // tell the eight configurations apart in every renderer, even when
        // their results are identical.
        let path = temp_store("hidden-dimensions");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        for sides in [vec![4, 4], vec![8, 8]] {
            for vcs in [2, 4] {
                for root in ["suggested", "max-degree"] {
                    for load in [0.3, 0.6] {
                        let job = JobSpec {
                            sides: sides.clone(),
                            vcs: Some(vcs),
                            root: Some(root.into()),
                            ..rate_job("polsp", load, 1)
                        };
                        store
                            .append_ok(&job, rate_result_with_counters(100, 90))
                            .unwrap();
                    }
                }
            }
        }
        let report = report_store(&store);
        let rows: std::collections::HashSet<&str> = report.lines().skip(3).take(16).collect();
        assert_eq!(rows.len(), 16, "every table row is distinct:\n{report}");
        assert!(
            report.contains("PolSP [8x8 / vcs=4 / root=max-degree]"),
            "{report}"
        );
        let csv = report_csv(&store);
        let keys: std::collections::HashSet<(&str, &str)> = csv
            .lines()
            .skip(1)
            .map(|line| {
                let fields: Vec<&str> = line.split(',').collect();
                (fields[1], fields[4])
            })
            .collect();
        assert_eq!(keys.len(), 16, "one (mechanism, load) per CSV row:\n{csv}");
        let charts = report_charts(&store);
        assert_eq!(
            charts[0].1.matches("<polyline").count(),
            8,
            "one series per configuration"
        );
        let counters = format_counters_report(&store);
        let header = counters.lines().nth(1).unwrap();
        assert_eq!(header.matches("PolSP [").count(), 8, "{counters}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn counters_report_notes_pre_observability_stores() {
        let path = temp_store("counters-report-legacy");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        store
            .append_ok(&rate_job("polsp", 0.3, 1), rate_result(0.4, 100.0))
            .unwrap();
        let report = format_counters_report(&store);
        assert!(report.contains("no counters recorded"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    fn trace_record(fp: &str, packet: u64, cycle: u64, event: &str, hops: u64) -> TraceRecord {
        TraceRecord {
            fp: fp.into(),
            packet,
            cycle,
            event: event.into(),
            switch: 0,
            hops,
            escape_hops: if event == "deliver" && packet == 1 {
                2
            } else {
                0
            },
        }
    }

    #[test]
    fn trace_report_breaks_latency_down_by_hop_count() {
        let records = vec![
            trace_record("aaaa", 0, 10, "inject", 0),
            trace_record("aaaa", 1, 12, "inject", 0),
            trace_record("aaaa", 0, 20, "grant", 0),
            trace_record("aaaa", 0, 25, "block", 1),
            trace_record("aaaa", 0, 110, "deliver", 2),
            trace_record("aaaa", 1, 212, "deliver", 4),
            // A deliver whose inject fell outside the buffer: skipped.
            trace_record("aaaa", 99, 300, "deliver", 3),
            trace_record("bbbb", 5, 7, "inject", 0),
        ];
        let report = format_trace_report(&records, None);
        assert!(report.contains("=== trace: job fp aaaa ==="), "{report}");
        assert!(report.contains("=== trace: job fp bbbb ==="), "{report}");
        assert!(
            report.contains("2 packet(s) injected, 2 delivered"),
            "{report}"
        );
        assert!(report.contains("1 allocation block(s)"), "{report}");
        // Packet 0: latency 100 over 2 hops; packet 1: latency 200 over 4.
        let hop2 = report.lines().find(|l| l.starts_with("2  ")).unwrap();
        assert!(hop2.contains("100.0") && hop2.contains("50.0"), "{hop2}");
        let hop4 = report.lines().find(|l| l.starts_with("4  ")).unwrap();
        assert!(hop4.contains("200.0") && hop4.contains("50.0"), "{hop4}");
        assert!(
            report.contains("escape usage: 1/2 delivered packet(s)"),
            "{report}"
        );
        assert!(report.contains("2.0 escape hop(s)"), "{report}");
        assert_eq!(format_trace_report(&[], None), "(no trace records)\n");
    }

    #[test]
    fn trace_report_labels_jobs_through_the_store() {
        let path = temp_store("trace-report-labels");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        let job = rate_job("polsp", 0.3, 1);
        store.append_ok(&job, rate_result(0.5, 90.0)).unwrap();
        let fp = surepath_runner::job_fingerprint(&job);
        let records = vec![
            trace_record(&fp, 0, 10, "inject", 0),
            trace_record(&fp, 0, 110, "deliver", 2),
        ];
        let report = format_trace_report(&records, Some(&store));
        assert!(report.contains(&format!("`{}`", job.label())), "{report}");
        assert!(!report.contains(&format!("fp {fp}")), "{report}");
        let _ = std::fs::remove_file(&path);
    }
}
