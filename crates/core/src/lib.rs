//! # surepath-core
//!
//! The high-level API of the SurePath reproduction: describe an experiment
//! (topology, routing mechanism, traffic pattern, fault scenario, simulation
//! parameters), run it, and collect the paper's metrics.
//!
//! ```no_run
//! use surepath_core::{Experiment, TrafficSpec};
//! use hyperx_routing::MechanismSpec;
//!
//! // One point of Figure 5: PolSP on the 8×8×8 HyperX under uniform traffic.
//! let experiment = Experiment::paper_3d(MechanismSpec::PolSP, TrafficSpec::Uniform);
//! let metrics = experiment.run_rate(0.6);
//! println!("accepted load = {:.3}", metrics.accepted_load);
//! ```
//!
//! The crate re-exports the pieces an application typically needs from the
//! lower layers (`hyperx-topology`, `hyperx-routing`, `hyperx-sim`) so that a
//! single dependency suffices for most users.

pub mod ablation;
pub mod campaign;
pub mod experiment;
pub mod plot;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod sweep;
pub mod tables;

pub use ablation::{
    ablation_points_from_store, ablation_to_csv, format_ablation_table, vc_count_study,
    AblationPoint,
};
pub use campaign::{
    job_experiment, run_campaign, run_campaign_traced, run_job, run_job_traced,
    run_job_traced_tuned, run_job_tuned, validate_campaign, RunTuning, ViewCache,
    DEFAULT_SAMPLE_WINDOW,
};
pub use experiment::{Experiment, RootPlacement, TrafficSpec};
pub use plot::{throughput_chart, BarChart, BarGroup, LineChart, Series};
pub use report::{
    batch_samples_csv, completion_ratio, csv_half_width, diff_stores, diff_stores_filtered,
    format_batch_table, format_counters_report, format_manifest_status, format_mean_hw,
    format_rate_table, format_store_diff, format_table, format_timings_table, format_trace_report,
    rate_metrics_to_csv, report_charts, report_csv, report_gnuplot, report_store, store_diff_csv,
    store_points, GnuplotArtifact, MetricDiff, PointDiff, ReportRow, StoreDiff, StorePoint,
};
pub use scenario::FaultScenario;
pub use stats::{
    compare_tail_percentiles, percentile_level, replicate, PercentileLevel, ReplicatedPoint,
    Summary, LATENCY_PERCENTILES,
};
pub use sweep::{paper_load_grid, quick_load_grid, sweep_loads, sweep_mechanisms, SweepPoint};
pub use tables::{
    format_mechanism_table, mechanism_table, topology_table, topology_table_from_reports,
    MechanismRow,
};

// Re-exports for downstream convenience.
pub use hyperx_routing::{EscapePolicy, MechanismSpec, NetworkView, RoutingMechanism};
pub use hyperx_sim::{BatchMetrics, LatencyHistogram, RateMetrics, SimConfig};
pub use hyperx_topology::{FaultSet, FaultShape, HyperX, RootPolicy, TopologyReport};
pub use surepath_runner::{
    AssignmentManifest, CampaignOutcome, CampaignSpec, JobSpec, ResultStore, TimingRecord,
    TopologySpec,
};
