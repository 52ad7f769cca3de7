//! # surepath-runner
//!
//! The campaign subsystem of the SurePath reproduction: describe a whole
//! grid of experiments *declaratively*, execute it on a bounded
//! work-stealing thread pool, and stream results to a resumable JSONL store.
//!
//! The crate is deliberately **domain-agnostic**: it knows nothing about
//! topologies or simulators. A campaign is a cross-product of string/number
//! dimensions ([`CampaignSpec`] → flat [`JobSpec`] list), and the caller
//! supplies the closure that turns one job into one JSON result
//! (`surepath-core` provides that bridge for simulation jobs). This keeps
//! the dependency arrow pointing upward — `surepath-core` builds *on top of*
//! the runner, so its own sweep helpers run on the same pool.
//!
//! The moving parts:
//!
//! * [`spec`] — [`CampaignSpec`], deserializable from TOML or JSON, expanded
//!   into a deterministic flat job list.
//! * [`executor`] — a fixed-size work-stealing thread pool (per-worker
//!   deques + stealing, not thread-per-job) with panic isolation.
//! * [`store`] — the append-only JSONL result store; every job is
//!   fingerprinted and already-completed jobs are skipped on restart.
//! * [`campaign`] — the driver tying the three together, with progress
//!   reporting, an optional global deadline and the timings sidecar.
//! * [`queue`] — shard queues + leases: the scheduling core the distributed
//!   driver (`surepath-dist`) builds on (static fingerprint-prefix
//!   partitioning, work stealing across shards, lease expiry).
//! * [`manifest`] — the `<store>.manifest.jsonl` shard-assignment sidecar:
//!   distinguishes "missing" from "assigned elsewhere / in-flight".
//! * [`timings`] — the `<store>.timings.jsonl` per-job wall-clock sidecar
//!   (host observations never enter the deterministic store).
//! * [`trace`] — the `<store>.trace.jsonl` packet-lifecycle sidecar (same
//!   rule: observations ride next to the store, never inside it).
//! * [`obs`] — leveled stderr event logging (`SUREPATH_LOG` filter, human or
//!   JSONL format) behind the `log_error!`…`log_debug!` macros.
//! * [`toml`] — a minimal TOML parser (the build environment has no crates.io
//!   access, so the subset campaign specs need is implemented here).
//!
//! ```no_run
//! use surepath_runner::{campaign, spec};
//! let spec = spec::load_spec_file(std::path::Path::new("campaign.toml")).unwrap();
//! let outcome = campaign::run_campaign(
//!     &spec,
//!     std::path::Path::new("results.jsonl"),
//!     None,  // threads: default = available parallelism
//!     false, // quiet
//!     |job| Ok(serde_json::to_value(&job.seed).unwrap()),
//! )
//! .unwrap();
//! println!("{} executed, {} skipped", outcome.executed, outcome.skipped);
//! ```

pub mod campaign;
pub mod executor;
pub mod fingerprint;
pub mod manifest;
pub mod obs;
pub mod progress;
pub mod queue;
pub mod spec;
pub mod store;
pub mod timings;
pub mod toml;
pub mod trace;

pub use campaign::{
    deadline_from_env, run_campaign, run_campaign_with, CampaignOutcome, RunOptions,
};
pub use executor::{
    default_threads, parallel_map, run_work_stealing, run_work_stealing_chunked, with_pool,
    ChunkOptions, JobOutcome, Pool, PoolEvent,
};
pub use fingerprint::{job_fingerprint, point_fingerprint, point_fingerprint_ignoring_rng};
pub use manifest::{manifest_path, ManifestRecord, ShardManifest};
pub use queue::{shard_of_fingerprint, Lease, ShardQueues};
pub use spec::{load_spec_file, CampaignSpec, JobSpec, TopologySpec};
pub use store::{
    group_replicas, merge_stores, MergeSummary, ResultStore, StoreRecord, STORE_SCHEMA_VERSION,
};
pub use timings::{load_timings, timings_path, TimingRecord, TimingsLog};
pub use trace::{load_trace, trace_path, TraceLog, TraceRecord};
