//! # surepath-dist
//!
//! The distributed campaign driver: fan one expanded campaign grid out to
//! many worker processes/machines over plain TCP (`std::net` only), and
//! fold the streamed results into **one store byte-identical to a local
//! run** — whatever the worker count, join order, or mid-run losses.
//!
//! The three moving parts:
//!
//! * [`protocol`] — the JSONL-over-TCP wire format: a worker-driven
//!   `Hello` / `Fetch` / `Deliver` conversation with `Assign` / `Wait` /
//!   `Drained` replies;
//! * [`coordinator`] — [`serve`]: partitions pending jobs **statically by
//!   fingerprint prefix** into shard queues, then work-steals across them
//!   so fast workers drain slow workers' tails; journals every assignment
//!   to the `<store>.manifest.jsonl` sidecar; leases expire and lost
//!   workers' jobs are re-offered;
//! * [`worker`] — [`run_worker`]: pulls jobs, runs them on one pool of the
//!   runner's work-stealing executor that lasts the whole campaign (panic
//!   isolation included), streams store-format records back with per-job
//!   wall-clock; transport failures send it through
//!   [`session::ReconnectPolicy`]'s backoff loop and it resumes the
//!   campaign (the fingerprint in `Welcome` gates resumption).
//!
//! Two supporting modules: [`session`] (campaign fingerprint, session
//! nonce, reconnect policy) and [`faultnet`] (seeded socket fault
//! injection — the test harness that proves the fault tolerance).
//!
//! Like `surepath-runner`, this crate is **domain-agnostic**: the caller
//! supplies the closure that turns one job into one JSON result
//! (`surepath-core` provides `run_job` for simulation campaigns, and the
//! CLI wires it up as `surepath campaign --serve` / `--worker` /
//! `--spawn-local`).
//!
//! ```no_run
//! use surepath_dist::{serve, run_worker, ServeOptions, WorkerOptions};
//! use surepath_runner::spec::load_spec_file;
//!
//! let spec = load_spec_file(std::path::Path::new("grid.toml")).unwrap();
//! let jobs = spec.expand().unwrap();
//! let listener = std::net::TcpListener::bind("0.0.0.0:7777").unwrap();
//! // Coordinator (blocks until the grid is drained):
//! let outcome = serve(
//!     listener,
//!     &spec.name,
//!     &jobs,
//!     std::path::Path::new("grid.results.jsonl"),
//!     &ServeOptions::default(),
//! )
//! .unwrap();
//! println!("{} executed by {} workers", outcome.executed, outcome.workers);
//! // Elsewhere, any number of times:
//! run_worker("coordinator-host:7777", "worker-1", &WorkerOptions::default(), |job| {
//!     Ok(serde_json::to_value(&job.seed).unwrap())
//! })
//! .unwrap();
//! ```

pub mod coordinator;
pub mod faultnet;
pub mod protocol;
pub mod session;
pub mod worker;

pub use coordinator::{serve, ServeOptions, ServeOutcome};
pub use faultnet::{Fault, FaultConfig, FaultPlan, FaultyProxy, FaultyStream};
pub use protocol::{read_message, write_message, Reply, Request};
pub use session::{campaign_fingerprint, is_transient, session_nonce, ReconnectPolicy};
pub use worker::{run_worker, WorkerOptions, WorkerOutcome};
