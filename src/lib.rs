//! # surepath
//!
//! Umbrella crate of the SurePath (SC'24) reproduction. It re-exports the
//! whole stack — topology, routing, simulator, experiment API, campaign
//! runner and CLI internals — so the repo-level integration tests and the
//! worked examples need a single dependency.
//!
//! The layers, bottom up:
//!
//! * [`topology`] (`hyperx-topology`) — graphs, HyperX coordinates, faults.
//! * [`routing`] (`hyperx-routing`) — routing algorithms and mechanisms.
//! * [`sim`] (`hyperx-sim`) — the cycle-level simulator.
//! * [`runner`] (`surepath-runner`) — declarative campaign specs, the
//!   bounded job executor and the resumable JSONL result store.
//! * [`dist`] (`surepath-dist`) — the distributed campaign driver:
//!   coordinator/worker fan-out over TCP with assignment manifests.
//! * [`core`] (`surepath-core`) — experiments, scenarios, sweeps and the
//!   campaign → experiment bridge.
//! * [`cli`] (`surepath-cli`) — the `surepath` command line.

pub use hyperx_routing as routing;
pub use hyperx_sim as sim;
pub use hyperx_topology as topology;
pub use surepath_cli as cli;
pub use surepath_core as core;
pub use surepath_dist as dist;
pub use surepath_runner as runner;
