//! # hyperx-sim
//!
//! A cycle-level interconnection-network simulator purpose-built to reproduce
//! the evaluation of the SurePath paper: input-buffered switches with virtual
//! channels, credit-based virtual cut-through flow control, an internal
//! crossbar speedup, injection/ejection links, the paper's synthetic traffic
//! patterns and its three metrics (accepted throughput, average message
//! latency and the Jain fairness index of generated load).
//!
//! The public surface is small:
//!
//! * [`SimConfig`] — Table 2's simulation parameters.
//! * [`traffic`] — the four synthetic traffic patterns of §4.
//! * [`Simulator`] — the engine. [`Simulator::run_rate`] produces one point of
//!   an offered-load sweep (Figures 4–6, 8, 9); [`Simulator::run_batch`] runs
//!   the closed-loop completion-time experiment of Figure 10.
//! * [`RateMetrics`] / [`BatchMetrics`] — results.
//!
//! Substitution note (see DESIGN.md): the paper uses the authors' simulator
//! CAMINOS; this crate is an independent implementation of the same modelled
//! behaviour, packet-granular with phit-accurate serialization timing.

pub mod config;
pub mod engine;
pub mod metrics;
pub mod obs;
pub mod rng_contract;
pub mod server;
pub mod traffic;

pub use config::SimConfig;
pub use engine::Simulator;
pub use metrics::{
    jain_index, BatchMetrics, LatencyHistogram, MeasuredCounters, RateMetrics, ThroughputSample,
};
pub use obs::{Counter, CounterRegistry, PacketTracer, TraceEvent, TraceEventKind};
pub use rng_contract::RngContract;
pub use server::GenerationMode;
pub use traffic::{
    DimensionComplementReverse, HotspotIncast, NeighbourShift, RandomServerPermutation,
    RegularPermutationToNeighbour, ServerLayout, TrafficPattern, Transpose, UniformTraffic,
};
