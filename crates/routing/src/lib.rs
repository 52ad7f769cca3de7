//! # hyperx-routing
//!
//! Routing algorithms and routing *mechanisms* for HyperX networks, as
//! defined in the SurePath paper (SC 2024).
//!
//! The crate separates two concepts the paper keeps distinct:
//!
//! * A **routing algorithm** ([`RouteAlgorithm`]) decides which neighbours of
//!   the current switch are acceptable next hops for a packet, each with a
//!   *penalty* in phits used to bias the allocator. Implemented algorithms:
//!   [`minimal::MinimalRouting`], [`valiant::ValiantRouting`],
//!   [`dor::DimensionOrderedRouting`], [`dal::DalRouting`],
//!   [`omnidimensional::OmnidimensionalRouting`] and
//!   [`polarized::PolarizedRouting`].
//! * A **routing mechanism** ([`RoutingMechanism`]) combines an algorithm
//!   with a virtual-channel management policy that guarantees deadlock
//!   freedom: either the hop-count *Ladder* ([`mechanism::LadderMechanism`])
//!   or **SurePath** ([`surepath::SurePathMechanism`]), which dedicates one
//!   VC to an opportunistic Up/Down escape subnetwork
//!   ([`updown_escape::EscapeTables`]) and leaves the remaining VCs to the
//!   routing algorithm.
//!
//! The [`mechanism::MechanismSpec`] factory builds the six named
//! configurations evaluated in the paper (Table 4): `Minimal`, `Valiant`,
//! `OmniWAR`, `Polarized`, `OmniSP` and `PolSP`.

pub mod candidate;
pub mod dal;
pub mod dor;
pub mod mechanism;
pub mod minimal;
pub mod omnidimensional;
pub mod penalties;
pub mod polarized;
pub mod surepath;
pub mod updown_escape;
pub mod valiant;
pub mod view;

pub use candidate::{Candidate, CandidateKind, PacketState, RouteCandidate, VcRange};
pub use mechanism::{LadderMechanism, LadderStep, MechanismSpec};
pub use surepath::SurePathMechanism;
pub use updown_escape::{EscapePolicy, EscapeTables};
pub use view::NetworkView;

use rand::RngCore;

/// A routing algorithm: produces acceptable next hops for a packet at a switch.
///
/// Implementations are immutable once built (they may hold routing tables
/// computed from a [`NetworkView`]); per-packet state lives in
/// [`PacketState`] so a single algorithm instance serves every packet of a
/// simulation.
pub trait RouteAlgorithm: Send + Sync {
    /// Short name used in reports ("Minimal", "Polarized", ...).
    fn name(&self) -> &'static str;

    /// Initializes the per-packet routing state for a packet from `source` to
    /// `dest` (switch ids). `rng` is used by algorithms that make random
    /// per-packet choices (Valiant's intermediate switch).
    fn init(&self, source: usize, dest: usize, rng: &mut dyn RngCore) -> PacketState;

    /// Appends to `out` the acceptable next hops for the packet at `current`.
    /// May legitimately produce nothing (e.g. a DOR packet facing a faulty
    /// link, or Omnidimensional out of deroutes with the minimal port dead).
    fn candidates(&self, state: &PacketState, current: usize, out: &mut Vec<RouteCandidate>);

    /// Updates per-packet state after the packet moves from `current` to `next`.
    fn update(&self, state: &mut PacketState, current: usize, next: usize);

    /// Upper bound on the number of switch-to-switch hops a route may take in
    /// the healthy network; used by the Ladder policy to size its VC ladder.
    fn max_route_hops(&self) -> usize;
}

/// Reusable scratch space for candidate computation.
///
/// Mechanisms wrap a [`RouteAlgorithm`] and need an intermediate
/// [`RouteCandidate`] list per query; the simulator's allocator asks for
/// candidates for every head packet of every active switch every cycle, so
/// allocating that list per call dominated the low-load profile. Callers on
/// the hot path hold one `RouteScratch` and pass it down through
/// [`RoutingMechanism::candidates_into`]; the buffer is cleared, never
/// shrunk, and the algorithms themselves build no temporary vectors, so
/// once the scratch and the output list are warm, `candidates_into` and
/// [`RoutingMechanism::note_hop`] perform zero allocations. The test
/// `crates/bench/tests/alloc_free_routing.rs` pins this for every
/// [`MechanismSpec`] and for a warmed simulator's `step`.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Intermediate route list produced by the base routing algorithm.
    pub routes: Vec<RouteCandidate>,
}

/// A routing mechanism: routing algorithm + VC management, the unit the
/// simulator plugs in (one of the rows of Table 4).
pub trait RoutingMechanism: Send + Sync {
    /// Display name ("OmniSP", "PolSP", "Minimal", ...).
    fn name(&self) -> String;

    /// Number of virtual channels per port the mechanism uses.
    fn num_vcs(&self) -> usize;

    /// Index of the escape VC, or `None` if the mechanism has no escape
    /// subnetwork (pure Ladder mechanisms).
    fn escape_vc(&self) -> Option<usize>;

    /// Initializes the per-packet routing state.
    fn init_packet(&self, source: usize, dest: usize, rng: &mut dyn RngCore) -> PacketState;

    /// Appends the candidate output requests for the packet at `current`,
    /// using caller-provided scratch for the intermediate route list — the
    /// allocation-free form the simulator's hot loop calls.
    ///
    /// Must be a pure function of `(state, current)`: the simulator caches
    /// the result per head packet and the A/B scan-equivalence contract
    /// depends on recomputation yielding identical candidates.
    fn candidates_into(
        &self,
        state: &PacketState,
        current: usize,
        scratch: &mut RouteScratch,
        out: &mut Vec<Candidate>,
    );

    /// Convenience form of [`RoutingMechanism::candidates_into`] that
    /// allocates fresh scratch; fine for tests and one-off queries.
    fn candidates(&self, state: &PacketState, current: usize, out: &mut Vec<Candidate>) {
        let mut scratch = RouteScratch::default();
        self.candidates_into(state, current, &mut scratch, out);
    }

    /// Updates per-packet state after the packet takes `cand` from `current` to `next`.
    fn note_hop(&self, state: &mut PacketState, current: usize, next: usize, cand: &Candidate);
}
