//! # hyperx-topology
//!
//! Switch-level topology substrate for the SurePath reproduction.
//!
//! This crate provides everything the routing layer and the simulator need to
//! know about the *shape* of the network:
//!
//! * [`Network`] — an immutable switch-level multigraph-free adjacency
//!   structure with stable port numbering and link-fault support.
//! * [`HyperX`] — Hamming-graph (HyperX) constructors and coordinate
//!   arithmetic ([`coordinates`]).
//! * [`complete`] / [`cartesian`] — the building blocks HyperX is defined
//!   from (complete graphs and Cartesian products), usable on their own.
//! * [`faults`] — link fault sets: random fault sequences and the geometric
//!   fault shapes used in the paper (Row, Subplane, Cross, Subcube, Star).
//! * [`bfs`] / [`properties`] — distance matrices, routing tables, diameter,
//!   average distance and connectivity analysis (used for Figure 1 and
//!   Table 3 of the paper).
//! * [`updown`] — the opportunistic Up/Down escape subnetwork of SurePath:
//!   link colouring from a BFS root, Up/Down distances, and the escape
//!   candidate tables described in Section 3.2 of the paper.
//! * [`rootsel`] — escape-root selection policies, including the
//!   "avoid a switch with many faulty links" advice of §6.
//!
//! The crate is deliberately free of any simulator or flow-control notion;
//! it only answers questions about graphs.

pub mod bfs;
pub mod builder;
pub mod cartesian;
pub mod complete;
pub mod coordinates;
pub mod faults;
pub mod graph;
pub mod hamming;
mod lanes;
pub mod properties;
pub mod rootsel;
pub mod updown;

pub use bfs::{bfs_distances, DistanceMatrix};
pub use builder::NetworkBuilder;
pub use coordinates::{CoordinateSystem, Coordinates};
pub use faults::{FaultSet, FaultShape};
pub use graph::{LinkId, Network, PortId, SwitchId, INVALID_PORT};
pub use hamming::HyperX;
pub use lanes::HopRow;
pub use properties::{diameter_under_fault_sequence, DiameterSample, TopologyReport};
pub use rootsel::RootPolicy;
pub use updown::{LinkClass, UpDownEscape};
