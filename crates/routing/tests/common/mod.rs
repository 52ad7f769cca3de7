//! The mechanisms and packet states shared by the candidate fixture and
//! the property tests.

use hyperx_routing::{MechanismSpec, NetworkView, PacketState, RoutingMechanism};
use rand_chacha::ChaCha8Rng;

/// Every named mechanism.
pub const ALL_MECHANISMS: [MechanismSpec; 10] = [
    MechanismSpec::Minimal,
    MechanismSpec::Valiant,
    MechanismSpec::OmniWAR,
    MechanismSpec::Polarized,
    MechanismSpec::OmniSP,
    MechanismSpec::PolSP,
    MechanismSpec::Dor,
    MechanismSpec::Dal,
    MechanismSpec::OmniSPTree,
    MechanismSpec::PolSPTree,
];

/// The packet states each case applies at every `(current, dest)` pair.
pub const STATES: [&str; 9] = [
    "fresh",
    "deroutes-exhausted",
    "in-escape",
    "valiant-phase1",
    "midway-closer-to-source",
    "midway-closer-to-dest",
    "zero-gain-limit",
    "dal-dim0-derouted",
    "dal-all-derouted",
];

/// The state `name` of a packet at `current` heading to `dest`.
pub fn state(
    name: &str,
    view: &NetworkView,
    mech: &dyn RoutingMechanism,
    current: usize,
    dest: usize,
    rng: &mut ChaCha8Rng,
) -> PacketState {
    let n = view.hyperx().num_switches();
    let dims = view.dims();
    let mut st = mech.init_packet(current, dest, rng);
    match name {
        "fresh" => {}
        "deroutes-exhausted" => st.deroutes = dims as u16,
        "in-escape" => st.in_escape = true,
        "valiant-phase1" => {
            st.intermediate = (dest * 7 + 3) % n;
            st.phase2 = false;
        }
        "midway-closer-to-source" | "midway-closer-to-dest" => {
            st.source = (current * 5 + 1) % n;
            st.hops = 1;
            st.closer_to_source = name == "midway-closer-to-source";
        }
        "zero-gain-limit" => st.hops = (2 * view.diameter()) as u16,
        "dal-dim0-derouted" => {
            st.derouted_dims = 0b1;
            st.deroutes = 1;
        }
        "dal-all-derouted" => {
            st.derouted_dims = (1u8 << dims) - 1;
            st.deroutes = dims as u16;
        }
        other => unreachable!("unknown state {other}"),
    }
    st
}
