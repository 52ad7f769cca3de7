//! The routing layer's digest fixture: FNV-1a 64 digests of every
//! mechanism's full candidate list (routing part, then escape part), pinned
//! in `tests/fixtures/candidate_digests.txt`.
//!
//! Each line digests one (network, mechanism, packet state) case over every
//! `(current, dest)` pair of the network. Every entry contributes its port,
//! VC range, penalty and kind, in list order, so a change that reorders,
//! drops, adds or re-prices a single candidate fails here, naming the case.
//! The networks are a healthy 4×4, a healthy 4×4×4 and a 4×4×4 with random
//! connected link faults; the states are fresh packets plus every field
//! that changes a list: deroutes exhausted, `in_escape`, Valiant phase 1,
//! Polarized mid-route with either header bit, hops at the zero-gain limit
//! and DAL derouted dimensions.
//!
//! To regenerate after a *deliberate* routing change:
//!
//! ```text
//! cargo test -p hyperx-routing --test candidate_digests -- --ignored regenerate
//! ```

use hyperx_routing::{Candidate, MechanismSpec, NetworkView, PacketState, RoutingMechanism};
use hyperx_topology::{FaultSet, HyperX};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/candidate_digests.txt"
);

const ALL_MECHANISMS: [MechanismSpec; 10] = [
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
const STATES: [&str; 9] = [
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

/// FNV-1a 64 over everything formatted into it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &byte in s.as_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The three networks, by name.
fn networks() -> Vec<(&'static str, Arc<NetworkView>)> {
    let faulted = {
        let hx = HyperX::regular(3, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let faults = FaultSet::random_connected_sequence(hx.network(), 40, &mut rng);
        Arc::new(NetworkView::with_faults(hx, &faults, 0))
    };
    assert!(faulted.is_connected());
    vec![
        (
            "4x4",
            Arc::new(NetworkView::healthy(HyperX::regular(2, 4), 0)),
        ),
        (
            "4x4x4",
            Arc::new(NetworkView::healthy(HyperX::regular(3, 4), 0)),
        ),
        ("4x4x4f40", faulted),
    ]
}

/// The mechanism's full list for `state` at `current`: routing part, then
/// escape part.
fn full_list(
    mech: &dyn RoutingMechanism,
    state: &PacketState,
    current: usize,
    out: &mut Vec<Candidate>,
) {
    out.clear();
    mech.all_candidates_into(state, current, out);
}

/// The state `name` of a packet at `current` heading to `dest`.
fn state(
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

/// `name digest` lines of every case.
fn render() -> String {
    let mut text = String::new();
    let mut list = Vec::new();
    for (net, view) in networks() {
        let n = view.hyperx().num_switches();
        for spec in ALL_MECHANISMS {
            let mech = spec.build(view.clone(), spec.faulty_num_vcs(view.dims()));
            for name in STATES {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
                for current in 0..n {
                    for dest in 0..n {
                        let st = state(name, &view, mech.as_ref(), current, dest, &mut rng);
                        full_list(mech.as_ref(), &st, current, &mut list);
                        write!(hash, "|{current}>{dest}|").unwrap();
                        for c in &list {
                            write!(
                                hash,
                                "{}:{}..{}:{}:{:?};",
                                c.port, c.vcs.lo, c.vcs.hi, c.penalty, c.kind
                            )
                            .unwrap();
                        }
                    }
                }
                writeln!(text, "{net}/{}/{name} {:016x}", spec.name(), hash.0).unwrap();
            }
        }
    }
    text
}

fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| line.split_once(' '))
        .map(|(name, digest)| (name.to_string(), digest.to_string()))
        .collect()
}

#[test]
fn candidate_lists_match_the_fixture() {
    let committed = std::fs::read_to_string(FIXTURE_PATH)
        .unwrap_or_else(|e| panic!("fixture committed under {FIXTURE_PATH}: {e}"));
    let committed = parse(&committed);
    let current = parse(&render());
    let mut drift: Vec<String> = current
        .iter()
        .filter(|&(name, digest)| committed.get(name) != Some(digest))
        .map(|(name, digest)| {
            format!(
                "{name}: digest {digest}, committed {}",
                committed.get(name).map_or("nothing", String::as_str)
            )
        })
        .collect();
    drift.extend(
        committed
            .keys()
            .filter(|name| !current.contains_key(*name))
            .map(|name| format!("{name}: committed but no longer run")),
    );
    assert!(
        drift.is_empty(),
        "candidate lists drifted from the fixture in {} case(s):\n  {}\n\
         If the change is deliberate, regenerate with `cargo test -p hyperx-routing \
         --test candidate_digests -- --ignored regenerate`",
        drift.len(),
        drift.join("\n  ")
    );
}

#[test]
#[ignore = "rewrites the committed fixture; run explicitly after a deliberate routing change"]
fn regenerate() {
    std::fs::write(FIXTURE_PATH, render()).expect("write the fixture");
}
