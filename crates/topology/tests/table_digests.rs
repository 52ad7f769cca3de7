//! The topology layer's digest fixture: FNV-1a 64 digests of the two
//! all-pairs tables a network view is built from, pinned in
//! `tests/fixtures/table_digests.txt`.
//!
//! Each line names one full-scale network and digests every entry of its
//! `DistanceMatrix` and, when the network is connected, of its
//! `UpDownEscape` table, row by row, along with `is_connected` and
//! `diameter_checked`. The networks are the benchmark's views: the four
//! `views-3d-12` fault sets at seed 1 (12×12×12, `random:200:1..=4`, root
//! 0), `batch-3d-star`'s Star (8×8×8 `cross:1:4,4,4`, rooted at its
//! center), the 16×16 `cross:5:8,8` rooted at its center, and one
//! disconnected 12×12×12 whose switch (6,6,6) lost every link.
//!
//! To regenerate after a *deliberate* change to either table:
//!
//! ```text
//! cargo test -p hyperx-topology --test table_digests -- --ignored regenerate
//! ```

use hyperx_topology::{DistanceMatrix, FaultSet, FaultShape, HyperX, Network, UpDownEscape};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt::Write;

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/table_digests.txt"
);

/// FNV-1a 64 over little-endian table entries.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn entry(&mut self, value: u16) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A network with its faults applied and the escape root it is built with.
struct Case {
    name: String,
    net: Network,
    root: usize,
}

/// The `count` faults of the benchmark's `random:count:seed` scenario.
fn random_faults(hx: &HyperX, count: usize, seed: u64) -> FaultSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    FaultSet::random_sequence(hx.network(), count, &mut rng)
}

fn faulted(hx: &HyperX, faults: &FaultSet) -> Network {
    let mut net = hx.network().clone();
    faults.apply(&mut net);
    net
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let cube = HyperX::regular(3, 12);
    for seed in 1..=4 {
        cases.push(Case {
            name: format!("12x12x12/random:200:{seed}"),
            net: faulted(&cube, &random_faults(&cube, 200, seed)),
            root: 0,
        });
    }
    let star = HyperX::regular(3, 8);
    let shape = FaultShape::Cross {
        center: vec![4, 4, 4],
        margin: 1,
    };
    cases.push(Case {
        name: "8x8x8/cross:1:4,4,4".to_string(),
        net: faulted(&star, &FaultSet::from_shape(&shape, &star)),
        root: star.switch_id(&[4, 4, 4]),
    });
    let plane = HyperX::regular(2, 16);
    let shape = FaultShape::Cross {
        center: vec![8, 8],
        margin: 5,
    };
    cases.push(Case {
        name: "16x16/cross:5:8,8".to_string(),
        net: faulted(&plane, &FaultSet::from_shape(&shape, &plane)),
        root: plane.switch_id(&[8, 8]),
    });
    let isolated = cube.switch_id(&[6, 6, 6]);
    cases.push(Case {
        name: "12x12x12/isolated:6,6,6".to_string(),
        net: faulted(
            &cube,
            &FaultSet::from_switch_failures(cube.network(), &[isolated]),
        ),
        root: 0,
    });
    cases
}

/// `name digests` lines of every case.
fn render() -> String {
    let mut text = String::new();
    for case in cases() {
        let n = case.net.num_switches();
        let d = DistanceMatrix::compute(&case.net);
        let mut distances = Fnv::new();
        for s in 0..n {
            d.row(s).iter().for_each(|x| distances.entry(x));
        }
        let updown = if d.is_connected() {
            let esc = UpDownEscape::new(&case.net, case.root);
            let mut hash = Fnv::new();
            for a in 0..n {
                (0..n).for_each(|b| hash.entry(esc.updown_distance(a, b)));
            }
            format!("{:016x}", hash.0)
        } else {
            "-".to_string()
        };
        writeln!(
            text,
            "{} root={} distances={:016x} updown={updown} connected={} diameter={:?}",
            case.name,
            case.root,
            distances.0,
            d.is_connected(),
            d.diameter_checked()
        )
        .unwrap();
    }
    text
}

fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| line.split_once(' '))
        .map(|(name, digests)| (name.to_string(), digests.to_string()))
        .collect()
}

#[test]
fn tables_match_the_fixture() {
    let committed = std::fs::read_to_string(FIXTURE_PATH)
        .unwrap_or_else(|e| panic!("fixture committed under {FIXTURE_PATH}: {e}"));
    let committed = parse(&committed);
    let current = parse(&render());
    let mut drift: Vec<String> = current
        .iter()
        .filter(|&(name, digests)| committed.get(name) != Some(digests))
        .map(|(name, digests)| {
            format!(
                "{name}: {digests}, committed {}",
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
        "tables drifted from the fixture in {} case(s):\n  {}\n\
         If the change is deliberate, regenerate with `cargo test -p hyperx-topology \
         --test table_digests -- --ignored regenerate`",
        drift.len(),
        drift.join("\n  ")
    );
}

#[test]
#[ignore = "rewrites the committed fixture; run explicitly after a deliberate table change"]
fn regenerate() {
    std::fs::write(FIXTURE_PATH, render()).expect("write the fixture");
}
