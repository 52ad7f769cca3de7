//! Anatomy of the SurePath escape subnetwork (Figure 2 of the paper).
//!
//! Builds the 4×4 HyperX of the paper's illustration, classifies every link
//! as Up/Down (black) or horizontal (red) with respect to the root, prints the
//! level histogram and the link census, and shows how the classification and
//! the Up/Down distances adapt when a Cross fault hits the root.
//!
//! Run with `cargo run --release --example escape_anatomy`.

use hyperx_topology::{FaultSet, FaultShape, HyperX, LinkClass, Network, UpDownEscape};

fn describe(hx: &HyperX, net: &Network, esc: &UpDownEscape, title: &str) {
    println!("== {title} ==");
    println!("root: {:?}", hx.switch_coords(esc.root()));
    // Level histogram.
    let max_level = (0..hx.num_switches()).map(|s| esc.level(s)).max().unwrap();
    for level in 0..=max_level {
        let count = (0..hx.num_switches())
            .filter(|&s| esc.level(s) == level)
            .count();
        println!("  level {level}: {count} switches");
    }
    let census = esc.class_census(net);
    println!(
        "  links: {} Up/Down (black), {} horizontal (red), {} total alive",
        census.updown,
        census.horizontal,
        net.num_links()
    );
    // A worked escape-candidate example, as in the paper's text: (0,1) -> (0,3).
    let a = hx.switch_id(&[0, 1]);
    let b = hx.switch_id(&[0, 3]);
    println!(
        "  Up/Down distance from (0,1) to (0,3): {}",
        esc.updown_distance(a, b)
    );
    for c in esc.escape_candidates(a, b) {
        let class = match c.class {
            LinkClass::Up => "Up",
            LinkClass::Down => "Down",
            LinkClass::Horizontal => "shortcut",
        };
        println!(
            "    candidate towards {:?}: {class}, reduces Up/Down distance by {}",
            hx.switch_coords(c.neighbor),
            c.reduction
        );
    }
    println!();
}

fn main() {
    // The healthy 4×4 HyperX of Figure 2, rooted at (0,0).
    let hx = HyperX::regular(2, 4);
    let root = hx.switch_id(&[0, 0]);
    let esc = UpDownEscape::new(hx.network(), root);
    describe(&hx, hx.network(), &esc, "Healthy 4x4 HyperX, root (0,0)");

    // The same network after a Cross fault through the root: the escape
    // subnetwork is rebuilt by BFS over the surviving links and keeps serving
    // every destination.
    let shape = FaultShape::Cross {
        center: vec![0, 0],
        margin: 1,
    };
    let mut net = hx.network().clone();
    let faults = FaultSet::from_shape(&shape, &hx);
    faults.apply(&mut net);
    println!(
        "Applying a Cross fault through the root removes {} links; the network {} connected.",
        faults.len(),
        if net.is_connected() {
            "stays"
        } else {
            "is NOT"
        }
    );
    println!();
    let esc_faulty = UpDownEscape::new(&net, root);
    describe(&hx, &net, &esc_faulty, "After the Cross fault, same root");

    // Every pair still has an escape path.
    let mut worst = 0;
    for a in 0..hx.num_switches() {
        for b in 0..hx.num_switches() {
            worst = worst.max(esc_faulty.updown_distance(a, b));
        }
    }
    println!(
        "Worst-case Up/Down distance after the fault: {worst} hops — every pair is still \
         reachable through the escape subnetwork."
    );
}
