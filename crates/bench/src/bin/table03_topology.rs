//! Table 3: topological parameters of the evaluated HyperX networks.
//!
//! Ported onto the campaign runner with a custom `topology` job kind (like
//! fig01's `diameter` kind): one job per network, each computing a
//! [`TopologyReport`] (the all-pairs BFS behind the diameter and average
//! distance columns) on the bounded thread pool. Results are fingerprinted
//! and cached in the store, so re-rendering the table is instant.

use hyperx_bench::HarnessOptions;
use hyperx_topology::{HyperX, TopologyReport};
use surepath_core::{topology_table_from_reports, CampaignSpec, ResultStore, TopologySpec};
use surepath_runner::{job_fingerprint, JobSpec};

/// The networks of Table 3 (paper sizes plus the `--quick` analogues), with
/// their display names and concentrations.
fn networks() -> Vec<(&'static str, Vec<usize>, usize)> {
    vec![
        ("2D HyperX 16x16", vec![16, 16], 16),
        ("3D HyperX 8x8x8", vec![8, 8, 8], 8),
        ("quick 2D 8x8", vec![8, 8], 8),
        ("quick 3D 4x4x4", vec![4, 4, 4], 4),
    ]
}

fn campaign() -> CampaignSpec {
    CampaignSpec {
        name: "table03-topology".to_string(),
        kind: Some("topology".to_string()),
        topologies: networks()
            .into_iter()
            .map(|(_, sides, concentration)| TopologySpec {
                sides,
                concentration: Some(concentration),
            })
            .collect(),
        ..CampaignSpec::default()
    }
}

/// Executes one `topology` job: compute the Table 3 report of the job's
/// HyperX at its concentration.
fn run_topology_job(job: &JobSpec) -> Result<serde::Value, String> {
    if job.kind != "topology" {
        return Err(format!(
            "table03 only understands topology jobs, got '{}'",
            job.kind
        ));
    }
    let hx = HyperX::new(&job.sides);
    let concentration = job.concentration.unwrap_or(job.sides[0]);
    let report = TopologyReport::for_hyperx(&hx, concentration);
    serde_json::to_value(&report).map_err(|e| e.to_string())
}

fn main() {
    let opts = HarnessOptions::from_args();
    let spec = campaign();
    let store_path = opts.store_path("table03");
    let outcome =
        surepath_runner::run_campaign(&spec, &store_path, opts.threads, true, run_topology_job)
            .unwrap_or_else(|e| {
                eprintln!("campaign failed: {e}");
                std::process::exit(1);
            });
    eprintln!(
        "table03: {} networks ({} skipped, {} executed, {} failed)",
        outcome.total, outcome.skipped, outcome.executed, outcome.failed
    );

    let store = ResultStore::open_read_only(&store_path).unwrap_or_else(|e| {
        eprintln!("cannot reopen store {}: {e}", store_path.display());
        std::process::exit(1);
    });
    let jobs = spec.expand().expect("table03 campaign expands");
    let mut reports: Vec<(String, TopologyReport)> = Vec::new();
    for ((name, _, _), job) in networks().iter().zip(&jobs) {
        match store.record(&job_fingerprint(job)) {
            Some(record) if record.status == "ok" => {
                let report: TopologyReport = serde_json::from_value(
                    record.result.clone().expect("ok records carry results"),
                )
                .expect("topology reports deserialize");
                reports.push((name.to_string(), report));
            }
            _ => eprintln!("{name}: missing from store; rerun to retry"),
        }
    }

    println!("Table 3: topological parameters");
    println!();
    let table = topology_table_from_reports(&reports);
    println!("{table}");
    println!(
        "Paper values (2D): 256 switches, radix 46, 4096 servers, 3840 links, diameter 2, avg 1.8"
    );
    println!("Paper values (3D): 512 switches, radix 29, 4096 servers, 5376 links, diameter 3, avg 2.625");
    println!(
        "(campaign store: {}; rerun to resume/skip)",
        store_path.display()
    );
    opts.maybe_write_csv(&table);
}
