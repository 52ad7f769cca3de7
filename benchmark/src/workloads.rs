//! The benchmark's workloads and the campaign specs generated from them.
//!
//! `surepath` only ever sees the generated spec: every input of a run is a
//! pure function of (workload, seed). The seed is the base of the job seeds
//! and of the random-fault seeds, so a new seed changes both the traffic
//! draws and the fault sets while the grid shape (and so the amount of work)
//! stays the same.

/// One benchmark workload.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: the layer it loads.
    pub why: &'static str,
    /// Executor threads of a local run, or of each worker in a distributed run.
    pub threads: usize,
    /// Local worker processes (`--spawn-local`); 0 runs the campaign locally.
    pub dist_workers: usize,
    spec: fn(u64) -> String,
}

impl Workload {
    /// The campaign spec TOML of this workload at `seed`.
    pub fn spec_toml(&self, seed: u64) -> String {
        (self.spec)(seed)
    }

    /// The `surepath campaign` arguments that set thread and process counts.
    /// Every workload uses at most 2 compute threads.
    pub fn cli_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        if self.dist_workers > 0 {
            args.push("--spawn-local".to_string());
            args.push(self.dist_workers.to_string());
        }
        args.push("--threads".to_string());
        args.push(self.threads.to_string());
        args
    }
}

/// Every workload, in the order a full invocation runs them.
pub const WORKLOADS: [Workload; 4] = [
    // One thread: on the 2-core reference host, runs that keep both cores
    // busy spread about twice as wide as single-threaded ones; the engine,
    // which this workload is for, runs the same either way.
    Workload {
        name: "rate-2d-paper",
        why: "Fig 8 shape at Table 3 scale (16x16, c=16): engine-bound open-loop jobs, \
              view build is under 1% of each job",
        threads: 1,
        dist_workers: 0,
        spec: rate_2d_paper,
    },
    // One partition: at two, the engine's two threads meet at a barrier every
    // cycle, so whenever the host stalls either vCPU both wait. On the 2-core
    // reference host, ten time-boxed P=2 runs spread about twice as wide as
    // the single-threaded workloads, and P=1 was faster as well. The traced
    // pass still times the slowest job at P=1 against P=2.
    Workload {
        name: "batch-3d-star",
        why: "Fig 10 shape (8x8x8 RPN, Star): the only closed-loop workload",
        threads: 1,
        dist_workers: 0,
        spec: batch_3d_star,
    },
    // One thread: with two, a thread that finds its view missing while the
    // other is still building it builds it again, and whether that happens
    // depends on timing, which makes the wall time bimodal.
    Workload {
        name: "views-3d-12",
        why: "4 random fault sets on 12x12x12: distance matrix and Up/Down construction dominate, \
              half the jobs hit the view cache",
        threads: 1,
        dist_workers: 0,
        spec: views_3d_12,
    },
    Workload {
        name: "replicas-dist",
        why: "1350 millisecond jobs through --spawn-local 2: per-job overhead, the dist wire \
              and the coordinator fold",
        threads: 1,
        dist_workers: 2,
        spec: replicas_dist,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn rate_2d_paper(seed: u64) -> String {
    format!(
        r#"name = "rate-2d-paper"
rng = "v2"
vcs = 4
mechanisms = ["omnisp", "polsp"]
traffics = ["uniform"]
scenarios = ["none", "row:0:0,8", "cross:5:8,8"]
loads = [0.4, 0.9]
seeds = [{seed}]
warmup = 40
measure = 120

[[topologies]]
sides = [16, 16]
concentration = 16
"#
    )
}

// 12 packets per server: PolSP under the Star stalls at 80 (see README).
fn batch_3d_star(seed: u64) -> String {
    format!(
        r#"name = "batch-3d-star"
kind = "batch"
rng = "v2"
vcs = 4
mechanisms = ["omnisp", "polsp"]
traffics = ["rpn"]
scenarios = ["none", "cross:1:4,4,4"]
seeds = [{seed}]
packets_per_server = 12
sample_window = 1000

[[topologies]]
sides = [8, 8, 8]
concentration = 8
"#
    )
}

fn views_3d_12(seed: u64) -> String {
    let fault_seed = |i: u64| seed.wrapping_add(i);
    format!(
        r#"name = "views-3d-12"
rng = "v2"
vcs = 4
mechanisms = ["omnisp", "polsp"]
traffics = ["uniform"]
scenarios = ["random:200:{seed}", "random:200:{}", "random:200:{}", "random:200:{}"]
loads = [0.02]
seeds = [{seed}]
warmup = 20
measure = 80

[[topologies]]
sides = [12, 12, 12]
concentration = 4
"#,
        fault_seed(1),
        fault_seed(2),
        fault_seed(3)
    )
}

fn replicas_dist(seed: u64) -> String {
    format!(
        r#"name = "replicas-dist"
rng = "v2"
vcs = 4
mechanisms = ["minimal", "omnisp", "polsp"]
traffics = ["uniform"]
scenarios = ["none", "random:6:{seed}", "random:6:{}"]
loads = [0.1, 0.4, 0.7]
seeds = [{seed}]
replicas = 50
warmup = 100
measure = 250

[[topologies]]
sides = [4, 4]
concentration = 4
"#,
        seed.wrapping_add(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use surepath_runner::spec::spec_from_toml;

    #[test]
    fn specs_are_a_pure_function_of_workload_and_seed() {
        for w in &WORKLOADS {
            assert_eq!(w.spec_toml(3), w.spec_toml(3), "{}", w.name);
            let spec = spec_from_toml(&w.spec_toml(3)).expect("generated spec parses");
            assert_eq!(spec.name, w.name);
            assert_eq!(spec.rng.as_deref(), Some("v2"));
            assert_eq!(spec.vcs, Some(4));
            surepath_core::validate_campaign(&spec).expect("generated spec validates");
        }
    }

    #[test]
    fn a_new_seed_changes_job_and_fault_seeds_but_not_the_grid() {
        for w in &WORKLOADS {
            let a = spec_from_toml(&w.spec_toml(1)).unwrap().expand().unwrap();
            let b = spec_from_toml(&w.spec_toml(7)).unwrap().expand().unwrap();
            assert_eq!(a.len(), b.len(), "{}", w.name);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.seed != y.seed),
                "{}: every job seed moves",
                w.name
            );
            let random = |jobs: &[surepath_runner::JobSpec]| -> Vec<String> {
                jobs.iter()
                    .filter_map(|j| j.scenario.clone())
                    .filter(|s| s.starts_with("random:"))
                    .collect()
            };
            let (ra, rb) = (random(&a), random(&b));
            assert_eq!(ra.len(), rb.len());
            assert!(ra.iter().zip(&rb).all(|(x, y)| x != y), "{}", w.name);
        }
    }

    #[test]
    fn grids_have_the_documented_sizes_and_thread_budgets() {
        let jobs = |name: &str| {
            spec_from_toml(&find(name).unwrap().spec_toml(1))
                .unwrap()
                .expand()
                .unwrap()
                .len()
        };
        assert_eq!(jobs("rate-2d-paper"), 12);
        assert_eq!(jobs("batch-3d-star"), 4);
        assert_eq!(jobs("views-3d-12"), 8);
        assert_eq!(jobs("replicas-dist"), 1350);
        for w in &WORKLOADS {
            let partitions = spec_from_toml(&w.spec_toml(1))
                .unwrap()
                .partitions
                .unwrap_or(1);
            let compute = w.threads * w.dist_workers.max(1) * partitions;
            assert!(compute <= 2, "{} uses {compute} compute threads", w.name);
        }
        assert!(find("no-such-workload").is_none());
    }
}
