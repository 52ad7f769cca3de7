//! `surepath` — run SurePath experiments from the command line.
//!
//! Single experiments:
//!
//! ```text
//! surepath --sides 8x8x8 --mechanism polsp --traffic uniform --load 0.6
//! surepath --sides 16x16 --mechanism omnisp --traffic dcr --faults cross:5 --vcs 4 --load 0.9
//! surepath --sides 8x8x8 --mechanism omnisp --traffic rpn --faults star --batch 500 --json
//! ```
//!
//! Declarative campaigns (experiment matrices on a work-stealing pool with a
//! resumable result store):
//!
//! ```text
//! surepath campaign examples/campaign_quick.toml
//! surepath campaign grid.toml --threads 8 --store results/grid.jsonl
//! surepath campaign --report results/grid.jsonl            # render, no simulation
//! surepath campaign --merge all.jsonl shard1.jsonl shard2.jsonl
//! ```
//!
//! Distributed campaigns (one coordinator, any number of workers; the
//! finalized store is byte-identical to a local run):
//!
//! ```text
//! surepath campaign grid.toml --serve 0.0.0.0:7777      # terminal 1
//! surepath campaign --worker coordinator-host:7777      # terminal 2..n
//! surepath campaign grid.toml --spawn-local 4           # single-machine fan-out
//! ```
//!
//! Engine perf harness (pinned cells timed, traced pairs byte-checked;
//! writes `BENCH_ENGINE.json`):
//!
//! ```text
//! surepath bench --quick
//! surepath bench --full --repeat 3 --out BENCH_ENGINE.json
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench") {
        match surepath_cli::parse_bench_args(&args[1..])
            .and_then(|cfg| surepath_cli::run_bench_command(&cfg))
        {
            Ok(output) => {
                println!("{}", output.text);
                if output.exit_code != 0 {
                    std::process::exit(output.exit_code);
                }
            }
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
        return;
    }
    if args.first().map(String::as_str) == Some("trace") {
        match surepath_cli::run_trace_command(&args[1..]) {
            Ok(output) => {
                println!("{}", output.text);
                if output.exit_code != 0 {
                    std::process::exit(output.exit_code);
                }
            }
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
        return;
    }
    if args.first().map(String::as_str) == Some("campaign") {
        match surepath_cli::parse_campaign_args(&args[1..])
            .and_then(|cmd| surepath_cli::run_campaign_command(&cmd))
        {
            Ok(output) => {
                println!("{}", output.text);
                if output.exit_code != 0 {
                    std::process::exit(output.exit_code);
                }
            }
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
        return;
    }
    match surepath_cli::parse_args(&args).and_then(|cfg| surepath_cli::run(&cfg)) {
        Ok(text) => println!("{text}"),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
