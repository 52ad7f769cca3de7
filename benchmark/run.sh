#!/usr/bin/env bash
# The repository's end-to-end benchmark; see benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--repeats N | --seconds S] [--workload NAME]...
#                    [--trace 0|1] [--out PATH]
#   benchmark/run.sh compare BASELINE.json CANDIDATE.json
#
# Builds the root `surepath` release binary and the benchmark package, then
# runs from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bench="$CARGO_TARGET_DIR/release/surepath-benchmark"
if [ "${1:-}" = compare ]; then
    exec "$bench" "$@"
fi
cargo build --release --offline --bin surepath >&2
exec "$bench" run --surepath "$CARGO_TARGET_DIR/release/surepath" "$@"
