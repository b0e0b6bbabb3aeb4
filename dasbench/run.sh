#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash dasbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the result JSON.
set -euo pipefail
bench_dir="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$bench_dir/target}/release/dasbench" "$@"
