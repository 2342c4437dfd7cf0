#!/usr/bin/env bash
# Build wbench from source and run it. Run from the repository root:
#   benchmark/run.sh                      every workload, table + result set
#   benchmark/run.sh --workload W ...     one run; last line is the result JSON
#   benchmark/run.sh --twice | --agree A.json B.json
# See benchmark/README.md.
set -euo pipefail

manifest="benchmark/Cargo.toml"
if [[ ! -f "$manifest" || ! -f BENCHMARK.json ]]; then
    echo "run.sh: run from the repository root (no $manifest or BENCHMARK.json here)" >&2
    exit 66
fi
# Build output goes to stderr, so stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/wbench" "$@"
