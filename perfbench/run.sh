#!/usr/bin/env bash
# Builds the `mmflow` binary and the benchmark from this checkout, then
# runs one workload and prints its result as the last line of stdout:
#
#   bash perfbench/run.sh --workload <paper_relaxed|fixed_width|serve_warm> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to
# stderr; serve_warm works in .bench_work/ and removes what it made.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
  echo "perfbench: not a checkout of the repository (no Cargo.toml or crates/cli here)" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mm-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mm-perfbench" --mmflow "$CARGO_TARGET_DIR/release/mmflow" "$@"
