#!/usr/bin/env bash
# Builds, from this checkout's sources, the ccs-serve daemon the serve
# workloads drive and the benchmark itself (release profile), then runs
# the benchmark with the given arguments:
#
#   bash examples/benchmark/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: the repository's
# target/). Without the repository's sources the build fails and the
# script exits nonzero before printing anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" -p ccs-serve
cargo build --offline --release --quiet --manifest-path "$root/examples/benchmark/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
