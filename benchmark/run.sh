#!/usr/bin/env bash
# Builds the shipped binaries (`mbbc`, `repro`) and the benchmark, then runs
# the benchmark against them from the repository root.
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace 0|1 | --traced]
#
# Without --workload every workload runs.  Builds go to $CARGO_TARGET_DIR
# when it is set; otherwise the root binaries go to target/ and the
# benchmark to target/benchmark/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "run.sh: $root holds no mbb workspace to benchmark" >&2
    exit 1
fi

bins="${CARGO_TARGET_DIR:-target}"
bench="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet -p mbb-cli -p mbb-bench >&2
CARGO_TARGET_DIR="$bench" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$bench/release/mbb-benchmark" --bin-dir "$bins/release" "$@"
