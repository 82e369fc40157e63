#!/usr/bin/env bash
# Build the `mcs` binary and the harness from this checkout, then run
# `mcs-benchmark` with the arguments given.
#
#   bash benchmark/run.sh --workload geom_smr --seed 17 --seconds 20 --trace 0
#   bash benchmark/run.sh                      # every workload, out/result.json
#   bash benchmark/run.sh --smoke              # plumbing check, under 20 s
#   bash benchmark/run.sh compare A.json B.json
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "error: $root is not a checkout of the repo: there is no program to measure" >&2
    exit 2
fi

# Both builds share one target directory when the caller names one.
cargo build --release --offline --quiet --bin mcs
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "${CARGO_TARGET_DIR:-$bench_dir/target}/release/mcs-benchmark" "$@"
