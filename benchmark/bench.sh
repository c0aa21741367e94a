#!/usr/bin/env bash
# One benchmark run, from a clean checkout: build `fannr` and the
# benchmark binary it needs, then run it. This is the `command` of
# BENCHMARK.json; the arguments are passed through:
#
#   benchmark/bench.sh --workload W --seed S --seconds N --trace 0|1
#
# `--trace 1` runs fannr-bench-trace (per-layer metrics) instead of
# fannr-bench (end-to-end metrics). Build output goes to stderr; the last
# line of stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "benchmark/bench.sh: $(pwd) is not a fannr checkout (no Cargo.toml, no crates/)" >&2
    exit 2
fi

trace=0
prev=""
for arg in "$@"; do
    [[ $prev == --trace ]] && trace=$arg
    prev=$arg
done
bin=fannr-bench
[[ $trace == 1 ]] && bin=fannr-bench-trace

# With CARGO_TARGET_DIR set, both builds share it (and the dependency
# artifacts); without, each workspace uses its own target directory.
root_target=${CARGO_TARGET_DIR:-target}
bench_target=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --quiet --bin fannr >&2
CARGO_TARGET_DIR=$bench_target \
    cargo build --release --quiet --manifest-path benchmark/Cargo.toml --bin "$bin" >&2

exec "$bench_target/release/$bin" \
    --fannr "$root_target/release/fannr" --out-dir benchmark/out "$@"
