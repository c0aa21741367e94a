#!/usr/bin/env bash
# The whole benchmark for one seed: the five workloads end to end, then
# the traced run of each, into one results file that
# `fannr-bench compare` reads.
#
#   benchmark/run.sh [--seed S] [--runs K] [--seconds N] [--out FILE]
#
# --runs K repeats every end-to-end run K times (K >= 3 gives `compare`
# quartiles to work with). Exits non-zero if any run fails or answers
# wrongly.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

seed=1 runs=1 seconds=10 out=""
while [[ $# -gt 0 ]]; do
    case $1 in
        --seed) seed=$2 ;;
        --runs) runs=$2 ;;
        --seconds) seconds=$2 ;;
        --out) out=$2 ;;
        *) echo "usage: benchmark/run.sh [--seed S] [--runs K] [--seconds N] [--out FILE]" >&2; exit 2 ;;
    esac
    shift 2
done
out=${out:-benchmark/out/results_seed${seed}.json}
mkdir -p "$(dirname "$out")"

workloads=(uniform_indexed hot_cached index_free mixed_updates routed_clustered)
rows=()
status=0
one() { # workload trace
    local output result
    if ! output=$(benchmark/bench.sh --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2"); then
        status=1
    fi
    # The table goes to stderr, the last line (the result) into the file.
    printf '%s\n' "$output" >&2
    result=${output##*$'\n'}
    if [[ $result == "{"* ]]; then
        rows+=("{\"workload\": \"$1\", \"seed\": $seed, \"trace\": $2, ${result#\{}")
    else
        status=1
    fi
}
for w in "${workloads[@]}"; do
    for ((k = 0; k < runs; k++)); do one "$w" 0; done
done
for w in "${workloads[@]}"; do one "$w" 1; done

{
    echo "{\"seed\": $seed, \"seconds\": $seconds, \"runs\": ["
    for ((i = 0; i < ${#rows[@]}; i++)); do
        sep=","
        ((i == ${#rows[@]} - 1)) && sep=""
        echo "${rows[i]}$sep"
    done
    echo "]}"
} > "$out"
echo "wrote $out" >&2
exit $status
