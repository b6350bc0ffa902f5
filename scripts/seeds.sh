#!/bin/sh
# Parent → PR exact end-to-end rows of one benchmark workload, per seed: the
# held-out-seed procedure of the standing rule in docs/benchmarks.md.
#
# Per seed it runs `run --workload W --trace 0 --seed S` once on each built
# benchmark binary and prints, parent → PR, the four exact end-to-end
# metrics (`sim_stall_ns_per_op`, `peak_reserved_bytes`, `utilization`,
# `reserved_vs_caching`, with the relative change) and the failed and
# attempted ops. These metrics are simulated or counted, so one run per side
# is exact; host time needs scripts/pairs.sh. A run that fails exits the
# script.
#
# Usage: scripts/seeds.sh PARENT_BIN PR_BIN WORKLOAD SEED...
#
# PARENT_BIN and PR_BIN are `<target>/release/benchmark` built from each
# tree. A seed is decimal or 0x-prefixed hex; the training traces' size
# jitter follows it. The script only runs the binaries; their result files
# go to a temporary directory, never under `benchmark/`.
set -eu

if [ $# -lt 4 ]; then
    echo "usage: $0 PARENT_BIN PR_BIN WORKLOAD SEED..." >&2
    exit 2
fi
parent=$1
pr=$2
workload=$3
shift 3

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run BIN SEED: one run's final line, the result record.
run() {
    line=$("$1" run --workload "$workload" --trace 0 --seed "$2" \
        --out "$out/result.json" | tail -n 1)
    case $line in
    *'"sim_stall_ns_per_op"'*) echo "$line" ;;
    *)
        echo "$1 --seed $2 printed no metrics: $line" >&2
        exit 1
        ;;
    esac
}

# field LINE NAME: a metric's value, or a top-level count, from a record.
field() {
    v=$(echo "$1" | sed -n "s/.*\"$2\": {\"value\": \([^,}]*\).*/\1/p")
    [ -n "$v" ] || v=$(echo "$1" | sed -n "s/.*\"$2\": \([^,}]*\).*/\1/p")
    echo "$v"
}

echo "$workload, parent -> PR, one run per side and seed"
for seed in "$@"; do
    a=$(run "$parent" "$seed")
    b=$(run "$pr" "$seed")
    echo "--seed $seed"
    for metric in sim_stall_ns_per_op peak_reserved_bytes utilization reserved_vs_caching; do
        echo "$metric $(field "$a" "$metric") $(field "$b" "$metric")" | awk '{
            d = ($2 == 0) ? 0 : ($3 - $2) / $2 * 100
            printf "  %-20s %.17g -> %.17g (%+.3f %%)\n", $1, $2, $3, d
        }'
    done
    echo "  failed/attempted     $(field "$a" failed)/$(field "$a" attempted) ->" \
        "$(field "$b" failed)/$(field "$b" attempted)"
done
