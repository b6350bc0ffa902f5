#!/bin/sh
# Alternating parent/PR pairs of one benchmark workload: the host-time
# procedure of the standing rule in docs/benchmarks.md.
#
# Each pair runs `run --workload W --trace 0 --trace-seed 0x6d6c616b65` on
# both built benchmark binaries, the side that runs first alternating from
# pair to pair (the parent first in odd pairs). Per side it prints the
# median [q1..q3] of `host_ns_per_op` and `setup_s`, with the quartiles of
# the benchmark's own statistics (Python's exclusive method), and in how
# many pairs the PR read lower. A run that fails exits the script.
#
# Usage: scripts/pairs.sh PARENT_BIN PR_BIN WORKLOAD [N=10]
#
# PARENT_BIN and PR_BIN are `<target>/release/benchmark` built from each
# tree. The script only runs them; their result files go to a temporary
# directory, never under `benchmark/`.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_BIN PR_BIN WORKLOAD [N=10]" >&2
    exit 2
fi
parent=$1
pr=$2
workload=$3
n=${4:-10}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run SIDE BIN PAIR: one run, its two host metrics appended to SIDE's file.
run() {
    line=$("$2" run --workload "$workload" --trace 0 --trace-seed 0x6d6c616b65 \
        --out "$out/$1-$3.json" | tail -n 1)
    host=$(echo "$line" | sed -n 's/.*"host_ns_per_op": {"value": \([^,}]*\).*/\1/p')
    setup=$(echo "$line" | sed -n 's/.*"setup_s": {"value": \([^,}]*\).*/\1/p')
    if [ -z "$host" ] || [ -z "$setup" ]; then
        echo "$1 run $3 printed no metrics: $line" >&2
        exit 1
    fi
    echo "$3 $host $setup" >>"$out/$1"
}

i=1
while [ "$i" -le "$n" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run pr "$pr" "$i"
    else
        run pr "$pr" "$i"
        run parent "$parent" "$i"
    fi
    i=$((i + 1))
done

# summary COLUMN SIDE: "median [q1..q3]" of one metric over SIDE's runs.
summary() {
    cut -d' ' -f"$1" "$out/$2" | sort -g | awk '
        { v[NR] = $1 }
        function cut(i,    m, j, d) {
            m = NR + 1
            j = int(i * m / 4)
            if (j < 1) j = 1
            if (j > NR - 1) j = NR - 1
            d = i * m - j * 4
            return (v[j] * (4 - d) + v[j + 1] * d) / 4
        }
        END {
            if (NR == 1) { printf "%.6g [%.6g..%.6g]", v[1], v[1], v[1]; exit }
            printf "%.6g [%.6g..%.6g]", cut(2), cut(1), cut(3)
        }'
}

# lower COLUMN: pairs in which the PR's value is below the parent's.
lower() {
    sort -n "$out/parent" | cut -d' ' -f"$1" >"$out/a"
    sort -n "$out/pr" | cut -d' ' -f"$1" >"$out/b"
    paste -d' ' "$out/a" "$out/b" | awk '$2 < $1 { k++ } END { print k + 0 }'
}

echo "$workload, $n alternating pairs"
for metric in "2 host_ns_per_op" "3 setup_s"; do
    col=${metric%% *}
    name=${metric#* }
    echo "$name: parent $(summary "$col" parent) -> PR $(summary "$col" pr)," \
        "PR lower in $(lower "$col")/$n"
done
