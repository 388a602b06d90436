#!/usr/bin/env bash
# Layout probe: the same sources built in K sibling directories whose
# paths differ in length, each running the benchmark's solve-compute
# workload RUNS times. Code whose speed depends on where the linker put
# it shows as a wide max/min spread of the per-copy medians of op_ms_min.
#
#   scripts/layout_spread.sh [K]      K copies of HEAD (default 5)
#
# The copies go under $LAYOUT_DIR (default: a new `mktemp -d`). Each
# builds the benchmark crate in its own benchmark/target through
# benchmark/run.sh (CARGO_TARGET_DIR is unset, so no two copies share a
# build). Nothing in the checkout is edited.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
unset CARGO_TARGET_DIR
readonly RUNS=4
k="${1:-5}"
base="${LAYOUT_DIR:-$(mktemp -d)}"
echo "layout spread: $k copies of $(git rev-parse --short HEAD) under $base, $RUNS runs each"
pad=""
medians=""
for i in $(seq 1 "$k"); do
    dir="$base/copy$i$pad"
    pad="${pad}_padding"
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive HEAD | tar -x -C "$dir"
    runs=""
    for _ in $(seq 1 "$RUNS"); do
        ms=$(bash "$dir/benchmark/run.sh" --workload solve-compute --seed 1 --trace 0 |
            grep -o '"op_ms_min":{"value":[0-9.eE+-]*' | sed 's/.*://')
        runs="$runs $ms"
    done
    median=$(echo "$runs" | tr ' ' '\n' | grep . | sort -g |
        awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }')
    echo "copy $i  path ${#dir} chars  op_ms_min$runs ms  median $median ms"
    medians="$medians $median"
done
echo "$medians" | awk '{ lo = hi = $1; for (i = 2; i <= NF; i++) { if ($i < lo) lo = $i; if ($i > hi) hi = $i }
    printf "per-copy medians: min %.2f ms  max %.2f ms  max/min %.3f\n", lo, hi, hi / lo }'
