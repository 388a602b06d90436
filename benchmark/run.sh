#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark crate (release,
# offline, its own workspace) and dispatches:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's interface)
#   run.sh [--seed N] [--seconds S]                        all workloads, untraced + traced,
#                                                          each in a fresh process -> out/results.json
#   run.sh --smoke                                         one pass per workload, validates results.json
#   run.sh compare A.json B.json                           two result files against the declared bounds
#
# Run from anywhere; it works from the repo root so every path it touches
# stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The driver sets CARGO_TARGET_DIR (relative to the checkout root).
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/syncplace-benchmark"

case "${1:-}" in
compare) shift; exec "$bin" compare "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@"
    fi
done
exec "$bin" suite "$@"
