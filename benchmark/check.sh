#!/usr/bin/env bash
# Lint and unit-test the benchmark crate itself: rustfmt, clippy with
# warnings denied (the crate forbids unsafe code), and its own tests —
# percentile picker, span self time, seed -> input determinism, and
# metrics.rs == BENCHMARK.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
