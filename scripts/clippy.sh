#!/usr/bin/env sh
# Lint gate: the whole workspace (all targets: libs, bins, tests,
# examples) must be clippy-clean with warnings denied, the
# rustdoc build must be warning-free (crates/core, crates/obs,
# crates/analyze, crates/runtime and crates/server additionally deny
# missing_docs at compile time), the compiled kernel must pass its
# source-level hot-path gate and bitwise differential suite
# (`cargo test --test kernel`, in debug and in release, where the
# strip loops are optimised and auto-vectorised as benchmark/ measures
# them: no HashMap / HashSet / .expect( /
# .unwrap( / Box< / unsafe in crates/runtime/src/kernel.rs, lowered
# results to_bits()-equal to the test-only tree walker), the placement
# ranking must agree with its test-only per-mapping oracle
# (`ranking_matches_per_mapping_oracle`: same fingerprints in the same
# order, same representative mapping, cost and pruned count on every
# placing program x automaton pair), the placement
# crate must stay single-threaded and the one search the default (no
# thread:: / Mutex / Condvar / Atomic in crates/placement/src/, no
# `collapse_deterministic: true` override in any .rs file), the rank
# processes must stay tasks (no mpsc / thread:: / .recv() / Barrier in
# crates/runtime/src/pooled.rs: P ranks run on the W =
# available_parallelism workers of runtime/src/pool.rs, from one
# receive that has to wait to the next, and a rank cannot park a thread
# if it cannot name one), the engines and the model checker must read only the
# schedule tape (no `Stmt::` in runtime/src/{spmd,pooled,overlap}.rs or
# analyze/src/mc.rs, no `Box::pin` in pooled.rs), the recorder sinks must stay four (the
# top-level `impl Recorder for` set under crates/ is MetricsRegistry,
# TimelineRecorder, HbRecorder, FanoutRecorder — one aggregate, and a
# new sink is a design change, not an addition), the engine identity
# must stay one (`syncplace_runtime::Engine` is the only enum that names
# an engine and `Engine::run` / `run_with` the only way to run one: no
# `enum Posting|EngineKind|Wire` and no `pub fn run_spmd*` under
# crates/ — the pooled core, the α/β model, the model checker and the
# protocol all match on `Engine`), the mesh must keep exactly two
# derivations, each called by whoever reads it (`edges_first_seen` for
# edges, `dual_from_facets` for the element dual graph: no
# `Connectivity2d|3d` or `fn connectivity` bundle under crates tests
# examples suite), every per-id table must be an `IdVec` (the one
# per-id table, in syncplace_ir: no HashMap / HashSet keyed by a VarId
# or StmtId under crates/*/src, and none at all in crates/runtime/src or
# crates/codegen/src), a Decomposition must have one assembly site
# (`Decomposition {` under crates/ only in overlap/src/build.rs, whose
# `finish` both builders call), a hot daemon request must only execute
# (the body of `fn run_admitted` in crates/server/src/service.rs names
# none of resolve_program, to_dsl, automaton_for, Bindings::for_mesh,
# synth_inputs, tape::work or Kernel::lower: that work is the cache
# builders' — `place`, `compile_plan`, the text memo's `key_placement`
# — and runs once per miss), the experiments must read no clock
# (crates/bench/src/experiments.rs names no `Instant` and no `elapsed(`:
# `reproduce` prints counts, identities, modeled figures and verdicts,
# so its tables reproduce byte for byte; wall clock is benchmark/'s),
# the workspace must
# stay free of `unsafe` (the keyword opens no block, fn, impl, trait or
# extern under crates suite tests examples), the docs must cite no
# ROADMAP item by number outside ROADMAP.md / CHANGES.md (re-anchors
# renumber the items, so a number goes stale; say the reason), the repo's
# own static analysis (`reproduce lint` — independent placement
# verifier, CommPlan schedule audit, IR lints) must report no
# error-severity diagnostics,
# the E21 profiler must complete a quick run end to end (writing its
# artifacts in a scratch dir), and every `reproduce` subcommand that
# judges what it just computed must exit 0 at --quick scale:
# bench-runtime (coalescing never sends more messages than the per-op
# wire), serve-bench (the telemetry-on and telemetry-off daemons of
# the telemetry-cost pair both serve every request and stop cleanly),
# bench-large ("ci" preset: small meshes, P in {4,8}, same code
# paths — the bitwise
# parallel-vs-sequential check runs for real) and racecheck (schedule
# model checking of all three engines at P <= 3, happens-before replay
# of real recorded runs, both mutation suites: every seeded defect
# caught, zero false positives). Last, a live `syncplace-serve` daemon
# must answer `stats` with a well-formed metric exposition. Nothing
# here is gated on a clock: wall-clock regressions are
# `benchmark/run.sh`'s.
set -eu
cd "$(dirname "$0")/.."
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --test kernel
cargo test -q --release --test kernel
cargo test -q -p syncplace-placement --lib ranking_matches_per_mapping_oracle
if grep -rnE 'thread::|Mutex|Condvar|Atomic' crates/placement/src/; then
    echo "placement gate: crates/placement is single-threaded — one search, no workers"
    exit 1
fi
if grep -rn --include='*.rs' 'collapse_deterministic: true' crates tests examples suite benchmark/src; then
    echo "placement gate: the merged search is SearchOptions::default(); drop the override"
    exit 1
fi
if grep -nE 'mpsc|thread::|\.recv\(\)|Barrier' crates/runtime/src/pooled.rs; then
    echo "runtime gate: a rank is a task on the W-worker pool — pooled.rs names no thread, channel or barrier"
    exit 1
fi
if grep -n 'Stmt::' crates/runtime/src/spmd.rs crates/runtime/src/pooled.rs \
    crates/runtime/src/overlap.rs crates/analyze/src/mc.rs \
    || grep -n 'Box::pin' crates/runtime/src/pooled.rs; then
    echo "tape gate: the engines and the model checker step through plan.tape — lower new control flow in runtime/src/tape.rs"
    exit 1
fi
recorders="$(grep -rhoE --include='*.rs' '^impl[^{]*\bRecorder for [A-Za-z]+' crates | sed 's/.* for //' | sort | tr '\n' ' ')"
if [ "$recorders" != "FanoutRecorder HbRecorder MetricsRegistry TimelineRecorder " ]; then
    echo "obs gate: the Recorder sinks are MetricsRegistry, TimelineRecorder, HbRecorder, FanoutRecorder — found: $recorders"
    exit 1
fi
if grep -rnE --include='*.rs' '\benum (Posting|EngineKind|Wire)\b|\bpub fn run_spmd' crates; then
    echo "engine gate: Engine is the one engine identity and Engine::run / run_with the one run entry — match on it instead"
    exit 1
fi
if grep -rnE --include='*.rs' 'Connectivity[23]d|\.connectivity\(\)|fn connectivity' crates tests examples suite; then
    echo "mesh gate: edges come from edges_first_seen and adjacency from dual_from_facets, derived where read — no all-tables connectivity bundle"
    exit 1
fi
if grep -rnE 'Hash(Map|Set)<(VarId|StmtId|\(StmtId)' crates/*/src \
    || grep -rnE 'Hash(Map|Set)' crates/runtime/src crates/codegen/src; then
    echo "id gate: a table keyed by a VarId or StmtId is an IdVec — indexed, not hashed, iterated in id order"
    exit 1
fi
if grep -rn --include='*.rs' 'Decomposition {' crates | grep -v '^crates/overlap/src/build.rs:'; then
    echo "decomposition gate: overlap::build::finish is the one place a Decomposition is assembled — build through its three steps"
    exit 1
fi
hot="$(awk '/fn run_admitted\(/ { on = 1 } on { print } on && /^    }$/ { exit }' crates/server/src/service.rs)"
if [ -z "$hot" ] || echo "$hot" | grep -nE 'resolve_program|to_dsl|automaton_for|Bindings::for_mesh|synth_inputs|tape::work|Kernel::lower'; then
    echo "hot-path gate: run_admitted only executes — derive it in place / compile_plan / key_placement, once per miss"
    exit 1
fi
if grep -nE 'Instant|elapsed\(' crates/bench/src/experiments.rs; then
    echo "clock gate: reproduce's experiments print what the code computes — wall clock is benchmark/run.sh's"
    exit 1
fi
if grep -rnE --include='*.rs' '\bunsafe[[:space:]]*(\{|fn|impl|trait|extern)' crates suite tests examples; then
    echo "unsafe gate: the workspace has no unsafe code"
    exit 1
fi
# Citation gate: a ROADMAP item number in the docs outlives the item it named.
# It judges grep's output, not its exit status: xargs folds "no match"
# and "a listed file is missing from the worktree" into one failure.
cites="$(git ls-files -z '*.md' | grep -zvE '^(ROADMAP|CHANGES)\.md$|^benchmark/' \
    | xargs -0 grep -snE 'ROADMAP (item )?[0-9]' || true)"
if [ -n "$cites" ]; then
    echo "$cites"
    echo "citation gate: ROADMAP renumbers its items — state the reason instead of the item number"
    exit 1
fi
cargo run --release -p syncplace-bench --bin reproduce -- lint --quick

repo_root="$(pwd)"
scratch="$(mktemp -d)"
serve_pid=""
trap 'if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi; rm -rf "$scratch"' EXIT
(cd "$scratch" && "$repo_root"/target/release/reproduce profile --quick >/dev/null)
echo "profile --quick: ok (artifacts in scratch dir)"
for gate in bench-runtime serve-bench bench-large racecheck; do
    target/release/reproduce "$gate" --quick >"$scratch/$gate.out" || {
        cat "$scratch/$gate.out"
        echo "$gate --quick: FAILED"
        exit 1
    }
    echo "$gate --quick: ok"
done

# CLI telemetry smoke: start a real daemon on a scratch socket, send
# one request, and make `syncplace-serve stats` prove the exposition
# is well-formed (the CLI exits nonzero on a malformed one) and that
# the request counter actually counted.
cargo build --release -p syncplace-server --bin syncplace-serve --quiet
serve="$repo_root/target/release/syncplace-serve"
sock="$scratch/serve-smoke.sock"
"$serve" start --socket "$sock" 2>"$scratch/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
done
[ -S "$sock" ] || { echo "serve smoke: daemon never bound $sock"; cat "$scratch/serve.log"; exit 1; }
"$serve" req '{"op":"run","program":"testiv","mesh":{"nx":8,"ny":8,"perturb":0.0,"seed":1},"pattern":"fig1","p":4,"engine":"batched"}' --socket "$sock" >/dev/null
expo="$("$serve" stats --socket "$sock")"
echo "$expo" | grep -q 'syncplace_counter{key="server.requests"} 1' || {
    echo "serve smoke: exposition is missing the request counter"
    echo "$expo"
    exit 1
}
"$serve" stop --socket "$sock" >/dev/null
wait "$serve_pid" || true
serve_pid=""
echo "serve smoke: ok (stats exposition validated against a live daemon)"
