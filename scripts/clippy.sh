#!/usr/bin/env sh
# Lint gate. Every gate below must pass; none is gated on a clock
# (wall-clock regressions are benchmark/run.sh's). One line per gate:
# - rustdoc: the workspace docs build with warnings denied (core, obs, analyze, runtime and server also deny missing_docs).
# - clippy: the whole workspace, all targets (libs, bins, tests, examples), with warnings denied.
# - kernel: `cargo test --test kernel` in debug and release: no HashMap / HashSet / .expect( / .unwrap( / Box< / unsafe in runtime/src/kernel.rs, results to_bits()-equal to the test-only tree walker.
# - million-element smoke: decomp_equivalence's `--ignored` test (10^6 elements, P = 128) passes in release.
# - ranking oracle: `ranking_matches_per_mapping_oracle` (same fingerprints, order, representative, cost and pruned count).
# - dedupe: `distinct_search_is_enumerate_deduped` (the deduping search is `enumerate` with repeats dropped).
# - placement: crates/placement/src names no thread:: / Mutex / Condvar / Atomic, and no .rs file sets `collapse_deterministic: true`.
# - rank task: crates/runtime/src/pooled.rs names no mpsc / thread:: / .recv() / Barrier (ranks are tasks on the W-worker pool).
# - tape: no `Stmt::` in runtime/src/{spmd,pooled,overlap}.rs or analyze/src/mc.rs, no `Box::pin` in pooled.rs.
# - peer list: no send1_len / has_recv1 / send2_len / PackItem / plan.before / plan.at_end under crates tests examples suite, no `for … in 0..self.nparts` in pooled.rs.
# - wiring: pooled.rs names no sort_unstable / dedup / BTreeMap / reduce_tree_parent / reduce_tree_children (the CommPlan's Wiring is built once with the plan).
# - schedule: no `Vec<Vec<Vec<` or `nparts * nparts` under crates/{overlap,runtime,inspector}/src; no GhostSchedule or scatter_/gather_{node,elem,edge}_array under crates tests examples suite.
# - assembly: no AssembleSchedule / node_assemble / OwnGroup / own_groups / `Term::` under crates tests examples suite (an assembly reduces and broadcasts along the node copy schedule).
# - one copy loop: crates/runtime/src names no apply_update / apply_assemble / apply_reduce / record_packet / apply_comms (every engine runs the CommPlan).
# - obs: the top-level `impl Recorder for` set under crates/ is exactly MetricsRegistry, TimelineRecorder, HbRecorder, FanoutRecorder.
# - engine: no `enum Posting|EngineKind|Wire` and no `pub fn run_spmd` under crates/ (Engine and Engine::run / run_with are the one identity and entry).
# - mesh: no `Connectivity2d|3d`, `.connectivity()` or `fn connectivity` under crates tests examples suite (the mesh numbers its edges once, on first read).
# - edge numbering: `edges_first_seen(` appears only under crates/mesh/src.
# - id: no HashMap / HashSet keyed by a VarId or StmtId under crates/*/src, none at all in crates/runtime/src or crates/codegen/src.
# - decomposition: `Decomposition {` under crates/ only in overlap/src/build.rs, whose `finish` both builders call.
# - hot path: the body of `fn run_admitted` in server/src/service.rs names no resolve_program / to_dsl / automaton_for / Bindings::for_mesh / synth_inputs / tape::work / Kernel::lower.
# - search: the bodies of `fn go`, `fn next_unassigned`, `fn set_arrow` and `fn set_field` in placement/src/search.rs name no Vec::new / vec! / .collect( / .to_vec(.
# - visit: the bodies of `fn go`, `fn forced_step` and `fn run` there name no partition_point / binary_search / from_on.
# - rank: the body of `fn rank` in placement/src/lib.rs names no `.fingerprint()` and no `format!`.
# - clock: bench/src/experiments.rs names no `Instant` and no `elapsed(`.
# - unsafe: the keyword opens no block, fn, impl, trait or extern under crates suite tests examples.
# - citation: no tracked .md outside ROADMAP.md, CHANGES.md and benchmark/ cites a ROADMAP item by number.
# - lint: `reproduce lint --quick` (placement verifier, CommPlan audit, IR lints) reports no error.
# - profile: `reproduce profile --quick` completes, writing its artifacts in a scratch dir.
# - self-judging experiments: bench-runtime, serve-bench, bench-large and racecheck exit 0 at --quick.
# - serve smoke: a live syncplace-serve daemon answers `stats` with a well-formed exposition that counted the request.
set -eu
cd "$(dirname "$0")/.."
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --test kernel
cargo test -q --release --test kernel
cargo test -q --release -p syncplace-runtime --test decomp_equivalence -- --ignored
cargo test -q -p syncplace-placement --lib ranking_matches_per_mapping_oracle
cargo test -q -p syncplace-placement --lib distinct_search_is_enumerate_deduped
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
if grep -rnE --include='*.rs' '\b(send1_len|has_recv1|send2_len|PackItem)\b|plan\.(before|at_end)\b' \
    crates tests examples suite \
    || grep -nE 'for .* in \(?0\.\.self\.nparts' crates/runtime/src/pooled.rs; then
    echo "peer-list gate: a RankPhase lists the peers a rank exchanges with and the tape says where a phase completes — no dense per-rank tables, no 0..nparts scan per phase"
    exit 1
fi
if grep -nE 'sort_unstable|dedup|BTreeMap|reduce_tree_(parent|children)' crates/runtime/src/pooled.rs; then
    echo "wiring gate: a run derives no wiring — the CommPlan's Wiring names the pairs, links, staging caps and binomial tree, built once with the plan"
    exit 1
fi
if grep -rnE --include='*.rs' 'Vec<Vec<Vec<|nparts \* nparts' \
    crates/overlap/src crates/runtime/src crates/inspector/src \
    || grep -rnE --include='*.rs' '\bGhostSchedule\b|\b(scatter|gather)_(node|elem|edge)_array\b' \
    crates tests examples suite; then
    echo "schedule gate: an update schedule is a list of messages, readers ask the Decomposition by kind and the wire has only the pairs that talk — no P x P tables, no second schedule type, no per-kind scatter/gather"
    exit 1
fi
if grep -rnE --include='*.rs' '\b(AssembleSchedule|node_assemble|OwnGroup|own_groups)\b|\bTerm::' \
    crates tests examples suite; then
    echo "assembly gate: a node-overlap assembly reduces along the node copy schedule and broadcasts back — no group schedule, no group recipes"
    exit 1
fi
if grep -rnE --include='*.rs' '\b(apply_update|apply_assemble|apply_reduce|record_packet|apply_comms)\b' crates/runtime/src; then
    echo "copy-loop gate: every engine, round-robin included, runs the CommPlan's recipes — no per-op collectives in the runtime"
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
    echo "mesh gate: the mesh numbers its edges once, on first read — no all-tables connectivity bundle"
    exit 1
fi
if grep -rn --include='*.rs' 'edges_first_seen(' crates tests examples suite | grep -v '^crates/mesh/src/'; then
    echo "edge-numbering gate: edges_first_seen is the mesh's own; read mesh.edges() instead of numbering edges again"
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
steps="$(awk '/fn (go|next_unassigned|set_arrow|set_field)\(/ { on = 1 } on { print } on && /^    }$/ { on = 0 }' crates/placement/src/search.rs)"
if [ "$(echo "$steps" | grep -cE 'fn (go|next_unassigned|set_arrow|set_field)\(')" != 4 ] \
    || echo "$steps" | grep -nE 'Vec::new|vec!|\.collect\(|\.to_vec\('; then
    echo "search gate: a search step and a seen signature allocate nothing — build tables in Search::seeded, reuse the trail and obligation stacks"
    exit 1
fi
visit="$(awk '/fn (go|forced_step|run)\(/ { on = 1 } on { print } on && /^    }$/ { on = 0 }' crates/placement/src/search.rs)"
if [ "$(echo "$visit" | grep -cE 'fn (go|forced_step|run)\(')" != 3 ] \
    || echo "$visit" | grep -nE 'partition_point|binary_search|from_on'; then
    echo "visit gate: a search visit looks its transitions up — read the (state, class) run table Search::seeded built"
    exit 1
fi
rank="$(awk '/^fn rank\(/ { on = 1 } on { print } on && /^}$/ { exit }' crates/placement/src/lib.rs)"
if [ -z "$rank" ] || echo "$rank" | grep -nE '\.fingerprint\(\)|format!'; then
    echo "rank gate: ranking formats nothing per placement — assemble the fingerprint from the extractor's memoised pieces"
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
