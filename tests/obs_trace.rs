//! Observability-layer acceptance tests.
//!
//! * The batched engine's **recorded** per-pair packet counts must
//!   equal the structural bound derived from its [`CommPlan`]: each
//!   phase ships at most one round-1 and one round-2 packet per
//!   ordered pair, and every phase inside the time loop executes once
//!   per iteration. The pair matrix holds only `C$SYNCHRONIZE` phase
//!   traffic (the exit-test tree lands under `exit.*` counters), so
//!   the comparison is exact, not an inequality.
//! * The ranks of a gang share one recorder, whichever of the W pool
//!   workers runs them; their counters must aggregate to exactly the
//!   schedule-derived totals.
//! * Every run is recorded by a `MetricsRegistry` over `keys::ALL` and
//!   ends with `dropped == 0`: the vocabulary covers everything the
//!   engines, the pool and the search emit.

use std::sync::Arc;
use syncplace::obs::{keys, MetricsRegistry, MetricsSnapshot, RecorderRef};
use syncplace::prelude::*;
use syncplace::runtime::tape::{Cursor, Op};
use syncplace::runtime::CommPlan;
use syncplace::Engine;
use syncplace_suite::fixed_iteration_testiv;

/// Run `f` under a fresh registry over the whole key vocabulary and
/// hand back its result with the snapshot, which must have dropped
/// nothing.
fn recorded<T>(f: impl FnOnce(&RecorderRef) -> T) -> (T, MetricsSnapshot) {
    let reg = Arc::new(MetricsRegistry::new(keys::ALL));
    let out = f(&Some(reg.clone()));
    let snap = reg.snapshot();
    assert_eq!(snap.dropped, 0, "an emitted key is missing from keys::ALL");
    (out, snap)
}

/// The per-ordered-pair packet counts a pooled run of `iters` fixed
/// iterations must record, derived from the [`CommPlan`] alone: each
/// phase contributes one packet per peer its round-1 and round-2 lists
/// name (plus one per binomial-tree edge per direction when it
/// reduces), times the phase's completions on the tape over the whole
/// run (its time loop capped at `iters`, no exit taken).
fn expected_pair_packets(plan: &CommPlan, iters: usize) -> Vec<Vec<u64>> {
    let ops = plan.ops().unwrap();
    let capped = ops.iter().any(|op| matches!(op, Op::Head { max, .. } if *max == iters));
    assert!(capped, "TESTIV's time loop runs {iters} iterations");
    let mut phase_mult = vec![0u64; plan.phases.len()];
    for op in Cursor::new(ops) {
        if let Op::Complete(k) = op {
            phase_mult[*k] += 1;
        }
    }
    let p = plan.nparts;
    let mut expected = vec![vec![0u64; p]; p];
    for (ph, &mult) in plan.phases.iter().zip(&phase_mult) {
        for (from, rp) in ph.ranks.iter().enumerate() {
            let mut to: Vec<u32> = rp.send1.iter().chain(&rp.send2).map(|s| s.peer).collect();
            // Reducing phases add one packet per edge of the plan's
            // binomial tree per direction (partial up, total down).
            if !rp.reduces.is_empty() {
                let tree = &plan.wiring.ranks[from];
                to.extend(tree.parent);
                to.extend(&tree.children);
            }
            for q in to {
                expected[from][q as usize] += mult;
            }
        }
    }
    expected
}

#[test]
fn batched_recorded_packets_match_commplan_structural_bound() {
    const ITERS: usize = 5;
    let (prog, bindings, mesh, spmd) = fixed_iteration_testiv(ITERS, 9);

    for p in [2usize, 4, 8] {
        let part = partition2d(&mesh, p, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let plan = Arc::new(CommPlan::build(&prog, &spmd, &d));
        let expected = expected_pair_packets(&plan, ITERS);

        let (res, snap) = recorded(|rec| {
            Engine::Batched
                .run_with(&prog, &spmd, &d, &bindings, Some(&plan), rec)
                .unwrap()
        });
        assert_eq!(res.iterations, ITERS, "eps=0 run is fixed-length");
        assert_eq!(snap.counter(keys::ITERATIONS), ITERS as u64);

        for (from, row) in expected.iter().enumerate() {
            for (to, &want) in row.iter().enumerate() {
                assert_eq!(
                    snap.pair(from as u32, to as u32).packets,
                    want,
                    "P={p}: recorded packets {from}->{to} != CommPlan structural bound"
                );
            }
        }
        // The whole-matrix totals agree too. TESTIV's test reads the
        // reduced `sqrdiff` and the input `epsilon`, so the plan proves
        // it replicated and no exit agreement runs at all.
        let total_expected: u64 = expected.iter().flatten().sum();
        assert_eq!(snap.total_packets(), total_expected);
        let ops = plan.ops().unwrap();
        assert!(!ops.iter().any(|op| matches!(op, Op::Exit { agree: true, .. })));
        assert_eq!(snap.counter(keys::EXIT_MESSAGES), 0);
        assert_eq!(snap.counter(keys::EXIT_VALUES), 0);
    }
}

#[test]
fn pool_workers_aggregate_counters_into_one_recorder() {
    const ITERS: usize = 4;
    let (prog, bindings, mesh, spmd) = fixed_iteration_testiv(ITERS, 9);
    let p = 4usize;
    let part = partition2d(&mesh, p, Method::Greedy);
    let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
    let plan = Arc::new(CommPlan::build(&prog, &spmd, &d));

    let (res, pooled) = recorded(|rec| {
        Engine::Batched
            .run_with(&prog, &spmd, &d, &bindings, Some(&plan), rec)
            .unwrap()
    });

    // Every rank records its own sends from whichever worker runs it;
    // the shared recorder must hold exactly the schedule-derived gang
    // total — nothing lost, nothing counted twice.
    let expected = expected_pair_packets(&plan, ITERS);
    for (from, row) in expected.iter().enumerate() {
        for (to, &want) in row.iter().enumerate() {
            assert_eq!(pooled.pair(from as u32, to as u32).packets, want, "{from}->{to}");
        }
    }
    for (key, want) in [
        (keys::COMM_MESSAGES, res.stats.total_messages()),
        (keys::COMM_VALUES, res.stats.total_values()),
        (keys::UPDATES, res.stats.updates),
        (keys::REDUCES, res.stats.reduces),
        // The proven exit test runs no agreement tree.
        (keys::EXIT_MESSAGES, 0),
        (keys::EXIT_VALUES, 0),
        (keys::ITERATIONS, ITERS),
    ] {
        assert_eq!(pooled.counter(key), want as u64, "{key}");
    }
    assert_eq!(pooled.total_packets(), res.stats.total_messages() as u64);
    assert_eq!(pooled.total_pair_values(), res.stats.total_values() as u64);
    assert_eq!(pooled.counter(keys::BYTES_STAGED), 8 * pooled.total_pair_values());
    assert!(pooled.counter(keys::BYTES_STAGED) > 0);

    // Pool-level gauges: one gang of P jobs on W workers, W set by the
    // host and never by P.
    assert_eq!(pooled.counter(keys::POOL_GANGS), 1);
    assert_eq!(pooled.counter(keys::POOL_JOBS), p as u64);
    assert_eq!(pooled.gauge(keys::POOL_GANG_RANKS), p as u64);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!((1..=cpus as u64).contains(&pooled.gauge(keys::POOL_WORKERS)));
    let peak = pooled.gauge(keys::POOL_QUEUE_PEAK);
    assert!((1..=p as u64).contains(&peak), "queue peak {peak}");
    assert!(pooled.span(keys::POOL_GANG_SPAN).is_some());
}

#[test]
fn round_robin_pair_values_match_the_pooled_wire() {
    // The round-robin engine records the plan's packets on one
    // thread; the pooled engines really ship them. With a recorder
    // attached both account the same packets and values on every
    // ordered pair.
    let (prog, bindings, mesh, spmd) = fixed_iteration_testiv(3, 9);
    for p in [2usize, 4] {
        let part = partition2d(&mesh, p, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let snapshot_of = |engine: Engine| {
            recorded(|rec| {
                engine
                    .run_with(&prog, &spmd, &d, &bindings, None, rec)
                    .unwrap()
            })
            .1
        };
        let rr = snapshot_of(Engine::RoundRobin);
        let ba = snapshot_of(Engine::Batched);
        assert_eq!(
            rr.pairs.keys().collect::<Vec<_>>(),
            ba.pairs.keys().collect::<Vec<_>>(),
            "P={p}: talking pairs differ"
        );
        for (pair, sim) in &rr.pairs {
            let real = ba.pairs[pair];
            assert_eq!(sim.values, real.values, "P={p} {pair:?}: simulated wire != real wire");
            assert_eq!(sim.packets, real.packets, "P={p} {pair:?}");
        }
    }
}

#[test]
fn search_counters_reflect_analysis_stats() {
    let prog = syncplace::ir::programs::testiv();
    let dfg = syncplace::dfg::build(&prog);
    let (analysis, snap) = recorded(|rec| {
        syncplace::placement::analyze_recorded(
            &prog,
            &dfg,
            &fig6(),
            &SearchOptions::default(),
            &CostParams::default(),
            rec,
        )
    });
    assert_eq!(snap.counter(keys::SEARCH_VISITS), analysis.stats.visits);
    assert_eq!(
        snap.counter(keys::SEARCH_BACKTRACKS),
        analysis.stats.backtracks
    );
    assert_eq!(
        snap.counter(keys::SEARCH_SOLUTIONS),
        analysis.solutions.len() as u64
    );
    assert!(snap.span(keys::SEARCH_SPAN).is_some());
}
