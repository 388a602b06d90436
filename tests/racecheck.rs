//! Concurrency verification end-to-end: the schedule model checker
//! proves both pooled engines' schedules correct on the paper's Fig. 9
//! / Fig. 10 TESTIV placements at small P (round-robin runs on one
//! thread: it has no interleaving to prove), the happens-before checker
//! replays real recorded runs of every engine cleanly, and both catch
//! every seeded defect with the exact SA code — zero false positives on
//! clean runs.

use std::sync::Arc;

use syncplace::analyze::{hb, mc};
use syncplace::automata::predefined::fig7;
use syncplace::obs::{HbRecorder, RecorderRef};
use syncplace::overlap::Pattern;
use syncplace::prelude::*;
use syncplace::runtime::tape::Op;
use syncplace::runtime::CommPlan;
use syncplace_bench::setup;

/// The engines whose ranks interleave: the model checker's subjects.
const POOLED: [Engine; 2] = [Engine::Batched, Engine::Overlapped];

/// Fig. 9 (solution 0) and Fig. 10 (head-of-time-loop update) plans
/// for TESTIV at `nparts`, under the given overlap pattern.
fn fig_plans(nparts: usize, pattern: Pattern) -> Vec<(String, CommPlan)> {
    let s = setup::testiv(9, 1e-3, &fig6());
    let fig10 = setup::fig10_style_index(&s).expect("fig10-style solution exists");
    [(0usize, "fig9"), (fig10, "fig10")]
        .iter()
        .map(|&(idx, label)| {
            let (d, spmd) = setup::decompose(&s, nparts, pattern, idx);
            let plan = CommPlan::build(&s.prog, &spmd, &d);
            (format!("{label}:{}:P{nparts}", pattern.name()), plan)
        })
        .collect()
}

/// The Fig. 2 row for TESTIV at `nparts`: a node-overlap (fig. 7)
/// placement on a node-overlap decomposition, whose plan assembles.
fn fig2_plan(nparts: usize) -> (String, CommPlan) {
    let s = setup::testiv(9, 1e-3, &fig7());
    let (d, spmd) = setup::decompose(&s, nparts, Pattern::FIG2, 0);
    let plan = CommPlan::build(&s.prog, &spmd, &d);
    assert!(plan.phases.iter().any(|ph| ph.assembles > 0), "P{nparts}: no assembling phase");
    (format!("fig7:{}:P{nparts}", Pattern::FIG2.name()), plan)
}

/// Model-check sweeps stay tractable: deeper sweeps at small P, a
/// single sweep at P = 4.
fn sweeps_for(nparts: usize) -> usize {
    if nparts <= 3 {
        2
    } else {
        1
    }
}

#[test]
fn model_checker_proves_both_pooled_engines_on_fig9_and_fig10() {
    // Both overlap patterns: Fig. 1 rows from the fig. 6 placements,
    // Fig. 2 rows from a fig. 7 placement, whose phases assemble.
    let fig1 = [2usize, 3, 4].map(|n| fig_plans(n, Pattern::FIG1).into_iter().map(move |r| (n, r)));
    let fig2 = [2usize, 3].map(|n| (n, fig2_plan(n)));
    for (nparts, (label, plan)) in fig1.into_iter().flatten().chain(fig2) {
        for engine in POOLED {
            let out = mc::check_plan(&plan, engine, sweeps_for(nparts));
            assert!(
                out.report.is_clean(),
                "{label} {}: {}",
                engine.name(),
                out.report
                    .diags
                    .first()
                    .map(|d| d.to_string())
                    .unwrap_or_default()
            );
            assert!(!out.stats.capped, "{label} {}: capped", engine.name());
            assert!(out.stats.terminals > 0, "{label} {}", engine.name());
            assert_eq!(
                out.stats.distinct_signatures,
                1,
                "{label} {}: nondeterministic",
                engine.name()
            );
        }
    }
}

#[test]
fn model_checker_reduction_beats_naive_enumeration() {
    // At P = 4 plenty of transitions commute; the sleep sets must
    // prune a meaningful fraction of the naive branching.
    let (label, plan) = fig_plans(4, Pattern::FIG1).remove(0);
    let out = mc::check_plan(&plan, Engine::Batched, 1);
    assert!(out.report.is_clean(), "{label}");
    assert!(
        out.stats.reduction_ratio() < 0.9,
        "{label}: ratio {}",
        out.stats.reduction_ratio()
    );
}

#[test]
fn every_seeded_schedule_defect_is_caught_with_its_exact_code() {
    // The mutation suite covers both pooled engines once at P = 3 —
    // staged (batched) and double-buffered split-phase (overlapped).
    let plans = fig_plans(3, Pattern::FIG1);
    let programs = POOLED.map(|engine| mc::from_plan(&plans[0].1, engine, 2));

    let mut seeded = 0usize;
    for base in &programs {
        for (mutation, expect) in mc::default_mutations(base) {
            let mut broken = base.clone();
            assert!(
                mutation.apply(&mut broken),
                "{}: {mutation:?} inapplicable",
                base.label
            );
            let out = mc::check(&broken);
            assert!(
                out.report.has_code(expect),
                "{}: {mutation:?} expected {expect}, got {:?}",
                base.label,
                out.report.codes()
            );
            assert!(
                !out.counterexample.is_empty(),
                "{}: {mutation:?} no counterexample",
                base.label
            );
            seeded += 1;
        }
    }
    assert!(seeded >= 10, "only {seeded} seeded defects");
}

/// Fig. 10 at P = 3 has two phases in the time loop (an update posted
/// early, a pure reduction) and one after it, fed by a producer split.
/// The overlapped model walks that tape: the looped phases repeat per
/// sweep, the after-loop phase completes once, after both sweeps, and
/// a post and its completion have only compute between them, so every
/// round-1 send sits right before its phase's round-1 receives.
#[test]
fn overlapped_model_follows_the_tape_on_fig10() {
    let n = 3;
    let s = setup::testiv(9, 1e-3, &fig6());
    let fig10 = setup::fig10_style_index(&s).expect("fig10-style solution exists");
    let (d, spmd) = setup::decompose(&s, n, Pattern::FIG1, fig10);
    let plan = CommPlan::build(&s.prog, &spmd, &d);
    let Some(&Op::Complete(end)) = plan.ops().unwrap().last() else {
        panic!("fig10 completes a phase after the time loop");
    };
    let [one, two] = [1, 2].map(|sweeps| mc::from_plan(&plan, Engine::Overlapped, sweeps));
    let parts = |o: &mc::McOp| match *o {
        mc::McOp::Send { tag, .. } | mc::McOp::Recv { expect: tag, .. } => Some(mc::tag_parts(tag, n)),
        _ => None,
    };
    let count = |p: &mc::McProgram, r: usize, k: usize| {
        p.ops[r].iter().filter(|o| parts(o).map(|x| x.0) == Some(k)).count()
    };
    for r in 0..n {
        assert!(count(&one, r, end) > 0, "rank {r} takes part in phase {end}");
        assert_eq!(count(&two, r, end), count(&one, r, end), "rank {r}: phase {end} once");
        for k in (0..plan.phases.len()).filter(|&k| k != end) {
            assert_eq!(count(&two, r, k), 2 * count(&one, r, k), "rank {r}: phase {k} per sweep");
        }
        let ops = &two.ops[r];
        let looped = ops.iter().rposition(|o| matches!(parts(o), Some((k, _)) if k != end));
        let after = ops.iter().position(|o| matches!(parts(o), Some((k, _)) if k == end));
        assert!(looped < after, "rank {r}: phase {end} before the last sweep ends");
        for (i, o) in ops.iter().enumerate() {
            let (mc::McOp::Send { tag, .. }, Some(next)) = (o, ops.get(i + 1)) else {
                continue;
            };
            let (k, round) = mc::tag_parts(*tag, n);
            if round == mc::R1 {
                let same = matches!(parts(next), Some((k2, r2)) if k2 == k && r2 == mc::R1);
                assert!(same, "rank {r}: phase {k}'s sends and receives are apart: {next:?}");
            }
        }
    }
    let out = mc::check(&two);
    assert!(out.report.is_clean(), "{}", out.report);
}

/// The §6 error of `exit_agreement_on_the_tree_matches_round_robin_when_ranks_disagree`
/// (`tests/runtime_engines.rs`): TESTIV with its reductions stripped,
/// so every exit test needs the agreement tree — traffic on the same
/// per-pair FIFOs as the phases, modelled from the tape's `Exit`.
fn stripped_plan(nparts: usize) -> CommPlan {
    let s = setup::testiv(10, 2e-4, &fig6());
    let (d, mut spmd) = setup::decompose(&s, nparts, Pattern::FIG1, 0);
    for ops in spmd.comms_before.values_mut() {
        ops.retain(|o| !matches!(o, syncplace::codegen::CommOp::Reduce { .. }));
    }
    let plan = CommPlan::build(&s.prog, &spmd, &d);
    let ops = plan.ops().unwrap();
    let unproven = ops.iter().any(|op| matches!(op, Op::Exit { agree: true, .. }));
    assert!(unproven, "the stripped exit test is unproven");
    plan
}

#[test]
fn model_checker_proves_the_exit_agreement_tree() {
    for nparts in [2usize, 3, 4] {
        let plan = stripped_plan(nparts);
        let m = plan.phases.len();
        for engine in POOLED {
            let prog = mc::from_plan(&plan, engine, sweeps_for(nparts));
            let agreement = prog.ops.iter().flatten().filter(|o| match **o {
                mc::McOp::Send { tag, .. } => mc::tag_parts(tag, nparts).0 >= m,
                _ => false,
            });
            // 2(P−1) tree messages per executed test.
            let per_test = 2 * (nparts - 1);
            assert_eq!(agreement.count(), sweeps_for(nparts) * per_test, "{}", prog.label);
            let out = mc::check(&prog);
            assert!(out.report.is_clean(), "{}: {}", prog.label, out.report);
            assert!(!out.stats.capped, "{}: capped", prog.label);
            assert_eq!(out.stats.distinct_signatures, 1, "{}", prog.label);
        }
    }
}

#[test]
fn a_lost_agreement_message_is_a_deadlock() {
    use syncplace::ir::diag::codes;
    let n = 3;
    let plan = stripped_plan(n);
    let m = plan.phases.len();
    for engine in POOLED {
        let base = mc::from_plan(&plan, engine, 2);
        // An ordered pair whose last message is an exit agreement's.
        let pair = (0..n).flat_map(|f| (0..n).map(move |t| (f, t))).find(|&(f, t)| {
            let last = base.ops[f].iter().rev().find_map(|o| match *o {
                mc::McOp::Send { to, tag, .. } if to == t => Some(tag),
                _ => None,
            });
            last.is_some_and(|tag| mc::tag_parts(tag, n).0 >= m)
        });
        let (from, to) = pair.expect("some pair ends on the agreement tree");
        let mut broken = base.clone();
        assert!(mc::Mutation::DropLastSend { from, to }.apply(&mut broken));
        let out = mc::check(&broken);
        assert!(
            out.report.has_code(codes::MC_DEADLOCK),
            "{}: {:?}",
            base.label,
            out.report.codes()
        );
    }
}

/// Record a real engine run's `hb.*` stream.
fn record_run(engine: Engine, nparts: usize, idx: usize) -> syncplace::obs::HbLog {
    let s = setup::testiv(9, 1e-3, &fig6());
    let (d, spmd) = setup::decompose(&s, nparts, Pattern::FIG1, idx);
    let hbr = Arc::new(HbRecorder::new());
    let rec: RecorderRef = Some(hbr.clone());
    engine
        .run_with(&s.prog, &spmd, &d, &s.bindings, None, &rec)
        .expect("engine run");
    hbr.snapshot()
}

#[test]
fn happens_before_replay_is_clean_on_every_real_engine_run() {
    for engine in Engine::ALL {
        for nparts in [2usize, 4] {
            let log = record_run(engine, nparts, 0);
            let (report, stats) = hb::check_log(&log);
            assert!(
                report.is_clean(),
                "{} P{nparts}: {}",
                engine.name(),
                report
                    .diags
                    .first()
                    .map(|d| d.to_string())
                    .unwrap_or_default()
            );
            assert!(stats.sends > 0, "{} P{nparts}: no events", engine.name());
            assert_eq!(stats.ranks, nparts, "{} P{nparts}", engine.name());
        }
    }
}

#[test]
fn every_seeded_log_defect_is_caught_with_its_exact_code() {
    use syncplace::ir::diag::codes;
    // A batched run has sends, recvs, reads and gang barriers; an
    // overlapped run adds the stage discipline.
    let batched = record_run(Engine::Batched, 3, 0);
    let overlapped = record_run(Engine::Overlapped, 3, 0);

    let cases: Vec<(&str, Option<syncplace::obs::HbLog>, &str)> = vec![
        (
            "dropped recv",
            hb::drop_last(&batched, 1, syncplace::obs::keys::HB_RECV),
            codes::HB_RACE,
        ),
        (
            "dropped send",
            hb::drop_last(&batched, 1, syncplace::obs::keys::HB_SEND),
            codes::HB_UNMATCHED,
        ),
        (
            "dropped gang join",
            hb::drop_last(&batched, 1, syncplace::obs::keys::HB_BARRIER),
            codes::HB_BARRIER_DIVERGENCE,
        ),
        (
            "leaked seed buffer",
            hb::drop_first(&overlapped, 1, syncplace::obs::keys::HB_STAGE_RELEASE),
            codes::HB_STAGE_DISCIPLINE,
        ),
    ];
    for (label, mutated, expect) in cases {
        let log = mutated.unwrap_or_else(|| panic!("{label}: mutation inapplicable"));
        let (report, _) = hb::check_log(&log);
        assert!(
            report.has_code(expect),
            "{label}: expected {expect}, got {:?}",
            report.codes()
        );
    }
}

/// Satellite gate: every SA code the analyze crate mentions must be
/// documented in the README catalogue.
#[test]
fn every_analyze_sa_code_is_in_the_readme_catalogue() {
    let root = env!("CARGO_MANIFEST_DIR");
    let readme = std::fs::read_to_string(format!("{root}/README.md")).expect("README.md");
    let mut codes_seen = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(format!("{root}/crates/analyze/src")).expect("analyze src") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source readable");
        let bytes = text.as_bytes();
        for i in 0..bytes.len().saturating_sub(4) {
            if &bytes[i..i + 2] == b"SA" && bytes[i + 2..i + 5].iter().all(u8::is_ascii_digit) {
                codes_seen.insert(text[i..i + 5].to_string());
            }
        }
    }
    assert!(
        codes_seen.len() >= 20,
        "suspiciously few codes: {codes_seen:?}"
    );
    for code in &codes_seen {
        assert!(
            readme.contains(code.as_str()),
            "{code} referenced in crates/analyze/src but missing from the README catalogue"
        );
    }
}
