//! Concurrency verification end-to-end: the schedule model checker
//! proves every engine's schedule correct on the paper's Fig. 9 /
//! Fig. 10 TESTIV placements at small P, the happens-before checker
//! replays real recorded runs cleanly, and both catch every seeded
//! defect with the exact SA code — zero false positives on clean runs.

use std::sync::Arc;

use syncplace::analyze::{hb, mc};
use syncplace::obs::{HbRecorder, RecorderRef};
use syncplace::overlap::Pattern;
use syncplace::prelude::*;
use syncplace::runtime::CommPlan;
use syncplace_bench::setup;

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
fn model_checker_proves_all_engines_on_fig9_and_fig10() {
    for nparts in [2usize, 3, 4] {
        // Both overlap patterns, as `reproduce racecheck` sweeps them.
        let patterns = [Pattern::FIG1, Pattern::FIG2];
        for (label, plan) in patterns.into_iter().flat_map(|pat| fig_plans(nparts, pat)) {
            for engine in Engine::ALL {
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
    // The mutation suite covers every engine family once at P = 3 —
    // plain (round-robin), staged (batched) and double-buffered
    // split-phase (overlapped).
    let plans = fig_plans(3, Pattern::FIG1);
    let mut programs: Vec<mc::McProgram> = Vec::new();
    for engine in Engine::ALL {
        programs.push(mc::from_plan(&plans[0].1, engine, 2));
    }

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
