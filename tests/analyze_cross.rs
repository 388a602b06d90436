//! Cross-validation (the paper's §5.2 "test mode", both directions):
//! every mapping the backtracking search enumerates must be accepted
//! by the independent arc-consistency fixpoint verifier, and every
//! CommPlan the batched engine compiles must pass the schedule audit.
//! The two sides share no code path, so agreement here checks both.

use syncplace::analyze;
use syncplace::automata::predefined::element_overlap_2d_full;
use syncplace::prelude::*;
use syncplace_bench::setup;

/// Every enumerated mapping, across the built-in programs × automata,
/// passes the fixpoint verifier cleanly — including TESTIV under both
/// the element- and node-overlap automata and the 3-D heat solver
/// under Fig. 8.
#[test]
fn every_enumerated_mapping_passes_the_fixpoint_verifier() {
    let sweeps: Vec<(syncplace::ir::Program, OverlapAutomaton)> = vec![
        (syncplace::ir::programs::testiv(), fig6()),
        (syncplace::ir::programs::testiv(), fig7()),
        (syncplace::ir::programs::fig5_sketch(), fig6()),
        (
            syncplace::ir::programs::edge_smooth(),
            element_overlap_2d_full(),
        ),
        (syncplace::ir::programs::tet_heat(40), fig8()),
    ];
    for (prog, aut) in &sweeps {
        let dfg = syncplace::dfg::build(prog);
        let (mappings, _) =
            syncplace::placement::enumerate(&dfg, aut, &SearchOptions::default());
        assert!(
            !mappings.is_empty(),
            "{} × {}: search finds placements",
            prog.name,
            aut.name
        );
        for (i, m) in mappings.iter().enumerate() {
            let rep = analyze::verify_mapping(&dfg, aut, m);
            assert!(
                rep.is_clean(),
                "{} × {}: mapping {i}/{} rejected by the independent verifier:\n{rep}",
                prog.name,
                aut.name,
                mappings.len()
            );
        }
    }
}

/// The fixpoint is *tight* against the search: a mapping the search
/// would never produce (a stale input) lands outside the feasible sets.
#[test]
fn fixpoint_rejects_what_search_never_produces() {
    let p = syncplace::ir::programs::testiv();
    let dfg = syncplace::dfg::build(&p);
    let aut = fig6();
    let (mappings, _) = syncplace::placement::enumerate(&dfg, &aut, &SearchOptions::default());
    let mut m = mappings[0].clone();
    let init = p.lookup("INIT").unwrap();
    let n = dfg.input_node[init];
    m.node_state[n] = syncplace::automata::state::NOD1;
    assert!(!analyze::verify_mapping(&dfg, &aut, &m).is_clean());
}

/// Every CommPlan compiled for the 2-D decompositions passes the
/// schedule auditor: phase bijection, exactly-once packet consumption,
/// race-free writes, owner-first assembly, ascending-rank reductions.
#[test]
fn compiled_2d_commplans_audit_clean() {
    for (aut, pattern, nparts) in [
        (fig6(), Pattern::FIG1, 1usize),
        (fig6(), Pattern::FIG1, 2),
        (fig6(), Pattern::FIG1, 5),
        (fig7(), Pattern::FIG2, 3),
        (fig7(), Pattern::FIG2, 4),
    ] {
        let s = setup::testiv(7, 1e-9, &aut);
        for (idx, _) in s.analysis.solutions.iter().enumerate().take(2) {
            let (d, spmd) = setup::decompose(&s, nparts, pattern, idx);
            let plan = syncplace::runtime::plan::CommPlan::build(&s.prog, &spmd, &d);
            let rep = analyze::audit(&s.prog, &s.analysis.solutions[idx], &spmd, &plan);
            assert!(
                rep.is_clean(),
                "testiv sol {idx}, {pattern:?} × {nparts}:\n{rep}"
            );
        }
    }
}

/// The 3-D heat solver's compiled plans audit clean too (Fig. 8).
#[test]
fn compiled_3d_commplans_audit_clean() {
    let prog = syncplace::ir::programs::tet_heat(40);
    let mesh = syncplace::mesh::gen3d::box_mesh(4, 4, 4);
    let (dfg, analysis) = syncplace::placement::analyze_program(
        &prog,
        &fig8(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let sol = &analysis.solutions[0];
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
    for p in [1usize, 2, 4] {
        let part = syncplace::partition::partition3d(&mesh, p, syncplace::partition::Method::Rcb);
        let d = syncplace::overlap::decompose3d(&mesh, &part.part, p, Pattern::FIG1);
        let plan = syncplace::runtime::plan::CommPlan::build(&prog, &spmd, &d);
        let rep = analyze::audit(&prog, sol, &spmd, &plan);
        assert!(rep.is_clean(), "tet_heat, {p} parts:\n{rep}");
    }
}

/// The structured reports serialize to valid-looking JSON with stable
/// codes, so external tooling can consume `reproduce lint` output.
#[test]
fn reports_serialize_with_stable_codes() {
    let p = syncplace::ir::programs::testiv();
    let rep = analyze::lint_program(&p, &fig6());
    let json = rep.to_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    for d in &rep.diags {
        assert!(json.contains(d.code));
        assert!(
            analyze::codes::table().iter().any(|(c, _)| *c == d.code),
            "{} must be in the documented code table",
            d.code
        );
    }
}

/// Satellite of the concurrency-verification PR: the CommPlan auditor
/// (SA02x) also holds beyond paper scale — plans compiled from the
/// large tier's `--quick` meshes (the E24 ci preset of the
/// million-element pipeline) at P ∈ {16, 64}, built by the *parallel*
/// decomposer, audit clean in both overlap patterns.
#[test]
fn large_tier_quick_commplans_audit_clean_at_high_p() {
    // 2-D: the E24 quick-grid under both automata/patterns.
    let mesh2 = syncplace::mesh::gen2d::grid(49, 41);
    for (aut, pattern) in [(fig6(), Pattern::FIG1), (fig7(), Pattern::FIG2)] {
        let prog = syncplace::ir::programs::testiv();
        let (dfg, analysis) = syncplace::placement::analyze_program(
            &prog,
            &aut,
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let sol = &analysis.solutions[0];
        let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
        for p in [16usize, 64] {
            let part = syncplace::partition::partition2d(
                &mesh2,
                p,
                syncplace::partition::Method::Rcb,
            );
            let (d, _) = syncplace::runtime::decomp::decompose2d_par(
                &mesh2, &part.part, p, pattern, 4, &None,
            );
            let plan = syncplace::runtime::plan::CommPlan::build(&prog, &spmd, &d);
            let rep = analyze::audit(&prog, sol, &spmd, &plan);
            assert!(rep.is_clean(), "2-D {pattern:?} P{p}:\n{rep}");
        }
    }

    // 3-D: the E24 quick-box under Fig. 8.
    let mesh3 = syncplace::mesh::gen3d::box_mesh(9, 9, 9);
    let prog = syncplace::ir::programs::tet_heat(40);
    let (dfg, analysis) = syncplace::placement::analyze_program(
        &prog,
        &fig8(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let sol = &analysis.solutions[0];
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
    for p in [16usize, 64] {
        let part =
            syncplace::partition::partition3d(&mesh3, p, syncplace::partition::Method::Rcb);
        let (d, _) = syncplace::runtime::decomp::decompose3d_par(
            &mesh3, &part.part, p, Pattern::FIG1, 4, &None,
        );
        let plan = syncplace::runtime::plan::CommPlan::build(&prog, &spmd, &d);
        let rep = analyze::audit(&prog, sol, &spmd, &plan);
        assert!(rep.is_clean(), "3-D P{p}:\n{rep}");
    }
}

/// A `max 0` time loop lowers to no ops: a phase placed before it
/// completes right before whatever follows the loop (here another
/// phase's completion, then the next loop), and a phase inside its body
/// never completes. The auditor reads that off the tape and stays clean.
#[test]
fn phases_around_a_never_entered_time_loop_audit_clean() {
    use syncplace::codegen::{CommOp, SpmdProgram};
    use syncplace::ir::{IdVec, Stmt};
    use syncplace::runtime::tape::Op;
    let prog = syncplace::ir::parser::parse(
        "program t\n  input X : node\n  var s : scalar\n  s = 0.0\n  \
         forall i in node split { s = s + X(i) }\n  \
         iterate loop max 0 {\n    s = s + 1.0\n  }\n  \
         iterate loop max 2 {\n    s = s * 0.5\n  }\nend",
    )
    .unwrap();
    let body = |i: usize| match &prog.body[i] {
        Stmt::TimeLoop(t) => (t.id, t.body[0].id()),
        _ => unreachable!("a time loop"),
    };
    let var = prog.decls.iter().position(|d| d.name == "s").unwrap();
    let reduce = vec![CommOp::Reduce { var, op: syncplace::dfg::ReduceOp::Sum }];
    let ((never, inside), (next, looped)) = (body(2), body(3));
    let at = [never, inside, next, looped].map(|id| (id, reduce.clone()));
    let comms_before = at.into_iter().collect();
    let mut domains = IdVec::default();
    domains.insert(prog.body[1].id(), syncplace::placement::IterationDomain::Kernel);
    let spmd = SpmdProgram {
        comms_before,
        comms_at_end: reduce,
        domains,
        kernel_guarded: IdVec::default(),
    };
    let mesh = syncplace::mesh::gen2d::perturbed_grid(3, 3, 0.0, 1);
    let part = syncplace::partition::partition2d(&mesh, 2, syncplace::partition::Method::Greedy);
    let d = syncplace::overlap::decompose2d(&mesh, &part.part, 2, Pattern::FIG1);
    let plan = syncplace::runtime::plan::CommPlan::build(&prog, &spmd, &d);
    let completes = (plan.ops().unwrap().iter()).filter(|op| matches!(op, Op::Complete(_)));
    assert_eq!(completes.count(), 4, "the phase inside the never-entered loop never completes");
    let rep = analyze::audit_plan(&prog, &spmd, &plan);
    assert!(rep.is_clean(), "{rep}");
}
