//! Tests keyed one-to-one to claims in the paper's text.

use syncplace::automata::CommKind;
use syncplace::prelude::*;
use syncplace_bench::setup;

/// §1: "It turns out that more than one solution may be found.
/// Finding them all gives the opportunity to choose."
#[test]
fn claim_multiple_solutions() {
    let s = setup::testiv(6, 1e-8, &fig6());
    assert!(s.analysis.solutions.len() >= 2);
}

/// §4 / Fig. 9: one solution delays the NEW update so the copy loops
/// may run on the overlap while the sqrdiff loop is kernel-restricted,
/// and the update is grouped with the reduction at the convergence
/// test.
#[test]
fn claim_fig9_shape() {
    let s = setup::testiv(6, 1e-8, &fig6());
    let best = &s.analysis.solutions[0];
    let new = s.prog.lookup("NEW").unwrap();
    let sq = s.prog.lookup("sqrdiff").unwrap();
    let update = best
        .comm_sites
        .iter()
        .find(|c| c.var == new && c.kind == CommKind::UpdateOverlap)
        .expect("NEW update");
    let reduce = best
        .comm_sites
        .iter()
        .find(|c| c.var == sq && c.kind == CommKind::ReduceScalar)
        .expect("sqrdiff reduction");
    // Grouped: same insertion point, i.e. one fused phase.
    assert_eq!(update.location, reduce.location);
    assert!(update.in_time_loop && reduce.in_time_loop);
    assert_eq!(best.cost.phases_in_loop, 1);
}

/// §4 / Fig. 10: another solution updates OLD at the head of the time
/// loop, restricts the copy loops to the kernel, and needs a final
/// RESULT update — "This placement happens to be the same as what was
/// done initially by hand."
#[test]
fn claim_fig10_shape() {
    let s = setup::testiv(6, 1e-8, &fig6());
    let idx = setup::fig10_style_index(&s).expect("fig10-style exists");
    let sol = &s.analysis.solutions[idx];
    let old = s.prog.lookup("OLD").unwrap();
    let result = s.prog.lookup("RESULT").unwrap();
    assert!(sol
        .comm_sites
        .iter()
        .any(|c| c.var == old && c.kind == CommKind::UpdateOverlap && c.in_time_loop));
    // The exit path then needs a RESULT (or NEW) refresh.
    assert!(sol.comm_sites.iter().any(|c| {
        (c.var == result || s.prog.decl(c.var).name == "NEW")
            && c.kind == CommKind::UpdateOverlap
            && !c.in_time_loop
    }));
    // More kernel-restricted loops than the Fig. 9-style solution.
    assert!(sol.cost.kernel_loops > s.analysis.solutions[0].cost.kernel_loops);
}

/// §3.4: "the automaton of figure 6 can be derived from the one on
/// figure 8, simply by forgetting the unused states".
#[test]
fn claim_fig6_from_fig8() {
    use syncplace::automata::predefined::fig6_from_fig8;
    let collapse = |a: &OverlapAutomaton| {
        a.transitions
            .iter()
            .map(|t| (t.from, t.class.is_thin(), t.to, t.comm))
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(collapse(&fig6_from_fig8()), collapse(&fig6()));
}

/// §3.4: "The two transitions labeled by 'Update' are special" — Fig. 6
/// has exactly two communication-bearing transitions, and thick arrows
/// are the only carriers.
#[test]
fn claim_two_update_transitions() {
    let a = fig6();
    let comms: Vec<_> = a.transitions.iter().filter(|t| t.comm.is_some()).collect();
    assert_eq!(comms.len(), 2);
    assert!(comms.iter().all(|t| !t.class.is_thin()));
}

/// §2.3: the Fig. 2 pattern trades "a little more communication …
/// for a little redundant computation" of Fig. 1.
#[test]
fn claim_pattern_tradeoff() {
    let mesh = gen2d::perturbed_grid(16, 16, 0.2, 9);
    let part = partition2d(&mesh, 4, Method::GreedyKl);
    let d1 = decompose2d(&mesh, &part.part, 4, Pattern::FIG1);
    let d2 = decompose2d(&mesh, &part.part, 4, Pattern::FIG2);
    // Fig. 1 computes redundantly; Fig. 2 does not.
    assert!(d1.total_overlap_elems() > 0);
    assert_eq!(d2.total_overlap_elems(), 0);
    // Per duplicated node, Fig. 2 moves twice the data (each copy
    // sends its partial and receives the total), while Fig. 1 moves
    // one value per copy — but over a wider set of copies (the ring
    // brought in by the duplicated elements).
    let d1_copies = d1.node_update.total_values(); // 1 value per copy
    let d2_copies = d2.node_update.total_values(); // 2 values per copy
    let slots: usize = d2.submeshes.iter().map(|s| s.nnodes()).sum();
    assert_eq!(d2_copies, slots - d2.nnodes_global);
    assert!(d1_copies > d2_copies, "{d1_copies} !> {d2_copies}");
}

/// §3.2: "An important feature of our tool is that it checks all
/// dependences automatically" — every Fig. 4 taxonomy verdict.
#[test]
fn claim_legality_taxonomy() {
    for case in syncplace::ir::programs::taxonomy() {
        let dfg = syncplace::dfg::build(&case.program);
        let report = syncplace::placement::check_legality(&case.program, &dfg);
        assert_eq!(report.is_legal(), case.legal, "{}", case.name);
    }
}

/// §5.1: inspector/executor communicates between each split loop; the
/// static placement with a one-layer overlap groups them.
#[test]
fn claim_inspector_more_phases() {
    let s = setup::testiv(8, 1e-8, &fig6());
    let (d, spmd) = setup::decompose(&s, 4, Pattern::FIG1, 0);
    let placed = Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
    let insp = syncplace::inspector::run_inspector_executor(&s.prog, &d, &s.bindings).unwrap();
    let placed_rate = placed.stats.nphases() as f64 / placed.iterations as f64;
    assert!(insp.phases_per_iteration >= 2.0 * placed_rate);
}

/// §5.2: running the algorithm "in test mode" validates a given
/// placement; a placement with a missing communication is refused.
#[test]
fn claim_test_mode() {
    let s = setup::testiv(6, 1e-8, &fig6());
    let sol = &s.analysis.solutions[0];
    let comm: std::collections::HashSet<usize> = sol
        .mapping
        .arrow_transition
        .iter()
        .enumerate()
        .filter(|(_, t)| t.map(|t| t.comm.is_some()).unwrap_or(false))
        .map(|(i, _)| i)
        .collect();
    let a = fig6();
    assert!(syncplace::placement::checker::check_placement(&s.dfg, &a, &comm).is_ok());
    let mut broken = comm.clone();
    let victim = *broken.iter().next().unwrap();
    broken.remove(&victim);
    let diag = syncplace::placement::checker::check_placement(&s.dfg, &a, &broken).unwrap_err();
    assert!(
        diag.missing.contains(&victim),
        "diagnosis should name the dropped arrow {victim}: {diag}"
    );
}

/// §6: "errors in manual transformation … sometimes imply a small
/// imprecision of the result, and/or a different convergence rate."
#[test]
fn claim_manual_errors_observable() {
    let s = setup::testiv(10, 2e-4, &fig6());
    let seq = syncplace::runtime::run_sequential(&s.prog, &s.bindings);
    let (d, mut spmd) = setup::decompose(&s, 4, Pattern::FIG1, 0);
    // Remove the reduction: convergence behaviour changes.
    for ops in spmd.comms_before.values_mut() {
        ops.retain(|o| !matches!(o, syncplace::codegen::CommOp::Reduce { .. }));
    }
    let res = Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
    assert!(
        res.iterations != seq.iterations || res.stats.divergent_exits > 0,
        "a missing reduction must disturb convergence"
    );
}

/// §2.2: "exactly the same program runs on each processor" — the
/// batched engine (real message passing between rank processes) and
/// the round-robin engine agree bitwise.
#[test]
fn claim_spmd_equivalence() {
    let s = setup::testiv(8, 1e-8, &fig6());
    let (d, spmd) = setup::decompose(&s, 3, Pattern::FIG1, 0);
    let rr = Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
    let ba = syncplace::Engine::Batched
        .run(&s.prog, &spmd, &d, &s.bindings)
        .unwrap();
    assert_eq!(rr.output_arrays, ba.output_arrays);
}

/// §3.1/§5.1 (extension): with two layers of overlapping triangles and
/// the time loop unrolled by 2 (convergence checked every 2 steps),
/// one overlap update serves two time steps.
#[test]
fn claim_two_layer_amortization() {
    use syncplace::automata::predefined::element_overlap_two_layer_2d;
    let prog = syncplace::ir::transform::unroll_time_loop_check_last(
        &syncplace::ir::programs::testiv_with(8),
        2,
    );
    let mesh = gen2d::perturbed_grid(8, 8, 0.2, 5);
    let mut bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);
    bindings.input_arrays.insert(
        prog.lookup("INIT").unwrap(),
        (0..mesh.nnodes()).map(|i| (i % 5) as f64).collect(),
    );
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let part = partition2d(&mesh, 3, Method::Greedy);

    let mut updates = Vec::new();
    for (automaton, layers) in [(fig6(), 1usize), (element_overlap_two_layer_2d(), 2)] {
        let (dfg, analysis) = analyze_program(
            &prog,
            &automaton,
            &SearchOptions::default(),
            &CostParams::default(),
        );
        assert!(analysis.legality.is_legal());
        let sol = &analysis.solutions[0];
        let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
        let d = decompose2d(&mesh, &part.part, 3, Pattern::ElementOverlap { layers });
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        assert!(
            syncplace::runtime::max_rel_error(&seq, &res) < 1e-9,
            "layers={layers}"
        );
        updates.push(res.stats.updates);
    }
    // The two-layer run needs roughly half the updates (one extra may
    // appear outside the loop, e.g. a final RESULT refresh).
    assert!(
        updates[1] <= updates[0] / 2 + 1,
        "1-layer: {} updates, 2-layer: {}",
        updates[0],
        updates[1]
    );
}

/// §5.3: "the placement of synchronizations needs not change" across
/// mesh adaptation — the same SPMD program object runs correctly on
/// the coarse mesh, the refined mesh, and any partition of either.
#[test]
fn claim_placement_survives_adaptation() {
    let prog = syncplace::ir::programs::testiv_with(6);
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let coarse = gen2d::perturbed_grid(6, 6, 0.2, 11);
    let marked: Vec<bool> = (0..coarse.ntris()).map(|t| t % 3 == 0).collect();
    let (fine, _) = syncplace::mesh::refine2d::refine(&coarse, &marked);
    for mesh in [&coarse, &fine] {
        let mut b = syncplace::runtime::bindings::testiv_bindings(&prog, mesh, 0.0);
        b.input_arrays.insert(
            prog.lookup("INIT").unwrap(),
            (0..mesh.nnodes()).map(|i| (i % 4) as f64).collect(),
        );
        let seq = syncplace::runtime::run_sequential(&prog, &b);
        let part = partition2d(mesh, 4, Method::RcbKl);
        let d = decompose2d(mesh, &part.part, 4, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &b).unwrap();
        assert!(syncplace::runtime::max_rel_error(&seq, &res) < 1e-9);
    }
}

/// §2.4: speedup grows monotonically with processors on the placed
/// program (the full 20–26@32 band is checked by `reproduce e6-speedup`
/// at paper scale).
#[test]
fn claim_speedup_shape_quick() {
    let prog = syncplace::ir::programs::testiv_with(2);
    let mesh = gen2d::grid(24, 24);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let model = syncplace::runtime::TimingModel::default();
    let mut prev = 0.0;
    for p in [1usize, 2, 4, 8] {
        let part = partition2d(&mesh, p, Method::RcbKl);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        let t = syncplace::runtime::timing::estimate(&seq, &res, &model);
        assert!(t.speedup > prev, "P={p}: {} !> {prev}", t.speedup);
        prev = t.speedup;
    }
}
