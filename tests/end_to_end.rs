//! Cross-crate integration tests: the complete pipeline
//! (mesh → partition → overlap → analyze → place → codegen → run)
//! on every built-in program, both overlapping patterns, several
//! partitioners and both execution engines.

use syncplace::prelude::*;
use syncplace_bench::setup;

#[allow(clippy::too_many_arguments)]
fn run_pipeline_2d(
    prog: &syncplace::ir::Program,
    bindings: &syncplace::runtime::Bindings,
    mesh: &Mesh2d,
    automaton: &OverlapAutomaton,
    pattern: Pattern,
    nparts: usize,
    method: Method,
    solution_idx: usize,
) -> f64 {
    let (dfg, analysis) = analyze_program(
        prog,
        automaton,
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(
        analysis.legality.is_legal(),
        "{:?}",
        analysis.legality.errors
    );
    assert!(!analysis.solutions.is_empty());
    let idx = solution_idx.min(analysis.solutions.len() - 1);
    let spmd = syncplace::codegen::spmd_program(prog, &dfg, &analysis.solutions[idx]);
    let part = partition2d(mesh, nparts, method);
    let d = decompose2d(mesh, &part.part, nparts, pattern);
    syncplace::overlap::check::audit(&d).unwrap();
    let seq = syncplace::runtime::run_sequential(prog, bindings);
    let res = Engine::RoundRobin.run(prog, &spmd, &d, bindings).unwrap();
    assert_eq!(res.iterations, seq.iterations, "different convergence");
    assert_eq!(res.stats.divergent_exits, 0);
    syncplace::runtime::max_rel_error(&seq, &res)
}

#[test]
fn testiv_all_partitioners() {
    let s = setup::testiv(9, 1e-8, &fig6());
    for method in Method::ALL {
        let err = run_pipeline_2d(
            &s.prog,
            &s.bindings,
            &s.mesh,
            &fig6(),
            Pattern::FIG1,
            5,
            method,
            0,
        );
        assert!(err < 1e-9, "{}: {err}", method.name());
    }
}

#[test]
fn testiv_both_patterns_many_parts() {
    let s = setup::testiv(10, 1e-8, &fig6());
    for nparts in [1usize, 2, 3, 7] {
        let err = run_pipeline_2d(
            &s.prog,
            &s.bindings,
            &s.mesh,
            &fig6(),
            Pattern::FIG1,
            nparts,
            Method::GreedyKl,
            0,
        );
        assert!(err < 1e-9, "fig1 P={nparts}: {err}");
    }
    let s = setup::testiv(10, 1e-8, &fig7());
    for nparts in [2usize, 5] {
        let err = run_pipeline_2d(
            &s.prog,
            &s.bindings,
            &s.mesh,
            &fig7(),
            Pattern::FIG2,
            nparts,
            Method::GreedyKl,
            0,
        );
        assert!(err < 1e-9, "fig2 P={nparts}: {err}");
    }
}

#[test]
fn two_layer_overlap_also_executes() {
    // The wider pattern duplicates more but the Fig. 6 placement is
    // still valid on it (coherence requirements are a subset).
    let s = setup::testiv(10, 1e-8, &fig6());
    let err = run_pipeline_2d(
        &s.prog,
        &s.bindings,
        &s.mesh,
        &fig6(),
        Pattern::ElementOverlap { layers: 2 },
        4,
        Method::GreedyKl,
        0,
    );
    assert!(err < 1e-9, "{err}");
}

#[test]
fn every_distinct_testiv_placement_is_correct() {
    // Execute *all* distinct placements the tool enumerates — each
    // must compute the sequential result ("Both solutions set
    // basically the same communications").
    let s = setup::testiv(8, 1e-8, &fig6());
    let seq = syncplace::runtime::run_sequential(&s.prog, &s.bindings);
    let part = partition2d(&s.mesh, 4, Method::GreedyKl);
    let d = decompose2d(&s.mesh, &part.part, 4, Pattern::FIG1);
    for (i, sol) in s.analysis.solutions.iter().enumerate() {
        let spmd = syncplace::codegen::spmd_program(&s.prog, &s.dfg, sol);
        let res = Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
        let err = syncplace::runtime::max_rel_error(&seq, &res);
        assert!(err < 1e-9, "placement {i} wrong: {err}");
    }
}

#[test]
fn fig5_sketch_runs() {
    let prog = syncplace::ir::programs::fig5_sketch();
    let mesh = gen2d::perturbed_grid(8, 8, 0.2, 2);
    let mut bindings = syncplace::runtime::Bindings::for_mesh(&prog, &mesh);
    bindings.input_arrays.insert(
        prog.lookup("OLD").unwrap(),
        (0..mesh.nnodes()).map(|i| (i % 4) as f64).collect(),
    );
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let part = partition2d(&mesh, 3, Method::Greedy);
    let d = decompose2d(&mesh, &part.part, 3, Pattern::FIG1);
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
    assert!(syncplace::runtime::max_rel_error(&seq, &res) < 1e-9);
}

#[test]
fn batched_engine_matches_round_robin_across_programs() {
    let s = setup::testiv(8, 1e-8, &fig6());
    let (d, spmd) = setup::decompose(&s, 5, Pattern::FIG1, 0);
    let rr = Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
    let ba = syncplace::Engine::Batched
        .run(&s.prog, &spmd, &d, &s.bindings)
        .unwrap();
    assert_eq!(rr.output_arrays, ba.output_arrays);
    assert_eq!(rr.output_scalars, ba.output_scalars);
}

#[test]
fn edge_program_pipeline() {
    use syncplace::automata::predefined::element_overlap_2d_full;
    let prog = syncplace::ir::programs::edge_smooth();
    let mesh = gen2d::perturbed_grid(9, 9, 0.15, 4);
    let x: Vec<f64> = (0..mesh.nnodes()).map(|i| ((i * 13) % 17) as f64).collect();
    let bindings = syncplace::runtime::bindings::edge_smooth_bindings(&prog, &mesh, x);
    let (dfg, analysis) = analyze_program(
        &prog,
        &element_overlap_2d_full(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    for p in [2usize, 4] {
        let part = partition2d(&mesh, p, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        assert!(syncplace::runtime::max_rel_error(&seq, &res) < 1e-9);
    }
}

#[test]
fn tet3d_pipeline() {
    let prog = syncplace::ir::programs::tet_heat(30);
    let mesh = gen3d::box_mesh(4, 4, 4);
    let bindings = syncplace::runtime::bindings::tet_heat_bindings(&prog, &mesh, 1e-8);
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig8(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    for p in [2usize, 5] {
        let part = partition3d(&mesh, p, Method::Rib);
        let d = decompose3d(&mesh, &part.part, p, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        assert!(
            syncplace::runtime::max_rel_error(&seq, &res) < 1e-9,
            "P={p}"
        );
    }
}

#[test]
fn inspector_executor_equivalence() {
    let s = setup::testiv(9, 1e-8, &fig6());
    let seq = syncplace::runtime::run_sequential(&s.prog, &s.bindings);
    let (d, _) = setup::decompose(&s, 4, Pattern::FIG1, 0);
    let insp = syncplace::inspector::run_inspector_executor(&s.prog, &d, &s.bindings).unwrap();
    assert!(syncplace::runtime::max_rel_error(&seq, &insp.result) < 1e-9);
    // More phases than the placed version (the §5.1 point).
    let (_, spmd) = setup::decompose(&s, 4, Pattern::FIG1, 0);
    let placed = Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
    assert!(insp.result.stats.nphases() > placed.stats.nphases());
}

#[test]
fn dsl_programs_survive_print_parse_analyze() {
    // The printed DSL of every builtin re-analyzes identically.
    for prog in [
        syncplace::ir::programs::testiv(),
        syncplace::ir::programs::fig5_sketch(),
        syncplace::ir::programs::edge_smooth(),
    ] {
        let text = syncplace::ir::printer::to_dsl(&prog);
        let reparsed = parse(&text).unwrap();
        assert_eq!(prog, reparsed);
    }
}
