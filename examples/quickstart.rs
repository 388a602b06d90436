//! Quickstart: the full pipeline on the paper's TESTIV program.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use syncplace::prelude::*;

fn main() {
    // 1. The program to parallelize — the paper's TESTIV subroutine
    //    (Figs. 9–10): iterative nodal averaging over a triangle mesh.
    let prog = syncplace::ir::programs::testiv();

    // 2. Choose the overlapping pattern (Fig. 1: one layer of
    //    duplicated frontier triangles) — its overlap automaton is the
    //    paper's Fig. 6.
    let automaton = fig6();

    // 3. Analyze: dependence graph, Fig. 4 legality check, and the
    //    backtracking placement search.
    let (dfg, analysis) = analyze_program(
        &prog,
        &automaton,
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    println!(
        "found {} distinct placements; best:\n  {}\n",
        analysis.solutions.len(),
        syncplace::codegen::summarize(&prog, &analysis.solutions[0])
    );

    // 4. The paper's artifact: the annotated SPMD listing.
    println!(
        "{}",
        syncplace::codegen::annotate(&prog, &analysis.solutions[0])
    );

    // 5. And because this reproduction ships a runtime: execute the
    //    placed program on a partitioned mesh and check it against the
    //    sequential run.
    let mesh = gen2d::perturbed_grid(12, 12, 0.2, 7);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 1e-8);
    let part = partition2d(&mesh, 4, Method::GreedyKl);
    let d = decompose2d(&mesh, &part.part, 4, Pattern::FIG1);
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);

    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
    println!(
        "4 processors, {} comm phases, max relative error vs sequential: {:.2e}",
        res.stats.nphases(),
        syncplace::runtime::max_rel_error(&seq, &res)
    );
}
