//! The edge-based gather–scatter solver (the other loop shape of the
//! paper's target class), analyzed with the full 2-D automaton — the
//! one that includes the `Edg₀`/`Edg₁` states of Fig. 8's family.
//!
//! ```text
//! cargo run --example edge_solver
//! ```

use syncplace::automata::predefined::element_overlap_2d_full;
use syncplace::prelude::*;

fn main() {
    let prog = syncplace::ir::programs::edge_smooth();
    let mesh = gen2d::annulus(8, 48, 1.0, 2.0);
    println!(
        "annulus mesh: {} nodes, {} triangles",
        mesh.nnodes(),
        mesh.ntris()
    );

    let x: Vec<f64> = mesh.coords.iter().map(|c| c[0].atan2(c[1]).sin()).collect();
    let bindings = syncplace::runtime::bindings::edge_smooth_bindings(&prog, &mesh, x);

    // The 5-state Fig. 6 automaton has no edge states: analysis must
    // fail, and the full 2-D element-overlap automaton must succeed.
    let (_, analysis5) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    println!(
        "with the 5-state Fig. 6 automaton: {} placements (edge data has no states there)",
        analysis5.solutions.len()
    );

    let automaton = element_overlap_2d_full();
    let (dfg, analysis) = analyze_program(
        &prog,
        &automaton,
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    println!(
        "with the full 2-D automaton ({} states): {} placements\n",
        automaton.states.len(),
        analysis.solutions.len()
    );
    println!(
        "{}",
        syncplace::codegen::annotate(&prog, &analysis.solutions[0])
    );

    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    for p in [2usize, 4, 8] {
        let part = partition2d(&mesh, p, Method::GreedyKl);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        println!(
            "P={p}: {} comm phases, {} values, err {:.2e}",
            res.stats.nphases(),
            res.stats.total_values(),
            syncplace::runtime::max_rel_error(&seq, &res)
        );
    }
}
