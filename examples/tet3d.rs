//! The 3-D tetrahedral solver (§3.4 / Fig. 8): same tool, third
//! dimension.
//!
//! ```text
//! cargo run --example tet3d
//! ```

use syncplace::prelude::*;

fn main() {
    let prog = syncplace::ir::programs::tet_heat(60);
    let mesh = gen3d::box_mesh(6, 6, 6);
    println!(
        "box mesh: {} nodes, {} tetrahedra",
        mesh.nnodes(),
        mesh.ntets()
    );

    let bindings = syncplace::runtime::bindings::tet_heat_bindings(&prog, &mesh, 1e-9);

    // Fig. 8: the 3-D element-overlap automaton (9 states).
    let automaton = fig8();
    println!(
        "automaton {}: {} states / {} transitions",
        automaton.name,
        automaton.states.len(),
        automaton.transitions.len()
    );
    let (dfg, analysis) = analyze_program(
        &prog,
        &automaton,
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    println!("{} placements found\n", analysis.solutions.len());
    println!(
        "{}",
        syncplace::codegen::annotate(&prog, &analysis.solutions[0])
    );

    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    for p in [2usize, 4, 8] {
        let part = partition3d(&mesh, p, Method::Rcb);
        let d = decompose3d(&mesh, &part.part, p, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        println!(
            "P={p}: {:>5} duplicated tets ({:.1}%), {} phases, err {:.2e}",
            d.total_overlap_elems(),
            100.0 * d.total_overlap_elems() as f64 / d.nelems_global as f64,
            res.stats.nphases(),
            syncplace::runtime::max_rel_error(&seq, &res)
        );
    }
}
