//! `syncplace-suite`: the workspace-root package hosting the
//! cross-crate integration tests (`tests/`) and the runnable examples
//! (`examples/`). The library re-exports the facade, plus the fixtures
//! more than one suite builds.
pub use syncplace;

use syncplace::prelude::*;

/// TESTIV on an `nx`×`nx` grid with a fixed iteration count: eps = 0
/// never converges, so the time loop runs exactly `iters` times on
/// every processor count. Returns the program, its bindings, the mesh
/// and the SPMD program of the best-ranked placement.
pub fn fixed_iteration_testiv(
    iters: usize,
    nx: usize,
) -> (
    Program,
    syncplace::runtime::Bindings,
    Mesh2d,
    syncplace::codegen::SpmdProgram,
) {
    let prog = syncplace::ir::programs::testiv_with(iters);
    let mesh = gen2d::perturbed_grid(nx, nx, 0.2, 11);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    (prog, bindings, mesh, spmd)
}
