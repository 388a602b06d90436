//! Benches for the SPMD runtime: engines, communication primitives,
//! and the inspector baseline. Plain `std::time` harness.

use syncplace::automata::predefined::fig6;
use syncplace::overlap::Pattern;
use syncplace_bench::harness::Group;
use syncplace_bench::setup;

fn bench_engines() {
    let s = setup::testiv(24, 0.0, &fig6());
    // Short, fixed-length runs.
    let prog = syncplace::ir::programs::testiv_with(3);
    let (dfg, analysis) = syncplace::placement::analyze_program(
        &prog,
        &fig6(),
        &syncplace::placement::SearchOptions::default(),
        &syncplace::placement::CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let part = syncplace::partition::partition2d(&s.mesh, 4, syncplace::partition::Method::RcbKl);
    let d = syncplace::overlap::decompose2d(&s.mesh, &part.part, 4, Pattern::FIG1);

    let g = Group::new("spmd-engines");
    g.bench("sequential", || {
        syncplace::runtime::run_sequential(&prog, &s.bindings)
    });
    g.bench("round-robin-4p", || {
        syncplace::runtime::run_spmd(&prog, &spmd, &d, &s.bindings).unwrap()
    });
    g.bench("batched-4p", || {
        syncplace::Engine::Batched
            .run(&prog, &spmd, &d, &s.bindings)
            .unwrap()
    });
    g.bench("inspector-executor-4p", || {
        syncplace::inspector::run_inspector_executor(&prog, &d, &s.bindings).unwrap()
    });
}

fn bench_comm_primitives() {
    let s = setup::testiv(32, 0.0, &fig6());
    let part = syncplace::partition::partition2d(&s.mesh, 8, syncplace::partition::Method::RcbKl);
    let d = syncplace::overlap::decompose2d(&s.mesh, &part.part, 8, Pattern::FIG1);
    let d2 = syncplace::overlap::decompose2d(&s.mesh, &part.part, 8, Pattern::FIG2);
    let machines = syncplace::runtime::spmd::build_machines(&s.prog, &d, &s.bindings).unwrap();
    let machines2 = syncplace::runtime::spmd::build_machines(&s.prog, &d2, &s.bindings).unwrap();
    let old = s.prog.lookup("OLD").unwrap();

    let g = Group::new("comm-primitives");
    let mut m = machines.clone();
    g.bench("update-overlap-8p", || {
        syncplace::runtime::comm::apply_update(&mut m, &d, syncplace::ir::EntityKind::Node, old, &None)
    });
    let mut m2 = machines2.clone();
    g.bench("assemble-shared-8p", || {
        syncplace::runtime::comm::apply_assemble(&mut m2, &d2, old, &None)
    });
}

fn main() {
    bench_engines();
    bench_comm_primitives();
}
