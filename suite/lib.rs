//! `syncplace-suite`: the workspace-root package hosting the
//! cross-crate integration tests (`tests/`) and the runnable examples
//! (`examples/`). The library re-exports the facade, plus the fixtures
//! more than one suite builds.
pub use syncplace;

use syncplace::codegen::{CommOp, SpmdProgram};
use syncplace::overlap::{check, Decomposition};
use syncplace::prelude::*;
use syncplace::runtime::{Bindings, Machine, SpmdResult};

/// TESTIV on an `nx`×`nx` grid with a fixed iteration count: eps = 0
/// never converges, so the time loop runs exactly `iters` times on
/// every processor count. Returns the program, its bindings, the mesh
/// and the SPMD program of the best-ranked placement.
pub fn fixed_iteration_testiv(
    iters: usize,
    nx: usize,
) -> (
    Program,
    Bindings,
    Mesh2d,
    SpmdProgram,
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

/// The node-overlap assembly groups, derived only from each sub-mesh's
/// local → global node list and the node owners: every global node held
/// by at least two parts, as its `(part, local)` copies, owner first,
/// then by ascending part.
pub fn assembly_groups<const V: usize>(d: &Decomposition<V>) -> Vec<Vec<(usize, usize)>> {
    let mut held = vec![Vec::new(); d.nnodes_global];
    for s in &d.submeshes {
        for (l, &g) in s.nodes_l2g.iter().enumerate() {
            held[g as usize].push((s.part as usize, l));
        }
    }
    let mut groups = Vec::new();
    for (g, mut copies) in held.into_iter().enumerate() {
        if copies.len() >= 2 {
            let owner = d.node_owner[g] as usize;
            copies.sort_by_key(|&(q, _)| (q != owner, q));
            groups.push(copies);
        }
    }
    groups
}

/// Assemble per-part arrays group by group: the total starts from the
/// owner's copy and adds the others in group order, then is written to
/// every copy.
pub fn assemble_groups(groups: &[Vec<(usize, usize)>], locals: &mut [Vec<f64>]) {
    for g in groups {
        let mut total = locals[g[0].0][g[0].1];
        for &(p, l) in &g[1..] {
            total += locals[p][l];
        }
        for &(p, l) in g {
            locals[p][l] = total;
        }
    }
}

/// The plan-free reference run of a placed program, which every engine
/// must match bit for bit: the ranks step through the tape in rank
/// order, and each phase applies its ops one by one without a
/// `CommPlan` recipe — an update walks its kind's copy schedule
/// (`overlap::check::apply_update`), an assembly sums the schedule-free
/// [`assembly_groups`], a reduction folds the ranks' partials along the
/// binomial tree (`runtime::comm::tree_fold`). The exit tests follow
/// rank 0. Only the tape and the kernel are the plan's; the result's
/// communication statistics are empty.
pub fn reference_run<const V: usize>(
    prog: &Program,
    spmd: &SpmdProgram,
    d: &Decomposition<V>,
    b: &Bindings,
) -> SpmdResult {
    use syncplace::ir::VarKind;
    use syncplace::runtime::tape::{Cursor, Op};
    let plan = syncplace::runtime::CommPlan::build(prog, spmd, d);
    let kernel = plan.kernel.clone().expect("a lowered kernel");
    let phases = spmd.phases();
    let groups = assembly_groups(d);
    let mut ms = syncplace::runtime::spmd::build_machines(prog, d, b).expect("machines");
    // Run `f` on every rank's copy of array `var`.
    let on_array = |ms: &mut [Machine], var, f: &mut dyn FnMut(&mut [Vec<f64>])| {
        let mut locals: Vec<Vec<f64>> =
            ms.iter_mut().map(|m| std::mem::take(&mut m.arrays[var])).collect();
        f(&mut locals);
        for (m, local) in ms.iter_mut().zip(locals) {
            m.arrays[var] = local;
        }
    };
    let mut cur = Cursor::new(plan.ops().expect("a lowered tape"));
    while let Some(op) = cur.next() {
        match *op {
            Op::Assign(id) => {
                for m in &mut ms {
                    m.exec_stmt(&kernel, id);
                }
            }
            Op::Loop { id, entity, domain, .. } => {
                for m in &mut ms {
                    let (n, k) = (m.domain_count(entity, domain), m.kernel_count(entity));
                    m.exec_loop(&kernel, id, n, k);
                }
            }
            Op::Complete(k) => {
                for op in phases[k].1 {
                    match *op {
                        CommOp::UpdateOverlap { var } => {
                            let VarKind::Array { base } = prog.decl(var).kind else {
                                panic!("update on non-array");
                            };
                            if let Some(schedule) = d.update_schedule(base) {
                                on_array(&mut ms, var, &mut |l| check::apply_update(schedule, l));
                            }
                        }
                        CommOp::AssembleShared { var } => {
                            on_array(&mut ms, var, &mut |l| assemble_groups(&groups, l));
                        }
                        CommOp::Reduce { var, op } => {
                            let partials: Vec<f64> = ms.iter().map(|m| m.scalars[var]).collect();
                            let total = syncplace::runtime::comm::tree_fold(&partials, op);
                            for m in &mut ms {
                                m.scalars[var] = total;
                            }
                        }
                    }
                }
            }
            Op::Exit { id, to, .. } => {
                let decisions: Vec<bool> = ms.iter_mut().map(|m| m.exec_stmt(&kernel, id)).collect();
                if decisions[0] {
                    cur.exit(to);
                }
            }
            Op::Post(_) | Op::Head { .. } | Op::Tail { .. } => {}
        }
    }
    let (stats, overlap) = Default::default();
    syncplace::runtime::spmd::collect_results(prog, d, ms, stats, cur.iterations, overlap)
}
