//! PARTI-style inspector/executor baseline (paper §5.1).
//!
//! "The inspector/executor paradigm is a popular method to optimize
//! communications when partitioning a mesh. This is a runtime-
//! compilation method, that dynamically determines the array cells
//! that need to be communicated across processors. … In
//! inspector/executor methods, the overlap width is minimal, and
//! therefore communications must be done between each split loops."
//!
//! This crate implements that paradigm over the same sub-meshes:
//!
//! * **Inspector** ([`inspect`]): executed once, it scans every
//!   indirection reference of every partitioned loop (over *owned*
//!   entities only — no redundant computation in this paradigm) and
//!   records which off-processor values ("ghost cells") each loop
//!   needs, producing one restricted communication schedule per
//!   (loop, array) pair.
//! * **Executor** ([`run_inspector_executor`]): runs the program with
//!   a *gather* phase before every loop that reads ghost values, a
//!   *scatter-flush* phase (add ghost contributions back to their
//!   owners) after every loop that accumulates into ghosts, and a
//!   reduction phase after every reduction loop — i.e. communications
//!   between each pair of split loops, which is exactly what the
//!   paper's static placement amortizes away with a wider overlap.

#![forbid(unsafe_code)]

use std::collections::HashSet;
use syncplace_ir::{Access, EntityKind, IdVec, LoopStmt, Program, Stmt, VarId, VarKind};
use syncplace_overlap::{check, Decomposition, UpdateSchedule};
use syncplace_runtime::bindings::Bindings;
use syncplace_runtime::comm::{self, CommStats, PhaseContribution, PhaseStat};
use syncplace_runtime::spmd::{build_machines, collect_results, SpmdResult};
use syncplace_runtime::{Kernel, Machine};

/// The inspector's product, indexed by loop statement id.
#[derive(Debug, Clone, Default)]
pub struct InspectorPlan {
    /// Per loop, one ghost schedule per gathered array, in var order:
    /// the array's own kind's update schedule restricted to the ghost
    /// copies the loop references.
    pub gathers: IdVec<Vec<(VarId, UpdateSchedule)>>,
    /// Arrays scatter-accumulated per loop (flush needed after), with
    /// their entity kind.
    pub scatters: IdVec<Vec<(VarId, EntityKind)>>,
    /// Scalar reductions per loop.
    pub reductions: IdVec<Vec<(VarId, syncplace_dfg::ReduceOp)>>,
    /// Abstract inspector cost: indirection entries scanned.
    pub inspect_cost: usize,
}

/// Run the inspector: one symbolic execution of the loop indirections.
/// A loop that reaches ghost copies of an element array is an error:
/// owned-only execution never refreshes them, and no update schedule
/// exists for them.
pub fn inspect<const V: usize>(
    prog: &Program,
    d: &Decomposition<V>,
    machines: &[Machine],
) -> Result<InspectorPlan, String> {
    let mut plan = InspectorPlan::default();
    let classification = syncplace_dfg::build(prog).classification;
    let unrefreshed = |v: VarId| {
        let name = &prog.decl(v).name;
        format!("inspector: owned-only loops never refresh element array {name}")
    };

    for l in partitioned_loops(&prog.body) {
        // Gathered arrays and their referenced ghosts.
        let mut gathered: IdVec<HashSet<(u32, u32)>> = IdVec::default(); // var -> (holder, dst)
        let mut scattered: Vec<(VarId, EntityKind)> = Vec::new();
        let mut reds: Vec<(VarId, syncplace_dfg::ReduceOp)> = Vec::new();
        for a in &l.body {
            if let Access::Indirect { array, map, slot } = a.lhs {
                let kind = entity_of_array(prog, array);
                if d.update_schedule(kind).is_none() {
                    if !ghosts(machines, l.entity, map, slot, kind).0.is_empty() {
                        return Err(unrefreshed(array));
                    }
                } else if !scattered.iter().any(|&(v, _)| v == array) {
                    scattered.push((array, kind));
                }
            }
            if let Access::Scalar(v) = a.lhs {
                if let Some(r) = classification.reductions.get(a.id) {
                    if !reds.iter().any(|&(x, _)| x == v) {
                        reds.push((v, r.op));
                    }
                }
            }
            for acc in a.rhs.reads() {
                if let Access::Indirect { array, map, slot } = *acc {
                    // Skip the scatter carrier self-read.
                    if *acc == a.lhs {
                        continue;
                    }
                    let kind = entity_of_array(prog, array);
                    let (found, scanned) = ghosts(machines, l.entity, map, slot, kind);
                    plan.inspect_cost += scanned;
                    if found.is_empty() {
                        continue;
                    }
                    if d.update_schedule(kind).is_none() {
                        return Err(unrefreshed(array));
                    }
                    gathered
                        .get_or_insert_with(array, HashSet::new)
                        .extend(found);
                }
            }
        }
        // Every ghost is a non-owner copy, so each restricted schedule
        // keeps at least one message.
        let gathers = gathered.iter().map(|(var, ghosts)| {
            let full = d
                .update_schedule(entity_of_array(prog, var))
                .expect("checked above");
            (var, full.restrict(|to, dst| ghosts.contains(&(to, dst))))
        });
        plan.gathers.insert(l.id, gathers.collect());
        if !scattered.is_empty() {
            plan.scatters.insert(l.id, scattered);
        }
        if !reds.is_empty() {
            plan.reductions.insert(l.id, reds);
        }
    }
    Ok(plan)
}

/// The ghost slots `(rank, local)` that the owned iterations of a loop
/// over `entity` reach through `map`'s `slot` — targets of `kind`
/// beyond that kind's kernel prefix — and the number of indirection
/// entries scanned.
fn ghosts(
    machines: &[Machine],
    entity: EntityKind,
    map: VarId,
    slot: usize,
    kind: EntityKind,
) -> (Vec<(u32, u32)>, usize) {
    let (mut found, mut scanned) = (Vec::new(), 0);
    for (p, m) in machines.iter().enumerate() {
        let table = &m.maps[map];
        let owned = m.kernel_count(entity);
        let kernel = m.kernel_count(kind);
        scanned += owned;
        for i in 0..owned {
            let t = table.targets[i * table.arity + slot];
            if t != u32::MAX && t as usize >= kernel {
                found.push((p as u32, t));
            }
        }
    }
    (found, scanned)
}

fn entity_of_array(prog: &Program, v: VarId) -> EntityKind {
    match prog.decl(v).kind {
        VarKind::Array { base } => base,
        _ => panic!("{} is not an array", prog.decl(v).name),
    }
}

/// The partitioned loops of `stmts`, time-loop bodies included, in
/// program order.
fn partitioned_loops(stmts: &[Stmt]) -> Vec<&LoopStmt> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::Loop(l) if l.partitioned => out.push(l),
            Stmt::TimeLoop(t) => out.extend(partitioned_loops(&t.body)),
            _ => {}
        }
    }
    out
}

/// Executor result plus inspector accounting.
#[derive(Debug)]
pub struct InspectorResult {
    pub result: SpmdResult,
    pub inspect_cost: usize,
    /// Communication phases per time-loop iteration (the §5.1
    /// comparison number: "communications must be done between each
    /// split loops").
    pub phases_per_iteration: f64,
}

/// Run the program under the inspector/executor paradigm.
pub fn run_inspector_executor<const V: usize>(
    prog: &Program,
    d: &Decomposition<V>,
    b: &Bindings,
) -> Result<InspectorResult, String> {
    assert!(
        d.pattern.has_element_overlap(),
        "the executor uses the element-overlap ghost slots (run it on a FIG1 decomposition)"
    );
    let mut machines = build_machines(prog, d, b)?;
    let kernel = Kernel::lower(prog, |_| false)?;
    kernel.check_tables(prog, &machines)?;
    let plan = inspect(prog, d, &machines)?;
    let mut stats = CommStats::default();
    let mut iters = 0usize;
    run_block::<V>(
        &prog.body,
        &kernel,
        d,
        &plan,
        &mut machines,
        &mut stats,
        &mut iters,
    );

    // Outputs: ghosts are stale by design; gather from owners as usual.
    let phases_in_loop = stats.nphases();
    let result = collect_results::<V>(prog, d, machines, stats, iters, Default::default());
    Ok(InspectorResult {
        result,
        inspect_cost: plan.inspect_cost,
        phases_per_iteration: if iters > 0 {
            phases_in_loop as f64 / iters as f64
        } else {
            phases_in_loop as f64
        },
    })
}

/// The accounting of one round of messages along `schedule`, each one
/// sent by `sender(owner, holder)`.
fn schedule_round(
    schedule: &UpdateSchedule,
    nparts: usize,
    sender: fn(u32, u32) -> u32,
) -> PhaseContribution {
    let mut per_proc = vec![0usize; nparts];
    for m in &schedule.msgs {
        per_proc[sender(m.from, m.to) as usize] += m.pairs.len();
    }
    let (messages, values) = (schedule.total_messages(), schedule.total_values());
    PhaseContribution::new(PhaseStat { messages, values, rounds: 1, ..Default::default() }, per_proc)
}

/// Gather: refresh the ghost copies `schedule` lists with their owners'
/// values of `var`.
fn gather_ghosts(
    machines: &mut [Machine],
    schedule: &UpdateSchedule,
    var: VarId,
) -> PhaseContribution {
    let mut locals: Vec<Vec<f64>> =
        machines.iter_mut().map(|m| std::mem::take(&mut m.arrays[var])).collect();
    check::apply_update(schedule, &mut locals);
    for (m, local) in machines.iter_mut().zip(locals) {
        m.arrays[var] = local;
    }
    schedule_round(schedule, machines.len(), |owner, _| owner)
}

/// Scatter flush: add every ghost slot's accumulated contribution back
/// to the owner's kernel value, then zero the ghost.
fn apply_scatter_flush(
    machines: &mut [Machine],
    schedule: &UpdateSchedule,
    var: VarId,
) -> PhaseContribution {
    for m in &schedule.msgs {
        let (owner, holder) = (m.from as usize, m.to as usize);
        for &(src, dst) in &m.pairs {
            let v = machines[holder].arrays[var][dst as usize];
            machines[owner].arrays[var][src as usize] += v;
            machines[holder].arrays[var][dst as usize] = 0.0;
        }
    }
    schedule_round(schedule, machines.len(), |_, holder| holder)
}

fn run_block<const V: usize>(
    stmts: &[Stmt],
    kernel: &Kernel,
    d: &Decomposition<V>,
    plan: &InspectorPlan,
    machines: &mut [Machine],
    stats: &mut CommStats,
    iterations: &mut usize,
) -> bool {
    for s in stmts {
        match s {
            Stmt::Assign(a) => {
                for m in machines.iter_mut() {
                    m.exec_stmt(kernel, a.id);
                }
            }
            Stmt::Loop(l) => {
                // Gather phase: refresh referenced ghosts.
                let mut parts = Vec::new();
                for (var, sched) in plan.gathers.get(l.id).into_iter().flatten() {
                    parts.push(gather_ghosts(machines, sched, *var));
                    stats.updates += 1;
                }
                if !parts.is_empty() {
                    stats.phases.push(comm::merge_phase(&parts));
                }
                // The loop itself: owned entities only (minimal overlap,
                // no redundant computation).
                for m in machines.iter_mut() {
                    let owned = m.kernel_count(l.entity);
                    m.exec_loop(kernel, l.id, owned, owned);
                }
                // Scatter flush phase.
                if let Some(vars) = plan.scatters.get(l.id) {
                    let mut parts = Vec::new();
                    for &(v, kind) in vars {
                        let schedule = d.update_schedule(kind).expect("inspect kept it");
                        parts.push(apply_scatter_flush(machines, schedule, v));
                        stats.assembles += 1;
                    }
                    stats.phases.push(comm::merge_phase(&parts));
                }
                // Reduction phase.
                if let Some(reds) = plan.reductions.get(l.id) {
                    let mut parts = Vec::new();
                    for &(v, op) in reds {
                        comm::fold_scalar(machines, v, op);
                        parts.push(comm::tree_contribution(machines.len(), 1));
                        stats.reduces += 1;
                    }
                    stats.phases.push(comm::merge_phase(&parts));
                }
            }
            Stmt::TimeLoop(t) => {
                'time: for _ in 0..t.max_iters {
                    *iterations += 1;
                    if run_block::<V>(&t.body, kernel, d, plan, machines, stats, iterations) {
                        break 'time;
                    }
                }
            }
            Stmt::ExitIf(e) => {
                let decisions: Vec<bool> = machines
                    .iter_mut()
                    .map(|m| m.exec_stmt(kernel, e.id))
                    .collect();
                if decisions.iter().any(|&x| x != decisions[0]) {
                    stats.divergent_exits += 1;
                }
                if decisions[0] {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_ir::programs;
    use syncplace_mesh::gen2d;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_runtime::bindings::{kind_index, testiv_bindings, MapBinding, MapData};

    fn setup(
        nparts: usize,
    ) -> (
        Program,
        Decomposition<3>,
        Bindings,
        syncplace_runtime::exec::SeqResult,
    ) {
        let p = programs::testiv();
        let mesh = gen2d::perturbed_grid(10, 10, 0.2, 11);
        let mut b = testiv_bindings(&p, &mesh, 1e-9);
        let init = p.lookup("INIT").unwrap();
        b.input_arrays.insert(
            init,
            (0..mesh.nnodes())
                .map(|i| 1.0 + ((i % 5) as f64) * 0.1)
                .collect(),
        );
        let seq = syncplace_runtime::run_sequential(&p, &b);
        let part = partition2d(&mesh, nparts, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, nparts, Pattern::FIG1);
        (p, d, b, seq)
    }

    #[test]
    fn inspector_executor_matches_sequential() {
        let (p, d, b, seq) = setup(4);
        let r = run_inspector_executor(&p, &d, &b).unwrap();
        let err = syncplace_runtime::max_rel_error(&seq, &r.result);
        assert!(err < 1e-9, "max rel error {err}");
        assert_eq!(r.result.iterations, seq.iterations);
    }

    #[test]
    fn inspector_has_nonzero_cost_and_more_phases() {
        let (p, d, b, _) = setup(4);
        let r = run_inspector_executor(&p, &d, &b).unwrap();
        assert!(r.inspect_cost > 0);
        // §5.1: comms between each split loops. TESTIV's step has a
        // gather (OLD), a scatter flush (NEW) and a reduction: ≥ 3
        // phases per iteration, versus 1–2 for the static placement.
        assert!(
            r.phases_per_iteration >= 3.0 - 1e-9,
            "{}",
            r.phases_per_iteration
        );
    }

    #[test]
    fn inspector_does_no_redundant_compute() {
        let (p, d, b, seq) = setup(4);
        let r = run_inspector_executor(&p, &d, &b).unwrap();
        let total: f64 = r.result.per_proc_compute.iter().sum();
        // Owned-only iteration: total parallel work ≈ sequential work.
        assert!(
            (total - seq.compute_units).abs() / seq.compute_units < 0.02,
            "{total} vs {}",
            seq.compute_units
        );
    }

    /// A tri loop reads an edge array through `TE`, an edge array the
    /// edge loop computed on owned edges only, so its ghosts are stale.
    const TE_GATHER: &str = "program te_gather
  input W0 : edge
  output R : tri
  map TE : tri -> edge [3]
  var W : edge
  forall e in edge split { W(e) = W0(e) * 2.0 }
  forall i in tri split { R(i) = W(TE(i,1)) + 2.0 * W(TE(i,2)) + 3.0 * W(TE(i,3)) }
end";

    /// A tri loop scatters into an edge array through `TE`.
    const TE_SCATTER: &str = "program te_scatter
  input A : tri
  output S : edge
  map TE : tri -> edge [3]
  forall e in edge split { S(e) = 0.0 }
  forall i in tri split {
    S(TE(i,1)) = S(TE(i,1)) + A(i)
    S(TE(i,2)) = S(TE(i,2)) + 2.0 * A(i)
    S(TE(i,3)) = S(TE(i,3)) + 3.0 * A(i)
  }
end";

    /// A node loop reads a tri array through `NT`.
    const NT_GATHER: &str = "program nt_gather
  input A : tri
  output R : node
  map NT : node -> tri [1]
  forall i in node split { R(i) = A(NT(i,1)) }
end";

    /// `src` on `perturbed_grid(9, 7, 0.2, 5)`: standard bindings,
    /// `map` bound to the custom table `table`, every input array
    /// filled with distinct values.
    fn bind(src: &str, map: &str, table: MapData) -> (Program, syncplace_mesh::Mesh2d, Bindings) {
        let p = syncplace_ir::parser::parse(src).unwrap();
        let mesh = gen2d::perturbed_grid(9, 7, 0.2, 5);
        let mut b = Bindings::for_mesh(&p, &mesh);
        b.maps
            .insert(p.lookup(map).unwrap(), MapBinding::Custom(table));
        for v in p.inputs() {
            if let VarKind::Array { base } = p.decl(v).kind {
                let n = b.counts[kind_index(base)];
                b.input_arrays
                    .insert(v, (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.3).collect());
            }
        }
        (p, mesh, b)
    }

    #[test]
    fn edge_arrays_gather_and_flush_along_the_edge_schedule() {
        let mesh = gen2d::perturbed_grid(9, 7, 0.2, 5);
        let te = MapData {
            arity: 3,
            targets: mesh.edges().ids.clone(),
        };
        for src in [TE_GATHER, TE_SCATTER] {
            let (p, mesh, b) = bind(src, "TE", te.clone());
            let seq = syncplace_runtime::run_sequential(&p, &b);
            for np in [2, 3, 4] {
                let part = partition2d(&mesh, np, Method::Greedy);
                let d = decompose2d(&mesh, &part.part, np, Pattern::FIG1);
                let r = run_inspector_executor(&p, &d, &b).unwrap();
                let err = syncplace_runtime::max_rel_error(&seq, &r.result);
                assert!(err < 1e-9, "{} P={np}: max rel error {err}", p.name);
            }
        }
    }

    #[test]
    fn element_array_ghosts_are_an_error() {
        let mesh = gen2d::perturbed_grid(9, 7, 0.2, 5);
        for np in [2, 3, 4] {
            let part = partition2d(&mesh, np, Method::Greedy).part;
            // Each node's incident triangle of the largest part: on the
            // node's owner (the smallest part) an interface node's
            // pick is an overlap triangle.
            let mut pick = vec![0u32; mesh.nnodes()];
            for (t, tri) in mesh.som().iter().enumerate() {
                for &v in tri {
                    if part[t] >= part[pick[v as usize] as usize] {
                        pick[v as usize] = t as u32;
                    }
                }
            }
            let nt = MapData {
                arity: 1,
                targets: pick,
            };
            let (p, mesh, b) = bind(NT_GATHER, "NT", nt);
            let d = decompose2d(&mesh, &part, np, Pattern::FIG1);
            let err = run_inspector_executor(&p, &d, &b).unwrap_err();
            assert!(err.contains("element array A"), "P={np}: {err}");
        }
    }

    #[test]
    fn ghost_schedules_are_subsets_of_full_update() {
        let (p, d, b, _) = setup(3);
        let machines = build_machines(&p, &d, &b).unwrap();
        let plan = inspect(&p, &d, &machines).unwrap();
        for (_, sched) in plan.gathers.values().flatten() {
            assert!(sched.total_values() <= d.node_update.total_values());
            assert!(sched.total_values() > 0);
        }
    }
}
