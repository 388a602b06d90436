//! The deterministic round-robin SPMD engine.
//!
//! All virtual processors advance together through the program's tape
//! ([`crate::tape`]), op by op; at every [`Op::Complete`] the
//! decomposition's schedules are applied and counted, and the tape's
//! early posts are skipped. Because the
//! combine orders are fixed, the engine is bitwise deterministic and
//! bitwise identical to the pooled message-passing engine
//! ([`crate::pooled`]), whose oracle it is.

use crate::bindings::{kind_index, Bindings, MapBinding};
use crate::comm::{self, CommStats};
use crate::exec::{Machine, MapTable};
use crate::kernel::Kernel;
use crate::plan::CommPlan;
use crate::overlap::OverlapReport;
use crate::tape::{Cursor, Op};
use syncplace_obs::{self as obs, keys, RecorderRef};
use syncplace_codegen::{CommOp, SpmdProgram};
use syncplace_ir::{EntityKind, IdVec, Program, VarKind};
use syncplace_overlap::{Decomposition, SubMesh};
use std::sync::Arc;

/// Result of an SPMD run, with outputs gathered back to global
/// numbering from the owners' kernel values.
#[derive(Debug, Clone)]
pub struct SpmdResult {
    /// Final values of every output array, gathered to global numbering.
    pub output_arrays: IdVec<Vec<f64>>,
    /// Final values of every output scalar (rank 0's replica).
    pub output_scalars: IdVec<f64>,
    /// The spread (max-min) of each output scalar across processors —
    /// nonzero means a placement error left a scalar unreplicated.
    pub output_scalar_spread: IdVec<f64>,
    /// Time-loop iterations executed.
    pub iterations: usize,
    /// Aggregate communication statistics of the run.
    pub stats: CommStats,
    /// Abstract compute units per processor.
    pub per_proc_compute: Vec<f64>,
    /// What early posting hid, per phase application (all zeros unless
    /// the `overlapped` engine ran).
    pub overlap: OverlapReport,
}

/// The element entity kind of a decomposition arity.
pub fn elem_kind<const V: usize>() -> EntityKind {
    match V {
        3 => EntityKind::Tri,
        4 => EntityKind::Tet,
        _ => panic!("unsupported element arity {V}"),
    }
}

/// Per-processor entity counts of a sub-mesh.
pub fn submesh_counts<const V: usize>(s: &SubMesh<V>) -> ([usize; 4], [usize; 4]) {
    let mut counts = [0usize; 4];
    let mut kernel = [0usize; 4];
    counts[kind_index(EntityKind::Node)] = s.nnodes();
    kernel[kind_index(EntityKind::Node)] = s.n_kernel_nodes;
    counts[kind_index(EntityKind::Edge)] = s.nedges();
    kernel[kind_index(EntityKind::Edge)] = s.n_kernel_edges;
    counts[kind_index(elem_kind::<V>())] = s.nelems();
    kernel[kind_index(elem_kind::<V>())] = s.n_kernel_elems;
    (counts, kernel)
}

/// Build the per-processor machines: localized maps, scattered inputs.
pub fn build_machines<const V: usize>(
    prog: &Program,
    d: &Decomposition<V>,
    b: &Bindings,
) -> Result<Vec<Machine>, String> {
    b.validate(prog)?;
    let ek = elem_kind::<V>();
    // Global→local scratch for localizing `Custom` map targets: ONE
    // table per entity kind, shared across all parts and validated by
    // stamp (a slot holds part `p`'s local id iff its stamp equals
    // `p`). Replaces the former per-part dense tables, which were
    // O(P·N) memory and allocation — fatal at P = 128 on a
    // million-element mesh. Allocated only when a custom map exists.
    let needs_g2l = b.maps.values().any(|m| matches!(m, MapBinding::Custom(_)));
    let mut g2l_local: [Vec<u32>; 4] = Default::default();
    let mut g2l_stamp: [Vec<u32>; 4] = Default::default();
    if needs_g2l {
        let mut sizes = [0usize; 4];
        sizes[kind_index(EntityKind::Node)] = d.nnodes_global;
        sizes[kind_index(EntityKind::Edge)] = d.global_edges.len();
        sizes[kind_index(ek)] = d.nelems_global;
        for (loc, (st, n)) in g2l_local.iter_mut().zip(g2l_stamp.iter_mut().zip(sizes)) {
            *loc = vec![u32::MAX; n];
            *st = vec![u32::MAX; n];
        }
    }

    let mut machines = Vec::with_capacity(d.nparts);
    for (p, s) in d.submeshes.iter().enumerate() {
        let (counts, kernel) = submesh_counts(s);
        let mut m = Machine::new(prog, counts, kernel);
        if needs_g2l {
            let lists: [(usize, &[u32]); 3] = [
                (kind_index(EntityKind::Node), &s.nodes_l2g),
                (kind_index(EntityKind::Edge), &s.edges_l2g),
                (kind_index(ek), &s.elems_l2g),
            ];
            for (ki, l2g) in lists {
                for (l, &g) in l2g.iter().enumerate() {
                    g2l_local[ki][g as usize] = l as u32;
                    g2l_stamp[ki][g as usize] = p as u32;
                }
            }
        }
        // Maps.
        for (v, binding) in b.maps.iter() {
            let VarKind::Map { from, to, arity } = &prog.decl(v).kind else {
                return Err(format!(
                    "{} bound as map but not declared as one",
                    prog.decl(v).name
                ));
            };
            let table = match binding {
                MapBinding::ElemNodes => {
                    if *from != ek || *arity != V {
                        return Err(format!(
                            "map {} bound to element corners but declared {from}[{arity}]",
                            prog.decl(v).name
                        ));
                    }
                    MapTable {
                        arity: V,
                        targets: s.elems.iter().flatten().copied().collect(),
                    }
                }
                MapBinding::EdgeNodes => MapTable {
                    arity: 2,
                    targets: s.edges.iter().flatten().copied().collect(),
                },
                MapBinding::Custom(t) => {
                    // Localize: rows for local from-entities, targets
                    // translated to local ids (MAX when absent).
                    let from_l2g: &[u32] = match *from {
                        EntityKind::Node => &s.nodes_l2g,
                        EntityKind::Edge => &s.edges_l2g,
                        k if k == ek => &s.elems_l2g,
                        k => return Err(format!("unsupported map source kind {k}")),
                    };
                    let tk = kind_index(*to);
                    let mut targets = Vec::with_capacity(from_l2g.len() * t.arity);
                    for &gf in from_l2g {
                        for slot in 0..t.arity {
                            let gt = t.targets[gf as usize * t.arity + slot] as usize;
                            targets.push(if g2l_stamp[tk][gt] == p as u32 {
                                g2l_local[tk][gt]
                            } else {
                                u32::MAX
                            });
                        }
                    }
                    MapTable {
                        arity: t.arity,
                        targets,
                    }
                }
            };
            m.maps[v] = table;
        }
        // Inputs.
        for (v, arr) in b.input_arrays.iter() {
            let VarKind::Array { base } = prog.decl(v).kind else {
                continue;
            };
            let l2g: &[u32] = match base {
                EntityKind::Node => &s.nodes_l2g,
                EntityKind::Edge => &s.edges_l2g,
                k if k == ek => &s.elems_l2g,
                k => {
                    return Err(format!(
                        "{k}-based arrays are not supported by the {V}-vertex runtime"
                    ))
                }
            };
            m.arrays[v] = l2g.iter().map(|&g| arr[g as usize]).collect();
        }
        for (v, &x) in b.input_scalars.iter() {
            m.scalars[v] = x;
        }
        machines.push(m);
    }
    Ok(machines)
}

struct Sim<'a, const V: usize> {
    prog: &'a Program,
    d: &'a Decomposition<V>,
    kernel: Arc<Kernel>,
    machines: Vec<Machine>,
    stats: CommStats,
    rec: RecorderRef,
}

impl<'a, const V: usize> Sim<'a, V> {
    fn apply_comms(&mut self, ops: &[CommOp]) {
        if ops.is_empty() {
            return;
        }
        let t0 = obs::start(&self.rec);
        let mut parts: Vec<comm::PhaseContribution> = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                CommOp::UpdateOverlap { var } => {
                    let VarKind::Array { base } = self.prog.decl(*var).kind else {
                        panic!("update on non-array");
                    };
                    parts.push(comm::apply_update(
                        &mut self.machines,
                        self.d,
                        base,
                        *var,
                        &self.rec,
                    ));
                    self.stats.updates += 1;
                    if let Some(r) = &self.rec {
                        r.add(keys::UPDATES, 1);
                    }
                }
                CommOp::AssembleShared { var } => {
                    parts.push(comm::apply_assemble(
                        &mut self.machines,
                        self.d,
                        *var,
                        &self.rec,
                    ));
                    self.stats.assembles += 1;
                    if let Some(r) = &self.rec {
                        r.add(keys::ASSEMBLES, 1);
                    }
                }
                CommOp::Reduce { var, op } => {
                    parts.push(comm::apply_reduce(&mut self.machines, *var, *op, &self.rec));
                    self.stats.reduces += 1;
                    if let Some(r) = &self.rec {
                        r.add(keys::REDUCES, 1);
                        r.add(comm::reduce_key(*op), 1);
                    }
                }
            }
        }
        let stat = comm::merge_phase(&parts);
        if let Some(r) = &self.rec {
            r.add(keys::COMM_MESSAGES, stat.messages as u64);
            r.add(keys::COMM_VALUES, stat.values as u64);
            r.add(keys::BYTES_STAGED, 8 * stat.values as u64);
        }
        // The simulator is rank 0: the ranked finish emits both the
        // aggregate span and the rank-0 timeline event.
        obs::finish_ranked(&self.rec, keys::PHASE_SPAN, 0, t0);
        self.stats.phases.push(stat);
    }

    /// Step every rank through the tape; returns the iterations run.
    fn run(&mut self, tape: &[Op], phases: &[&[CommOp]]) -> usize {
        let mut cur = Cursor::new(tape);
        while let Some(op) = cur.next() {
            match *op {
                Op::Assign(id) => {
                    for m in &mut self.machines {
                        m.exec_stmt(&self.kernel, id);
                    }
                }
                Op::Loop { id, entity, domain, .. } => {
                    for (rank, m) in self.machines.iter_mut().enumerate() {
                        let n = m.domain_count(entity, domain);
                        let kernel = m.kernel_count(entity);
                        let t0 = obs::start(&self.rec);
                        m.exec_loop(&self.kernel, id, n, kernel);
                        obs::finish_ranked(&self.rec, keys::COMPUTE_SPAN, rank as u32, t0);
                    }
                }
                Op::Complete(phase) => self.apply_comms(phases[phase]),
                Op::Exit { id, to, .. } => {
                    let decisions: Vec<bool> = self
                        .machines
                        .iter_mut()
                        .map(|m| m.exec_stmt(&self.kernel, id))
                        .collect();
                    if decisions.iter().any(|&x| x != decisions[0]) {
                        self.stats.divergent_exits += 1;
                    }
                    if decisions[0] {
                        cur.exit(to);
                    }
                }
                Op::Post(_) | Op::Head { .. } | Op::Tail { .. } => {}
            }
        }
        cur.iterations
    }
}

/// Run a placed SPMD program on a decomposition with the round-robin
/// engine — what [`crate::Engine::run_with`] calls for
/// [`crate::Engine::RoundRobin`]. It executes `plan`'s kernel and tape.
/// `rec` is the live metric recorder (see `syncplace-obs`); `None` is
/// exactly the uninstrumented path.
pub(crate) fn run<const V: usize>(
    prog: &Program,
    spmd: &SpmdProgram,
    d: &Decomposition<V>,
    b: &Bindings,
    plan: &Arc<CommPlan>,
    rec: &RecorderRef,
) -> Result<SpmdResult, String> {
    let t0 = obs::start(rec);
    let machines = build_machines(prog, d, b)?;
    let kernel = plan.kernel.clone()?;
    kernel.check_tables(prog, &machines)?;
    let tape = plan.ops()?;
    let phases: Vec<&[CommOp]> = spmd.phases().into_iter().map(|(_, ops)| ops).collect();
    let mut engine = Sim {
        prog,
        d,
        kernel,
        machines,
        stats: CommStats::default(),
        rec: rec.clone(),
    };
    // One simulator thread plays every rank, so the whole-job event is
    // attributed to rank 0 — documented timeline convention.
    let t_job = obs::start(rec);
    let iterations = engine.run(tape, &phases);
    obs::finish_event(rec, keys::RANK_RUN, 0, t_job);
    if let Some(r) = rec {
        r.add(keys::ITERATIONS, iterations as u64);
    }
    obs::finish(rec, keys::RUN_SPAN, t0);
    Ok(collect_results::<V>(
        prog,
        d,
        engine.machines,
        engine.stats,
        iterations,
        OverlapReport::default(),
    ))
}

/// Gather outputs from per-processor machines — the one constructor of
/// an [`SpmdResult`], shared by every engine. `overlap` is the pooled
/// core's report (the default, all zeros, for an engine that never
/// posts early).
pub fn collect_results<const V: usize>(
    prog: &Program,
    d: &Decomposition<V>,
    machines: Vec<Machine>,
    stats: CommStats,
    iterations: usize,
    overlap: OverlapReport,
) -> SpmdResult {
    let ek = elem_kind::<V>();
    let mut output_arrays = IdVec::default();
    let mut output_scalars = IdVec::default();
    let mut output_scalar_spread = IdVec::default();
    for v in prog.outputs() {
        match prog.decl(v).kind {
            VarKind::Scalar => {
                let vals: Vec<f64> = machines.iter().map(|m| m.scalars[v]).collect();
                let max = vals.iter().cloned().fold(f64::MIN, f64::max);
                let min = vals.iter().cloned().fold(f64::MAX, f64::min);
                output_scalars.insert(v, vals[0]);
                output_scalar_spread.insert(v, max - min);
            }
            VarKind::Array { base } => {
                let locals: Vec<Vec<f64>> = machines.iter().map(|m| m.arrays[v].clone()).collect();
                let global = match base {
                    EntityKind::Node => d.gather_node_array(&locals),
                    EntityKind::Edge => d.gather_edge_array(&locals),
                    k if k == ek => d.gather_elem_array(&locals),
                    k => panic!("{k}-based output arrays unsupported"),
                };
                output_arrays.insert(v, global);
            }
            VarKind::Map { .. } => {}
        }
    }
    SpmdResult {
        output_arrays,
        output_scalars,
        output_scalar_spread,
        iterations,
        stats,
        per_proc_compute: machines.iter().map(|m| m.compute_units).collect(),
        overlap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::testiv_bindings;
    use crate::Engine;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_ir::programs;
    use syncplace_mesh::gen2d;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_placement::{analyze_program, CostParams, SearchOptions};

    fn run_testiv(
        pattern: Pattern,
        nparts: usize,
        solution_idx: usize,
    ) -> (f64, SpmdResult, crate::exec::SeqResult) {
        let p = programs::testiv();
        let mesh = gen2d::perturbed_grid(10, 10, 0.2, 7);
        let b = testiv_bindings(&p, &mesh, 1e-9);
        let seq = crate::run_sequential(&p, &b);

        let automaton = match pattern {
            Pattern::NodeOverlap => fig7(),
            _ => fig6(),
        };
        let (dfg, analysis) = analyze_program(
            &p,
            &automaton,
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let sol = &analysis.solutions[solution_idx.min(analysis.solutions.len() - 1)];
        let spmd_prog = syncplace_codegen::spmd_program(&p, &dfg, sol);
        let part = partition2d(&mesh, nparts, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, nparts, pattern);
        let res = Engine::RoundRobin.run(&p, &spmd_prog, &d, &b).unwrap();
        let err = crate::max_rel_error(&seq, &res);
        (err, res, seq)
    }

    #[test]
    fn testiv_fig1_matches_sequential() {
        let (err, res, seq) = run_testiv(Pattern::FIG1, 4, 0);
        assert!(err < 1e-9, "max rel error {err}");
        assert_eq!(res.iterations, seq.iterations);
        assert!(res.stats.nphases() > 0);
        assert_eq!(res.stats.divergent_exits, 0);
    }

    #[test]
    fn testiv_fig1_second_solution_also_matches() {
        // The Fig. 10-style placement computes the same results.
        let (err, res, _) = run_testiv(Pattern::FIG1, 4, 4);
        assert!(err < 1e-9, "max rel error {err}");
        assert_eq!(res.stats.divergent_exits, 0);
    }

    #[test]
    fn testiv_fig2_matches_sequential() {
        let (err, res, _) = run_testiv(Pattern::FIG2, 4, 0);
        assert!(err < 1e-9, "max rel error {err}");
        assert!(res.stats.assembles > 0);
    }

    #[test]
    fn single_processor_is_exact() {
        let (err, res, seq) = run_testiv(Pattern::FIG1, 1, 0);
        assert_eq!(err, 0.0);
        assert_eq!(res.per_proc_compute.len(), 1);
        // One processor does all the sequential work (same units).
        assert!((res.per_proc_compute[0] - seq.compute_units).abs() < 1e-6);
    }

    #[test]
    fn many_processors_still_match() {
        for nparts in [2, 3, 5, 8] {
            let (err, _, _) = run_testiv(Pattern::FIG1, nparts, 0);
            assert!(err < 1e-9, "nparts={nparts}: {err}");
        }
    }

    #[test]
    fn compute_is_distributed() {
        let (_, res, seq) = run_testiv(Pattern::FIG1, 4, 0);
        let max = res
            .per_proc_compute
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        // Each processor does much less than the whole (with overlap
        // overhead, more than a perfect quarter).
        assert!(
            max < seq.compute_units * 0.55,
            "{max} vs {}",
            seq.compute_units
        );
        assert!(max > seq.compute_units * 0.25);
    }

    #[test]
    fn broken_placement_detected_at_runtime() {
        // Strip all communications: results must diverge from the
        // sequential run (the §6 hand-placement error, observable).
        let p = programs::testiv();
        let mesh = gen2d::perturbed_grid(10, 10, 0.2, 7);
        let mut b = testiv_bindings(&p, &mesh, 1e-9);
        // A non-uniform field: a constant field would mask the missing
        // communications (every processor computes the same constant).
        let init = p.lookup("INIT").unwrap();
        b.input_arrays
            .insert(init, (0..mesh.nnodes()).map(|i| (i % 7) as f64).collect());
        let seq = crate::run_sequential(&p, &b);
        let (dfg, analysis) = analyze_program(
            &p,
            &fig6(),
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let mut spmd_prog = syncplace_codegen::spmd_program(&p, &dfg, &analysis.solutions[0]);
        spmd_prog.comms_before.clear();
        spmd_prog.comms_at_end.clear();
        let part = partition2d(&mesh, 4, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, 4, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&p, &spmd_prog, &d, &b).unwrap();
        let err = crate::max_rel_error(&seq, &res);
        assert!(err > 1e-9, "missing comms must corrupt results, err={err}");
    }
}
