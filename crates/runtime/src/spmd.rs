//! The deterministic round-robin SPMD engine.
//!
//! All virtual processors advance together through the program's tape
//! ([`crate::tape`]), op by op, on one thread; the tape's early posts
//! are skipped. At every [`Op::Complete`]`(k)` it runs phase `k` of the
//! [`CommPlan`] in rank order — the recipes and statistics the pooled
//! engines ([`crate::pooled`]) run — so it is bitwise identical to them.

use crate::bindings::{kind_index, Bindings, MapBinding};
use crate::comm::{self, CommStats};
use crate::exec::{Machine, MapTable};
use crate::kernel::Kernel;
use crate::overlap::OverlapReport;
use crate::plan::{CommPlan, PhasePlan, RankPhase, Recv1, Send1};
use crate::pooled::{pack, unpack};
use crate::tape::{Cursor, Op};
use syncplace_obs::{self as obs, keys, RecorderRef};
use syncplace_ir::{EntityKind, IdVec, Program, VarKind};
use syncplace_overlap::{elem_kind, Decomposition, SubMesh};
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

/// Per-processor entity counts of a sub-mesh, indexed by
/// [`kind_index`]: local (kernel + overlap) and kernel.
pub fn submesh_counts<const V: usize>(s: &SubMesh<V>) -> ([usize; 4], [usize; 4]) {
    let (mut counts, mut kernel) = ([0usize; 4], [0usize; 4]);
    for k in [EntityKind::Node, EntityKind::Edge, elem_kind::<V>()] {
        counts[kind_index(k)] = s.l2g(k).map_or(0, <[u32]>::len);
        kernel[kind_index(k)] = s.n_kernel(k).unwrap_or(0);
    }
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
    // table per entity kind, shared across all parts (per-part tables
    // would be O(P·N), fatal at P = 128 on a million-element mesh). A
    // slot holds `(part, local id)` of the last part that stamped it,
    // so it is part `p`'s local id iff its part is `p`. Allocated only
    // when a custom map exists.
    let needs_g2l = b.maps.values().any(|m| matches!(m, MapBinding::Custom(_)));
    let mut g2l: [Vec<(u32, u32)>; 4] = Default::default();
    if needs_g2l {
        for k in [EntityKind::Node, EntityKind::Edge, ek] {
            g2l[kind_index(k)] = vec![(u32::MAX, 0); d.owners(k).map_or(0, <[u32]>::len)];
        }
    }

    let mut machines = Vec::with_capacity(d.nparts);
    for (p, s) in d.submeshes.iter().enumerate() {
        let (counts, kernel) = submesh_counts(s);
        let mut m = Machine::new(prog, counts, kernel);
        if needs_g2l {
            for k in [EntityKind::Node, EntityKind::Edge, ek] {
                for (l, &g) in s.l2g(k).unwrap_or_default().iter().enumerate() {
                    g2l[kind_index(k)][g as usize] = (p as u32, l as u32);
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
                    let Some(from_l2g) = s.l2g(*from) else {
                        return Err(format!("unsupported map source kind {from}"));
                    };
                    let tk = kind_index(*to);
                    let mut targets = Vec::with_capacity(from_l2g.len() * t.arity);
                    for &gf in from_l2g {
                        for slot in 0..t.arity {
                            let (q, l) = g2l[tk][t.targets[gf as usize * t.arity + slot] as usize];
                            targets.push(if q == p as u32 { l } else { u32::MAX });
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
        for (v, &x) in b.input_scalars.iter() {
            m.scalars[v] = x;
        }
        machines.push(m);
    }
    // Inputs.
    for (v, arr) in b.input_arrays.iter() {
        let VarKind::Array { base } = prog.decl(v).kind else {
            continue;
        };
        let Some(locals) = d.scatter(base, arr) else {
            return Err(format!(
                "{base}-based arrays are not supported by the {V}-vertex runtime"
            ));
        };
        for (m, local) in machines.iter_mut().zip(locals) {
            m.arrays[v] = local;
        }
    }
    Ok(machines)
}

struct Sim<'a> {
    plan: &'a CommPlan,
    kernel: Arc<Kernel>,
    machines: Vec<Machine>,
    /// One staging buffer per ordered pair of the plan's wiring, reused
    /// by every phase.
    bufs: Vec<Vec<f64>>,
    stats: CommStats,
    rec: RecorderRef,
}

impl Sim<'_> {
    /// Record one plan packet of `n` values: `from` ships it, `to`
    /// receives and reads it.
    fn packet(&self, from: u32, to: u32, n: usize) {
        if let Some(r) = &self.rec {
            r.packet(from, to, n as u64);
            r.add(keys::BYTES_STAGED, 8 * n as u64);
            r.hb(from, keys::HB_SEND, to);
            r.hb(to, keys::HB_RECV, from);
            r.hb(to, keys::HB_READ, from);
        }
    }

    /// One round of pair packets: every rank packs its sends, then
    /// every rank unpacks its receives in list order.
    fn round(
        &mut self,
        ph: &PhasePlan,
        sends: fn(&RankPhase) -> &[Send1],
        recvs: fn(&RankPhase) -> &[Recv1],
    ) {
        let pairs = &self.plan.wiring.pairs;
        let mailbox = |from: u32, to: u32| pairs.binary_search(&(from, to)).expect("a wired pair");
        for (p, rp) in (0u32..).zip(&ph.ranks) {
            for s in sends(rp) {
                let buf = &mut self.bufs[mailbox(p, s.peer)];
                buf.clear();
                pack(&self.machines[p as usize], s, buf);
                self.packet(p, s.peer, s.len);
            }
        }
        for (q, rp) in (0u32..).zip(&ph.ranks) {
            for r in recvs(rp) {
                unpack(&mut self.machines[q as usize], r, &self.bufs[mailbox(r.peer, q)]);
            }
        }
    }

    /// Complete phase `k` of the plan on every rank: round 1, the
    /// reductions along the binomial tree, round 2.
    fn complete(&mut self, k: usize) {
        let t0 = obs::start(&self.rec);
        let plan = self.plan;
        let ph = &plan.phases[k];
        self.round(ph, |rp| &rp.send1, |rp| &rp.recv1);
        let reduces = &ph.ranks[0].reduces;
        for red in reduces {
            comm::fold_scalar(&mut self.machines, red.var, red.op);
        }
        if !reduces.is_empty() {
            // One packet per tree edge each way, every partial up before
            // any total comes down.
            let tree = || (0u32..).zip(&plan.wiring.ranks).filter_map(|(c, w)| Some((c, w.parent?)));
            tree().for_each(|(c, parent)| self.packet(c, parent, reduces.len()));
            tree().for_each(|(c, parent)| self.packet(parent, c, reduces.len()));
        }
        self.round(ph, |rp| &rp.send2, |rp| &rp.recv2);
        ph.account(&mut self.stats, &self.rec);
        // The simulator is rank 0: the ranked finish emits both the
        // aggregate span and the rank-0 timeline event.
        obs::finish_ranked(&self.rec, keys::PHASE_SPAN, 0, t0);
    }

    /// Step every rank through the tape; returns the iterations run.
    fn run(&mut self, tape: &[Op]) -> usize {
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
                Op::Complete(phase) => self.complete(phase),
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
    let mut engine = Sim {
        plan,
        kernel,
        machines,
        bufs: vec![Vec::new(); plan.wiring.pairs.len()],
        stats: CommStats::default(),
        rec: rec.clone(),
    };
    // One simulator thread plays every rank, so the whole-job event is
    // attributed to rank 0 — documented timeline convention.
    let t_job = obs::start(rec);
    let iterations = engine.run(tape);
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
                let global = d
                    .gather(base, &locals)
                    .unwrap_or_else(|| panic!("{base}-based output arrays unsupported"));
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
