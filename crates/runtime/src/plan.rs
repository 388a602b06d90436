//! Batched communication plans: the `merge_phase` idea realized in
//! the data path, not just the accounting.
//!
//! A [`CommPlan`] is built **once** per (placed program, decomposition)
//! pair, entirely from the decomposition's schedules, and reused
//! across every time-loop iteration. For each communication phase
//! (all ops at one insertion point) it precomputes, per rank:
//!
//! * a round-1 packing recipe — one flat f64 packet per peer carrying
//!   this rank's update values, assembly partials and reduction
//!   partials for *all* ops of the phase, concatenated in op order;
//! * absolute unpack offsets for everything arriving, so receivers
//!   scatter straight out of the wire buffer with no intermediate
//!   allocation;
//! * a round-2 recipe carrying assembled totals back from owners to
//!   participants (the only traffic that inherently needs a second
//!   latency round).
//!
//! Both ends derive the layout independently from the same schedules,
//! so no lengths, tags or headers ever travel. Combine orders are the
//! same fixed orders as the reference engines (assembly groups
//! owner-first then ascending part, reductions along the binomial tree
//! of [`crate::comm::tree_fold`]), so results stay **bitwise
//! identical**. Reduction partials travel on dedicated tree-edge
//! packets — `2(P−1)` messages per phase shared by all of its reduce
//! ops — never on the round-1 pair packets.
//!
//! The plan also carries the program lowered onto its phases, early
//! posts placed ([`CommPlan::tape`], [`crate::tape`]): the one schedule
//! the pooled engines and the model checker step through, and the
//! kernel lowered once that they execute ([`CommPlan::kernel`]).

use crate::comm::{merge_phase, PhaseContribution, PhaseStat};
use crate::kernel::Kernel;
use crate::tape::{self, Op};
use std::sync::Arc;
use syncplace_codegen::{CommOp, PhaseAt, SpmdProgram};
use syncplace_dfg::ReduceOp;
use syncplace_ir::{IdVec, Program, VarId, VarKind};
use syncplace_overlap::{Decomposition, UpdateSchedule};

/// One item of a round-1 packet: values are appended in recipe order.
/// (Reduction partials do not ride round 1 — they travel on the
/// phase's dedicated tree-edge packets.)
#[derive(Debug, Clone)]
pub enum PackItem {
    /// Append `arrays[var][i]` for each local index.
    Gather {
        /// The array to gather from.
        var: VarId,
        /// Local indices to append, in packet order.
        idx: Vec<u32>,
    },
}

/// An update's unpack recipe: scatter `len(dst)` values starting at
/// absolute offset `off` of the sender's round-1 packet.
#[derive(Debug, Clone)]
pub struct RecvUpdate {
    /// The array to scatter into.
    pub var: VarId,
    /// Absolute start offset in the sender's round-1 packet.
    pub off: u32,
    /// Local destination indices, in packet order.
    pub dst: Vec<u32>,
}

/// One term of an owned assembly group's combine.
#[derive(Debug, Clone, Copy)]
pub enum Term {
    /// My own copy at this local index.
    Own(u32),
    /// A partial at absolute offset `off` of `peer`'s round-1 packet.
    Peer {
        /// The rank whose packet carries the partial.
        peer: u32,
        /// Absolute offset of the partial in that packet.
        off: u32,
    },
}

/// An assembly group owned by this rank: combine the terms in order
/// (bitwise-fixed), write the total locally, and append it to the
/// round-2 packet of each listed peer.
#[derive(Debug, Clone)]
pub struct OwnGroup {
    /// The combine terms, in the fixed bitwise order.
    pub terms: Vec<Term>,
    /// My local slot for the total (the owner's copy).
    pub write: u32,
    /// Peers owed the total, in group participant order.
    pub send_to: Vec<u32>,
}

/// Per-rank plan for one `AssembleShared` op.
#[derive(Debug, Clone, Default)]
pub struct AssemblePlan {
    /// The shared array being assembled.
    pub var: VarId,
    /// Groups I own, in global group order.
    pub own_groups: Vec<OwnGroup>,
}

/// Per-rank plan for one `Reduce` op: partials combine up the binomial
/// tree rooted at rank 0 and the total broadcasts back down the same
/// edges ([`crate::comm::tree_fold`] fixes the combine order). All
/// reduce ops of a phase share the tree packets — each edge carries one
/// value per op, in phase op order — so the phase ships `2(P−1)`
/// messages however many reductions it carries.
#[derive(Debug, Clone)]
pub struct ReducePlan {
    /// The scalar being reduced.
    pub var: VarId,
    /// The reduction operator.
    pub op: ReduceOp,
}

/// Everything one rank does in one phase.
#[derive(Debug, Clone, Default)]
pub struct RankPhase {
    /// Round-1 packing recipe per peer (empty for self / silent pairs).
    pub send1: Vec<Vec<PackItem>>,
    /// Round-1 packet length per peer (for exact preallocation).
    pub send1_len: Vec<usize>,
    /// Round-1 unpack recipes per sending peer.
    pub recv1: Vec<Vec<RecvUpdate>>,
    /// Which peers send me a round-1 packet.
    pub has_recv1: Vec<bool>,
    /// Assembly combines, one per `AssembleShared` op in phase order.
    pub assembles: Vec<AssemblePlan>,
    /// Reductions, one per `Reduce` op in phase order.
    pub reduces: Vec<ReducePlan>,
    /// Round-2 packet length per peer I owe totals to.
    pub send2_len: Vec<usize>,
    /// Round-2 unpack: per owner peer, my local slots `(var, slot)` in
    /// packet order.
    pub recv2: Vec<Vec<(VarId, u32)>>,
    /// My parent in the phase's reduction tree (`None` for the root —
    /// and for phases without reductions).
    pub red_parent: Option<u32>,
    /// My children in the reduction tree, ascending-offset order (the
    /// combine order of the subtree totals I receive).
    pub red_children: Vec<u32>,
}

/// One communication phase, fully planned for every rank.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// Merged, schedule-derived accounting (identical on every rank).
    pub stat: PhaseStat,
    /// `UpdateOverlap` ops in this phase.
    pub updates: usize,
    /// `AssembleShared` ops in this phase.
    pub assembles: usize,
    /// `Reduce` ops in this phase.
    pub reduces: usize,
    /// Per-rank recipes, indexed by rank.
    pub ranks: Vec<RankPhase>,
}

/// The full batched communication plan of a placed program on a
/// decomposition.
#[derive(Debug, Clone)]
pub struct CommPlan {
    /// The decomposition's processor count.
    pub nparts: usize,
    /// All phases, in schedule order.
    pub phases: Vec<PhasePlan>,
    /// Phase index per insertion point.
    pub before: IdVec<usize>,
    /// The phase placed after the last statement, if any.
    pub at_end: Option<usize>,
    /// The program lowered onto these phases, early posts placed: the
    /// one schedule every engine steps through and the model checker
    /// checks ([`crate::tape`]). `Err` is the refusal of a program with
    /// a loop no engine runs.
    pub tape: Result<Vec<Op>, String>,
    /// The program's kernel, lowered once next to the tape and shared
    /// by every rank of every run on this plan. `Err` is the refusal of
    /// a program the kernel cannot lower.
    pub kernel: Result<Arc<Kernel>, String>,
}

impl CommPlan {
    /// Total round-1 + round-2 packets sent per full sweep of all
    /// phases (the bench's "one packet per peer per phase" check).
    pub fn packets_per_sweep(&self) -> usize {
        self.phases.iter().map(|p| p.stat.messages).sum()
    }

    /// The plan's tape, or the refusal every engine answers with.
    pub fn ops(&self) -> Result<&[Op], String> {
        self.tape.as_deref().map_err(Clone::clone)
    }

    /// Build the plan. Pure function of the placement and schedules.
    pub fn build<const V: usize>(
        prog: &Program,
        spmd: &SpmdProgram,
        d: &Decomposition<V>,
    ) -> CommPlan {
        let nparts = d.nparts;
        let mut phases = Vec::new();
        let mut before = IdVec::default();
        let mut at_end = None;
        for (at, ops) in spmd.phases() {
            let idx = phases.len();
            match at {
                PhaseAt::Before(id) => {
                    before.insert(id, idx);
                }
                PhaseAt::AtEnd => at_end = Some(idx),
            }
            phases.push(build_phase(prog, d, ops, nparts));
        }
        let gathered: Vec<IdVec<()>> = phases.iter().map(gathered_vars).collect();
        CommPlan {
            nparts,
            tape: tape::lower(prog, spmd, &gathered),
            kernel: Kernel::lower(prog, |s| spmd.kernel_guarded.contains(s)).map(Arc::new),
            phases,
            before,
            at_end,
        }
    }
}

/// Union over every rank and peer of the arrays a phase gathers into
/// its round-1 packets.
fn gathered_vars(ph: &PhasePlan) -> IdVec<()> {
    let items = ph.ranks.iter().flat_map(|rp| rp.send1.iter().flatten());
    items.map(|PackItem::Gather { var, .. }| (*var, ())).collect()
}

fn build_phase<const V: usize>(
    prog: &Program,
    d: &Decomposition<V>,
    ops: &[CommOp],
    nparts: usize,
) -> PhasePlan {
    let mut ranks: Vec<RankPhase> = (0..nparts)
        .map(|_| RankPhase {
            send1: vec![Vec::new(); nparts],
            send1_len: vec![0; nparts],
            recv1: vec![Vec::new(); nparts],
            has_recv1: vec![false; nparts],
            assembles: Vec::new(),
            reduces: Vec::new(),
            send2_len: vec![0; nparts],
            recv2: vec![Vec::new(); nparts],
            red_parent: None,
            red_children: Vec::new(),
        })
        .collect();
    // Running round-1 offset per ordered (sender, receiver) pair.
    let mut off1 = vec![vec![0u32; nparts]; nparts];
    let (mut updates, mut assembles, mut reduces) = (0usize, 0usize, 0usize);

    for op in ops {
        match op {
            CommOp::UpdateOverlap { var } => {
                updates += 1;
                let VarKind::Array { base } = prog.decl(*var).kind else {
                    panic!("update on non-array");
                };
                let schedule: Option<&UpdateSchedule> = match base {
                    syncplace_ir::EntityKind::Node => Some(&d.node_update),
                    syncplace_ir::EntityKind::Edge => Some(&d.edge_update),
                    // Element arrays are recomputed redundantly and
                    // always coherent: nothing to move.
                    _ => None,
                };
                let Some(schedule) = schedule else { continue };
                for (p, row) in schedule.msgs.iter().enumerate() {
                    for (q, msg) in row.iter().enumerate() {
                        if msg.is_empty() {
                            continue;
                        }
                        let (srcs, dsts): (Vec<u32>, Vec<u32>) = msg.iter().copied().unzip();
                        ranks[p].send1[q].push(PackItem::Gather {
                            var: *var,
                            idx: srcs,
                        });
                        ranks[q].recv1[p].push(RecvUpdate {
                            var: *var,
                            off: off1[p][q],
                            dst: dsts,
                        });
                        off1[p][q] += msg.len() as u32;
                    }
                }
            }
            CommOp::AssembleShared { var } => {
                assembles += 1;
                // Partial packing order: for each (participant q →
                // owner p) pair, group order, one value per
                // participant entry. Both ends iterate the groups
                // identically, so cursors line up.
                let groups = &d.node_assemble.groups;
                // Per (q, p): the indices q packs for owner p.
                let mut pack: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); nparts]; nparts];
                let mut plans: Vec<AssemblePlan> = (0..nparts)
                    .map(|_| AssemblePlan {
                        var: *var,
                        own_groups: Vec::new(),
                    })
                    .collect();
                for g in groups {
                    let owner = g[0].0 as usize;
                    let mut terms = Vec::with_capacity(g.len());
                    terms.push(Term::Own(g[0].1));
                    let mut send_to = Vec::new();
                    for &(q, l) in &g[1..] {
                        let qu = q as usize;
                        if qu == owner {
                            terms.push(Term::Own(l));
                        } else {
                            terms.push(Term::Peer {
                                peer: q,
                                off: off1[qu][owner] + pack[qu][owner].len() as u32,
                            });
                            pack[qu][owner].push(l);
                            send_to.push(q);
                            // The participant's write-back of the total.
                            ranks[qu].recv2[owner].push((*var, l));
                            ranks[owner].send2_len[qu] += 1;
                        }
                    }
                    plans[owner].own_groups.push(OwnGroup {
                        terms,
                        write: g[0].1,
                        send_to,
                    });
                }
                for q in 0..nparts {
                    for p in 0..nparts {
                        let idx = std::mem::take(&mut pack[q][p]);
                        if !idx.is_empty() {
                            off1[q][p] += idx.len() as u32;
                            ranks[q].send1[p].push(PackItem::Gather { var: *var, idx });
                        }
                    }
                }
                for (r, plan) in plans.into_iter().enumerate() {
                    ranks[r].assembles.push(plan);
                }
            }
            CommOp::Reduce { var, op } => {
                reduces += 1;
                // The transport is the phase-shared binomial tree,
                // installed once during finalization; here only the
                // per-op combine recipe is recorded (on every rank, so
                // the P=1 no-op fold runs uniformly too).
                for rank in ranks.iter_mut() {
                    rank.reduces.push(ReducePlan {
                        var: *var,
                        op: *op,
                    });
                }
            }
        }
    }

    // Finalize: packet lengths, receive masks, schedule-derived stats.
    let mut per_proc_send = vec![0usize; nparts];
    let mut stat1 = PhaseStat::default();
    let mut stat2 = PhaseStat::default();
    for p in 0..nparts {
        for q in 0..nparts {
            let len1 = off1[p][q] as usize;
            ranks[p].send1_len[q] = len1;
            ranks[q].has_recv1[p] = len1 > 0;
            if len1 > 0 {
                stat1.messages += 1;
                stat1.values += len1;
                per_proc_send[p] += len1;
            }
            let len2 = ranks[p].send2_len[q];
            if len2 > 0 {
                stat2.messages += 1;
                stat2.values += len2;
                per_proc_send[p] += len2;
            }
        }
    }
    let mut parts = vec![PhaseContribution::new(
        PhaseStat {
            messages: stat1.messages + stat2.messages,
            values: stat1.values + stat2.values,
            max_proc_values: 0,
            rounds: usize::from(stat1.values > 0) + usize::from(stat2.values > 0),
        },
        per_proc_send,
    )];
    // Install the shared reduction tree and account for its traffic:
    // one packet per edge per direction, `reduces` values each.
    if reduces > 0 && nparts > 1 {
        let mut per_proc_tree = vec![0usize; nparts];
        for (r, rank) in ranks.iter_mut().enumerate() {
            rank.red_parent = crate::comm::reduce_tree_parent(r).map(|p| p as u32);
            rank.red_children = crate::comm::reduce_tree_children(r, nparts)
                .into_iter()
                .map(|c| c as u32)
                .collect();
            per_proc_tree[r] = reduces * (usize::from(r > 0) + rank.red_children.len());
        }
        parts.push(PhaseContribution::new(
            PhaseStat {
                messages: 2 * (nparts - 1),
                values: 2 * (nparts - 1) * reduces,
                max_proc_values: 0,
                rounds: crate::comm::reduce_tree_rounds(nparts),
            },
            per_proc_tree,
        ));
    }
    let stat = merge_phase(&parts);
    PhasePlan {
        stat,
        updates,
        assembles,
        reduces,
        ranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::testiv_bindings;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_ir::{programs, Stmt};
    use syncplace_mesh::gen2d;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_placement::{analyze_program, CostParams, IterationDomain, SearchOptions};

    fn testiv_plan(pattern: Pattern, nparts: usize) -> (CommPlan, SpmdProgram) {
        let p = programs::testiv();
        let mesh = gen2d::perturbed_grid(9, 9, 0.15, 3);
        let _b = testiv_bindings(&p, &mesh, 1e-9);
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
        let spmd = syncplace_codegen::spmd_program(&p, &dfg, &analysis.solutions[0]);
        let part = partition2d(&mesh, nparts, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, nparts, pattern);
        (CommPlan::build(&p, &spmd, &d), spmd)
    }

    #[test]
    fn plan_covers_every_phase() {
        let (plan, spmd) = testiv_plan(Pattern::FIG1, 4);
        assert_eq!(
            plan.phases.len(),
            spmd.phases().len(),
            "one plan per insertion point"
        );
        assert_eq!(plan.before.len() + usize::from(plan.at_end.is_some()), plan.phases.len());
    }

    #[test]
    fn one_packet_per_peer_per_phase_round() {
        // The defining property of the batched wire format: at most
        // one round-1 packet per ordered pair, at most one round-2,
        // plus (for reducing phases) one tree packet per edge per
        // direction shared by every reduce op of the phase.
        let (plan, _) = testiv_plan(Pattern::FIG2, 4);
        for ph in &plan.phases {
            let pairs1 = ph
                .ranks
                .iter()
                .map(|r| r.send1_len.iter().filter(|&&l| l > 0).count())
                .sum::<usize>();
            let pairs2 = ph
                .ranks
                .iter()
                .map(|r| r.send2_len.iter().filter(|&&l| l > 0).count())
                .sum::<usize>();
            let tree = if ph.reduces > 0 && plan.nparts > 1 {
                2 * (plan.nparts - 1)
            } else {
                0
            };
            assert_eq!(ph.stat.messages, pairs1 + pairs2 + tree);
            if ph.reduces == 0 {
                assert!(ph.stat.rounds <= 2);
            }
        }
    }

    #[test]
    fn reduction_tree_matches_the_shared_shape() {
        let (plan, _) = testiv_plan(Pattern::FIG1, 4);
        let mut saw_reduce = false;
        for ph in &plan.phases {
            for (r, rank) in ph.ranks.iter().enumerate() {
                assert_eq!(rank.reduces.len(), ph.reduces, "every rank folds every op");
                if ph.reduces > 0 && plan.nparts > 1 {
                    saw_reduce = true;
                    assert_eq!(
                        rank.red_parent.map(|p| p as usize),
                        crate::comm::reduce_tree_parent(r)
                    );
                    let children: Vec<usize> =
                        rank.red_children.iter().map(|&c| c as usize).collect();
                    assert_eq!(children, crate::comm::reduce_tree_children(r, plan.nparts));
                } else {
                    assert_eq!(rank.red_parent, None);
                    assert!(rank.red_children.is_empty());
                }
            }
        }
        assert!(saw_reduce, "TESTIV places at least one reduction");
    }

    #[test]
    fn send_and_recv_layouts_agree() {
        let (plan, _) = testiv_plan(Pattern::FIG2, 3);
        for ph in &plan.phases {
            for (p, rp) in ph.ranks.iter().enumerate() {
                for q in 0..plan.nparts {
                    // Sender p's packed length to q equals what q
                    // expects from p across all its unpack recipes.
                    let sent: usize = rp.send1[q]
                        .iter()
                        .map(|it| match it {
                            PackItem::Gather { idx, .. } => idx.len(),
                        })
                        .sum();
                    assert_eq!(sent, rp.send1_len[q]);
                    let rq = &ph.ranks[q];
                    // Every absolute offset q reads from p's packet is
                    // in bounds.
                    for ru in &rq.recv1[p] {
                        assert!(ru.off as usize + ru.dst.len() <= sent);
                    }
                    for ap in &rq.assembles {
                        for g in &ap.own_groups {
                            for t in &g.terms {
                                if let Term::Peer { peer, off } = t {
                                    if *peer as usize == p {
                                        assert!((*off as usize) < sent);
                                    }
                                }
                            }
                        }
                    }
                    // Round 2: owner p's packet length to q matches
                    // q's write-back count from p.
                    assert_eq!(rp.send2_len[q], ph.ranks[q].recv2[p].len());
                }
            }
        }
    }

    /// The ids of the statements of `stmts` that `pick` selects, time
    /// loop bodies included, in program order.
    fn ids(stmts: &[Stmt], pick: fn(&Stmt) -> bool) -> Vec<usize> {
        let each = stmts.iter().map(|s| match s {
            Stmt::TimeLoop(t) => ids(&t.body, pick),
            s if pick(s) => vec![s.id()],
            _ => Vec::new(),
        });
        each.flatten().collect()
    }

    /// The `ExitIf` ids of `prog`, in program order.
    fn exit_ids(stmts: &[Stmt]) -> Vec<usize> {
        ids(stmts, |s| matches!(s, Stmt::ExitIf(_)))
    }

    /// The exit tests a plan's tape runs through the agreement tree.
    fn agreed(plan: &CommPlan) -> Vec<usize> {
        let ops = plan.ops().unwrap().iter();
        ops.filter_map(|op| match op {
            Op::Exit { id, agree: true, .. } => Some(*id),
            _ => None,
        })
        .collect()
    }

    /// The agreed exit tests of a parsed program, and all its exit
    /// tests, when its only communication is a reduction of `reduce`
    /// before the time loop and every loop runs over the kernel (no
    /// placement: the analysis reads the SPMD program as given).
    fn agree_with_reduce(src: &str, reduce: Option<&str>) -> (Vec<usize>, Vec<usize>) {
        let prog = syncplace_ir::parser::parse(src).unwrap();
        let mut comms_before = IdVec::default();
        if let Some(name) = reduce {
            let var = prog.decls.iter().position(|d| d.name == name).unwrap();
            let at = (prog.body.iter())
                .find_map(|s| matches!(s, Stmt::TimeLoop(_)).then(|| s.id()))
                .unwrap();
            let op = ReduceOp::Sum;
            comms_before.insert(at, vec![CommOp::Reduce { var, op }]);
        }
        let spmd = SpmdProgram {
            comms_before,
            comms_at_end: Vec::new(),
            domains: (ids(&prog.body, |s| matches!(s, Stmt::Loop(_))).into_iter())
                .map(|id| (id, IterationDomain::Kernel))
                .collect(),
            kernel_guarded: IdVec::default(),
        };
        let mesh = gen2d::perturbed_grid(3, 3, 0.0, 1);
        let part = partition2d(&mesh, 2, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, 2, Pattern::FIG1);
        let plan = CommPlan::build(&prog, &spmd, &d);
        (agreed(&plan), exit_ids(&prog.body))
    }

    #[test]
    fn testiv_exit_test_is_proven_replicated() {
        // `sqrdiff` is reduced right before the test and `epsilon` is an
        // input: every rank decides alike, no agreement needed.
        let (plan, spmd) = testiv_plan(Pattern::FIG1, 4);
        assert!(spmd.phases().iter().any(|(_, ops)| {
            (ops.iter()).any(|o| matches!(o, CommOp::Reduce { .. }))
        }));
        assert!(agreed(&plan).is_empty());
    }

    #[test]
    fn an_exit_on_an_unreduced_partial_needs_agreement() {
        // The §6 hand-placement error: without its reduction the test
        // reads each rank's own partial sum.
        let (_, mut spmd) = testiv_plan(Pattern::FIG1, 4);
        for ops in spmd.comms_before.values_mut() {
            ops.retain(|o| !matches!(o, CommOp::Reduce { .. }));
        }
        let p = programs::testiv();
        let mesh = gen2d::perturbed_grid(9, 9, 0.15, 3);
        let part = partition2d(&mesh, 4, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, 4, Pattern::FIG1);
        let plan = CommPlan::build(&p, &spmd, &d);
        assert_eq!(agreed(&plan), exit_ids(&p.body));
    }

    #[test]
    fn an_exit_on_an_array_element_needs_agreement() {
        // `s = X(5)` outside any loop reads whatever each rank holds at
        // local slot 5: not provably the same value everywhere.
        let (agree, exits) = agree_with_reduce(
            "program t\n  input X : node\n  input eps : scalar\n  var s : scalar\n  \
             iterate loop max 3 {\n    s = X(5)\n    exit when s < eps\n  }\nend",
            None,
        );
        assert_eq!((agree, exits.len()), (exits, 1));
    }

    #[test]
    fn a_partial_reaching_the_test_along_the_back_edge_needs_agreement() {
        // `s` is reduced before the time loop, so the first test reads a
        // total — but the loop after the test makes it a partial again,
        // and the next iteration's test reads that.
        let src = "program t\n  input X : node\n  input eps : scalar\n  var s : scalar\n  \
                   s = 0.0\n  forall i in node split { s = s + X(i) }\n  \
                   iterate loop max 3 {\n    exit when s < eps\n    \
                   forall i in node split { s = s + X(i) }\n  }\nend";
        let (agree, exits) = agree_with_reduce(src, Some("s"));
        assert_eq!((agree, exits.len()), (exits, 1));
        // Without the loop after the test the reduced total stands.
        let src = src.replace("forall i in node split { s = s + X(i) }\n  }", "}");
        let (agree, _) = agree_with_reduce(&src, Some("s"));
        assert!(agree.is_empty());
    }

    #[test]
    fn single_processor_plans_are_silent() {
        let (plan, _) = testiv_plan(Pattern::FIG1, 1);
        for ph in &plan.phases {
            assert_eq!(ph.stat.messages, 0);
            assert_eq!(ph.stat.values, 0);
            assert_eq!(ph.stat.rounds, 0);
        }
    }
}
