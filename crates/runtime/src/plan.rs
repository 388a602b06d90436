//! Batched communication plans: the `merge_phase` idea realized in
//! the data path, not just the accounting.
//!
//! A [`CommPlan`] is built **once** per (placed program, decomposition)
//! pair, entirely from the decomposition's schedules, and reused
//! across every time-loop iteration. For each communication phase
//! (all ops at one insertion point) it precomputes, per rank, lists of
//! only the peers that rank exchanges with ([`RankPhase`]: a sub-mesh
//! talks to its few neighbours, never to all P ranks):
//!
//! * a round-1 packing recipe — one flat f64 packet per peer carrying
//!   this rank's update values and assembly partials for *all* ops of
//!   the phase, concatenated in op order;
//! * absolute unpack offsets for everything arriving, so receivers
//!   scatter straight out of the wire buffer with no intermediate
//!   allocation: an update's values are *set*, an assembly's partials
//!   *added* into the owner's copies;
//! * a round-2 recipe of the same shape carrying assembled totals back
//!   from owners to their copies (the only traffic that inherently
//!   needs a second latency round).
//!
//! Every op runs on the decomposition's copy schedule of its entity
//! kind: an update is its broadcast, an assembly its reduce (round 1)
//! then broadcast (round 2). Both ends derive the layout independently
//! from the same schedules, so no lengths, tags or headers ever travel.
//! Every engine runs these recipes, so every engine combines in the
//! same fixed orders (an owned slot starts from the owner's own value
//! and adds its holders' partials as the ascending round-1 receive list
//! delivers them; reductions along the binomial tree of
//! [`crate::comm::tree_fold`]) and results are **bitwise identical**.
//! Reduction partials travel on dedicated tree-edge packets — `2(P−1)`
//! messages per phase shared by all of its reduce ops — never on the
//! round-1 pair packets.
//!
//! The plan also carries the program lowered onto its phases, early
//! posts placed ([`CommPlan::tape`], [`crate::tape`]): the one schedule
//! the pooled engines and the model checker step through, the kernel
//! lowered once that they execute ([`CommPlan::kernel`]), and the
//! channels and tree every run on it uses ([`CommPlan::wiring`]).

use crate::comm::{merge_phase, reduce_key, reduce_tree_children, reduce_tree_parent};
use crate::comm::{tree_contribution, CommStats, PhaseContribution, PhaseStat};
use crate::kernel::Kernel;
use crate::tape::{self, Op};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use syncplace_codegen::{CommOp, SpmdProgram};
use syncplace_dfg::ReduceOp;
use syncplace_ir::{IdVec, Program, VarId, VarKind};
use syncplace_obs::{keys, RecorderRef};
use syncplace_overlap::Decomposition;

/// One gather of a packet: append `arrays[var][i]` for each local
/// index. (Reduction partials do not ride the pair packets — they
/// travel on the phase's dedicated tree-edge packets.)
#[derive(Debug, Clone)]
pub struct Gather {
    /// The array to gather from.
    pub var: VarId,
    /// Local indices to append, in packet order.
    pub idx: Vec<u32>,
}

/// A packet this rank sends to one peer, in round 1 or round 2.
#[derive(Debug, Clone)]
pub struct Send1 {
    /// The receiving rank.
    pub peer: u32,
    /// Values over all `gathers` (for exact preallocation).
    pub len: usize,
    /// The gathers, concatenated in packet order.
    pub gathers: Vec<Gather>,
}

/// A packet this rank receives from one peer, in round 1 or round 2.
#[derive(Debug, Clone)]
pub struct Recv1 {
    /// The sending rank.
    pub peer: u32,
    /// The unpacks that write: update values, round-2 totals.
    pub updates: Vec<RecvUpdate>,
    /// The unpacks that add: assembly partials into the owner's copies
    /// (round 1 only).
    pub adds: Vec<RecvUpdate>,
}

/// An unpack recipe: scatter `len(dst)` values starting at absolute
/// offset `off` of the sender's packet, written or added.
#[derive(Debug, Clone)]
pub struct RecvUpdate {
    /// The array to scatter into.
    pub var: VarId,
    /// Absolute start offset in the sender's packet.
    pub off: u32,
    /// Local destination indices, in packet order.
    pub dst: Vec<u32>,
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

/// Everything one rank does in one phase. Each peer list is ascending
/// by peer and names a peer at most once.
#[derive(Debug, Clone, Default)]
pub struct RankPhase {
    /// Round-1 packets I send.
    pub send1: Vec<Send1>,
    /// Round-1 packets I receive.
    pub recv1: Vec<Recv1>,
    /// Reductions, one per `Reduce` op in phase order.
    pub reduces: Vec<ReducePlan>,
    /// Round-2 packets I send: assembled totals, owner → copies.
    pub send2: Vec<Send1>,
    /// Round-2 packets I receive; their unpacks only write.
    pub recv2: Vec<Recv1>,
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

impl PhasePlan {
    /// Count one completion of this phase into `stats`, and into `rec`'s
    /// op and traffic counters — the one accounting of every engine
    /// (a pooled gang passes its rank 0's recorder only).
    pub(crate) fn account(&self, stats: &mut CommStats, rec: &RecorderRef) {
        stats.phases.push(self.stat);
        stats.updates += self.updates;
        stats.assembles += self.assembles;
        stats.reduces += self.reduces;
        if let Some(r) = rec {
            r.add(keys::COMM_MESSAGES, self.stat.messages as u64);
            r.add(keys::COMM_VALUES, self.stat.values as u64);
            r.add(keys::UPDATES, self.updates as u64);
            r.add(keys::ASSEMBLES, self.assembles as u64);
            r.add(keys::REDUCES, self.reduces as u64);
            for red in &self.ranks[0].reduces {
                r.add(reduce_key(red.op), 1);
            }
        }
    }
}

/// The full batched communication plan of a placed program on a
/// decomposition.
#[derive(Debug, Clone)]
pub struct CommPlan {
    /// The decomposition's processor count.
    pub nparts: usize,
    /// All phases, in [`SpmdProgram::phases`] order: phase `k` completes
    /// where the tape's [`Op::Complete`]`(k)` stands.
    pub phases: Vec<PhasePlan>,
    /// The program lowered onto these phases, early posts placed: the
    /// one schedule every engine steps through and the model checker
    /// checks ([`crate::tape`]). `Err` is the refusal of a program with
    /// a loop no engine runs.
    pub tape: Result<Vec<Op>, String>,
    /// The program's kernel, lowered once next to the tape and shared
    /// by every rank of every run on this plan. `Err` is the refusal of
    /// a program the kernel cannot lower.
    pub kernel: Result<Arc<Kernel>, String>,
    /// Every channel a run on this plan opens, derived once here.
    pub wiring: Wiring,
}

/// The gang's channels, fixed by the phases and the tape: built once
/// with the plan and shared by every run on it.
#[derive(Debug, Clone)]
pub struct Wiring {
    /// The ordered pairs `(from, to)` that carry a packet — a round-1 or
    /// round-2 packet of some phase, or a binomial-tree edge —
    /// ascending. A pair's index is its mailbox.
    pub pairs: Vec<(u32, u32)>,
    /// Each rank's end, indexed by rank.
    pub ranks: Vec<RankWiring>,
}

/// One rank's end of the [`Wiring`].
#[derive(Debug, Clone, Default)]
pub struct RankWiring {
    /// A link per peer I exchange anything with, ascending by peer: a
    /// peer's *slot* is its index here.
    pub links: Vec<Link>,
    /// My parent in the binomial tree of [`crate::comm::tree_fold`]
    /// (`None` at the root, and on every rank if no tree is wired).
    pub parent: Option<u32>,
    /// My children in that tree, in the order I combine their totals.
    pub children: Vec<u32>,
}

/// My end of the pair with one peer.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// The peer.
    pub peer: u32,
    /// The mailbox of my packets to the peer (`None`: there are none).
    pub to: Option<usize>,
    /// The mailbox of the peer's packets to me (`None`: there are none).
    pub from: Option<usize>,
    /// The largest phase packet I send the peer, 0 if none: the size of
    /// the two staging buffers an early-posting run seeds for it.
    pub cap: usize,
}

/// Wire `phases` over `nparts` ranks. The binomial tree is wired where
/// some phase reduces at P > 1 or `tape` runs an exit agreement.
fn wire(nparts: usize, phases: &[PhasePlan], tape: &[Op]) -> Wiring {
    // The largest round-1 or round-2 packet per ordered pair; a tree
    // edge alone stages nothing.
    let mut caps = BTreeMap::new();
    for (p, rp) in phases.iter().flat_map(|ph| (0u32..).zip(&ph.ranks)) {
        for (q, len) in rp.send1.iter().chain(&rp.send2).map(|s| (s.peer, s.len)) {
            let cap = caps.entry((p, q)).or_insert(0);
            *cap = len.max(*cap);
        }
    }
    let agree = |op: &Op| matches!(op, Op::Exit { agree: true, .. });
    let tree = nparts > 1 && (tape.iter().any(agree) || phases.iter().any(|ph| ph.reduces > 0));
    let mut ranks = vec![RankWiring::default(); nparts];
    for (r, w) in (0u32..).zip(&mut ranks).filter(|_| tree) {
        w.parent = reduce_tree_parent(r as usize).map(|q| q as u32);
        let children = reduce_tree_children(r as usize, nparts).into_iter();
        w.children = children.map(|c| c as u32).collect();
        for pair in w.parent.into_iter().flat_map(|q| [(r, q), (q, r)]) {
            caps.entry(pair).or_insert(0);
        }
    }
    let pairs: Vec<(u32, u32)> = caps.keys().copied().collect();
    let mut peers = vec![BTreeSet::new(); nparts];
    for &(p, q) in &pairs {
        peers[p as usize].insert(q);
        peers[q as usize].insert(p);
    }
    let at = |pair| pairs.binary_search(&pair).ok();
    for ((p, w), peers) in (0u32..).zip(&mut ranks).zip(peers) {
        let cap = |q| caps.get(&(p, q)).map_or(0, |c| *c);
        let link = |q| Link { peer: q, to: at((p, q)), from: at((q, p)), cap: cap(q) };
        w.links = peers.into_iter().map(link).collect();
    }
    Wiring { pairs, ranks }
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
        let phases: Vec<PhasePlan> =
            (spmd.phases().into_iter()).map(|(_, ops)| build_phase(prog, d, ops)).collect();
        let gathered: Vec<IdVec<()>> = phases.iter().map(gathered_vars).collect();
        let tape = tape::lower(prog, spmd, &gathered);
        CommPlan {
            nparts: d.nparts,
            wiring: wire(d.nparts, &phases, tape.as_deref().unwrap_or_default()),
            tape,
            kernel: Kernel::lower(prog, |s| spmd.kernel_guarded.contains(s)).map(Arc::new),
            phases,
        }
    }
}

/// Union over every rank and peer of the arrays a phase gathers into
/// its round-1 packets.
fn gathered_vars(ph: &PhasePlan) -> IdVec<()> {
    let sends = ph.ranks.iter().flat_map(|rp| &rp.send1);
    sends.flat_map(|s| &s.gathers).map(|g| (g.var, ())).collect()
}

/// One ordered pair's packet in one round while a phase is built.
#[derive(Default)]
struct Pair {
    /// Values packed so far: the next gather's offset.
    off: u32,
    gathers: Vec<Gather>,
    sets: Vec<RecvUpdate>,
    adds: Vec<RecvUpdate>,
}

impl Pair {
    /// Carry the sender's `src` slots of `var` into the receiver's
    /// `dst` slots, written or (`add`) added.
    fn carry(&mut self, var: VarId, src: Vec<u32>, dst: Vec<u32>, add: bool) {
        let unpacks = if add { &mut self.adds } else { &mut self.sets };
        unpacks.push(RecvUpdate { var, off: self.off, dst });
        self.off += src.len() as u32;
        self.gathers.push(Gather { var, idx: src });
    }
}

fn build_phase<const V: usize>(prog: &Program, d: &Decomposition<V>, ops: &[CommOp]) -> PhasePlan {
    let n = d.nparts;
    let mut ranks = vec![RankPhase::default(); n];
    // Only the ordered pairs `(p, q)` that exchange anything, one
    // packet per round.
    let mut pairs: BTreeMap<(usize, usize), [Pair; 2]> = BTreeMap::new();
    let (mut updates, mut assembles, mut reduces) = (0usize, 0usize, 0usize);

    for op in ops {
        match op {
            CommOp::UpdateOverlap { var } => {
                updates += 1;
                // An element array has no copy schedule: nothing moves.
                let VarKind::Array { base } = prog.decl(*var).kind else {
                    panic!("update on non-array");
                };
                let Some(schedule) = d.update_schedule(base) else { continue };
                for m in &schedule.msgs {
                    let (srcs, dsts) = m.pairs.iter().copied().unzip();
                    let pair = &mut pairs.entry((m.from as usize, m.to as usize)).or_default()[0];
                    pair.carry(*var, srcs, dsts, false);
                }
            }
            CommOp::AssembleShared { var } => {
                assembles += 1;
                // Round 1 reduces along the node schedule (each holder's
                // partials added into its owner's copies), round 2
                // broadcasts the totals back along it.
                for m in &d.node_update.msgs {
                    let (srcs, dsts): (Vec<u32>, Vec<u32>) = m.pairs.iter().copied().unzip();
                    let (owner, holder) = (m.from as usize, m.to as usize);
                    let partials = &mut pairs.entry((holder, owner)).or_default()[0];
                    partials.carry(*var, dsts.clone(), srcs.clone(), true);
                    let totals = &mut pairs.entry((owner, holder)).or_default()[1];
                    totals.carry(*var, srcs, dsts, false);
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

    // Finalize: the peer lists (ascending, as `p` then `q` ascend) and
    // the schedule-derived stats.
    let mut per_proc_send = vec![0usize; n];
    let (mut stat, mut rounds) = (PhaseStat::default(), [false; 2]);
    for ((p, q), packets) in pairs {
        for (round, pair) in packets.into_iter().enumerate().filter(|x| x.1.off > 0) {
            let len = pair.off as usize;
            let send = Send1 { peer: q as u32, len, gathers: pair.gathers };
            let recv = Recv1 { peer: p as u32, updates: pair.sets, adds: pair.adds };
            if round == 0 {
                ranks[p].send1.push(send);
                ranks[q].recv1.push(recv);
            } else {
                ranks[p].send2.push(send);
                ranks[q].recv2.push(recv);
            }
            stat.messages += 1;
            stat.values += len;
            rounds[round] = true;
            per_proc_send[p] += len;
        }
    }
    stat.rounds = rounds.iter().filter(|&&r| r).count();
    let mut parts = vec![PhaseContribution::new(stat, per_proc_send)];
    // The shared reduction tree's traffic (the plan's `Wiring` carries
    // the tree): `reduces` values per packet.
    if reduces > 0 {
        parts.push(tree_contribution(n, reduces));
    }
    PhasePlan {
        stat: merge_phase(&parts),
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
        let ops = plan.ops().unwrap().iter();
        let complete = |op: &Op| if let Op::Complete(k) = op { Some(*k) } else { None };
        let mut completes: Vec<usize> = ops.filter_map(complete).collect();
        completes.sort_unstable();
        assert_eq!(completes, (0..plan.phases.len()).collect::<Vec<_>>());
    }

    #[test]
    fn one_packet_per_peer_per_phase_round() {
        // The defining property of the batched wire format: at most
        // one round-1 packet per ordered pair, at most one round-2,
        // plus (for reducing phases) one tree packet per edge per
        // direction shared by every reduce op of the phase.
        let (plan, _) = testiv_plan(Pattern::FIG2, 4);
        for ph in &plan.phases {
            let pairs1 = ph.ranks.iter().map(|r| r.send1.len()).sum::<usize>();
            let pairs2 = ph.ranks.iter().map(|r| r.send2.len()).sum::<usize>();
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
        let reducing = plan.phases.iter().filter(|ph| ph.reduces > 0);
        assert!(reducing.count() > 0, "TESTIV places at least one reduction");
        for ph in &plan.phases {
            for rank in &ph.ranks {
                assert_eq!(rank.reduces.len(), ph.reduces, "every rank folds every op");
            }
        }
        // Every reducing phase runs on the plan's one tree.
        for (r, w) in plan.wiring.ranks.iter().enumerate() {
            assert_eq!(w.parent.map(|p| p as usize), reduce_tree_parent(r));
            let children: Vec<usize> = w.children.iter().map(|&c| c as usize).collect();
            assert_eq!(children, reduce_tree_children(r, plan.nparts));
        }
    }

    #[test]
    fn send_and_recv_layouts_agree() {
        let (plan, _) = testiv_plan(Pattern::FIG2, 3);
        let ascending = |l: Vec<u32>, me| l.windows(2).all(|w| w[0] < w[1]) && !l.contains(&me);
        let rounds = |rp: &RankPhase| [(rp.send1.clone(), rp.recv1.clone()), (rp.send2.clone(), rp.recv2.clone())];
        let mut adds = 0;
        for ph in &plan.phases {
            for (p, rp) in ph.ranks.iter().enumerate() {
                let me = p as u32;
                for (round, (sends, recvs)) in rounds(rp).into_iter().enumerate() {
                    // Every list ascends strictly by peer and skips self.
                    assert!(ascending(sends.iter().map(|s| s.peer).collect(), me));
                    assert!(ascending(recvs.iter().map(|r| r.peer).collect(), me));
                    // Each packet packs what it declares; its receiver
                    // lists it in the same round and unpacks all of it,
                    // in bounds; only round 1 adds.
                    for s in &sends {
                        let sent: usize = s.gathers.iter().map(|g| g.idx.len()).sum();
                        assert_eq!(sent, s.len);
                        let theirs = &rounds(&ph.ranks[s.peer as usize])[round].1;
                        let from_p = theirs.iter().find(|r| r.peer == me).unwrap();
                        let unpacks = || from_p.updates.iter().chain(&from_p.adds);
                        assert_eq!(unpacks().map(|u| u.dst.len()).sum::<usize>(), sent);
                        assert!(unpacks().all(|u| u.off as usize + u.dst.len() <= sent));
                        assert!(round == 0 || from_p.adds.is_empty());
                        adds += from_p.adds.len();
                    }
                    let senders = ph.ranks.iter().filter(|r| {
                        rounds(r)[round].0.iter().any(|s| s.peer == me)
                    });
                    assert_eq!(senders.count(), recvs.len());
                }
            }
        }
        assert!(adds > 0, "TESTIV under node overlap assembles");
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
