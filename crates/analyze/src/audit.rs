//! The CommPlan schedule auditor: static checks on the batched
//! runtime's compiled communication plan.
//!
//! [`CommPlan::build`](syncplace_runtime::plan::CommPlan) derives,
//! once per (placed program, decomposition) pair, the exact wire
//! layout both ends of every exchange will assume — and never sends a
//! length, tag or header to confirm it. The auditor replays that
//! derivation adversarially:
//!
//! * **coverage** — every communication the placement crosses is
//!   executed by exactly one phase, and on the plan's tape — the
//!   schedule every engine steps through — each phase completes exactly
//!   once, right before the statement its insertion point names (last,
//!   for the at-end phase), so no phase is dead or run twice (`SA020`,
//!   `SA024`);
//! * **packet layout** — in both rounds, over the edges the ranks' peer
//!   lists name, each per-pair packet is listed at both ends, packs
//!   what its sender declares and is consumed by its receiver exactly
//!   once, with no gaps, overlaps or out-of-bounds reads (`SA025`,
//!   `SA026`);
//! * **write safety** — within one phase, no rank's local slot is
//!   written twice, and a slot that takes assembly adds takes them from
//!   distinct peers and is not also written (`SA021`);
//! * **combine order** — a rank whose round-1 receives carry assembly
//!   adds lists them strictly ascending by peer, so each owned slot
//!   combines owner-first, then by ascending rank (`SA022`), and a
//!   uniform reduce op list per phase on the plan's one canonical
//!   binomial tree, checked once per rank (`SA023`) — the fixed orders
//!   that make results bitwise identical across engines.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use syncplace_codegen::{CommOp, PhaseAt, SpmdProgram};
use syncplace_ir::diag::{codes, Diagnostic, Report, Span};
use syncplace_ir::{IdVec, Program, Stmt, StmtId, VarId};
use syncplace_placement::{InsertionPoint, Solution};
use syncplace_runtime::comm::{reduce_tree_children, reduce_tree_parent};
use syncplace_runtime::plan::{CommPlan, PhasePlan, RankPhase, ReducePlan};
use syncplace_runtime::tape::Op;

/// Run every audit: solution→phase coverage, then the plan itself.
pub fn audit(prog: &Program, sol: &Solution, spmd: &SpmdProgram, plan: &CommPlan) -> Report {
    let mut r = audit_coverage(sol, spmd);
    r.extend(audit_plan(prog, spmd, plan));
    r.sort();
    r
}

/// Does a comm op realize a comm site?
fn op_matches_site(op: &CommOp, site: &syncplace_placement::CommSite) -> bool {
    use syncplace_automata::CommKind;
    match (op, site.kind) {
        (CommOp::UpdateOverlap { var }, CommKind::UpdateOverlap) => *var == site.var,
        (CommOp::AssembleShared { var }, CommKind::AssembleShared) => *var == site.var,
        (CommOp::Reduce { var, .. }, CommKind::ReduceScalar) => *var == site.var,
        _ => false,
    }
}

/// Check that every communication site of the extracted solution —
/// every Update/Assemble/Reduce transition group the mapping crosses —
/// is executed by **exactly one** phase of the SPMD program (`SA020`).
pub fn audit_coverage(sol: &Solution, spmd: &SpmdProgram) -> Report {
    let mut r = Report::new();
    let phases = spmd.phases();
    for site in &sol.comm_sites {
        let expected_at = match site.location {
            InsertionPoint::Before(s) => PhaseAt::Before(s),
            InsertionPoint::AtEnd => PhaseAt::AtEnd,
        };
        let mut hits = 0usize;
        let mut at_wrong_point = 0usize;
        for (at, ops) in &phases {
            for op in ops.iter() {
                if op_matches_site(op, site) {
                    if *at == expected_at {
                        hits += 1;
                    } else {
                        at_wrong_point += 1;
                    }
                }
            }
        }
        let span = match site.location {
            InsertionPoint::Before(s) => Span::stmt(s).with_var(site.var),
            InsertionPoint::AtEnd => Span::none().with_var(site.var),
        };
        if hits != 1 || at_wrong_point > 0 {
            r.push(Diagnostic::error(
                codes::PHASE_COVERAGE,
                span,
                format!(
                    "{:?} of v{} at {:?} is executed {hits} time(s) at its insertion point ({} elsewhere); exactly one phase must cover it",
                    site.kind, site.var, site.location, at_wrong_point
                ),
            ));
        }
    }
    r
}

/// An error about phase `phase` (`rank`'s part of it, if given).
fn at(phase: usize, rank: Option<usize>, code: &'static str, msg: String) -> Diagnostic {
    Diagnostic::error(code, Span::phase(phase, rank), msg)
}

/// Audit the compiled plan against the SPMD program it was built from.
pub fn audit_plan(prog: &Program, spmd: &SpmdProgram, plan: &CommPlan) -> Report {
    let mut r = Report::new();
    let phases = spmd.phases();

    // --- phase placement on the tape (SA020 / SA024) ------------------------
    if plan.phases.len() != phases.len() {
        let (have, want) = (plan.phases.len(), phases.len());
        let msg = format!("plan has {have} phases for {want} SPMD insertion points");
        r.push(Diagnostic::error(codes::PHASE_COVERAGE, Span::none(), msg));
    }
    audit_placement(&mut r, prog, &phases, plan);
    for (idx, ph) in plan.phases.iter().enumerate() {
        if ph.updates + ph.assembles + ph.reduces == 0 {
            let msg = format!("phase {idx} contains no communication ops");
            r.push(at(idx, None, codes::DEAD_PHASE, msg));
        }
    }
    // Op-count agreement per (insertion point, phase) pair.
    for (idx, ((point, ops), ph)) in phases.iter().zip(&plan.phases).enumerate() {
        let want = ops.iter().fold((0, 0, 0), |(u, a, r), op| match op {
            CommOp::UpdateOverlap { .. } => (u + 1, a, r),
            CommOp::AssembleShared { .. } => (u, a + 1, r),
            CommOp::Reduce { .. } => (u, a, r + 1),
        });
        let have = (ph.updates, ph.assembles, ph.reduces);
        if have != want {
            let msg = format!(
                "phase {idx} compiles {have:?} update/assemble/reduce ops, SPMD point {point:?} has {want:?}"
            );
            r.push(at(idx, None, codes::PHASE_COVERAGE, msg));
        }
    }

    // --- per-phase wire checks ----------------------------------------------
    for (idx, ph) in plan.phases.iter().enumerate() {
        if ph.ranks.len() != plan.nparts {
            let msg = format!("phase {idx} plans {} ranks for {} partitions", ph.ranks.len(), plan.nparts);
            r.push(at(idx, None, codes::PHASE_COVERAGE, msg));
            continue;
        }
        for (p, rp) in ph.ranks.iter().enumerate() {
            audit_rank_writes(&mut r, idx, p, rp);
        }
        audit_wire(&mut r, idx, ph);
        audit_orders(&mut r, idx, ph);
    }
    audit_tree(&mut r, plan);
    r.sort();
    r
}

/// What the first op after a phase's completion belongs to: a
/// statement's own first op, the end of a time loop's body, or the end
/// of the program.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Anchor {
    Stmt(StmtId),
    LoopEnd(StmtId),
    End,
}

/// The anchor of a phase placed before each statement of `stmts` that
/// runs: its own first op — or, for a `max 0` time loop, which lowers to
/// no ops, whatever follows it. `end` follows the block. A statement
/// inside a loop that never runs gets none.
fn anchors(stmts: &[Stmt], end: Anchor, out: &mut IdVec<Anchor>) {
    let mut next = end;
    for s in stmts.iter().rev() {
        match s {
            Stmt::TimeLoop(t) if t.max_iters == 0 => {}
            Stmt::TimeLoop(t) => {
                anchors(&t.body, Anchor::LoopEnd(t.id), out);
                next = Anchor::Stmt(t.id);
            }
            _ => next = Anchor::Stmt(s.id()),
        }
        out.insert(s.id(), next);
    }
}

/// The anchor of the first op after `ops[i]` that is neither a post
/// nor another completion.
fn anchor_after(ops: &[Op], i: usize) -> Anchor {
    let next = ops[i + 1..].iter().find(|op| !matches!(op, Op::Post(_) | Op::Complete(_)));
    match next {
        Some(Op::Loop { id, .. } | Op::Assign(id) | Op::Exit { id, .. } | Op::Head { id, .. }) => {
            Anchor::Stmt(*id)
        }
        Some(Op::Tail { head }) => match ops.get(*head) {
            Some(Op::Head { id, .. }) => Anchor::LoopEnd(*id),
            _ => Anchor::End,
        },
        _ => Anchor::End,
    }
}

/// `SA020` / `SA024` on the plan's tape, the schedule every engine
/// steps through: phase `k` completes exactly once — never, when its
/// statement sits in a loop that never runs, and only if the plan has
/// a phase `k` — and its [`Op::Complete`] stands right before the
/// statement `spmd.phases()[k]` names, or is the tape's last op for the
/// at-end phase.
fn audit_placement(r: &mut Report, prog: &Program, phases: &[(PhaseAt, &[CommOp])], plan: &CommPlan) {
    // A refused program runs no phase: there is no placement to check.
    let Ok(ops) = plan.ops() else { return };
    let mut anchor = IdVec::default();
    anchors(&prog.body, Anchor::End, &mut anchor);
    let mut completions = vec![0usize; plan.phases.len()];
    for (i, op) in ops.iter().enumerate() {
        let Op::Complete(k) = *op else { continue };
        let Some(n) = completions.get_mut(k) else {
            let msg = format!("the tape completes phase {k}, but the plan has {} phases", plan.phases.len());
            r.push(at(k, None, codes::PHASE_COVERAGE, msg));
            continue;
        };
        *n += 1;
        let Some((point, _)) = phases.get(k) else { continue };
        let want = match point {
            PhaseAt::Before(s) => anchor.get(*s).copied(),
            PhaseAt::AtEnd => (i + 1 == ops.len()).then_some(Anchor::End),
        };
        let found = anchor_after(ops, i);
        if want != Some(found) {
            let msg = format!("phase {k} completes before {found:?} on the tape, but its insertion point is {point:?}");
            r.push(at(k, None, codes::PHASE_COVERAGE, msg));
        }
    }
    for (k, &n) in completions.iter().enumerate() {
        let want = match phases.get(k) {
            Some((PhaseAt::Before(s), _)) => usize::from(anchor.contains(*s)),
            _ => 1,
        };
        if n != want {
            let msg = format!("phase {k} completes {n} times on the tape, not {want}");
            r.push(at(k, None, codes::DEAD_PHASE, msg));
        }
    }
}

/// `SA021`: within one phase, every local slot of a rank is written at
/// most once — by a round-1 unpack or a round-2 write-back — or takes
/// round-1 assembly adds from distinct peers and nothing else.
fn audit_rank_writes(r: &mut Report, phase: usize, rank: usize, rp: &RankPhase) {
    // Per slot: what first wrote it, and the peers that added into it.
    let mut written: HashMap<(VarId, u32), (&'static str, Vec<u32>)> = HashMap::new();
    for (recvs, set) in [(&rp.recv1, "round-1 unpack"), (&rp.recv2, "round-2 write-back")] {
        for rv in recvs {
            let sets = rv.updates.iter().map(|ru| (ru, None));
            for (ru, add) in sets.chain(rv.adds.iter().map(|ru| (ru, Some(rv.peer)))) {
                let what = if add.is_some() { "assembly add" } else { set };
                for &slot in &ru.dst {
                    let prev = match written.entry((ru.var, slot)) {
                        Entry::Vacant(v) => {
                            v.insert((what, add.into_iter().collect()));
                            continue;
                        }
                        Entry::Occupied(o) => o.into_mut(),
                    };
                    match add {
                        Some(q) if !prev.1.is_empty() && !prev.1.contains(&q) => prev.1.push(q),
                        _ => r.push(Diagnostic::error(
                            codes::WRITE_RACE,
                            Span::phase(phase, Some(rank)).with_var(ru.var),
                            format!(
                                "rank {rank} writes v{} slot {slot} twice in phase {phase} ({} then {what} from rank {})",
                                ru.var, prev.0, rv.peer
                            ),
                        )),
                    }
                }
            }
        }
    }
}

/// Packet-layout checks for one phase, round 1 then round 2, over the
/// edges its peer lists name: each list names a peer once, each packet
/// packs what its sender declares and is listed at both ends (`SA025`),
/// and each receiver reads each packet exactly once (`SA026`).
fn audit_wire(r: &mut Report, phase: usize, ph: &PhasePlan) {
    for round in [1, 2] {
        // The edges `(from, to)` the sends name, with their declared
        // lengths, and those the receives name.
        let (mut sent, mut heard) = (BTreeMap::new(), BTreeSet::new());
        // The receivers' reads `(off, len, what)` of each packet.
        let mut reads: BTreeMap<(usize, usize), Vec<_>> = BTreeMap::new();
        for (me, rp) in ph.ranks.iter().enumerate() {
            let (sends, recvs) = if round == 1 { (&rp.send1, &rp.recv1) } else { (&rp.send2, &rp.recv2) };
            for s in sends {
                let packed: usize = s.gathers.iter().map(|g| g.idx.len()).sum();
                if packed != s.len {
                    let msg = format!("rank {me} packs {packed} values for rank {} in round {round} but declares {}", s.peer, s.len);
                    r.push(at(phase, Some(me), codes::PACKET_LENGTH, msg));
                }
                if sent.insert((me, s.peer as usize), s.len).is_some() {
                    let msg = format!("rank {me} lists peer {} twice among its round-{round} sends", s.peer);
                    r.push(at(phase, Some(me), codes::PACKET_LENGTH, msg));
                }
            }
            for rv in recvs {
                if !heard.insert((rv.peer as usize, me)) {
                    let msg = format!("rank {me} lists peer {} twice among its round-{round} receives", rv.peer);
                    r.push(at(phase, Some(me), codes::PACKET_LENGTH, msg));
                }
                let rd = reads.entry((rv.peer as usize, me)).or_default();
                rd.extend(rv.updates.iter().map(|ru| (ru.off, ru.dst.len() as u32, "set unpack")));
                rd.extend(rv.adds.iter().map(|ru| (ru.off, ru.dst.len() as u32, "add unpack")));
            }
        }
        for (&(p, q), len) in &sent {
            reads.entry((p, q)).or_default();
            if !heard.contains(&(p, q)) {
                let msg = format!("rank {p} sends rank {q} a round-{round} packet of {len} values it never receives");
                r.push(at(phase, Some(p), codes::PACKET_LENGTH, msg));
            }
        }
        for &(p, q) in heard.iter().filter(|e| !sent.contains_key(e)) {
            let msg = format!("rank {q} expects a round-{round} packet from rank {p}, which sends it nothing");
            r.push(at(phase, Some(q), codes::PACKET_LENGTH, msg));
        }
        // The reads must tile [0, declared) exactly. (Reduction partials
        // never ride the pair packets: `audit_tree` audits the tree they
        // ride.)
        for ((p, q), mut reads) in reads {
            reads.sort_unstable_by_key(|&(off, len, _)| (off, len));
            let mut cursor = 0u32;
            for (off, len, what) in reads {
                let msg = match off.cmp(&cursor) {
                    Ordering::Less => format!(
                        "rank {q} reads [{off}, {}) of rank {p}'s round-{round} packet twice ({what} overlaps a previous read)",
                        off + len
                    ),
                    Ordering::Greater => format!(
                        "rank {q} leaves [{cursor}, {off}) of rank {p}'s round-{round} packet unread before the {what} at {off}"
                    ),
                    Ordering::Equal => String::new(),
                };
                if !msg.is_empty() {
                    r.push(at(phase, Some(q), codes::PACKET_COVERAGE, msg));
                }
                cursor = cursor.max(off + len);
            }
            let declared = sent.get(&(p, q)).copied().unwrap_or(0);
            if cursor as usize != declared {
                let msg = format!("rank {q} consumes {cursor} of the {declared} values in rank {p}'s round-{round} packet");
                r.push(at(phase, Some(q), codes::PACKET_COVERAGE, msg));
            }
        }
    }
}

/// Combine-order checks: owner-first, ascending-rank assembly
/// (`SA022`) and a uniform reduce op list on every rank (`SA023`).
fn audit_orders(r: &mut Report, phase: usize, ph: &PhasePlan) {
    for (rank, rp) in ph.ranks.iter().enumerate() {
        // An owned slot starts from the owner's own value and adds its
        // holders' partials as the round-1 receives deliver them: in
        // the owner-first, ascending-rank order only if they ascend.
        let add = rp.recv1.iter().find_map(|r1| r1.adds.first());
        if let Some(add) = add.filter(|_| !rp.recv1.windows(2).all(|w| w[0].peer < w[1].peer)) {
            let peers: Vec<u32> = rp.recv1.iter().map(|r1| r1.peer).collect();
            r.push(Diagnostic::error(
                codes::OWNER_FIRST,
                Span::phase(phase, Some(rank)).with_var(add.var),
                format!(
                    "rank {rank}'s round-1 receives {peers:?} carry assembly adds but do not ascend by peer: its owned slots would not combine owner-first, then by ascending rank"
                ),
            ));
        }
        // Every rank must carry the same ordered (var, op) reduce
        // list: with the tree (`audit_tree`) it pins the one combine
        // order `comm::tree_fold` defines.
        let reference = &ph.ranks[0].reduces;
        let ops = |l: &[ReducePlan]| l.iter().map(|x| (x.var, x.op)).collect::<Vec<_>>();
        if ops(&rp.reduces) != ops(reference) {
            let msg = format!(
                "rank {rank} executes {} reductions where rank 0 executes {} — the tree packet layout requires an identical ordered op list on every rank",
                rp.reduces.len(),
                reference.len()
            );
            r.push(at(phase, Some(rank), codes::REDUCE_ORDER, msg));
        }
    }
}

/// The binomial tree every reduction and exit agreement runs on
/// (`SA023`), once per rank: where some phase reduces at P > 1 or the
/// tape runs an exit agreement, the plan's wiring must give each rank
/// exactly the canonical parent and children; elsewhere, none.
fn audit_tree(r: &mut Report, plan: &CommPlan) {
    let agree = |op: &Op| matches!(op, Op::Exit { agree: true, .. });
    let agrees = plan.ops().is_ok_and(|ops| ops.iter().any(agree));
    let wired = plan.nparts > 1 && (agrees || plan.phases.iter().any(|ph| ph.reduces > 0));
    let n = plan.nparts;
    for (rank, w) in plan.wiring.ranks.iter().enumerate() {
        let want = wired.then(|| (reduce_tree_parent(rank), reduce_tree_children(rank, n)));
        let want = want.unwrap_or_default();
        let children = w.children.iter().map(|&c| c as usize).collect();
        let have = (w.parent.map(|p| p as usize), children);
        if have != want {
            let msg = format!("rank {rank}'s tree is {have:?}, not the binomial tree's {want:?}");
            r.push(Diagnostic::error(codes::REDUCE_ORDER, Span::none(), msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_ir::programs;
    use syncplace_mesh::gen2d;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_placement::{analyze_program, CostParams, SearchOptions};

    fn planned(
        pattern: Pattern,
        nparts: usize,
    ) -> (Program, Solution, SpmdProgram, CommPlan) {
        let p = programs::testiv();
        let mesh = gen2d::perturbed_grid(9, 9, 0.15, 3);
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
        let sol = analysis.solutions[0].clone();
        let spmd = syncplace_codegen::spmd_program(&p, &dfg, &sol);
        let part = partition2d(&mesh, nparts, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, nparts, pattern);
        let plan = CommPlan::build(&p, &spmd, &d);
        (p, sol, spmd, plan)
    }

    #[test]
    fn clean_plans_audit_clean() {
        for (pattern, nparts) in [
            (Pattern::FIG1, 1),
            (Pattern::FIG1, 4),
            (Pattern::FIG2, 3),
            (Pattern::NodeOverlap, 4),
        ] {
            let (p, sol, spmd, plan) = planned(pattern, nparts);
            let rep = audit(&p, &sol, &spmd, &plan);
            assert!(
                rep.is_clean(),
                "{pattern:?} × {nparts} parts not clean:\n{rep}"
            );
        }
    }

    #[test]
    fn truncated_packet_read_detected() {
        let (p, sol, spmd, mut plan) = planned(Pattern::FIG1, 4);
        // Chop the first non-empty unpack recipe: a coverage gap.
        'outer: for ph in &mut plan.phases {
            for rp in &mut ph.ranks {
                let updates = rp.recv1.iter_mut().flat_map(|r1| &mut r1.updates);
                if let Some(ru) = updates.into_iter().find(|ru| !ru.dst.is_empty()) {
                    ru.dst.pop();
                    break 'outer;
                }
            }
        }
        let rep = audit(&p, &sol, &spmd, &plan);
        assert!(rep.has_code(codes::PACKET_COVERAGE), "{rep}");
    }

    #[test]
    fn dead_phase_detected() {
        let (p, sol, spmd, mut plan) = planned(Pattern::FIG1, 4);
        // Append a copy of phase 0 that no insertion point references.
        let orphan = plan.phases[0].clone();
        plan.phases.push(orphan);
        let rep = audit(&p, &sol, &spmd, &plan);
        assert!(rep.has_code(codes::DEAD_PHASE), "{rep}");
    }

    #[test]
    fn reduce_tree_shape_violation_detected() {
        let (p, sol, spmd, mut plan) = planned(Pattern::FIG1, 4);
        // Re-point a rank's up-edge at the wrong parent.
        assert!(plan.phases.iter().any(|ph| ph.reduces > 0), "TESTIV reduces");
        let rank = 1;
        plan.wiring.ranks[rank].parent = Some(((rank + 1) % plan.nparts) as u32);
        let rep = audit(&p, &sol, &spmd, &plan);
        assert!(rep.has_code(codes::REDUCE_ORDER), "{rep}");
    }

    #[test]
    fn owner_first_violation_detected() {
        // Swap two round-1 receives of one rank that add into a common
        // owned slot: its holders' partials would arrive out of rank
        // order.
        let (p, sol, spmd, mut plan) = planned(Pattern::FIG2, 4);
        let slots = |r1: &syncplace_runtime::plan::Recv1| -> std::collections::BTreeSet<(VarId, u32)> {
            r1.adds.iter().flat_map(|a| a.dst.iter().map(move |&s| (a.var, s))).collect()
        };
        let mut swapped = false;
        'outer: for rp in plan.phases.iter_mut().flat_map(|ph| &mut ph.ranks) {
            for i in 0..rp.recv1.len() {
                for j in i + 1..rp.recv1.len() {
                    if !slots(&rp.recv1[i]).is_disjoint(&slots(&rp.recv1[j])) {
                        rp.recv1.swap(i, j);
                        swapped = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(swapped, "a node shared by three parts");
        let rep = audit(&p, &sol, &spmd, &plan);
        assert_eq!(rep.codes(), [codes::OWNER_FIRST], "{rep}");
    }
}
