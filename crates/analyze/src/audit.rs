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
//! * **packet layout** — over the edges the ranks' peer lists name,
//!   each per-pair round-1 packet is listed at both ends and consumed
//!   by its receiver exactly once, with no gaps, overlaps or
//!   out-of-bounds reads, and sender/receiver length bookkeeping
//!   agrees (`SA025`, `SA026`);
//! * **write safety** — within one phase, no rank's local slot is
//!   written twice (a write-write race between unpack, assembly
//!   write-back and round-2 totals) (`SA021`);
//! * **combine order** — assembly groups combine owner-first
//!   (`SA022`), and a uniform reduce op list per phase on the plan's
//!   one canonical binomial tree, checked once per rank (`SA023`) —
//!   the fixed orders that make results bitwise identical across engines.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use syncplace_codegen::{CommOp, PhaseAt, SpmdProgram};
use syncplace_ir::diag::{codes, Diagnostic, Report, Span};
use syncplace_ir::{IdVec, Program, Stmt, StmtId, VarId};
use syncplace_placement::{InsertionPoint, Solution};
use syncplace_runtime::comm::{reduce_tree_children, reduce_tree_parent};
use syncplace_runtime::plan::{CommPlan, PhasePlan, RankPhase, ReducePlan, Term};
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

/// `SA021`: within one phase, every local slot of a rank must be
/// written at most once — by a round-1 unpack, an owned assembly
/// total, or a round-2 write-back.
fn audit_rank_writes(r: &mut Report, phase: usize, rank: usize, rp: &RankPhase) {
    let unpacks = rp.recv1.iter().flat_map(|r1| &r1.updates);
    let unpacks = unpacks.flat_map(|ru| ru.dst.iter().map(|&slot| (ru.var, slot, "round-1 unpack")));
    let groups = rp.assembles.iter().flat_map(|ap| ap.own_groups.iter().map(|g| (ap.var, g)));
    let totals = groups.map(|(var, g)| (var, g.write, "assembly total"));
    let backs = rp.recv2.iter().flat_map(|(_, slots)| slots);
    let backs = backs.map(|&(var, slot)| (var, slot, "round-2 write-back"));
    let mut written: HashMap<(VarId, u32), &'static str> = HashMap::new();
    for (var, slot, what) in unpacks.chain(totals).chain(backs) {
        if let Some(prev) = written.insert((var, slot), what) {
            r.push(Diagnostic::error(
                codes::WRITE_RACE,
                Span::phase(phase, Some(rank)).with_var(var),
                format!(
                    "rank {rank} writes v{var} slot {slot} twice in phase {phase} ({prev} then {what})"
                ),
            ));
        }
    }
}

/// Packet-layout checks for one phase, over the edges its peer lists
/// name: each list names a peer once, each round-1 packet packs what
/// its sender declares and is listed at both ends, round-2 counts agree
/// (`SA025`), and each receiver reads each round-1 packet exactly once
/// (`SA026`).
fn audit_wire(r: &mut Report, phase: usize, ph: &PhasePlan) {
    // Each list's edges `(from, to) → values`: round-1 sends and
    // receives, round-2 sends and write-backs.
    let mut edges = [(); 4].map(|_| BTreeMap::new());
    // The receivers' reads `(off, len, what)` of each round-1 packet.
    let mut reads: BTreeMap<(usize, usize), Vec<_>> = BTreeMap::new();
    for (me, rp) in ph.ranks.iter().enumerate() {
        for s in &rp.send1 {
            let packed: usize = s.gathers.iter().map(|g| g.idx.len()).sum();
            if packed != s.len {
                let msg = format!("rank {me} packs {packed} values for rank {} but declares {}", s.peer, s.len);
                r.push(at(phase, Some(me), codes::PACKET_LENGTH, msg));
            }
        }
        let lists: [(&str, Vec<(u32, usize)>); 4] = [
            ("round-1 sends", rp.send1.iter().map(|s| (s.peer, s.len)).collect()),
            ("round-1 receives", rp.recv1.iter().map(|r1| (r1.peer, 0)).collect()),
            ("round-2 sends", rp.send2.clone()),
            ("round-2 write-backs", rp.recv2.iter().map(|(q, slots)| (*q, slots.len())).collect()),
        ];
        for (i, (what, list)) in lists.into_iter().enumerate() {
            for (peer, len) in list {
                let edge = if i % 2 == 0 { (me, peer as usize) } else { (peer as usize, me) };
                if edges[i].insert(edge, len).is_some() {
                    let msg = format!("rank {me} lists peer {peer} twice among its {what}");
                    r.push(at(phase, Some(me), codes::PACKET_LENGTH, msg));
                }
            }
        }
        for r1 in &rp.recv1 {
            let rd = reads.entry((r1.peer as usize, me)).or_default();
            rd.extend(r1.updates.iter().map(|ru| (ru.off, ru.dst.len() as u32, "update unpack")));
        }
        for t in rp.assembles.iter().flat_map(|ap| &ap.own_groups).flat_map(|g| &g.terms) {
            if let Term::Peer { peer, off } = *t {
                reads.entry((peer as usize, me)).or_default().push((off, 1, "assembly partial"));
            }
        }
    }
    let [sent1, heard1, sent2, heard2] = edges;
    for (&(p, q), len) in &sent1 {
        reads.entry((p, q)).or_default();
        if !heard1.contains_key(&(p, q)) {
            let msg = format!("rank {p} sends rank {q} a round-1 packet of {len} values it never receives");
            r.push(at(phase, Some(p), codes::PACKET_LENGTH, msg));
        }
    }
    for &(p, q) in heard1.keys().filter(|e| !sent1.contains_key(e)) {
        let msg = format!("rank {q} expects a round-1 packet from rank {p}, which sends it nothing");
        r.push(at(phase, Some(q), codes::PACKET_LENGTH, msg));
    }
    for &(p, q) in sent2.keys().chain(heard2.keys()).collect::<BTreeSet<_>>() {
        let [sent, heard] = [&sent2, &heard2].map(|m| m.get(&(p, q)).copied().unwrap_or(0));
        if sent != heard {
            let msg = format!("rank {p} sends {sent} round-2 totals to rank {q}, which expects {heard}");
            r.push(at(phase, Some(p), codes::PACKET_LENGTH, msg));
        }
    }
    // The reads must tile [0, declared) exactly. (Reduction partials
    // never ride round 1: `audit_tree` audits the tree they ride.)
    for ((p, q), mut reads) in reads {
        reads.sort_unstable_by_key(|&(off, len, _)| (off, len));
        let mut cursor = 0u32;
        for (off, len, what) in reads {
            let msg = match off.cmp(&cursor) {
                Ordering::Less => format!(
                    "rank {q} reads [{off}, {}) of rank {p}'s packet twice ({what} overlaps a previous read)",
                    off + len
                ),
                Ordering::Greater => format!(
                    "rank {q} leaves [{cursor}, {off}) of rank {p}'s packet unread before the {what} at {off}"
                ),
                Ordering::Equal => String::new(),
            };
            if !msg.is_empty() {
                r.push(at(phase, Some(q), codes::PACKET_COVERAGE, msg));
            }
            cursor = cursor.max(off + len);
        }
        let declared = sent1.get(&(p, q)).copied().unwrap_or(0);
        if cursor as usize != declared {
            let msg = format!("rank {q} consumes {cursor} of the {declared} values in rank {p}'s packet");
            r.push(at(phase, Some(q), codes::PACKET_COVERAGE, msg));
        }
    }
}

/// Combine-order checks: owner-first assembly (`SA022`) and a uniform
/// reduce op list on every rank (`SA023`).
fn audit_orders(r: &mut Report, phase: usize, ph: &PhasePlan) {
    for (rank, rp) in ph.ranks.iter().enumerate() {
        for ap in &rp.assembles {
            for (gi, g) in ap.own_groups.iter().enumerate() {
                let owner_first = matches!(g.terms.first(), Some(Term::Own(l)) if *l == g.write);
                if !owner_first {
                    r.push(Diagnostic::error(
                        codes::OWNER_FIRST,
                        Span::phase(phase, Some(rank)).with_var(ap.var),
                        format!(
                            "assembly group {gi} of v{} on rank {rank} does not combine owner-first (first term {:?}, write slot {})",
                            ap.var,
                            g.terms.first(),
                            g.write
                        ),
                    ));
                }
            }
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
        let (p, sol, spmd, mut plan) = planned(Pattern::FIG2, 3);
        'outer: for ph in &mut plan.phases {
            for rp in &mut ph.ranks {
                for ap in &mut rp.assembles {
                    for g in &mut ap.own_groups {
                        if g.terms.len() >= 2 {
                            g.terms.reverse();
                            break 'outer;
                        }
                    }
                }
            }
        }
        let rep = audit(&p, &sol, &spmd, &plan);
        assert!(rep.has_code(codes::OWNER_FIRST), "{rep}");
    }
}
