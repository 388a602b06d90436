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
//!   executed by exactly one phase, every insertion point of the SPMD
//!   program has its phase, and no phase is dead or referenced twice
//!   (`SA020`, `SA024`);
//! * **packet layout** — each per-pair round-1 packet is consumed by
//!   its receiver exactly once, with no gaps, overlaps or
//!   out-of-bounds reads, and sender/receiver length bookkeeping
//!   agrees (`SA025`, `SA026`);
//! * **write safety** — within one phase, no rank's local slot is
//!   written twice (a write-write race between unpack, assembly
//!   write-back and round-2 totals) (`SA021`);
//! * **combine order** — assembly groups combine owner-first
//!   (`SA022`) and every rank installs the same canonical binomial
//!   reduction tree with a uniform op list (`SA023`) — the two fixed
//!   orders that make results bitwise identical across engines.

use std::collections::HashMap;
use syncplace_codegen::{CommOp, PhaseAt, SpmdProgram};
use syncplace_ir::diag::{codes, Diagnostic, Report, Span};
use syncplace_ir::{Program, VarId};
use syncplace_placement::{InsertionPoint, Solution};
use syncplace_runtime::comm::{reduce_tree_children, reduce_tree_parent};
use syncplace_runtime::plan::{CommPlan, PackItem, RankPhase, Term};

/// Length in values of one pack item.
fn item_len(it: &PackItem) -> usize {
    match it {
        PackItem::Gather { idx, .. } => idx.len(),
    }
}

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

/// Audit the compiled plan against the SPMD program it was built from.
pub fn audit_plan(_prog: &Program, spmd: &SpmdProgram, plan: &CommPlan) -> Report {
    let mut r = Report::new();
    let phases = spmd.phases();

    // --- phase bijection (SA020 / SA024) ------------------------------------
    if plan.phases.len() != phases.len() {
        r.push(Diagnostic::error(
            codes::PHASE_COVERAGE,
            Span::none(),
            format!(
                "plan has {} phases for {} SPMD insertion points",
                plan.phases.len(),
                phases.len()
            ),
        ));
    }
    let mut referenced: HashMap<usize, usize> = HashMap::new();
    for (stmt, &idx) in plan.before.iter() {
        *referenced.entry(idx).or_insert(0) += 1;
        if !phases
            .iter()
            .any(|(at, _)| *at == PhaseAt::Before(stmt))
        {
            r.push(Diagnostic::error(
                codes::PHASE_COVERAGE,
                Span::phase(idx, None).with_stmt(stmt),
                format!("plan schedules phase {idx} before s{stmt}, but the SPMD program has no ops there"),
            ));
        }
    }
    if let Some(idx) = plan.at_end {
        *referenced.entry(idx).or_insert(0) += 1;
        if !phases.iter().any(|(at, _)| *at == PhaseAt::AtEnd) {
            r.push(Diagnostic::error(
                codes::PHASE_COVERAGE,
                Span::phase(idx, None),
                "plan schedules an at-end phase, but the SPMD program ends without ops".to_string(),
            ));
        }
    }
    for (at, _) in &phases {
        let covered = match at {
            PhaseAt::Before(s) => plan.before.contains(*s),
            PhaseAt::AtEnd => plan.at_end.is_some(),
        };
        if !covered {
            r.push(Diagnostic::error(
                codes::PHASE_COVERAGE,
                match at {
                    PhaseAt::Before(s) => Span::stmt(*s),
                    PhaseAt::AtEnd => Span::none(),
                },
                format!("SPMD insertion point {at:?} has no plan phase"),
            ));
        }
    }
    for (idx, ph) in plan.phases.iter().enumerate() {
        match referenced.get(&idx) {
            None => r.push(Diagnostic::error(
                codes::DEAD_PHASE,
                Span::phase(idx, None),
                format!("phase {idx} is never executed (no insertion point references it)"),
            )),
            Some(&n) if n > 1 => r.push(Diagnostic::error(
                codes::DEAD_PHASE,
                Span::phase(idx, None),
                format!("phase {idx} is referenced by {n} insertion points"),
            )),
            _ => {}
        }
        if ph.updates + ph.assembles + ph.reduces == 0 {
            r.push(Diagnostic::error(
                codes::DEAD_PHASE,
                Span::phase(idx, None),
                format!("phase {idx} contains no communication ops"),
            ));
        }
    }
    // Op-count agreement per (insertion point, phase) pair.
    for (at, ops) in &phases {
        let idx = match at {
            PhaseAt::Before(s) => plan.before.get(*s).copied(),
            PhaseAt::AtEnd => plan.at_end,
        };
        let Some(idx) = idx.filter(|&i| i < plan.phases.len()) else {
            continue; // already reported above
        };
        let ph = &plan.phases[idx];
        let want_u = ops
            .iter()
            .filter(|o| matches!(o, CommOp::UpdateOverlap { .. }))
            .count();
        let want_a = ops
            .iter()
            .filter(|o| matches!(o, CommOp::AssembleShared { .. }))
            .count();
        let want_r = ops.iter().filter(|o| matches!(o, CommOp::Reduce { .. })).count();
        if (ph.updates, ph.assembles, ph.reduces) != (want_u, want_a, want_r) {
            r.push(Diagnostic::error(
                codes::PHASE_COVERAGE,
                Span::phase(idx, None),
                format!(
                    "phase {idx} compiles {}/{}/{} update/assemble/reduce ops, SPMD point {at:?} has {want_u}/{want_a}/{want_r}",
                    ph.updates, ph.assembles, ph.reduces
                ),
            ));
        }
    }

    // --- per-phase wire checks ----------------------------------------------
    for (idx, ph) in plan.phases.iter().enumerate() {
        if ph.ranks.len() != plan.nparts {
            r.push(Diagnostic::error(
                codes::PHASE_COVERAGE,
                Span::phase(idx, None),
                format!(
                    "phase {idx} plans {} ranks for {} partitions",
                    ph.ranks.len(),
                    plan.nparts
                ),
            ));
            continue;
        }
        for p in 0..plan.nparts {
            audit_rank_writes(&mut r, idx, p, &ph.ranks[p]);
            for q in 0..plan.nparts {
                audit_pair(&mut r, idx, ph, p, q);
            }
        }
        audit_orders(&mut r, plan, idx, ph);
    }
    r.sort();
    r
}

/// `SA021`: within one phase, every local slot of a rank must be
/// written at most once — by a round-1 unpack, an owned assembly
/// total, or a round-2 write-back.
fn audit_rank_writes(r: &mut Report, phase: usize, rank: usize, rp: &RankPhase) {
    let mut written: HashMap<(VarId, u32), &'static str> = HashMap::new();
    let mut race = |r: &mut Report, var: VarId, slot: u32, what: &'static str| {
        if let Some(prev) = written.insert((var, slot), what) {
            r.push(Diagnostic::error(
                codes::WRITE_RACE,
                Span::phase(phase, Some(rank)).with_var(var),
                format!(
                    "rank {rank} writes v{var} slot {slot} twice in phase {phase} ({prev} then {what})"
                ),
            ));
        }
    };
    for recvs in &rp.recv1 {
        for ru in recvs {
            for &slot in &ru.dst {
                race(r, ru.var, slot, "round-1 unpack");
            }
        }
    }
    for ap in &rp.assembles {
        for g in &ap.own_groups {
            race(r, ap.var, g.write, "assembly total");
        }
    }
    for recvs in &rp.recv2 {
        for &(var, slot) in recvs {
            race(r, var, slot, "round-2 write-back");
        }
    }
}

/// Packet-layout checks for one ordered pair `p → q` in one phase:
/// sender length bookkeeping (`SA025`) and exactly-once consumption of
/// the round-1 packet by the receiver (`SA026`).
fn audit_pair(
    r: &mut Report,
    phase: usize,
    ph: &syncplace_runtime::plan::PhasePlan,
    p: usize,
    q: usize,
) {
    let sender = &ph.ranks[p];
    let receiver = &ph.ranks[q];
    let declared = sender.send1_len[q];
    let packed: usize = sender.send1[q].iter().map(item_len).sum();
    if packed != declared {
        r.push(Diagnostic::error(
            codes::PACKET_LENGTH,
            Span::phase(phase, Some(p)),
            format!(
                "rank {p} packs {packed} values for rank {q} but declares send1_len {declared}"
            ),
        ));
    }
    if receiver.has_recv1[p] != (declared > 0) {
        r.push(Diagnostic::error(
            codes::PACKET_LENGTH,
            Span::phase(phase, Some(q)),
            format!(
                "rank {q} expects a round-1 packet from rank {p}: {} (sender sends {declared} values)",
                receiver.has_recv1[p]
            ),
        ));
    }
    // Collect the receiver's read intervals of p's packet.
    let mut reads: Vec<(u32, u32, &'static str)> = Vec::new();
    for ru in &receiver.recv1[p] {
        reads.push((ru.off, ru.dst.len() as u32, "update unpack"));
    }
    for ap in &receiver.assembles {
        for g in &ap.own_groups {
            for t in &g.terms {
                if let Term::Peer { peer, off } = t {
                    if *peer as usize == p {
                        reads.push((*off, 1, "assembly partial"));
                    }
                }
            }
        }
    }
    // (Reduction partials never ride the round-1 pair packets: they
    // travel on dedicated binomial-tree edge packets audited by
    // `audit_orders`.)
    // The intervals must tile [0, declared) exactly.
    reads.sort_unstable_by_key(|&(off, len, _)| (off, len));
    let mut cursor = 0u32;
    for (off, len, what) in &reads {
        match off.cmp(&cursor) {
            std::cmp::Ordering::Less => r.push(Diagnostic::error(
                codes::PACKET_COVERAGE,
                Span::phase(phase, Some(q)),
                format!(
                    "rank {q} reads [{off}, {}) of rank {p}'s packet twice ({what} overlaps a previous read)",
                    off + len
                ),
            )),
            std::cmp::Ordering::Greater => r.push(Diagnostic::error(
                codes::PACKET_COVERAGE,
                Span::phase(phase, Some(q)),
                format!(
                    "rank {q} leaves [{cursor}, {off}) of rank {p}'s packet unread before the {what} at {off}"
                ),
            )),
            std::cmp::Ordering::Equal => {}
        }
        cursor = cursor.max(off + len);
    }
    if (cursor as usize) != declared && !(reads.is_empty() && declared == 0) {
        r.push(Diagnostic::error(
            codes::PACKET_COVERAGE,
            Span::phase(phase, Some(q)),
            format!(
                "rank {q} consumes {cursor} of the {declared} values in rank {p}'s packet"
            ),
        ));
    }
    // Round 2: owner p's declared totals match q's write-back count.
    if sender.send2_len[q] != receiver.recv2[p].len() {
        r.push(Diagnostic::error(
            codes::PACKET_LENGTH,
            Span::phase(phase, Some(p)),
            format!(
                "rank {p} sends {} round-2 totals to rank {q}, which expects {}",
                sender.send2_len[q],
                receiver.recv2[p].len()
            ),
        ));
    }
}

/// Combine-order checks: owner-first assembly (`SA022`) and the
/// canonical binomial reduction tree with a uniform op list (`SA023`).
fn audit_orders(r: &mut Report, plan: &CommPlan, phase: usize, ph: &syncplace_runtime::plan::PhasePlan) {
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
        // Reduction tree shape: every reducing rank must install
        // exactly the canonical binomial tree, and every rank must
        // carry the same ordered (var, op) reduce list — together
        // they pin the one combine order `comm::tree_fold` defines.
        let reference = &ph.ranks[0].reduces;
        let same_ops = rp.reduces.len() == reference.len()
            && rp
                .reduces
                .iter()
                .zip(reference.iter())
                .all(|(a, b)| a.var == b.var && a.op == b.op);
        if !same_ops {
            r.push(Diagnostic::error(
                codes::REDUCE_ORDER,
                Span::phase(phase, Some(rank)),
                format!(
                    "rank {rank} executes {} reductions where rank 0 executes {} — the tree packet layout requires an identical ordered op list on every rank",
                    rp.reduces.len(),
                    reference.len()
                ),
            ));
        }
        if rp.reduces.is_empty() || plan.nparts <= 1 {
            continue;
        }
        let want_parent = reduce_tree_parent(rank).map(|p| p as u32);
        if rp.red_parent != want_parent {
            r.push(Diagnostic::error(
                codes::REDUCE_ORDER,
                Span::phase(phase, Some(rank)),
                format!(
                    "rank {rank} sends its partial to {:?} but the canonical binomial tree parent is {want_parent:?}",
                    rp.red_parent
                ),
            ));
        }
        let want_children: Vec<u32> = reduce_tree_children(rank, plan.nparts)
            .into_iter()
            .map(|c| c as u32)
            .collect();
        if rp.red_children != want_children {
            r.push(Diagnostic::error(
                codes::REDUCE_ORDER,
                Span::phase(phase, Some(rank)),
                format!(
                    "rank {rank} combines children {:?} but the canonical binomial tree gives {want_children:?}",
                    rp.red_children
                ),
            ));
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
                for recvs in &mut rp.recv1 {
                    if let Some(ru) = recvs.iter_mut().find(|ru| !ru.dst.is_empty()) {
                        ru.dst.pop();
                        break 'outer;
                    }
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
        // Re-point a reducing rank's up-edge at the wrong parent.
        'outer: for ph in &mut plan.phases {
            for (rank, rp) in ph.ranks.iter_mut().enumerate() {
                if rank > 0 && !rp.reduces.is_empty() {
                    rp.red_parent = Some(((rank + 1) % plan.nparts) as u32);
                    break 'outer;
                }
            }
        }
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
