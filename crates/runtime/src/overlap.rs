//! The overlap schedule: where each communication phase's round-1
//! packets may be posted *early*, so compute overlaps the transfer.
//!
//! The pooled core ([`crate::pooled`]) splits every phase into a
//! **post** half (pack + ship the round-1 packets) and a **complete**
//! half (receive, scatter, assemble, reduce, round 2). Under late
//! posting (`batched`) both run at the insertion point, after all
//! preceding compute has finished — on a real machine that serializes
//! the network behind the compute. Under early posting (`overlapped`)
//! the post moves as early as the data allows. The schedule is an
//! [`OverlapPlan`] — computed **once per [`CommPlan`]** from the
//! program text and the partition/overlap data — with three kinds of
//! early-post site, in decreasing aggressiveness:
//!
//! * **Producer split** — the statement blocking the backward walk is
//!   a partitioned loop whose iterations are independent (permutable)
//!   and which writes the gathered values. Its iteration domain is
//!   split per rank into the **interface set** (iterations whose
//!   writes land in some round-1 packet) and the **interior set**
//!   (everything else): the engine runs the interface first, posts the
//!   phase's coalesced sends, then runs the interior — and everything
//!   after it — while the packets are in flight.
//! * **Hoisted post** — the blocking writer is not splittable (e.g. an
//!   indirect scatter, whose float accumulation order is pinned); the
//!   post still hoists to just after it, hiding every later statement
//!   that doesn't touch the gathered arrays (on TESTIV: the entire
//!   convergence loop runs while the overlap-update packets travel).
//! * **Wrap-around post** — inside a time loop, when the backward walk
//!   reaches the body start, the post moves into the *tail of the
//!   previous iteration* (it never crosses an exit test, so an exit
//!   taken means nothing was posted). Phase *k+1*'s receives then land
//!   while phase *k*'s iteration finishes — cross-iteration
//!   pipelining. A posted-but-uncompleted phase at time-loop
//!   exhaustion is drained deterministically by every rank.
//!
//! Early posting never changes a packed byte: posts only hoist over
//! statements that don't write the gathered arrays, permutable-loop
//! interfaces are by construction supersets of the gathered index
//! sets, and per-pair channel FIFO is preserved because posts never
//! cross another phase's completion or an exit agreement. The engine
//! therefore stays **bitwise identical** to the round-robin reference.
//!
//! The *hidden work* — compute units executed between a phase's post
//! and its completion, minimized across ranks — is reported per phase
//! application ([`OverlapReport`]) so the α/β model
//! ([`crate::timing::estimate_engine`]) can credit the overlap.

use crate::exec::Machine;
use crate::plan::{CommPlan, PackItem, PhasePlan};
use syncplace_codegen::SpmdProgram;
use syncplace_ir::{Access, IdVec, LoopStmt, Program, Stmt, StmtId};

/// One rank's interface/interior split of a producer loop's iteration
/// domain `[0, n)` with respect to one phase's round-1 gather set.
#[derive(Debug, Clone, Default)]
pub struct RankSplit {
    /// Iterations whose writes are gathered into a round-1 packet,
    /// ascending. Must run before the phase is posted.
    pub interface: Vec<u32>,
    /// The complement in `[0, n)`, ascending. Runs after the post,
    /// overlapping the transfer.
    pub interior: Vec<u32>,
}

/// The producer split of one phase: which loop feeds it, and each
/// rank's interface/interior partition of that loop's domain.
#[derive(Debug, Clone)]
pub struct ProducerSplit {
    /// Statement id of the producer loop.
    pub loop_id: StmtId,
    /// The phase this loop feeds.
    pub phase: usize,
    /// Per-rank iteration split.
    pub per_rank: Vec<RankSplit>,
}

/// The static overlap schedule, computed once per [`CommPlan`] and
/// reused across every time-loop iteration.
#[derive(Debug, Clone, Default)]
pub struct OverlapPlan {
    /// Per phase: the producer split, where one exists.
    pub splits: Vec<Option<ProducerSplit>>,
    /// Producer loop id → phase index, for O(1) lookup at execution.
    pub by_loop: IdVec<usize>,
    /// Hoisted posts: statement id → phases to post immediately before
    /// executing it (after completing any phase placed there).
    pub post_before: IdVec<Vec<usize>>,
    /// Wrap-around posts: time-loop id → phases to post at the end of
    /// each body iteration (completed at the head of the next).
    pub post_at_tail: IdVec<Vec<usize>>,
}

impl OverlapPlan {
    /// How many phases have any early-post site at all.
    pub fn early_phases(&self) -> usize {
        let hoisted: usize = self
            .post_before
            .values()
            .chain(self.post_at_tail.values())
            .map(Vec::len)
            .sum();
        hoisted + self.splits.iter().flatten().count()
    }
}

/// Is a partitioned loop permutable — may its iterations run in any
/// order with bitwise-identical results? True when every write is a
/// `Direct` array store (iteration `i` owns slot `i`) and no read can
/// observe another iteration's write: `Indirect`/`Fixed` reads of
/// loop-written arrays are cross-iteration channels, scalar writes
/// accumulate in textual order, so both disqualify.
fn loop_permutable(l: &LoopStmt) -> bool {
    let mut written = IdVec::default();
    for a in &l.body {
        let Access::Direct(v) = a.lhs else {
            return false;
        };
        written.insert(v, ());
    }
    let channel = |r: &Access| matches!(r, Access::Indirect { .. } | Access::Fixed(..));
    let mut reads = l.body.iter().flat_map(|a| a.rhs.reads());
    !reads.any(|r| channel(r) && written.contains(r.var()))
}

/// Does a statement write a gathered array? (Its scalar writes are
/// harmless here: scalars can never be gathered.)
fn writes_any(s: &Stmt, gathered: &IdVec<()>) -> bool {
    let assigns = match s {
        Stmt::Assign(a) => std::slice::from_ref(a),
        Stmt::Loop(l) => &l.body,
        Stmt::TimeLoop(_) | Stmt::ExitIf(_) => &[],
    };
    assigns.iter().any(|a| gathered.contains(a.lhs.var()))
}

/// Union over every rank and peer of the arrays a phase gathers into
/// its round-1 packets.
fn gathered_vars(ph: &PhasePlan) -> IdVec<()> {
    let items = ph.ranks.iter().flat_map(|rp| rp.send1.iter().flatten());
    items.map(|PackItem::Gather { var, .. }| (*var, ())).collect()
}

/// One rank's split: interface = gathered indices of loop-written
/// arrays below the domain bound, interior = the rest of `[0, n)`.
/// Gathered indices of vars the loop does *not* write are already
/// final before the loop and constrain nothing.
fn rank_split(rp: &crate::plan::RankPhase, written: &IdVec<()>, n: usize) -> RankSplit {
    let mut on_wire = vec![false; n];
    for PackItem::Gather { var, idx } in rp.send1.iter().flatten() {
        if written.contains(*var) {
            for i in idx.iter().map(|&i| i as usize).filter(|&i| i < n) {
                on_wire[i] = true;
            }
        }
    }
    let mut split = RankSplit::default();
    for (i, &w) in on_wire.iter().enumerate() {
        if w {
            split.interface.push(i as u32);
        } else {
            split.interior.push(i as u32);
        }
    }
    split
}

/// The enclosing block of a phase's insertion point: either the
/// top-level program body or a time-loop body (which permits
/// wrap-around posting).
#[derive(Clone, Copy)]
enum BlockOwner {
    TopLevel,
    TimeLoop(StmtId),
}

impl OverlapPlan {
    /// Build the overlap schedule for a plan. `machines` supply each
    /// rank's local entity counts (the per-rank loop domain sizes).
    pub fn build(
        prog: &Program,
        spmd: &SpmdProgram,
        plan: &CommPlan,
        machines: &[Machine],
    ) -> OverlapPlan {
        let mut op = OverlapPlan {
            splits: vec![None; plan.phases.len()],
            ..Default::default()
        };
        op.scan_block(&prog.body, BlockOwner::TopLevel, spmd, plan, machines);
        for s in op.splits.iter().flatten() {
            op.by_loop.insert(s.loop_id, s.phase);
        }
        op
    }

    fn scan_block(
        &mut self,
        stmts: &[Stmt],
        owner: BlockOwner,
        spmd: &SpmdProgram,
        plan: &CommPlan,
        machines: &[Machine],
    ) {
        for s in stmts {
            if let Stmt::TimeLoop(t) = s {
                self.scan_block(&t.body, BlockOwner::TimeLoop(t.id), spmd, plan, machines);
            }
        }
        for (i, s) in stmts.iter().enumerate() {
            if let Some(&phase) = plan.before.get(s.id()) {
                self.place(stmts, i, phase, owner, spmd, plan, machines);
            }
        }
        if matches!(owner, BlockOwner::TopLevel) {
            if let Some(phase) = plan.at_end {
                self.place(stmts, stmts.len(), phase, owner, spmd, plan, machines);
            }
        }
    }

    /// Find the earliest safe post site for the phase completing
    /// before `stmts[i]` (or at block end when `i == stmts.len()`).
    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        stmts: &[Stmt],
        i: usize,
        phase: usize,
        owner: BlockOwner,
        spmd: &SpmdProgram,
        plan: &CommPlan,
        machines: &[Machine],
    ) {
        let gathered = gathered_vars(&plan.phases[phase]);
        if gathered.is_empty() {
            // Pure-reduce phase: round 1 is empty, nothing to post.
            return;
        }

        // Head walk: hoist the post backward over statements that
        // neither write a gathered array nor perform channel traffic
        // (exit agreements, nested time loops, other phases).
        let mut j = i;
        while j > 0 {
            let s = &stmts[j - 1];
            if plan.before.contains(s.id()) {
                // May post at that statement, right after its phase
                // completes (the runtime completes-then-posts).
                j -= 1;
                break;
            }
            match s {
                Stmt::ExitIf(_) | Stmt::TimeLoop(_) => break,
                _ if writes_any(s, &gathered) => {
                    if let Stmt::Loop(l) = s {
                        if l.partitioned && loop_permutable(l) {
                            self.register_split(l, phase, &gathered, spmd, plan, machines);
                            return;
                        }
                    }
                    break;
                }
                _ => j -= 1,
            }
        }
        if j < i {
            self.post_before.get_or_insert_with(stmts[j].id(), Vec::new).push(phase);
            return;
        }
        if j > 0 || i == 0 {
            return;
        }

        // Wrap-around: the walk cleared the whole head of a time-loop
        // body. The post may move into the previous iteration's tail —
        // but only if nothing between the tail post and the next
        // head completion can write a gathered array or touch the
        // channels. Head statements were just cleared of both; check
        // they stay that way (they were walked over, so they are).
        let BlockOwner::TimeLoop(tid) = owner else {
            return;
        };
        let mut k = stmts.len();
        while k > i {
            let s = &stmts[k - 1];
            if k - 1 != i && plan.before.contains(s.id()) {
                k -= 1;
                break;
            }
            match s {
                Stmt::ExitIf(_) | Stmt::TimeLoop(_) => break,
                _ if writes_any(s, &gathered) => {
                    if k - 1 != i {
                        if let Stmt::Loop(l) = s {
                            if l.partitioned && loop_permutable(l) {
                                self.register_split(l, phase, &gathered, spmd, plan, machines);
                                return;
                            }
                        }
                    }
                    break;
                }
                _ => k -= 1,
            }
        }
        if k == stmts.len() {
            // First tail statement already blocks; posting at the body
            // end still hides the next iteration's head (unless the
            // completion *is* the head, where it gains nothing).
            if i > 0 {
                self.post_at_tail.get_or_insert_with(tid, Vec::new).push(phase);
            }
        } else {
            self.post_before.get_or_insert_with(stmts[k].id(), Vec::new).push(phase);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn register_split(
        &mut self,
        l: &LoopStmt,
        phase: usize,
        gathered: &IdVec<()>,
        spmd: &SpmdProgram,
        plan: &CommPlan,
        machines: &[Machine],
    ) {
        let written: IdVec<()> = (l.body.iter())
            .map(|a| a.lhs.var())
            .filter(|&v| gathered.contains(v))
            .map(|v| (v, ()))
            .collect();
        let domain = spmd.domains[l.id];
        let per_rank: Vec<RankSplit> = machines
            .iter()
            .enumerate()
            .map(|(rank, m)| {
                let n = m.domain_count(l.entity, domain);
                rank_split(&plan.phases[phase].ranks[rank], &written, n)
            })
            .collect();
        self.splits[phase] = Some(ProducerSplit {
            loop_id: l.id,
            phase,
            per_rank,
        });
    }
}

/// What the overlapped engine hid — [`crate::SpmdResult::overlap`].
/// All zeros (and `hidden_units` possibly empty) for the other two.
#[derive(Debug, Clone, Default)]
pub struct OverlapReport {
    /// Per phase application, in execution order: compute units run
    /// between post and completion, minimized across ranks (the units
    /// *every* rank had in flight — the model's safely creditable
    /// overlap). Under a pooled engine, aligned with the same result's
    /// `stats.phases`.
    pub hidden_units: Vec<f64>,
    /// Early posts per rank (identical across ranks: the schedule is
    /// static and control flow is SPMD).
    pub early_posts: usize,
    /// Phases with any early-post site in the schedule.
    pub early_phases: usize,
    /// Phases with a producer split (iteration-level overlap).
    pub split_phases: usize,
}

impl OverlapReport {
    /// Total hidden units across the run.
    pub fn total_hidden(&self) -> f64 {
        self.hidden_units.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::testiv_bindings;
    use crate::pooled::tests::{assert_bitwise, setup};
    use crate::Engine;
    use crate::spmd::build_machines;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_ir::programs;
    use syncplace_mesh::gen2d;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_placement::{analyze_program, CostParams, SearchOptions};

    /// Solution indices worth covering: 0 (hoisted post before the
    /// exit test) and, for fig6, the first solution that places the
    /// overlap update before the consumer loop (wrap-around split).
    fn split_solution(pattern: Pattern) -> Option<usize> {
        let p = programs::testiv();
        let mesh = gen2d::perturbed_grid(9, 9, 0.15, 3);
        let b = testiv_bindings(&p, &mesh, 1e-9);
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
        let part = partition2d(&mesh, 4, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, 4, pattern);
        let machines = build_machines(&p, &d, &b).unwrap();
        for (si, sol) in analysis.solutions.iter().enumerate() {
            let spmd = syncplace_codegen::spmd_program(&p, &dfg, sol);
            let plan = CommPlan::build(&p, &spmd, &d);
            let oplan = OverlapPlan::build(&p, &spmd, &plan, &machines);
            if oplan.splits.iter().any(Option::is_some) {
                return Some(si);
            }
        }
        None
    }

    #[test]
    fn overlapped_bitwise_matches_round_robin_with_wraparound_split() {
        // A placement whose overlap plan contains a producer split
        // (wrap-around pipelining across time-loop iterations) must
        // still be bitwise-identical — and must actually split.
        let si = split_solution(Pattern::FIG1).expect("fig6 has a split placement");
        for nparts in [2usize, 4, 8] {
            let (p, spmd, d, b) = setup(Pattern::FIG1, nparts, si);
            let rr = Engine::RoundRobin.run(&p, &spmd, &d, &b).unwrap();
            let ov = Engine::Overlapped.run(&p, &spmd, &d, &b).unwrap();
            assert_bitwise(&format!("split P={nparts}"), &rr, &ov);
            if nparts > 1 {
                assert!(ov.overlap.split_phases > 0, "P={nparts}: split not exercised");
            }
        }
    }

    #[test]
    fn split_is_a_partition_for_all_predefined_patterns() {
        // The tentpole invariant: for every phase with a producer, on
        // every rank, interface ∪ interior = [0, n) and the two sets
        // are disjoint — no iteration lost, none run twice.
        for pattern in [
            Pattern::FIG1,
            Pattern::FIG2,
            Pattern::ElementOverlap { layers: 2 },
        ] {
            let (p, spmd, d, b) = match split_solution(pattern) {
                Some(si) => setup(pattern, 4, si),
                None => setup(pattern, 4, 0),
            };
            let plan = CommPlan::build(&p, &spmd, &d);
            let machines = build_machines(&p, &d, &b).unwrap();
            let oplan = OverlapPlan::build(&p, &spmd, &plan, &machines);
            assert!(
                oplan.early_phases() > 0,
                "{pattern:?}: no early-post site at all"
            );
            for split in oplan.splits.iter().flatten() {
                let domain = spmd.domains[split.loop_id];
                let entity = find_loop_entity(&p, split.loop_id).expect("producer is a loop");
                for (rank, rs) in split.per_rank.iter().enumerate() {
                    let n = machines[rank].domain_count(entity, domain);
                    let mut cover = vec![0usize; n];
                    for &i in rs.interface.iter().chain(&rs.interior) {
                        cover[i as usize] += 1;
                    }
                    assert!(
                        cover.iter().all(|&c| c == 1),
                        "{pattern:?} rank {rank}: split is not a partition of [0, {n})"
                    );
                    // Ascending order within each set (execution is
                    // deterministic even though order doesn't matter).
                    assert!(rs.interface.windows(2).all(|w| w[0] < w[1]));
                    assert!(rs.interior.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    fn find_loop_entity(prog: &Program, id: StmtId) -> Option<syncplace_ir::EntityKind> {
        let mut found = None;
        prog.visit_assigns(&mut |_, l| {
            found = found.or(l.filter(|l| l.id == id).map(|l| l.entity));
        });
        found
    }

    #[test]
    fn overlap_report_credits_hidden_work() {
        // Placement 0 puts the phase before the exit test; the post
        // hoists to just after the scatter loop, so the convergence
        // loop's compute is hidden behind the update packets.
        let (p, spmd, d, b) = setup(Pattern::FIG1, 4, 0);
        let res = Engine::Overlapped.run(&p, &spmd, &d, &b).unwrap();
        let report = &res.overlap;
        assert!(report.early_phases > 0, "TESTIV has an early-post site");
        assert!(report.early_posts > 0);
        assert_eq!(report.hidden_units.len(), res.stats.phases.len());
        assert!(
            report.total_hidden() > 0.0,
            "interior work must be credited"
        );
    }
}
