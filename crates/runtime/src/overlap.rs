//! The overlapped engine's producer splits and what early posting hid.
//!
//! The plan's tape ([`crate::tape`]) marks each producer loop with the
//! phase it feeds. Per rank, that loop's iteration domain divides into
//! the **interface set** (iterations whose writes land in a round-1
//! packet) and the **interior set** (the rest), built from the rank's
//! machine when a run starts: the engine runs the interface, posts the
//! phase, then the interior while the packets are in flight. The loop
//! is permutable, so the order changes no bit of the result.
//!
//! The *hidden work* — compute units executed between a phase's post
//! and its completion, minimized across ranks — is reported per phase
//! application ([`OverlapReport`]) so the α/β model
//! ([`crate::timing::estimate_engine`]) can credit the overlap.

use crate::exec::Machine;
use crate::plan::{CommPlan, RankPhase};
use crate::tape::Op;
use syncplace_ir::IdVec;

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

/// Rank `rank`'s split of every producer loop on `plan`'s tape, indexed
/// by the phase it feeds (empty for a phase without one).
pub fn rank_splits(plan: &CommPlan, tape: &[Op], m: &Machine, rank: usize) -> Vec<RankSplit> {
    let mut out = vec![RankSplit::default(); plan.phases.len()];
    for op in tape {
        if let Op::Loop { entity, domain, split: Some(s), .. } = op {
            let n = m.domain_count(*entity, *domain);
            out[s.phase] = rank_split(&plan.phases[s.phase].ranks[rank], &s.written, n);
        }
    }
    out
}

/// One rank's split: interface = gathered indices of loop-written
/// arrays below the domain bound, interior = the rest of `[0, n)`.
/// Gathered indices of vars the loop does *not* write are already
/// final before the loop and constrain nothing.
fn rank_split(rp: &RankPhase, written: &IdVec<()>, n: usize) -> RankSplit {
    let mut on_wire = vec![false; n];
    let gathers = rp.send1.iter().flat_map(|s| &s.gathers);
    for g in gathers.filter(|g| written.contains(g.var)) {
        for i in g.idx.iter().map(|&i| i as usize).filter(|&i| i < n) {
            on_wire[i] = true;
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
    /// An overlapped run's report before it runs: the early-post sites
    /// (hoisted posts and producer splits) `tape` schedules.
    pub fn for_tape(tape: &[Op]) -> OverlapReport {
        let split = |op: &&Op| matches!(op, Op::Loop { split: Some(_), .. });
        let split_phases = tape.iter().filter(split).count();
        let posts = tape.iter().filter(|op| matches!(op, Op::Post(_))).count();
        OverlapReport {
            early_phases: posts + split_phases,
            split_phases,
            ..Default::default()
        }
    }

    /// Total hidden units across the run.
    pub fn total_hidden(&self) -> f64 {
        self.hidden_units.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pooled::tests::{assert_bitwise, setup};
    use crate::spmd::build_machines;
    use crate::Engine;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_ir::programs;
    use syncplace_mesh::gen2d;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_placement::{analyze_program, CostParams, SearchOptions};

    /// The first solution whose tape marks a producer split, if any.
    fn split_solution(pattern: Pattern) -> Option<usize> {
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
        let part = partition2d(&mesh, 4, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, 4, pattern);
        analysis.solutions.iter().position(|sol| {
            let spmd = syncplace_codegen::spmd_program(&p, &dfg, sol);
            let plan = CommPlan::build(&p, &spmd, &d);
            OverlapReport::for_tape(plan.ops().unwrap()).split_phases > 0
        })
    }

    #[test]
    fn overlapped_bitwise_matches_round_robin_with_a_producer_split() {
        // A placement whose tape splits a producer loop must still be
        // bitwise-identical — and must actually split.
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
        // For every producer loop, on every rank, interface ∪ interior
        // = [0, n) and the two sets are disjoint — no iteration lost,
        // none run twice.
        for pattern in [
            Pattern::FIG1,
            Pattern::FIG2,
            Pattern::ElementOverlap { layers: 2 },
        ] {
            let (p, spmd, d, b) = setup(pattern, 4, split_solution(pattern).unwrap_or(0));
            let plan = CommPlan::build(&p, &spmd, &d);
            let tape = plan.ops().unwrap();
            assert!(
                OverlapReport::for_tape(tape).early_phases > 0,
                "{pattern:?}: no early-post site at all"
            );
            let machines = build_machines(&p, &d, &b).unwrap();
            for (rank, m) in machines.iter().enumerate() {
                let splits = rank_splits(&plan, tape, m, rank);
                for op in tape {
                    let Op::Loop { entity, domain, split: Some(s), .. } = op else {
                        continue;
                    };
                    let (rs, n) = (&splits[s.phase], m.domain_count(*entity, *domain));
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
