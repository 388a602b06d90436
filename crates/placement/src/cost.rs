//! Ranking the solutions.
//!
//! §4: "Both solutions set basically the same communications, but
//! \[one\] has the advantage of grouping the two main communications,
//! thereby saving an additional communication overhead. On the other
//! hand, [the other] delays one communication so that the iteration
//! space of some loops may be restricted to the kernel nodes, saving
//! some instructions on the overlap. The choice between these
//! solutions is, for the moment, left to the user."
//!
//! This module quantifies exactly those two axes so the tool can rank
//! instead of asking: communication *phases* (distinct insertion
//! points, adjacent sites fuse into one message exchange) weighted by
//! a per-phase latency α, communication *volume* weighted by β, and
//! redundant overlap-domain instructions weighted by γ; everything
//! inside the time loop is multiplied by the expected iteration count.

use crate::solution::{IterationDomain, LoopFacts, Solution};
use syncplace_automata::CommKind;

/// Abstract cost parameters (units are arbitrary; only ratios matter
/// for ranking). Defaults reflect the latency-dominated machines of
/// the paper's era: one phase latency ≈ the per-value cost of a
/// hundred values.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Latency per communication phase.
    pub alpha: f64,
    /// Per-value transfer cost, in units of one array-update's
    /// interface volume.
    pub beta: f64,
    /// Redundant-computation cost of running one lower-entity loop on
    /// the overlap domain instead of the kernel.
    pub gamma: f64,
    /// Expected time-loop iteration count.
    pub iterations: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            alpha: 100.0,
            beta: 30.0,
            gamma: 10.0,
            iterations: 50.0,
        }
    }
}

/// The evaluated cost of one solution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolutionCost {
    /// Distinct communication phases per time-loop iteration.
    pub phases_in_loop: usize,
    /// Communication sites inside the time loop.
    pub sites_in_loop: usize,
    /// Communication sites outside the time loop.
    pub sites_outside: usize,
    /// Restrictable lower-entity loops left on the overlap domain,
    /// inside the time loop.
    pub overlap_loops_in_loop: usize,
    /// Restrictable loops narrowed to the kernel domain (the saving).
    pub kernel_loops: usize,
    /// Abstract communication volume per time-loop iteration (1.0 per
    /// array update/assembly, 0.05 per scalar reduction — the same
    /// units the score uses). The profiler cross-validates this
    /// against the observed per-pair packet volumes.
    pub volume_in_loop: f64,
    /// One-time communication volume outside the time loop.
    pub volume_outside: f64,
    /// The scalar ranking score (lower is better).
    pub score: f64,
}

impl SolutionCost {
    /// The model's prediction of relative per-iteration wire traffic:
    /// phases (latency axis) and volume units (bandwidth axis) per
    /// time-loop iteration. Ratios between two placements of the same
    /// program are comparable with observed traffic ratios; absolute
    /// units are abstract.
    pub fn predicted_per_iteration(&self) -> (f64, f64) {
        (self.phases_in_loop as f64, self.volume_in_loop)
    }
}

/// Evaluate a solution; `loops` are its extractor's loop facts, which
/// `sol.domains` follows index for index.
pub(crate) fn evaluate(loops: &[LoopFacts], sol: &Solution, p: &CostParams) -> SolutionCost {
    let mut c = SolutionCost::default();

    // --- communication phases: group sites by insertion point ------------
    let mut in_loop_positions: Vec<usize> = Vec::new();
    for s in &sol.comm_sites {
        if s.in_time_loop {
            c.sites_in_loop += 1;
            if !in_loop_positions.contains(&s.pos_order) {
                in_loop_positions.push(s.pos_order);
            }
        } else {
            c.sites_outside += 1;
        }
    }
    c.phases_in_loop = in_loop_positions.len();

    // --- iteration domains -----------------------------------------------
    for (l, &(_, domain)) in loops.iter().zip(&sol.domains) {
        if !l.restrictable() {
            continue;
        }
        match domain {
            IterationDomain::Overlap => {
                if l.in_time_loop {
                    c.overlap_loops_in_loop += 1;
                }
            }
            IterationDomain::Kernel => c.kernel_loops += 1,
        }
    }

    // --- volumes -------------------------------------------------------------
    let vol = |kind: CommKind| -> f64 {
        match kind {
            CommKind::UpdateOverlap | CommKind::AssembleShared => 1.0,
            CommKind::ReduceScalar => 0.05,
        }
    };
    let mut volume_in = 0.0;
    let mut volume_out = 0.0;
    for s in &sol.comm_sites {
        if s.in_time_loop {
            volume_in += vol(s.kind);
        } else {
            volume_out += vol(s.kind);
        }
    }

    c.volume_in_loop = volume_in;
    c.volume_outside = volume_out;
    c.score = p.iterations
        * (p.alpha * c.phases_in_loop as f64
            + p.beta * volume_in
            + p.gamma * c.overlap_loops_in_loop as f64)
        + p.alpha * c.sites_outside as f64
        + p.beta * volume_out;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{enumerate, SearchOptions};
    use crate::solution::Extractor;
    use syncplace_automata::predefined::fig6;
    use syncplace_ir::programs;

    #[test]
    fn costs_distinguish_solutions() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let (maps, _) = enumerate(&dfg, &a, &SearchOptions::default());
        let params = CostParams::default();
        let mut ex = Extractor::new(&p, &dfg, &a);
        let mut scores: Vec<f64> = maps
            .into_iter()
            .map(|m| {
                let s = ex.extract(m);
                evaluate(ex.loops(), &s, &params).score
            })
            .collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(scores.first().unwrap() < scores.last().unwrap());
    }

    #[test]
    fn phases_fuse_at_same_position() {
        // Two sites at the same insertion point count as one phase.
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let (maps, _) = enumerate(&dfg, &a, &SearchOptions::default());
        let params = CostParams::default();
        let mut ex = Extractor::new(&p, &dfg, &a);
        let mut best: Option<SolutionCost> = None;
        for m in maps {
            let s = ex.extract(m);
            let cost = evaluate(ex.loops(), &s, &params);
            if best.map(|b| cost.score < b.score).unwrap_or(true) {
                best = Some(cost);
            }
        }
        let best = best.unwrap();
        // The best TESTIV placement fuses the array update with the
        // scalar reduction: one phase per iteration.
        assert_eq!(best.phases_in_loop, 1, "{best:?}");
        // Volume units: one array update (1.0) + one reduction (0.05)
        // per iteration, nothing outside the loop.
        assert!((best.volume_in_loop - 1.05).abs() < 1e-12, "{best:?}");
        assert_eq!(best.volume_outside, 0.0);
        assert_eq!(best.predicted_per_iteration(), (1.0, 1.05));
    }
}
