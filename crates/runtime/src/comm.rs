//! Communication accounting and the reduction tree: the per-phase
//! statistics every engine reads off its [`crate::plan::CommPlan`],
//! and the binomial tree every reduction folds along.
//!
//! Costs are *counted*, not timed — the timing model ([`crate::timing`])
//! turns the counts into the modeled wall-clock of an early-90s MPP.

use crate::exec::Machine;
use syncplace_dfg::ReduceOp;
use syncplace_ir::VarId;
use syncplace_obs::keys;

/// The per-operator counter key of a reduction (see `syncplace-obs`).
pub fn reduce_key(op: ReduceOp) -> &'static str {
    match op {
        ReduceOp::Sum => keys::REDUCE_SUM,
        ReduceOp::Prod => keys::REDUCE_PROD,
        ReduceOp::Max => keys::REDUCE_MAX,
        ReduceOp::Min => keys::REDUCE_MIN,
    }
}

/// Accounting for one communication phase (all comm ops issued at one
/// insertion point, executed together).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Point-to-point messages exchanged.
    pub messages: usize,
    /// Values moved in total.
    pub values: usize,
    /// The largest number of values any one processor sends — the
    /// phase's bandwidth-critical path.
    pub max_proc_values: usize,
    /// Latency rounds (1 for an update, 2 for a gather+scatter
    /// assembly, 2·⌈log₂P⌉ for a reduction tree).
    pub rounds: usize,
}

/// Aggregate communication statistics of one run.
#[derive(Debug, Clone, Default)]
pub struct CommStats {
    /// One entry per executed communication phase, in execution order.
    pub phases: Vec<PhaseStat>,
    /// `UpdateOverlap` ops executed.
    pub updates: usize,
    /// `AssembleShared` ops executed.
    pub assembles: usize,
    /// `Reduce` ops executed.
    pub reduces: usize,
    /// Exit tests where processors disagreed (a symptom of a wrong
    /// placement — §6's "different convergence rate").
    pub divergent_exits: usize,
}

impl CommStats {
    /// Total point-to-point messages over all phases.
    pub fn total_messages(&self) -> usize {
        self.phases.iter().map(|p| p.messages).sum()
    }
    /// Total values moved over all phases.
    pub fn total_values(&self) -> usize {
        self.phases.iter().map(|p| p.values).sum()
    }
    /// Number of communication phases executed.
    pub fn nphases(&self) -> usize {
        self.phases.len()
    }
}

/// One comm op's contribution to a phase: the scalar accounting plus
/// the per-processor send totals. Keeping the whole vector (rather
/// than just its max) lets [`merge_phase`] compute the true
/// bandwidth-critical path of ops that travel together: the maximum
/// over processors of the *summed* send volume, not the sum of each
/// op's individual maximum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseContribution {
    /// The op's schedule-derived accounting.
    pub stat: PhaseStat,
    /// Values sent by each processor during this op.
    pub per_proc_send: Vec<usize>,
}

impl PhaseContribution {
    /// Wrap an op's accounting with its per-processor send volumes
    /// (recomputes `max_proc_values` from them).
    pub fn new(mut stat: PhaseStat, per_proc_send: Vec<usize>) -> Self {
        stat.max_proc_values = per_proc_send.iter().copied().max().unwrap_or(0);
        PhaseContribution {
            stat,
            per_proc_send,
        }
    }
}

/// The parent of `rank` in the binomial reduction tree rooted at 0:
/// `rank - lsb(rank)` (`None` for the root). Every engine folds
/// partials along this one tree, so the combine order — and therefore
/// the floating-point result — is identical everywhere.
pub fn reduce_tree_parent(rank: usize) -> Option<usize> {
    if rank == 0 {
        None
    } else {
        Some(rank - (rank & rank.wrapping_neg()))
    }
}

/// The children of `rank` in the binomial tree over `nparts` ranks, in
/// ascending-offset order (`rank + 1, rank + 2, rank + 4, …`) — the
/// order in which a parent combines the subtree totals it receives.
pub fn reduce_tree_children(rank: usize, nparts: usize) -> Vec<usize> {
    let lsb = if rank == 0 {
        usize::MAX
    } else {
        rank & rank.wrapping_neg()
    };
    let mut out = Vec::new();
    let mut d = 1usize;
    while d < lsb && rank + d < nparts {
        out.push(rank + d);
        d <<= 1;
    }
    out
}

/// The reference binomial-tree fold: pairwise combines `acc[r] =
/// combine(acc[r], acc[r+d])` for `d = 1, 2, 4, …`, exactly the order
/// the message-passing engines realize with [`reduce_tree_parent`] /
/// [`reduce_tree_children`]. Note there is no identity element in the
/// fold — partials combine against each other only, so the result is a
/// balanced re-association of the inputs.
pub fn tree_fold(partials: &[f64], op: ReduceOp) -> f64 {
    let p = partials.len();
    assert!(p > 0, "tree_fold needs at least one partial");
    let mut acc = partials.to_vec();
    let mut d = 1usize;
    while d < p {
        let mut r = 0usize;
        while r + d < p {
            acc[r] = op.combine(acc[r], acc[r + d]);
            r += 2 * d;
        }
        d <<= 1;
    }
    acc[0]
}

/// Fold every rank's partial of scalar `var` along the binomial tree
/// ([`tree_fold`]) and hand each rank the total.
pub fn fold_scalar(machines: &mut [Machine], var: VarId, op: ReduceOp) {
    let partials: Vec<f64> = machines.iter().map(|m| m.scalars[var]).collect();
    let total = tree_fold(&partials, op);
    for m in machines {
        m.scalars[var] = total;
    }
}

/// Latency rounds of one tree reduction + broadcast over `nparts`.
pub fn reduce_tree_rounds(nparts: usize) -> usize {
    let log2p = (usize::BITS - (nparts.max(1) - 1).leading_zeros()) as usize;
    2 * log2p.max(1)
}

/// The binomial tree's traffic over `nparts` ranks when each edge
/// carries `width` values each way: every non-root sends one packet up,
/// every parent one down per child — `2(P−1)` messages, none at P = 1.
pub fn tree_contribution(nparts: usize, width: usize) -> PhaseContribution {
    if nparts <= 1 {
        return PhaseContribution::default();
    }
    let sends = (0..nparts).map(|r| usize::from(r > 0) + reduce_tree_children(r, nparts).len());
    let messages = 2 * (nparts - 1);
    let rounds = reduce_tree_rounds(nparts);
    let stat = PhaseStat { messages, values: width * messages, max_proc_values: 0, rounds };
    PhaseContribution::new(stat, sends.map(|m| width * m).collect())
}

/// Merge several comm-op contributions issued at the same insertion
/// point into one phase (the messages travel together).
///
/// The phase's bandwidth-critical path is the largest *total* send
/// volume of any one processor: per-processor send totals are summed
/// elementwise across the ops first, then maximized. Summing each
/// op's individual maximum instead would overstate the critical path
/// whenever different processors dominate different ops.
pub fn merge_phase(parts: &[PhaseContribution]) -> PhaseStat {
    let nprocs = parts
        .iter()
        .map(|c| c.per_proc_send.len())
        .max()
        .unwrap_or(0);
    let mut per_proc = vec![0usize; nprocs];
    for c in parts {
        for (total, &sent) in per_proc.iter_mut().zip(&c.per_proc_send) {
            *total += sent;
        }
    }
    PhaseStat {
        messages: parts.iter().map(|c| c.stat.messages).sum(),
        values: parts.iter().map(|c| c.stat.values).sum(),
        max_proc_values: per_proc.into_iter().max().unwrap_or(0),
        rounds: parts.iter().map(|c| c.stat.rounds).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `nparts` machines holding one scalar, rank `p`'s set to `value(p)`.
    fn machines(nparts: usize, value: fn(usize) -> f64) -> Vec<Machine> {
        let prog = syncplace_ir::parser::parse("program t\n var s : scalar\nend").unwrap();
        let machine = |p| {
            let mut m = Machine::new(&prog, [0; 4], [0; 4]);
            m.scalars[0] = value(p);
            m
        };
        (0..nparts).map(machine).collect()
    }

    #[test]
    fn reduce_combines_partials() {
        let mut machines = machines(4, |p| p as f64 + 1.0);
        fold_scalar(&mut machines, 0, ReduceOp::Sum);
        assert!(machines.iter().all(|m| m.scalars[0] == 10.0));
        let c = tree_contribution(4, 1);
        assert_eq!(c.stat.messages, 6);
        assert!(c.stat.rounds >= 2);
        // Rank 0 sends totals to children {1, 2}; rank 2 sends its
        // partial up and a total down to child 3.
        assert_eq!(c.per_proc_send, vec![2, 1, 2, 1]);
    }

    #[test]
    fn tree_shape_is_the_binomial_tree() {
        assert_eq!(reduce_tree_parent(0), None);
        assert_eq!(reduce_tree_parent(1), Some(0));
        assert_eq!(reduce_tree_parent(2), Some(0));
        assert_eq!(reduce_tree_parent(3), Some(2));
        assert_eq!(reduce_tree_parent(6), Some(4));
        assert_eq!(reduce_tree_parent(7), Some(6));
        assert_eq!(reduce_tree_children(0, 8), vec![1, 2, 4]);
        assert_eq!(reduce_tree_children(4, 8), vec![5, 6]);
        assert_eq!(reduce_tree_children(3, 8), Vec::<usize>::new());
        // Non-power-of-two P: the (rank + d < P) guard prunes the tree.
        assert_eq!(reduce_tree_children(0, 6), vec![1, 2, 4]);
        assert_eq!(reduce_tree_children(4, 6), vec![5]);
        // Edges form a spanning tree: every non-root appears in exactly
        // one child list, namely its parent's.
        for p in [2usize, 3, 5, 6, 8, 13] {
            let mut seen = vec![0usize; p];
            for r in 0..p {
                for c in reduce_tree_children(r, p) {
                    assert_eq!(reduce_tree_parent(c), Some(r));
                    seen[c] += 1;
                }
            }
            assert_eq!(seen[0], 0);
            assert!(seen[1..].iter().all(|&n| n == 1), "P={p}: {seen:?}");
        }
    }

    #[test]
    fn tree_fold_matches_manual_binomial_order() {
        // P=8 sum: ((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7)).
        let a: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        assert_eq!(tree_fold(&a, ReduceOp::Sum), 36.0);
        // The re-association is observable on non-associating floats:
        // the fold must be the balanced tree, not the ascending chain.
        let odd = [1e16, 1.0, 1.0, 1e16];
        let tree = ReduceOp::Sum.combine(
            ReduceOp::Sum.combine(1e16, 1.0),
            ReduceOp::Sum.combine(1.0, 1e16),
        );
        assert_eq!(tree_fold(&odd, ReduceOp::Sum).to_bits(), tree.to_bits());
        assert_eq!(tree_fold(&[5.0], ReduceOp::Prod), 5.0);
    }

    #[test]
    fn reduce_max() {
        let mut machines = machines(3, |p| [2.0, 7.0, 5.0][p]);
        fold_scalar(&mut machines, 0, ReduceOp::Max);
        assert!(machines.iter().all(|m| m.scalars[0] == 7.0));
        assert_eq!(tree_contribution(1, 1), PhaseContribution::default());
    }

    #[test]
    fn merge_phase_takes_max_rounds() {
        let a = PhaseContribution::new(
            PhaseStat {
                messages: 2,
                values: 10,
                rounds: 1,
                ..Default::default()
            },
            vec![5, 5],
        );
        let b = PhaseContribution::new(
            PhaseStat {
                messages: 6,
                values: 6,
                rounds: 4,
                ..Default::default()
            },
            vec![1, 1],
        );
        let m = merge_phase(&[a, b]);
        assert_eq!(m.messages, 8);
        assert_eq!(m.values, 16);
        assert_eq!(m.rounds, 4);
        assert_eq!(m.max_proc_values, 6);
    }

    #[test]
    fn merge_phase_critical_path_is_max_of_per_proc_sums() {
        // Op a is dominated by processor 0, op b by processor 1:
        // the merged critical path is 5 (not 5 + 4 = 9 as the old
        // sum-of-maxima accounting claimed).
        let a = PhaseContribution::new(
            PhaseStat {
                messages: 1,
                values: 5,
                rounds: 1,
                ..Default::default()
            },
            vec![5, 0],
        );
        let b = PhaseContribution::new(
            PhaseStat {
                messages: 1,
                values: 4,
                rounds: 1,
                ..Default::default()
            },
            vec![0, 4],
        );
        assert_eq!(a.stat.max_proc_values, 5);
        assert_eq!(b.stat.max_proc_values, 4);
        let m = merge_phase(&[a, b]);
        assert_eq!(m.max_proc_values, 5);
        assert_eq!(m.values, 9);
    }
}
