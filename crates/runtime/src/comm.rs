//! The communication layer of the round-robin engine: schedule-driven
//! update / assembly / reduction collectives over the per-processor
//! machines, with full accounting.
//!
//! Costs are *counted*, not timed — the timing model ([`crate::timing`])
//! turns the counts into the modeled wall-clock of an early-90s MPP.

use crate::exec::Machine;
use std::collections::BTreeMap;
use syncplace_dfg::ReduceOp;
use syncplace_ir::{Program, VarId, VarKind};
use syncplace_obs::{keys, RecorderRef};
use syncplace_overlap::{Decomposition, UpdateSchedule};

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

/// The schedule an update of array `var` runs
/// ([`Decomposition::update_schedule`]; `None` for an element array).
/// Placement updates only arrays: any other `var` panics.
pub fn update_schedule<'d, const V: usize>(
    prog: &Program,
    d: &'d Decomposition<V>,
    var: VarId,
) -> Option<&'d UpdateSchedule> {
    let VarKind::Array { base } = prog.decl(var).kind else {
        panic!("update on non-array");
    };
    d.update_schedule(base)
}

/// Apply an owner→copies update of `var` along `schedule` and return
/// the phase contribution. When a recorder is live, each schedule
/// message is recorded as one packet of the ordered pair it travels
/// on (the round-robin engine simulates a per-op wire: one message per
/// comm op per peer).
pub fn apply_update(
    machines: &mut [Machine],
    schedule: &UpdateSchedule,
    var: VarId,
    rec: &RecorderRef,
) -> PhaseContribution {
    let mut stat = PhaseStat {
        rounds: 1,
        ..Default::default()
    };
    let mut per_proc_send = vec![0usize; machines.len()];
    for m in &schedule.msgs {
        let (p, q, n) = (m.from, m.to, m.pairs.len());
        stat.messages += 1;
        stat.values += n;
        per_proc_send[p as usize] += n;
        record_packet(rec, p, q, n as u64);
        for &(src, dst) in &m.pairs {
            let v = machines[p as usize].arrays[var][src as usize];
            machines[q as usize].arrays[var][dst as usize] = v;
        }
    }
    if stat.messages == 0 {
        stat.rounds = 0; // nothing actually moves (e.g. single processor)
    }
    PhaseContribution::new(stat, per_proc_send)
}

/// Apply the shared-node assembly for `var` (Fig. 2 pattern) along the
/// node schedule in two passes: reverse, each holder's partial is
/// added into its owner's copy (owner first, then holders by ascending
/// rank, as the messages ascend by `(owner, holder)`); forward, the
/// owner's total is written back to every copy. With a live recorder,
/// the simulated wire packets (one partials packet per holder→owner
/// message, one totals packet back) are recorded in ascending
/// `(from, to)` order.
pub fn apply_assemble<const V: usize>(
    machines: &mut [Machine],
    d: &Decomposition<V>,
    var: VarId,
    rec: &RecorderRef,
) -> PhaseContribution {
    let schedule = &d.node_update;
    let mut per_proc_send = vec![0usize; machines.len()];
    // Simulated wire: values per ordered pair, both directions (kept
    // only when a recorder listens).
    let mut pair_values: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for m in &schedule.msgs {
        let (p, q, n) = (m.from, m.to, m.pairs.len());
        for &(src, dst) in &m.pairs {
            let v = machines[q as usize].arrays[var][dst as usize];
            machines[p as usize].arrays[var][src as usize] += v;
        }
        per_proc_send[p as usize] += n;
        per_proc_send[q as usize] += n;
        if rec.is_some() {
            *pair_values.entry((q, p)).or_default() += n as u64;
            *pair_values.entry((p, q)).or_default() += n as u64;
        }
    }
    for m in &schedule.msgs {
        for &(src, dst) in &m.pairs {
            let v = machines[m.from as usize].arrays[var][src as usize];
            machines[m.to as usize].arrays[var][dst as usize] = v;
        }
    }
    for ((from, to), v) in pair_values {
        record_packet(rec, from, to, v);
    }
    let messages = 2 * schedule.total_messages();
    let stat = PhaseStat {
        messages,
        values: 2 * schedule.total_values(),
        rounds: if messages == 0 { 0 } else { 2 },
        ..Default::default()
    };
    PhaseContribution::new(stat, per_proc_send)
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

/// Latency rounds of one tree reduction + broadcast over `nparts`.
pub fn reduce_tree_rounds(nparts: usize) -> usize {
    let log2p = (usize::BITS - (nparts.max(1) - 1).leading_zeros()) as usize;
    2 * log2p.max(1)
}

/// Apply a global scalar reduction: combine the per-processor partials
/// along the binomial tree rooted at rank 0 ([`tree_fold`]) and
/// broadcast the total back down the same tree. The recorded wire is
/// that tree shipped per op: one single-value packet per tree edge in
/// each direction — `2(P−1)` messages instead
/// of the old `P(P−1)` allgather.
pub fn apply_reduce(
    machines: &mut [Machine],
    var: VarId,
    op: ReduceOp,
    rec: &RecorderRef,
) -> PhaseContribution {
    let nparts = machines.len();
    if nparts <= 1 {
        return PhaseContribution::default(); // nothing to exchange
    }
    let partials: Vec<f64> = machines.iter().map(|m| m.scalars[var]).collect();
    let total = tree_fold(&partials, op);
    for m in machines.iter_mut() {
        m.scalars[var] = total;
    }
    // Every partial up its tree edge, then every total down.
    let edges = (1..nparts).map(|c| (c as u32, reduce_tree_parent(c).expect("non-root") as u32));
    edges.clone().for_each(|(c, parent)| record_packet(rec, c, parent, 1));
    edges.for_each(|(c, parent)| record_packet(rec, parent, c, 1));
    tree_contribution(nparts, 1)
}

/// Record one simulated packet of `n` values: `from` ships it, `to`
/// receives and reads it.
fn record_packet(rec: &RecorderRef, from: u32, to: u32, n: u64) {
    if let Some(r) = rec {
        r.packet(from, to, n);
        r.hb(from, keys::HB_SEND, to);
        r.hb(to, keys::HB_RECV, from);
        r.hb(to, keys::HB_READ, from);
    }
}

/// The binomial tree's traffic over `nparts > 1` ranks when each edge
/// carries `width` values each way: every non-root sends one packet up,
/// every parent one down per child — `2(P−1)` messages.
pub fn tree_contribution(nparts: usize, width: usize) -> PhaseContribution {
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

    #[test]
    fn reduce_combines_partials() {
        let prog = syncplace_ir::parser::parse("program t\n var s : scalar\nend").unwrap();
        let mut machines: Vec<Machine> = (0..4)
            .map(|p| {
                let mut m = Machine::new(&prog, [0; 4], [0; 4]);
                m.scalars[0] = p as f64 + 1.0;
                m
            })
            .collect();
        let c = apply_reduce(&mut machines, 0, ReduceOp::Sum, &None);
        assert!(machines.iter().all(|m| m.scalars[0] == 10.0));
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
        let prog = syncplace_ir::parser::parse("program t\n var s : scalar\nend").unwrap();
        let mut machines: Vec<Machine> = (0..3)
            .map(|p| {
                let mut m = Machine::new(&prog, [0; 4], [0; 4]);
                m.scalars[0] = [2.0, 7.0, 5.0][p];
                m
            })
            .collect();
        apply_reduce(&mut machines, 0, ReduceOp::Max, &None);
        assert!(machines.iter().all(|m| m.scalars[0] == 7.0));
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
