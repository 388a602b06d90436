//! Communication schedules derived from the decomposition.
//!
//! "All these communications can be gathered into a single procedure
//! called in the source program." (§2.3) — these schedules are the
//! data behind that procedure. They are computed once per
//! decomposition, entirely from the mesh geometry and partition (the
//! paper's point versus inspector/executor: the "inspector" phase is
//! replaced by static analysis in the mesh splitter, §5.1).

/// Fig. 1-style update schedule: each owned (kernel) value is sent to
/// the overlap copies of the same entity on other processors.
///
/// `msgs[p][q]` lists `(src_local_on_p, dst_local_on_q)` pairs, sorted
/// by source index — a deterministic order that makes concurrent and
/// round-robin executions bitwise identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateSchedule {
    /// `msgs[p][q]` = node pairs sent from processor `p` to `q`.
    pub msgs: Vec<Vec<Vec<(u32, u32)>>>,
}

impl UpdateSchedule {
    /// Empty schedule over `nparts` processors.
    pub fn new(nparts: usize) -> Self {
        UpdateSchedule {
            msgs: vec![vec![Vec::new(); nparts]; nparts],
        }
    }

    /// Number of processors.
    pub fn nparts(&self) -> usize {
        self.msgs.len()
    }

    /// Total number of values exchanged in one update.
    pub fn total_values(&self) -> usize {
        self.msgs
            .iter()
            .flat_map(|row| row.iter())
            .map(|m| m.len())
            .sum()
    }

    /// Number of point-to-point messages in one update (non-empty
    /// `(p,q)` pairs).
    pub fn total_messages(&self) -> usize {
        self.msgs
            .iter()
            .flat_map(|row| row.iter())
            .filter(|m| !m.is_empty())
            .count()
    }

    /// The largest number of values any single processor sends
    /// (the per-phase critical path under simultaneous sends).
    pub fn max_send_values(&self) -> usize {
        self.msgs
            .iter()
            .map(|row| row.iter().map(|m| m.len()).sum::<usize>())
            .max()
            .unwrap_or(0)
    }

    /// Sort all message lists by source index (determinism).
    pub fn sort(&mut self) {
        for row in &mut self.msgs {
            for m in row.iter_mut() {
                m.sort_unstable();
            }
        }
    }
}

/// Fig. 2-style assembly schedule: each *shared* node exists on two or
/// more processors, each holding a partial value; the assembly sums
/// the partials and writes the total back to every copy.
///
/// Each group lists `(part, local_index)` participants, owner first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AssembleSchedule {
    /// One group per shared node.
    pub groups: Vec<Vec<(u32, u32)>>,
}

impl AssembleSchedule {
    /// Total number of values moved in one assembly (each participant
    /// sends its partial and receives the total: 2 values per
    /// non-owner participant, counted as the gather+scatter volume).
    pub fn total_values(&self) -> usize {
        self.groups
            .iter()
            .map(|g| 2 * (g.len().saturating_sub(1)))
            .sum()
    }

    /// Number of shared-node groups.
    pub fn ngroups(&self) -> usize {
        self.groups.len()
    }

    /// Number of point-to-point messages in one assembly, assuming the
    /// owner gathers partials and scatters totals: 2 messages per
    /// (owner, participant-processor) pair, deduplicated per pair via
    /// sort-unique (keeping the schedule path hash-free).
    pub fn total_messages(&self) -> usize {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for g in &self.groups {
            if let Some(&(owner, _)) = g.first() {
                for &(p, _) in &g[1..] {
                    pairs.push((owner, p));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        2 * pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_counts() {
        let mut s = UpdateSchedule::new(3);
        s.msgs[0][1] = vec![(2, 0), (1, 1)];
        s.msgs[2][0] = vec![(0, 3)];
        assert_eq!(s.total_values(), 3);
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.max_send_values(), 2);
        s.sort();
        assert_eq!(s.msgs[0][1], vec![(1, 1), (2, 0)]);
    }

    #[test]
    fn assemble_counts() {
        let s = AssembleSchedule {
            groups: vec![vec![(0, 5), (1, 2)], vec![(0, 6), (1, 3), (2, 0)]],
        };
        assert_eq!(s.ngroups(), 2);
        // Group 1: 2 values; group 2: 4 values.
        assert_eq!(s.total_values(), 6);
        // Owner 0 talks to parts 1 and 2: 2 pairs * 2 directions.
        assert_eq!(s.total_messages(), 4);
    }

    #[test]
    fn empty_schedules() {
        assert_eq!(UpdateSchedule::new(4).total_values(), 0);
        assert_eq!(AssembleSchedule::default().total_messages(), 0);
    }
}
