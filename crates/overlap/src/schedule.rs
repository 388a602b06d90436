//! Communication schedules derived from the decomposition.
//!
//! "All these communications can be gathered into a single procedure
//! called in the source program." (§2.3) — these schedules are the
//! data behind that procedure. They are computed once per
//! decomposition, entirely from the mesh geometry and partition (the
//! paper's point versus inspector/executor: the "inspector" phase is
//! replaced by static analysis in the mesh splitter, §5.1).
//!
//! A schedule is sparse: it lists the messages that carry something,
//! as a star forest lists each copy's owner, and holds no rank × rank
//! table. Both of the paper's collectives run on it: an update is its
//! broadcast, a node-overlap assembly its reduce then broadcast.

/// One point-to-point message of a schedule: the copies `to` holds of
/// entities `from` owns, as `(src_local_on_from, dst_local_on_to)`
/// pairs ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The sending (owner) part.
    pub from: u32,
    /// The receiving (copy-holding) part.
    pub to: u32,
    /// The copies it refreshes; never empty.
    pub pairs: Vec<(u32, u32)>,
}

/// The copies of one entity kind, owner → holder: an update broadcasts
/// along it (Fig. 1: each owner's kernel value is written to its
/// copies), a node-overlap assembly reduces along it and broadcasts
/// back (Fig. 2: each holder's partial is added into the owner's copy,
/// then the owner's total is written to every copy).
///
/// `msgs` ascends strictly by `(from, to)` and holds no empty message
/// — a deterministic order that makes concurrent and round-robin
/// executions bitwise identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateSchedule {
    /// The non-empty messages, ascending `(from, to)`.
    pub msgs: Vec<Message>,
}

impl UpdateSchedule {
    /// The schedule of `(from, to, src, dst)` copies given in any
    /// order: sorted, then split into one message per `(from, to)` run.
    pub fn from_copies(mut copies: Vec<(u32, u32, u32, u32)>) -> UpdateSchedule {
        copies.sort_unstable();
        let mut msgs = Vec::new();
        for run in copies.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (from, to) = (run[0].0, run[0].1);
            let pairs = run.iter().map(|c| (c.2, c.3)).collect();
            msgs.push(Message { from, to, pairs });
        }
        UpdateSchedule { msgs }
    }

    /// The copies `keep(to, dst)` accepts, in the same order; messages
    /// left empty are dropped.
    pub fn restrict(&self, mut keep: impl FnMut(u32, u32) -> bool) -> UpdateSchedule {
        let mut msgs = Vec::new();
        for m in &self.msgs {
            let pairs: Vec<_> = m
                .pairs
                .iter()
                .filter(|p| keep(m.to, p.1))
                .copied()
                .collect();
            if !pairs.is_empty() {
                msgs.push(Message { pairs, ..*m });
            }
        }
        UpdateSchedule { msgs }
    }

    /// Total number of values exchanged in one update — the copies; an
    /// assembly moves twice as many (each partial in, each total back).
    pub fn total_values(&self) -> usize {
        self.msgs.iter().map(|m| m.pairs.len()).sum()
    }

    /// Number of point-to-point messages in one update; an assembly
    /// sends twice as many (one per message each way).
    pub fn total_messages(&self) -> usize {
        self.msgs.len()
    }

    /// The largest number of values any single processor sends
    /// (the per-phase critical path under simultaneous sends).
    pub fn max_send_values(&self) -> usize {
        let per_sender = self.msgs.chunk_by(|a, b| a.from == b.from);
        per_sender
            .map(|run| run.iter().map(|m| m.pairs.len()).sum::<usize>())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_counts() {
        let s = UpdateSchedule::from_copies(vec![(0, 1, 2, 0), (2, 0, 0, 3), (0, 1, 1, 1)]);
        assert_eq!(s.total_values(), 3);
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.max_send_values(), 2);
        assert_eq!((s.msgs[0].from, s.msgs[0].to), (0, 1));
        assert_eq!(s.msgs[0].pairs, vec![(1, 1), (2, 0)]);
        let kept = s.restrict(|to, dst| (to, dst) != (1, 0));
        assert_eq!(kept.msgs[0].pairs, vec![(1, 1)]);
        assert_eq!(s.restrict(|to, _| to == 0).total_messages(), 1);
    }

    #[test]
    fn empty_schedules() {
        assert_eq!(UpdateSchedule::default().total_values(), 0);
        assert_eq!(UpdateSchedule::default().max_send_values(), 0);
        assert_eq!(UpdateSchedule::default().total_messages(), 0);
    }
}
