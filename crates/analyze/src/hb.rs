//! Dynamic happens-before checker: vector clocks over the `hb.*`
//! event streams a real engine run records (DESIGN.md §12).
//!
//! The runtime's send/recv/barrier/stage hook sites emit
//! [`syncplace_obs::HbEvent`]s into a [`syncplace_obs::HbRecorder`];
//! [`check_log`] replays the captured per-rank streams, maintaining
//! one vector clock per rank:
//!
//! * every event ticks the rank's own component;
//! * a **send** snapshots the sender's clock onto the ordered pair's
//!   publication list (a send is the write/publish side — the k-th
//!   send on a pair matches the k-th receive and the k-th read);
//! * a **recv** joins the matching send's snapshot into the receiver
//!   (the synchronization edge); a receive with no matching send is
//!   [`codes::HB_UNMATCHED`] (SA061);
//! * a **read** checks — *without joining* — that the matching send's
//!   snapshot is dominated by the reader's clock: a cross-rank read
//!   not ordered after its write is a race, [`codes::HB_RACE`] (SA060);
//! * a **barrier** closes a gang episode: the k-th barrier of every
//!   rank joins all participants; unequal barrier counts are
//!   [`codes::HB_BARRIER_DIVERGENCE`] (SA062);
//! * **stage acquire/release** track the staging free-list credit per
//!   `(rank, peer)` pair (seeding emits releases first); an acquire
//!   with no credit means a buffer was taken that was never freed —
//!   [`codes::HB_STAGE_DISCIPLINE`] (SA063).
//!
//! Replay is demand-driven: a rank's next event is processed once its
//! match is available, so cross-rank processing order never has to be
//! guessed. A replay that wedges with events remaining is itself a
//! finding (an unmatched receive or a diverging barrier).

use std::collections::HashMap;
use syncplace_ir::diag::{codes, Diagnostic, Report, Span};
use syncplace_obs::keys;
use syncplace_obs::{HbEvent, HbLog};

/// Replay statistics: what the checker actually looked at.
#[derive(Debug, Clone, Copy, Default)]
pub struct HbStats {
    /// Ranks in the log.
    pub ranks: usize,
    /// Total events replayed (or pending when a violation aborts).
    pub events: u64,
    /// Send events (vector-clock publications).
    pub sends: u64,
    /// Receive events (join edges checked for a matching send).
    pub recvs: u64,
    /// Read events checked for write ordering.
    pub reads: u64,
    /// Completed gang barrier episodes.
    pub barrier_episodes: u64,
    /// Stage acquire/release events checked against the credit.
    pub stage_events: u64,
}

type Clock = Vec<u64>;

fn join(dst: &mut Clock, src: &Clock) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

fn dominated(snap: &Clock, by: &Clock) -> bool {
    snap.iter().zip(by).all(|(s, b)| s <= b)
}

struct Replay<'a> {
    log: &'a HbLog,
    n: usize,
    cursor: Vec<usize>,
    clocks: Vec<Clock>,
    /// Send snapshots per ordered pair `(from, to)`, in send order.
    sends: HashMap<(usize, usize), Vec<Clock>>,
    recv_cursor: HashMap<(usize, usize), usize>,
    read_cursor: HashMap<(usize, usize), usize>,
    credits: HashMap<(usize, usize), i64>,
    stats: HbStats,
}

impl<'a> Replay<'a> {
    fn new(log: &'a HbLog) -> Replay<'a> {
        let n = log.len();
        Replay {
            log,
            n,
            cursor: vec![0; n],
            clocks: vec![vec![0; n]; n],
            sends: HashMap::new(),
            recv_cursor: HashMap::new(),
            read_cursor: HashMap::new(),
            credits: HashMap::new(),
            stats: HbStats {
                ranks: n,
                ..HbStats::default()
            },
        }
    }

    fn next(&self, r: usize) -> Option<&HbEvent> {
        self.log[r].get(self.cursor[r])
    }

    /// Is rank `r`'s next event processable right now (its match, if
    /// any, already replayed)? Barriers are handled episode-wide by
    /// the driver and always report false here.
    fn ready(&self, r: usize) -> bool {
        match self.next(r) {
            None => false,
            Some(ev) => match ev.key {
                k if k == keys::HB_RECV => {
                    let pair = (ev.peer as usize, r);
                    let done = self.recv_cursor.get(&pair).copied().unwrap_or(0);
                    done < self.sends.get(&pair).map(Vec::len).unwrap_or(0)
                }
                k if k == keys::HB_READ => {
                    let pair = (ev.peer as usize, r);
                    let done = self.read_cursor.get(&pair).copied().unwrap_or(0);
                    done < self.sends.get(&pair).map(Vec::len).unwrap_or(0)
                }
                k if k == keys::HB_BARRIER => false,
                _ => true,
            },
        }
    }

    /// Replay rank `r`'s next (ready, non-barrier) event.
    fn step(&mut self, r: usize) -> Result<(), Box<Diagnostic>> {
        let ev = *self.next(r).expect("step() only called when ready");
        self.cursor[r] += 1;
        self.stats.events += 1;
        self.clocks[r][r] += 1;
        let peer = ev.peer as usize;
        match ev.key {
            k if k == keys::HB_SEND => {
                self.stats.sends += 1;
                let snap = self.clocks[r].clone();
                self.sends.entry((r, peer)).or_default().push(snap);
            }
            k if k == keys::HB_RECV => {
                self.stats.recvs += 1;
                let pair = (peer, r);
                let i = self.recv_cursor.entry(pair).or_insert(0);
                let snap = self.sends[&pair][*i].clone();
                *i += 1;
                join(&mut self.clocks[r], &snap);
            }
            k if k == keys::HB_READ => {
                self.stats.reads += 1;
                let pair = (peer, r);
                let i = self.read_cursor.entry(pair).or_insert(0);
                let snap = self.sends[&pair][*i].clone();
                *i += 1;
                if !dominated(&snap, &self.clocks[r]) {
                    return Err(Box::new(Diagnostic::error(
                        codes::HB_RACE,
                        Span::phase(0, Some(r)),
                        format!(
                            "rank {r} reads data written by rank {peer} without a \
                             happens-before edge from the write"
                        ),
                    )
                    .with_help(
                        "the matching send's vector clock is not dominated by the \
                         reader's — no recv, barrier, or transitive chain orders the \
                         write before this read",
                    )));
                }
            }
            k if k == keys::HB_STAGE_RELEASE => {
                self.stats.stage_events += 1;
                *self.credits.entry((r, peer)).or_insert(0) += 1;
            }
            k if k == keys::HB_STAGE_ACQUIRE => {
                self.stats.stage_events += 1;
                let c = self.credits.entry((r, peer)).or_insert(0);
                *c -= 1;
                if *c < 0 {
                    return Err(Box::new(Diagnostic::error(
                        codes::HB_STAGE_DISCIPLINE,
                        Span::phase(0, Some(r)),
                        format!(
                            "rank {r} acquires a staging slot for peer {peer} with no \
                             free buffer (more acquires than seeded + released slots)"
                        ),
                    )
                    .with_help(
                        "the double-buffer discipline requires every post to reuse a \
                         drained or seeded buffer; a negative credit means an \
                         in-flight buffer was overwritten",
                    )));
                }
            }
            _ => {
                // Unknown hb key: tolerate (forward compatibility) —
                // the tick above still orders the rank's stream.
            }
        }
        Ok(())
    }

    /// Close one barrier episode if every rank is parked at a barrier.
    fn try_barrier(&mut self) -> bool {
        let all = (0..self.n).all(|r| {
            matches!(self.next(r), Some(ev) if ev.key == keys::HB_BARRIER)
        });
        if !all || self.n == 0 {
            return false;
        }
        let mut merged = vec![0u64; self.n];
        for r in 0..self.n {
            self.cursor[r] += 1;
            self.stats.events += 1;
            self.clocks[r][r] += 1;
            join(&mut merged, &self.clocks[r]);
        }
        for c in self.clocks.iter_mut() {
            *c = merged.clone();
        }
        self.stats.barrier_episodes += 1;
        true
    }

    fn stuck_diag(&self) -> Diagnostic {
        // An unmatched receive or read outranks barrier divergence:
        // it pins the defect to a pair.
        for r in 0..self.n {
            if let Some(ev) = self.next(r) {
                if ev.key == keys::HB_RECV || ev.key == keys::HB_READ {
                    return Diagnostic::error(
                        codes::HB_UNMATCHED,
                        Span::phase(0, Some(r)),
                        format!(
                            "rank {r} waits on `{}` from rank {} but the sender \
                             never recorded the matching send",
                            ev.key, ev.peer
                        ),
                    );
                }
            }
        }
        let at_barrier: Vec<usize> = (0..self.n)
            .filter(|&r| matches!(self.next(r), Some(ev) if ev.key == keys::HB_BARRIER))
            .collect();
        let exhausted: Vec<usize> = (0..self.n).filter(|&r| self.next(r).is_none()).collect();
        Diagnostic::error(
            codes::HB_BARRIER_DIVERGENCE,
            Span::phase(0, at_barrier.first().copied()),
            format!(
                "barrier episode cannot close: ranks {at_barrier:?} recorded a \
                 barrier arrival that ranks {exhausted:?} never match"
            ),
        )
    }
}

/// Replay a recorded run and verify its happens-before discipline.
///
/// Returns a clean report when every cross-rank read is ordered after
/// its matching write, every receive has a send, barrier episodes
/// close uniformly, and the staging credit never goes negative.
pub fn check_log(log: &HbLog) -> (Report, HbStats) {
    let mut rp = Replay::new(log);
    let mut report = Report::new();
    loop {
        let mut progressed = false;
        for r in 0..rp.n {
            while rp.ready(r) {
                progressed = true;
                if let Err(d) = rp.step(r) {
                    report.push(*d);
                    return (report, rp.stats);
                }
            }
        }
        if rp.try_barrier() {
            continue;
        }
        if !progressed {
            break;
        }
    }
    if (0..rp.n).any(|r| rp.next(r).is_some()) {
        report.push(rp.stuck_diag());
    }
    (report, rp.stats)
}

// ---------------------------------------------------------------------------
// Seeded-defect helpers for the mutation suite.
// ---------------------------------------------------------------------------

fn drop_at(log: &HbLog, rank: usize, idx: usize) -> HbLog {
    let mut out = log.clone();
    out[rank].remove(idx);
    out
}

/// Drop the **last** event with `key` from `rank`'s stream; `None`
/// when the rank never recorded one.
pub fn drop_last(log: &HbLog, rank: usize, key: &str) -> Option<HbLog> {
    let idx = log.get(rank)?.iter().rposition(|e| e.key == key)?;
    Some(drop_at(log, rank, idx))
}

/// Drop the **first** event with `key` from `rank`'s stream.
pub fn drop_first(log: &HbLog, rank: usize, key: &str) -> Option<HbLog> {
    let idx = log.get(rank)?.iter().position(|e| e.key == key)?;
    Some(drop_at(log, rank, idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drop the first event with `key` from **every** rank's stream;
    /// `None` unless every rank had one (keeps episode counts aligned).
    fn drop_first_everywhere(log: &HbLog, key: &str) -> Option<HbLog> {
        let mut out = log.clone();
        for stream in out.iter_mut() {
            let idx = stream.iter().position(|e| e.key == key)?;
            stream.remove(idx);
        }
        Some(out)
    }

    fn ev(key: &'static str, peer: usize) -> HbEvent {
        HbEvent {
            key,
            peer: peer as u32,
        }
    }

    /// A minimal clean exchange: 0 sends to 1, 1 recvs + reads, both
    /// barrier.
    fn clean_log() -> HbLog {
        vec![
            vec![ev(keys::HB_SEND, 1), ev(keys::HB_BARRIER, 0)],
            vec![
                ev(keys::HB_RECV, 0),
                ev(keys::HB_READ, 0),
                ev(keys::HB_BARRIER, 0),
            ],
        ]
    }

    #[test]
    fn clean_exchange_passes() {
        let (report, stats) = check_log(&clean_log());
        assert!(report.is_clean(), "{report}");
        assert_eq!(stats.sends, 1);
        assert_eq!(stats.recvs, 1);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.barrier_episodes, 1);
    }

    #[test]
    fn dropped_recv_makes_the_read_a_race() {
        let log = drop_last(&clean_log(), 1, keys::HB_RECV).unwrap();
        let (report, _) = check_log(&log);
        assert!(report.has_code(codes::HB_RACE), "{report}");
    }

    #[test]
    fn dropped_send_leaves_the_recv_unmatched() {
        let log = drop_last(&clean_log(), 0, keys::HB_SEND).unwrap();
        let (report, _) = check_log(&log);
        assert!(report.has_code(codes::HB_UNMATCHED), "{report}");
    }

    #[test]
    fn dropped_barrier_diverges() {
        let log = drop_last(&clean_log(), 0, keys::HB_BARRIER).unwrap();
        let (report, _) = check_log(&log);
        assert!(report.has_code(codes::HB_BARRIER_DIVERGENCE), "{report}");
    }

    #[test]
    fn barrier_orders_a_bucket_read() {
        // Gang shape: writes, barrier, reads — no recv at all.
        let log: HbLog = vec![
            vec![
                ev(keys::HB_SEND, 1),
                ev(keys::HB_BARRIER, 0),
                ev(keys::HB_READ, 1),
            ],
            vec![
                ev(keys::HB_SEND, 0),
                ev(keys::HB_BARRIER, 0),
                ev(keys::HB_READ, 0),
            ],
        ];
        let (report, _) = check_log(&log);
        assert!(report.is_clean(), "{report}");
        let racy = drop_first_everywhere(&log, keys::HB_BARRIER).unwrap();
        let (report, _) = check_log(&racy);
        assert!(report.has_code(codes::HB_RACE), "{report}");
    }

    #[test]
    fn stage_credit_goes_negative_without_its_seed() {
        let log: HbLog = vec![
            vec![
                ev(keys::HB_STAGE_RELEASE, 1),
                ev(keys::HB_STAGE_RELEASE, 1),
                ev(keys::HB_STAGE_ACQUIRE, 1),
                ev(keys::HB_SEND, 1),
                ev(keys::HB_STAGE_ACQUIRE, 1),
                ev(keys::HB_SEND, 1),
            ],
            vec![ev(keys::HB_RECV, 0), ev(keys::HB_RECV, 0)],
        ];
        let (report, stats) = check_log(&log);
        assert!(report.is_clean(), "{report}");
        assert_eq!(stats.stage_events, 4);
        let short = drop_first(&log, 0, keys::HB_STAGE_RELEASE).unwrap();
        let (report, _) = check_log(&short);
        assert!(report.has_code(codes::HB_STAGE_DISCIPLINE), "{report}");
    }

    #[test]
    fn empty_log_is_clean() {
        let (report, stats) = check_log(&Vec::new());
        assert!(report.is_clean());
        assert_eq!(stats.events, 0);
    }
}
