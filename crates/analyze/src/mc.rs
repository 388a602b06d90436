//! Schedule model checker: exhaustive small-scope interleaving
//! exploration for the two pooled runtime engines (DESIGN.md §12; the
//! round-robin reference runs on one thread, so no interleaving of it
//! exists to explore).
//!
//! A compiled [`CommPlan`]'s tape, walked by an engine's rules, is
//! abstracted into a transition system of per-rank operations
//! ([`McOp`]): tagged sends and receives over per-ordered-pair FIFO
//! channels, staging-slot acquire/recycle credits (the overlapped
//! engine's double-buffer discipline) and gang barriers — so the
//! checker proves the order that runs. [`check`] then explores **every**
//! inequivalent interleaving at small P (≤ 4 is practical) with a
//! sleep-set partial-order reduction over a conditional (state-aware)
//! independence relation, proving for the explored program:
//!
//! * **determinism of received contents** — every terminal state
//!   carries the same per-rank receive-log signature
//!   ([`codes::MC_NONDET`], SA053, otherwise);
//! * **stage safety** — no staged buffer is posted over an undrained
//!   message ([`codes::MC_STAGE_OVERWRITE`], SA054);
//! * **deadlock freedom** — no reachable state blocks on a receive
//!   ([`codes::MC_DEADLOCK`], SA055);
//! * **barrier convergence** — all ranks always meet at the same
//!   barrier ([`codes::MC_BARRIER_DIVERGENCE`], SA056);
//! * **drainage** — no message is left in flight at termination
//!   ([`codes::MC_RESIDUAL`], SA057).
//!
//! On failure a **minimal counterexample interleaving** is attached
//! to the diagnostic (found by a capped breadth-first re-search; if
//! the cap is hit the reduced-DFS trace is reported instead). The
//! [`Mutation`] suite seeds representative concurrency defects —
//! dropped barriers, lost/duplicated messages, wildcard receives,
//! posts without a buffer acquire, swapped staging
//! destinations — each of which the checker must report under its
//! exact SA05x code (`tests/racecheck.rs`).

use std::collections::{HashMap, HashSet, VecDeque};
use syncplace_ir::diag::{codes, Diagnostic, Report, Span};
use syncplace_runtime::tape::{Cursor, Op, Split};
use syncplace_runtime::{CommPlan, Engine};

/// One abstract per-rank operation of the modelled schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McOp {
    /// Post a tagged message to `to`. `staged` sends draw a recycle
    /// credit when `acquire` is set (allocating afresh when the free
    /// list is empty, as the real engines do); a staged post
    /// **without** an acquire reuses the in-flight buffer and is an
    /// overwrite whenever the channel is undrained.
    Send {
        /// Destination rank.
        to: usize,
        /// Content tag (encodes phase, round and the ordered pair).
        tag: u32,
        /// Does this message travel in a recycled staging buffer?
        staged: bool,
        /// Was a staging slot acquired before posting?
        acquire: bool,
    },
    /// Receive the front message from `from`, expecting `expect`;
    /// staged receives return the drained buffer to this rank's own
    /// free list for the reverse direction.
    Recv {
        /// Source rank.
        from: usize,
        /// The tag the schedule says must arrive here.
        expect: u32,
        /// Does the drained buffer recycle into a free list?
        staged: bool,
    },
    /// Wildcard receive: take the front message of any non-empty
    /// inbound channel (a seeded defect — the engines never do this).
    RecvAny,
    /// Gang barrier: all ranks must arrive at a barrier with the same
    /// `id` before any proceeds.
    Barrier {
        /// Structural identity of the barrier (gang index).
        id: u32,
    },
}

/// A modelled program: one operation list per rank plus the seeded
/// staging credits per ordered `(rank, peer)` pair.
#[derive(Debug, Clone)]
pub struct McProgram {
    /// Human-readable label (engine + program) for reports.
    pub label: String,
    /// Number of ranks.
    pub nranks: usize,
    /// Per-rank operation lists, program order.
    pub ops: Vec<Vec<McOp>>,
    /// Seeded free-list credits, indexed `rank * nranks + peer`.
    pub seed_credits: Vec<u32>,
}

/// Round 1 of a phase: the coalesced pair packets a post ships.
pub const R1: usize = 0;
/// Round 2 of a phase: assembled totals, owners to their copies.
pub const R2: usize = 1;
/// Partials (or exit decisions) up a binomial-tree edge.
pub const TREE_UP: usize = 2;
/// Totals (or the agreed exit verdict) down a binomial-tree edge.
pub const TREE_DOWN: usize = 3;

/// Content tag for (phase, round, ordered pair): both ends derive it
/// independently, so a mismatch means the wrong content arrived. An
/// exit agreement tags as phase `phases + exit statement id`.
fn tag(phase: usize, round: usize, from: usize, to: usize, n: usize) -> u32 {
    ((((phase * 4 + round) * n + from) * n) + to) as u32
}

/// The `(phase, round)` a tag of an `n`-rank program encodes.
pub fn tag_parts(t: u32, n: usize) -> (usize, usize) {
    let pr = t as usize / (n * n);
    (pr / 4, pr % 4)
}

/// One rank's op list as the tape walk builds it. Only round-1 packets
/// travel in recycled staging buffers.
struct Model<'a> {
    plan: &'a CommPlan,
    r: usize,
    ops: Vec<McOp>,
}

impl Model<'_> {
    fn send(&mut self, to: usize, k: usize, round: usize) {
        let tag = tag(k, round, self.r, to, self.plan.nparts);
        self.ops.push(McOp::Send { to, tag, staged: round == R1, acquire: true });
    }

    fn recv(&mut self, from: usize, k: usize, round: usize) {
        let expect = tag(k, round, from, self.r, self.plan.nparts);
        self.ops.push(McOp::Recv { from, expect, staged: round == R1 });
    }

    /// The post half of phase `k`: one round-1 packet per listed peer.
    fn post(&mut self, k: usize) {
        let sends = &self.plan.phases[k].ranks[self.r].send1;
        sends.iter().for_each(|s| self.send(s.peer as usize, k, R1));
    }

    /// Phase `k`'s round-1 receives: a completion's first step, and all
    /// a drain does.
    fn drain(&mut self, k: usize) {
        let recvs = &self.plan.phases[k].ranks[self.r].recv1;
        recvs.iter().for_each(|r1| self.recv(r1.peer as usize, k, R1));
    }

    /// One round trip on the plan's binomial tree tagged as phase `k`:
    /// values from the children, up to the parent and back, down to the
    /// children.
    fn tree(&mut self, k: usize) {
        let w = &self.plan.wiring.ranks[self.r];
        let children = w.children.iter().map(|&c| c as usize);
        children.clone().for_each(|c| self.recv(c, k, TREE_UP));
        if let Some(p) = w.parent.map(|p| p as usize) {
            self.send(p, k, TREE_UP);
            self.recv(p, k, TREE_DOWN);
        }
        children.for_each(|c| self.send(c, k, TREE_DOWN));
    }

    /// The complete half of phase `k`, in the order
    /// `RankProc::complete_phase` (`runtime/src/pooled.rs`) executes it:
    /// round-1 receives, the reduction tree (no edges without
    /// reductions), then round 2.
    fn complete(&mut self, k: usize) {
        self.drain(k);
        let rp = &self.plan.phases[k].ranks[self.r];
        if !rp.reduces.is_empty() {
            self.tree(k);
        }
        rp.send2.iter().for_each(|s| self.send(s.peer as usize, k, R2));
        rp.recv2.iter().for_each(|r2| self.recv(r2.peer as usize, k, R2));
    }
}

/// Abstract `plan` as the pooled `engine` runs it into a checkable
/// transition system, every time loop unrolled to `sweeps` iterations.
/// Each rank walks the plan's tape ([`syncplace_runtime::tape`]), the
/// schedule the engines step through, by the engines' own rules: a
/// [`Op::Complete`] posts unless the phase is on the wire, then
/// completes it; a [`Op::Post`] or a producer split posts early, and
/// only [`Engine::Overlapped`] honours them; an exit that needs
/// agreement runs the binomial tree (no exit is taken); leaving a loop
/// drains any post still on the wire; every tree is the one the plan's
/// wiring names. Round 1 travels in recycled staging buffers — seeded at two per
/// link with a nonzero `cap` for the overlapped engine's double
/// buffering, empty for batched (the first acquire allocates) — and the
/// ranks meet at the gang join.
///
/// [`Engine::RoundRobin`] runs every rank on one thread in a fixed
/// order: it has no interleaving to check, and asking for it panics.
pub fn from_plan(plan: &CommPlan, engine: Engine, sweeps: usize) -> McProgram {
    assert!(engine != Engine::RoundRobin, "round-robin has no schedule to model");
    let (n, m) = (plan.nparts, plan.phases.len());
    let early = engine == Engine::Overlapped;
    let tape = plan.ops().unwrap_or_default();
    let ops = (0..n).map(|r| {
        let mut rank = Model { plan, r, ops: Vec::new() };
        let mut posted = vec![false; m];
        for op in Cursor::unrolled(tape, sweeps) {
            match op {
                Op::Post(k) | Op::Loop { split: Some(Split { phase: k, .. }), .. } if early => {
                    rank.post(*k);
                    posted[*k] = true;
                }
                Op::Complete(k) => {
                    if !std::mem::take(&mut posted[*k]) {
                        rank.post(*k);
                    }
                    rank.complete(*k);
                }
                Op::Exit { id, agree: true, .. } => rank.tree(m + id),
                Op::Tail { .. } => {
                    for (k, on_wire) in posted.iter_mut().enumerate() {
                        if std::mem::take(on_wire) {
                            rank.drain(k);
                        }
                    }
                }
                _ => {}
            }
        }
        rank.ops.push(McOp::Barrier { id: 0 });
        rank.ops
    });
    let mut seed_credits = vec![0u32; n * n];
    if early {
        // Two buffers per link that stages phase packets, as the
        // engine seeds them.
        for (r, w) in plan.wiring.ranks.iter().enumerate() {
            let staged = w.links.iter().filter(|l| l.cap > 0);
            staged.for_each(|l| seed_credits[r * n + l.peer as usize] = 2);
        }
    }
    McProgram {
        label: format!("{}:P{}x{}", engine.name(), n, sweeps),
        nranks: n,
        ops: ops.collect(),
        seed_credits,
    }
}

// ---------------------------------------------------------------------------
// Checker state and exploration.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Exploration statistics — the partial-order-reduction evidence the
/// racecheck experiment reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct McStats {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions actually executed.
    pub transitions: u64,
    /// Sum over visited states of their enabled-transition counts
    /// (what a reduction-free search would have branched on).
    pub enabled_total: u64,
    /// Clean terminal states reached.
    pub terminals: u64,
    /// Distinct per-rank receive-content signatures over terminals
    /// (1 means deterministic).
    pub distinct_signatures: u64,
    /// Staged acquires that fell back to a fresh allocation (empty
    /// free list) — normal for the batched engine's first round.
    pub alloc_fallbacks: u64,
    /// True when the transition cap aborted exploration; a capped run
    /// proves nothing and must be treated as a failure by gates.
    pub capped: bool,
}

impl McStats {
    /// Fraction of enabled branches the sleep-set reduction actually
    /// had to execute (1.0 = no reduction; smaller is better).
    pub fn reduction_ratio(&self) -> f64 {
        if self.enabled_total == 0 {
            1.0
        } else {
            self.transitions as f64 / self.enabled_total as f64
        }
    }
}

/// The result of [`check`]: a diagnostic [`Report`] (clean when the
/// program verifies), exploration statistics, and — on failure — the
/// counterexample interleaving, one formatted step per line.
#[derive(Debug)]
pub struct McOutcome {
    /// Findings; empty iff all properties hold and the cap was not hit.
    pub report: Report,
    /// Exploration statistics.
    pub stats: McStats,
    /// Minimal (best-effort) counterexample interleaving, empty when
    /// clean.
    pub counterexample: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trans {
    /// `choice` is the source rank for `RecvAny`, 0 otherwise.
    Op { rank: usize, choice: usize },
    /// The synchronized all-ranks barrier release.
    Barrier,
}

#[derive(Clone)]
struct St {
    pcs: Vec<usize>,
    chans: Vec<VecDeque<u32>>,
    credits: Vec<u32>,
    logs: Vec<u64>,
}

fn initial(prog: &McProgram) -> St {
    let n = prog.nranks;
    St {
        pcs: vec![0; n],
        chans: vec![VecDeque::new(); n * n],
        credits: prog.seed_credits.clone(),
        logs: vec![FNV_OFFSET; n],
    }
}

fn hash_state(st: &St) -> u64 {
    let mut h = FNV_OFFSET;
    for &pc in &st.pcs {
        h = fnv(h, pc as u64 + 11);
    }
    for ch in &st.chans {
        h = fnv(h, 0x5eed ^ (ch.len() as u64));
        for &t in ch {
            h = fnv(h, t as u64 + 7);
        }
    }
    for &c in &st.credits {
        h = fnv(h, c as u64 + 3);
    }
    for &l in &st.logs {
        h = fnv(h, l);
    }
    h
}

fn signature(st: &St) -> u64 {
    st.logs.iter().fold(FNV_OFFSET, |h, &l| fnv(h, l))
}

struct Violation {
    code: &'static str,
    rank: usize,
    phase: usize,
    msg: String,
}

fn enabled(prog: &McProgram, st: &St) -> Vec<Trans> {
    let n = prog.nranks;
    let all_at_barrier = (0..n).all(|r| {
        st.pcs[r] < prog.ops[r].len() && matches!(prog.ops[r][st.pcs[r]], McOp::Barrier { .. })
    });
    if n > 0 && all_at_barrier {
        return vec![Trans::Barrier];
    }
    let mut v = Vec::new();
    for r in 0..n {
        if st.pcs[r] >= prog.ops[r].len() {
            continue;
        }
        match prog.ops[r][st.pcs[r]] {
            McOp::Send { .. } => {
                v.push(Trans::Op { rank: r, choice: 0 });
            }
            McOp::Recv { from, .. } => {
                if !st.chans[from * n + r].is_empty() {
                    v.push(Trans::Op { rank: r, choice: 0 });
                }
            }
            McOp::RecvAny => {
                for p in 0..n {
                    if p != r && !st.chans[p * n + r].is_empty() {
                        v.push(Trans::Op { rank: r, choice: p });
                    }
                }
            }
            McOp::Barrier { .. } => {}
        }
    }
    v
}

fn exec(prog: &McProgram, st: &mut St, t: Trans, fallbacks: &mut u64) -> Result<(), Violation> {
    let n = prog.nranks;
    match t {
        Trans::Barrier => {
            let mut id0: Option<u32> = None;
            for r in 0..n {
                let McOp::Barrier { id } = prog.ops[r][st.pcs[r]] else {
                    unreachable!("barrier transition with a rank not at a barrier");
                };
                match id0 {
                    None => id0 = Some(id),
                    Some(i) if i != id => {
                        return Err(Violation {
                            code: codes::MC_BARRIER_DIVERGENCE,
                            rank: r,
                            phase: 0,
                            msg: format!(
                                "rank {r} is at barrier {id} while rank 0 is at barrier {}",
                                i
                            ),
                        })
                    }
                    _ => {}
                }
            }
            for pc in st.pcs.iter_mut() {
                *pc += 1;
            }
            Ok(())
        }
        Trans::Op { rank, choice } => {
            let op = prog.ops[rank][st.pcs[rank]];
            st.pcs[rank] += 1;
            match op {
                McOp::Send {
                    to,
                    tag,
                    staged,
                    acquire,
                } => {
                    if staged {
                        if acquire {
                            let c = &mut st.credits[rank * n + to];
                            if *c > 0 {
                                *c -= 1;
                            } else {
                                *fallbacks += 1;
                            }
                        } else if !st.chans[rank * n + to].is_empty() {
                            return Err(Violation {
                                code: codes::MC_STAGE_OVERWRITE,
                                rank,
                                phase: tag_parts(tag, n).0,
                                msg: format!(
                                    "rank {rank} posts to rank {to} without acquiring a \
                                     staging slot while {} message(s) are still undrained",
                                    st.chans[rank * n + to].len()
                                ),
                            });
                        }
                    }
                    st.chans[rank * n + to].push_back(tag);
                    Ok(())
                }
                McOp::Recv {
                    from,
                    expect,
                    staged,
                } => {
                    let got = st.chans[from * n + rank]
                        .pop_front()
                        .expect("recv transition only enabled on a non-empty channel");
                    st.logs[rank] = fnv(fnv(st.logs[rank], from as u64 + 1), got as u64 + 1);
                    if staged {
                        st.credits[rank * n + from] += 1;
                    }
                    if got != expect {
                        let code = if staged {
                            codes::MC_STAGE_OVERWRITE
                        } else {
                            codes::MC_NONDET
                        };
                        return Err(Violation {
                            code,
                            rank,
                            phase: tag_parts(expect, n).0,
                            msg: format!(
                                "rank {rank} received tag {got} from rank {from} where the \
                                 schedule expects tag {expect}"
                            ),
                        });
                    }
                    Ok(())
                }
                McOp::RecvAny => {
                    let got = st.chans[choice * n + rank]
                        .pop_front()
                        .expect("wildcard recv only enabled on a non-empty channel");
                    st.logs[rank] = fnv(fnv(st.logs[rank], choice as u64 + 1), got as u64 + 1);
                    Ok(())
                }
                McOp::Barrier { .. } => {
                    unreachable!("individual barrier ops are never enabled")
                }
            }
        }
    }
}

enum Halt {
    Terminal(u64),
    Violation(Violation),
}

fn halt(prog: &McProgram, st: &St) -> Halt {
    let n = prog.nranks;
    if (0..n).all(|r| st.pcs[r] >= prog.ops[r].len()) {
        for f in 0..n {
            for t in 0..n {
                let left = st.chans[f * n + t].len();
                if left > 0 {
                    return Halt::Violation(Violation {
                        code: codes::MC_RESIDUAL,
                        rank: t,
                        phase: 0,
                        msg: format!(
                            "{left} undrained message(s) from rank {f} to rank {t} at termination"
                        ),
                    });
                }
            }
        }
        return Halt::Terminal(signature(st));
    }
    // Stuck: a blocked receive means deadlock; otherwise the ranks
    // have diverged around a barrier (some terminated or at
    // different gang joins).
    for r in 0..n {
        if st.pcs[r] < prog.ops[r].len() {
            match prog.ops[r][st.pcs[r]] {
                McOp::Recv { from, expect, .. } => {
                    return Halt::Violation(Violation {
                        code: codes::MC_DEADLOCK,
                        rank: r,
                        phase: tag_parts(expect, n).0,
                        msg: format!(
                            "rank {r} blocks forever receiving from rank {from} \
                             (expected tag {expect} never sent)"
                        ),
                    });
                }
                McOp::RecvAny => {
                    return Halt::Violation(Violation {
                        code: codes::MC_DEADLOCK,
                        rank: r,
                        phase: 0,
                        msg: format!("rank {r} blocks forever on a wildcard receive"),
                    });
                }
                _ => {}
            }
        }
    }
    let waiting: Vec<usize> = (0..n)
        .filter(|&r| {
            st.pcs[r] < prog.ops[r].len()
                && matches!(prog.ops[r][st.pcs[r]], McOp::Barrier { .. })
        })
        .collect();
    let done: Vec<usize> = (0..n).filter(|&r| st.pcs[r] >= prog.ops[r].len()).collect();
    Halt::Violation(Violation {
        code: codes::MC_BARRIER_DIVERGENCE,
        rank: waiting.first().copied().unwrap_or(0),
        phase: 0,
        msg: format!(
            "ranks {waiting:?} wait at a gang barrier that ranks {done:?} never reach"
        ),
    })
}

/// Conditional independence at `st` (where both transitions are
/// co-enabled): same-rank and barrier transitions are always
/// dependent; an unacquired staged post is dependent with the drain
/// of its channel (the drain flips the overwrite predicate); all
/// other co-enabled pairs commute — in particular a send and a recv
/// on the same FIFO channel, since the recv being enabled means the
/// queue is non-empty and append/pop commute.
fn independent(prog: &McProgram, st: &St, a: Trans, b: Trans) -> bool {
    let (Trans::Op { rank: ra, choice: ca }, Trans::Op { rank: rb, choice: cb }) = (a, b) else {
        return false;
    };
    if ra == rb {
        return false;
    }
    let oa = prog.ops[ra][st.pcs[ra]];
    let ob = prog.ops[rb][st.pcs[rb]];
    let dep_pair = |send: &McOp, sr: usize, recv: &McOp, rr: usize, rc: usize| -> bool {
        if let McOp::Send {
            to,
            staged,
            acquire,
            ..
        } = *send
        {
            let drained_from = match *recv {
                McOp::Recv { from, .. } => Some(from),
                McOp::RecvAny => Some(rc),
                _ => None,
            };
            if staged && !acquire && drained_from == Some(sr) && to == rr {
                return true;
            }
        }
        false
    };
    !(dep_pair(&oa, ra, &ob, rb, cb) || dep_pair(&ob, rb, &oa, ra, ca))
}

const MAX_TRANSITIONS: u64 = 3_000_000;
const MAX_BFS_STATES: usize = 150_000;
const MAX_TRACE_LINES: usize = 200;

struct Checker<'a> {
    prog: &'a McProgram,
    stats: McStats,
    visited: HashMap<u64, Vec<Vec<Trans>>>,
    sigs: HashMap<u64, Vec<Trans>>,
    trace: Vec<Trans>,
    found: Option<(Violation, Vec<Trans>)>,
}

impl<'a> Checker<'a> {
    fn explore(&mut self, st: &St, sleep: Vec<Trans>) {
        if self.found.is_some() || self.stats.capped {
            return;
        }
        let h = hash_state(st);
        if let Some(prev) = self.visited.get(&h) {
            // Already explored from here with a sleep set no larger
            // than this one: everything reachable now was covered.
            if prev.iter().any(|p| p.iter().all(|t| sleep.contains(t))) {
                return;
            }
        }
        self.visited.entry(h).or_default().push(sleep.clone());
        self.stats.states += 1;
        let en = enabled(self.prog, st);
        self.stats.enabled_total += en.len() as u64;
        if en.is_empty() {
            match halt(self.prog, st) {
                Halt::Terminal(sig) => {
                    self.stats.terminals += 1;
                    if !self.sigs.contains_key(&sig) {
                        self.sigs.insert(sig, self.trace.clone());
                    }
                }
                Halt::Violation(v) => self.found = Some((v, self.trace.clone())),
            }
            return;
        }
        let mut sleep_now = sleep;
        for t in en {
            if sleep_now.contains(&t) {
                continue;
            }
            self.stats.transitions += 1;
            if self.stats.transitions > MAX_TRANSITIONS {
                self.stats.capped = true;
                return;
            }
            let mut s2 = st.clone();
            self.trace.push(t);
            if let Err(v) = exec(self.prog, &mut s2, t, &mut self.stats.alloc_fallbacks) {
                self.found = Some((v, self.trace.clone()));
                self.trace.pop();
                return;
            }
            let child_sleep: Vec<Trans> = sleep_now
                .iter()
                .copied()
                .filter(|&u| independent(self.prog, st, u, t))
                .collect();
            self.explore(&s2, child_sleep);
            self.trace.pop();
            if self.found.is_some() || self.stats.capped {
                return;
            }
            sleep_now.push(t);
        }
    }
}

/// Breadth-first re-search for a shortest path to *any* violation;
/// returns `None` when the cap is hit first (caller falls back to the
/// reduced-DFS trace).
fn bfs_minimal(prog: &McProgram) -> Option<(Violation, Vec<Trans>)> {
    let mut arena: Vec<(St, Option<(usize, Trans)>)> = vec![(initial(prog), None)];
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(hash_state(&arena[0].0));
    let mut fallbacks = 0u64;
    let path = |arena: &Vec<(St, Option<(usize, Trans)>)>, mut i: usize, last: Option<Trans>| {
        let mut steps: Vec<Trans> = last.into_iter().collect();
        while let Some((p, t)) = arena[i].1 {
            steps.push(t);
            i = p;
        }
        steps.reverse();
        steps
    };
    let mut qi = 0;
    while qi < arena.len() {
        if arena.len() > MAX_BFS_STATES {
            return None;
        }
        let st = arena[qi].0.clone();
        let en = enabled(prog, &st);
        if en.is_empty() {
            if let Halt::Violation(v) = halt(prog, &st) {
                return Some((v, path(&arena, qi, None)));
            }
        }
        for t in en {
            let mut s2 = st.clone();
            match exec(prog, &mut s2, t, &mut fallbacks) {
                Err(v) => return Some((v, path(&arena, qi, Some(t)))),
                Ok(()) => {
                    if seen.insert(hash_state(&s2)) {
                        arena.push((s2, Some((qi, t))));
                    }
                }
            }
        }
        qi += 1;
    }
    None
}

/// Render a transition sequence as one human-readable step per line
/// (replaying program counters to resolve each rank's operation).
fn format_trace(prog: &McProgram, trace: &[Trans]) -> Vec<String> {
    let mut pcs = vec![0usize; prog.nranks];
    let mut out = Vec::new();
    for (i, &t) in trace.iter().enumerate() {
        let line = match t {
            Trans::Barrier => {
                let id = pcs
                    .iter()
                    .enumerate()
                    .find_map(|(r, &pc)| match prog.ops[r].get(pc) {
                        Some(McOp::Barrier { id }) => Some(*id),
                        _ => None,
                    })
                    .unwrap_or(0);
                for pc in pcs.iter_mut() {
                    *pc += 1;
                }
                format!("all ranks: barrier {id}")
            }
            Trans::Op { rank, choice } => {
                let op = prog.ops[rank][pcs[rank]];
                pcs[rank] += 1;
                match op {
                    McOp::Send {
                        to,
                        tag,
                        staged,
                        acquire,
                    } => {
                        let kind = match (staged, acquire) {
                            (true, true) => " [staged]",
                            (true, false) => " [staged, NO ACQUIRE]",
                            _ => "",
                        };
                        format!("rank {rank}: send tag {tag} -> rank {to}{kind}")
                    }
                    McOp::Recv { from, expect, .. } => {
                        format!("rank {rank}: recv <- rank {from} (expect tag {expect})")
                    }
                    McOp::RecvAny => format!("rank {rank}: wildcard recv <- rank {choice}"),
                    McOp::Barrier { id } => format!("rank {rank}: barrier {id} (unsynchronized)"),
                }
            }
        };
        out.push(format!("step {:>3}: {line}", i + 1));
        if out.len() == MAX_TRACE_LINES && trace.len() > MAX_TRACE_LINES {
            out.push(format!("... ({} more steps)", trace.len() - MAX_TRACE_LINES));
            break;
        }
    }
    out
}

/// Exhaustively verify `prog` over all inequivalent interleavings.
///
/// The returned report is clean iff received contents are
/// deterministic, no staged buffer is overwritten before its drain,
/// no deadlock or barrier divergence is reachable, and every message
/// is drained. On failure the first diagnostic carries the (best-effort
/// minimal) counterexample interleaving in its help text.
pub fn check(prog: &McProgram) -> McOutcome {
    let mut c = Checker {
        prog,
        stats: McStats::default(),
        visited: HashMap::new(),
        sigs: HashMap::new(),
        trace: Vec::new(),
        found: None,
    };
    let st = initial(prog);
    c.explore(&st, Vec::new());
    c.stats.distinct_signatures = c.sigs.len() as u64;
    let mut report = Report::new();
    let mut counterexample = Vec::new();
    if let Some((v, trace)) = c.found.take() {
        let (v, trace) = bfs_minimal(prog).unwrap_or((v, trace));
        counterexample = format_trace(prog, &trace);
        report.push(
            Diagnostic::error(
                v.code,
                Span::phase(v.phase, Some(v.rank)),
                format!("{}: {}", prog.label, v.msg),
            )
            .with_help(format!(
                "counterexample interleaving:\n{}",
                counterexample.join("\n")
            )),
        );
    } else if c.sigs.len() > 1 {
        let mut traces: Vec<&Vec<Trans>> = c.sigs.values().collect();
        traces.sort_by_key(|t| t.len());
        counterexample = format_trace(prog, traces[traces.len() - 1]);
        report.push(
            Diagnostic::error(
                codes::MC_NONDET,
                Span::phase(0, None),
                format!(
                    "{}: received contents depend on the interleaving \
                     ({} distinct terminal signatures)",
                    prog.label,
                    c.sigs.len()
                ),
            )
            .with_help(format!(
                "one of the diverging interleavings:\n{}",
                counterexample.join("\n")
            )),
        );
    }
    McOutcome {
        report,
        stats: c.stats,
        counterexample,
    }
}

/// Build the engine model for `plan` and [`check`] it in one step.
pub fn check_plan(plan: &CommPlan, engine: Engine, sweeps: usize) -> McOutcome {
    check(&from_plan(plan, engine, sweeps))
}

// ---------------------------------------------------------------------------
// Seeded-defect mutations.
// ---------------------------------------------------------------------------

/// A seeded concurrency defect for the mutation suite. Each mutation
/// edits a clean [`McProgram`] into a buggy one that [`check`] must
/// reject under one exact SA05x code (and under no other); the
/// expected pairing is produced by [`default_mutations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Remove one rank's last gang barrier (a worker skips the join).
    DropBarrier {
        /// The rank whose barrier is dropped.
        rank: usize,
    },
    /// Remove the last send on an ordered pair (a lost message).
    DropLastSend {
        /// Sender rank.
        from: usize,
        /// Receiver rank.
        to: usize,
    },
    /// Remove the last receive on an ordered pair (an off-by-one
    /// drain: the tail message is never completed).
    DropLastRecv {
        /// Sender rank.
        from: usize,
        /// Receiver rank.
        to: usize,
    },
    /// Duplicate the last send on an ordered pair (a double post).
    DupLastSend {
        /// Sender rank.
        from: usize,
        /// Receiver rank.
        to: usize,
    },
    /// Replace every receive of one rank with a wildcard receive
    /// (message-order nondeterminism).
    WildcardRecvs {
        /// The rank whose receives lose their source matching.
        rank: usize,
    },
    /// Make the last phase-0 staged send on the pair skip its buffer
    /// acquire, reusing a buffer that may still be in flight — the
    /// defect the double buffers exist to prevent.
    PostWithoutAcquire {
        /// Sender rank.
        from: usize,
        /// Receiver rank.
        to: usize,
    },
    /// Swap the destinations of a rank's last two back-to-back sends
    /// (staging buffers handed to the wrong peers).
    SwapSendDests {
        /// The rank whose send destinations are swapped.
        rank: usize,
    },
}

impl Mutation {
    /// Apply the defect to `p`; returns false when the program has no
    /// matching site (the mutation is inapplicable, not applied).
    pub fn apply(&self, p: &mut McProgram) -> bool {
        let n = p.nranks;
        let send_to = |to: usize| move |o: &McOp| matches!(*o, McOp::Send { to: t, .. } if t == to);
        let remove = |ops: &mut Vec<McOp>, i: usize| {
            ops.remove(i);
        };
        match *self {
            Mutation::DropBarrier { rank } => {
                at_last(&mut p.ops[rank], |o| matches!(o, McOp::Barrier { .. }), remove)
            }
            Mutation::DropLastSend { from, to } => at_last(&mut p.ops[from], send_to(to), remove),
            Mutation::DropLastRecv { from, to } => {
                let hit = |o: &McOp| matches!(*o, McOp::Recv { from: f, .. } if f == from);
                at_last(&mut p.ops[to], hit, remove)
            }
            Mutation::DupLastSend { from, to } => {
                at_last(&mut p.ops[from], send_to(to), |ops, i| ops.insert(i + 1, ops[i]))
            }
            Mutation::WildcardRecvs { rank } => {
                let mut sources = HashSet::new();
                for op in p.ops[rank].iter_mut() {
                    if let McOp::Recv { from, .. } = *op {
                        sources.insert(from);
                        *op = McOp::RecvAny;
                    }
                }
                sources.len() >= 2
            }
            Mutation::PostWithoutAcquire { from, to } => {
                let hit = |o: &McOp| {
                    matches!(*o, McOp::Send { to: t, tag, staged: true, .. }
                             if t == to && tag_parts(tag, n).0 == 0)
                };
                at_last(&mut p.ops[from], hit, |ops, i| {
                    if let McOp::Send { acquire, .. } = &mut ops[i] {
                        *acquire = false;
                    }
                })
            }
            Mutation::SwapSendDests { rank } => {
                let Some(i) = adjacent_send_pair(p, rank) else {
                    return false;
                };
                if let [McOp::Send { to: a, .. }, McOp::Send { to: b, .. }] = &mut p.ops[rank][i..i + 2] {
                    std::mem::swap(a, b);
                }
                true
            }
        }
    }
}

/// Apply `edit` at the last op of `ops` that `hit` matches; false when
/// none does (the mutation is inapplicable).
fn at_last(
    ops: &mut Vec<McOp>,
    hit: impl Fn(&McOp) -> bool,
    edit: impl FnOnce(&mut Vec<McOp>, usize),
) -> bool {
    let found = ops.iter().rposition(hit);
    found.map(|i| edit(ops, i)).is_some()
}

/// The last pair of *adjacent* sends with different destinations in
/// `rank`'s op list (index of the first), if any.
fn adjacent_send_pair(p: &McProgram, rank: usize) -> Option<usize> {
    let ops = &p.ops[rank];
    (0..ops.len().saturating_sub(1)).rev().find(|&i| {
        matches!(
            (&ops[i], &ops[i + 1]),
            (McOp::Send { to: a, .. }, McOp::Send { to: b, .. }) if a != b
        )
    })
}

/// The applicable seeded-defect suite for `prog`, paired with the
/// exact code [`check`] must report for each: the message, barrier
/// and staging defects the program's schedule supports.
pub fn default_mutations(prog: &McProgram) -> Vec<(Mutation, &'static str)> {
    let n = prog.nranks;
    let mut out = Vec::new();
    // The globally-last send on some pair: take the first rank with
    // any send; its final send op closes that pair's traffic.
    let sends = |r: usize| {
        let to = |o: &McOp| match *o {
            McOp::Send { to, tag, staged, .. } => Some((to, tag_parts(tag, n).0, staged)),
            _ => None,
        };
        prog.ops[r].iter().filter_map(to).collect::<Vec<_>>()
    };
    if let Some((from, to)) = (0..n).find_map(|r| Some((r, sends(r).last()?.0))) {
        out.push((Mutation::DropLastSend { from, to }, codes::MC_DEADLOCK));
        out.push((Mutation::DupLastSend { from, to }, codes::MC_RESIDUAL));
        out.push((Mutation::DropLastRecv { from, to }, codes::MC_RESIDUAL));
    }
    // Wildcard: the rank hearing from the most distinct peers.
    let sources = |r: usize| {
        let from = |o: &McOp| if let McOp::Recv { from, .. } = *o { Some(from) } else { None };
        prog.ops[r].iter().filter_map(from).collect::<HashSet<_>>().len()
    };
    if let Some((_, rank)) = (0..n).map(|r| (sources(r), r)).max().filter(|w| w.0 >= 2) {
        out.push((Mutation::WildcardRecvs { rank }, codes::MC_NONDET));
    }
    let barrier = |r: &usize| prog.ops[*r].iter().any(|o| matches!(o, McOp::Barrier { .. }));
    if let Some(rank) = (0..n).find(barrier) {
        out.push((Mutation::DropBarrier { rank }, codes::MC_BARRIER_DIVERGENCE));
    }
    if let Some((rank, i)) = (0..n).find_map(|r| Some((r, adjacent_send_pair(prog, r)?))) {
        let staged = matches!(prog.ops[rank][i], McOp::Send { staged: true, .. });
        let code = if staged { codes::MC_STAGE_OVERWRITE } else { codes::MC_NONDET };
        out.push((Mutation::SwapSendDests { rank }, code));
    }
    // Post without acquire: a staged pair whose later re-post of
    // phase 0 can overlap an undrained message of the last phase.
    let staged: Vec<Vec<(usize, usize)>> = (0..n)
        .map(|r| sends(r).into_iter().filter(|s| s.2).map(|(to, k, _)| (to, k)).collect())
        .collect();
    if let Some(mp) = staged.iter().flatten().map(|&(_, k)| k).max() {
        let vulnerable = |&(f, t): &(usize, usize)| {
            let phases: Vec<usize> = (staged[f].iter()).filter(|s| s.0 == t).map(|s| s.1).collect();
            phases.len() >= 2 && phases.contains(&0) && (mp == 0 || phases.contains(&mp))
        };
        let mut pairs = (0..n).flat_map(|f| (0..n).map(move |t| (f, t)));
        if let Some((from, to)) = pairs.find(vulnerable) {
            out.push((Mutation::PostWithoutAcquire { from, to }, codes::MC_STAGE_OVERWRITE));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_placement::{analyze_program, CostParams, SearchOptions};

    fn prog(n: usize, ops: Vec<Vec<McOp>>) -> McProgram {
        McProgram {
            label: "test".into(),
            nranks: n,
            ops,
            seed_credits: vec![0; n * n],
        }
    }

    #[test]
    fn ping_is_clean_and_deterministic() {
        let p = prog(
            2,
            vec![
                vec![McOp::Send { to: 1, tag: 7, staged: false, acquire: true }],
                vec![McOp::Recv { from: 0, expect: 7, staged: false }],
            ],
        );
        let out = check(&p);
        assert!(out.report.is_clean(), "{}", out.report);
        assert_eq!(out.stats.distinct_signatures, 1);
        assert!(!out.stats.capped);
    }

    #[test]
    fn missing_send_is_a_deadlock() {
        let p = prog(
            2,
            vec![
                vec![],
                vec![McOp::Recv { from: 0, expect: 7, staged: false }],
            ],
        );
        let out = check(&p);
        assert!(out.report.has_code(codes::MC_DEADLOCK), "{}", out.report);
        assert!(!out.counterexample.is_empty() || out.report.diags[0].help.is_some());
    }

    #[test]
    fn undrained_message_is_residual() {
        let p = prog(
            2,
            vec![
                vec![McOp::Send { to: 1, tag: 7, staged: false, acquire: true }],
                vec![],
            ],
        );
        let out = check(&p);
        assert!(out.report.has_code(codes::MC_RESIDUAL), "{}", out.report);
    }

    #[test]
    fn lone_barrier_diverges() {
        let p = prog(2, vec![vec![McOp::Barrier { id: 0 }], vec![]]);
        let out = check(&p);
        assert!(
            out.report.has_code(codes::MC_BARRIER_DIVERGENCE),
            "{}",
            out.report
        );
    }

    #[test]
    fn wildcard_receives_are_nondeterministic() {
        // Two senders race into one wildcard receiver: the receive
        // order (and hence the content log) depends on the schedule.
        let p = prog(
            3,
            vec![
                vec![McOp::Send { to: 2, tag: 1, staged: false, acquire: true }],
                vec![McOp::Send { to: 2, tag: 2, staged: false, acquire: true }],
                vec![McOp::RecvAny, McOp::RecvAny],
            ],
        );
        let out = check(&p);
        assert!(out.report.has_code(codes::MC_NONDET), "{}", out.report);
        assert!(out.stats.distinct_signatures > 1);
    }

    #[test]
    fn unacquired_post_over_undrained_message_is_an_overwrite() {
        let p = prog(
            2,
            vec![
                vec![
                    McOp::Send { to: 1, tag: 1, staged: true, acquire: false },
                    McOp::Send { to: 1, tag: 2, staged: true, acquire: false },
                ],
                vec![
                    McOp::Recv { from: 0, expect: 1, staged: true },
                    McOp::Recv { from: 0, expect: 2, staged: true },
                ],
            ],
        );
        let out = check(&p);
        assert!(
            out.report.has_code(codes::MC_STAGE_OVERWRITE),
            "{}",
            out.report
        );
        // The minimal counterexample is the back-to-back double post.
        assert!(out.counterexample.len() <= 3, "{:?}", out.counterexample);
    }

    #[test]
    fn acquired_double_buffered_posts_are_safe() {
        let mut p = prog(
            2,
            vec![
                vec![
                    McOp::Send { to: 1, tag: 1, staged: true, acquire: true },
                    McOp::Send { to: 1, tag: 2, staged: true, acquire: true },
                ],
                vec![
                    McOp::Recv { from: 0, expect: 1, staged: true },
                    McOp::Recv { from: 0, expect: 2, staged: true },
                ],
            ],
        );
        p.seed_credits = vec![0, 2, 0, 0];
        let out = check(&p);
        assert!(out.report.is_clean(), "{}", out.report);
        assert_eq!(out.stats.alloc_fallbacks, 0);
    }

    /// A `CommPlan` with a phase that carries both an assembly and a
    /// reduction: under the node-overlap pattern (fig7) the scattered
    /// `A` needs `assemble` and the summed `s` needs `reduce` before
    /// the one loop that reads both. No built-in program × pattern
    /// groups the two, so the fixture is its own DSL text.
    fn assemble_and_reduce_plan(nparts: usize) -> CommPlan {
        let prog = syncplace_ir::parser::parse(
            "program both\n  input X : node\n  output Y : node\n  map SOM : tri -> node [3]\n  \
             var A : node\n  var s : scalar\n  \
             forall i in node split { A(i) = 0.0 }\n  \
             forall t in tri split {\n    \
             A(SOM(t,1)) = A(SOM(t,1)) + X(SOM(t,2))\n    \
             A(SOM(t,2)) = A(SOM(t,2)) + X(SOM(t,3))\n    \
             A(SOM(t,3)) = A(SOM(t,3)) + X(SOM(t,1))\n  }\n  \
             s = 0.0\n  \
             forall i in node split { s = s + X(i) }\n  \
             forall i in node split { Y(i) = A(i) * s }\nend",
        )
        .expect("fixture parses");
        let automaton = syncplace_automata::predefined::fig7();
        let (dfg, analysis) = analyze_program(
            &prog,
            &automaton,
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let mesh = syncplace_mesh::gen2d::perturbed_grid(7, 7, 0.1, 5);
        let part = partition2d(&mesh, nparts, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, nparts, Pattern::FIG2);
        let spmd = syncplace_codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
        CommPlan::build(&prog, &spmd, &d)
    }

    #[test]
    fn tree_precedes_round_two_as_in_complete_phase() {
        // `RankProc::complete_phase` runs the reduction tree before it
        // ships the assembled totals; the model must prove that order,
        // not the reverse.
        let n = 3;
        let plan = assemble_and_reduce_plan(n);
        let round = |t: u32| (t as usize / (n * n)) % 4;
        for engine in [Engine::Batched, Engine::Overlapped] {
            let prog = from_plan(&plan, engine, 1);
            let mut checked = 0;
            for (k, ph) in plan.phases.iter().enumerate() {
                if ph.assembles == 0 || ph.reduces == 0 {
                    continue;
                }
                for (r, ops) in prog.ops.iter().enumerate() {
                    let rounds: Vec<usize> = ops
                        .iter()
                        .filter_map(|o| match *o {
                            McOp::Send { tag, .. } | McOp::Recv { expect: tag, .. } => Some(tag),
                            _ => None,
                        })
                        .filter(|&t| tag_parts(t, n).0 == k)
                        .map(round)
                        .collect();
                    let last_tree = rounds.iter().rposition(|&x| x == TREE_UP || x == TREE_DOWN);
                    let first_r2 = rounds.iter().position(|&x| x == R2);
                    if let (Some(t), Some(r2)) = (last_tree, first_r2) {
                        assert!(t < r2, "{} rank {r} phase {k}: {rounds:?}", engine.name());
                        checked += 1;
                    }
                }
            }
            assert!(checked > 0, "no rank both reduces and assembles in one phase");
            let out = check(&prog);
            assert!(out.report.is_clean(), "{}: {}", engine.name(), out.report);
        }
    }

    /// TESTIV's best placement on a 10 × 10 grid, `nparts` ranks under
    /// `pattern` (Fig. 7's automaton for node overlap, Fig. 6's for
    /// element overlap); `strip` drops its reductions, so its exit test
    /// needs the agreement tree (the §6 hand-placement error).
    fn testiv_plan(pattern: Pattern, nparts: usize, strip: bool) -> CommPlan {
        let prog = syncplace_ir::programs::testiv();
        let automaton = match pattern {
            Pattern::NodeOverlap => syncplace_automata::predefined::fig7(),
            _ => syncplace_automata::predefined::fig6(),
        };
        let (dfg, analysis) =
            analyze_program(&prog, &automaton, &SearchOptions::default(), &CostParams::default());
        let mut spmd = syncplace_codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
        if strip {
            for ops in spmd.comms_before.values_mut() {
                ops.retain(|o| !matches!(o, syncplace_codegen::CommOp::Reduce { .. }));
            }
        }
        let mesh = syncplace_mesh::gen2d::perturbed_grid(10, 10, 0.2, 42);
        let part = partition2d(&mesh, nparts, Method::GreedyKl);
        let d = decompose2d(&mesh, &part.part, nparts, pattern);
        CommPlan::build(&prog, &spmd, &d)
    }

    /// The 3-D heat program on a 4 × 4 × 4 box under Fig. 8.
    fn tet_heat_plan(nparts: usize) -> CommPlan {
        let prog = syncplace_ir::programs::tet_heat(40);
        let automaton = syncplace_automata::predefined::fig8();
        let (dfg, analysis) =
            analyze_program(&prog, &automaton, &SearchOptions::default(), &CostParams::default());
        let spmd = syncplace_codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
        let mesh = syncplace_mesh::gen3d::box_mesh(4, 4, 4);
        let part = syncplace_partition::partition3d(&mesh, nparts, Method::Rib);
        let d = syncplace_overlap::decompose3d(&mesh, &part.part, nparts, Pattern::FIG1);
        CommPlan::build(&prog, &spmd, &d)
    }

    /// The ordered pairs and each rank's peers that the plan's lists
    /// name: every pair a phase's round-1 or round-2 lists name, from
    /// either end; both ways along each reducing phase's binomial tree;
    /// and both ways along the exit agreement's tree if the tape runs
    /// one. The definition the plan's wiring is built to.
    fn wiring_oracle(plan: &CommPlan) -> (Vec<(u32, u32)>, Vec<Vec<u32>>) {
        use syncplace_runtime::comm::reduce_tree_parent;
        let up = |p: u32| reduce_tree_parent(p as usize).map(|q| q as u32);
        let edges = move |p: u32| up(p).into_iter().flat_map(move |q| [(p, q), (q, p)]);
        let mut pairs = Vec::new();
        for ph in &plan.phases {
            for (p, rp) in (0u32..).zip(&ph.ranks) {
                let (sends, recvs) = (rp.send1.iter(), rp.recv1.iter());
                let sends = sends.chain(&rp.send2).map(|s| s.peer);
                let recvs = recvs.chain(&rp.recv2).map(|r| r.peer);
                pairs.extend(sends.map(|q| (p, q)).chain(recvs.map(|q| (q, p))));
                if !rp.reduces.is_empty() {
                    pairs.extend(edges(p));
                }
            }
        }
        let agreement = |op: &Op| matches!(op, Op::Exit { agree: true, .. });
        if plan.ops().unwrap().iter().any(agreement) {
            (0..plan.nparts as u32).for_each(|p| pairs.extend(edges(p)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut peers = vec![Vec::new(); plan.nparts];
        for &(p, q) in &pairs {
            peers[p as usize].push(q);
            peers[q as usize].push(p);
        }
        for peers in &mut peers {
            peers.sort_unstable();
            peers.dedup();
        }
        (pairs, peers)
    }

    #[test]
    fn wiring_is_what_the_lists_name() {
        use syncplace_runtime::comm::{reduce_tree_children, reduce_tree_parent};
        let two_layer = Pattern::ElementOverlap { layers: 2 };
        let mut plans = Vec::new();
        for pattern in [Pattern::FIG1, Pattern::FIG2, two_layer] {
            for nparts in [1, 2, 3, 5, 8, 16] {
                plans.push(testiv_plan(pattern, nparts, false));
            }
        }
        plans.extend([2, 5].map(tet_heat_plan));
        plans.push(assemble_and_reduce_plan(3));
        plans.push(testiv_plan(Pattern::FIG1, 3, true));
        let (mut agreeing, mut reducing_round_two) = (0, 0);
        for plan in &plans {
            let n = plan.nparts;
            let (pairs, peers) = wiring_oracle(plan);
            let at = |pair| pairs.binary_search(&pair).ok();
            let agrees = plan.ops().unwrap().iter().any(|op| matches!(op, Op::Exit { agree: true, .. }));
            let reduces = plan.phases.iter().any(|ph| ph.reduces > 0);
            let round_two = plan.phases.iter().any(|ph| ph.ranks.iter().any(|rp| !rp.send2.is_empty()));
            agreeing += usize::from(agrees && !reduces && n > 1);
            reducing_round_two += usize::from(reduces && round_two && n > 1);
            let tree = n > 1 && (reduces || agrees);
            let w = &plan.wiring;
            assert_eq!(w.pairs, pairs, "P = {n}: the pairs the lists name");
            assert_eq!(w.ranks.len(), n);
            for (r, rw) in (0u32..).zip(&w.ranks) {
                let linked: Vec<u32> = rw.links.iter().map(|l| l.peer).collect();
                assert!(linked.windows(2).all(|x| x[0] < x[1]), "P = {n} rank {r}: {linked:?}");
                assert_eq!(linked, peers[r as usize], "P = {n} rank {r}");
                for l in &rw.links {
                    assert_eq!((l.to, l.from), (at((r, l.peer)), at((l.peer, r))), "P = {n} rank {r}");
                    let sends = plan.phases.iter().flat_map(|ph| {
                        let rp = &ph.ranks[r as usize];
                        rp.send1.iter().chain(&rp.send2).map(|s| (s.peer, s.len))
                    });
                    let cap = sends.filter(|s| s.0 == l.peer).map(|s| s.1).max();
                    assert_eq!(l.cap, cap.unwrap_or(0), "P = {n} rank {r} peer {}", l.peer);
                }
                let parent = reduce_tree_parent(r as usize).filter(|_| tree);
                let children = reduce_tree_children(r as usize, n).into_iter().filter(|_| tree);
                let children: Vec<u32> = children.map(|c| c as u32).collect();
                assert_eq!(rw.parent, parent.map(|p| p as u32), "P = {n} rank {r}");
                assert_eq!(rw.children, children, "P = {n} rank {r}");
            }
        }
        assert!(agreeing > 0, "a plan whose only tree is the exit agreement's");
        assert!(reducing_round_two > 0, "a plan that reduces and sends round 2");
    }

    #[test]
    fn independent_sends_are_reduced() {
        // Four ranks each send to a distinct partner: every
        // interleaving is equivalent, so the sleep sets should explore
        // far fewer transitions than the full branching.
        let p = prog(
            4,
            vec![
                vec![McOp::Send { to: 1, tag: 1, staged: false, acquire: true }],
                vec![McOp::Recv { from: 0, expect: 1, staged: false }],
                vec![McOp::Send { to: 3, tag: 2, staged: false, acquire: true }],
                vec![McOp::Recv { from: 2, expect: 2, staged: false }],
            ],
        );
        let out = check(&p);
        assert!(out.report.is_clean(), "{}", out.report);
        assert!(
            out.stats.reduction_ratio() < 0.8,
            "ratio {} (transitions {} / enabled {})",
            out.stats.reduction_ratio(),
            out.stats.transitions,
            out.stats.enabled_total
        );
    }
}
