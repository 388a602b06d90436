//! The pooled rank-process core: the one concurrent SPMD engine.
//!
//! Every rank steps through the plan's tape ([`crate::tape`]) as a task
//! on the W-worker [`crate::pool::SpmdPool`] — it holds a worker from
//! one receive that has to wait to the next, never a thread of its own
//! — and executes a [`crate::plan::CommPlan`]: one coalesced packet per
//! peer per phase, staging buffers moved through a FIFO [`Mailbox`] per
//! ordered pair that talks (no copy) and recycled on a per-peer free
//! list, all named by the plan's [`Wiring`]: a run derives no wiring.
//! Each phase has a **post** half (pack + ship the round-1 packets)
//! and a **complete** half (receive and unpack round 1 — updates set,
//! assembly partials add — tree-reduce, round 2, recycle); both rounds
//! pack and unpack through one recipe shape. The only parameter is
//! *when* the post half runs, and the [`Engine`] says it:
//!
//! * [`Engine::Batched`] posts **late**: it skips the tape's
//!   [`Op::Post`]s and split marks, so a phase posts at its
//!   [`Op::Complete`]. Staging buffers are allocated on first use and
//!   recycled from then on.
//! * [`Engine::Overlapped`] posts **early**: it honours them (hoisted
//!   posts, producer splits — [`crate::overlap`]), so later compute
//!   overlaps the transfer. The free lists are pre-seeded with two
//!   buffers per peer the rank sends phase packets to, sized by the
//!   link's `cap` (double buffering: a phase can stage while its
//!   previous buffer is still held by the receiver).
//!
//! Every per-phase step walks the plan's peer lists — the few
//! neighbours a rank exchanges with — never all P ranks, and no table
//! in a run is P × P.
//!
//! Posts an exit stranded are drained when their time loop is left.
//! Early posting never changes a packed byte, and combine orders are
//! the plan's ([`crate::comm::tree_fold`]; an owned slot adds its
//! holders' partials in ascending rank, as the round-1 receive list
//! delivers them), so both postings are **bitwise identical** to
//! [`crate::spmd`], which runs the same recipes on one thread.

use crate::bindings::Bindings;
use crate::comm::CommStats;
use crate::exec::Machine;
use crate::kernel::Kernel;
use crate::overlap::{rank_splits, OverlapReport, RankSplit};
use crate::plan::{CommPlan, Link, PhasePlan, Recv1, Send1, Wiring};
use crate::pool::{Mailbox, SpmdPool};
use crate::spmd::{build_machines, collect_results, SpmdResult};
use crate::tape::{Cursor, Op};
use crate::Engine;
use std::sync::Arc;
use syncplace_ir::{Program, StmtId};
use syncplace_obs::{self as obs, keys, RecorderRef};
use syncplace_overlap::Decomposition;

/// One rank's endpoints: its links in the plan's [`Wiring`] over the
/// gang's mailboxes, and per link slot the free list of spent staging
/// buffers drained from that peer, reused (most recent first) for the
/// next send *to* it, so the steady state allocates nothing.
struct Net {
    rank: usize,
    plan: Arc<CommPlan>,
    free: Box<[Vec<Vec<f64>>]>,
    boxes: Arc<[Mailbox<Vec<f64>>]>,
    rec: RecorderRef,
}

impl Net {
    /// My links, ascending by peer.
    fn links(&self) -> &[Link] {
        &self.plan.wiring.ranks[self.rank].links
    }

    /// The slot of peer `q`.
    fn slot(&self, q: usize) -> usize {
        let found = self.links().binary_search_by_key(&(q as u32), |l| l.peer);
        found.expect("a peer the plan names")
    }

    /// Record the happens-before event `key` with the peer in slot `s`.
    fn hb(&self, key: &'static str, s: usize) {
        if let Some(r) = &self.rec {
            r.hb(self.rank as u32, key, self.links()[s].peer);
        }
    }

    /// A cleared staging buffer for the peer in slot `s`: recycled if
    /// one is free, freshly allocated otherwise.
    fn acquire(&mut self, s: usize) -> Vec<f64> {
        match self.free[s].pop() {
            Some(mut buf) => {
                // Only a *recycled* buffer spends a stage credit — a
                // fresh allocation touches no shared staging storage,
                // so it is invisible to the happens-before stage
                // discipline.
                self.hb(keys::HB_STAGE_ACQUIRE, s);
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    fn send(&mut self, s: usize, buf: Vec<f64>) {
        self.hb(keys::HB_SEND, s);
        let to = self.links()[s].to.expect("a wired pair");
        self.boxes[to].deposit(buf);
    }

    /// Send communication-phase traffic: same wire as [`Net::send`],
    /// but recorded in the per-pair packet matrix (each rank records
    /// only its own sends, so the aggregate is the gang total).
    fn send_phase(&mut self, s: usize, buf: Vec<f64>) {
        if let Some(r) = &self.rec {
            r.packet(self.rank as u32, self.links()[s].peer, buf.len() as u64);
            r.add(keys::BYTES_STAGED, 8 * buf.len() as u64);
        }
        self.send(s, buf);
    }

    /// The next packet from the peer in slot `s` — the one place a rank
    /// can suspend.
    async fn recv_from(&mut self, s: usize) -> Vec<f64> {
        // The scatter/combine read of the wire buffer follows
        // immediately at every call site, so the `hb.read` that the
        // happens-before checker matches against the sender's write is
        // emitted here alongside the receive itself.
        self.hb(keys::HB_RECV, s);
        self.hb(keys::HB_READ, s);
        let from = self.links()[s].from.expect("a wired pair");
        self.boxes[from].take().await
    }

    /// Put a spent buffer drained from the peer in slot `s` on its free
    /// list.
    fn give_back(&mut self, s: usize, buf: Vec<f64>) {
        self.hb(keys::HB_STAGE_RELEASE, s);
        self.free[s].push(buf);
    }

    /// Pre-seed two staging buffers of the link's `cap` per peer this
    /// rank sends phase packets to, ascending: `acquire` then never
    /// allocates for them, and a phase can stage while its previous
    /// buffer is still with the receiver.
    fn seed_double_buffers(&mut self) {
        for s in 0..self.free.len() {
            let cap = self.links()[s].cap;
            if cap > 0 {
                self.give_back(s, Vec::with_capacity(cap));
                self.give_back(s, Vec::with_capacity(cap));
            }
        }
    }
}

/// The gang's endpoints over the plan's [`Wiring`]: one mailbox per
/// ordered pair it names, and an empty free list per link.
fn wire(plan: &Arc<CommPlan>, rec: &RecorderRef) -> Vec<Net> {
    let Wiring { pairs, ranks } = &plan.wiring;
    let boxes: Arc<[_]> = pairs.iter().map(|_| Mailbox::default()).collect();
    let nets = ranks.iter().enumerate().map(|(rank, w)| Net {
        rank,
        plan: Arc::clone(plan),
        free: vec![Vec::new(); w.links.len()].into(),
        boxes: Arc::clone(&boxes),
        rec: rec.clone(),
    });
    nets.collect()
}

/// One rank's process: its machine, its endpoints (which hold the
/// shared plan) and the split-phase bookkeeping.
struct RankProc {
    kernel: Arc<Kernel>,
    /// Does this rank honour the tape's early posts and split marks?
    early: bool,
    /// My interface/interior split of each phase's producer loop.
    splits: Vec<RankSplit>,
    m: Machine,
    net: Net,
    stats: CommStats,
    iterations: usize,
    /// Phases whose round-1 packets are already on the wire.
    posted: Vec<bool>,
    /// Compute-unit reading at each phase's early post (None when the
    /// phase was not posted early).
    post_cu: Vec<Option<f64>>,
    /// Per phase *application*, in execution order: this rank's hidden
    /// units (0 where the phase was not posted early). Aligned with
    /// `stats.phases`.
    hidden_log: Vec<f64>,
    /// Early posts performed.
    early_posts: usize,
    /// Per-phase scratch, reused so a phase allocates nothing: round-1
    /// packets by sender, round-2 staging by receiver (both indexed by
    /// peer slot, empty between phases) and the reduction accumulators.
    bufs1: Vec<Option<Vec<f64>>>,
    bufs2: Vec<Vec<f64>>,
    accs: Vec<f64>,
}

impl RankProc {
    /// Pack the packet `s` describes into a staging buffer for its
    /// peer: the peer's slot and the buffer.
    fn pack(&mut self, s: &Send1) -> (usize, Vec<f64>) {
        let slot = self.net.slot(s.peer as usize);
        let mut buf = self.net.acquire(slot);
        pack(&self.m, s, &mut buf);
        (slot, buf)
    }

    /// Post half: pack and ship one round-1 packet per peer. Safe to
    /// run as soon as every gathered value is final.
    fn post_phase(&mut self, idx: usize) {
        let plan = Arc::clone(&self.net.plan);
        for s in &plan.phases[idx].ranks[self.net.rank].send1 {
            let (slot, buf) = self.pack(s);
            self.net.send_phase(slot, buf);
        }
        self.posted[idx] = true;
    }

    /// An early post at a scheduled site: record the span and the
    /// compute-unit baseline the hidden-work credit is measured from.
    fn post_early(&mut self, idx: usize) {
        debug_assert!(!self.posted[idx], "double post of phase {idx}");
        let t0 = obs::start(&self.net.rec);
        self.post_cu[idx] = Some(self.m.compute_units);
        self.post_phase(idx);
        self.early_posts += 1;
        if let Some(r) = &self.net.rec {
            r.add(keys::OVERLAP_POSTS, 1);
        }
        obs::finish_ranked(
            &self.net.rec,
            keys::EARLY_SEND_SPAN,
            self.net.rank as u32,
            t0,
        );
    }

    /// Complete half: (post now unless already posted,) receive and
    /// unpack round 1, stage the assembled totals, reduce up/down the
    /// tree, exchange round 2, recycle.
    async fn complete_phase(&mut self, idx: usize) {
        let plan = Arc::clone(&self.net.plan);
        let ph: &PhasePlan = &plan.phases[idx];
        let rp = &ph.ranks[self.net.rank];
        let tree = &plan.wiring.ranks[self.net.rank];
        // Plan-derived accounting is identical on every rank; rank 0
        // alone reports counters. Packets and staged bytes are
        // per-rank own-sends; the clock runs on every rank so each
        // rank's in-phase time lands on its timeline lane.
        let report = self.net.rank == 0;
        let t0 = obs::start(&self.net.rec);
        if !self.posted[idx] {
            self.post_phase(idx);
        }
        // Round 1: unpack straight out of each wire buffer. The list
        // ascends by peer, so an owned slot adds its holders' partials
        // by ascending rank after its own value.
        let mut bufs1 = std::mem::take(&mut self.bufs1);
        for r1 in &rp.recv1 {
            let slot = self.net.slot(r1.peer as usize);
            let buf = self.net.recv_from(slot).await;
            unpack(&mut self.m, r1, &buf);
            bufs1[slot] = Some(buf);
        }

        // Stage the assembled totals for round 2.
        let mut bufs2 = std::mem::take(&mut self.bufs2);
        for s in &rp.send2 {
            let (slot, buf) = self.pack(s);
            bufs2[slot] = buf;
        }

        // Reductions: combine partials up the plan's binomial tree and
        // broadcast the totals back down.  One packet per tree edge per
        // direction, carrying every reduce op's value in phase order —
        // the combine order is exactly `comm::tree_fold`'s, which every
        // engine shares.
        if !rp.reduces.is_empty() {
            let mut accs = std::mem::take(&mut self.accs);
            accs.clear();
            accs.extend(rp.reduces.iter().map(|red| self.m.scalars[red.var]));
            for &c in &tree.children {
                let slot = self.net.slot(c as usize);
                let buf = self.net.recv_from(slot).await;
                for (acc, (red, &sub)) in accs.iter_mut().zip(rp.reduces.iter().zip(buf.iter())) {
                    *acc = red.op.combine(*acc, sub);
                }
                self.net.give_back(slot, buf);
            }
            // The totals replace the partials in `accs`.
            if let Some(parent) = tree.parent {
                let slot = self.net.slot(parent as usize);
                let mut buf = self.net.acquire(slot);
                buf.extend_from_slice(&accs);
                self.net.send_phase(slot, buf);
                let buf = self.net.recv_from(slot).await;
                accs.clear();
                accs.extend_from_slice(&buf);
                self.net.give_back(slot, buf);
            }
            for &c in &tree.children {
                let slot = self.net.slot(c as usize);
                let mut buf = self.net.acquire(slot);
                buf.extend_from_slice(&accs);
                self.net.send_phase(slot, buf);
            }
            for (red, &t) in rp.reduces.iter().zip(&accs) {
                self.m.scalars[red.var] = t;
            }
            self.accs = accs;
        }

        // Round 2: totals owner → copies.
        for s in &rp.send2 {
            let slot = self.net.slot(s.peer as usize);
            let buf = std::mem::take(&mut bufs2[slot]);
            self.net.send_phase(slot, buf);
        }
        self.bufs2 = bufs2;
        for r2 in &rp.recv2 {
            let slot = self.net.slot(r2.peer as usize);
            let buf = self.net.recv_from(slot).await;
            unpack(&mut self.m, r2, &buf);
            self.net.give_back(slot, buf);
        }

        // Recycle the round-1 staging buffers last, after round 2: their
        // release order is part of the recorded happens-before log.
        for (slot, buf) in bufs1.iter_mut().enumerate() {
            if let Some(buf) = buf.take() {
                self.net.give_back(slot, buf);
            }
        }
        self.bufs1 = bufs1;

        let early = self.post_cu[idx]
            .take()
            .map(|cu0| self.m.compute_units - cu0);
        self.hidden_log.push(early.unwrap_or(0.0));
        self.posted[idx] = false;

        ph.account(&mut self.stats, if report { &self.net.rec } else { &None });
        if let (true, Some(r), Some(hidden)) = (report, &self.net.rec, early) {
            r.add(keys::OVERLAP_HIDDEN, hidden.round() as u64);
        }
        obs::finish_ranked(&self.net.rec, keys::PHASE_SPAN, self.net.rank as u32, t0);
    }

    /// Receive and discard the round-1 packets of every posted but
    /// never-completed phase, when a time loop is left (a post before an
    /// exit test the loop leaves by). Every rank holds the same posted
    /// set — the tape is static and control flow is SPMD — so the drain
    /// is symmetric and leaves all channels empty.
    async fn drain_posted(&mut self) {
        let plan = Arc::clone(&self.net.plan);
        for idx in 0..plan.phases.len() {
            if !self.posted[idx] {
                continue;
            }
            for r1 in &plan.phases[idx].ranks[self.net.rank].recv1 {
                let slot = self.net.slot(r1.peer as usize);
                let buf = self.net.recv_from(slot).await;
                self.net.give_back(slot, buf);
            }
            self.posted[idx] = false;
            self.post_cu[idx] = None;
        }
    }

    /// Exit-test agreement on the plan's binomial tree: `[min,
    /// max]` of the decisions goes up, `[rank 0's decision, 1 if the
    /// ranks disagree]` comes down — 2(P−1) messages, not an
    /// allgather's P(P−1). Recorded under `exit.*` counters (per-rank
    /// own-sends), kept out of the per-pair matrix so the matrix holds
    /// only `C$SYNCHRONIZE` phase traffic. Runs only at an [`Op::Exit`]
    /// marked `agree`; every other test decides alike on all ranks.
    async fn agree_on_exit(&mut self, mine: bool) -> [f64; 2] {
        let plan = Arc::clone(&self.net.plan);
        let tree = &plan.wiring.ranks[self.net.rank];
        if let Some(r) = &self.net.rec {
            let sends = (tree.children.len() + usize::from(tree.parent.is_some())) as u64;
            r.add(keys::EXIT_MESSAGES, sends);
            r.add(keys::EXIT_VALUES, 2 * sends);
        }
        let mine = f64::from(u8::from(mine));
        let mut span = [mine, mine];
        for &c in &tree.children {
            let slot = self.net.slot(c as usize);
            let buf = self.net.recv_from(slot).await;
            span = [span[0].min(buf[0]), span[1].max(buf[1])];
            self.net.give_back(slot, buf);
        }
        let mut verdict = [mine, f64::from(u8::from(span[0] != span[1]))];
        if let Some(p) = tree.parent {
            let slot = self.net.slot(p as usize);
            let mut buf = self.net.acquire(slot);
            buf.extend_from_slice(&span);
            self.net.send(slot, buf);
            let buf = self.net.recv_from(slot).await;
            verdict = [buf[0], buf[1]];
            self.net.give_back(slot, buf);
        }
        for &c in &tree.children {
            let slot = self.net.slot(c as usize);
            let mut buf = self.net.acquire(slot);
            buf.extend_from_slice(&verdict);
            self.net.send(slot, buf);
        }
        verdict
    }

    /// Run a split loop: interface iterations, post, then interior
    /// while the packets travel.
    fn run_split_loop(&mut self, id: StmtId, phase: usize) {
        let t0 = obs::start(&self.net.rec);
        self.m.exec_loop_at(&self.kernel, id, &self.splits[phase].interface);
        obs::finish_ranked(&self.net.rec, keys::COMPUTE_SPAN, self.net.rank as u32, t0);

        self.post_early(phase);

        let t_int = obs::start(&self.net.rec);
        self.m.exec_loop_at(&self.kernel, id, &self.splits[phase].interior);
        obs::finish_ranked(
            &self.net.rec,
            keys::INTERIOR_SPAN,
            self.net.rank as u32,
            t_int,
        );
    }

    /// The rank's whole run: step through the plan's tape.
    async fn run(&mut self) {
        let plan = Arc::clone(&self.net.plan);
        let mut cur = Cursor::new(plan.tape.as_deref().expect("a checked tape"));
        while let Some(op) = cur.next() {
            match op {
                Op::Assign(id) => {
                    self.m.exec_stmt(&self.kernel, *id);
                }
                Op::Loop { id, split: Some(s), .. } if self.early => {
                    self.run_split_loop(*id, s.phase)
                }
                Op::Loop { id, entity, domain, .. } => {
                    let n = self.m.domain_count(*entity, *domain);
                    let kernel = self.m.kernel_count(*entity);
                    let t0 = obs::start(&self.net.rec);
                    self.m.exec_loop(&self.kernel, *id, n, kernel);
                    obs::finish_ranked(&self.net.rec, keys::COMPUTE_SPAN, self.net.rank as u32, t0);
                }
                Op::Post(phase) if self.early => self.post_early(*phase),
                Op::Complete(phase) => self.complete_phase(*phase).await,
                Op::Exit { id, agree, to } => {
                    let mut exit = self.m.exec_stmt(&self.kernel, *id);
                    // A proven test is rank 0's decision already; for any
                    // other, rank 0's rules, as on round-robin.
                    if *agree {
                        let [verdict, divergent] = self.agree_on_exit(exit).await;
                        self.stats.divergent_exits += usize::from(divergent != 0.0);
                        exit = verdict != 0.0;
                    }
                    if exit {
                        cur.exit(*to);
                    }
                }
                Op::Tail { .. } => self.drain_posted().await,
                Op::Post(_) | Op::Head { .. } => {}
            }
        }
        self.iterations = cur.iterations;
    }
}

/// Append the packet `s` describes, gathered from `m`, to the empty
/// `buf`.
pub(crate) fn pack(m: &Machine, s: &Send1, buf: &mut Vec<f64>) {
    buf.reserve(s.len);
    for g in &s.gathers {
        let arr = &m.arrays[g.var];
        buf.extend(g.idx.iter().map(|&i| arr[i as usize]));
    }
    debug_assert_eq!(buf.len(), s.len);
}

/// Unpack a received packet into `m` by its recipe `r`: the updates
/// write, the adds add.
pub(crate) fn unpack(m: &mut Machine, r: &Recv1, buf: &[f64]) {
    for ru in &r.updates {
        let arr = &mut m.arrays[ru.var];
        for (k, &dst) in ru.dst.iter().enumerate() {
            arr[dst as usize] = buf[ru.off as usize + k];
        }
    }
    for ru in &r.adds {
        let arr = &mut m.arrays[ru.var];
        for (k, &dst) in ru.dst.iter().enumerate() {
            arr[dst as usize] += buf[ru.off as usize + k];
        }
    }
}

/// Run a placed SPMD program as a gang of rank tasks on `pool` — what
/// [`Engine::run_with`] calls, on the global [`SpmdPool`], for the two
/// pooled engines (tests pin W with a pool of their own).
///
/// `engine` selects the schedule: [`Engine::Overlapped`] posts early,
/// [`Engine::Batched`] late. `plan` is the [`CommPlan`] that
/// [`Engine::run_with`] resolved: its kernel and tape are what every
/// rank executes, its recipes what they send. `rec` is the
/// observability hook: `Some` captures per-rank
/// packets / staged bytes at the send sites, phase spans, rank-0
/// plan-derived counters, exit-test traffic under `exit.*` and a
/// whole-run span; `None` costs one branch per site.
///
/// The result carries the [`OverlapReport`] (all zeros for late
/// posting) the α/β model uses to credit hidden communication. A
/// failing rank — an `Err`, which every rank returns alike, or a panic,
/// reported with its rank — is the run's `Err`; its peers are dropped
/// where they wait.
pub(crate) fn run<const V: usize>(
    pool: &SpmdPool,
    prog: &Program,
    d: &Decomposition<V>,
    b: &Bindings,
    engine: Engine,
    plan: &Arc<CommPlan>,
    rec: &RecorderRef,
) -> Result<SpmdResult, String> {
    // The one fact the pooled core reads off the engine: when the post
    // half runs. (`Engine::run_with` never sends round-robin here.)
    let early = engine == Engine::Overlapped;
    let run_t0 = obs::start(rec);
    let machines = build_machines(prog, d, b)?;
    let kernel = plan.kernel.clone()?;
    kernel.check_tables(prog, &machines)?;
    let tape = plan.ops()?;
    let nparts = d.nparts;
    let nphases = plan.phases.len();

    let mut jobs = Vec::with_capacity(nparts);
    for (m, mut net) in machines.into_iter().zip(wire(plan, rec)) {
        let splits = if early {
            net.seed_double_buffers();
            rank_splits(plan, tape, &m, net.rank)
        } else {
            Vec::new()
        };
        let npeers = net.free.len();
        let mut proc = RankProc {
            kernel: Arc::clone(&kernel),
            early,
            splits,
            m,
            net,
            stats: CommStats::default(),
            iterations: 0,
            posted: vec![false; nphases],
            post_cu: vec![None; nphases],
            hidden_log: Vec::new(),
            early_posts: 0,
            bufs1: vec![None; npeers],
            bufs2: vec![Vec::new(); npeers],
            accs: Vec::new(),
        };
        jobs.push(async move {
            let t_job = obs::start(&proc.net.rec);
            proc.run().await;
            obs::finish_event(&proc.net.rec, keys::RANK_RUN, proc.net.rank as u32, t_job);
            Ok(proc)
        });
    }
    let procs = pool.run_gang(jobs, rec)?;

    // Gang join: every rank hands back its process. Stats and the
    // iteration count are rank 0's (identical on every rank);
    // creditable overlap is the minimum across ranks per phase
    // application — only work every rank had in flight hides the
    // phase's wire time.
    let mut machines = Vec::with_capacity(nparts);
    let mut stats = CommStats::default();
    let mut iterations = 0;
    let mut report = if early {
        OverlapReport::for_tape(tape)
    } else {
        OverlapReport::default()
    };
    for (rank, out) in procs.into_iter().enumerate() {
        if rank == 0 {
            stats = out.stats;
            iterations = out.iterations;
            report.early_posts = out.early_posts;
            report.hidden_units = out.hidden_log;
        } else {
            for (min, &h) in report.hidden_units.iter_mut().zip(&out.hidden_log) {
                *min = min.min(h);
            }
        }
        machines.push(out.m);
    }
    if let Some(r) = rec {
        r.add(keys::ITERATIONS, iterations as u64);
    }
    obs::finish(rec, keys::RUN_SPAN, run_t0);
    Ok(collect_results::<V>(
        prog, d, machines, stats, iterations, report,
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bindings::testiv_bindings;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_codegen::SpmdProgram;
    use syncplace_ir::programs;
    use syncplace_mesh::gen2d;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_placement::{analyze_program, CostParams, SearchOptions};

    const POOLED: [Engine; 2] = [Engine::Batched, Engine::Overlapped];

    /// TESTIV on a perturbed grid; `sol` picks the placement (the
    /// search returns many — index 0 is the cheapest, and some later
    /// ones place the overlap update before the consumer loop, which
    /// exercises producer splits).
    pub(crate) fn setup(
        pattern: Pattern,
        nparts: usize,
        sol: usize,
    ) -> (Program, SpmdProgram, Decomposition<3>, Bindings) {
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
        let spmd_prog = syncplace_codegen::spmd_program(&p, &dfg, &analysis.solutions[sol]);
        let part = partition2d(&mesh, nparts, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, nparts, pattern);
        (p, spmd_prog, d, b)
    }

    pub(crate) fn assert_bitwise(tag: &str, want: &SpmdResult, got: &SpmdResult) {
        assert_eq!(want.iterations, got.iterations, "{tag}: iteration counts");
        for (v, a) in want.output_arrays.iter() {
            let o = &got.output_arrays[v];
            assert!(
                a.iter().zip(o).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{tag}: array outputs differ bitwise"
            );
        }
        for (v, a) in want.output_scalars.iter() {
            assert_eq!(a.to_bits(), got.output_scalars[v].to_bits(), "{tag}");
        }
    }

    #[test]
    fn both_postings_bitwise_match_round_robin() {
        for (pattern, nparts) in [(Pattern::FIG1, 4), (Pattern::FIG2, 3), (Pattern::FIG1, 1)] {
            let (p, spmd, d, b) = setup(pattern, nparts, 0);
            let rr = Engine::RoundRobin.run(&p, &spmd, &d, &b).unwrap();
            for engine in POOLED {
                let res = engine.run(&p, &spmd, &d, &b).unwrap();
                assert_bitwise(&format!("{pattern:?} P={nparts} {engine:?}"), &rr, &res);
                if nparts == 1 {
                    assert_eq!(res.stats.total_messages(), 0);
                }
                // One hidden-work entry per phase application; late
                // posting hides nothing.
                let report = &res.overlap;
                assert_eq!(report.hidden_units.len(), res.stats.phases.len());
                if engine == Engine::Batched {
                    assert_eq!((report.total_hidden(), report.early_posts), (0.0, 0));
                }
            }
        }
    }

    /// Every `hb.*` emission of a run as `(rank, key, peer)`, in the
    /// one global order the workers produced them (an `HbLog` keeps
    /// per-rank order only, which no schedule can change).
    #[derive(Default)]
    struct HbTape(std::sync::Mutex<Vec<(u32, &'static str, u32)>>);

    impl syncplace_obs::Recorder for HbTape {
        fn add(&self, _: &'static str, _: u64) {}
        fn gauge_max(&self, _: &'static str, _: u64) {}
        fn span(&self, _: &'static str, _: u64) {}
        fn packet(&self, _: u32, _: u32, _: u64) {}
        fn hb(&self, rank: u32, key: &'static str, peer: u32) {
            self.0.lock().unwrap().push((rank, key, peer));
        }
    }

    #[test]
    fn one_worker_schedule_is_deterministic() {
        // W = 1: the submitter alone runs every rank to its next
        // blocking receive, in one lane's ascending sweeps — two runs
        // interleave the ranks' operations identically, event for event.
        let pool = SpmdPool::with_workers(1);
        let (p, spmd, d, b) = setup(Pattern::FIG1, 4, 0);
        let rr = Engine::RoundRobin.run(&p, &spmd, &d, &b).unwrap();
        let plan = Arc::new(CommPlan::build(&p, &spmd, &d));
        for engine in POOLED {
            let tape = || {
                let tape = Arc::new(HbTape::default());
                let rec: RecorderRef = Some(tape.clone());
                let res = run(&pool, &p, &d, &b, engine, &plan, &rec).unwrap();
                assert_bitwise(&format!("W=1 {engine:?}"), &rr, &res);
                let mut events = tape.0.lock().unwrap();
                std::mem::take(&mut *events)
            };
            let (first, second) = (tape(), tape());
            assert!(first.iter().any(|e| e.1 == keys::HB_BARRIER));
            assert!(first == second, "{engine:?}: W=1 schedules differ");
        }
    }

    #[test]
    fn at_most_one_packet_per_peer_per_phase() {
        let (p, spmd, d, b) = setup(Pattern::FIG2, 4, 0);
        let rr = Engine::RoundRobin.run(&p, &spmd, &d, &b).unwrap();
        let ba = Engine::Batched.run(&p, &spmd, &d, &b).unwrap();
        // Same phases and traffic — both engines read them off the one
        // plan — and never more messages per phase than there are
        // ordered peer pairs × 2 rounds plus the 2(P−1) binomial-tree
        // edges a reducing phase adds.
        assert_eq!(rr.stats.nphases(), ba.stats.nphases());
        assert_eq!(rr.stats.total_messages(), ba.stats.total_messages());
        let tree_edges = 2 * (4 - 1);
        for ph in &ba.stats.phases {
            assert!(
                ph.messages <= 2 * 4 * 3 + tree_edges,
                "one packet per pair per round plus tree edges"
            );
            assert!(ph.rounds <= crate::comm::reduce_tree_rounds(4).max(2));
        }
        // Op counters are engine-independent.
        assert_eq!(rr.stats.updates, ba.stats.updates);
        assert_eq!(rr.stats.assembles, ba.stats.assembles);
        assert_eq!(rr.stats.reduces, ba.stats.reduces);
    }

    #[test]
    fn plan_reuse_across_runs_is_stable() {
        // A run handed a prebuilt plan — twice — is bitwise equal to a
        // run that builds its own, on every engine, and every run on the
        // plan executes the one kernel it lowered.
        let (p, spmd, d, b) = setup(Pattern::FIG1, 4, 0);
        let plan = Arc::new(CommPlan::build(&p, &spmd, &d));
        let kernel = plan.kernel.clone().unwrap();
        for engine in Engine::ALL {
            let fresh = engine.run(&p, &spmd, &d, &b).unwrap();
            for run in 0..2 {
                let reused = engine
                    .run_with(&p, &spmd, &d, &b, Some(&plan), &None)
                    .unwrap();
                assert_bitwise(&format!("{engine:?} reuse {run}"), &fresh, &reused);
                assert_eq!(fresh.stats.total_messages(), reused.stats.total_messages());
                assert!(Arc::ptr_eq(&kernel, plan.kernel.as_ref().unwrap()));
            }
        }
        // The runs' rank handles are gone: the plan and this test hold it.
        assert_eq!(Arc::strong_count(&kernel), 2);
        // A run on a plan executes the plan's kernel, round-robin too;
        // it never lowers its own.
        let mut refused = (*plan).clone();
        refused.kernel = Err("the plan's kernel".into());
        let refused = Arc::new(refused);
        for engine in Engine::ALL {
            let e = engine.run_with(&p, &spmd, &d, &b, Some(&refused), &None);
            assert_eq!(e.unwrap_err(), "the plan's kernel");
        }
    }
}
