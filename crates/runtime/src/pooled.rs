//! The pooled rank-process core: the one concurrent SPMD engine.
//!
//! Every rank steps through the plan's tape ([`crate::tape`]) as a task
//! on the W-worker [`crate::pool::SpmdPool`] — it holds a worker from
//! one receive that has to wait to the next, never a thread of its own
//! — and executes a [`crate::plan::CommPlan`]: one coalesced packet per
//! peer per phase, staging buffers moved through per-ordered-pair FIFO
//! [`Mailbox`]es (no copy) and recycled on a per-peer free list. Each
//! phase has a **post** half (pack + ship the round-1 packets) and a
//! **complete** half (receive, scatter, assemble, tree-reduce, round 2,
//! recycle). The only parameter is *when* the post half runs, and the
//! [`Engine`] says it:
//!
//! * [`Engine::Batched`] posts **late**: it skips the tape's
//!   [`Op::Post`]s and split marks, so a phase posts at its
//!   [`Op::Complete`]. Staging buffers are allocated on first use and
//!   recycled from then on.
//! * [`Engine::Overlapped`] posts **early**: it honours them (hoisted
//!   posts, producer splits — [`crate::overlap`]), so later compute
//!   overlaps the transfer. The free lists are pre-seeded with two
//!   buffers per peer (double buffering: a phase can stage while its
//!   previous buffer is still held by the receiver).
//!
//! Posts an exit stranded are drained when their time loop is left.
//! Early posting never changes a packed byte, and combine orders are
//! those of the round-robin reference ([`crate::comm::tree_fold`],
//! owner-first ascending-rank assembly), so both postings are **bitwise
//! identical** to [`crate::spmd`].

use crate::bindings::Bindings;
use crate::comm::{reduce_tree_children, reduce_tree_parent, CommStats};
use crate::exec::Machine;
use crate::kernel::Kernel;
use crate::overlap::{rank_splits, OverlapReport, RankSplit};
use crate::plan::{CommPlan, PackItem, PhasePlan, Term};
use crate::pool::{Mailbox, SpmdPool};
use crate::spmd::{build_machines, collect_results, SpmdResult};
use crate::tape::{Cursor, Op};
use crate::Engine;
use std::sync::Arc;
use syncplace_ir::{Program, StmtId};
use syncplace_obs::{self as obs, keys, RecorderRef};
use syncplace_overlap::Decomposition;

/// One rank's endpoints: the gang's mailboxes (`from * nparts + to` is
/// that ordered pair's FIFO), plus a per-peer free list of spent
/// staging buffers. A buffer drained from peer `q` is reused for the
/// next send *to* `q` (most recently drained first), so the steady
/// state allocates nothing.
struct Net {
    rank: usize,
    nparts: usize,
    boxes: Arc<[Mailbox<Vec<f64>>]>,
    free: Vec<Vec<Vec<f64>>>,
    rec: RecorderRef,
}

impl Net {
    /// A cleared staging buffer for peer `q`: recycled if one is free,
    /// freshly allocated otherwise.
    fn acquire(&mut self, q: usize) -> Vec<f64> {
        match self.free[q].pop() {
            Some(mut buf) => {
                // Only a *recycled* buffer spends a stage credit — a
                // fresh allocation touches no shared staging storage,
                // so it is invisible to the happens-before stage
                // discipline.
                if let Some(r) = &self.rec {
                    r.hb(self.rank as u32, keys::HB_STAGE_ACQUIRE, q as u32);
                }
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    fn send(&mut self, q: usize, buf: Vec<f64>) {
        if let Some(r) = &self.rec {
            r.hb(self.rank as u32, keys::HB_SEND, q as u32);
        }
        self.boxes[self.rank * self.nparts + q].deposit(buf);
    }

    /// Send communication-phase traffic: same wire as [`Net::send`],
    /// but recorded in the per-pair packet matrix (each rank records
    /// only its own sends, so the aggregate is the gang total).
    fn send_phase(&mut self, q: usize, buf: Vec<f64>) {
        if let Some(r) = &self.rec {
            r.packet(self.rank as u32, q as u32, buf.len() as u64);
            r.add(keys::BYTES_STAGED, 8 * buf.len() as u64);
        }
        self.send(q, buf);
    }

    /// The next packet from `r` — the one place a rank can suspend.
    async fn recv_from(&mut self, r: usize) -> Vec<f64> {
        // The scatter/combine read of the wire buffer follows
        // immediately at every call site, so the `hb.read` that the
        // happens-before checker matches against the sender's write is
        // emitted here alongside the receive itself.
        if let Some(rr) = &self.rec {
            rr.hb(self.rank as u32, keys::HB_RECV, r as u32);
            rr.hb(self.rank as u32, keys::HB_READ, r as u32);
        }
        self.boxes[r * self.nparts + self.rank].take().await
    }

    /// Put a spent buffer drained from peer `r` on the free list.
    fn give_back(&mut self, r: usize, buf: Vec<f64>) {
        if let Some(rr) = &self.rec {
            rr.hb(self.rank as u32, keys::HB_STAGE_RELEASE, r as u32);
        }
        self.free[r].push(buf);
    }

    /// Pre-seed two staging buffers per peer, sized to the largest
    /// packet this rank ever sends that peer: `acquire` then never
    /// allocates, and a phase can stage while its previous buffer is
    /// still with the receiver.
    fn seed_double_buffers(&mut self, plan: &CommPlan) {
        let me = self.rank;
        for q in (0..self.nparts).filter(|&q| q != me) {
            let cap = plan
                .phases
                .iter()
                .map(|ph| {
                    let rp = &ph.ranks[me];
                    rp.send1_len[q].max(rp.send2_len[q])
                })
                .max()
                .unwrap_or(0)
                .max(1);
            for _ in 0..2 {
                self.give_back(q, Vec::with_capacity(cap));
            }
        }
    }
}

/// One mailbox per ordered pair, shared by every rank's endpoints.
fn wire(nparts: usize, rec: &RecorderRef) -> Vec<Net> {
    let boxes: Arc<[_]> = (0..nparts * nparts).map(|_| Mailbox::default()).collect();
    (0..nparts)
        .map(|rank| Net {
            rank,
            nparts,
            boxes: Arc::clone(&boxes),
            free: vec![Vec::new(); nparts],
            rec: rec.clone(),
        })
        .collect()
}

/// One rank's process: its machine, its endpoints, the shared plan and
/// the split-phase bookkeeping.
struct RankProc {
    kernel: Arc<Kernel>,
    plan: Arc<CommPlan>,
    /// Does this rank honour the tape's early posts and split marks?
    early: bool,
    /// My interface/interior split of each phase's producer loop.
    splits: Vec<RankSplit>,
    m: Machine,
    net: Net,
    nparts: usize,
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
    /// peer, empty between phases) and the reduction accumulators.
    bufs1: Vec<Option<Vec<f64>>>,
    bufs2: Vec<Vec<f64>>,
    accs: Vec<f64>,
    /// My children in the binomial tree the exit agreement runs on.
    tree_children: Vec<usize>,
}

impl RankProc {
    /// Post half: pack and ship one round-1 packet per peer. Safe to
    /// run as soon as every gathered value is final.
    fn post_phase(&mut self, idx: usize) {
        let plan = Arc::clone(&self.plan);
        let rp = &plan.phases[idx].ranks[self.net.rank];
        for q in 0..self.nparts {
            if rp.send1_len[q] == 0 {
                continue;
            }
            let mut buf = self.net.acquire(q);
            buf.reserve(rp.send1_len[q]);
            for item in &rp.send1[q] {
                match item {
                    PackItem::Gather { var, idx } => {
                        let arr = &self.m.arrays[*var];
                        buf.extend(idx.iter().map(|&i| arr[i as usize]));
                    }
                }
            }
            debug_assert_eq!(buf.len(), rp.send1_len[q]);
            self.net.send_phase(q, buf);
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

    /// Complete half: (post now unless already posted,) receive round
    /// 1, scatter updates, assemble, reduce up/down the tree, exchange
    /// round-2 totals, recycle.
    async fn complete_phase(&mut self, idx: usize) {
        let plan = Arc::clone(&self.plan);
        let ph: &PhasePlan = &plan.phases[idx];
        let rp = &ph.ranks[self.net.rank];
        // Plan-derived accounting is identical on every rank; rank 0
        // alone reports counters. Packets and staged bytes are
        // per-rank own-sends; the clock runs on every rank so each
        // rank's in-phase time lands on its timeline lane.
        let report = self.net.rank == 0;
        let t0 = obs::start(&self.net.rec);
        if !self.posted[idx] {
            self.post_phase(idx);
        }
        let mut bufs1 = std::mem::take(&mut self.bufs1);
        for r in (0..self.nparts).filter(|&r| rp.has_recv1[r]) {
            bufs1[r] = Some(self.net.recv_from(r).await);
        }

        // Updates: scatter straight out of the wire buffers.
        for (r, buf) in bufs1.iter().enumerate() {
            let Some(buf) = buf else { continue };
            for ru in &rp.recv1[r] {
                let arr = &mut self.m.arrays[ru.var];
                for (k, &dst) in ru.dst.iter().enumerate() {
                    arr[dst as usize] = buf[ru.off as usize + k];
                }
            }
        }

        // Assemblies: combine owned groups in the fixed order, write
        // back, stage totals for round 2.
        let mut bufs2 = std::mem::take(&mut self.bufs2);
        for q in (0..self.nparts).filter(|&q| rp.send2_len[q] > 0) {
            bufs2[q] = self.net.acquire(q);
            bufs2[q].reserve(rp.send2_len[q]);
        }
        for ap in &rp.assembles {
            for g in &ap.own_groups {
                let mut terms = g.terms.iter();
                let mut total = match terms.next().expect("non-empty group") {
                    Term::Own(l) => self.m.arrays[ap.var][*l as usize],
                    Term::Peer { .. } => unreachable!("owner term first"),
                };
                for t in terms {
                    total += match t {
                        Term::Own(l) => self.m.arrays[ap.var][*l as usize],
                        Term::Peer { peer, off } => {
                            bufs1[*peer as usize].as_ref().expect("peer packet")[*off as usize]
                        }
                    };
                }
                self.m.arrays[ap.var][g.write as usize] = total;
                for &q in &g.send_to {
                    bufs2[q as usize].push(total);
                }
            }
        }

        // Reductions: combine partials up the shared binomial tree and
        // broadcast the totals back down.  One packet per tree edge per
        // direction, carrying every reduce op's value in phase order —
        // the combine order is exactly `comm::tree_fold`, so results
        // stay bitwise-identical to the per-op reference.
        if !rp.reduces.is_empty() {
            let mut accs = std::mem::take(&mut self.accs);
            accs.clear();
            accs.extend(rp.reduces.iter().map(|red| self.m.scalars[red.var]));
            for &c in &rp.red_children {
                let buf = self.net.recv_from(c as usize).await;
                for (acc, (red, &sub)) in accs.iter_mut().zip(rp.reduces.iter().zip(buf.iter())) {
                    *acc = red.op.combine(*acc, sub);
                }
                self.net.give_back(c as usize, buf);
            }
            // The totals replace the partials in `accs`.
            if let Some(parent) = rp.red_parent {
                let p = parent as usize;
                let mut buf = self.net.acquire(p);
                buf.extend_from_slice(&accs);
                self.net.send_phase(p, buf);
                let buf = self.net.recv_from(p).await;
                accs.clear();
                accs.extend_from_slice(&buf);
                self.net.give_back(p, buf);
            }
            for &c in &rp.red_children {
                let mut buf = self.net.acquire(c as usize);
                buf.extend_from_slice(&accs);
                self.net.send_phase(c as usize, buf);
            }
            for (red, &t) in rp.reduces.iter().zip(&accs) {
                self.m.scalars[red.var] = t;
            }
            self.accs = accs;
        }

        // Round 2: totals owner → participants.
        for q in (0..self.nparts).filter(|&q| rp.send2_len[q] > 0) {
            let buf = std::mem::take(&mut bufs2[q]);
            debug_assert_eq!(buf.len(), rp.send2_len[q]);
            self.net.send_phase(q, buf);
        }
        self.bufs2 = bufs2;
        for r in 0..self.nparts {
            if rp.recv2[r].is_empty() {
                continue;
            }
            let buf = self.net.recv_from(r).await;
            for (k, &(var, slot)) in rp.recv2[r].iter().enumerate() {
                self.m.arrays[var][slot as usize] = buf[k];
            }
            self.net.give_back(r, buf);
        }

        // Recycle the round-1 staging buffers.
        for (r, buf) in bufs1.iter_mut().enumerate() {
            if let Some(buf) = buf.take() {
                self.net.give_back(r, buf);
            }
        }
        self.bufs1 = bufs1;

        let early = self.post_cu[idx]
            .take()
            .map(|cu0| self.m.compute_units - cu0);
        self.hidden_log.push(early.unwrap_or(0.0));
        self.posted[idx] = false;

        self.stats.phases.push(ph.stat);
        self.stats.updates += ph.updates;
        self.stats.assembles += ph.assembles;
        self.stats.reduces += ph.reduces;
        if report {
            if let Some(r) = &self.net.rec {
                r.add(keys::COMM_MESSAGES, ph.stat.messages as u64);
                r.add(keys::COMM_VALUES, ph.stat.values as u64);
                r.add(keys::UPDATES, ph.updates as u64);
                r.add(keys::ASSEMBLES, ph.assembles as u64);
                r.add(keys::REDUCES, ph.reduces as u64);
                if let Some(hidden) = early {
                    r.add(keys::OVERLAP_HIDDEN, hidden.round() as u64);
                }
                for red in &rp.reduces {
                    r.add(crate::comm::reduce_key(red.op), 1);
                }
            }
        }
        obs::finish_ranked(&self.net.rec, keys::PHASE_SPAN, self.net.rank as u32, t0);
    }

    /// Receive and discard the round-1 packets of every posted but
    /// never-completed phase, when a time loop is left (a post before an
    /// exit test the loop leaves by). Every rank holds the same posted
    /// set — the tape is static and control flow is SPMD — so the drain
    /// is symmetric and leaves all channels empty.
    async fn drain_posted(&mut self) {
        let plan = Arc::clone(&self.plan);
        for idx in 0..plan.phases.len() {
            if !self.posted[idx] {
                continue;
            }
            let rp = &plan.phases[idx].ranks[self.net.rank];
            for r in 0..self.nparts {
                if rp.has_recv1[r] {
                    let buf = self.net.recv_from(r).await;
                    self.net.give_back(r, buf);
                }
            }
            self.posted[idx] = false;
            self.post_cu[idx] = None;
        }
    }

    /// Exit-test agreement on the reductions' binomial tree: `[min,
    /// max]` of the decisions goes up, `[rank 0's decision, 1 if the
    /// ranks disagree]` comes down — 2(P−1) messages, not an
    /// allgather's P(P−1). Recorded under `exit.*` counters (per-rank
    /// own-sends), kept out of the per-pair matrix so the matrix holds
    /// only `C$SYNCHRONIZE` phase traffic. Runs only at an [`Op::Exit`]
    /// marked `agree`; every other test decides alike on all ranks.
    async fn agree_on_exit(&mut self, mine: bool) -> [f64; 2] {
        let children = std::mem::take(&mut self.tree_children);
        let parent = reduce_tree_parent(self.net.rank);
        if let Some(r) = &self.net.rec {
            let sends = (children.len() + usize::from(parent.is_some())) as u64;
            r.add(keys::EXIT_MESSAGES, sends);
            r.add(keys::EXIT_VALUES, 2 * sends);
        }
        let mine = f64::from(u8::from(mine));
        let mut span = [mine, mine];
        for &c in &children {
            let buf = self.net.recv_from(c).await;
            span = [span[0].min(buf[0]), span[1].max(buf[1])];
            self.net.give_back(c, buf);
        }
        let mut verdict = [mine, f64::from(u8::from(span[0] != span[1]))];
        if let Some(p) = parent {
            let mut buf = self.net.acquire(p);
            buf.extend_from_slice(&span);
            self.net.send(p, buf);
            let buf = self.net.recv_from(p).await;
            verdict = [buf[0], buf[1]];
            self.net.give_back(p, buf);
        }
        for &c in &children {
            let mut buf = self.net.acquire(c);
            buf.extend_from_slice(&verdict);
            self.net.send(c, buf);
        }
        self.tree_children = children;
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

    /// The rank's whole run: step through the tape.
    async fn run(&mut self, tape: &[Op]) {
        let mut cur = Cursor::new(tape);
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
                    // other, rank 0's rules, as in the reference.
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
    let tape: Arc<[Op]> = plan.ops()?.into();
    let nparts = d.nparts;
    let nphases = plan.phases.len();

    let mut jobs = Vec::with_capacity(nparts);
    for (m, mut net) in machines.into_iter().zip(wire(nparts, rec)) {
        let splits = if early {
            net.seed_double_buffers(plan);
            rank_splits(plan, &tape, &m, net.rank)
        } else {
            Vec::new()
        };
        let tree_children = reduce_tree_children(net.rank, nparts);
        let mut proc = RankProc {
            kernel: Arc::clone(&kernel),
            plan: Arc::clone(plan),
            early,
            splits,
            m,
            net,
            nparts,
            stats: CommStats::default(),
            iterations: 0,
            posted: vec![false; nphases],
            post_cu: vec![None; nphases],
            hidden_log: Vec::new(),
            early_posts: 0,
            bufs1: vec![None; nparts],
            bufs2: vec![Vec::new(); nparts],
            accs: Vec::new(),
            tree_children,
        };
        let tape = Arc::clone(&tape);
        jobs.push(async move {
            let t_job = obs::start(&proc.net.rec);
            proc.run(&tape).await;
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
        OverlapReport::for_tape(&tape)
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
        // blocking receive, FIFO — two runs interleave the ranks'
        // operations identically, event for event.
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
        // Same number of phases; never more messages per phase than
        // there are ordered peer pairs × 2 rounds plus the 2(P−1)
        // binomial-tree edges a reducing phase adds.  The coalesced
        // wire can ship *fewer* values than the per-op reference (one
        // tree packet carries every reduce op in the phase) but never
        // more messages.
        assert_eq!(rr.stats.nphases(), ba.stats.nphases());
        let tree_edges = 2 * (4 - 1);
        for (ph, rh) in ba.stats.phases.iter().zip(&rr.stats.phases) {
            assert!(
                ph.messages <= 2 * 4 * 3 + tree_edges,
                "one packet per pair per round plus tree edges"
            );
            assert!(
                ph.messages <= rh.messages,
                "coalescing must never exceed the per-op engine on messages"
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
