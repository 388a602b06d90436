//! The schedule tape: a placed program lowered once into the flat op
//! list that every engine steps through and the model checker checks.
//!
//! [`lower`] flattens the placed program — entity loops over their
//! iteration domains, `C$SYNCHRONIZE` phases at fixed points — into the
//! shape of Luporini et al.'s *loop chain*: parallel loops and the
//! exchanges between them, each exchange split into its [`Op::Post`]
//! and [`Op::Complete`] halves (Knepley et al.'s star-forest
//! begin/end). A time loop becomes an [`Op::Head`] / [`Op::Tail`] pair
//! with jump targets, so an engine is one loop over a [`Cursor`].
//!
//! Engines differ only in which ops they honour: round-robin and
//! batched post a phase when they complete it; overlapped also runs
//! the early posts, which lowering places by walking back from each
//! completion over statements that write no array the phase gathers.
//! The walk stops at a time loop, an exit test, the block's start or
//! just after another phase's completion (a **hoisted post**), or at a
//! writer: a permutable partitioned loop becomes the phase's
//! **producer split** ([`crate::overlap`]), any other writer (an
//! indirect scatter, whose accumulation order is pinned) gets the post
//! right after it. So a post never crosses another phase's completion
//! or a time loop and no packed byte changes; one an exit jumps over is
//! drained when its loop is left.

use syncplace_codegen::{PhaseAt, SpmdProgram};
use syncplace_ir::{EntityKind, IdVec, Program, Stmt, StmtId};
use syncplace_placement::IterationDomain;

/// What every engine answers for a program with a loop it cannot run:
/// a `seq` entity loop (replicated arrays would need global extents),
/// or a partitioned loop without an iteration domain.
const UNSUPPORTED: &str = "sequential entity loops unsupported";

/// One step of a lowered program.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A partitioned entity loop over each rank's `domain`. `split`
    /// marks it as a phase's producer; only the overlapped engine
    /// splits it.
    Loop {
        /// The loop statement.
        id: StmtId,
        /// The entity kind iterated over.
        entity: EntityKind,
        /// Kernel or kernel + overlap entities.
        domain: IterationDomain,
        /// The phase this loop feeds early, if it is a producer split.
        split: Option<Split>,
    },
    /// A replicated scalar assignment.
    Assign(StmtId),
    /// Post a phase's round-1 packets early (overlapped only).
    Post(usize),
    /// Complete a phase, posting it first unless it is on the wire.
    Complete(usize),
    /// An exit test. `agree`: ranks may decide differently, so the
    /// pooled engines agree on rank 0's decision over the binomial
    /// tree. Taken, the test continues at `to`: the [`Op::Tail`] of its
    /// loop (which then leaves), or the end of the program body.
    Exit {
        /// The exit test statement.
        id: StmtId,
        /// Does the decision need the agreement tree?
        agree: bool,
        /// Where a taken exit continues.
        to: usize,
    },
    /// A time-loop iteration begins; the loop runs at most `max` (≥ 1).
    Head {
        /// The time-loop statement.
        id: StmtId,
        /// The iteration cap.
        max: usize,
    },
    /// The end of a time-loop body: back to after `head` while
    /// iterations remain, else the loop is left.
    Tail {
        /// Index of the loop's [`Op::Head`].
        head: usize,
    },
}

/// A producer split: the loop computes the arrays `written` that
/// `phase` gathers, so its interface iterations run before the post.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// The phase the loop feeds.
    pub phase: usize,
    /// The gathered arrays the loop writes.
    pub written: IdVec<()>,
}

/// Lower a placed program. Phases are numbered in
/// [`SpmdProgram::phases`] order; `agree` holds the exit tests that need
/// the agreement tree and `gathered[k]` the arrays phase `k` ships in
/// round 1 (missing or empty: the phase is never posted early).
pub fn lower(
    prog: &Program,
    spmd: &SpmdProgram,
    agree: &IdVec<()>,
    gathered: &[IdVec<()>],
) -> Result<Vec<Op>, String> {
    let mut lw = Lowering {
        spmd,
        agree,
        gathered,
        before: IdVec::default(),
        ops: Vec::new(),
    };
    let mut end = None;
    for (k, (at, _)) in spmd.phases().into_iter().enumerate() {
        match at {
            PhaseAt::Before(id) => {
                lw.before.insert(id, k);
            }
            PhaseAt::AtEnd => end = Some(k),
        }
    }
    let exits = lw.block(&prog.body, end)?;
    lw.land(exits);
    lw.ops.extend(end.map(Op::Complete));
    Ok(lw.ops)
}

struct Lowering<'a> {
    spmd: &'a SpmdProgram,
    agree: &'a IdVec<()>,
    gathered: &'a [IdVec<()>],
    before: IdVec<usize>,
    ops: Vec<Op>,
}

/// Where a phase's early post goes in its block.
enum Site {
    /// Right before the statement at this index (after its own
    /// completion, if it has one).
    Post(usize),
    /// In the producer loop at this index.
    Split(usize, IdVec<()>),
}

impl Lowering<'_> {
    /// Lower one block; `end` is the phase completing after its last
    /// statement. Returns the block's own exit tests for the caller to
    /// aim ([`Lowering::land`]).
    fn block(&mut self, stmts: &[Stmt], end: Option<usize>) -> Result<Vec<usize>, String> {
        let mut posts = vec![Vec::new(); stmts.len()];
        let mut splits = vec![None; stmts.len()];
        let at = stmts.iter().enumerate();
        let at = at.filter_map(|(i, s)| Some((i, *self.before.get(s.id())?)));
        for (i, k) in at.chain(end.map(|k| (stmts.len(), k))) {
            let Some(gathered) = self.gathered.get(k).filter(|g| !g.is_empty()) else {
                continue; // nothing on the round-1 wire
            };
            match site(stmts, i, gathered, &self.before) {
                Some(Site::Post(j)) => posts[j].push(k),
                Some(Site::Split(j, written)) => splits[j] = Some(Split { phase: k, written }),
                None => {}
            }
        }
        let mut exits = Vec::new();
        for ((s, posts), split) in stmts.iter().zip(posts).zip(splits) {
            self.ops.extend(self.before.get(s.id()).map(|&k| Op::Complete(k)));
            self.ops.extend(posts.into_iter().map(Op::Post));
            match s {
                Stmt::Assign(a) => self.ops.push(Op::Assign(a.id)),
                Stmt::Loop(l) => {
                    let domain = self.spmd.domains.get(l.id).filter(|_| l.partitioned);
                    let op = Op::Loop {
                        id: l.id,
                        entity: l.entity,
                        domain: *domain.ok_or(UNSUPPORTED)?,
                        split,
                    };
                    self.ops.push(op);
                }
                // Never entered: its body can neither run nor refuse.
                Stmt::TimeLoop(t) if t.max_iters == 0 => {}
                Stmt::TimeLoop(t) => {
                    let head = self.ops.len();
                    self.ops.push(Op::Head {
                        id: t.id,
                        max: t.max_iters,
                    });
                    let inner = self.block(&t.body, None)?;
                    self.land(inner);
                    self.ops.push(Op::Tail { head });
                }
                Stmt::ExitIf(e) => {
                    exits.push(self.ops.len());
                    let agree = self.agree.contains(e.id);
                    self.ops.push(Op::Exit { id: e.id, agree, to: 0 });
                }
            }
        }
        Ok(exits)
    }

    /// Aim the exit tests at `exits` at the next op to be pushed.
    fn land(&mut self, exits: Vec<usize>) {
        let next = self.ops.len();
        for i in exits {
            if let Op::Exit { to, .. } = &mut self.ops[i] {
                *to = next;
            }
        }
    }
}

/// The early-post site of the phase completing before `stmts[i]` (at
/// the block's end when `i == stmts.len()`), walking back over
/// statements that write none of `gathered`; `None` when the post
/// cannot move.
fn site(stmts: &[Stmt], i: usize, gathered: &IdVec<()>, before: &IdVec<usize>) -> Option<Site> {
    let mut j = i;
    while j > 0 {
        let s = &stmts[j - 1];
        let body = match s {
            // A post may follow the completion of the phase placed here
            // (even before an exit test), but never enters a time loop.
            Stmt::TimeLoop(_) => break,
            _ if before.contains(s.id()) => return Some(Site::Post(j - 1)),
            Stmt::ExitIf(_) => break,
            Stmt::Assign(a) => std::slice::from_ref(a),
            Stmt::Loop(l) => &l.body,
        };
        if body.iter().any(|a| gathered.contains(a.lhs.var())) {
            return match s {
                Stmt::Loop(l) if l.partitioned && crate::kernel::permutable(&l.body) => {
                    let written = body.iter().map(|a| a.lhs.var());
                    let written = written.filter(|&v| gathered.contains(v));
                    Some(Site::Split(j - 1, written.map(|v| (v, ())).collect()))
                }
                _ => (j < i).then_some(Site::Post(j)),
            };
        }
        j -= 1;
    }
    (j < i).then_some(Site::Post(j))
}

/// A rank's place on a tape: the next op, and the iterations each time
/// loop it is in has left.
pub struct Cursor<'t> {
    tape: &'t [Op],
    pc: usize,
    left: Vec<usize>,
    sweeps: Option<usize>,
    /// Time-loop iterations begun so far.
    pub iterations: usize,
}

impl<'t> Cursor<'t> {
    /// The start of `tape`, every loop capped by its `max`.
    pub fn new(tape: &'t [Op]) -> Cursor<'t> {
        Cursor {
            tape,
            pc: 0,
            left: vec![0; tape.len()],
            sweeps: None,
            iterations: 0,
        }
    }

    /// The start of `tape` with every time loop running exactly
    /// `sweeps` (at least one) iterations — the model checker's unroll.
    pub fn unrolled(tape: &'t [Op], sweeps: usize) -> Cursor<'t> {
        let sweeps = Some(sweeps.max(1));
        Cursor { sweeps, ..Cursor::new(tape) }
    }

    /// Take the exit test just returned: continue at its target.
    pub fn exit(&mut self, to: usize) {
        if let Some(Op::Tail { head }) = self.tape.get(to) {
            self.left[*head] = 0;
        }
        self.pc = to;
    }
}

/// The ops to run, loop control done: a [`Op::Head`] returned opens an
/// iteration (the first, or the next after a `Tail`), a [`Op::Tail`]
/// returned means the loop is left.
impl<'t> Iterator for Cursor<'t> {
    type Item = &'t Op;

    fn next(&mut self) -> Option<&'t Op> {
        let op = self.tape.get(self.pc)?;
        match *op {
            Op::Head { max, .. } => {
                self.left[self.pc] = self.sweeps.unwrap_or(max) - 1;
                self.iterations += 1;
            }
            Op::Tail { head } if self.left[head] > 0 => {
                self.left[head] -= 1;
                self.iterations += 1;
                self.pc = head + 1;
                return Some(&self.tape[head]);
            }
            _ => {}
        }
        self.pc += 1;
        Some(op)
    }
}

/// The work a run of `tape` may do: over every rank and `Loop` op, the
/// rank's iteration count times the caps of the time loops around it
/// (saturating) — what admission bounds a run by. `ranks` holds each
/// rank's local and kernel entity counts ([`submesh_counts`]).
///
/// [`submesh_counts`]: crate::spmd::submesh_counts
pub fn work(tape: &[Op], ranks: &[([usize; 4], [usize; 4])]) -> u64 {
    let (mut work, mut caps) = (0u64, vec![1u64]);
    for op in tape {
        let cap = caps[caps.len() - 1];
        match *op {
            Op::Head { max, .. } => caps.push(cap.saturating_mul(max as u64)),
            Op::Tail { .. } => drop(caps.pop()),
            Op::Loop { entity, domain, .. } => {
                let k = crate::bindings::kind_index(entity);
                let count = |(all, kernel): &([usize; 4], [usize; 4])| match domain {
                    IterationDomain::Overlap => all[k] as u64,
                    IterationDomain::Kernel => kernel[k] as u64,
                };
                let n: u64 = ranks.iter().map(count).sum();
                work = work.saturating_add(n.saturating_mul(cap));
            }
            _ => {}
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CommPlan;
    use crate::pooled::tests::setup;
    use syncplace_ir::EntityKind::Node;
    use syncplace_overlap::Pattern;

    #[test]
    fn fig9_lowers_to_one_loop_chain_with_a_hoisted_post() {
        // TESTIV's Fig. 9 placement: the update + reduction phase before
        // the exit test, its post hoisted to just after the scatter loop.
        let (p, spmd, d, _) = setup(Pattern::FIG1, 4, 0);
        let plan = CommPlan::build(&p, &spmd, &d);
        let tape = plan.ops().unwrap();
        let shape: Vec<String> = (tape.iter())
            .map(|op| match op {
                Op::Loop { .. } => "L".into(),
                Op::Assign(_) => "A".into(),
                Op::Post(k) => format!("P{k}"),
                Op::Complete(k) => format!("C{k}"),
                Op::Exit { to, .. } => format!("X>{to}"),
                Op::Head { max, .. } => format!("H{max}"),
                Op::Tail { head } => format!("T>{head}"),
            })
            .collect();
        assert_eq!(shape.join(" "), "L H100 L L P0 A L C0 X>10 L T>1 L");
    }

    #[test]
    fn cursor_runs_each_loop_to_its_cap_and_leaves_on_exit() {
        let head = |max| Op::Head { id: 0, max };
        let tape = [
            head(3),
            Op::Assign(1),
            Op::Exit { id: 2, agree: false, to: 4 },
            Op::Assign(3),
            Op::Tail { head: 0 },
            head(2),
            Op::Assign(6),
            Op::Tail { head: 5 },
        ];
        // Exit taken at the first loop's second test: 2 + 2 iterations.
        let mut cur = Cursor::new(&tape);
        let (mut ran, mut tests) = (Vec::new(), 0);
        while let Some(op) = cur.next() {
            match *op {
                Op::Assign(id) => ran.push(id),
                Op::Exit { to, .. } => {
                    tests += 1;
                    if tests == 2 {
                        cur.exit(to);
                    }
                }
                _ => {}
            }
        }
        assert_eq!((ran, cur.iterations), (vec![1, 3, 1, 6, 6], 4));
        // Unrolled, no exit taken: every loop runs exactly `sweeps`.
        let heads = Cursor::unrolled(&tape, 2).filter(|op| matches!(op, Op::Head { .. }));
        assert_eq!(heads.count(), 4);
    }

    #[test]
    fn work_multiplies_each_loop_by_the_caps_around_it() {
        let lp = |domain| Op::Loop { id: 0, entity: Node, domain, split: None };
        let tape = [
            lp(IterationDomain::Overlap),
            Op::Head { id: 1, max: 10 },
            lp(IterationDomain::Kernel),
            Op::Tail { head: 1 },
        ];
        // Two ranks: 5 + 7 local nodes, 4 + 6 owned.
        let ranks = [([5, 0, 0, 0], [4, 0, 0, 0]), ([7, 0, 0, 0], [6, 0, 0, 0])];
        assert_eq!(work(&tape, &ranks), 12 + 10 * 10);
        let spin = [Op::Head { id: 0, max: usize::MAX }, lp(IterationDomain::Overlap)];
        assert_eq!(work(&spin, &ranks), u64::MAX);
    }

    #[test]
    fn a_sequential_loop_is_refused_and_an_empty_time_loop_vanishes() {
        let (p, spmd, ..) = setup(Pattern::FIG1, 2, 0);
        let none = IdVec::default();
        let src = "program t\n input A : node\n output B : node\n \
                   forall i in node seq { B(i) = A(i) }\nend";
        let seq = syncplace_ir::parser::parse(src).unwrap();
        assert_eq!(lower(&seq, &spmd, &none, &[]), Err(UNSUPPORTED.to_string()));
        let mut empty = p.clone();
        for s in &mut empty.body {
            if let Stmt::TimeLoop(t) = s {
                t.max_iters = 0;
            }
        }
        let ops = lower(&empty, &spmd, &none, &[]).unwrap();
        assert!(!ops.iter().any(|op| matches!(op, Op::Head { .. } | Op::Exit { .. })));
    }

    /// A loop the tape may split (`kernel::permutable`) must be one the
    /// kernel's dependence pass, reading the same variable classes,
    /// schedules with no tied block.
    #[test]
    fn permutable_loops_schedule_no_tied_block() {
        use syncplace_ir::{programs, Access, AssignStmt, Expr, LoopStmt, VarKind};
        let mut progs = vec![
            programs::testiv(),
            programs::fig5_sketch(),
            programs::edge_smooth(),
            programs::tet_heat(3),
        ];
        progs.extend(programs::taxonomy().into_iter().map(|c| c.program));
        // Random loops over the four access kinds, with a tri -> node and
        // a node -> node map.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut below = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let (node, tri) = (EntityKind::Node, EntityKind::Tri);
        for _ in 0..400 {
            let mut p = Program::new("rand");
            let s = [
                p.declare("s", VarKind::Scalar, true, true),
                p.declare("t", VarKind::Scalar, true, true),
            ];
            let a = [0, 1]
                .map(|k| p.declare(&format!("A{k}"), VarKind::Array { base: node }, true, true));
            let w = [0, 1]
                .map(|k| p.declare(&format!("W{k}"), VarKind::Array { base: tri }, true, true));
            let m = p.declare(
                "M",
                VarKind::Map {
                    from: tri,
                    to: node,
                    arity: 3,
                },
                true,
                false,
            );
            let n = p.declare(
                "N",
                VarKind::Map {
                    from: node,
                    to: node,
                    arity: 2,
                },
                true,
                false,
            );
            let on_nodes = below(2) == 0;
            let (direct, map) = if on_nodes { (a, n) } else { (w, m) };
            let len = 1 + below(3);
            let mut access = || match below(4) {
                0 => Access::Scalar(s[below(2)]),
                1 => Access::Fixed(a[below(2)], below(5)),
                2 => Access::Direct(direct[below(2)]),
                _ => Access::Indirect {
                    array: a[below(2)],
                    map,
                    slot: below(2),
                },
            };
            let body = (0..len)
                .map(|_| {
                    let (lhs, x, y) = (access(), access(), access());
                    let rhs = Expr::Read(x) * Expr::Const(0.5) + Expr::Read(y);
                    AssignStmt { id: 0, lhs, rhs }
                })
                .collect();
            let entity = if on_nodes { node } else { tri };
            let index = "i".into();
            p.body = vec![Stmt::Loop(LoopStmt {
                id: 0,
                entity,
                partitioned: true,
                index,
                body,
            })];
            p.renumber();
            progs.push(p);
        }
        let (mut permutable, mut tied) = (0, 0);
        for p in &progs {
            let k = crate::Kernel::lower(p, |_| false).unwrap();
            let mut work: Vec<&Stmt> = p.body.iter().collect();
            while let Some(st) = work.pop() {
                match st {
                    Stmt::TimeLoop(t) => work.extend(&t.body),
                    Stmt::Loop(l) if crate::kernel::permutable(&l.body) => {
                        assert_eq!(k.tied_blocks(l.id), 0, "{}: {l:?}", p.name);
                        permutable += 1;
                    }
                    Stmt::Loop(l) => tied += usize::from(k.tied_blocks(l.id) > 0),
                    _ => {}
                }
            }
        }
        assert!(
            permutable > 20 && tied > 20,
            "{permutable} permutable, {tied} tied"
        );
    }
}
