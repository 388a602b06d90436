//! The compiled kernel: every entity loop, out-of-loop assignment and
//! `exit when` test lowered **once per plan** into a strip program (a
//! [`crate::CommPlan`] carries it; round-robin and the sequential
//! reference lower their own), and the one executor every engine
//! drives (DESIGN.md §5.4). Each step runs
//! over up to [`STRIP`] iterations' lanes before the next; a dependence
//! pass keeps every memory location's reads and writes in
//! iteration-major order, so results are bitwise a tree walk's. What
//! lowering cannot resolve is an `Err` naming the variable and
//! statement; the bounds checks and `MapTable::get`'s "absent on this
//! processor" check stay in the executor — the placement-bug detector.

use crate::exec::Machine;
use std::cell::RefCell;
use syncplace_ir::{Access, AssignStmt, Expr, Program, Stmt, StmtId, VarId};

/// Iterations per strip.
pub const STRIP: usize = 128;

/// The most lane buffers a thread keeps between calls.
const KEPT_BUFS: usize = 64;

/// The operator table: a flat enum, its per-lane `apply`, and the
/// strip-wide `lanes` and `fold` with the `match` outside the lane loop.
macro_rules! operators {
    ($($op:ident: |$x:tt, $y:tt| $e:expr,)*) => {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Opc { $($op),* }

        impl Opc {
            /// Given two NaNs x86 returns the first, and LLVM may commute
            /// `+` and `*`: a NaN `x` is passed as both operands.
            #[inline(always)]
            fn apply(self, x: f64, y: f64) -> f64 {
                let y = if matches!(self, Opc::Add | Opc::Mul) && x.is_nan() { x } else { y };
                match self { $(Opc::$op => { let ($x, $y) = (x, y); $e })* }
            }
        }

        fn lanes(opc: Opc, d: &mut [f64], a: &[f64], b: &[f64]) {
            match opc {
                $(Opc::$op => for ((d, &x), &y) in d.iter_mut().zip(a).zip(b) {
                    *d = Opc::$op.apply(x, y);
                })*
            }
        }

        /// `acc = opc(acc, y)` lane after lane.
        fn fold(opc: Opc, acc: f64, b: &[f64]) -> f64 {
            match opc { $(Opc::$op => b.iter().fold(acc, |x, &y| Opc::$op.apply(x, y)),)* }
        }
    };
}

// `Mov` and unary operators ignore `y`.
operators! {
    Mov: |x, _| x,
    Neg: |x, _| -x,
    Sqrt: |x, _| x.sqrt(),
    Abs: |x, _| x.abs(),
    Add: |x, y| x + y,
    Sub: |x, y| x - y,
    Mul: |x, y| x * y,
    Div: |x, y| x / y,
    Max: |x, y| x.max(y),
    Min: |x, y| x.min(y),
    Lt: |x, y| f64::from(x < y),
    Le: |x, y| f64::from(x <= y),
    Gt: |x, y| f64::from(x > y),
    Ge: |x, y| f64::from(x >= y),
}

/// A memory location: variable and index. `Elem(g)` is `v[ix[g + l]]`
/// in lane `l`: index lane `g = 0` holds the loop index, `g = STRIP · k`
/// gather `k`.
type Loc = (VarId, Ix);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ix {
    Scalar,
    Fixed(usize),
    Elem(usize),
}

/// An operand: lane `l` of the buffer at this offset (a constant, a
/// temporary, a privatised scalar's write), or a memory location.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arg {
    Lane(usize),
    At(Loc),
}

/// `dst = opc(a, b)`.
type Node = (Opc, Arg, Arg, Arg);

/// One step over a strip's `n` lanes; `usize` operands are buffers.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `buf = v[ix[g + l]]`, or one value in every lane.
    Load(usize, Loc),
    /// `v[i] = buf`, `i` the loop index.
    Store(VarId, usize),
    /// `dst = opc(a, b)`.
    Op(Opc, usize, usize, usize),
    /// `s = opc(s, buf)` lane after lane.
    Fold(Opc, VarId, usize),
    /// The tied nodes at lane 0, then at lane 1, …
    Tied,
}

/// One lowered statement: a loop body, an out-of-loop assignment or an
/// exit test. Gather `k`, `(map, slot, first using stmt)`, fills index
/// lane `STRIP · (k + 1)`, absent-checked once per lane; `weight` is
/// the abstract work per iteration, Σ (1 + operator count).
#[derive(Debug, Clone, Default)]
struct Code {
    gathers: Vec<(VarId, usize, StmtId)>,
    /// Constant buffers, filled once per call.
    consts: Vec<(usize, f64)>,
    steps: Vec<Step>,
    /// The tied nodes; no `a`: `dst = opc(dst, b)`.
    tied: Vec<(Opc, Option<Arg>, Arg, Arg)>,
    bufs: usize,
    /// Privatised scalars, copied back from the last lane of a buffer,
    /// and an exit test's flag buffer.
    keep: Vec<(VarId, usize)>,
    flag: Option<usize>,
    weight: f64,
    /// Empty, or — for a loop with kernel-guarded statements — the
    /// loop's unguarded statements only, run past the kernel count.
    tail: Vec<Code>,
}

/// A program's lowered statements, indexed by [`StmtId`]. Depends only
/// on the program and its kernel-guarded set — not on mesh or P — so
/// every rank of a run shares one.
#[derive(Debug, Clone)]
pub struct Kernel(Vec<Code>);

/// Per variable a body accesses, by id: written; whether its first
/// scalar access is a write; reached off the loop index (`Fixed` or
/// through a map).
type Class = (bool, Option<bool>, bool);

fn classify<'s>(stmts: impl Iterator<Item = &'s AssignStmt>) -> Vec<Class> {
    let mut var = Vec::new();
    for s in stmts {
        let reads = s.rhs.reads().into_iter().map(|a| (a, false));
        for (a, w) in reads.chain([(&s.lhs, true)]) {
            if a.var() >= var.len() {
                var.resize(a.var() + 1, (false, None, false));
            }
            let v: &mut Class = &mut var[a.var()];
            v.0 |= w;
            if let Access::Scalar(_) = a {
                v.1.get_or_insert(w);
            }
            v.2 |= matches!(a, Access::Fixed(..) | Access::Indirect { .. });
        }
    }
    var
}

/// May a loop's iterations run in any order, bitwise? Only if every
/// variable it writes is an array reached only through the loop index
/// — what the dependence pass leaves untied and unprivatised.
pub(crate) fn permutable(body: &[AssignStmt]) -> bool {
    classify(body.iter())
        .iter()
        .all(|&(w, scalar, off)| !w || (scalar.is_none() && !off))
}

/// Lowers statements into three-address nodes in tree-walk order, each
/// value in a buffer of its own, then schedules them into steps.
struct Lowerer<'p> {
    prog: &'p Program,
    in_loop: bool,
    var: Vec<Class>,
    /// Each privatised scalar's latest value.
    cur: Vec<usize>,
    nodes: Vec<Node>,
    code: Code,
}

impl<'p> Lowerer<'p> {
    /// Classify and lower `stmts`, a loop body or an assignment.
    fn new<'s>(
        prog: &'p Program,
        in_loop: bool,
        stmts: impl Iterator<Item = &'s AssignStmt> + Clone,
    ) -> Result<Self, String> {
        let var = classify(stmts.clone());
        let (cur, nodes, code) = (vec![0; var.len()], vec![], Code::default());
        let mut lw = Lowerer {
            prog,
            in_loop,
            var,
            cur,
            nodes,
            code,
        };
        for s in stmts {
            let dst = lw.access(&s.lhs, s.id)?;
            if let (&Access::Scalar(v), Arg::Lane(b)) = (&s.lhs, lw.expr(&s.rhs, Some(dst), s.id)?)
            {
                lw.cur[v] = b;
            }
            lw.code.weight += 1.0;
        }
        Ok(lw)
    }

    fn class(&self, v: VarId) -> Class {
        self.var.get(v).copied().unwrap_or_default()
    }

    fn access(&mut self, a: &Access, stmt: StmtId) -> Result<Arg, String> {
        let Some(d) = self.prog.decls.get(a.var()) else {
            return Err(format!("s{stmt}: variable id {} is not declared", a.var()));
        };
        if !self.in_loop && matches!(a, Access::Direct(_) | Access::Indirect { .. }) {
            let what = "is indexed by a loop variable outside any entity loop";
            return Err(format!("s{stmt}: {} {what}", d.name));
        }
        Ok(Arg::At(match *a {
            Access::Scalar(v) if self.class(v).1 == Some(true) => {
                return Ok(Arg::Lane(self.cur[v]))
            }
            Access::Scalar(v) => (v, Ix::Scalar),
            Access::Direct(v) => (v, Ix::Elem(0)),
            Access::Fixed(v, k) => (v, Ix::Fixed(k)),
            Access::Indirect { array, map, slot } => {
                let gathers = &mut self.code.gathers;
                let k = gathers.iter().position(|g| (g.0, g.1) == (map, slot));
                let k = k.unwrap_or(gathers.len());
                if k == gathers.len() {
                    gathers.push((map, slot, stmt));
                }
                (array, Ix::Elem(STRIP * (k + 1)))
            }
        }))
    }

    /// Emit `e` in post-order. A leaf feeds its consumer directly; an
    /// operator lands in memory `dst`, or in a new value. (The tables
    /// follow the IR enums' declaration order.)
    fn expr(&mut self, e: &Expr, dst: Option<Arg>, stmt: StmtId) -> Result<Arg, String> {
        use Opc::*;
        let (opc, a, b) = match e {
            Expr::Const(c) => {
                let b = self.buf();
                self.code.consts.push((b, *c));
                (Mov, Arg::Lane(b), None)
            }
            Expr::Read(acc) => (Mov, self.access(acc, stmt)?, None),
            Expr::Unary(op, x) => {
                let opc = [Neg, Sqrt, Abs][*op as usize];
                (opc, self.expr(x, None, stmt)?, None)
            }
            Expr::Binary(op, l, r) => {
                let a = self.expr(l, None, stmt)?;
                let opc = [Add, Sub, Mul, Div, Max, Min][*op as usize];
                (opc, a, Some(self.expr(r, None, stmt)?))
            }
        };
        if opc == Mov && dst.is_none() {
            return Ok(a);
        }
        self.code.weight += if opc == Mov { 0.0 } else { 1.0 };
        Ok(self.push(opc, a, b.unwrap_or(a), dst))
    }

    fn push(&mut self, opc: Opc, a: Arg, b: Arg, dst: Option<Arg>) -> Arg {
        let d = match dst {
            Some(Arg::At(l)) => Arg::At(l),
            _ => Arg::Lane(self.buf()),
        };
        self.nodes.push((opc, a, b, d));
        d
    }

    /// A fresh buffer.
    fn buf(&mut self) -> usize {
        self.code.bufs += 1;
        (self.code.bufs - 1) * STRIP
    }

    /// Memory the body writes, and of that what it ties.
    fn written(&self, s: Arg) -> bool {
        matches!(s, Arg::At((v, _)) if self.class(v).0)
    }

    fn ties(&self, s: Arg) -> bool {
        matches!(s, Arg::At((v, ix)) if self.written(s) && (ix == Ix::Scalar || self.class(v).2))
    }

    /// The dependence pass (DESIGN.md §5.4). Scalars whose first access
    /// is a write are privatised; a written array reached only through
    /// the loop index has one lane per element; any other written
    /// location is *tied*: the nodes from the first to the last that
    /// touch one run iteration-major, minus those touching no written
    /// memory and reading no block value, hoisted before the block.
    fn schedule(mut self) -> Code {
        let nodes = std::mem::take(&mut self.nodes);
        let tied = |n: &&Node| self.ties(n.1) || self.ties(n.2) || self.ties(n.3);
        let lo = nodes.iter().position(|n| tied(&n)).unwrap_or(nodes.len());
        let hi = nodes.iter().rposition(|n| tied(&n)).map_or(lo, |j| j + 1);
        let mut kept = vec![false; self.code.bufs];
        let (block, hoisted): (Vec<Node>, Vec<Node>) = nodes[lo..hi].iter().partition(|n| {
            let dep = |s: Arg| self.written(s) || matches!(s, Arg::Lane(b) if kept[b / STRIP]);
            let dep = dep(n.1) || dep(n.2) || dep(n.3);
            if let (Arg::Lane(b), true) = (n.3, dep) {
                kept[b / STRIP] = true;
            }
            dep
        });
        nodes[..lo].iter().chain(&hoisted).for_each(|&n| self.op(n));
        match block[..] {
            [] => {}
            // A lone `s = s op value` folds `s` in lane order.
            [(opc, a @ Arg::At((v, Ix::Scalar)), Arg::Lane(b), d)] if a == d => {
                self.code.steps.push(Step::Fold(opc, v, b))
            }
            _ => {
                let tied = block
                    .iter()
                    .map(|&(opc, a, b, d)| (opc, (a != d).then_some(a), b, d));
                self.code.tied = tied.collect();
                self.code.steps.push(Step::Tied);
            }
        }
        nodes[hi..].iter().for_each(|&n| self.op(n));
        let keep = (0..self.var.len()).filter(|&v| self.class(v).1 == Some(true));
        self.code.keep = keep.map(|v| (v, self.cur[v])).collect();
        self.code
    }

    /// One node over the whole strip: load, apply, store.
    fn op(&mut self, (opc, x, y, d): Node) {
        let a = self.lanes(x);
        let b = if y == x { a } else { self.lanes(y) };
        let r = match d {
            Arg::Lane(r) => r,
            Arg::At(_) if opc == Opc::Mov => a,
            Arg::At(_) => self.buf(),
        };
        if r != a {
            self.code.steps.push(Step::Op(opc, r, a, b));
        }
        if let Arg::At((v, _)) = d {
            self.code.steps.push(Step::Store(v, r));
        }
    }

    /// A buffer holding `s` over the strip.
    fn lanes(&mut self, s: Arg) -> usize {
        match s {
            Arg::Lane(b) => b,
            Arg::At(l) => {
                self.code.steps.push(Step::Load(self.code.bufs * STRIP, l));
                self.buf()
            }
        }
    }
}

impl Kernel {
    /// Lower every statement of `prog`; `guarded` is the placement's
    /// kernel-guarded set. A run checks its machines with
    /// [`Kernel::check_tables`] before executing.
    pub fn lower(prog: &Program, guarded: impl Fn(StmtId) -> bool) -> Result<Kernel, String> {
        let mut out = vec![None; prog.nstmts()];
        let mut work: Vec<&Stmt> = prog.body.iter().collect();
        while let Some(s) = work.pop() {
            let (id, code) = match s {
                Stmt::Loop(l) => {
                    let mut code = Lowerer::new(prog, true, l.body.iter())?.schedule();
                    if l.body.iter().any(|a| guarded(a.id)) {
                        let rest = l.body.iter().filter(|a| !guarded(a.id));
                        code.tail.push(Lowerer::new(prog, true, rest)?.schedule());
                    }
                    (l.id, code)
                }
                Stmt::Assign(a) => {
                    let one = std::iter::once(a);
                    (a.id, Lowerer::new(prog, false, one)?.schedule())
                }
                Stmt::ExitIf(e) => {
                    let mut lw = Lowerer::new(prog, false, std::iter::empty())?;
                    let (a, b) = (lw.expr(&e.lhs, None, e.id)?, lw.expr(&e.rhs, None, e.id)?);
                    let rel = [Opc::Lt, Opc::Le, Opc::Gt, Opc::Ge][e.rel as usize];
                    if let Arg::Lane(f) = lw.push(rel, a, b, None) {
                        lw.code.flag = Some(f);
                    }
                    lw.code.weight = 0.0; // exit tests were never counted as work
                    (e.id, lw.schedule())
                }
                Stmt::TimeLoop(t) => {
                    work.extend(&t.body);
                    (t.id, Code::default())
                }
            };
            if out[id].replace(code).is_some() {
                return Err(format!(
                    "s{id}: statement id used twice (renumber not called)"
                ));
            }
        }
        Ok(Kernel(out.into_iter().map(Option::unwrap_or_default).collect()))
    }

    /// Every machine must hold a table, with the slots used, for every
    /// map the kernel gathers through.
    pub fn check_tables(&self, prog: &Program, machines: &[Machine]) -> Result<(), String> {
        let bodies = self.0.iter().flat_map(|c| std::iter::once(c).chain(&c.tail));
        for &(map, slot, stmt) in bodies.flat_map(|c| &c.gathers) {
            let arity = |m: &Machine| m.maps.get(map).map_or(0, |t| t.arity);
            if machines.iter().any(|m| slot >= arity(m)) {
                let name = prog.decls.get(map).map_or("?", |d| &d.name);
                return Err(format!("s{stmt}: map {name} has no table on this machine"));
            }
        }
        Ok(())
    }

    /// The tied blocks statement `id` runs.
    #[cfg(test)]
    pub(crate) fn tied_blocks(&self, id: StmtId) -> usize {
        let code = std::iter::once(&self.0[id]).chain(&self.0[id].tail);
        let steps = code.flat_map(|c| &c.steps);
        steps.filter(|s| matches!(s, Step::Tied)).count()
    }
}

/// Lane buffers and index lanes.
struct Scratch {
    lanes: Vec<f64>,
    ix: Vec<usize>,
}

thread_local! {
    /// Reused by every call on a thread (a call ends on its thread).
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch { lanes: Vec::new(), ix: Vec::new() })
    };
}

impl Scratch {
    /// Lane `l` of an operand.
    #[inline(always)]
    fn at<'a>(&'a mut self, m: &'a mut Machine, a: Arg, l: usize) -> &'a mut f64 {
        match a {
            Arg::Lane(b) => &mut self.lanes[b + l],
            Arg::At((v, Ix::Scalar)) => &mut m.scalars[v],
            Arg::At((v, Ix::Fixed(k))) => &mut m.arrays[v][k],
            Arg::At((v, Ix::Elem(g))) => &mut m.arrays[v][self.ix[g + l]],
        }
    }
}

/// Run `code` over the `n` iterations in index lane 0: one non-generic
/// function whatever the iteration source.
#[inline(never)]
fn strip(m: &mut Machine, s: &mut Scratch, code: &Code, n: usize) {
    let (index, gathered) = s.ix.split_at_mut(STRIP);
    for (&(map, slot, _), lane) in code.gathers.iter().zip(gathered.chunks_exact_mut(STRIP)) {
        for (t, &i) in lane[..n].iter_mut().zip(&index[..n]) {
            *t = m.maps[map].get(i, slot);
        }
    }
    for &step in &code.steps {
        match step {
            Step::Load(d, (v, Ix::Elem(g))) => {
                let a = &m.arrays[v];
                for (x, &i) in s.lanes[d..d + n].iter_mut().zip(&s.ix[g..g + n]) {
                    *x = a[i];
                }
            }
            Step::Load(d, l) => {
                let x = *s.at(m, Arg::At(l), 0);
                s.lanes[d..d + n].fill(x);
            }
            Step::Store(v, b) => {
                let a = &mut m.arrays[v];
                for (&x, &i) in s.lanes[b..b + n].iter().zip(&s.ix[..n]) {
                    a[i] = x;
                }
            }
            Step::Op(opc, d, a, b) => {
                let (lo, hi) = s.lanes.split_at_mut(d);
                let (dst, hi) = hi.split_at_mut(STRIP);
                let src = |o: usize| {
                    if o < d {
                        &lo[o..]
                    } else {
                        &hi[o - d - STRIP..]
                    }
                };
                lanes(opc, &mut dst[..n], &src(a)[..n], &src(b)[..n]);
            }
            Step::Fold(opc, v, b) => m.scalars[v] = fold(opc, m.scalars[v], &s.lanes[b..b + n]),
            Step::Tied => {
                for l in 0..n {
                    for &(opc, a, b, d) in &code.tied {
                        let (x, y) = (a.map(|a| *s.at(m, a, l)), *s.at(m, b, l));
                        let t = match (a, d) {
                            // The scatter update, indexed directly: 0.85× `solve-compute`.
                            (None, Arg::At((v, Ix::Elem(g)))) => &mut m.arrays[v][s.ix[g + l]],
                            _ => s.at(m, d, l),
                        };
                        *t = opc.apply(x.unwrap_or(*t), y);
                    }
                }
            }
        }
    }
}

/// Run `code` at every iteration of `iters`, in order, a strip at a
/// time; true when it is an exit test that fired.
fn run(m: &mut Machine, code: &Code, mut iters: impl ExactSizeIterator<Item = usize>) -> bool {
    m.compute_units += code.weight * iters.len() as f64;
    let width = iters.len().min(STRIP);
    SCRATCH.with_borrow_mut(|s| {
        s.lanes.resize(s.lanes.len().max(code.bufs * STRIP), 0.0);
        s.ix.resize(s.ix.len().max((1 + code.gathers.len()) * STRIP), 0);
        for &(b, c) in &code.consts {
            s.lanes[b..b + width].fill(c);
        }
        let mut last = 0;
        loop {
            let lane = s.ix[..STRIP].iter_mut().zip(iters.by_ref());
            let n = lane.fold(0, |n, (slot, i)| {
                *slot = i;
                n + 1
            });
            if n == 0 {
                break;
            }
            strip(m, s, code, n);
            last = n;
        }
        let lane = |b: usize| s.lanes[b + last - 1];
        for &(v, b) in code.keep.iter().filter(|_| last > 0) {
            m.scalars[v] = lane(b);
        }
        let fired = last > 0 && code.flag.is_some_and(|b| lane(b) != 0.0);
        s.lanes.truncate(KEPT_BUFS * STRIP);
        s.lanes.shrink_to(KEPT_BUFS * STRIP);
        fired
    })
}

impl Machine {
    /// Execute lowered entity loop `id` over `0..domain_count`; its
    /// kernel-guarded statements only below `kernel_count` (reductions
    /// must count each owned entity exactly once).
    pub fn exec_loop(&mut self, k: &Kernel, id: StmtId, domain_count: usize, kernel_count: usize) {
        let (code, n, kernel) = (&k.0[id], domain_count, kernel_count.min(domain_count));
        let split = if code.tail.is_empty() { n } else { kernel };
        run(self, code, 0..split);
        if split < n {
            run(self, &code.tail[0], split..n);
        }
    }

    /// Execute lowered entity loop `id` at the listed iterations, in
    /// list order (split loops; they have no kernel-guarded statement).
    /// A list names each iteration at most once.
    pub fn exec_loop_at(&mut self, k: &Kernel, id: StmtId, iters: &[u32]) {
        debug_assert!(k.0[id].tail.is_empty(), "split loop s{id} is guarded");
        run(self, &k.0[id], iters.iter().map(|&i| i as usize));
    }

    /// Execute lowered out-of-loop statement `id`: an assignment, or
    /// an exit test — true when it fires.
    pub fn exec_stmt(&mut self, k: &Kernel, id: StmtId) -> bool {
        run(self, &k.0[id], 0..1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_ir::{EntityKind, LoopStmt, VarKind};

    /// A body of many short statements needs a buffer per value; its
    /// lane buffers are freed when the call ends, not kept by the thread.
    #[test]
    fn a_long_body_leaves_no_large_scratch_behind() -> Result<(), String> {
        let mut p = Program::new("long");
        let a = p.declare(
            "A",
            VarKind::Array {
                base: EntityKind::Node,
            },
            false,
            true,
        );
        let body = (0..4 * KEPT_BUFS).map(|k| AssignStmt {
            id: 0,
            lhs: Access::Direct(a),
            rhs: Expr::Const(k as f64),
        });
        p.body = vec![Stmt::Loop(LoopStmt {
            id: 0,
            entity: EntityKind::Node,
            partitioned: true,
            index: "i".into(),
            body: body.collect(),
        })];
        p.renumber();
        let mut m = Machine::new(&p, [3, 0, 0, 0], [3, 0, 0, 0]);
        let k = Kernel::lower(&p, |_| false)?;
        let id = p.body[0].id();
        m.exec_loop(&k, id, 3, 3);
        assert_eq!(m.arrays[a], vec![(4 * KEPT_BUFS - 1) as f64; 3]);
        let kept = SCRATCH.with_borrow(|s| s.lanes.capacity());
        assert!(kept <= KEPT_BUFS * STRIP, "{kept} lanes kept");
        Ok(())
    }
}
