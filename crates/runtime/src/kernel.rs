//! The compiled kernel: every entity loop, out-of-loop assignment and
//! `exit when` test lowered **once per run** into a flat register
//! program, and the one executor every engine drives (DESIGN.md §5.4).
//! Statement, iteration and operand order are those of a tree walk,
//! so results are bitwise its results. What lowering cannot resolve is
//! an `Err` naming the variable and statement; the slice bounds checks
//! and `MapTable::get`'s "absent on this processor" check stay in the
//! executor — they are the placement-bug detector.

use crate::exec::{Machine, MapTable};
use std::cell::Cell;
use syncplace_ir::{Access, AssignStmt, BinOp, Expr, Program, RelOp, Stmt, StmtId, UnOp, VarId};

/// `(mem, ix)` = `views[mem][ixf[ix]]`. Memory 0 is the scalar file, 1
/// the register file (flag, constants, temporaries), `2 + v` array `v`.
/// Slot 0 of the index file `ixf` is the loop index, a gather slot
/// holds `MAP(i, slot)`, any other a lowering-time constant — so no
/// access branches on its operand's kind.
type Operand = (usize, usize);
const SCALARS: usize = 0;
const REGS: usize = 1;
const ARRAYS: usize = 2;
/// Register 0: set by an exit test's `Test`, returned by [`run`].
const FLAG: Operand = (REGS, 1);

#[derive(Debug, Clone, Copy)]
enum Alu {
    Mov,
    Un(UnOp),
    Bin(BinOp),
    Test(RelOp),
}

/// `dst = alu(a, b)`; `Mov` and unary operators ignore `b` (= `a`).
type Op<O = Operand> = (Alu, O, O, O);

/// `(dst, map, slot, first using stmt)`: each distinct `MAP(i, slot)` is
/// loaded into `ixf[dst]` and absent-checked once per iteration.
type Gather = (usize, VarId, usize, StmtId);

/// One lowered statement: a loop body, an out-of-loop assignment or an
/// exit test. `regs` / `ixf` are its initial register and index files,
/// `weight` its abstract work per iteration, Σ (1 + operator count).
#[derive(Debug, Clone, Default)]
struct Code {
    regs: Vec<f64>,
    ixf: Vec<usize>,
    gathers: Vec<Gather>,
    ops: Vec<Op>,
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

struct Lowerer<'p> {
    prog: &'p Program,
    in_loop: bool,
    code: Code,
}

impl<'p> Lowerer<'p> {
    fn new(prog: &'p Program, in_loop: bool) -> Self {
        let code = Code::default();
        let mut lw = Lowerer {
            prog,
            in_loop,
            code,
        };
        lw.slot(0); // slot 0: the loop index
        lw.reg(0.0); // slot 1: the flag
        lw
    }

    fn slot(&mut self, k: usize) -> usize {
        self.code.ixf.push(k);
        self.code.ixf.len() - 1
    }

    fn reg(&mut self, init: f64) -> Operand {
        self.code.regs.push(init);
        (REGS, self.slot(self.code.regs.len() - 1))
    }

    fn access(&mut self, a: &Access, stmt: StmtId) -> Result<Operand, String> {
        let Some(d) = self.prog.decls.get(a.var()) else {
            return Err(format!("s{stmt}: variable id {} is not declared", a.var()));
        };
        if !self.in_loop && matches!(a, Access::Direct(_) | Access::Indirect { .. }) {
            let what = "is indexed by a loop variable outside any entity loop";
            return Err(format!("s{stmt}: {} {what}", d.name));
        }
        Ok(match *a {
            Access::Scalar(v) => (SCALARS, self.slot(v)),
            Access::Direct(v) => (ARRAYS + v, 0),
            Access::Fixed(v, k) => (ARRAYS + v, self.slot(k)),
            Access::Indirect { array, map, slot } => {
                let known = self.code.gathers.iter().find(|g| (g.1, g.2) == (map, slot));
                let dst = match known {
                    Some(g) => g.0,
                    None => {
                        let dst = self.slot(0);
                        self.code.gathers.push((dst, map, slot, stmt));
                        dst
                    }
                };
                (ARRAYS + array, dst)
            }
        })
    }

    /// Emit `e` in post-order. A leaf feeds its consumer directly; an
    /// operator lands in `dst`, or in a fresh temporary.
    fn expr(&mut self, e: &Expr, dst: Option<Operand>, stmt: StmtId) -> Result<Operand, String> {
        let (alu, a, b) = match e {
            Expr::Const(c) => (Alu::Mov, self.reg(*c), None),
            Expr::Read(acc) => (Alu::Mov, self.access(acc, stmt)?, None),
            Expr::Unary(op, x) => (Alu::Un(*op), self.expr(x, None, stmt)?, None),
            Expr::Binary(op, l, r) => {
                let a = self.expr(l, None, stmt)?;
                (Alu::Bin(*op), a, Some(self.expr(r, None, stmt)?))
            }
        };
        let dst = match (alu, dst) {
            (Alu::Mov, None) => return Ok(a),
            (_, Some(dst)) => dst,
            (_, None) => self.reg(0.0),
        };
        self.code.weight += if let Alu::Mov = alu { 0.0 } else { 1.0 };
        self.code.ops.push((alu, a, b.unwrap_or(a), dst));
        Ok(dst)
    }

    fn body(mut self, stmts: &[AssignStmt], keep: impl Fn(StmtId) -> bool) -> Result<Code, String> {
        for s in stmts.iter().filter(|s| keep(s.id)) {
            let dst = self.access(&s.lhs, s.id)?;
            self.expr(&s.rhs, Some(dst), s.id)?;
            self.code.weight += 1.0;
        }
        Ok(self.code)
    }
}

impl Kernel {
    /// Lower every statement of `prog`; `guarded` is the placement's
    /// kernel-guarded set. Every machine must hold a table, with the
    /// slots used, for every map the kernel gathers through.
    pub fn lower(
        prog: &Program,
        guarded: impl Fn(StmtId) -> bool,
        machines: &[Machine],
    ) -> Result<Kernel, String> {
        let mut out = vec![None; prog.nstmts()];
        let mut work: Vec<&Stmt> = prog.body.iter().collect();
        while let Some(s) = work.pop() {
            let (id, code) = match s {
                Stmt::Loop(l) => {
                    let mut code = Lowerer::new(prog, true).body(&l.body, |_| true)?;
                    if l.body.iter().any(|a| guarded(a.id)) {
                        let tail = Lowerer::new(prog, true).body(&l.body, |s| !guarded(s))?;
                        code.tail.push(tail);
                    }
                    (l.id, code)
                }
                Stmt::Assign(a) => {
                    let one = std::slice::from_ref(a);
                    (a.id, Lowerer::new(prog, false).body(one, |_| true)?)
                }
                Stmt::ExitIf(e) => {
                    let mut lw = Lowerer::new(prog, false);
                    let (a, b) = (lw.expr(&e.lhs, None, e.id)?, lw.expr(&e.rhs, None, e.id)?);
                    lw.code.ops.push((Alu::Test(e.rel), a, b, FLAG));
                    lw.code.weight = 0.0; // exit tests were never counted as work
                    (e.id, lw.code)
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
        let code: Vec<Code> = out.into_iter().map(Option::unwrap_or_default).collect();
        let bodies = code.iter().flat_map(|c| std::iter::once(c).chain(&c.tail));
        for &(_, map, slot, stmt) in bodies.flat_map(|c| &c.gathers) {
            let arity = |m: &Machine| m.maps.get(map).map_or(0, |t| t.arity);
            if machines.iter().any(|m| slot >= arity(m)) {
                let name = prog.decls.get(map).map_or("?", |d| &d.name);
                return Err(format!("s{stmt}: map {name} has no table on this machine"));
            }
        }
        Ok(Kernel(code))
    }
}

/// Run `code` at every iteration of `iters`, in order; true when it
/// is an exit test that fired.
fn run(m: &mut Machine, code: &Code, iters: impl ExactSizeIterator<Item = usize>) -> bool {
    m.compute_units += code.weight * iters.len() as f64;
    let maps: &[MapTable] = &m.maps;
    let (mut regs, mut ixf) = (code.regs.clone(), code.ixf.clone());
    let mut views = Vec::with_capacity(ARRAYS + m.arrays.len());
    views.push(Cell::from_mut(&mut m.scalars[..]).as_slice_of_cells());
    views.push(Cell::from_mut(&mut regs[..]).as_slice_of_cells());
    let arrays = m.arrays.iter_mut();
    views.extend(arrays.map(|a| Cell::from_mut(&mut a[..]).as_slice_of_cells()));
    // Resolve each operand's memory once per call, not once per access.
    let view = |(mem, ix): Operand| (views[mem], ix);
    let resolve = |&(alu, a, b, dst): &Op| (alu, view(a), view(b), view(dst));
    let ops: Vec<Op<_>> = code.ops.iter().map(resolve).collect();
    for i in iters {
        ixf[0] = i;
        for &(dst, map, slot, _) in &code.gathers {
            ixf[dst] = maps[map].get(i, slot);
        }
        for &(alu, (a, ia), (b, ib), (dst, id)) in &ops {
            let (x, y) = (a[ixf[ia]].get(), b[ixf[ib]].get());
            dst[ixf[id]].set(match alu {
                Alu::Mov => x,
                Alu::Un(UnOp::Neg) => -x,
                Alu::Un(UnOp::Sqrt) => x.sqrt(),
                Alu::Un(UnOp::Abs) => x.abs(),
                Alu::Bin(BinOp::Add) => x + y,
                Alu::Bin(BinOp::Sub) => x - y,
                Alu::Bin(BinOp::Mul) => x * y,
                Alu::Bin(BinOp::Div) => x / y,
                Alu::Bin(BinOp::Max) => x.max(y),
                Alu::Bin(BinOp::Min) => x.min(y),
                Alu::Test(RelOp::Lt) => f64::from(x < y),
                Alu::Test(RelOp::Le) => f64::from(x <= y),
                Alu::Test(RelOp::Gt) => f64::from(x > y),
                Alu::Test(RelOp::Ge) => f64::from(x >= y),
            });
        }
    }
    views[REGS][0].get() != 0.0
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
