//! Abstract syntax of the target program class.
//!
//! Shape of a program (cf. the paper's §2.1 sketch and the TESTIV
//! subroutine): a flat sequence of entity loops and scalar statements,
//! optionally wrapped in one *time loop* that repeats until a
//! convergence test fires or an iteration cap is reached. Entity loops
//! do not nest — gathers/scatters are expressed through indirection
//! maps (`OLD(SOM(i,2))`), exactly as in the Fortran codes the paper
//! targets.

pub use syncplace_mesh::EntityKind;

/// Index of a declaration within [`Program::decls`].
pub type VarId = usize;

/// Globally unique statement id, assigned by [`Program::renumber`].
pub type StmtId = usize;

/// What a declared name denotes.
#[derive(Debug, Clone, PartialEq)]
pub enum VarKind {
    /// A replicated floating-point scalar.
    Scalar,
    /// An array with one value per entity of the given kind.
    Array { base: EntityKind },
    /// An integer indirection map: for each `from`-entity, `arity`
    /// references to `to`-entities (e.g. `SOM : tri → node [3]`).
    Map {
        from: EntityKind,
        to: EntityKind,
        arity: usize,
    },
}

/// A declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    pub name: String,
    pub kind: VarKind,
    /// Is this a program input (value given at entry, assumed
    /// coherent / replicated)?
    pub input: bool,
    /// Is this a program output (required coherent at exit)?
    pub output: bool,
}

/// How a variable is accessed at a particular occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// `s` — a scalar.
    Scalar(VarId),
    /// `A(i)` — array indexed by the enclosing loop variable.
    Direct(VarId),
    /// `A(MAP(i, slot))` — array indexed through an indirection map
    /// (slots are 1-based in the surface syntax, 0-based here).
    Indirect {
        array: VarId,
        map: VarId,
        slot: usize,
    },
    /// `A(k)` — array indexed by an explicit constant. Legal only in
    /// special situations (paper §3.2, dependence case *g*): "we have
    /// no way to relate parallel iteration numbers to original ones".
    /// Kept so the legality checker can exercise that case.
    Fixed(VarId, usize),
}

impl Access {
    /// The variable being accessed.
    pub fn var(&self) -> VarId {
        match *self {
            Access::Scalar(v) | Access::Direct(v) | Access::Fixed(v, _) => v,
            Access::Indirect { array, .. } => array,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Sqrt,
    Abs,
}

/// Comparison operators for the convergence test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    Lt,
    Le,
    Gt,
    Ge,
}

/// Expressions (right-hand sides and conditions).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Const(f64),
    Read(Access),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// All accesses read by this expression, in left-to-right order.
    pub fn reads(&self) -> Vec<&Access> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads<'a>(&'a self, out: &mut Vec<&'a Access>) {
        match self {
            Expr::Const(_) => {}
            Expr::Read(a) => out.push(a),
            Expr::Unary(_, e) => e.collect_reads(out),
            Expr::Binary(_, a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
        }
    }

    /// Convenience constructors.
    pub fn read(a: Access) -> Expr {
        Expr::Read(a)
    }
    pub fn scalar(v: VarId) -> Expr {
        Expr::Read(Access::Scalar(v))
    }
    pub fn direct(v: VarId) -> Expr {
        Expr::Read(Access::Direct(v))
    }
    pub fn indirect(array: VarId, map: VarId, slot: usize) -> Expr {
        Expr::Read(Access::Indirect { array, map, slot })
    }
    pub fn sqrt(self) -> Expr {
        Expr::Unary(UnOp::Sqrt, Box::new(self))
    }
    pub fn abs(self) -> Expr {
        Expr::Unary(UnOp::Abs, Box::new(self))
    }
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Max, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }
}

/// An assignment `lhs = rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignStmt {
    pub id: StmtId,
    pub lhs: Access,
    pub rhs: Expr,
}

/// A loop over all entities of one kind.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopStmt {
    pub id: StmtId,
    /// The entity kind iterated over.
    pub entity: EntityKind,
    /// Did the user designate this loop as partitioned (§3.1)?
    pub partitioned: bool,
    /// Loop variable name (for printing only).
    pub index: String,
    /// Straight-line loop body.
    pub body: Vec<AssignStmt>,
}

/// The convergence test inside a time loop: `exit when lhs REL rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitIfStmt {
    pub id: StmtId,
    pub lhs: Expr,
    pub rel: RelOp,
    pub rhs: Expr,
}

/// The outer iteration (`100 loop = loop + 1 … goto 100` in TESTIV).
///
/// The loop counter and the `loop .eq. maxloop` cap are modelled
/// implicitly: they are exactly the *induction variable* that the
/// paper's "classical parallelization methods" remove (§3.2), so the
/// analyzer never sees them as data.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeLoopStmt {
    pub id: StmtId,
    /// Counter name (printing only).
    pub counter: String,
    /// Maximum number of iterations (the `maxloop` cap).
    pub max_iters: usize,
    /// Body; may contain [`Stmt::ExitIf`] tests.
    pub body: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Entity loop.
    Loop(LoopStmt),
    /// Scalar straight-line assignment outside any entity loop
    /// (executed identically on all processors, §2.2).
    Assign(AssignStmt),
    /// Time loop.
    TimeLoop(TimeLoopStmt),
    /// Convergence exit test (only valid inside a time loop).
    ExitIf(ExitIfStmt),
}

impl Stmt {
    /// The statement's id.
    pub fn id(&self) -> StmtId {
        match self {
            Stmt::Loop(l) => l.id,
            Stmt::Assign(a) => a.id,
            Stmt::TimeLoop(t) => t.id,
            Stmt::ExitIf(e) => e.id,
        }
    }
}

/// A whole program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub name: String,
    pub decls: Vec<VarDecl>,
    pub body: Vec<Stmt>,
}

impl Program {
    /// Create an empty program.
    pub fn new(name: &str) -> Program {
        Program {
            name: name.to_string(),
            decls: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Declare a variable, returning its id. Panics on duplicates.
    pub fn declare(&mut self, name: &str, kind: VarKind, input: bool, output: bool) -> VarId {
        assert!(
            self.lookup(name).is_none(),
            "duplicate declaration of {name}"
        );
        self.decls.push(VarDecl {
            name: name.to_string(),
            kind,
            input,
            output,
        });
        self.decls.len() - 1
    }

    /// Find a declaration by name.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.decls.iter().position(|d| d.name == name)
    }

    /// The declaration of `v`.
    pub fn decl(&self, v: VarId) -> &VarDecl {
        &self.decls[v]
    }

    /// Inputs in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.decls.len()).filter(|&v| self.decls[v].input)
    }

    /// Outputs in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.decls.len()).filter(|&v| self.decls[v].output)
    }

    /// Assign contiguous statement ids in program (textual) order.
    /// Must be called after construction and after any structural edit.
    pub fn renumber(&mut self) {
        let mut next = 0usize;
        fn walk(stmts: &mut [Stmt], next: &mut usize) {
            for s in stmts {
                match s {
                    Stmt::Loop(l) => {
                        l.id = *next;
                        *next += 1;
                        for a in &mut l.body {
                            a.id = *next;
                            *next += 1;
                        }
                    }
                    Stmt::Assign(a) => {
                        a.id = *next;
                        *next += 1;
                    }
                    Stmt::TimeLoop(t) => {
                        t.id = *next;
                        *next += 1;
                        walk(&mut t.body, next);
                    }
                    Stmt::ExitIf(e) => {
                        e.id = *next;
                        *next += 1;
                    }
                }
            }
        }
        walk(&mut self.body, &mut next);
    }

    /// Total number of statement ids in use (after [`Program::renumber`]).
    pub fn nstmts(&self) -> usize {
        let mut max = 0usize;
        self.visit_assigns(&mut |a, _| max = max.max(a.id + 1));
        fn walk(stmts: &[Stmt], max: &mut usize) {
            for s in stmts {
                *max = (*max).max(s.id() + 1);
                if let Stmt::TimeLoop(t) = s {
                    walk(&t.body, max);
                }
            }
        }
        walk(&self.body, &mut max);
        max
    }

    /// Visit every assignment with its enclosing loop (if any).
    pub fn visit_assigns<'a>(&'a self, f: &mut dyn FnMut(&'a AssignStmt, Option<&'a LoopStmt>)) {
        fn walk<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a AssignStmt, Option<&'a LoopStmt>)) {
            for s in stmts {
                match s {
                    Stmt::Loop(l) => {
                        for a in &l.body {
                            f(a, Some(l));
                        }
                    }
                    Stmt::Assign(a) => f(a, None),
                    Stmt::TimeLoop(t) => walk(&t.body, f),
                    Stmt::ExitIf(_) => {}
                }
            }
        }
        walk(&self.body, f);
    }

    /// The time loop, if the program has one at the top level.
    pub fn time_loop(&self) -> Option<&TimeLoopStmt> {
        self.body.iter().find_map(|s| match s {
            Stmt::TimeLoop(t) => Some(t),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Access {
        Access::Scalar(i)
    }

    #[test]
    fn declare_and_lookup() {
        let mut p = Program::new("t");
        let a = p.declare(
            "A",
            VarKind::Array {
                base: EntityKind::Node,
            },
            true,
            false,
        );
        let s = p.declare("s", VarKind::Scalar, false, true);
        assert_eq!(p.lookup("A"), Some(a));
        assert_eq!(p.lookup("s"), Some(s));
        assert_eq!(p.lookup("x"), None);
        assert_eq!(p.inputs().collect::<Vec<_>>(), vec![a]);
        assert_eq!(p.outputs().collect::<Vec<_>>(), vec![s]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_declaration_panics() {
        let mut p = Program::new("t");
        p.declare("A", VarKind::Scalar, false, false);
        p.declare("A", VarKind::Scalar, false, false);
    }

    #[test]
    fn expr_reads_in_order() {
        let e = Expr::scalar(0) + Expr::scalar(1) * Expr::scalar(2);
        let reads = e.reads();
        assert_eq!(reads.len(), 3);
        assert_eq!(*reads[0], v(0));
        assert_eq!(*reads[1], v(1));
        assert_eq!(*reads[2], v(2));
    }

    #[test]
    fn renumber_assigns_dense_ids() {
        let mut p = Program::new("t");
        p.declare("x", VarKind::Scalar, false, false);
        p.body = vec![
            Stmt::Assign(AssignStmt {
                id: 0,
                lhs: v(0),
                rhs: Expr::Const(1.0),
            }),
            Stmt::TimeLoop(TimeLoopStmt {
                id: 0,
                counter: "loop".into(),
                max_iters: 10,
                body: vec![
                    Stmt::Loop(LoopStmt {
                        id: 0,
                        entity: EntityKind::Node,
                        partitioned: true,
                        index: "i".into(),
                        body: vec![AssignStmt {
                            id: 0,
                            lhs: v(0),
                            rhs: Expr::Const(2.0),
                        }],
                    }),
                    Stmt::ExitIf(ExitIfStmt {
                        id: 0,
                        lhs: Expr::scalar(0),
                        rel: RelOp::Lt,
                        rhs: Expr::Const(0.5),
                    }),
                ],
            }),
        ];
        p.renumber();
        assert_eq!(p.nstmts(), 5);
        // Statement ids: assign=0, timeloop=1, loop=2, inner assign=3, exit=4.
        match (&p.body[0], &p.body[1]) {
            (Stmt::Assign(a), Stmt::TimeLoop(t)) => {
                assert_eq!(a.id, 0);
                assert_eq!(t.id, 1);
                match (&t.body[0], &t.body[1]) {
                    (Stmt::Loop(l), Stmt::ExitIf(e)) => {
                        assert_eq!(l.id, 2);
                        assert_eq!(l.body[0].id, 3);
                        assert_eq!(e.id, 4);
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn access_var() {
        assert_eq!(Access::Scalar(3).var(), 3);
        assert_eq!(Access::Direct(4).var(), 4);
        assert_eq!(
            Access::Indirect {
                array: 5,
                map: 1,
                slot: 0
            }
            .var(),
            5
        );
        assert_eq!(Access::Fixed(6, 0).var(), 6);
    }

    #[test]
    fn expr_operators_build_trees() {
        let e = (Expr::Const(1.0) - Expr::Const(2.0)) / Expr::Const(3.0);
        match e {
            Expr::Binary(BinOp::Div, l, _) => match *l {
                Expr::Binary(BinOp::Sub, _, _) => {}
                _ => panic!(),
            },
            _ => panic!(),
        }
    }
}
