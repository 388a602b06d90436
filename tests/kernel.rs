//! The compiled kernel (`runtime::kernel`) against the tree walker it
//! replaced, over loops at least two strips long.
//!
//! The oracle below is that tree walker, kept test-only: a recursive
//! `match` over `Expr` per element per statement with the
//! per-statement kernel guard. Every comparison is `to_bits()`-equal —
//! the lowered program performs the same floating-point operations on
//! the same operands in the same order, so any drift is a bug.

use std::collections::HashSet;
use syncplace::automata::predefined::{element_overlap_2d_full, fig6, fig8};
use syncplace::ir::{
    Access, AssignStmt, BinOp, EntityKind, ExitIfStmt, Expr, LoopStmt, RelOp, Stmt, StmtId, UnOp,
    VarId, VarKind,
};
use syncplace::overlap::Decomposition;
use syncplace::prelude::*;
use syncplace::runtime::exec::{Machine, MapTable};
use syncplace::runtime::kernel::STRIP;
use syncplace::runtime::{Bindings, CommPlan, Kernel, SpmdResult};

// ---------------------------------------------------------------- oracle

fn target(m: &Machine, map: VarId, slot: usize, i: usize) -> usize {
    let t = m.maps[map].targets[i * m.maps[map].arity + slot];
    assert!(t != u32::MAX, "absent on this processor");
    t as usize
}

fn eval(m: &Machine, e: &Expr, i: Option<usize>) -> f64 {
    match e {
        Expr::Const(c) => *c,
        Expr::Read(Access::Scalar(v)) => m.scalars[*v],
        Expr::Read(Access::Direct(v)) => m.arrays[*v][i.unwrap()],
        Expr::Read(Access::Fixed(v, k)) => m.arrays[*v][*k],
        Expr::Read(Access::Indirect { array, map, slot }) => {
            m.arrays[*array][target(m, *map, *slot, i.unwrap())]
        }
        Expr::Unary(op, x) => {
            let v = eval(m, x, i);
            match op {
                UnOp::Neg => -v,
                UnOp::Sqrt => v.sqrt(),
                UnOp::Abs => v.abs(),
            }
        }
        Expr::Binary(op, a, b) => {
            let (x, y) = (eval(m, a, i), eval(m, b, i));
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Max => x.max(y),
                BinOp::Min => x.min(y),
            }
        }
    }
}

fn ops(e: &Expr) -> usize {
    match e {
        Expr::Const(_) | Expr::Read(_) => 0,
        Expr::Unary(_, x) => 1 + ops(x),
        Expr::Binary(_, a, b) => 1 + ops(a) + ops(b),
    }
}

fn walk_assign(m: &mut Machine, a: &AssignStmt, i: Option<usize>) {
    let v = eval(m, &a.rhs, i);
    match a.lhs {
        Access::Scalar(s) => m.scalars[s] = v,
        Access::Direct(s) => m.arrays[s][i.unwrap()] = v,
        Access::Fixed(s, k) => m.arrays[s][k] = v,
        Access::Indirect { array, map, slot } => {
            let t = target(m, map, slot, i.unwrap());
            m.arrays[array][t] = v;
        }
    }
    m.compute_units += 1.0 + ops(&a.rhs) as f64;
}

/// The old `Machine::exec_loop`: iteration-major, statements in body
/// order, a guard probe per statement per iteration.
fn walk_loop(
    m: &mut Machine,
    l: &LoopStmt,
    iters: impl Iterator<Item = usize>,
    kernel_count: usize,
    guarded: &HashSet<StmtId>,
) {
    for i in iters {
        for a in &l.body {
            if i >= kernel_count && guarded.contains(&a.id) {
                continue;
            }
            walk_assign(m, a, Some(i));
        }
    }
}

fn walk_exit(m: &Machine, e: &ExitIfStmt) -> bool {
    let (a, b) = (eval(m, &e.lhs, None), eval(m, &e.rhs, None));
    match e.rel {
        RelOp::Lt => a < b,
        RelOp::Le => a <= b,
        RelOp::Gt => a > b,
        RelOp::Ge => a >= b,
    }
}

// --------------------------------------------------------------- fixture

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
    /// A value from the hostile pool or a modest finite one.
    fn value(&mut self) -> f64 {
        const POOL: [f64; 10] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -2.25,
            1e300,
            5e-324,
            -1e-300,
        ];
        if self.below(3) == 0 {
            self.pick(&POOL)
        } else {
            (self.below(2001) as f64 - 1000.0) / 8.0
        }
    }
}

/// Past two strips, with a ragged tail.
const NNODES: usize = 2 * STRIP + 19;
const NTRIS: usize = 2 * STRIP + 37;
/// Triangle-to-node targets and `Fixed` subscripts stay below this, so
/// scatters and fixed elements alias across the lanes of a strip.
const ALIAS: usize = 7;

/// Variables of the differential world. Loops run over triangles, or —
/// when `on_nodes` — over nodes, with a node -> node map, so one array
/// is written `Direct` and read `Indirect` in a body.
struct World {
    prog: Program,
    s: VarId,
    t: VarId,
    a: VarId,
    b: VarId,
    w: VarId,
    out: VarId,
    map: VarId,
    nmap: VarId,
    on_nodes: bool,
}

fn world() -> World {
    let mut prog = Program::new("diff");
    let node = VarKind::Array {
        base: EntityKind::Node,
    };
    let tri = VarKind::Array {
        base: EntityKind::Tri,
    };
    let map = VarKind::Map {
        from: EntityKind::Tri,
        to: EntityKind::Node,
        arity: 3,
    };
    let nmap = VarKind::Map {
        from: EntityKind::Node,
        to: EntityKind::Node,
        arity: 2,
    };
    World {
        s: prog.declare("s", VarKind::Scalar, true, true),
        t: prog.declare("t", VarKind::Scalar, true, true),
        a: prog.declare("A", node.clone(), true, true),
        b: prog.declare("B", node, true, true),
        w: prog.declare("W", tri.clone(), true, true),
        out: prog.declare("OUT", tri, false, true),
        map: prog.declare("M", map, true, false),
        nmap: prog.declare("N", nmap, true, false),
        on_nodes: false,
        prog,
    }
}

fn machine(w: &World, rng: &mut Rng) -> Machine {
    let counts = [NNODES, 0, NTRIS, 0];
    let mut m = Machine::new(&w.prog, counts, counts);
    for v in [w.s, w.t] {
        m.scalars[v] = rng.value();
    }
    for v in [w.a, w.b, w.w, w.out] {
        for x in m.arrays[v].iter_mut() {
            *x = rng.value();
        }
    }
    m.maps[w.map] = MapTable {
        arity: 3,
        targets: (0..3 * NTRIS).map(|_| rng.below(ALIAS) as u32).collect(),
    };
    // Node -> node: half near the start (earlier lanes), half anywhere.
    let near_or_any = |rng: &mut Rng| {
        let bound = [ALIAS, NNODES][rng.below(2)];
        rng.below(bound) as u32
    };
    m.maps[w.nmap] = MapTable {
        arity: 2,
        targets: (0..2 * NNODES).map(|_| near_or_any(rng)).collect(),
    };
    m
}

fn access(w: &World, rng: &mut Rng, in_loop: bool) -> Access {
    let (direct, map, slots) = match w.on_nodes {
        true => ([w.a, w.b], w.nmap, 2),
        false => ([w.w, w.out], w.map, 3),
    };
    match rng.below(if in_loop { 4 } else { 2 }) {
        0 => Access::Scalar(rng.pick(&[w.s, w.t])),
        1 => Access::Fixed(rng.pick(&[w.a, w.b]), rng.below(ALIAS)),
        2 => Access::Direct(rng.pick(&direct)),
        _ => Access::Indirect {
            array: rng.pick(&[w.a, w.b]),
            map,
            slot: rng.below(slots),
        },
    }
}

fn expr(w: &World, rng: &mut Rng, depth: usize, in_loop: bool) -> Expr {
    const UN: [UnOp; 3] = [UnOp::Neg, UnOp::Sqrt, UnOp::Abs];
    const BIN: [BinOp; 6] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Max,
        BinOp::Min,
    ];
    match rng.below(if depth == 0 { 2 } else { 6 }) {
        0 => Expr::Const(rng.value()),
        1 => Expr::Read(access(w, rng, in_loop)),
        2 => Expr::Unary(rng.pick(&UN), Box::new(expr(w, rng, depth - 1, in_loop))),
        _ => Expr::Binary(
            rng.pick(&BIN),
            Box::new(expr(w, rng, depth - 1, in_loop)),
            Box::new(expr(w, rng, depth - 1, in_loop)),
        ),
    }
}

fn assign(w: &World, rng: &mut Rng, in_loop: bool) -> AssignStmt {
    AssignStmt {
        id: 0,
        lhs: access(w, rng, in_loop),
        rhs: expr(w, rng, 4, in_loop),
    }
}

fn tri_loop(body: Vec<AssignStmt>) -> Stmt {
    entity_loop(EntityKind::Tri, body)
}

fn entity_loop(entity: EntityKind, body: Vec<AssignStmt>) -> Stmt {
    Stmt::Loop(LoopStmt {
        id: 0,
        entity,
        partitioned: true,
        index: "i".into(),
        body,
    })
}

/// A random list of distinct iterations below `n`, longer than a strip.
fn listed(rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut all: Vec<u32> = (0..n as u32).collect();
    for k in (1..n).rev() {
        all.swap(k, rng.below(k + 1));
    }
    all.truncate(STRIP + 1 + rng.below(n - STRIP));
    all
}

fn assert_same_memory(tag: &str, want: &Machine, got: &Machine) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&want.scalars), bits(&got.scalars), "{tag}: scalars");
    for (v, (a, b)) in want.arrays.iter().zip(&got.arrays).enumerate() {
        assert_eq!(bits(a), bits(b), "{tag}: array {v}");
    }
    assert_eq!(
        want.compute_units, got.compute_units,
        "{tag}: compute units"
    );
}

fn lower(p: &Program, guarded: &HashSet<StmtId>, m: &Machine) -> Kernel {
    let k = Kernel::lower(p, |s| guarded.contains(&s)).unwrap();
    k.check_tables(p, std::slice::from_ref(m)).unwrap();
    k
}

// ----------------------------------------------------------------- tests

#[test]
fn random_loop_bodies_match_the_tree_walker_bitwise() {
    let mut w = world();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut seen = HashSet::new();
    for case in 0..900 {
        w.on_nodes = case % 3 == 2;
        let (entity, n) = match w.on_nodes {
            true => (EntityKind::Node, NNODES),
            false => (EntityKind::Tri, NTRIS),
        };
        let body: Vec<_> = (0..1 + rng.below(3))
            .map(|_| assign(&w, &mut rng, true))
            .collect();
        for a in &body {
            seen.insert((w.on_nodes, std::mem::discriminant(&a.lhs)));
        }
        w.prog.body = vec![entity_loop(entity, body)];
        w.prog.renumber();
        let Stmt::Loop(l) = &w.prog.body[0] else {
            unreachable!()
        };
        let m0 = machine(&w, &mut rng);
        let k = lower(&w.prog, &HashSet::new(), &m0);
        let (mut want, mut got) = (m0.clone(), m0.clone());
        walk_loop(&mut want, l, 0..n, n, &HashSet::new());
        got.exec_loop(&k, l.id, n, n);
        assert_same_memory(&format!("case {case}: {:?}", l.body), &want, &got);

        // A split engine's index list, in list order, across strips.
        let list = listed(&mut rng, n);
        let iters = list.iter().map(|&i| i as usize);
        let (mut want, mut got) = (m0.clone(), m0);
        walk_loop(&mut want, l, iters, n, &HashSet::new());
        got.exec_loop_at(&k, l.id, &list);
        assert_same_memory(&format!("case {case}, listed: {:?}", l.body), &want, &got);
    }
    assert_eq!(seen.len(), 8, "four access kinds written, on both entities");
}

#[test]
fn random_out_of_loop_statements_and_exit_tests_match_bitwise() {
    let mut w = world();
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    let mut fired = [0usize; 2];
    for case in 0..400 {
        let exit = ExitIfStmt {
            id: 0,
            lhs: expr(&w, &mut rng, 3, false),
            rel: rng.pick(&[RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge]),
            rhs: expr(&w, &mut rng, 3, false),
        };
        w.prog.body = vec![
            Stmt::Assign(assign(&w, &mut rng, false)),
            Stmt::ExitIf(exit),
        ];
        w.prog.renumber();
        let (Stmt::Assign(a), Stmt::ExitIf(e)) = (&w.prog.body[0], &w.prog.body[1]) else {
            unreachable!()
        };
        let m0 = machine(&w, &mut rng);
        let k = lower(&w.prog, &HashSet::new(), &m0);
        let (mut want, mut got) = (m0.clone(), m0);
        walk_assign(&mut want, a, None);
        assert!(!got.exec_stmt(&k, a.id), "an assignment is not an exit");
        let fires = walk_exit(&want, e);
        assert_eq!(fires, got.exec_stmt(&k, e.id), "case {case}: {e:?}");
        // Exit tests are free and touch nothing.
        assert_same_memory(&format!("case {case}: {a:?}"), &want, &got);
        fired[fires as usize] += 1;
    }
    assert!(fired[0] > 20 && fired[1] > 20, "both outcomes: {fired:?}");
}

/// Two triangles share node 1 through different slots and the updates
/// do not commute, so only iteration-major order gives this answer.
#[test]
fn aliasing_scatter_pins_iteration_major_order() {
    let mut w = world();
    let slot = |k| Access::Indirect {
        array: w.a,
        map: w.map,
        slot: k,
    };
    let upd = |k, f: f64| AssignStmt {
        id: 0,
        lhs: slot(k),
        rhs: Expr::Read(slot(k)) * Expr::Const(f) + Expr::direct(w.w),
    };
    w.prog.body = vec![tri_loop(vec![upd(0, 2.0), upd(1, -3.0), upd(2, 0.5)])];
    w.prog.renumber();
    let Stmt::Loop(l) = &w.prog.body[0] else {
        unreachable!()
    };
    let counts = [4, 0, 2, 0];
    let mut m0 = Machine::new(&w.prog, counts, counts);
    m0.arrays[w.a] = vec![1.0, 10.0, 100.0, 1000.0];
    m0.arrays[w.w] = vec![1.0, 7.0];
    // Triangle 0 = (0, 1, 2), triangle 1 = (1, 3, 1): node 1 is slot 1
    // of the first and slots 0 and 2 of the second.
    m0.maps[w.map] = MapTable {
        arity: 3,
        targets: vec![0, 1, 2, 1, 3, 1],
    };
    let (mut want, mut got) = (m0.clone(), m0.clone());
    walk_loop(&mut want, l, 0..2, 2, &HashSet::new());
    got.exec_loop(&lower(&w.prog, &HashSet::new(), &m0), l.id, 2, 2);
    assert_same_memory("alias", &want, &got);
    // By hand, iteration-major: i=0 → A = [3, -29, 51, 1000]; i=1 →
    // A1 = -29·2+7 = -51, A3 = 1000·(-3)+7, A1 = -51·0.5+7 = -18.5.
    assert_eq!(got.arrays[w.a], vec![3.0, -18.5, 51.0, -2993.0]);
    // Statement-major would end with A1 = ((10·2+7)·(-3)+1)·0.5+7.
    assert_ne!(
        got.arrays[w.a][1],
        ((10.0 * 2.0 + 7.0) * -3.0 + 1.0) * 0.5 + 7.0
    );

    // The split engine's index lists: executed in list order.
    let (mut want, mut got) = (m0.clone(), m0.clone());
    walk_loop(&mut want, l, [1usize, 0].into_iter(), 2, &HashSet::new());
    let k = lower(&w.prog, &HashSet::new(), &m0);
    got.exec_loop_at(&k, l.id, &[1]);
    got.exec_loop_at(&k, l.id, &[0]);
    assert_same_memory("alias, listed", &want, &got);
    assert_ne!(got.arrays[w.a], vec![3.0, -18.5, 51.0, -2993.0]);
}

/// A machine with modest finite values, for cases that check an order.
fn tame(w: &World) -> Machine {
    let mut m = machine(w, &mut Rng(5));
    for v in [w.a, w.b, w.w, w.out] {
        for (i, x) in m.arrays[v].iter_mut().enumerate() {
            *x = ((i * 7 + v) % 13) as f64 * 0.25 - 1.0;
        }
    }
    m.scalars[w.s] = 0.5;
    m.scalars[w.t] = -3.0;
    m
}

/// A scalar whose first access is a write is one value per lane; after
/// the loop it holds the last iteration's value, and a loop that runs
/// zero times leaves it untouched.
#[test]
fn a_privatised_scalar_keeps_the_last_iteration_and_zero_trips_leave_it() {
    let mut w = world();
    let assign = |lhs, rhs| AssignStmt { id: 0, lhs, rhs };
    w.prog.body = vec![tri_loop(vec![
        assign(Access::Scalar(w.t), Expr::direct(w.w) * Expr::Const(2.0)),
        assign(Access::Direct(w.out), Expr::scalar(w.t) + Expr::Const(1.0)),
    ])];
    w.prog.renumber();
    let Stmt::Loop(l) = &w.prog.body[0] else {
        unreachable!()
    };
    let m0 = tame(&w);
    let k = lower(&w.prog, &HashSet::new(), &m0);
    for n in [NTRIS, STRIP, STRIP + 1, 1, 0] {
        let (mut want, mut got) = (m0.clone(), m0.clone());
        walk_loop(&mut want, l, 0..n, n, &HashSet::new());
        got.exec_loop(&k, l.id, n, n);
        assert_same_memory(&format!("{n} iterations"), &want, &got);
        let last = match n {
            0 => m0.scalars[w.t],
            _ => m0.arrays[w.w][n - 1] * 2.0,
        };
        assert_eq!(got.scalars[w.t], last, "{n} iterations");
    }
}

/// An accumulator written by two statements, and a `Fixed` element
/// written by two statements: each iteration's updates interleave, so
/// only iteration-major order gives the tree walker's answer.
#[test]
fn accumulators_and_fixed_targets_written_twice_stay_iteration_major() {
    let mut w = world();
    let fixed = Access::Fixed(w.a, 3);
    let read = |a: &Access| Expr::Read(a.clone());
    let assign = |lhs, rhs| AssignStmt { id: 0, lhs, rhs };
    let (s, half) = (Access::Scalar(w.s), Expr::Const(0.5));
    let bodies = [
        vec![
            assign(s.clone(), read(&s) * half.clone() + Expr::direct(w.w)),
            assign(s.clone(), read(&s) - Expr::direct(w.out)),
        ],
        vec![
            assign(fixed.clone(), read(&fixed) * half + Expr::direct(w.w)),
            assign(Access::Direct(w.out), read(&fixed)),
            assign(fixed.clone(), read(&fixed) - Expr::indirect(w.b, w.map, 1)),
        ],
    ];
    for body in bodies {
        w.prog.body = vec![tri_loop(body)];
        w.prog.renumber();
        let Stmt::Loop(l) = &w.prog.body[0] else {
            unreachable!()
        };
        let m0 = tame(&w);
        let (mut want, mut got) = (m0.clone(), m0.clone());
        walk_loop(&mut want, l, 0..NTRIS, NTRIS, &HashSet::new());
        got.exec_loop(&lower(&w.prog, &HashSet::new(), &m0), l.id, NTRIS, NTRIS);
        assert_same_memory(&format!("{:?}", l.body), &want, &got);
        let mut statement_major = m0.clone();
        for a in &l.body {
            (0..NTRIS).for_each(|i| walk_assign(&mut statement_major, a, Some(i)));
        }
        let memory = |m: &Machine| (m.scalars.clone(), m.arrays.clone());
        assert_ne!(memory(&statement_major), memory(&got), "{:?}", l.body);
    }
}

/// An absent map target in a lane past the first strip is still the
/// runtime's placement-bug panic.
#[test]
#[should_panic(expected = "invalid placement")]
fn an_absent_target_past_the_first_strip_still_panics() {
    let mut w = world();
    let rhs = Expr::indirect(w.a, w.map, 1);
    let lhs = Access::Direct(w.out);
    w.prog.body = vec![tri_loop(vec![AssignStmt { id: 0, lhs, rhs }])];
    w.prog.renumber();
    let Stmt::Loop(l) = &w.prog.body[0] else {
        unreachable!()
    };
    let mut m = tame(&w);
    m.maps[w.map].targets[3 * (STRIP + 5) + 1] = u32::MAX;
    let k = lower(&w.prog, &HashSet::new(), &m);
    m.exec_loop(&k, l.id, NTRIS, NTRIS);
}

#[test]
fn guarded_and_unguarded_statements_split_like_the_per_statement_guard() {
    let mut w = world();
    let acc = |v, rhs| AssignStmt {
        id: 0,
        lhs: Access::Scalar(v),
        rhs,
    };
    w.prog.body = vec![tri_loop(vec![
        acc(w.s, Expr::scalar(w.s) + Expr::direct(w.w)),
        AssignStmt {
            id: 0,
            lhs: Access::Direct(w.out),
            rhs: Expr::direct(w.out) * Expr::Const(2.0) + Expr::scalar(w.s),
        },
        acc(w.t, Expr::scalar(w.t).max(Expr::indirect(w.a, w.map, 1))),
    ])];
    w.prog.renumber();
    let Stmt::Loop(l) = &w.prog.body[0] else {
        unreachable!()
    };
    let mut rng = Rng(7);
    let m0 = machine(&w, &mut rng);
    let all: HashSet<StmtId> = [l.body[0].id, l.body[2].id].into();
    let one: HashSet<StmtId> = [l.body[2].id].into();
    for guarded in [&all, &one, &HashSet::new()] {
        let k = lower(&w.prog, guarded, &m0);
        for domain in [0, 3, NTRIS] {
            for kernel in [0, 2, domain, domain + 2] {
                let (mut want, mut got) = (m0.clone(), m0.clone());
                walk_loop(&mut want, l, 0..domain, kernel, guarded);
                got.exec_loop(&k, l.id, domain, kernel);
                let tag = format!("guarded {guarded:?} domain {domain} kernel {kernel}");
                assert_same_memory(&tag, &want, &got);
            }
        }
    }
}

#[test]
fn what_lowering_cannot_resolve_is_a_typed_error() {
    let mut w = world();
    let m = Machine::new(&w.prog, [NNODES, 0, NTRIS, 0], [NNODES, 0, NTRIS, 0]);
    let lower = |p: &Program| {
        let k = Kernel::lower(p, |_| false)?;
        k.check_tables(p, std::slice::from_ref(&m)).map(|()| k)
    };
    let to_s = |rhs| AssignStmt {
        id: 0,
        lhs: Access::Scalar(w.s),
        rhs,
    };

    // A loop-indexed access outside a loop, direct or through a map.
    for rhs in [Expr::direct(w.w), Expr::indirect(w.a, w.map, 0)] {
        w.prog.body = vec![
            Stmt::Assign(to_s(Expr::Const(0.0))),
            Stmt::Assign(to_s(rhs)),
        ];
        w.prog.renumber();
        let e = lower(&w.prog).unwrap_err();
        assert!(
            e.starts_with("s1: ") && e.contains("outside any entity loop"),
            "{e}"
        );
        assert!(e.contains(" W ") || e.contains(" A "), "{e}");
    }

    // A map with no table on the machine; a slot past the table.
    w.prog.body = vec![tri_loop(vec![to_s(Expr::indirect(w.a, w.map, 2))])];
    w.prog.renumber();
    let e = lower(&w.prog).unwrap_err();
    assert!(e.starts_with("s1: map M has no table"), "{e}");
    let k = Kernel::lower(&w.prog, |_| false).expect("lowering alone");
    let mut narrow = m.clone();
    narrow.maps[w.map] = MapTable {
        arity: 2,
        targets: vec![0; 2 * NTRIS],
    };
    assert!(k.check_tables(&w.prog, &[narrow]).is_err());

    // An undeclared variable id; statement ids never renumbered.
    w.prog.body = vec![Stmt::Assign(to_s(Expr::scalar(99)))];
    w.prog.renumber();
    let e = lower(&w.prog).unwrap_err();
    assert!(e.contains("variable id 99 is not declared"), "{e}");
    w.prog.body = vec![
        Stmt::Assign(to_s(Expr::Const(1.0))),
        Stmt::Assign(to_s(Expr::Const(2.0))),
    ];
    let e = lower(&w.prog).unwrap_err();
    assert!(e.contains("statement id used twice"), "{e}");
}

/// TESTIV with its out-of-loop `sqrdiff = 0.0` turned into
/// `sqrdiff = OLD(i)`: a program `ir::validate` would reject.
fn testiv_reading_old_outside_a_loop() -> (Program, Mesh2d) {
    let mut prog = syncplace::ir::programs::testiv();
    let old = prog.lookup("OLD").unwrap();
    let Some(Stmt::TimeLoop(t)) = prog.body.get_mut(1) else {
        panic!("TESTIV's second statement is its time loop")
    };
    let Some(Stmt::Assign(a)) = t.body.get_mut(2) else {
        panic!("sqrdiff = 0.0 is the third statement of the time loop")
    };
    a.rhs = Expr::direct(old);
    (prog, gen2d::perturbed_grid(6, 6, 0.1, 2))
}

/// Every engine's answer for `prog`, run without a plan and then on a
/// prebuilt one, with TESTIV's placement on a 2-way decomposition.
fn answers_with_and_without_a_plan(prog: &Program, mesh: &Mesh2d, b: &Bindings) -> Vec<String> {
    let good = syncplace::ir::programs::testiv();
    let (dfg, analysis) = analyze_program(
        &good,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&good, &dfg, &analysis.solutions[0]);
    let d = decompose2d(
        mesh,
        &partition2d(mesh, 2, Method::Greedy).part,
        2,
        Pattern::FIG1,
    );
    let plan = std::sync::Arc::new(CommPlan::build(prog, &spmd, &d));
    let answer = |r: Result<SpmdResult, String>| r.map_or_else(|e| e, |_| "ok".to_string());
    Engine::ALL
        .into_iter()
        .flat_map(|engine| {
            [
                answer(engine.run(prog, &spmd, &d, b)),
                answer(engine.run_with(prog, &spmd, &d, b, Some(&plan), &None)),
            ]
        })
        .collect()
}

#[test]
fn every_engine_returns_the_lowering_error() {
    let good = syncplace::ir::programs::testiv();
    let (bad, mesh) = testiv_reading_old_outside_a_loop();
    let b = syncplace::runtime::bindings::testiv_bindings(&good, &mesh, 1e-9);
    assert!(answers_with_and_without_a_plan(&good, &mesh, &b).iter().all(|a| a == "ok"));
    let errs = answers_with_and_without_a_plan(&bad, &mesh, &b);
    assert!(
        errs[0].contains("OLD is indexed by a loop variable outside any entity loop"),
        "{}",
        errs[0]
    );
    assert!(errs.iter().all(|e| *e == errs[0]), "{errs:?}");
}

/// A run whose machines hold no table for a map the kernel gathers
/// through is refused by the per-run table check, plan or no plan.
#[test]
fn every_engine_refuses_a_run_without_a_gathered_maps_table() {
    let mut prog = syncplace::ir::programs::testiv();
    let mesh = gen2d::perturbed_grid(6, 6, 0.1, 2);
    let mut b = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 1e-9);
    let som = prog.lookup("SOM").unwrap();
    // Not an input, so unbound passes validation and no machine has it.
    prog.decls[som].input = false;
    b.maps = (b.maps.iter().filter(|&(v, _)| v != som))
        .map(|(v, m)| (v, m.clone()))
        .collect();
    let errs = answers_with_and_without_a_plan(&prog, &mesh, &b);
    assert!(errs[0].ends_with(": map SOM has no table on this machine"), "{}", errs[0]);
    assert!(errs.iter().all(|e| *e == errs[0]), "{errs:?}");
}

#[test]
#[should_panic(expected = "OLD is indexed by a loop variable outside any entity loop")]
fn the_sequential_reference_panics_once_with_the_same_message() {
    let (bad, mesh) = testiv_reading_old_outside_a_loop();
    let b = syncplace::runtime::bindings::testiv_bindings(&bad, &mesh, 1e-9);
    syncplace::runtime::run_sequential(&bad, &b);
}

/// `compute_units` sums small integers in `f64`, so the kernel's
/// Σ weights × iterations must be *the same number* the per-statement
/// accumulation gave. The literals are the parent commit's values
/// (sequential units, per-rank units, the overlapped engine's total
/// hidden work) — the α/β model's inputs.
#[test]
fn compute_units_and_hidden_work_equal_their_pre_kernel_values() {
    type Row = (&'static str, usize, f64, &'static [f64], f64);
    #[rustfmt::skip]
    const GOLDEN: [Row; 9] = [
        ("testiv", 1, 46418.0, &[46418.0], 0.0),
        ("testiv", 4, 46418.0, &[21864.0, 15932.0, 17988.0, 10638.0], 912.0),
        ("testiv", 8, 46418.0, &[11020.0, 10826.0, 7942.0, 8438.0, 8108.0, 9280.0, 7216.0, 5610.0], 612.0),
        ("edge_smooth", 1, 3010.0, &[3010.0], 0.0),
        ("edge_smooth", 4, 3010.0, &[1478.0, 1080.0, 1216.0, 766.0], 0.0),
        ("edge_smooth", 8, 3010.0, &[780.0, 914.0, 694.0, 582.0, 556.0, 640.0, 508.0, 426.0], 0.0),
        ("tetheat", 1, 73798.0, &[73798.0], 0.0),
        ("tetheat", 4, 73798.0, &[54793.0, 28550.0, 27247.0, 17635.0], 504.0),
        ("tetheat", 8, 73798.0, &[34506.0, 30599.0, 20500.0, 13078.0, 18074.0, 14885.0, 13001.0, 8785.0], 189.0),
    ];

    fn check<const V: usize>(
        name: &str,
        prog: &Program,
        automaton: &OverlapAutomaton,
        b: &Bindings,
        decompose: impl Fn(usize) -> Decomposition<V>,
    ) {
        let (dfg, analysis) = analyze_program(
            prog,
            automaton,
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let spmd = syncplace::codegen::spmd_program(prog, &dfg, &analysis.solutions[0]);
        let seq = syncplace::runtime::run_sequential(prog, b);
        for &(_, p, units, per_rank, hidden) in GOLDEN.iter().filter(|row| row.0 == name) {
            let d = decompose(p);
            assert_eq!(seq.compute_units, units, "{name}: sequential units");
            for engine in Engine::ALL {
                let r = engine.run(prog, &spmd, &d, b).unwrap();
                assert_eq!(
                    r.per_proc_compute,
                    per_rank,
                    "{name} P={p} {}",
                    engine.name()
                );
                if engine == Engine::Overlapped {
                    assert_eq!(r.overlap.total_hidden(), hidden, "{name} P={p}: hidden work");
                }
            }
        }
    }

    let prog = syncplace::ir::programs::testiv_with(12);
    let mesh = gen2d::perturbed_grid(10, 10, 0.2, 7);
    let mut b = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);
    let init = (0..mesh.nnodes()).map(|i| (i % 7) as f64).collect();
    b.input_arrays.insert(prog.lookup("INIT").unwrap(), init);
    check("testiv", &prog, &fig6(), &b, |p| {
        let part = partition2d(&mesh, p, Method::Greedy).part;
        decompose2d(&mesh, &part, p, Pattern::FIG1)
    });

    let prog = syncplace::ir::programs::edge_smooth();
    let mesh = gen2d::perturbed_grid(9, 9, 0.15, 4);
    let x: Vec<f64> = (0..mesh.nnodes()).map(|i| ((i * 13) % 17) as f64).collect();
    let b = syncplace::runtime::bindings::edge_smooth_bindings(&prog, &mesh, x);
    check("edge_smooth", &prog, &element_overlap_2d_full(), &b, |p| {
        let part = partition2d(&mesh, p, Method::Greedy).part;
        decompose2d(&mesh, &part, p, Pattern::FIG1)
    });

    let prog = syncplace::ir::programs::tet_heat(9);
    let mesh = gen3d::box_mesh(4, 4, 4);
    let mut b = syncplace::runtime::bindings::tet_heat_bindings(&prog, &mesh, 0.0);
    let init = (0..mesh.nnodes()).map(|i| (i % 5) as f64).collect();
    b.input_arrays.insert(prog.lookup("INIT").unwrap(), init);
    check("tetheat", &prog, &fig8(), &b, |p| {
        let part = partition3d(&mesh, p, Method::Rib).part;
        decompose3d(&mesh, &part, p, Pattern::FIG1)
    });
}

/// The module that runs lowered loops stays free of per-element hash
/// probes, `Option` unwrapping, boxed expression nodes and `unsafe`
/// (source-level gate, like the construction path's HashMap ban).
#[test]
fn the_kernel_hot_path_is_free_of_hashes_unwraps_boxes_and_unsafe() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/runtime/src/kernel.rs");
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    for banned in [
        "HashMap", "HashSet", ".expect(", ".unwrap(", "Box<", "unsafe",
    ] {
        assert!(!src.contains(banned), "kernel.rs contains `{banned}`");
    }
    // The tree walker is gone from the execution path.
    let exec = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/runtime/src/exec.rs");
    let src = std::fs::read_to_string(exec).unwrap_or_else(|e| panic!("read {exec}: {e}"));
    assert!(
        !src.contains("fn eval(") && !src.contains("Expr::"),
        "exec.rs walks Expr trees"
    );
}
