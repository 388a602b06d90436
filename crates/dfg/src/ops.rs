//! Program flattening: statements → a list of *operations* with
//! control-flow successors.
//!
//! Entity loops are kept straight-line (their bodies appear once; the
//! cross-iteration behaviour of partitioned loops is analyzed
//! separately in [`crate::build()`] because those dependences are what
//! the Fig. 4 legality check is about). The time loop contributes a
//! genuine back edge, and each `exit when` test an edge to the first
//! operation after the loop.

use syncplace_ir::{AssignStmt, EntityKind, ExitIfStmt, Program, Stmt, StmtId};

/// Dense operation id.
pub type OpId = usize;

/// Context of an operation that sits inside an entity loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopCtx {
    /// Statement id of the enclosing entity loop.
    pub loop_stmt: StmtId,
    /// Entity kind iterated over.
    pub entity: EntityKind,
    /// Was the loop designated as partitioned?
    pub partitioned: bool,
}

/// What an operation does.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// An assignment (possibly inside an entity loop).
    Assign(AssignStmt),
    /// A convergence test inside the time loop.
    Exit(ExitIfStmt),
}

/// One operation of the flattened program.
#[derive(Debug, Clone)]
pub struct Op {
    pub id: OpId,
    /// Statement id of the assignment/test itself.
    pub stmt: StmtId,
    pub kind: OpKind,
    /// Enclosing entity loop, if any.
    pub loop_ctx: Option<LoopCtx>,
    /// Is this op (transitively) inside the time loop?
    pub in_time_loop: bool,
    /// CFG successors (op ids; `EXIT_OP` = program exit).
    pub succs: Vec<OpId>,
}

/// Virtual op id representing program exit.
pub const EXIT_OP: OpId = usize::MAX;

/// The flattened program.
#[derive(Debug, Clone)]
pub struct FlatProgram {
    pub ops: Vec<Op>,
}

impl FlatProgram {
    /// Ids of ops that may directly precede program exit.
    pub fn final_ops(&self) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|o| o.succs.contains(&EXIT_OP))
            .map(|o| o.id)
            .collect()
    }
}

/// Flatten a program.
pub fn flatten(prog: &Program) -> FlatProgram {
    let mut ops: Vec<Op> = Vec::new();
    let exits = lower(&prog.body, &mut ops, false);
    // Whatever falls out of the top-level sequence exits the program.
    for e in exits {
        ops[e].succs.push(EXIT_OP);
    }
    FlatProgram { ops }
}

/// Lower a statement sequence; returns the set of op ids whose
/// fall-through successor is "whatever comes after the sequence".
fn lower(stmts: &[Stmt], ops: &mut Vec<Op>, in_time: bool) -> Vec<OpId> {
    // `pending` = ops waiting for their fall-through successor.
    let mut pending: Vec<OpId> = Vec::new();
    for s in stmts {
        match s {
            Stmt::Assign(a) => {
                let id = push(ops, a.id, OpKind::Assign(a.clone()), None, in_time);
                connect(ops, &mut pending, id);
                pending.push(id);
            }
            Stmt::Loop(l) => {
                let ctx = LoopCtx {
                    loop_stmt: l.id,
                    entity: l.entity,
                    partitioned: l.partitioned,
                };
                for a in &l.body {
                    let id = push(ops, a.id, OpKind::Assign(a.clone()), Some(ctx), in_time);
                    connect(ops, &mut pending, id);
                    pending.push(id);
                }
            }
            Stmt::TimeLoop(t) => {
                let body_start = ops.len();
                // Lower the body; collect its exit tests on the way.
                let body_exits = lower(&t.body, ops, true);
                if ops.len() == body_start {
                    continue; // empty time loop: nothing to connect
                }
                // Entry into the loop body.
                connect(ops, &mut pending, body_start);
                // Back edge: body fall-through re-enters the body.
                for e in &body_exits {
                    ops[*e].succs.push(body_start);
                }
                // Loop termination (cap reached): body fall-through also
                // continues past the loop...
                pending.extend(body_exits);
                // ...and every `exit when` test jumps past the loop.
                for op in &ops[body_start..] {
                    if matches!(op.kind, OpKind::Exit(_)) {
                        pending.push(op.id);
                    }
                }
                pending.sort_unstable();
                pending.dedup();
            }
            Stmt::ExitIf(e) => {
                let id = push(ops, e.id, OpKind::Exit(e.clone()), None, in_time);
                connect(ops, &mut pending, id);
                // Fall-through (condition false) continues in sequence;
                // the jump edge is added by the enclosing TimeLoop case.
                pending.push(id);
            }
        }
    }
    pending
}

fn push(
    ops: &mut Vec<Op>,
    stmt: StmtId,
    kind: OpKind,
    loop_ctx: Option<LoopCtx>,
    in_time: bool,
) -> OpId {
    let id = ops.len();
    ops.push(Op {
        id,
        stmt,
        kind,
        loop_ctx,
        in_time_loop: in_time,
        succs: Vec::new(),
    });
    id
}

fn connect(ops: &mut [Op], pending: &mut Vec<OpId>, target: OpId) {
    for p in pending.drain(..) {
        if !ops[p].succs.contains(&target) {
            ops[p].succs.push(target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_ir::parser::parse;
    use syncplace_ir::programs;

    #[test]
    fn straight_line_chain() {
        let p = parse("program t\n var s : scalar\n s = 1.0\n s = 2.0\n s = 3.0\nend").unwrap();
        let f = flatten(&p);
        assert_eq!(f.ops.len(), 3);
        assert_eq!(f.ops[0].succs, vec![1]);
        assert_eq!(f.ops[1].succs, vec![2]);
        assert_eq!(f.ops[2].succs, vec![EXIT_OP]);
    }

    #[test]
    fn loop_body_is_inline() {
        let p = parse(
            "program t\n input A : node\n output B : node\n var x : scalar\n forall i in node split { x = A(i) * 2.0 ; B(i) = x }\nend",
        )
        .unwrap();
        let f = flatten(&p);
        assert_eq!(f.ops.len(), 2);
        assert!(f.ops[0].loop_ctx.is_some());
        assert!(f.ops[0].loop_ctx.unwrap().partitioned);
        assert_eq!(f.ops[0].succs, vec![1]);
    }

    #[test]
    fn time_loop_has_back_edge_and_exit_edges() {
        let p = programs::testiv();
        let f = flatten(&p);
        // Ops: init copy (1) + NEW init (1) + tri body (5) + sqrdiff=0 (1)
        // + sqrdiff body (2) + exit (1) + OLD copy (1) + result copy (1) = 13.
        assert_eq!(f.ops.len(), 13);
        // The time-loop body spans ops 1..=11 (OLD copy is the last body op).
        let body_start = 1;
        let copy_op = 11;
        assert!(
            f.ops[copy_op].succs.contains(&body_start),
            "back edge missing: {:?}",
            f.ops[copy_op].succs
        );
        // Cap-reached path also continues to the result loop.
        assert!(f.ops[copy_op].succs.contains(&12));
        // The exit test jumps past the loop.
        let exit_op = f
            .ops
            .iter()
            .find(|o| matches!(o.kind, OpKind::Exit(_)))
            .unwrap();
        assert!(exit_op.succs.contains(&12), "{:?}", exit_op.succs);
        // And falls through into the copy loop.
        assert!(exit_op.succs.contains(&copy_op));
        // Final op exits the program.
        assert_eq!(f.final_ops(), vec![12]);
    }

    #[test]
    fn in_time_loop_flag() {
        let p = programs::testiv();
        let f = flatten(&p);
        assert!(!f.ops[0].in_time_loop);
        assert!(f.ops[5].in_time_loop);
        assert!(!f.ops[12].in_time_loop);
    }

    #[test]
    fn trailing_time_loop_exits_program() {
        let p = parse(
            "program t\n var s : scalar\n s = 0.0\n iterate k max 3 { s = s + 1.0\n exit when s > 2.0 }\nend",
        )
        .unwrap();
        let f = flatten(&p);
        // ops: s=0 (0), s=s+1 (1), exit (2).
        assert_eq!(f.ops.len(), 3);
        assert!(f.ops[2].succs.contains(&1)); // back edge from fall-through
        assert!(f.ops[2].succs.contains(&EXIT_OP)); // exit jump + cap
    }
}
