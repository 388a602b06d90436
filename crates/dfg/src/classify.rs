//! Reduction detection and scalar localization — the "classical
//! parallelization methods" the paper applies before the legality
//! check (§3.2): "induction variable detection, variable localization,
//! or reduction operation detection, may help removing some
//! dependences. We shall use these methods to remove forbidden
//! dependences."
//!
//! * A **reduction** is an assignment of the shape `x = x ⊕ e` (or
//!   `x = e ⊕ x` for commutative ⊕) where `e` does not read `x`. Both
//!   scalar reductions (`sqrdiff = sqrdiff + diff*diff`) and scatter
//!   accumulations (`NEW(SOM(i,1)) = NEW(SOM(i,1)) + …`) match; the
//!   *carrier* is the self-read occurrence. Constant-increment scalar
//!   reductions subsume the paper's induction variables.
//! * A scalar is **localized** in an entity loop when each iteration
//!   writes it before reading it and its in-loop value never escapes
//!   the loop. "Localized variables are partitioned along with their
//!   partitioned enclosing loop" (§3.4) — their flowing data takes the
//!   loop's entity shape.

use crate::ops::{FlatProgram, OpKind};
use crate::reach::{op_reads, op_write};
use syncplace_ir::{Access, BinOp, Expr, IdVec, Program, StmtId, VarId};

/// Reduction operator (associative & commutative up to sign handling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Sum,
    Prod,
    Max,
    Min,
}

impl ReduceOp {
    /// Neutral element.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }

    /// Combine two values.
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// Name used in `C$SYNCHRONIZE METHOD: + reduction` directives.
    pub fn symbol(self) -> &'static str {
        match self {
            ReduceOp::Sum => "+",
            ReduceOp::Prod => "*",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        }
    }
}

/// A detected reduction assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceInfo {
    /// The reduction operator.
    pub op: ReduceOp,
    /// Index (within the rhs `reads()` order) of the carrier self-read.
    pub carrier_ord: usize,
}

/// Classification results for a program.
#[derive(Debug, Clone, Default)]
pub struct Classification {
    /// Reduction info per assignment statement id.
    pub reductions: IdVec<ReduceInfo>,
    /// Localized scalars per loop statement id.
    pub localized: IdVec<Vec<VarId>>,
}

impl Classification {
    /// Is `var` localized in the loop with statement id `loop_stmt`?
    pub fn is_localized(&self, loop_stmt: StmtId, var: VarId) -> bool {
        self.localized.get(loop_stmt).is_some_and(|vs| vs.contains(&var))
    }
}

/// Detect the reduction pattern on a single assignment. Returns the
/// operator and the ordinal of the carrier read.
pub fn detect_reduction(lhs: &Access, rhs: &Expr) -> Option<ReduceInfo> {
    // The top-level operator decides; the carrier must be a direct
    // child on an allowed side.
    let (op, a, b) = match rhs {
        Expr::Binary(BinOp::Add, a, b) => (ReduceOp::Sum, a, b),
        Expr::Binary(BinOp::Sub, a, b) => {
            // x = x - e only (e - x is not a reduction).
            if let Expr::Read(acc) = a.as_ref() {
                if acc == lhs && !reads_var(b, lhs.var()) {
                    return Some(ReduceInfo {
                        op: ReduceOp::Sum,
                        carrier_ord: 0,
                    });
                }
            }
            return None;
        }
        Expr::Binary(BinOp::Mul, a, b) => (ReduceOp::Prod, a, b),
        Expr::Binary(BinOp::Max, a, b) => (ReduceOp::Max, a, b),
        Expr::Binary(BinOp::Min, a, b) => (ReduceOp::Min, a, b),
        _ => return None,
    };
    // Carrier on the left?
    if let Expr::Read(acc) = a.as_ref() {
        if acc == lhs && !reads_var(b, lhs.var()) {
            return Some(ReduceInfo { op, carrier_ord: 0 });
        }
    }
    // Carrier on the right (commutative ops)?
    if let Expr::Read(acc) = b.as_ref() {
        if acc == lhs && !reads_var(a, lhs.var()) {
            let ord = a.reads().len();
            return Some(ReduceInfo {
                op,
                carrier_ord: ord,
            });
        }
    }
    None
}

fn reads_var(e: &Expr, v: VarId) -> bool {
    e.reads().iter().any(|a| a.var() == v)
}

/// Explanation-quality hint for a carried dependence on `var` in the
/// partitioned loop `loop_stmt`: would a rewrite make the dependence
/// removable by reduction detection or by localization? Returns `None`
/// when no concrete suggestion applies (e.g. genuinely overlapping
/// array iterations).
pub fn removal_hint(prog: &Program, loop_stmt: StmtId, var: VarId) -> Option<String> {
    let name = &prog.decl(var).name;
    // Inspect the in-loop assignments that write `var`.
    let mut near_reduction = false;
    let mut slot_mismatch = false;
    prog.visit_assigns(&mut |a, l| {
        if l.map(|l| l.id) != Some(loop_stmt) || a.lhs.var() != var {
            return;
        }
        if reads_var(&a.rhs, var) && detect_reduction(&a.lhs, &a.rhs).is_none() {
            near_reduction = true;
            if let Access::Indirect { slot: w, .. } = a.lhs {
                slot_mismatch = a.rhs.reads().iter().any(
                    |r| matches!(r, Access::Indirect { array, slot, .. } if *array == var && *slot != w),
                );
            }
        }
    });
    if slot_mismatch {
        return Some(format!(
            "the scatter reads and writes different slots of {name}; accumulating into the \
             same location ({name}(M(i,k)) = {name}(M(i,k)) + …) would make it a recognized \
             scatter accumulation and excuse this dependence"
        ));
    }
    if near_reduction {
        return Some(format!(
            "{name} is read and written by the same iteration but not in a recognized \
             reduction shape; rewriting the accumulation as {name} = {name} ⊕ expr \
             (⊕ ∈ {{+, *, max, min}}) would excuse this dependence"
        ));
    }
    if matches!(prog.decl(var).kind, syncplace_ir::VarKind::Scalar) {
        if prog.decl(var).output {
            return Some(format!(
                "{name} is a program output: only reduction results may leave a partitioned \
                 loop, so {name} must be computed by a reduction ({name} = {name} ⊕ expr)"
            ));
        }
        return Some(format!(
            "writing {name} before reading it in every iteration (and keeping its value \
             inside the loop) would localize it and remove this dependence"
        ));
    }
    None
}

/// Run reduction detection and localization over a flattened program.
/// `reaching` makes the live-out test precise: a scalar is only
/// disqualified from localization when one of its in-loop definitions
/// actually *reaches* a use outside the loop (the same temporary name
/// reused independently in several loops — e.g. after time-loop
/// unrolling — stays localized in each).
pub fn classify(
    prog: &Program,
    flat: &FlatProgram,
    reaching: &crate::reach::Reaching,
) -> Classification {
    let mut c = Classification::default();

    // --- reductions ---------------------------------------------------------
    for op in &flat.ops {
        if let OpKind::Assign(a) = &op.kind {
            if let Some(info) = detect_reduction(&a.lhs, &a.rhs) {
                c.reductions.insert(a.id, info);
            }
        }
    }

    // --- localization -------------------------------------------------------
    // Group ops per entity loop, in body order.
    let mut loops: Vec<(StmtId, Vec<usize>)> = Vec::new();
    for op in &flat.ops {
        if let Some(ctx) = op.loop_ctx {
            match loops.last_mut() {
                Some((l, v)) if *l == ctx.loop_stmt => v.push(op.id),
                _ => loops.push((ctx.loop_stmt, vec![op.id])),
            }
        }
    }
    for (loop_stmt, body_ops) in &loops {
        // Candidate scalars: written in the body.
        let mut candidates: Vec<VarId> = Vec::new();
        for &o in body_ops {
            if let Some(Access::Scalar(v)) = op_write(&flat.ops[o]) {
                if !candidates.contains(v) {
                    candidates.push(*v);
                }
            }
        }
        'cand: for v in candidates {
            // Rule 0: a program output is live-out by definition.
            if prog.decl(v).output {
                continue 'cand;
            }
            // Rule 1: the first occurrence in body order is a write.
            for &o in body_ops {
                let reads_first = op_reads(&flat.ops[o]).iter().any(|a| a.var() == v);
                let writes = matches!(op_write(&flat.ops[o]), Some(acc) if acc.var() == v);
                if reads_first && !writes {
                    continue 'cand; // read before any write
                }
                if reads_first && writes {
                    // Same op reads and writes: the read happens first
                    // (rhs before lhs) — not write-before-read...
                    // ...unless this is the reduction carrier, in which
                    // case the variable is a reduction target, not a
                    // localization candidate.
                    continue 'cand;
                }
                if writes {
                    break; // write seen first: rule 1 holds
                }
            }
            // Rule 2: not live-out — no in-loop definition of v
            // reaches a read of v outside the loop (per the reaching
            // analysis, so the same temporary reused independently in
            // another loop does not disqualify this one).
            let in_loop_op =
                |op: usize| flat.ops[op].loop_ctx.map(|c| c.loop_stmt) == Some(*loop_stmt);
            let live_out = flat.ops.iter().any(|o| {
                if in_loop_op(o.id) || !op_reads(o).iter().any(|a| a.var() == v) {
                    return false;
                }
                reaching
                    .defs_of_at(v, o.id)
                    .iter()
                    .any(|site| matches!(site, crate::reach::DefSite::Op(d) if in_loop_op(*d)))
            });
            if live_out {
                continue 'cand;
            }
            // Also written outside? If another loop localizes it too,
            // both entries get added (per-loop pairs), which is fine.
            c.localized.get_or_insert_with(*loop_stmt, Vec::new).push(v);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::flatten;
    use syncplace_ir::parser::parse;
    use syncplace_ir::programs;

    fn classify_src(src: &str) -> (Program, Classification) {
        let p = parse(src).unwrap();
        let f = flatten(&p);
        let r = crate::reach::analyze(&p, &f);
        let c = classify(&p, &f, &r);
        (p, c)
    }

    #[test]
    fn testiv_classification() {
        let p = programs::testiv();
        let f = flatten(&p);
        let r = crate::reach::analyze(&p, &f);
        let c = classify(&p, &f, &r);
        // Reductions: the three NEW scatters + sqrdiff accumulation.
        assert_eq!(c.reductions.len(), 4, "{:?}", c.reductions);
        // Localized: vm in the tri loop, diff in the sqrdiff loop.
        let vm = p.lookup("vm").unwrap();
        let diff = p.lookup("diff").unwrap();
        let sqrdiff = p.lookup("sqrdiff").unwrap();
        let localized = |v| c.localized.values().flatten().any(|&l| l == v);
        assert!(localized(vm));
        assert!(localized(diff));
        assert!(
            !localized(sqrdiff),
            "reduction target must not be localized"
        );
    }

    #[test]
    fn scalar_sum_reduction() {
        let (_, c) = classify_src(
            "program t\n input A : node\n output s : scalar\n s = 0.0\n forall i in node split { s = s + A(i) }\nend",
        );
        assert_eq!(c.reductions.len(), 1);
        let info = c.reductions.values().next().unwrap();
        assert_eq!(info.op, ReduceOp::Sum);
        assert_eq!(info.carrier_ord, 0);
    }

    #[test]
    fn commuted_carrier() {
        let (_, c) = classify_src(
            "program t\n input A : node\n output s : scalar\n s = 0.0\n forall i in node split { s = A(i) + s }\nend",
        );
        let info = c.reductions.values().next().unwrap();
        assert_eq!(info.carrier_ord, 1);
    }

    #[test]
    fn subtraction_reduction() {
        let (_, c) = classify_src(
            "program t\n input A : node\n output s : scalar\n s = 0.0\n forall i in node split { s = s - A(i) }\nend",
        );
        assert_eq!(c.reductions.values().next().unwrap().op, ReduceOp::Sum);
    }

    #[test]
    fn max_reduction() {
        let (_, c) = classify_src(
            "program t\n input A : node\n output s : scalar\n s = 0.0\n forall i in node split { s = max(s, A(i)) }\nend",
        );
        assert_eq!(c.reductions.values().next().unwrap().op, ReduceOp::Max);
    }

    #[test]
    fn not_a_reduction_when_carrier_elsewhere() {
        // s appears on the rhs but not as a top-level operand.
        let (_, c) = classify_src(
            "program t\n input A : node\n output s : scalar\n s = 0.0\n forall i in node split { s = (s + A(i)) * 2.0 }\nend",
        );
        assert!(c.reductions.is_empty());
    }

    #[test]
    fn scatter_accumulation_detected() {
        let (_, c) = classify_src(
            "program t\n input V : tri\n output N : node\n map SOM : tri -> node [3]\n forall i in tri split { N(SOM(i,2)) = N(SOM(i,2)) + V(i) }\nend",
        );
        assert_eq!(c.reductions.len(), 1);
    }

    #[test]
    fn mismatched_slot_is_not_a_carrier() {
        // Reads slot 1, writes slot 2: not a self-accumulation.
        let (_, c) = classify_src(
            "program t\n input V : tri\n output N : node\n map SOM : tri -> node [3]\n forall i in tri split { N(SOM(i,2)) = N(SOM(i,1)) + V(i) }\nend",
        );
        assert!(c.reductions.is_empty());
    }

    #[test]
    fn localization_requires_write_first() {
        let (p, c) = classify_src(
            "program t\n input A : node\n output B : node\n var t : scalar\n t = 0.0\n forall i in node split { B(i) = t + A(i)\n t = A(i) }\nend",
        );
        let t = p.lookup("t").unwrap();
        assert!(!c.localized.values().flatten().any(|&v| v == t));
    }

    #[test]
    fn localization_blocked_by_outside_read() {
        let (p, c) = classify_src(
            "program t\n input A : node\n output B : node\n output s : scalar\n var t : scalar\n forall i in node split { t = A(i)\n B(i) = t }\n s = t\nend",
        );
        let t = p.lookup("t").unwrap();
        assert!(!c.localized.values().flatten().any(|&v| v == t));
    }

    #[test]
    fn induction_variable_is_a_sum_reduction() {
        let (_, c) = classify_src(
            "program t\n input A : node\n output B : node\n var k : scalar\n k = 0.0\n forall i in node split { k = k + 1.0\n B(i) = A(i) }\nend",
        );
        assert_eq!(c.reductions.len(), 1);
        assert_eq!(c.reductions.values().next().unwrap().op, ReduceOp::Sum);
    }
}
