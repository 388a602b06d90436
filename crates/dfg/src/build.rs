//! Assembly of the [`Dfg`] from the flattened program, the reaching
//! analysis and the classification.

use crate::classify::{classify, Classification};
use crate::graph::*;
use crate::ops::{flatten, FlatProgram, OpId, OpKind};
use crate::reach::{analyze, op_reads, op_write, DefSite, Reaching};
use syncplace_ir::{Access, IdVec, Program, VarId, VarKind};

/// Build the data-flow graph of a program. The program must be
/// shape-valid ([`syncplace_ir::validate::check`]).
pub fn build(prog: &Program) -> Dfg {
    let flat = flatten(prog);
    let reaching = analyze(prog, &flat);
    let classification = classify(prog, &flat, &reaching);

    // --- replicated / mixed-usage analysis --------------------------------
    let mut in_partitioned = vec![false; prog.decls.len()];
    let mut in_seq_loop = vec![false; prog.decls.len()];
    for op in &flat.ops {
        let Some(ctx) = op.loop_ctx else { continue };
        let mut mark = |acc: &Access| {
            if let Access::Direct(_) | Access::Indirect { .. } = acc {
                let v = acc.var();
                if ctx.partitioned {
                    in_partitioned[v] = true;
                } else {
                    in_seq_loop[v] = true;
                }
            }
        };
        for a in op_reads(op) {
            mark(a);
        }
        if let Some(lhs) = op_write(op) {
            mark(lhs);
        }
    }
    let mut replicated = IdVec::default();
    let mut mixed_usage = Vec::new();
    for (v, d) in prog.decls.iter().enumerate() {
        if matches!(d.kind, VarKind::Array { .. }) {
            if !in_partitioned[v] {
                replicated.insert(v, ());
            } else if in_seq_loop[v] {
                mixed_usage.push(v);
            }
        }
    }

    let mut b = Builder {
        prog,
        flat: &flat,
        reaching: &reaching,
        classification: &classification,
        replicated: &replicated,
        nodes: Vec::new(),
        arrows: Vec::new(),
        input_node: Default::default(),
        output_node: Default::default(),
        def_node: vec![None; flat.ops.len()],
        use_nodes: vec![Vec::new(); flat.ops.len()],
        exit_node: vec![None; flat.ops.len()],
    };
    b.make_nodes();
    b.make_value_arrows();
    b.make_true_arrows();
    b.make_control_arrows();
    b.make_anti_output_arrows();
    let carried = b.carried_deps();

    // Destructure the builder to release its borrows before moving the
    // owned analysis results into the Dfg.
    let Builder {
        nodes,
        arrows,
        input_node,
        output_node,
        def_node,
        use_nodes,
        exit_node,
        ..
    } = b;

    let mut out_arrows = vec![Vec::new(); nodes.len()];
    let mut in_arrows = vec![Vec::new(); nodes.len()];
    for (i, a) in arrows.iter().enumerate() {
        out_arrows[a.from].push(i);
        in_arrows[a.to].push(i);
    }

    Dfg {
        nodes,
        arrows,
        carried,
        classification,
        replicated,
        mixed_usage,
        flat,
        input_node,
        output_node,
        def_node,
        use_nodes,
        exit_node,
        out_arrows,
        in_arrows,
    }
}

struct Builder<'a> {
    prog: &'a Program,
    flat: &'a FlatProgram,
    reaching: &'a Reaching,
    classification: &'a Classification,
    replicated: &'a IdVec<()>,
    nodes: Vec<Node>,
    arrows: Vec<Arrow>,
    input_node: IdVec<NodeId>,
    output_node: IdVec<NodeId>,
    def_node: Vec<Option<NodeId>>,
    use_nodes: Vec<Vec<NodeId>>,
    exit_node: Vec<Option<NodeId>>,
}

impl<'a> Builder<'a> {
    fn var_shape(&self, v: VarId) -> ValueShape {
        match &self.prog.decl(v).kind {
            VarKind::Scalar => ValueShape::Scalar,
            VarKind::Array { base } => {
                if self.replicated.contains(v) {
                    ValueShape::Scalar
                } else {
                    ValueShape::Entity(*base)
                }
            }
            VarKind::Map { .. } => unreachable!("maps are not data"),
        }
    }

    fn is_carrier(&self, op: OpId, ord: usize) -> bool {
        let stmt = self.flat.ops[op].stmt;
        self.classification
            .reductions
            .get(stmt)
            .is_some_and(|r| r.carrier_ord == ord)
    }

    /// Is `acc` an element access of a replicated array? Those are
    /// scalar-shaped wherever they occur.
    fn replicated_element(&self, acc: &Access) -> bool {
        !matches!(acc, Access::Scalar(_)) && self.replicated.contains(acc.var())
    }

    fn use_class_shape(&self, op: OpId, ord: usize, acc: &Access) -> (UseClass, ValueShape) {
        let o = &self.flat.ops[op];
        let partitioned_loop = o.loop_ctx.is_some_and(|c| c.partitioned);
        if self.replicated_element(acc) {
            return (UseClass::Scalar, ValueShape::Scalar);
        }
        match acc {
            Access::Scalar(v) => {
                if partitioned_loop && self.is_carrier(op, ord) {
                    (UseClass::Carrier, ValueShape::Scalar)
                } else if let Some(ctx) = o.loop_ctx {
                    if ctx.partitioned && self.classification.is_localized(ctx.loop_stmt, *v) {
                        (UseClass::Direct, ValueShape::Entity(ctx.entity))
                    } else {
                        (UseClass::Scalar, ValueShape::Scalar)
                    }
                } else {
                    (UseClass::Scalar, ValueShape::Scalar)
                }
            }
            Access::Direct(v) => (UseClass::Direct, self.var_shape(*v)),
            Access::Indirect { array, .. } if self.is_carrier(op, ord) => {
                (UseClass::Carrier, self.var_shape(*array))
            }
            Access::Indirect { array, .. } => (UseClass::Gather, self.var_shape(*array)),
            Access::Fixed(v, _) => (UseClass::Fixed, self.var_shape(*v)),
        }
    }

    fn def_class_shape(&self, op: OpId, lhs: &Access) -> (DefClass, ValueShape) {
        let o = &self.flat.ops[op];
        if self.replicated_element(lhs) {
            return (DefClass::Scalar, ValueShape::Scalar);
        }
        match lhs {
            Access::Scalar(v) => {
                if let Some(ctx) = o.loop_ctx {
                    if ctx.partitioned && self.classification.is_localized(ctx.loop_stmt, *v) {
                        return (DefClass::Direct, ValueShape::Entity(ctx.entity));
                    }
                }
                (DefClass::Scalar, ValueShape::Scalar)
            }
            Access::Direct(v) => (DefClass::Direct, self.var_shape(*v)),
            Access::Indirect { array, .. } => (DefClass::Scatter, self.var_shape(*array)),
            Access::Fixed(v, _) => (DefClass::Fixed, self.var_shape(*v)),
        }
    }

    fn make_nodes(&mut self) {
        // Inputs / outputs (maps excluded: connectivity, not data).
        for v in self.prog.inputs() {
            if matches!(self.prog.decl(v).kind, VarKind::Map { .. }) {
                continue;
            }
            let id = self.nodes.len();
            self.nodes.push(Node {
                kind: NodeKind::Input(v),
                shape: self.var_shape(v),
                loop_ctx: None,
            });
            self.input_node.insert(v, id);
        }
        for v in self.prog.outputs() {
            let id = self.nodes.len();
            self.nodes.push(Node {
                kind: NodeKind::Output(v),
                shape: self.var_shape(v),
                loop_ctx: None,
            });
            self.output_node.insert(v, id);
        }
        // Per-op nodes.
        for op in self.flat.ops.iter() {
            match &op.kind {
                OpKind::Assign(a) => {
                    for (ord, acc) in a.rhs.reads().into_iter().enumerate() {
                        let (class, shape) = self.use_class_shape(op.id, ord, acc);
                        let id = self.nodes.len();
                        self.nodes.push(Node {
                            kind: NodeKind::Use {
                                op: op.id,
                                stmt: op.stmt,
                                ord,
                                var: acc.var(),
                                class,
                                access: acc.clone(),
                            },
                            shape,
                            loop_ctx: op.loop_ctx,
                        });
                        self.use_nodes[op.id].push(id);
                    }
                    let (class, shape) = self.def_class_shape(op.id, &a.lhs);
                    let id = self.nodes.len();
                    self.nodes.push(Node {
                        kind: NodeKind::Def {
                            op: op.id,
                            stmt: op.stmt,
                            var: a.lhs.var(),
                            class,
                        },
                        shape,
                        loop_ctx: op.loop_ctx,
                    });
                    self.def_node[op.id] = Some(id);
                }
                OpKind::Exit(e) => {
                    let mut reads = e.lhs.reads();
                    reads.extend(e.rhs.reads());
                    for (ord, acc) in reads.into_iter().enumerate() {
                        let (class, shape) = self.use_class_shape(op.id, ord, acc);
                        let id = self.nodes.len();
                        self.nodes.push(Node {
                            kind: NodeKind::Use {
                                op: op.id,
                                stmt: op.stmt,
                                ord,
                                var: acc.var(),
                                class,
                                access: acc.clone(),
                            },
                            shape,
                            loop_ctx: op.loop_ctx,
                        });
                        self.use_nodes[op.id].push(id);
                    }
                    let id = self.nodes.len();
                    self.nodes.push(Node {
                        kind: NodeKind::Exit {
                            op: op.id,
                            stmt: op.stmt,
                        },
                        shape: ValueShape::Scalar,
                        loop_ctx: None,
                    });
                    self.exit_node[op.id] = Some(id);
                }
            }
        }
    }

    fn make_value_arrows(&mut self) {
        for op in self.flat.ops.iter() {
            let target = self.def_node[op.id].or(self.exit_node[op.id]).unwrap();
            for &u in &self.use_nodes[op.id] {
                self.arrows.push(Arrow {
                    from: u,
                    to: target,
                    kind: DepKind::Value,
                    var: None,
                });
            }
        }
    }

    /// Is the true dependence `def_op → (use_op, carrier)` internal to
    /// one logical reduction (and therefore not a flow to propagate)?
    fn reduction_internal(&self, def_op: OpId, use_op: OpId, use_ord: usize) -> bool {
        if !self.is_carrier(use_op, use_ord) {
            return false;
        }
        let (d, u) = (&self.flat.ops[def_op], &self.flat.ops[use_op]);
        let (Some(dc), Some(uc)) = (d.loop_ctx, u.loop_ctx) else {
            return false;
        };
        if dc.loop_stmt != uc.loop_stmt {
            return false;
        }
        let (Some(dr), Some(ur)) = (
            self.classification.reductions.get(d.stmt),
            self.classification.reductions.get(u.stmt),
        ) else {
            return false;
        };
        if dr.op != ur.op {
            return false;
        }
        // Same variable accumulated?
        op_write(d).map(|a| a.var()) == Some(self.node_var(self.use_nodes[use_op][use_ord]))
    }

    fn node_var(&self, n: NodeId) -> VarId {
        match &self.nodes[n].kind {
            NodeKind::Use { var, .. } | NodeKind::Def { var, .. } => *var,
            NodeKind::Input(v) | NodeKind::Output(v) => *v,
            NodeKind::Exit { .. } => unreachable!(),
        }
    }

    fn make_true_arrows(&mut self) {
        for op in self.flat.ops.iter() {
            for (ord, &u) in self.use_nodes[op.id].iter().enumerate() {
                let v = self.node_var(u);
                for site in self.reaching.defs_of_at(v, op.id) {
                    let from = match site {
                        DefSite::Input(iv) => self.input_node[iv],
                        DefSite::Op(o) => {
                            if o == op.id || self.reduction_internal(o, op.id, ord) {
                                continue;
                            }
                            self.def_node[o].unwrap()
                        }
                    };
                    self.arrows.push(Arrow {
                        from,
                        to: u,
                        kind: DepKind::True,
                        var: Some(v),
                    });
                }
            }
        }
        // Outputs.
        for (v, &out) in self.output_node.iter() {
            for site in self.reaching.defs_of_at_exit(v) {
                let from = match site {
                    DefSite::Input(iv) => self.input_node[iv],
                    DefSite::Op(o) => self.def_node[o].unwrap(),
                };
                self.arrows.push(Arrow {
                    from,
                    to: out,
                    kind: DepKind::True,
                    var: Some(v),
                });
            }
        }
        self.arrows.sort_by_key(|a| (a.from, a.to, a.kind as u8));
    }

    fn make_control_arrows(&mut self) {
        for op in self.flat.ops.iter() {
            let Some(exit) = self.exit_node[op.id] else {
                continue;
            };
            for later in self.flat.ops.iter() {
                if later.id > op.id && later.in_time_loop {
                    if let Some(d) = self.def_node[later.id] {
                        self.arrows.push(Arrow {
                            from: exit,
                            to: d,
                            kind: DepKind::Control,
                            var: None,
                        });
                    }
                }
            }
        }
    }

    fn make_anti_output_arrows(&mut self) {
        for op in self.flat.ops.iter() {
            let Some(lhs) = op_write(op) else { continue };
            let v = lhs.var();
            let d = self.def_node[op.id].unwrap();
            // Anti: pending reads of v at this def.
            for o in self.reaching.in_uses[v][op.id].iter() {
                if o == op.id {
                    continue;
                }
                for &u in &self.use_nodes[o] {
                    if self.node_var(u) == v {
                        self.arrows.push(Arrow {
                            from: u,
                            to: d,
                            kind: DepKind::Anti,
                            var: Some(v),
                        });
                    }
                }
            }
            // Output: reaching defs of v overwritten here.
            for site in self.reaching.defs_of_at(v, op.id) {
                if let DefSite::Op(o) = site {
                    if o != op.id {
                        self.arrows.push(Arrow {
                            from: self.def_node[o].unwrap(),
                            to: d,
                            kind: DepKind::Output,
                            var: Some(v),
                        });
                    }
                }
            }
        }
    }

    /// Pairwise cross-iteration analysis within each entity loop.
    fn carried_deps(&self) -> Vec<CarriedDep> {
        use std::collections::HashSet;
        let mut out = Vec::new();
        let mut seen: HashSet<(DepKind, VarId, usize, usize)> = HashSet::new();

        // Group ops by loop.
        let mut loops: Vec<(crate::ops::LoopCtx, Vec<OpId>)> = Vec::new();
        for op in &self.flat.ops {
            if let Some(ctx) = op.loop_ctx {
                match loops.last_mut() {
                    Some((c, v)) if c.loop_stmt == ctx.loop_stmt => v.push(op.id),
                    _ => loops.push((ctx, vec![op.id])),
                }
            }
        }

        for (ctx, body) in &loops {
            for (ai, &oa) in body.iter().enumerate() {
                for &ob in &body[ai..] {
                    self.carried_between(*ctx, oa, ob, &mut seen, &mut out);
                }
            }
        }
        out
    }

    fn carried_between(
        &self,
        ctx: crate::ops::LoopCtx,
        oa: OpId,
        ob: OpId,
        seen: &mut std::collections::HashSet<(DepKind, VarId, usize, usize)>,
        out: &mut Vec<CarriedDep>,
    ) {
        let a = &self.flat.ops[oa];
        let b = &self.flat.ops[ob];
        let wa = op_write(a);
        let wb = op_write(b);
        let ra = op_reads(a);
        let rb = op_reads(b);

        let mut push = |kind: DepKind, var: VarId, from: OpId, to: OpId| {
            let fs = self.flat.ops[from].stmt;
            let ts = self.flat.ops[to].stmt;
            if !seen.insert((kind, var, fs, ts)) {
                return;
            }
            let localized = matches!(self.prog.decl(var).kind, VarKind::Scalar)
                && self.classification.is_localized(ctx.loop_stmt, var);
            let reduction_ok = self.carried_reduction_ok(kind, var, from, to);
            out.push(CarriedDep {
                loop_stmt: ctx.loop_stmt,
                partitioned: ctx.partitioned,
                kind,
                var,
                from_stmt: fs,
                to_stmt: ts,
                localized,
                reduction_ok,
            });
        };

        // write(a) vs read(b) and write(b) vs read(a): true + anti.
        if let Some(w) = wa {
            for r in &rb {
                if w.var() == r.var() && may_alias_cross_iter(w, r) {
                    push(DepKind::True, w.var(), oa, ob);
                    push(DepKind::Anti, w.var(), ob, oa);
                }
            }
        }
        if oa != ob {
            if let Some(w) = wb {
                for r in &ra {
                    if w.var() == r.var() && may_alias_cross_iter(w, r) {
                        push(DepKind::True, w.var(), ob, oa);
                        push(DepKind::Anti, w.var(), oa, ob);
                    }
                }
            }
        }
        // write/write: output.
        if let (Some(w1), Some(w2)) = (wa, wb) {
            // oa == ob too: one statement in two different iterations.
            if w1.var() == w2.var() && may_alias_cross_iter(w1, w2) {
                push(DepKind::Output, w1.var(), oa, ob);
            }
        }
    }

    fn carried_reduction_ok(&self, kind: DepKind, var: VarId, from: OpId, to: OpId) -> bool {
        let rf = self
            .classification
            .reductions
            .get(self.flat.ops[from].stmt);
        let rt = self.classification.reductions.get(self.flat.ops[to].stmt);
        let (Some(rf), Some(rt)) = (rf, rt) else {
            return false;
        };
        if rf.op != rt.op {
            return false;
        }
        // Both statements must be accumulating `var` itself.
        let acc_from = op_write(&self.flat.ops[from]).map(|a| a.var());
        let acc_to = op_write(&self.flat.ops[to]).map(|a| a.var());
        match kind {
            DepKind::Output => acc_from == Some(var) && acc_to == Some(var),
            DepKind::True | DepKind::Anti => {
                // The read side must be the carrier (checked by both
                // statements being reductions of the same variable).
                acc_from == Some(var) || acc_to == Some(var)
            }
            _ => false,
        }
    }
}

/// Can accesses `a` and `b` touch the same memory location from two
/// *different* iterations of the same entity loop?
fn may_alias_cross_iter(a: &Access, b: &Access) -> bool {
    use Access::*;
    match (a, b) {
        (Scalar(_), _) | (_, Scalar(_)) => true,
        (Direct(_), Direct(_)) => false,
        (Fixed(_, k1), Fixed(_, k2)) => k1 == k2,
        _ => true, // any combination involving an indirection or mixed fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepKind, NodeKind, UseClass, ValueShape};
    use syncplace_ir::parser::parse;
    use syncplace_ir::programs;
    use syncplace_ir::EntityKind;

    #[test]
    fn testiv_nodes_and_shapes() {
        let p = programs::testiv();
        let g = build(&p);
        // vm is localized: its def/use nodes are Tri-shaped.
        let vm = p.lookup("vm").unwrap();
        let vm_nodes: Vec<&crate::graph::Node> = g
            .nodes
            .iter()
            .filter(|n| match &n.kind {
                NodeKind::Def { var, .. } | NodeKind::Use { var, .. } => *var == vm,
                _ => false,
            })
            .collect();
        assert!(!vm_nodes.is_empty());
        assert!(vm_nodes
            .iter()
            .all(|n| n.shape == ValueShape::Entity(EntityKind::Tri)));
        // sqrdiff keeps scalar shape.
        let sq = p.lookup("sqrdiff").unwrap();
        assert!(g.nodes.iter().all(|n| match &n.kind {
            NodeKind::Def { var, .. } | NodeKind::Use { var, .. } if *var == sq =>
                n.shape == ValueShape::Scalar,
            _ => true,
        }));
    }

    #[test]
    fn testiv_has_no_violations() {
        let p = programs::testiv();
        let g = build(&p);
        let viols = g.violations();
        assert!(viols.is_empty(), "{viols:?}");
        // But it does have carried deps that were excused as reductions.
        assert!(g.carried.iter().any(|c| c.reduction_ok));
        assert!(g.carried.iter().any(|c| c.localized));
    }

    #[test]
    fn testiv_carrier_classification() {
        let p = programs::testiv();
        let g = build(&p);
        let carriers = g
            .nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    NodeKind::Use {
                        class: UseClass::Carrier,
                        ..
                    }
                )
            })
            .count();
        // 3 scatter carriers + 1 sqrdiff carrier.
        assert_eq!(carriers, 4);
    }

    #[test]
    fn gather_use_arrows_from_both_defs() {
        let p = programs::testiv();
        let g = build(&p);
        // The OLD gather in the tri loop has true arrows from the init
        // copy def AND the in-loop copy def.
        let old = p.lookup("OLD").unwrap();
        let gather_uses: Vec<usize> = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                matches!(&n.kind, NodeKind::Use { var, class: UseClass::Gather, .. } if *var == old)
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(gather_uses.len(), 3);
        for u in gather_uses {
            let true_ins: Vec<_> = g.in_arrows[u]
                .iter()
                .map(|&i| &g.arrows[i])
                .filter(|a| a.kind == DepKind::True)
                .collect();
            assert_eq!(true_ins.len(), 2, "{true_ins:?}");
        }
    }

    #[test]
    fn reduction_internal_arrows_suppressed() {
        let p = programs::testiv();
        let g = build(&p);
        // No true arrow between two scatter ops of the tri loop.
        let new = p.lookup("NEW").unwrap();
        for a in g.arrows_of_kind(DepKind::True) {
            if a.var != Some(new) {
                continue;
            }
            let (from, to) = (&g.nodes[a.from], &g.nodes[a.to]);
            if let (
                NodeKind::Def {
                    class: crate::graph::DefClass::Scatter,
                    ..
                },
                NodeKind::Use {
                    class: UseClass::Carrier,
                    ..
                },
            ) = (&from.kind, &to.kind)
            {
                panic!("reduction-internal arrow survived: {a:?}");
            }
        }
    }

    #[test]
    fn exit_test_has_value_arrows_and_control_arrows() {
        let p = programs::testiv();
        let g = build(&p);
        let exit = g
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Exit { .. }))
            .unwrap();
        let value_ins = g.in_arrows[exit]
            .iter()
            .filter(|&&i| g.arrows[i].kind == DepKind::Value)
            .count();
        assert_eq!(value_ins, 2); // sqrdiff and epsilon
        let ctrl_outs = g.out_arrows[exit]
            .iter()
            .filter(|&&i| g.arrows[i].kind == DepKind::Control)
            .count();
        assert_eq!(ctrl_outs, 1); // the OLD=NEW copy def
    }

    #[test]
    fn in_place_stencil_is_violation() {
        let cases = programs::taxonomy();
        let taxa = cases.iter().find(|c| c.name == "a-true-carried").unwrap();
        let g = build(&taxa.program);
        let v = g.violations();
        assert!(!v.is_empty());
        assert!(v
            .iter()
            .any(|c| c.kind == DepKind::True && c.fig4_case() == 'a'));
    }

    #[test]
    fn taxonomy_verdicts_match() {
        for case in programs::taxonomy() {
            let g = build(&case.program);
            let fixed_g_violation = has_fixed_or_liveout_violation(&g);
            let legal = g.violations().is_empty() && g.mixed_usage.is_empty() && !fixed_g_violation;
            assert_eq!(
                legal,
                case.legal,
                "case {} ({}): carried={:?}",
                case.name,
                case.why,
                g.violations()
            );
        }
    }

    /// Minimal g-case check used by the taxonomy test: a non-reduction
    /// scalar or fixed-element read of a value defined in a partitioned
    /// loop, occurring outside that loop. (The full version lives in
    /// syncplace-placement.)
    fn has_fixed_or_liveout_violation(g: &Dfg) -> bool {
        for a in g.arrows_of_kind(DepKind::True) {
            let from = &g.nodes[a.from];
            let to = &g.nodes[a.to];
            let from_partitioned = from.loop_ctx.is_some_and(|c| c.partitioned);
            if !from_partitioned {
                continue;
            }
            let from_reduction = match &from.kind {
                NodeKind::Def { stmt, .. } => g.classification.reductions.contains(*stmt),
                _ => false,
            };
            if from_reduction {
                continue;
            }
            // Scalar def escaping its loop, or any fixed-element read.
            let to_outside = to.loop_ctx.map(|c| c.loop_stmt) != from.loop_ctx.map(|c| c.loop_stmt);
            let from_scalar = from.shape == ValueShape::Scalar;
            let to_fixed = matches!(
                &to.kind,
                NodeKind::Use {
                    class: UseClass::Fixed,
                    ..
                }
            );
            if (from_scalar && to_outside) || to_fixed {
                return true;
            }
        }
        false
    }

    #[test]
    fn mixed_usage_detected() {
        let p = parse(
            "program t\n inout A : node\n output s : scalar\n forall i in node split { A(i) = A(i) + 1.0 }\n s = 0.0\n forall i in node seq { s = s + A(i) }\nend",
        )
        .unwrap();
        let g = build(&p);
        assert_eq!(g.mixed_usage.len(), 1);
    }

    #[test]
    fn seq_only_array_is_replicated() {
        let cases = programs::taxonomy();
        let taxh = cases.iter().find(|c| c.name == "h-seq-recurrence").unwrap();
        let g = build(&taxh.program);
        let a = taxh.program.lookup("A").unwrap();
        assert!(g.replicated.contains(a));
        // Its nodes are scalar-shaped.
        assert!(g.nodes.iter().all(|n| match &n.kind {
            NodeKind::Def { var, .. } | NodeKind::Use { var, .. } if *var == a =>
                n.shape == ValueShape::Scalar,
            NodeKind::Input(v) | NodeKind::Output(v) if *v == a => n.shape == ValueShape::Scalar,
            _ => true,
        }));
    }

    #[test]
    fn output_arrow_present() {
        let p = programs::testiv();
        let g = build(&p);
        let res = p.lookup("RESULT").unwrap();
        let out = g.output_node[res];
        assert!(
            !g.in_arrows[out].is_empty(),
            "RESULT output node must receive a true arrow"
        );
    }
}
