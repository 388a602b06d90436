//! From a mapping `⟨M_n • M_a⟩` to a concrete placement.
//!
//! §4: "from M_a we shall get the places where to set communications,
//! and from M_n, we shall get the precise iteration domain of each
//! partitioned loop, i.e. for a loop on nodes, whether it should
//! iterate on kernel nodes only, or also on overlap nodes."
//!
//! A communication "must be inserted somewhere between the extremities
//! of the data-dependence" (§3.4). The candidate insertion points are
//! the gaps between top-level statements (plus program end); a point
//! is valid for a group of Update-crossing dependences when every
//! control-flow path from any of the definitions to any of the uses
//! crosses it. We pick the **latest** valid point, which naturally
//! groups array updates with the scalar reductions that follow them
//! (the grouping advantage the paper discusses for its second TESTIV
//! solution).

use crate::arrowclass::shape_of;
use std::collections::HashMap;
use syncplace_automata::{CommKind, OverlapAutomaton, State, Transition};
use syncplace_dfg::ops::OpKind;
use syncplace_dfg::{Dfg, NodeKind};
use syncplace_ir::{Program, Stmt, StmtId, VarId};

/// A complete mapping: states for all data-flow nodes, transitions for
/// all propagation arrows.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    pub node_state: Vec<State>,
    /// Indexed like `dfg.arrows`; `None` for anti/output arrows.
    pub arrow_transition: Vec<Option<Transition>>,
}

/// Where a communication call is inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InsertionPoint {
    /// Immediately before the top-level statement with this id.
    Before(StmtId),
    /// After the last statement of the program.
    AtEnd,
}

/// One `C$SYNCHRONIZE` site.
#[derive(Debug, Clone, PartialEq)]
pub struct CommSite {
    pub kind: CommKind,
    pub var: VarId,
    /// Reduction operator for `ReduceScalar` sites.
    pub reduce_op: Option<syncplace_dfg::ReduceOp>,
    pub location: InsertionPoint,
    /// Program-order index of the location (for grouping/fusion).
    pub pos_order: usize,
    /// Is the site inside the time loop (executed every iteration)?
    pub in_time_loop: bool,
    /// The dependence arrows this site realizes.
    pub arrows: Vec<usize>,
}

/// Iteration domain of a partitioned loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationDomain {
    Kernel,
    Overlap,
}

/// A ranked, extracted solution.
#[derive(Debug, Clone)]
pub struct Solution {
    pub mapping: Mapping,
    pub comm_sites: Vec<CommSite>,
    /// Domain per partitioned entity loop (statement id of the loop).
    pub domains: Vec<(StmtId, IterationDomain)>,
    pub cost: crate::cost::SolutionCost,
}

impl Solution {
    /// A canonical identity for deduplication: two mappings that place
    /// the same communications and choose the same domains are the
    /// same placement.
    pub fn fingerprint(&self) -> String {
        let mut sites: Vec<String> = self
            .comm_sites
            .iter()
            .map(|s| format!("{:?}:{}:{:?}", s.kind, s.var, s.location))
            .collect();
        sites.sort();
        let doms: Vec<String> = self
            .domains
            .iter()
            .map(|(s, d)| format!("{s}:{d:?}"))
            .collect();
        format!("{}|{}", sites.join(","), doms.join(","))
    }
}

// ---------------------------------------------------------------------------
// Position-augmented CFG
// ---------------------------------------------------------------------------

/// The op/position graph used for dominance tests.
pub struct PosGraph {
    /// Successors of each node; node ids: ops keep their flatten ids,
    /// positions are `nops + pos_index`.
    succs: Vec<Vec<usize>>,
    /// Position payloads, in program order.
    pub positions: Vec<InsertionPoint>,
    /// Whether each position is inside the time loop.
    pub pos_in_time_loop: Vec<bool>,
    nops: usize,
}

impl PosGraph {
    fn pos_node(&self, p: usize) -> usize {
        self.nops + p
    }

    /// All use-ops reachable from `start` without crossing position `p`.
    fn reaches_avoiding(&self, start: usize, avoid_pos: usize, targets: &[usize]) -> bool {
        let avoid = self.pos_node(avoid_pos);
        let mut seen = vec![false; self.succs.len()];
        let mut stack = vec![start];
        // Note: `start` itself is a def op; we look for paths def → use.
        while let Some(n) = stack.pop() {
            for &s in &self.succs[n] {
                if s == avoid || seen[s] {
                    continue;
                }
                seen[s] = true;
                if targets.contains(&s) {
                    return true;
                }
                stack.push(s);
            }
        }
        false
    }

    /// Is position `p` crossed on every path from every def to every use?
    pub fn intercepts(&self, p: usize, defs: &[usize], uses: &[usize]) -> bool {
        for &d in defs {
            if self.reaches_avoiding(d, p, uses) {
                return false;
            }
        }
        true
    }

    /// Is the use reachable from the def at all? (Sanity helper.)
    pub fn reaches(&self, d: usize, u: usize) -> bool {
        let mut seen = vec![false; self.succs.len()];
        let mut stack = vec![d];
        while let Some(n) = stack.pop() {
            for &s in &self.succs[n] {
                if seen[s] {
                    continue;
                }
                seen[s] = true;
                if s == u {
                    return true;
                }
                stack.push(s);
            }
        }
        false
    }
}

/// Build the position-augmented CFG. Mirrors the walk of
/// `syncplace_dfg::ops::flatten`, so op ids align.
pub fn build_pos_graph(prog: &Program, dfg: &Dfg) -> PosGraph {
    let nops = dfg.flat.ops.len();
    let mut g = PosGraph {
        succs: vec![Vec::new(); nops],
        positions: Vec::new(),
        pos_in_time_loop: Vec::new(),
        nops,
    };
    let mut op_counter = 0usize;
    // `pending`: graph node ids whose fall-through successor is next.
    let mut pending: Vec<usize> = Vec::new();
    lower(
        dfg,
        &prog.body,
        &mut g,
        &mut op_counter,
        &mut pending,
        false,
    );
    // Final position: AtEnd.
    let p = add_pos(&mut g, InsertionPoint::AtEnd, false);
    connect(&mut g, &mut pending, p);
    debug_assert_eq!(op_counter, nops);
    g
}

fn add_pos(g: &mut PosGraph, ip: InsertionPoint, in_time: bool) -> usize {
    g.positions.push(ip);
    g.pos_in_time_loop.push(in_time);
    g.succs.push(Vec::new());
    g.nops + g.positions.len() - 1
}

fn connect(g: &mut PosGraph, pending: &mut Vec<usize>, target: usize) {
    for p in pending.drain(..) {
        if !g.succs[p].contains(&target) {
            g.succs[p].push(target);
        }
    }
}

fn lower(
    dfg: &Dfg,
    stmts: &[Stmt],
    g: &mut PosGraph,
    op_counter: &mut usize,
    pending: &mut Vec<usize>,
    in_time: bool,
) {
    for s in stmts {
        // A position before every statement.
        let stmt_id = match s {
            Stmt::Loop(l) => l.id,
            Stmt::Assign(a) => a.id,
            Stmt::TimeLoop(t) => t.id,
            Stmt::ExitIf(e) => e.id,
        };
        let p = add_pos(g, InsertionPoint::Before(stmt_id), in_time);
        connect(g, pending, p);
        pending.push(p);
        match s {
            Stmt::Assign(_) => {
                let op = *op_counter;
                *op_counter += 1;
                connect(g, pending, op);
                pending.push(op);
            }
            Stmt::Loop(l) => {
                for _ in &l.body {
                    let op = *op_counter;
                    *op_counter += 1;
                    connect(g, pending, op);
                    pending.push(op);
                }
            }
            Stmt::ExitIf(_) => {
                let op = *op_counter;
                *op_counter += 1;
                connect(g, pending, op);
                // Fall-through continues; the exit jump is patched by
                // the enclosing time loop.
                pending.push(op);
            }
            Stmt::TimeLoop(t) => {
                let first_new = g.nops + g.positions.len();
                let mut body_pending: Vec<usize> = std::mem::take(pending);
                let ops_before = *op_counter;
                lower(dfg, &t.body, g, op_counter, &mut body_pending, true);
                // Back edge: body fall-through re-enters the first body
                // element (the position before the first body stmt).
                if g.nops + g.positions.len() > first_new || *op_counter > ops_before {
                    for &e in &body_pending {
                        if !g.succs[e].contains(&first_new) {
                            g.succs[e].push(first_new);
                        }
                    }
                }
                // Loop exits: fall-through (cap) + every exit-test op.
                *pending = body_pending;
                for op in ops_before..*op_counter {
                    if matches!(dfg.flat.ops[op].kind, OpKind::Exit(_)) && !pending.contains(&op) {
                        pending.push(op);
                    }
                }
            }
        }
    }
    // Entering the next statement is handled at loop top; leftover
    // `pending` flows to the caller.
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

/// Extract the concrete placement from a mapping.
pub fn extract(
    prog: &Program,
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    mapping: Mapping,
) -> Solution {
    let pos_graph = build_pos_graph(prog, dfg);

    // --- group Update-crossing arrows by (variable, comm kind) -------------
    #[derive(Default)]
    struct Group {
        arrows: Vec<usize>,
        def_ops: Vec<usize>,
        use_ops: Vec<usize>,
        any_output_use: bool,
    }
    let mut groups: HashMap<(VarId, CommKind), Group> = HashMap::new();
    for (i, tr) in mapping.arrow_transition.iter().enumerate() {
        let Some(t) = tr else { continue };
        let Some(kind) = t.comm else { continue };
        let arrow = &dfg.arrows[i];
        let var = arrow.var.expect("comm transitions ride true dependences");
        let g = groups.entry((var, kind)).or_default();
        g.arrows.push(i);
        match &dfg.nodes[arrow.from].kind {
            NodeKind::Def { op, .. } => g.def_ops.push(*op),
            NodeKind::Input(_) => {
                // The input pseudo-def precedes op 0: use the entry op.
                g.def_ops.push(0);
            }
            other => panic!("update from non-def node {other:?}"),
        }
        match &dfg.nodes[arrow.to].kind {
            NodeKind::Use { op, .. } => g.use_ops.push(*op),
            NodeKind::Output(_) => g.any_output_use = true,
            other => panic!("update into non-use node {other:?}"),
        }
    }

    let mut comm_sites: Vec<CommSite> = Vec::new();
    let mut keys: Vec<(VarId, CommKind)> = groups.keys().copied().collect();
    keys.sort();
    for key in keys {
        let g = &groups[&key];
        let (var, kind) = key;
        let reduce_op = if kind == CommKind::ReduceScalar {
            // Find the reduction op of the def statements.
            g.def_ops
                .iter()
                .find_map(|&op| {
                    dfg.classification
                        .reductions
                        .get(&dfg.flat.ops[op].stmt)
                        .map(|r| r.op)
                })
                .or(Some(syncplace_dfg::ReduceOp::Sum))
        } else {
            None
        };
        // Output-destination pairs are interceptable only by AtEnd or
        // positions dominating program exit; treat the AtEnd position
        // as a virtual use: index = the AtEnd pos node itself. We model
        // it by adding the AtEnd position node as a target.
        let mut targets: Vec<usize> = g.use_ops.clone();
        if g.any_output_use {
            // Program exit: the AtEnd position node.
            targets.push(pos_graph.pos_node(pos_graph.positions.len() - 1));
        }
        // Latest valid position. When the only destination is the
        // program exit itself, the AtEnd position cannot intercept its
        // own node, so handle that case directly.
        let mut chosen: Option<usize> = None;
        let n_positions = pos_graph.positions.len();
        for p in 0..n_positions {
            // AtEnd intercepts output-only groups by construction.
            let valid =
                if targets == vec![pos_graph.pos_node(n_positions - 1)] && p == n_positions - 1 {
                    true
                } else {
                    pos_graph.intercepts(p, &g.def_ops, &targets)
                };
            if valid {
                chosen = Some(p); // keep scanning: latest wins
            }
        }
        match chosen {
            Some(p) => comm_sites.push(CommSite {
                kind,
                var,
                reduce_op,
                location: pos_graph.positions[p],
                pos_order: p,
                in_time_loop: pos_graph.pos_in_time_loop[p],
                arrows: g.arrows.clone(),
            }),
            None => {
                // Fallback: one site per destination statement.
                let mut per_use: Vec<usize> = Vec::new();
                for &u in &g.use_ops {
                    // The position immediately before u's statement.
                    let stmt = region_stmt_of_op(prog, dfg, u);
                    if let Some(p) = pos_graph
                        .positions
                        .iter()
                        .position(|ip| *ip == InsertionPoint::Before(stmt))
                    {
                        if !per_use.contains(&p) {
                            per_use.push(p);
                        }
                    }
                }
                if g.any_output_use {
                    per_use.push(n_positions - 1);
                }
                for p in per_use {
                    comm_sites.push(CommSite {
                        kind,
                        var,
                        reduce_op,
                        location: pos_graph.positions[p],
                        pos_order: p,
                        in_time_loop: pos_graph.pos_in_time_loop[p],
                        arrows: g.arrows.clone(),
                    });
                }
            }
        }
    }
    comm_sites.sort_by_key(|s| (s.pos_order, s.var));

    // --- iteration domains ---------------------------------------------------
    let domains = derive_domains(prog, dfg, automaton, &mapping);

    Solution {
        mapping,
        comm_sites,
        domains,
        cost: crate::cost::SolutionCost::default(),
    }
}

/// The top-level (region) statement containing an op: the enclosing
/// entity loop, or the statement itself.
pub fn region_stmt_of_op(_prog: &Program, dfg: &Dfg, op: usize) -> StmtId {
    let o = &dfg.flat.ops[op];
    match o.loop_ctx {
        Some(ctx) => ctx.loop_stmt,
        None => o.stmt,
    }
}

/// Derive the iteration domain of each partitioned entity loop from
/// the mapped definition states.
pub fn derive_domains(
    prog: &Program,
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    mapping: &Mapping,
) -> Vec<(StmtId, IterationDomain)> {
    use syncplace_dfg::DefClass;
    // Group def nodes by loop.
    let mut loops: Vec<(StmtId, IterationDomain)> = Vec::new();
    let mut seen: Vec<StmtId> = Vec::new();
    for op in &dfg.flat.ops {
        let Some(ctx) = op.loop_ctx else { continue };
        if !ctx.partitioned || seen.contains(&ctx.loop_stmt) {
            continue;
        }
        seen.push(ctx.loop_stmt);
        let loop_shape = syncplace_automata::Shape::of_entity(ctx.entity);
        // Kernel restriction is only sound for definitions that claim
        // the *deepest* staleness the pattern offers — anything weaker
        // still promises correct values beyond the kernel, which only
        // the full domain computes (under the two-layer pattern, a
        // Nod1 definition must keep the first overlap ring alive).
        let max_rank = automaton
            .states
            .iter()
            .filter(|s| s.shape == loop_shape)
            .filter_map(|s| s.coh.stale_rank())
            .max()
            .unwrap_or(0);
        // Collect this loop's defs.
        let mut has_scatter = false;
        let mut has_entity_def = false;
        let mut all_max_stale = true;
        for o2 in &dfg.flat.ops {
            if o2.loop_ctx.map(|c| c.loop_stmt) != Some(ctx.loop_stmt) {
                continue;
            }
            let Some(dn) = dfg.def_node[o2.id] else {
                continue;
            };
            let NodeKind::Def { class, .. } = dfg.nodes[dn].kind else {
                continue;
            };
            let state = mapping.node_state[dn];
            match class {
                DefClass::Scatter => has_scatter = true,
                DefClass::Direct
                    // A direct def of the loop's own entity (localized
                    // scalars included: their shape is the loop entity).
                    if shape_of(dfg, dn) == loop_shape => {
                        has_entity_def = true;
                        if state.coh.stale_rank() != Some(max_rank) {
                            all_max_stale = false;
                        }
                    }
                _ => {}
            }
        }
        // Top-entity loops and scatter loops need the full overlap
        // domain; lower-entity loops follow their definitions' states.
        let top = max_rank == 0;
        let domain = if has_scatter || top {
            IterationDomain::Overlap
        } else if !has_entity_def || (all_max_stale && max_rank > 0) {
            // Reduction-only loops iterate the kernel; so do loops all
            // of whose definitions sit at the deepest staleness.
            IterationDomain::Kernel
        } else {
            IterationDomain::Overlap
        };
        loops.push((ctx.loop_stmt, domain));
    }
    let _ = prog;
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_ir::programs;

    #[test]
    fn pos_graph_shape_for_testiv() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let g = build_pos_graph(&p, &dfg);
        // Positions: one per statement (init loop, time loop, 6 body
        // stmts, result loop) + AtEnd = 10.
        assert_eq!(g.positions.len(), 10);
        assert_eq!(*g.positions.last().unwrap(), InsertionPoint::AtEnd);
        // Body positions are flagged in-time-loop.
        let in_loop = g.pos_in_time_loop.iter().filter(|&&b| b).count();
        assert_eq!(in_loop, 6);
    }

    #[test]
    fn pos_graph_back_edge_crosses_body_head() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let g = build_pos_graph(&p, &dfg);
        // The copy op (11) must reach the gather op (2) — and every
        // such path crosses the position before the NEW=0 loop (the
        // first body statement).
        assert!(g.reaches(11, 2));
        let body_head = g
            .positions
            .iter()
            .position(|ip| matches!(ip, InsertionPoint::Before(s) if *s == 3))
            .expect("position before NEW=0 loop (stmt 3)");
        assert!(g.intercepts(body_head, &[11], &[2]));
        // A position after the gather (e.g. before the exit stmt) does
        // NOT intercept the wrap path.
        let before_exit = g
            .positions
            .iter()
            .position(|ip| matches!(ip, InsertionPoint::Before(s) if *s == 15))
            .expect("position before exit stmt");
        assert!(!g.intercepts(before_exit, &[11], &[2]));
    }

    #[test]
    fn fig7_domains_are_all_overlap() {
        // Under the node-overlap pattern there is no stale state to
        // justify a kernel restriction: every direct loop runs the full
        // local domain (reduction accumulation is guarded separately).
        use syncplace_automata::predefined::fig7;
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig7();
        let (sols, _) =
            crate::search::enumerate(&dfg, &a, &crate::search::SearchOptions::default());
        assert!(!sols.is_empty());
        let sol = extract(&p, &dfg, &a, sols[0].clone());
        for &(stmt, d) in &sol.domains {
            assert_eq!(
                d,
                IterationDomain::Overlap,
                "loop s{stmt} should run the full local domain under fig7"
            );
        }
    }

    #[test]
    fn two_layer_mixed_staleness_keeps_full_domain() {
        // Under the two-layer automaton, a copy loop whose definition is
        // only one step stale (Nod1) must keep the full domain — only
        // deepest-staleness (Nod2) definitions may be kernel-restricted.
        use syncplace_automata::predefined::element_overlap_two_layer_2d;
        let p = syncplace_ir::transform::unroll_time_loop_check_last(&programs::testiv_with(8), 2);
        let dfg = syncplace_dfg::build(&p);
        let a = element_overlap_two_layer_2d();
        let (sols, _) =
            crate::search::enumerate(&dfg, &a, &crate::search::SearchOptions::default());
        assert!(!sols.is_empty());
        use syncplace_automata::state::{NOD1, NOD2};
        for m in sols.iter().take(64) {
            let sol = extract(&p, &dfg, &a, m.clone());
            for (i, node) in dfg.nodes.iter().enumerate() {
                let syncplace_dfg::NodeKind::Def {
                    op,
                    class: syncplace_dfg::DefClass::Direct,
                    ..
                } = node.kind
                else {
                    continue;
                };
                let Some(ctx) = dfg.flat.ops[op].loop_ctx else {
                    continue;
                };
                if !ctx.partitioned || node.shape != syncplace_dfg::ValueShape::Entity(ctx.entity) {
                    continue;
                }
                let st = m.node_state[i];
                let dom = sol
                    .domains
                    .iter()
                    .find(|(s, _)| *s == ctx.loop_stmt)
                    .map(|(_, d)| *d);
                if st == NOD1 {
                    assert_eq!(
                        dom,
                        Some(IterationDomain::Overlap),
                        "Nod1 def in s{}",
                        ctx.loop_stmt
                    );
                }
                if st == NOD2 && dom == Some(IterationDomain::Kernel) {
                    // allowed: deepest staleness may restrict
                }
            }
        }
    }

    #[test]
    fn exit_jump_skips_body_tail() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let g = build_pos_graph(&p, &dfg);
        // From the tri-loop defs (ops 4..6) to the RESULT use (op 12):
        // a position before the copy loop (stmt 14) does NOT intercept,
        // because the exit test jumps straight past it.
        let before_copy = g
            .positions
            .iter()
            .position(|ip| matches!(ip, InsertionPoint::Before(s) if *s == 16))
            .unwrap();
        assert!(!g.intercepts(before_copy, &[4, 5, 6], &[12]));
        // But a position before the exit statement does.
        let before_exit = g
            .positions
            .iter()
            .position(|ip| matches!(ip, InsertionPoint::Before(s) if *s == 15))
            .unwrap();
        assert!(g.intercepts(before_exit, &[4, 5, 6], &[12, 11]));
    }
}
