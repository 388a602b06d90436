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

use crate::arrowclass::{propagation_class, shape_of};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
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
    pub arrows: Arc<[usize]>,
}

/// Iteration domain of a partitioned loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    #[cfg(test)]
    fn reaches(&self, d: usize, u: usize) -> bool {
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
        let p = add_pos(g, InsertionPoint::Before(s.id()), in_time);
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

/// A multiply-rotate hasher for the `Vec<usize>` keys of the group memo
/// and `analyze`'s placement set. `Hash for [usize]` hands `write` the
/// whole slice as bytes, so it consumes 8-byte words. Not collision
/// resistant, and the daemon compiles client text: both tables gain at
/// most one entry per completed mapping, so a collision-heavy program
/// costs at most O(`max_solutions`²) key compares.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of keys hashed by [`WordHasher`].
pub(crate) type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

/// The mapping-independent facts about one partitioned entity loop.
#[derive(Clone)]
pub(crate) struct LoopFacts {
    stmt: StmtId,
    pub(crate) in_time_loop: bool,
    /// Deepest staleness the pattern offers the loop's entity shape.
    max_rank: usize,
    has_scatter: bool,
    /// Any direct definition: with no scatter, the loop is one the
    /// cost model counts as kernel-restrictable.
    has_direct: bool,
    /// Direct definition nodes of the loop's own entity (localized
    /// scalars included: their shape is the loop entity).
    entity_defs: Vec<usize>,
}

impl LoopFacts {
    /// A lower-entity loop with no scatter definitions (scatter loops
    /// must cover the overlap).
    pub(crate) fn restrictable(&self) -> bool {
        self.has_direct && !self.has_scatter
    }

    /// Does the loop iterate the kernel under `node_state`? Top-entity
    /// loops and scatter loops need the full overlap domain;
    /// lower-entity loops follow their definitions' states:
    /// reduction-only loops iterate the kernel, and so do loops all of
    /// whose definitions sit at the deepest staleness.
    pub(crate) fn kernel<S: Copy + Into<Option<State>>>(&self, node_state: &[S]) -> bool {
        !self.has_scatter
            && self.max_rank > 0
            && self.entity_defs.iter().all(|&dn| {
                node_state[dn].into().and_then(|s| s.coh.stale_rank()) == Some(self.max_rank)
            })
    }
}

fn loop_facts(dfg: &Dfg, automaton: &OverlapAutomaton) -> Vec<LoopFacts> {
    use syncplace_dfg::DefClass;
    let mut loops: Vec<LoopFacts> = Vec::new();
    for op in &dfg.flat.ops {
        let Some(ctx) = op.loop_ctx.filter(|c| c.partitioned) else {
            continue;
        };
        let loop_shape = syncplace_automata::Shape::of_entity(ctx.entity);
        let at = match loops.iter().position(|l| l.stmt == ctx.loop_stmt) {
            Some(at) => at,
            None => {
                // Kernel restriction is only sound for definitions that
                // claim the *deepest* staleness the pattern offers —
                // anything weaker still promises correct values beyond
                // the kernel, which only the full domain computes (under
                // the two-layer pattern, a Nod1 definition must keep the
                // first overlap ring alive).
                let max_rank = automaton
                    .states
                    .iter()
                    .filter(|s| s.shape == loop_shape)
                    .filter_map(|s| s.coh.stale_rank())
                    .max()
                    .unwrap_or(0);
                loops.push(LoopFacts {
                    stmt: ctx.loop_stmt,
                    in_time_loop: op.in_time_loop,
                    max_rank,
                    has_scatter: false,
                    has_direct: false,
                    entity_defs: Vec::new(),
                });
                loops.len() - 1
            }
        };
        let Some(dn) = dfg.def_node[op.id] else {
            continue;
        };
        let NodeKind::Def { class, .. } = dfg.nodes[dn].kind else {
            continue;
        };
        let l = &mut loops[at];
        match class {
            DefClass::Scatter => l.has_scatter = true,
            DefClass::Direct => {
                l.has_direct = true;
                if shape_of(dfg, dn) == loop_shape {
                    l.entity_defs.push(dn);
                }
            }
            _ => {}
        }
    }
    loops
}

/// Extracts placements from the mappings of one analysis. Everything
/// that does not depend on the mapping is computed once: the position
/// graph, the per-loop facts, and — memoised as mappings ask for them —
/// the insertion site(s) of each group of Update-crossing arrows.
pub(crate) struct Extractor<'a> {
    dfg: &'a Dfg,
    pos_graph: PosGraph,
    loops: Vec<LoopFacts>,
    /// The arrows that can carry a communication, ascending, with their
    /// variable: propagation arrows with a variable and a class some
    /// comm transition of the automaton has. Keying reads only these.
    pub(crate) comm_arrows: Vec<(usize, VarId)>,
    /// `[comm kind, arrows carrying it…]` → its sites and the id of the
    /// first one's piece (a group's pieces are consecutive). The arrows
    /// name the variable: the group is every arrow of one (variable, kind).
    sites: HashMap<Vec<usize>, (Vec<CommSite>, usize), BuildHasherDefault<WordHasher>>,
    /// Each memoised site's [`Solution::fingerprint`] piece,
    /// `{kind:?}:{var}:{location:?}`, formatted once.
    pieces: Vec<String>,
    /// Each loop's `{stmt}:Kernel` and `{stmt}:Overlap` pieces, indexed
    /// by `IterationDomain as usize`.
    domain_pieces: Vec<[String; 2]>,
    /// Scratch reused across mappings: the comm-crossing arrows as
    /// `(variable, kind, arrow)`, one group's memo key, the placement
    /// key and a placement's piece ids.
    crossing: Vec<(VarId, CommKind, usize)>,
    group: Vec<usize>,
    key: Vec<usize>,
    ids: Vec<usize>,
}

impl<'a> Extractor<'a> {
    pub(crate) fn new(prog: &Program, dfg: &'a Dfg, automaton: &OverlapAutomaton) -> Self {
        let loops = loop_facts(dfg, automaton);
        let domain_pieces = loops
            .iter()
            .map(|l| [format!("{}:Kernel", l.stmt), format!("{}:Overlap", l.stmt)])
            .collect();
        let comm_class = |c| {
            automaton
                .transitions
                .iter()
                .any(|t| t.class == c && t.comm.is_some())
        };
        let comm_arrows = dfg.arrows.iter().enumerate().filter_map(|(i, a)| {
            let var = a.var?;
            propagation_class(dfg, a)
                .is_some_and(comm_class)
                .then_some((i, var))
        });
        Extractor {
            dfg,
            pos_graph: build_pos_graph(prog, dfg),
            loops,
            comm_arrows: comm_arrows.collect(),
            sites: HashMap::default(),
            pieces: Vec::new(),
            domain_pieces,
            crossing: Vec::new(),
            group: Vec::new(),
            key: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// The partitioned entity loops, in program order (the order of
    /// every extracted [`Solution::domains`]).
    pub(crate) fn loops(&self) -> &[LoopFacts] {
        &self.loops
    }

    /// Hand `each` the sites of every group of comm-crossing arrows of
    /// `arrow_transition`, grouped by (variable, comm kind) in that
    /// order, with the id of the first site's piece. Only the
    /// comm-capable arrows are read.
    fn each_group(
        &mut self,
        arrow_transition: &[Option<Transition>],
        mut each: impl FnMut(&[CommSite], usize),
    ) {
        self.crossing.clear();
        for &(i, var) in &self.comm_arrows {
            if let Some(kind) = arrow_transition[i].and_then(|t| t.comm) {
                self.crossing.push((var, kind, i));
            }
        }
        self.crossing.sort_unstable();
        for run in self.crossing.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            let (var, kind, _) = run[0];
            self.group.clear();
            self.group.push(kind as usize);
            self.group.extend(run.iter().map(|c| c.2));
            if let Some((sites, first)) = self.sites.get(&self.group[..]) {
                each(sites, *first);
                continue;
            }
            let mut sites = group_sites(self.dfg, &self.pos_graph, var, kind, &self.group[1..]);
            // By position: `key` lists a group's sites in memo order.
            sites.sort_by_key(|s| s.pos_order);
            let first = self.pieces.len();
            let piece = |s: &CommSite| format!("{:?}:{}:{:?}", s.kind, s.var, s.location);
            self.pieces.extend(sites.iter().map(piece));
            each(&sites, first);
            self.sites.insert(self.group.clone(), (sites, first));
        }
    }

    /// A placement's identity, read off the mapping without extracting
    /// it: two mappings have equal keys iff their [`Solution`]s have
    /// equal [`Solution::fingerprint`]s — the sites' (distinct) `(kind,
    /// variable, location)` triples by group, then by position; then the
    /// domain of each loop.
    pub(crate) fn key(&mut self, mapping: &Mapping) -> &[usize] {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        self.each_group(&mapping.arrow_transition, |sites, _| {
            key.extend(sites.iter().flat_map(|s| [s.kind as usize, s.var, s.pos_order]));
        });
        key.extend(
            self.loops
                .iter()
                .map(|l| usize::from(l.kernel(&mapping.node_state))),
        );
        self.key = key;
        &self.key
    }

    /// The [`Signature`] of this extractor's keys.
    pub(crate) fn signature(&self) -> Signature {
        let may_kernel = |l: &&LoopFacts| !l.has_scatter && l.max_rank > 0;
        let loops: Vec<LoopFacts> = self.loops.iter().filter(may_kernel).cloned().collect();
        let mut field = vec![None; self.dfg.arrows.len()];
        for (k, &(i, _)) in self.comm_arrows.iter().enumerate() {
            field[i] = Some(loops.len() + k);
        }
        Signature {
            fields: loops.len() + self.comm_arrows.len(),
            loops,
            field,
        }
    }

    /// Extract the concrete placement from a mapping.
    #[cfg(test)]
    pub(crate) fn extract(&mut self, mapping: Mapping) -> Solution {
        self.extract_fingerprinted(mapping).0
    }

    /// Extract the concrete placement from a mapping, with its
    /// [`Solution::fingerprint`] assembled from the memoised pieces —
    /// the site pieces sorted, `|`, the domain pieces — formatting
    /// nothing.
    pub(crate) fn extract_fingerprinted(&mut self, mapping: Mapping) -> (Solution, String) {
        let mut comm_sites: Vec<CommSite> = Vec::new();
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        self.each_group(&mapping.arrow_transition, |sites, first| {
            comm_sites.extend_from_slice(sites);
            ids.extend(first..first + sites.len());
        });
        comm_sites.sort_by_key(|s| (s.pos_order, s.var));
        let domains: Vec<_> = self
            .loops
            .iter()
            .map(|l| {
                let domain = if l.kernel(&mapping.node_state) {
                    IterationDomain::Kernel
                } else {
                    IterationDomain::Overlap
                };
                (l.stmt, domain)
            })
            .collect();
        let pieces = &self.pieces;
        ids.sort_unstable_by(|&a, &b| pieces[a].cmp(&pieces[b]));
        let mut fingerprint = String::new();
        join(&mut fingerprint, ids.iter().map(|&id| &pieces[id]));
        fingerprint.push('|');
        let doms = self.domain_pieces.iter().zip(&domains);
        join(&mut fingerprint, doms.map(|(p, &(_, d))| &p[d as usize]));
        self.ids = ids;
        let solution = Solution {
            mapping,
            comm_sites,
            domains,
            cost: crate::cost::SolutionCost::default(),
        };
        (solution, fingerprint)
    }
}

/// What [`Extractor::key`] reads of a mapping, as the search keeps it
/// (DESIGN §5.3): a field per loop that may iterate the kernel, holding
/// [`LoopFacts::kernel`], then one per comm-capable arrow, holding
/// [`Signature::code`]. Equal signatures give equal keys.
pub(crate) struct Signature {
    pub(crate) loops: Vec<LoopFacts>,
    /// Per arrow: its field, if it is comm-capable.
    pub(crate) field: Vec<Option<usize>>,
    pub(crate) fields: usize,
}

impl Signature {
    /// Bits per field: room for "none" and every [`CommKind`].
    pub(crate) const WIDTH: usize = (usize::BITS - CommKind::ALL.len().leading_zeros()) as usize;

    /// An arrow's field: 0 when `t` communicates nothing, else 1 + kind.
    pub(crate) fn code(t: Option<Transition>) -> u64 {
        t.and_then(|t| t.comm).map_or(0, |kind| kind as u64 + 1)
    }
}

/// Append `pieces` to `out`, separated by commas.
fn join<'p>(out: &mut String, pieces: impl Iterator<Item = &'p String>) {
    for (i, p) in pieces.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(p);
    }
}

/// The site(s) realizing one group of Update-crossing arrows: the
/// latest position every def → use path crosses, or — when no single
/// position intercepts them all — one site per destination statement.
fn group_sites(
    dfg: &Dfg,
    pos_graph: &PosGraph,
    var: VarId,
    kind: CommKind,
    arrows: &[usize],
) -> Vec<CommSite> {
    let mut def_ops: Vec<usize> = Vec::new();
    let mut use_ops: Vec<usize> = Vec::new();
    let mut any_output_use = false;
    for &i in arrows {
        let arrow = &dfg.arrows[i];
        match &dfg.nodes[arrow.from].kind {
            NodeKind::Def { op, .. } => def_ops.push(*op),
            // The input pseudo-def precedes op 0: use the entry op.
            NodeKind::Input(_) => def_ops.push(0),
            other => panic!("update from non-def node {other:?}"),
        }
        match &dfg.nodes[arrow.to].kind {
            NodeKind::Use { op, .. } => use_ops.push(*op),
            NodeKind::Output(_) => any_output_use = true,
            other => panic!("update into non-use node {other:?}"),
        }
    }
    let reduce_op = if kind == CommKind::ReduceScalar {
        // Find the reduction op of the def statements.
        def_ops
            .iter()
            .find_map(|&op| {
                dfg.classification
                    .reductions
                    .get(dfg.flat.ops[op].stmt)
                    .map(|r| r.op)
            })
            .or(Some(syncplace_dfg::ReduceOp::Sum))
    } else {
        None
    };
    // Output-destination pairs are interceptable only by AtEnd or
    // positions dominating program exit: program exit is a virtual
    // use, modelled by adding the AtEnd position node as a target.
    let at_end = pos_graph.positions.len() - 1;
    let mut targets: Vec<usize> = use_ops.clone();
    if any_output_use {
        targets.push(pos_graph.pos_node(at_end));
    }
    // Latest valid position. When the only destination is the program
    // exit itself, the AtEnd position cannot intercept its own node:
    // it intercepts output-only groups by construction.
    let output_only = targets == [pos_graph.pos_node(at_end)];
    let chosen = (0..=at_end)
        .rev()
        .find(|&p| (output_only && p == at_end) || pos_graph.intercepts(p, &def_ops, &targets));
    let positions = match chosen {
        Some(p) => vec![p],
        None => {
            // Fallback: the position immediately before each
            // destination's region statement (the enclosing entity
            // loop, or the statement itself).
            let mut per_use: Vec<usize> = Vec::new();
            for &u in &use_ops {
                let o = &dfg.flat.ops[u];
                let stmt = o.loop_ctx.map_or(o.stmt, |ctx| ctx.loop_stmt);
                let before = InsertionPoint::Before(stmt);
                if let Some(p) = pos_graph.positions.iter().position(|ip| *ip == before) {
                    if !per_use.contains(&p) {
                        per_use.push(p);
                    }
                }
            }
            if any_output_use {
                per_use.push(at_end);
            }
            per_use
        }
    };
    let arrows: Arc<[usize]> = arrows.into();
    positions
        .into_iter()
        .map(|p| CommSite {
            kind,
            var,
            reduce_op,
            location: pos_graph.positions[p],
            pos_order: p,
            in_time_loop: pos_graph.pos_in_time_loop[p],
            arrows: arrows.clone(),
        })
        .collect()
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
        let sol = Extractor::new(&p, &dfg, &a).extract(sols[0].clone());
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
        let mut ex = Extractor::new(&p, &dfg, &a);
        for m in sols.iter().take(64) {
            let sol = ex.extract(m.clone());
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
