//! The independent placement verifier: abstract interpretation of the
//! data-flow graph over the overlap automaton.
//!
//! Where `placement::search` *enumerates* mappings by backtracking,
//! this pass *verifies* one by a monotone dataflow fixpoint: each node
//! starts from the full set of automaton states its role admits
//! (inputs pinned to their given state, outputs/exit tests to their
//! required state, shapes respected, `Sca1` reserved for reduction
//! definitions), and arc consistency shrinks the sets — forward along
//! every propagation arrow (a state survives at the head only if some
//! admissible transition reaches it from a surviving tail state) and
//! backward (a tail state survives only if some admissible transition
//! leaves it toward a surviving head state) — until nothing changes.
//! The fixpoint over-approximates the solution set: every enumerated
//! mapping assigns each node a state inside its feasible set, so a
//! state outside the set is a hard error (`SA011`), and an empty set
//! proves no placement exists at all (`SA012`).
//!
//! None of the search machinery is reused: the two predicates the
//! semantics share with the search (`Sca1` only on reduction
//! definitions, array communications only on arrows that move a real
//! array) are deliberately reimplemented here so search and verifier
//! stay independent witnesses of the same specification.

use std::collections::BTreeSet;
use syncplace_automata::{CommKind, OverlapAutomaton, State};
use syncplace_dfg::{Arrow, DefClass, Dfg, NodeKind};
use syncplace_ir::diag::{codes, Diagnostic, Report, Span};
use syncplace_placement::arrowclass::{classify_arrow, propagation_arrows, shape_of};
use syncplace_placement::{Mapping, Solution};

/// The dataflow-feasible state sets of every node, plus how many
/// sweeps the fixpoint took to stabilize.
#[derive(Debug, Clone)]
pub struct Feasible {
    /// Per data-flow node: the automaton states it may hold in *some*
    /// consistent mapping (an over-approximation).
    pub states: Vec<BTreeSet<State>>,
    /// Number of full forward+backward sweeps until stable.
    pub sweeps: usize,
}

impl Feasible {
    /// Nodes whose feasible set is empty (placement impossible).
    pub fn empty_nodes(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_empty())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Independent reimplementation of the search's array-communication
/// precondition: an Update/Assemble only makes sense on a dependence
/// that moves a real (distributed) array. A localized scalar takes its
/// loop's entity *shape* but is accessed as a scalar — there is no
/// array to exchange for it.
fn moves_array(dfg: &Dfg, a: &Arrow) -> bool {
    match &dfg.nodes[a.to].kind {
        NodeKind::Use {
            access: syncplace_ir::Access::Scalar(_),
            ..
        } => false,
        _ => a.var.is_some(),
    }
}

/// Independent reimplementation of the `Sca1` rule: only the
/// definition of a genuine reduction statement produces per-processor
/// partials; any other definition is replicated, and a use may freely
/// observe a partial.
fn may_hold_sca1(dfg: &Dfg, node: usize) -> bool {
    match &dfg.nodes[node].kind {
        NodeKind::Def { stmt, .. } => dfg.classification.reductions.contains(*stmt),
        _ => true,
    }
}

/// Is transition `t` admissible on arrow `a`? (Array communications
/// need an array; class matching is handled by the caller.)
fn comm_admissible(dfg: &Dfg, arrow: &Arrow, comm: Option<CommKind>) -> bool {
    !matches!(
        comm,
        Some(CommKind::UpdateOverlap | CommKind::AssembleShared)
    ) || moves_array(dfg, arrow)
}

/// Compute the dataflow-feasible state set of every node by arc
/// consistency over the propagation arrows.
pub fn feasible_states(dfg: &Dfg, automaton: &OverlapAutomaton) -> Feasible {
    let n = dfg.nodes.len();
    let prop = propagation_arrows(dfg);

    // Which nodes receive a propagation arrow? True sources among the
    // definitions are necessarily assigned freely by any solver, so
    // they are pinned to the automaton's free-definition states.
    let mut has_in = vec![false; n];
    for &a in &prop {
        has_in[dfg.arrows[a].to] = true;
    }

    let mut states: Vec<BTreeSet<State>> = Vec::with_capacity(n);
    for (i, node) in dfg.nodes.iter().enumerate() {
        let shape = shape_of(dfg, i);
        let set: BTreeSet<State> = match &node.kind {
            NodeKind::Input(_) => [automaton.input_state(shape)].into(),
            NodeKind::Output(_) | NodeKind::Exit { .. } => [automaton.required_state(shape)].into(),
            NodeKind::Def { class, .. } if !has_in[i] => automaton
                .free_def_states(shape, *class == DefClass::Scatter)
                .into_iter()
                .collect(),
            _ => automaton
                .states
                .iter()
                .copied()
                .filter(|s| s.shape == shape)
                .filter(|s| *s != syncplace_automata::state::SCA1 || may_hold_sca1(dfg, i))
                .collect(),
        };
        states.push(set);
    }

    // Arc consistency to fixpoint. Each sweep revisits every
    // propagation arrow forward and backward; sets only shrink, so
    // termination is bounded by total set size.
    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        let mut changed = false;
        for &ai in &prop {
            let arrow = &dfg.arrows[ai];
            let class = classify_arrow(dfg, arrow);
            let (u, v) = (arrow.from, arrow.to);
            // Forward: states reachable at the head.
            let reach: BTreeSet<State> = automaton
                .transitions
                .iter()
                .filter(|t| {
                    t.class == class
                        && states[u].contains(&t.from)
                        && comm_admissible(dfg, arrow, t.comm)
                })
                .map(|t| t.to)
                .collect();
            let before = states[v].len();
            states[v].retain(|s| reach.contains(s));
            changed |= states[v].len() != before;
            // Backward: states at the tail with a surviving exit.
            let leave: BTreeSet<State> = automaton
                .transitions
                .iter()
                .filter(|t| {
                    t.class == class
                        && states[v].contains(&t.to)
                        && comm_admissible(dfg, arrow, t.comm)
                })
                .map(|t| t.from)
                .collect();
            let before = states[u].len();
            states[u].retain(|s| leave.contains(s));
            changed |= states[u].len() != before;
        }
        if !changed {
            break;
        }
    }
    Feasible { states, sweeps }
}

/// Verify a complete mapping. Unlike
/// `placement::checker::verify_mapping` this pass does not stop at the
/// first violation: it reports *every* finding, and additionally
/// checks each node's state against the dataflow fixpoint
/// ([`feasible_states`]) — a genuinely independent certificate, since
/// no search code runs.
pub fn verify_mapping(dfg: &Dfg, automaton: &OverlapAutomaton, mapping: &Mapping) -> Report {
    let mut r = Report::new();
    if mapping.node_state.len() != dfg.nodes.len()
        || mapping.arrow_transition.len() != dfg.arrows.len()
    {
        r.push(Diagnostic::error(
            codes::MAPPING_SHAPE,
            Span::none(),
            format!(
                "mapping covers {} node states / {} arrow transitions for a graph with {} nodes / {} arrows",
                mapping.node_state.len(),
                mapping.arrow_transition.len(),
                dfg.nodes.len(),
                dfg.arrows.len()
            ),
        ));
        return r;
    }

    // --- per-node role checks ------------------------------------------------
    let prop = propagation_arrows(dfg);
    let mut has_in = vec![false; dfg.nodes.len()];
    for &a in &prop {
        has_in[dfg.arrows[a].to] = true;
    }
    for (i, node) in dfg.nodes.iter().enumerate() {
        let st = mapping.node_state[i];
        let shape = shape_of(dfg, i);
        match &node.kind {
            NodeKind::Input(_) => {
                let want = automaton.input_state(shape);
                if st != want {
                    r.push(Diagnostic::error(
                        codes::INPUT_STATE,
                        Span::node(i),
                        format!("input node {i} at {st}, expected the given state {want}"),
                    ));
                }
            }
            NodeKind::Output(_) | NodeKind::Exit { .. } => {
                let want = automaton.required_state(shape);
                if st != want {
                    r.push(Diagnostic::error(
                        codes::REQUIRED_STATE,
                        Span::node(i),
                        format!("output/exit node {i} at {st}, required {want}"),
                    ));
                }
            }
            NodeKind::Def { class, .. } => {
                if st.shape != shape {
                    r.push(Diagnostic::error(
                        codes::SHAPE_MISMATCH,
                        Span::node(i),
                        format!("node {i} has shape {shape:?} but state {st}"),
                    ));
                }
                if st == syncplace_automata::state::SCA1 && !may_hold_sca1(dfg, i) {
                    r.push(Diagnostic::error(
                        codes::SCA1_MISUSE,
                        Span::node(i),
                        format!(
                            "node {i} holds the partial-reduction state Sca1 but is not a reduction definition"
                        ),
                    ));
                }
                if !has_in[i]
                    && !automaton
                        .free_def_states(shape, *class == DefClass::Scatter)
                        .contains(&st)
                {
                    r.push(Diagnostic::error(
                        codes::FREE_DEF_STATE,
                        Span::node(i),
                        format!(
                            "source definition node {i} at {st}, outside the automaton's free-definition states"
                        ),
                    ));
                }
            }
            _ => {
                if st.shape != shape {
                    r.push(Diagnostic::error(
                        codes::SHAPE_MISMATCH,
                        Span::node(i),
                        format!("node {i} has shape {shape:?} but state {st}"),
                    ));
                }
            }
        }
    }

    // --- per-arrow transition checks ----------------------------------------
    let prop_set: std::collections::HashSet<usize> = prop.iter().copied().collect();
    for (a, tr) in mapping.arrow_transition.iter().enumerate() {
        if !prop_set.contains(&a) {
            if tr.is_some() {
                r.push(Diagnostic::error(
                    codes::ARROW_UNMAPPED,
                    Span::arrow(a),
                    format!("non-propagation arrow {a} carries a transition"),
                ));
            }
            continue;
        }
        let arrow = &dfg.arrows[a];
        let Some(t) = tr else {
            r.push(Diagnostic::error(
                codes::ARROW_UNMAPPED,
                Span::arrow(a),
                format!("propagation arrow {a} has no transition"),
            ));
            continue;
        };
        let class = classify_arrow(dfg, arrow);
        if t.class != class {
            r.push(Diagnostic::error(
                codes::ARROW_CLASS,
                Span::arrow(a),
                format!("arrow {a}: transition class {:?} != {class:?}", t.class),
            ));
        }
        if t.from != mapping.node_state[arrow.from] || t.to != mapping.node_state[arrow.to] {
            r.push(Diagnostic::error(
                codes::ARROW_ENDPOINTS,
                Span::arrow(a),
                format!(
                    "arrow {a}: transition {}→{} does not connect {}→{}",
                    t.from, t.to, mapping.node_state[arrow.from], mapping.node_state[arrow.to]
                ),
            ));
        }
        if !automaton.has(t.from, t.class, t.to) {
            r.push(Diagnostic::error(
                codes::NOT_IN_AUTOMATON,
                Span::arrow(a),
                format!(
                    "arrow {a}: transition {}→{} not in automaton {}",
                    t.from, t.to, automaton.name
                ),
            ));
        }
        if !comm_admissible(dfg, arrow, t.comm) {
            r.push(Diagnostic::error(
                codes::COMM_NO_ARRAY,
                Span::arrow(a),
                format!(
                    "arrow {a}: {:?} communication on a dependence that moves no distributed array",
                    t.comm.unwrap()
                ),
            ));
        }
    }

    // --- fixpoint membership -------------------------------------------------
    let feas = feasible_states(dfg, automaton);
    for (i, set) in feas.states.iter().enumerate() {
        if set.is_empty() {
            r.push(Diagnostic::error(
                codes::NO_FEASIBLE_STATE,
                Span::node(i),
                format!(
                    "node {i} has an empty dataflow-feasible state set: no placement exists under automaton {}",
                    automaton.name
                ),
            ));
        } else if !set.contains(&mapping.node_state[i]) {
            r.push(Diagnostic::error(
                codes::INFEASIBLE_STATE,
                Span::node(i),
                format!(
                    "node {i} at {}, outside its dataflow-feasible set {{{}}}",
                    mapping.node_state[i],
                    set.iter()
                        .map(|s| s.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
    }

    r.sort();
    r
}

/// Verify an extracted solution (its underlying mapping).
pub fn verify_solution(dfg: &Dfg, automaton: &OverlapAutomaton, sol: &Solution) -> Report {
    verify_mapping(dfg, automaton, &sol.mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_ir::programs;
    use syncplace_placement::{enumerate, SearchOptions};

    #[test]
    fn fixpoint_accepts_every_enumerated_solution() {
        for automaton in [fig6(), fig7()] {
            let p = programs::testiv();
            let dfg = syncplace_dfg::build(&p);
            let (sols, _) = enumerate(&dfg, &automaton, &SearchOptions::default());
            assert!(!sols.is_empty());
            for m in &sols {
                let rep = verify_mapping(&dfg, &automaton, m);
                assert!(rep.is_clean(), "{} rejected a solution:\n{rep}", automaton.name);
            }
        }
    }

    #[test]
    fn fixpoint_is_tight_on_inputs() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let feas = feasible_states(&dfg, &fig6());
        for (i, node) in dfg.nodes.iter().enumerate() {
            if matches!(node.kind, NodeKind::Input(_)) {
                assert_eq!(feas.states[i].len(), 1, "input node {i}");
            }
            assert!(!feas.states[i].is_empty(), "node {i} infeasible");
        }
        assert!(feas.sweeps >= 2, "fixpoint should need at least one propagation sweep");
    }

    #[test]
    fn empty_feasible_set_when_automaton_cannot_type_the_data() {
        // fig6 has no edge states: the edge-based program is infeasible
        // and the fixpoint proves it (search agrees: zero solutions).
        let p = programs::edge_smooth();
        let dfg = syncplace_dfg::build(&p);
        let feas = feasible_states(&dfg, &fig6());
        assert!(!feas.empty_nodes().is_empty());
    }

    #[test]
    fn corrupted_state_lands_outside_the_fixpoint() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let (sols, _) = enumerate(&dfg, &a, &SearchOptions::default());
        let mut m = sols[0].clone();
        let i = m
            .node_state
            .iter()
            .position(|s| *s == syncplace_automata::state::NOD1)
            .unwrap();
        m.node_state[i] = syncplace_automata::state::NOD0;
        let rep = verify_mapping(&dfg, &a, &m);
        assert!(!rep.is_error_free());
    }
}
