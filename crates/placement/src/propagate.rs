//! The paper's recursive propagation functions (§4), faithfully
//! structured as `cross_node` / `cross_arrow`.
//!
//! The paper's sketch notes that "this backtracking mechanism is
//! simplified for clarity" — commit-on-first-success per arrow is not
//! complete when a later sibling arrow invalidates an earlier choice.
//! Completeness is restored here exactly as in the real tool: the
//! remaining obligations (`pending`) are threaded through the
//! recursion, so `cross_arrow`'s per-transition retry explores the
//! full tree. [`first_solution`] returns the first mapping found;
//! `crate::search::enumerate` is the iterative all-solutions version.

use crate::arrowclass::{classify_arrow, propagation_arrows, shape_of};
use crate::solution::Mapping;
use syncplace_automata::{OverlapAutomaton, State};
use syncplace_dfg::{DefClass, Dfg, NodeKind};

/// Persistent mapping-in-progress: `⟨M_n • M_a⟩` of the paper.
/// Cloned on every branch (programs in this class are small; the
/// iterative trail-based version in `search` is the efficient one).
#[derive(Clone)]
struct M {
    node_state: Vec<Option<State>>,
    arrow_trans: Vec<Option<syncplace_automata::Transition>>,
}

struct Ctx<'a> {
    dfg: &'a Dfg,
    automaton: &'a OverlapAutomaton,
    required: Vec<Option<State>>,
    out_prop: Vec<Vec<usize>>,
}

/// Find the first mapping, in the paper's recursive style.
pub fn first_solution(dfg: &Dfg, automaton: &OverlapAutomaton) -> Option<Mapping> {
    let n = dfg.nodes.len();
    let mut required = vec![None; n];
    for (i, node) in dfg.nodes.iter().enumerate() {
        if matches!(node.kind, NodeKind::Output(_) | NodeKind::Exit { .. }) {
            required[i] = Some(automaton.required_state(shape_of(dfg, i)));
        }
    }
    let mut out_prop: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in propagation_arrows(dfg) {
        out_prop[dfg.arrows[i].from].push(i);
    }
    let ctx = Ctx {
        dfg,
        automaton,
        required,
        out_prop,
    };
    let mut m = M {
        node_state: vec![None; n],
        arrow_trans: vec![None; dfg.arrows.len()],
    };
    // Seed inputs ("For every input data, the overlap state is given").
    let mut pending: Vec<usize> = Vec::new();
    for &node in dfg.input_node.values() {
        m.node_state[node] = Some(automaton.input_state(shape_of(dfg, node)));
        // Reversed so the lowest arrow id pops first (same deterministic
        // order as the iterative engine).
        pending.extend(ctx.out_prop[node].iter().rev());
    }
    drive(&ctx, m, pending).map(|m| Mapping {
        node_state: m.node_state.into_iter().map(|s| s.unwrap()).collect(),
        arrow_transition: m.arrow_trans,
    })
}

/// Process pending arrows; when none remain, assign free nodes.
fn drive(ctx: &Ctx, m: M, mut pending: Vec<usize>) -> Option<M> {
    if let Some(arrow) = pending.pop() {
        cross_arrow(ctx, arrow, m, pending)
    } else if let Some(node) = next_unassigned(ctx, &m) {
        for st in free_states(ctx, node) {
            if let Some(r) = ctx.required[node] {
                if r != st {
                    continue;
                }
            }
            if let Some(ok) = cross_node_assign(ctx, node, st, m.clone(), Vec::new()) {
                return Some(ok);
            }
        }
        None
    } else {
        Some(m)
    }
}

/// The paper's `cross_node(node, state, ⟨M_n • M_a⟩)`:
/// * `M_n(node) == state` → consistent revisit, stop here;
/// * `M_n(node) == state₂ ≠ state` → fail;
/// * undefined → extend `M_n`, then propagate through every arrow
///   leaving the node.
fn cross_node(ctx: &Ctx, node: usize, state: State, m: M, pending: Vec<usize>) -> Option<M> {
    match m.node_state[node] {
        Some(s) if s == state => drive(ctx, m, pending),
        Some(_) => None,
        None => {
            if state.shape != shape_of(ctx.dfg, node) {
                return None;
            }
            if state == syncplace_automata::state::SCA1
                && !crate::search::sca1_def_allowed(ctx.dfg, node)
            {
                return None;
            }
            if let Some(r) = ctx.required[node] {
                if r != state {
                    return None;
                }
            }
            cross_node_assign(ctx, node, state, m, pending)
        }
    }
}

fn cross_node_assign(
    ctx: &Ctx,
    node: usize,
    state: State,
    mut m: M,
    mut pending: Vec<usize>,
) -> Option<M> {
    m.node_state[node] = Some(state);
    // "arrows = data_flow arrows leaving node; Foreach arrow ∈ arrows:
    // propagation_success = cross_arrow(arrow, state, ⟨M_n • M_a⟩)" —
    // queued so failures backtrack into earlier arrows' choices.
    pending.extend(ctx.out_prop[node].iter().rev());
    drive(ctx, m, pending)
}

/// The paper's `cross_arrow(arrow, state, ⟨M_n • M_a⟩)`: try every
/// transition leaving the source state on this arrow's class "until
/// one that leads to success is found".
fn cross_arrow(ctx: &Ctx, arrow: usize, m: M, pending: Vec<usize>) -> Option<M> {
    let a = &ctx.dfg.arrows[arrow];
    let state = m.node_state[a.from].expect("source state assigned");
    let class = classify_arrow(ctx.dfg, a);
    for t in ctx.automaton.from_on(state, class) {
        // Array comms only on dependences about real arrays (same rule
        // as the iterative search).
        if matches!(
            t.comm,
            Some(syncplace_automata::CommKind::UpdateOverlap)
                | Some(syncplace_automata::CommKind::AssembleShared)
        ) && !crate::search::arrow_concerns_array(ctx.dfg, a)
        {
            continue;
        }
        let mut m2 = m.clone();
        m2.arrow_trans[arrow] = Some(*t);
        if let Some(ok) = cross_node(ctx, a.to, t.to, m2, pending.clone()) {
            return Some(ok);
        }
    }
    None
}

fn next_unassigned(ctx: &Ctx, m: &M) -> Option<usize> {
    let mut has_in = vec![false; ctx.dfg.nodes.len()];
    for i in propagation_arrows(ctx.dfg) {
        has_in[ctx.dfg.arrows[i].to] = true;
    }
    let mut fallback = None;
    for (i, &hin) in has_in.iter().enumerate() {
        if m.node_state[i].is_some() {
            continue;
        }
        if !hin {
            return Some(i);
        }
        if fallback.is_none() {
            fallback = Some(i);
        }
    }
    fallback
}

fn free_states(ctx: &Ctx, node: usize) -> Vec<State> {
    let shape = shape_of(ctx.dfg, node);
    match &ctx.dfg.nodes[node].kind {
        NodeKind::Def { class, .. } => ctx
            .automaton
            .free_def_states(shape, *class == DefClass::Scatter),
        _ => ctx
            .automaton
            .states
            .iter()
            .copied()
            .filter(|s| s.shape == shape)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{enumerate, SearchOptions};
    use syncplace_automata::predefined::fig6;
    use syncplace_ir::programs;

    #[test]
    fn recursive_finds_a_solution_on_testiv() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let m = first_solution(&dfg, &fig6());
        assert!(m.is_some());
    }

    #[test]
    fn recursive_solution_is_first_enumerated() {
        // Both versions explore choices in the same deterministic
        // order, so the recursive first solution is the enumerator's
        // first solution.
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let rec = first_solution(&dfg, &a).unwrap();
        let (all, _) = enumerate(&dfg, &a, &SearchOptions::default());
        assert_eq!(rec, all[0]);
    }

    #[test]
    fn recursive_solution_verifies() {
        let p = programs::fig5_sketch();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let m = first_solution(&dfg, &a).unwrap();
        crate::checker::verify_mapping(&dfg, &a, &m).unwrap();
    }

    #[test]
    fn illegal_shapes_have_no_mapping() {
        // An edge-based program against the 5-state fig6 automaton has
        // no consistent mapping at all.
        let p = programs::edge_smooth();
        let dfg = syncplace_dfg::build(&p);
        assert!(first_solution(&dfg, &fig6()).is_none());
    }
}
