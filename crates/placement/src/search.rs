//! Iterative, trail-based enumeration of all mappings — the
//! production version of the propagation (§4: "For efficiency,
//! recursive functions have been implemented iteratively"; here the
//! explicit obligation stack plays that role and also enables full
//! solution enumeration: "In general, for a given program and a given
//! overlapping pattern, there may be more than one solution mapping").
//!
//! A visit searches nothing it can look up: the transitions leaving a
//! `(state, class)` pair are one index into a dense run table, and the
//! viable ones are marked in one pass per crossing.
//! Run for [`crate::analyze`], the search also keeps the placement
//! signature as it assigns and lends only the first mapping of each.

use crate::arrowclass::{propagation_arrows, propagation_class, shape_of};
use crate::solution::{Mapping, Signature, WordSet};
use syncplace_automata::{ArrowClass, Coherence, OverlapAutomaton, Shape, State, Transition};
use syncplace_dfg::{DefClass, Dfg, NodeKind};

/// Search options.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Stop after this many complete mappings, duplicates of one
    /// placement included (lent or not). The cut is silent — it does not set
    /// [`SearchStats::truncated`]: under the default 4 096, `tet_heat`
    /// × fig8 stops at 4 096 of its 6 912 mappings (102 of its 122
    /// placements, the best one among them).
    pub max_solutions: usize,
    /// Abort (truncated = true) after this many propagation steps.
    pub max_visits: u64,
    /// When set: arrows in the set must cross a communication
    /// transition, arrows outside it must not. Used by the
    /// simulation-mode checker (§5.2) to validate a *given* placement.
    pub forced_comm: Option<std::collections::HashSet<usize>>,
    /// §5.2 optimization, on by default: "merging sequences of
    /// dependences that would not change the (overlap) state" — a chain
    /// of arrows whose transition is uniquely determined by the source
    /// state is crossed in one step, without obligations or branching
    /// bookkeeping. It "does not change the solution set" (the mapping
    /// *set* is equal, the enumeration order is not), and
    /// [`crate::analyze`] ranks placements by `(score, fingerprint)`,
    /// so its ranked fingerprints are the same either way whenever
    /// `max_solutions` does not cut the enumeration short — hence the
    /// merged search is what every caller runs. `false` is the
    /// off-switch of the §5.2 ablation (E9) and of the set-equality
    /// test.
    pub collapse_deterministic: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        // Spelled through a local so that `scripts/clippy.sh` can grep
        // for any site that still overrides the field to its default.
        let merged = true;
        SearchOptions {
            max_solutions: 4096,
            max_visits: 20_000_000,
            forced_comm: None,
            collapse_deterministic: merged,
        }
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Propagation steps (arrow crossings attempted).
    pub visits: u64,
    /// Dead ends (an arrow with no viable transition).
    pub backtracks: u64,
    /// Number of complete mappings emitted.
    pub solutions: usize,
    /// True when `max_visits` stopped the search early. A stop at
    /// `max_solutions` leaves it false.
    pub truncated: bool,
}

/// Enumerate all mappings `⟨M_n • M_a⟩` satisfying §3.4's conditions.
/// It counts mappings, duplicates of one placement included: that is
/// what `max_solutions` caps and [`SearchStats::solutions`] reports.
pub fn enumerate(
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    opts: &SearchOptions,
) -> (Vec<Mapping>, SearchStats) {
    let mut mappings = Vec::new();
    let stats = search(dfg, automaton, opts, None, |m| mappings.push(m.clone()));
    (mappings, stats)
}

/// The one search behind [`enumerate`] and [`crate::analyze`]: each
/// complete mapping, in enumeration order, is lent to `sink` and
/// overwritten by the next — a caller that keeps one clones it. Given
/// a `signature`, only the first mapping of each signature is lent.
pub(crate) fn search(
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    opts: &SearchOptions,
    signature: Option<&Signature>,
    mut sink: impl FnMut(&Mapping),
) -> SearchStats {
    let mut s = Search::seeded(dfg, automaton, opts);
    s.sig = vec![0; signature.map_or(0, |g| g.fields.div_ceil(PER_WORD))];
    s.signature = signature;
    s.go(&mut sink);
    s.stats
}

/// Does a dependence arrow concern a real (distributed) array — the
/// precondition for carrying an array update/assembly communication?
/// Localized scalars take their loop's entity *shape* but are accessed
/// as scalars: there is no array to exchange for them.
pub(crate) fn arrow_concerns_array(dfg: &Dfg, a: &syncplace_dfg::Arrow) -> bool {
    use syncplace_dfg::NodeKind;
    match &dfg.nodes[a.to].kind {
        NodeKind::Use {
            access: syncplace_ir::Access::Scalar(_),
            ..
        } => false,
        _ => a.var.is_some(),
    }
}

/// May this node hold the partial-reduction state `Sca1`? Only the
/// definitions of genuine reduction statements produce per-processor
/// partials; a plain scalar definition is always replicated (assigning
/// it `Sca1` would invite a meaningless "reduce" of a non-partial).
/// Uses of scalars may see `Sca1` freely (they read a reduction def).
pub(crate) fn sca1_def_allowed(dfg: &Dfg, node: usize) -> bool {
    match &dfg.nodes[node].kind {
        NodeKind::Def { stmt, .. } => dfg.classification.reductions.contains(*stmt),
        _ => true,
    }
}

struct Search<'a> {
    dfg: &'a Dfg,
    opts: &'a SearchOptions,
    required: Vec<Option<State>>,
    out_prop: Vec<Vec<usize>>,
    /// Does a propagation arrow enter this node? (Sources are assigned
    /// freely first.)
    has_in: Vec<bool>,
    classes: Vec<Option<ArrowClass>>,
    shapes: Vec<Shape>,
    /// Does this arrow concern a real (distributed) array variable?
    arrow_is_array: Vec<bool>,
    /// May this node take the `Sca1` state (reduction defs only)?
    sca1_def_ok: Vec<bool>,
    /// The automaton's transitions, stably sorted by `(from, class)`:
    /// each run is `from_on`'s answer, in its order (see [`Self::run`]).
    trans: Vec<Transition>,
    /// The dense run table: the run of `(from, class)` is
    /// `trans[run_start[i]..run_start[i + 1]]`, `i = run_index(from,
    /// class)`. The index grows with the sort key, so runs abut.
    run_start: Vec<usize>,
    /// The states a freely assigned node may take, per node.
    free: Vec<Vec<State>>,
    node_state: Vec<Option<State>>,
    arrow_trans: Vec<Option<Transition>>,
    obligations: Vec<usize>,
    /// `(node, arrow)` pairs assigned by the open crossings, innermost
    /// last: a crossing undoes its own suffix.
    trail: Vec<(usize, usize)>,
    /// The complete mapping lent to the sink, overwritten in place.
    live: Mapping,
    /// When set, only the first mapping of each signature is lent: the
    /// live packed fields, and every signature completed so far.
    signature: Option<&'a Signature>,
    sig: Vec<u64>,
    seen: WordSet<Box<[u64]>>,
    stats: SearchStats,
}

impl<'a> Search<'a> {
    /// A fresh search over `dfg`: the per-(DFG, automaton) tables, and
    /// the program inputs seeded at their given states.
    fn seeded(dfg: &'a Dfg, automaton: &'a OverlapAutomaton, opts: &'a SearchOptions) -> Self {
        let n = dfg.nodes.len();

        // Required states: outputs and exit tests must end coherent.
        let required: Vec<Option<State>> = (0..n)
            .map(|i| {
                matches!(
                    dfg.nodes[i].kind,
                    NodeKind::Output(_) | NodeKind::Exit { .. }
                )
                .then(|| automaton.required_state(shape_of(dfg, i)))
            })
            .collect();

        // Outgoing propagation arrows per node, ascending arrow id.
        let mut out_prop: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in propagation_arrows(dfg) {
            out_prop[dfg.arrows[i].from].push(i);
        }

        let classes: Vec<_> = dfg
            .arrows
            .iter()
            .map(|a| propagation_class(dfg, a))
            .collect();
        let mut has_in = vec![false; n];
        for (a, class) in dfg.arrows.iter().zip(&classes) {
            has_in[a.to] |= class.is_some();
        }
        let mut trans = automaton.transitions.clone();
        trans.sort_by_key(|t| (t.from, t.class as u8));
        // Run lengths, then their prefix sums. The fields of an
        // automaton are public, so the viability mask's bound is
        // checked here as well as in `OverlapAutomaton::new`.
        let mut run_start = vec![0; RUNS + 1];
        for t in &trans {
            run_start[run_index(t.from, t.class) + 1] += 1;
        }
        for i in 1..=RUNS {
            let len = run_start[i];
            assert!(
                len <= OverlapAutomaton::MAX_RUN,
                "{}: run of {len}",
                automaton.name
            );
            run_start[i] += run_start[i - 1];
        }
        let free = (0..n)
            .map(|i| {
                free_states(dfg, automaton, i)
                    .into_iter()
                    .filter(|st| required[i].is_none_or(|r| r == *st))
                    .collect()
            })
            .collect();

        let mut s = Search {
            dfg,
            opts,
            required,
            out_prop,
            has_in,
            classes,
            shapes: (0..n).map(|i| shape_of(dfg, i)).collect(),
            arrow_is_array: dfg
                .arrows
                .iter()
                .map(|a| arrow_concerns_array(dfg, a))
                .collect(),
            sca1_def_ok: (0..n).map(|i| sca1_def_allowed(dfg, i)).collect(),
            trans,
            run_start,
            free,
            node_state: vec![None; n],
            arrow_trans: vec![None; dfg.arrows.len()],
            obligations: Vec::new(),
            trail: Vec::new(),
            live: Mapping {
                node_state: Vec::with_capacity(n),
                arrow_transition: Vec::with_capacity(dfg.arrows.len()),
            },
            signature: None,
            sig: Vec::new(),
            seen: WordSet::default(),
            stats: SearchStats::default(),
        };
        for &node in dfg.input_node.values() {
            s.node_state[node] = Some(automaton.input_state(shape_of(dfg, node)));
            s.obligations.extend(s.out_prop[node].iter().rev());
        }
        s
    }

    fn done(&self) -> bool {
        self.stats.truncated || self.stats.solutions >= self.opts.max_solutions
    }

    /// The indices in `self.trans` of the transitions leaving `from` on
    /// class `class` — `OverlapAutomaton::from_on`'s answer, in its
    /// order, read off the run table: at most
    /// [`OverlapAutomaton::MAX_RUN`] of them.
    fn run(&self, from: State, class: ArrowClass) -> std::ops::Range<usize> {
        let i = run_index(from, class);
        self.run_start[i]..self.run_start[i + 1]
    }

    /// Is transition `t` admissible on arrow `arrow`?
    /// Array update/assembly communications only make sense on
    /// dependences about real (distributed) arrays — a localized
    /// scalar has the loop entity's *shape* but no array to exchange.
    fn comm_ok(&self, arrow: usize, t: &Transition) -> bool {
        use syncplace_automata::CommKind;
        if matches!(
            t.comm,
            Some(CommKind::UpdateOverlap | CommKind::AssembleShared)
        ) && !self.arrow_is_array[arrow]
        {
            return false;
        }
        match &self.opts.forced_comm {
            None => true,
            Some(set) => set.contains(&arrow) == t.comm.is_some(),
        }
    }

    /// Is `t` admissible on `arrow` (into `to`) in the current state?
    fn viable(&self, arrow: usize, to: usize, t: &Transition) -> bool {
        self.comm_ok(arrow, t) && self.candidate_viable(to, t)
    }

    fn go(&mut self, sink: &mut impl FnMut(&Mapping)) {
        if self.done() {
            return;
        }
        if let Some(arrow_id) = self.obligations.pop() {
            self.stats.visits += 1;
            if self.stats.visits > self.opts.max_visits {
                self.stats.truncated = true;
                self.obligations.push(arrow_id);
                return;
            }
            let a = &self.dfg.arrows[arrow_id];
            let from_state = self.node_state[a.from].expect("source assigned");
            let class = self.classes[arrow_id].expect("propagation arrow");
            let to = a.to;
            // Admission (shape, Sca1-on-reductions-only, required
            // states, §5.2 simulation filter) is checked once, up
            // front, into a mask over the run: an arrow with no viable
            // transition is one dead end. Each descent below restores
            // what it assigns, so a transition is viable inside the
            // loop iff it was up front.
            let run = self.run(from_state, class);
            let mut viable = 0u64;
            for (bit, t) in self.trans[run.clone()].iter().enumerate() {
                viable |= u64::from(self.viable(arrow_id, to, t)) << bit;
            }
            if viable == 0 {
                self.stats.backtracks += 1;
                self.obligations.push(arrow_id);
                return;
            }
            while viable != 0 && !self.done() {
                let t = self.trans[run.start + viable.trailing_zeros() as usize];
                viable &= viable - 1;
                match self.node_state[to] {
                    // §5.2 collapse: a uniquely-determined, state-
                    // preserving crossing onto an already-consistent
                    // node needs no branching bookkeeping.
                    Some(_) => {
                        self.set_arrow(arrow_id, Some(t));
                        self.go(sink);
                        self.set_arrow(arrow_id, None);
                    }
                    None => {
                        let assigned = self.trail.len();
                        self.node_state[to] = Some(t.to);
                        self.set_arrow(arrow_id, Some(t));
                        self.trail.push((to, arrow_id));
                        // §5.2 chain collapse: follow forced single-
                        // transition chains eagerly ("merging sequences
                        // of dependences that would not change the
                        // [search] state" — no obligations, no branch
                        // bookkeeping for them).
                        let mut tail = to;
                        if self.opts.collapse_deterministic {
                            while let Some((na, nn, nt)) = self.forced_step(tail) {
                                self.node_state[nn] = Some(nt.to);
                                self.set_arrow(na, Some(nt));
                                self.trail.push((nn, na));
                                tail = nn;
                            }
                        }
                        let mark = self.obligations.len();
                        // Push the out arrows of every newly assigned
                        // node except those already consumed by the
                        // chain, descending so lower arrow ids pop first.
                        let chain = &self.trail[assigned..];
                        for &(n, _) in chain {
                            for &a in &self.out_prop[n] {
                                if !chain.iter().any(|&(_, c)| c == a) {
                                    self.obligations.push(a);
                                }
                            }
                        }
                        self.obligations[mark..].sort_unstable_by(|x, y| y.cmp(x));
                        self.go(sink);
                        self.obligations.truncate(mark);
                        while self.trail.len() > assigned {
                            let (n, a) = self.trail.pop().expect("assigned above");
                            self.node_state[n] = None;
                            self.set_arrow(a, None);
                        }
                    }
                }
            }
            self.obligations.push(arrow_id);
        } else if let Some(node) = self.next_unassigned() {
            for k in 0..self.free[node].len() {
                if self.done() {
                    break;
                }
                self.node_state[node] = Some(self.free[node][k]);
                let mark = self.obligations.len();
                self.obligations.extend(self.out_prop[node].iter().rev());
                self.go(sink);
                self.obligations.truncate(mark);
                self.node_state[node] = None;
            }
        } else {
            // Complete mapping.
            self.stats.solutions += 1;
            if let Some(g) = self.signature {
                for (i, l) in g.loops.iter().enumerate() {
                    self.set_field(i, u64::from(l.kernel(&self.node_state)));
                }
                if self.seen.contains(&self.sig[..]) {
                    return;
                }
                self.seen.insert(self.sig[..].into());
            }
            let live = &mut self.live;
            live.node_state.clear();
            live.node_state
                .extend(self.node_state.iter().map(|s| s.expect("complete mapping")));
            live.arrow_transition.clone_from(&self.arrow_trans);
            sink(live);
        }
    }

    /// Set the transition of `arrow`, and its signature field with it.
    fn set_arrow(&mut self, arrow: usize, t: Option<Transition>) {
        self.arrow_trans[arrow] = t;
        if let Some(k) = self.signature.and_then(|g| g.field[arrow]) {
            self.set_field(k, Signature::code(t));
        }
    }

    fn set_field(&mut self, k: usize, code: u64) {
        let (w, shift) = (k / PER_WORD, k % PER_WORD * Signature::WIDTH);
        self.sig[w] = self.sig[w] & !(((1 << Signature::WIDTH) - 1) << shift) | code << shift;
    }

    /// Would `go` descend into `t` on an arrow into `to` right now?
    /// Mirrors the admission checks of the two arms of `go` without
    /// mutating anything.
    fn candidate_viable(&self, to: usize, t: &Transition) -> bool {
        match self.node_state[to] {
            Some(s) => s == t.to,
            None => {
                t.to.shape == self.shapes[to]
                    && (t.to != syncplace_automata::state::SCA1 || self.sca1_def_ok[to])
                    && self.required[to].is_none_or(|r| r == t.to)
            }
        }
    }

    /// One step of a forced chain from `node`: its unique outgoing
    /// arrow, when exactly one transition is viable and the target is
    /// fresh. Used by the §5.2 collapse.
    fn forced_step(&self, node: usize) -> Option<(usize, usize, Transition)> {
        let outs = &self.out_prop[node];
        if outs.len() != 1 {
            return None;
        }
        let a = outs[0];
        let to = self.dfg.arrows[a].to;
        if self.node_state[to].is_some() {
            return None;
        }
        let from_state = self.node_state[node]?;
        let class = self.classes[a]?;
        let mut viable = self.trans[self.run(from_state, class)]
            .iter()
            .filter(|t| self.viable(a, to, t));
        let t = *viable.next()?;
        // A second viable transition makes this a branch point, not a
        // forced chain.
        viable.next().is_none().then_some((a, to, t))
    }

    /// Pick the next node to assign freely: prefer true sources (no
    /// incoming propagation arrows), else break a cycle at the lowest
    /// unassigned node.
    fn next_unassigned(&self) -> Option<usize> {
        let mut fallback = None;
        for (i, &hin) in self.has_in.iter().enumerate() {
            if self.node_state[i].is_some() {
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
}

/// Signature fields per packed word.
const PER_WORD: usize = 64 / Signature::WIDTH;

/// The number of `(from, class)` runs the table has room for.
const RUNS: usize = Shape::ALL.len() * Coherence::ALL.len() * ArrowClass::ALL.len();

/// The run table's index of `(from, class)`: increasing in the
/// `(from, class as u8)` order `Search::seeded` sorts by.
fn run_index(from: State, class: ArrowClass) -> usize {
    (from.shape as usize * Coherence::ALL.len() + from.coh as usize) * ArrowClass::ALL.len()
        + class as usize
}

/// Candidate states for a freely-assigned node.
fn free_states(dfg: &Dfg, automaton: &OverlapAutomaton, node: usize) -> Vec<State> {
    let shape = shape_of(dfg, node);
    match &dfg.nodes[node].kind {
        NodeKind::Def { class, .. } => {
            automaton.free_def_states(shape, *class == DefClass::Scatter)
        }
        // Cycle-break or uninitialized read: any state of the shape
        // (consistency with incoming arrows is still enforced when
        // those arrows are crossed).
        _ => automaton
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
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_automata::CommKind;
    use syncplace_ir::programs;

    fn comm_count(_dfg: &Dfg, m: &Mapping, kind: CommKind) -> usize {
        m.arrow_transition
            .iter()
            .filter(|t| t.map(|t| t.comm == Some(kind)).unwrap_or(false))
            .count()
    }

    #[test]
    fn testiv_fig6_has_solutions() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let (sols, stats) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        assert!(!sols.is_empty(), "stats: {stats:?}");
        assert!(!stats.truncated);
        // Every solution reduces sqrdiff exactly over the true deps
        // into its uses (the exit test), i.e. at least one reduce comm.
        for m in &sols {
            assert!(comm_count(&dfg, m, CommKind::ReduceScalar) >= 1);
            assert!(comm_count(&dfg, m, CommKind::UpdateOverlap) >= 1);
        }
    }

    #[test]
    fn testiv_fig7_has_solutions() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let (sols, stats) = enumerate(&dfg, &fig7(), &SearchOptions::default());
        assert!(!sols.is_empty(), "stats: {stats:?}");
        for m in &sols {
            assert!(comm_count(&dfg, m, CommKind::AssembleShared) >= 1);
        }
    }

    #[test]
    fn fig5_sketch_matches_paper_walkthrough() {
        // §3.3: a communication restoring NEW's coherence must sit
        // between its scatter def and the last gather; the sqrdiff
        // reduction needs a total-sum communication.
        let p = programs::fig5_sketch();
        let dfg = syncplace_dfg::build(&p);
        let (sols, _) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        assert!(!sols.is_empty());
        for m in &sols {
            assert!(comm_count(&dfg, m, CommKind::UpdateOverlap) >= 1);
            assert!(comm_count(&dfg, m, CommKind::ReduceScalar) >= 1);
        }
    }

    #[test]
    fn solutions_are_distinct() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let (sols, _) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        for i in 0..sols.len() {
            for j in i + 1..sols.len() {
                assert_ne!(sols[i], sols[j], "duplicate mappings {i} and {j}");
            }
        }
    }

    #[test]
    fn every_mapping_satisfies_the_three_conditions() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let (sols, _) = enumerate(&dfg, &a, &SearchOptions::default());
        for m in &sols {
            crate::checker::verify_mapping(&dfg, &a, m).unwrap();
        }
    }

    #[test]
    fn edge_program_needs_full_automaton() {
        use syncplace_automata::predefined::element_overlap_2d_full;
        let p = programs::edge_smooth();
        let dfg = syncplace_dfg::build(&p);
        // The 5-state fig6 cannot type edge-based data...
        let (sols5, _) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        assert!(sols5.is_empty());
        // ...the full 2-D element-overlap automaton can.
        let (sols, _) = enumerate(&dfg, &element_overlap_2d_full(), &SearchOptions::default());
        assert!(!sols.is_empty());
    }

    type MappingKey<'m> = (&'m [State], &'m [Option<Transition>]);

    fn set(ms: &[Mapping]) -> std::collections::HashSet<MappingKey<'_>> {
        ms.iter()
            .map(|m| (&m.node_state[..], &m.arrow_transition[..]))
            .collect()
    }

    #[test]
    fn chain_collapse_preserves_solutions_and_saves_visits() {
        let (progs, automata) = crate::tests::corpus();
        // Both at the default cap, which two pairs reach (TESTIV under
        // the two-layer automaton, tet_heat under fig8: their full sets
        // are out of reach of `max_visits`); the cut falls on the same
        // set in either order there.
        let merged_opts = SearchOptions::default();
        let plain_opts = SearchOptions {
            collapse_deterministic: false,
            ..Default::default()
        };
        let cost = crate::CostParams::default();
        let mut placed = 0;
        for p in &progs {
            let dfg = syncplace_dfg::build(p);
            for a in &automata {
                let what = format!("{} x {}", p.name, a.name);
                let (plain, s1) = enumerate(&dfg, a, &plain_opts);
                let (merged, s2) = enumerate(&dfg, a, &merged_opts);
                assert!(!s1.truncated && !s2.truncated, "{what}");
                // Same mapping set (the order differs).
                assert_eq!(plain.len(), merged.len(), "{what}");
                assert_eq!(set(&plain), set(&merged), "{what}");
                assert!(s2.visits <= s1.visits, "{what}");
                if plain.is_empty() {
                    continue;
                }
                placed += 1;
                assert!(
                    s2.visits < s1.visits,
                    "{what}: {} !< {}",
                    s2.visits,
                    s1.visits
                );
                // Same ranked placements, in the same order.
                let fingerprints = |opts| -> Vec<String> {
                    crate::analyze(p, &dfg, a, opts, &cost)
                        .solutions
                        .iter()
                        .map(|s| s.fingerprint())
                        .collect()
                };
                assert_eq!(
                    fingerprints(&plain_opts),
                    fingerprints(&merged_opts),
                    "{what}"
                );
            }
        }
        assert!(
            placed >= 8,
            "only {placed} (program, automaton) pairs placed"
        );
    }

    /// The run table answers `from_on` for every state and class of
    /// every predefined automaton, listed states or not.
    #[test]
    fn run_table_is_from_on() {
        use syncplace_automata::predefined::*;
        let dfg = syncplace_dfg::build(&programs::testiv());
        let opts = SearchOptions::default();
        let automata = [
            fig6(),
            fig7(),
            fig8(),
            fig6_from_fig8(),
            element_overlap(2),
            element_overlap(3),
            element_overlap_2d_full(),
            element_overlap_two_layer_2d(),
            node_overlap(2),
            node_overlap(3),
        ];
        for a in &automata {
            let s = Search::seeded(&dfg, a, &opts);
            for shape in Shape::ALL {
                for coh in Coherence::ALL {
                    let from = State::new(shape, coh);
                    for class in ArrowClass::ALL {
                        let got = &s.trans[s.run(from, class)];
                        let want: Vec<Transition> = a.from_on(from, class).copied().collect();
                        assert_eq!(got, &want[..], "{} {from} {class:?}", a.name);
                        if !a.states.contains(&from) {
                            assert!(got.is_empty(), "{} {from} {class:?}", a.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn visit_limit_truncates() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let opts = SearchOptions {
            max_visits: 10,
            ..Default::default()
        };
        let (_, stats) = enumerate(&dfg, &fig6(), &opts);
        assert!(stats.truncated);
    }

    #[test]
    fn solution_cap_respected() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let opts = SearchOptions {
            max_solutions: 2,
            ..Default::default()
        };
        let (sols, _) = enumerate(&dfg, &fig6(), &opts);
        assert_eq!(sols.len(), 2);
    }
}
