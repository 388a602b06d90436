//! Automatic placement of communications — the paper's contribution
//! (§3–§4).
//!
//! Given a program's data-flow graph (`syncplace-dfg`) and the overlap
//! automaton of the chosen overlapping pattern (`syncplace-automata`),
//! this crate:
//!
//! 1. **Verifies the applicability of the method** (§3.2, Fig. 4):
//!    no dependence may remain carried across the iterations of a
//!    partitioned loop after reduction detection and localization, no
//!    value may escape a particular partitioned iteration (case *g*)
//!    except through a reduction, and no array may be used both
//!    partitioned and sequentially. See [`legality`].
//! 2. **Finds every mapping** `M_n` (data-flow node → automaton state)
//!    and `M_a` (data-flow arrow → automaton transition) satisfying
//!    the three conditions of §3.4 — inputs at their given states,
//!    outputs at their required states, and every arrow mapped to a
//!    transition connecting its endpoints' states. The propagation is
//!    nondeterministic and backtracking; both the paper's recursive
//!    sketch ([`propagate`]) and the iterative, trail-based version
//!    the paper says its implementation uses ([`search`]) are
//!    provided, and they enumerate the same solutions.
//! 3. **Extracts the concrete placement** from each mapping
//!    ([`solution`]): the `C$SYNCHRONIZE` communication sites (one per
//!    variable × dominating insertion point) and the
//!    `C$ITERATION DOMAIN` (kernel/overlap) of every partitioned loop
//!    — exactly the two outputs §4 names ("from M_a we shall get the
//!    places where to set communications, and from M_n … the precise
//!    iteration domain of each partitioned loop").
//! 4. **Ranks the solutions** with a cost model ([`cost`]): the paper
//!    observes that several placements exist (Figs. 9–10) and that
//!    "performance depends on this choice" — grouped communication
//!    phases versus kernel-restricted iteration domains.
//! 5. **Checks a given placement** in simulation mode ([`checker`],
//!    §5.2): verify that a proposed set of communication-carrying
//!    dependences admits a consistent mapping — the "test mode" the
//!    paper describes, which also catches hand-placement errors (§6).

#![forbid(unsafe_code)]

pub mod arrowclass;
pub mod checker;
pub mod cost;
pub mod legality;
pub mod propagate;
pub mod search;
pub mod solution;

pub use arrowclass::classify_arrow;
pub use checker::{check_placement, verify_mapping, PlacementDiagnosis};
pub use cost::{CostParams, SolutionCost};
pub use legality::{check_legality, LegalityError, LegalityReport};
pub use search::{enumerate, SearchOptions, SearchStats};
pub use solution::{CommSite, InsertionPoint, IterationDomain, Mapping, Solution};

use syncplace_automata::OverlapAutomaton;
use syncplace_dfg::Dfg;
use syncplace_ir::Program;
use syncplace_obs::{self as obs, keys, RecorderRef};

/// Full analysis result.
#[derive(Debug)]
pub struct Analysis {
    /// The legality report (empty = the user partitioning is legal).
    pub legality: LegalityReport,
    /// All solutions found (empty when illegal), ranked best-first by
    /// the cost model.
    pub solutions: Vec<Solution>,
    /// Search statistics (node visits, backtracks).
    pub stats: SearchStats,
}

/// Run the complete analysis: legality check, solution enumeration,
/// placement extraction, ranking.
pub fn analyze(
    prog: &Program,
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    options: &SearchOptions,
    cost: &CostParams,
) -> Analysis {
    analyze_recorded(prog, dfg, automaton, options, cost, &None)
}

/// [`analyze`] with an observability hook: a span around the
/// backtracking enumeration plus `search.*` counters — automaton
/// nodes visited, backtracks taken, distinct placements kept, and
/// duplicate mappings pruned by the fingerprint dedupe.
pub fn analyze_recorded(
    prog: &Program,
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    options: &SearchOptions,
    cost: &CostParams,
    rec: &RecorderRef,
) -> Analysis {
    let legality = check_legality(prog, dfg);
    if !legality.is_legal() {
        return Analysis {
            legality,
            solutions: Vec::new(),
            stats: SearchStats::default(),
        };
    }
    let t0 = obs::start(rec);
    let (mappings, stats) = enumerate(dfg, automaton, options);
    obs::finish(rec, keys::SEARCH_SPAN, t0);
    let mut solutions: Vec<Solution> = mappings
        .into_iter()
        .map(|m| solution::extract(prog, dfg, automaton, m))
        .collect();
    for s in &mut solutions {
        s.cost = cost::evaluate(prog, dfg, s, cost);
    }
    solutions.sort_by(|a, b| {
        a.cost
            .score
            .partial_cmp(&b.cost.score)
            .unwrap()
            .then_with(|| a.fingerprint().cmp(&b.fingerprint()))
    });
    // Mappings differing only in internal state choices produce the
    // same placement; keep the cheapest representative of each.
    let before_dedupe = solutions.len();
    let mut seen = std::collections::HashSet::new();
    solutions.retain(|s| seen.insert(s.fingerprint()));
    if let Some(r) = rec {
        r.add(keys::SEARCH_VISITS, stats.visits);
        r.add(keys::SEARCH_BACKTRACKS, stats.backtracks);
        r.add(keys::SEARCH_SOLUTIONS, solutions.len() as u64);
        r.add(
            keys::SEARCH_PRUNED,
            (before_dedupe - solutions.len()) as u64,
        );
    }
    Analysis {
        legality,
        solutions,
        stats,
    }
}

/// Convenience: build the DFG and analyze in one call.
pub fn analyze_program(
    prog: &Program,
    automaton: &OverlapAutomaton,
    options: &SearchOptions,
    cost: &CostParams,
) -> (Dfg, Analysis) {
    let dfg = syncplace_dfg::build(prog);
    let analysis = analyze(prog, &dfg, automaton, options, cost);
    (dfg, analysis)
}
