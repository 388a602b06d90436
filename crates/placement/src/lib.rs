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
/// backtracking enumeration, one around the ranking of its mappings,
/// plus `search.*` counters — automaton nodes visited, backtracks
/// taken, distinct placements kept, and duplicate mappings pruned by
/// the placement dedupe.
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
    let t0 = obs::start(rec);
    let n_mappings = mappings.len();
    let solutions = rank(prog, dfg, automaton, mappings, cost);
    obs::finish(rec, keys::SEARCH_RANK_SPAN, t0);
    if let Some(r) = rec {
        r.add(keys::SEARCH_VISITS, stats.visits);
        r.add(keys::SEARCH_BACKTRACKS, stats.backtracks);
        r.add(keys::SEARCH_SOLUTIONS, solutions.len() as u64);
        r.add(keys::SEARCH_PRUNED, (n_mappings - solutions.len()) as u64);
    }
    Analysis {
        legality,
        solutions,
        stats,
    }
}

/// The distinct placements among `mappings`, best-first by
/// `(score, fingerprint)`. Mappings differing only in internal state
/// choices produce the same placement, and the cost model reads only
/// the placement (sites and domains), so each placement is costed and
/// fingerprinted once, for the first mapping that yields it — the
/// representative a stable sort of every mapping would keep.
fn rank(
    prog: &Program,
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    mappings: Vec<Mapping>,
    cost: &CostParams,
) -> Vec<Solution> {
    let mut extractor = solution::Extractor::new(prog, dfg, automaton);
    let mut seen = std::collections::HashSet::new();
    let mut ranked: Vec<(String, Solution)> = Vec::new();
    for m in mappings {
        let mut s = extractor.extract(m);
        if seen.insert(s.placement_key()) {
            s.cost = cost::evaluate(extractor.loops(), &s, cost);
            ranked.push((s.fingerprint(), s));
        }
    }
    ranked.sort_by(|(fa, a), (fb, b)| {
        a.cost
            .score
            .total_cmp(&b.cost.score)
            .then_with(|| fa.cmp(fb))
    });
    ranked.into_iter().map(|(_, s)| s).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use syncplace_automata::predefined::{
        element_overlap_2d_full, element_overlap_two_layer_2d, fig6, fig7, fig8,
    };
    use syncplace_ir::programs;

    /// The oracle: the per-mapping pipeline `rank` replaced. Every
    /// mapping is extracted on its own (a fresh extractor: its own
    /// position graph, nothing memoised across mappings) and costed,
    /// all of them are stably sorted by `(score, fingerprint)`, and the
    /// first of each fingerprint is kept.
    fn rank_per_mapping(
        prog: &Program,
        dfg: &Dfg,
        automaton: &OverlapAutomaton,
        mappings: Vec<Mapping>,
        cost: &CostParams,
    ) -> Vec<Solution> {
        let mut solutions: Vec<Solution> = mappings
            .into_iter()
            .map(|m| {
                let mut ex = solution::Extractor::new(prog, dfg, automaton);
                let mut s = ex.extract(m);
                s.cost = cost::evaluate(ex.loops(), &s, cost);
                s
            })
            .collect();
        solutions.sort_by(|a, b| {
            a.cost
                .score
                .partial_cmp(&b.cost.score)
                .unwrap()
                .then_with(|| a.fingerprint().cmp(&b.fingerprint()))
        });
        let mut seen = std::collections::HashSet::new();
        solutions.retain(|s| seen.insert(s.fingerprint()));
        solutions
    }

    /// `k` independent gather–scatter subgraphs: placement choices
    /// multiply across them (`benchmark/`'s `wide(k)` shape).
    fn wide(k: usize) -> Program {
        let mut src = String::from("program wide\n  map SOM : tri -> node [3]\n");
        for j in 1..=k {
            src.push_str(&format!(
                "  input O{j} : node\n  var N{j} : node\n  output R{j} : tri\n"
            ));
        }
        for j in 1..=k {
            src.push_str(&format!(
                "  forall i in node split {{ N{j}(i) = 0.0 }}\n  \
                 forall i in tri split {{ N{j}(SOM(i,1)) = N{j}(SOM(i,1)) + O{j}(SOM(i,2)) }}\n  \
                 forall i in tri split {{ R{j}(i) = N{j}(SOM(i,3)) * 1.5 }}\n"
            ));
        }
        src.push_str("end\n");
        syncplace_ir::parser::parse(&src).expect("wide program parses")
    }

    /// The crate's differential corpus: every built-in program and
    /// taxonomy case, and every predefined automaton.
    pub(crate) fn corpus() -> (Vec<Program>, [OverlapAutomaton; 5]) {
        let mut progs = vec![
            programs::testiv(),
            programs::fig5_sketch(),
            programs::edge_smooth(),
            programs::tet_heat(10),
        ];
        progs.extend(programs::taxonomy().into_iter().map(|c| c.program));
        let automata = [
            fig6(),
            fig7(),
            fig8(),
            element_overlap_2d_full(),
            element_overlap_two_layer_2d(),
        ];
        (progs, automata)
    }

    /// Every legal program × automaton pair of the corpus with a
    /// placement, plus `wide(4..=6)` under fig6.
    fn placing_pairs() -> Vec<(Program, OverlapAutomaton)> {
        let (progs, automata) = corpus();
        let mut pairs = Vec::new();
        for p in &progs {
            let dfg = syncplace_dfg::build(p);
            if !check_legality(p, &dfg).is_legal() {
                continue;
            }
            for a in &automata {
                let first = SearchOptions {
                    max_solutions: 1,
                    ..Default::default()
                };
                if !enumerate(&dfg, a, &first).0.is_empty() {
                    pairs.push((p.clone(), a.clone()));
                }
            }
        }
        assert_eq!(pairs.len(), 43);
        pairs.extend([4, 5, 6].map(|k| (wide(k), fig6())));
        pairs
    }

    #[test]
    fn ranking_matches_per_mapping_oracle() {
        let options = SearchOptions::default();
        let cost = CostParams::default();
        for (p, a) in placing_pairs() {
            let what = format!("{} x {}", p.name, a.name);
            let dfg = syncplace_dfg::build(&p);
            let (mappings, _) = enumerate(&dfg, &a, &options);
            let n_mappings = mappings.len();
            let want = rank_per_mapping(&p, &dfg, &a, mappings, &cost);
            let tr = Arc::new(obs::MetricsRegistry::new(keys::ALL));
            let got = analyze_recorded(&p, &dfg, &a, &options, &cost, &Some(tr.clone()));
            let fingerprints =
                |ss: &[Solution]| ss.iter().map(Solution::fingerprint).collect::<Vec<_>>();
            assert_eq!(fingerprints(&got.solutions), fingerprints(&want), "{what}");
            for (i, (g, w)) in got.solutions.iter().zip(&want).enumerate() {
                // (not assert_eq: a mapping prints as 30 kB)
                assert!(g.mapping == w.mapping, "{what}: representative of #{i}");
                assert_eq!(g.cost, w.cost, "{what}");
                assert_eq!(g.comm_sites, w.comm_sites, "{what}");
                assert_eq!(g.domains, w.domains, "{what}");
            }
            let snap = tr.snapshot();
            assert_eq!(
                snap.counter(keys::SEARCH_PRUNED),
                (n_mappings - want.len()) as u64,
                "{what}"
            );
            assert!(snap.span(keys::SEARCH_RANK_SPAN).is_some(), "{what}");
        }
    }

    /// The premise of deduping before costing: over every enumerated
    /// mapping, the structural key and the fingerprint string induce
    /// the same classes, and a class has one cost.
    #[test]
    fn placement_key_is_the_fingerprint_and_determines_the_cost() {
        let cost = CostParams::default();
        for (p, a) in placing_pairs() {
            let what = format!("{} x {}", p.name, a.name);
            let dfg = syncplace_dfg::build(&p);
            let (mappings, _) = enumerate(&dfg, &a, &SearchOptions::default());
            let mut ex = solution::Extractor::new(&p, &dfg, &a);
            let mut by_key = HashMap::new();
            let mut by_fingerprint = HashMap::new();
            for m in mappings {
                let s = ex.extract(m);
                let c = cost::evaluate(ex.loops(), &s, &cost);
                let (key, fp) = (s.placement_key(), s.fingerprint());
                // key ⇒ fingerprint and cost; fingerprint ⇒ key.
                let (fp0, c0) = by_key.entry(key.clone()).or_insert((fp.clone(), c));
                assert_eq!(*fp0, fp, "{what}: one key, two fingerprints");
                assert_eq!(*c0, c, "{what}: one key, two costs");
                let key0 = by_fingerprint.entry(fp).or_insert(key.clone());
                assert_eq!(*key0, key, "{what}: one fingerprint, two keys");
            }
            assert_eq!(by_key.len(), by_fingerprint.len(), "{what}");
        }
    }

    #[test]
    fn nan_cost_parameter_still_ranks() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let options = SearchOptions::default();
        let finite = analyze(&p, &dfg, &fig6(), &options, &CostParams::default());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for params in [
                CostParams {
                    alpha: bad,
                    ..Default::default()
                },
                CostParams {
                    iterations: bad,
                    ..Default::default()
                },
            ] {
                let got = analyze(&p, &dfg, &fig6(), &options, &params);
                assert_eq!(got.solutions.len(), finite.solutions.len(), "{params:?}");
            }
        }
    }
}
