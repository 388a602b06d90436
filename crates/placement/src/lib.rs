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

/// [`analyze`] with an observability hook: a span around the search
/// and the keying of the first mapping of each signature it completes,
/// one around the extraction, costing, fingerprinting and sorting of
/// the distinct placements, plus `search.*` counters — automaton nodes
/// visited, backtracks taken, distinct placements kept, and duplicate
/// mappings pruned by the placement dedupe.
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
    // Mappings differing only in internal state choices yield the same
    // placement, and the cost model reads only the placement (sites and
    // domains): the search lends the first mapping of each signature
    // (what the key reads), and only the first of each key — the one a
    // stable sort of every mapping would keep — is cloned and extracted.
    let t0 = obs::start(rec);
    let mut extractor = solution::Extractor::new(prog, dfg, automaton);
    let signature = Some(extractor.signature());
    let mut seen: solution::WordSet<Vec<usize>> = Default::default();
    let mut representatives: Vec<Mapping> = Vec::new();
    let stats = search::search(dfg, automaton, options, signature.as_ref(), |m| {
        let key = extractor.key(m);
        if !seen.contains(key) {
            seen.insert(key.to_vec());
            representatives.push(m.clone());
        }
    });
    obs::finish(rec, keys::SEARCH_SPAN, t0);
    let t0 = obs::start(rec);
    let ranked = rank(&mut extractor, representatives, cost);
    let solutions: Vec<Solution> = ranked.into_iter().map(|(_, s)| s).collect();
    obs::finish(rec, keys::SEARCH_RANK_SPAN, t0);
    if let Some(r) = rec {
        r.add(keys::SEARCH_VISITS, stats.visits);
        r.add(keys::SEARCH_BACKTRACKS, stats.backtracks);
        r.add(keys::SEARCH_SOLUTIONS, solutions.len() as u64);
        r.add(keys::SEARCH_PRUNED, (stats.solutions - solutions.len()) as u64);
    }
    Analysis {
        legality,
        solutions,
        stats,
    }
}

/// One placement per representative mapping with its fingerprint,
/// best-first by `(score, fingerprint)`. The fingerprint is assembled
/// from the extractor's memoised pieces: ranking formats nothing.
fn rank(
    extractor: &mut solution::Extractor,
    representatives: Vec<Mapping>,
    cost: &CostParams,
) -> Vec<(String, Solution)> {
    let mut ranked: Vec<(String, Solution)> = representatives
        .into_iter()
        .map(|m| {
            let (mut s, fingerprint) = extractor.extract_fingerprinted(m);
            s.cost = cost::evaluate(extractor.loops(), &s, cost);
            (fingerprint, s)
        })
        .collect();
    ranked.sort_by(|(fa, a), (fb, b)| {
        a.cost
            .score
            .total_cmp(&b.cost.score)
            .then_with(|| fa.cmp(fb))
    });
    ranked
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
    use std::collections::{HashMap, HashSet};
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

    /// `analyze` under `options` equals the oracle run over the
    /// mappings `enumerate` yields under the same options: the same
    /// fingerprints in the same order, representatives, costs, sites
    /// and domains, the same search statistics and pruned count.
    fn assert_matches_oracle(p: &Program, a: &OverlapAutomaton, options: &SearchOptions) {
        let cost = CostParams::default();
        let what = format!("{} x {} (cap {})", p.name, a.name, options.max_solutions);
        let dfg = syncplace_dfg::build(p);
        let (mappings, stats) = enumerate(&dfg, a, options);
        let n_mappings = mappings.len();
        let want = rank_per_mapping(p, &dfg, a, mappings, &cost);
        let tr = Arc::new(obs::MetricsRegistry::new(keys::ALL));
        let got = analyze_recorded(p, &dfg, a, options, &cost, &Some(tr.clone()));
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
        let s = got.stats;
        assert_eq!(
            (s.visits, s.backtracks, s.solutions, s.truncated),
            (stats.visits, stats.backtracks, stats.solutions, stats.truncated),
            "{what}"
        );
        assert_eq!(s.solutions, n_mappings, "{what}");
        let snap = tr.snapshot();
        assert_eq!(
            snap.counter(keys::SEARCH_PRUNED),
            (n_mappings - want.len()) as u64,
            "{what}"
        );
        assert!(snap.span(keys::SEARCH_SPAN).is_some(), "{what}");
        assert!(snap.span(keys::SEARCH_RANK_SPAN).is_some(), "{what}");
    }

    #[test]
    fn ranking_matches_per_mapping_oracle() {
        for (p, a) in placing_pairs() {
            assert_matches_oracle(&p, &a, &SearchOptions::default());
        }
    }

    /// A cap cuts the stream of mappings the ranker keys exactly where
    /// it cuts `enumerate`: the ranking is the oracle's over the first
    /// `k` mappings.
    #[test]
    fn capped_ranking_matches_oracle_on_the_first_mappings() {
        for (p, a) in [(programs::testiv(), fig6()), (programs::tet_heat(10), fig8())] {
            for k in [1, 2, 7, 100] {
                let options = SearchOptions {
                    max_solutions: k,
                    ..Default::default()
                };
                assert_matches_oracle(&p, &a, &options);
            }
        }
    }

    /// Every placing pair at the default cap, then TESTIV × fig6 and
    /// `tet_heat` × fig8 capped at 1, 2, 7 and 100 mappings.
    fn placing_and_capped_cases() -> impl Iterator<Item = (Program, OverlapAutomaton, usize)> {
        let default_cap = SearchOptions::default().max_solutions;
        let uncapped = placing_pairs()
            .into_iter()
            .map(move |(p, a)| (p, a, default_cap));
        let capped = [
            (programs::testiv(), fig6()),
            (programs::tet_heat(10), fig8()),
        ]
        .into_iter()
        .flat_map(|(p, a)| [1, 2, 7, 100].map(|k| (p.clone(), a.clone(), k)));
        uncapped.chain(capped)
    }

    /// `rank` assembles each placement's fingerprint from the
    /// extractor's memoised pieces; over every placing pair and the
    /// capped cases it is byte for byte [`Solution::fingerprint`].
    #[test]
    fn assembled_fingerprint_is_the_fingerprint() {
        for (p, a, k) in placing_and_capped_cases() {
            let what = format!("{} x {} (cap {k})", p.name, a.name);
            let options = SearchOptions {
                max_solutions: k,
                ..Default::default()
            };
            let dfg = syncplace_dfg::build(&p);
            let (mappings, _) = enumerate(&dfg, &a, &options);
            let mut ex = solution::Extractor::new(&p, &dfg, &a);
            let mut seen = HashSet::new();
            let representatives: Vec<Mapping> = mappings
                .into_iter()
                .filter(|m| seen.insert(ex.key(m).to_vec()))
                .collect();
            let ranked = rank(&mut ex, representatives, &CostParams::default());
            assert_eq!(ranked.len(), seen.len(), "{what}");
            for (assembled, s) in &ranked {
                assert_eq!(*assembled, s.fingerprint(), "{what}");
            }
        }
    }

    /// The deduping search is `enumerate` with repeats dropped: over the
    /// placing and capped cases, `tet_heat` × fig8 uncapped and TESTIV ×
    /// two-layer, it lends exactly the first mapping of each signature
    /// of `enumerate`'s stream, in order, with the same statistics; and
    /// over every enumerated mapping, equal signatures give equal keys.
    #[test]
    fn distinct_search_is_enumerate_deduped() {
        let extra = [
            (programs::tet_heat(10), fig8(), usize::MAX),
            (programs::testiv(), element_overlap_two_layer_2d(), 4096),
        ];
        for (p, a, k) in placing_and_capped_cases().chain(extra) {
            let what = format!("{} x {} (cap {k})", p.name, a.name);
            let options = SearchOptions {
                max_solutions: k,
                ..Default::default()
            };
            let dfg = syncplace_dfg::build(&p);
            let mut ex = solution::Extractor::new(&p, &dfg, &a);
            let signature = ex.signature();
            let (mappings, want) = enumerate(&dfg, &a, &options);
            let mut lent = Vec::new();
            let got = search::search(&dfg, &a, &options, Some(&signature), |m| {
                lent.push(m.clone())
            });
            let mut key_of = HashMap::new();
            let mut firsts = Vec::new();
            for m in &mappings {
                let sig: (Vec<_>, Vec<_>) = (
                    signature.loops.iter().map(|l| l.kernel(&m.node_state)).collect(),
                    (m.arrow_transition.iter().zip(&signature.field))
                        .filter_map(|(&t, f)| f.map(|_| solution::Signature::code(t)))
                        .collect(),
                );
                let key = ex.key(m).to_vec();
                let seen = key_of.entry(sig).or_insert_with(|| {
                    firsts.push(m);
                    key.clone()
                });
                assert_eq!(*seen, key, "{what}: one signature, two keys");
            }
            assert_eq!(lent.len(), firsts.len(), "{what}");
            assert!(lent.iter().zip(firsts).all(|(l, f)| l == f), "{what}");
            assert_eq!(
                (got.visits, got.backtracks, got.solutions, got.truncated),
                (want.visits, want.backtracks, want.solutions, want.truncated),
                "{what}"
            );
        }
    }

    /// Keying reads only the extractor's comm-capable arrows: over
    /// every mapping of every placing pair and of the capped cases,
    /// each arrow whose transition communicates is on that list.
    #[test]
    fn keying_sees_every_comm_arrow() {
        for (p, a, k) in placing_and_capped_cases() {
            let options = SearchOptions {
                max_solutions: k,
                ..Default::default()
            };
            let dfg = syncplace_dfg::build(&p);
            let listed: HashSet<usize> = solution::Extractor::new(&p, &dfg, &a)
                .comm_arrows
                .iter()
                .map(|&(i, _)| i)
                .collect();
            let (mappings, _) = enumerate(&dfg, &a, &options);
            for m in &mappings {
                for (i, t) in m.arrow_transition.iter().enumerate() {
                    if t.is_some_and(|t| t.comm.is_some()) {
                        assert!(
                            listed.contains(&i),
                            "{} x {} (cap {k}): arrow {i} communicates",
                            p.name,
                            a.name
                        );
                    }
                }
            }
        }
    }

    /// The premise of deduping before extracting: over every
    /// enumerated mapping, the mapping-level key and the fingerprint of
    /// the extracted placement induce the same classes, and a class
    /// has one cost.
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
                let key = ex.key(&m).to_vec();
                let s = ex.extract(m);
                let c = cost::evaluate(ex.loops(), &s, &cost);
                let fp = s.fingerprint();
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

    /// `max_solutions` counts mappings, duplicates included, and a cut
    /// by it does not set `truncated` (that flag is the visit cap's).
    /// Under the default cap `tet_heat` × fig8 stops at 4 096 of its
    /// 6 912 mappings, 102 of its 122 placements, with the uncapped
    /// best first; `wide(6)`'s 4 096 mappings are its full set. TESTIV
    /// × two-layer (the daemon's `2layer` answer) ranks 42 placements
    /// at the default cap, best 8 075, and 63 at 8 192 mappings, best
    /// 7 575: the cap decides its answer.
    #[test]
    fn default_solution_cap_is_pinned() {
        let cost = CostParams::default();
        let uncapped = SearchOptions {
            max_solutions: usize::MAX,
            ..Default::default()
        };
        let run = |p: &Program, a: &OverlapAutomaton, options: &SearchOptions| {
            let dfg = syncplace_dfg::build(p);
            analyze(p, &dfg, a, options, &cost)
        };
        let p = programs::tet_heat(10);
        let capped = run(&p, &fig8(), &SearchOptions::default());
        let full = run(&p, &fig8(), &uncapped);
        assert_eq!((capped.stats.solutions, capped.solutions.len()), (4096, 102));
        assert!(!capped.stats.truncated);
        assert_eq!((full.stats.solutions, full.solutions.len()), (6912, 122));
        assert!(!full.stats.truncated);
        let (best, full_best) = (&capped.solutions[0], &full.solutions[0]);
        assert_eq!(best.fingerprint(), full_best.fingerprint());
        assert_eq!(best.cost, full_best.cost);
        assert_eq!(best.cost.score, 7075.0);

        let p = wide(6);
        let capped = run(&p, &fig6(), &SearchOptions::default());
        let full = run(&p, &fig6(), &uncapped);
        assert_eq!((capped.stats.solutions, capped.solutions.len()), (4096, 729));
        assert_eq!((full.stats.solutions, full.solutions.len()), (4096, 729));
        assert!(!capped.stats.truncated && !full.stats.truncated);

        let p = programs::testiv();
        let a = element_overlap_two_layer_2d();
        let capped = run(&p, &a, &SearchOptions::default());
        assert_eq!((capped.stats.solutions, capped.solutions.len()), (4096, 42));
        assert_eq!(capped.solutions[0].cost.score, 8075.0);
        let wider = SearchOptions {
            max_solutions: 8192,
            ..Default::default()
        };
        let wider = run(&p, &a, &wider);
        assert_eq!((wider.stats.visits, wider.solutions.len()), (75_896, 63));
        assert_eq!(wider.solutions[0].cost.score, 7575.0);
        assert!(!capped.stats.truncated && !wider.stats.truncated);
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
