//! The IR lint pass: explanation-quality diagnostics about a source
//! program and (optionally) a chosen placement.
//!
//! [`lint_program`] reports, through the shared [`Report`] engine:
//!
//! * every illegal dependence with its **Fig. 4 case letter** (`SA030`
//!   carried true, `SA031` carried anti, `SA032` carried output,
//!   `SA033` escaping value, `SA034` mixed usage) — re-emitted from
//!   `placement::check_legality`, whose errors carry structured
//!   diagnostics with "removable by localization / rewrite as a
//!   reduction" hints from `dfg::classify`;
//! * a `SA035` warning for every data-flow node whose feasible
//!   automaton-state set is *empty* under the fixpoint of
//!   [`crate::verify`] — the program is legal but this automaton
//!   cannot type its data, so placement search must fail;
//! * a `SA041` warning for every floating-point `Sum`/`Prod` reduction:
//!   its parallel result depends on the combination order, which the
//!   engines pin to the canonical binomial combine tree (the auditor's
//!   `SA023` checks the compiled plans install exactly that tree).
//!
//! [`lint_solution`] adds `SA040` redundant-communication warnings:
//! two communication sites of one solution that move the same variable
//! for the same dependence arrow, or byte-identical duplicate sites.

use std::collections::HashMap;
use syncplace_automata::OverlapAutomaton;
use syncplace_dfg::{Dfg, ReduceOp};
use syncplace_ir::diag::{codes, Diagnostic, Report, Span};
use syncplace_ir::{IdVec, Program};
use syncplace_placement::{check_legality, Solution};

use crate::verify::feasible_states;

/// Lint a source program against one overlap automaton.
///
/// Legality errors keep their error severity; the placement-related
/// findings (`SA035`, `SA041`) are warnings — they describe behaviour,
/// not illegality.
pub fn lint_program(prog: &Program, automaton: &OverlapAutomaton) -> Report {
    let dfg = syncplace_dfg::build(prog);
    let mut r = Report::new();

    let legality = check_legality(prog, &dfg);
    for e in &legality.errors {
        r.push(e.diag.clone());
    }

    // The fixpoint is only meaningful on a legal graph: illegal carried
    // dependences are not even propagation arrows.
    if legality.is_legal() {
        let fx = feasible_states(&dfg, automaton);
        for n in fx.empty_nodes() {
            let what = match &dfg.nodes[n].kind {
                syncplace_dfg::NodeKind::Input(v) => format!("input v{v}"),
                syncplace_dfg::NodeKind::Output(v) => format!("output v{v}"),
                syncplace_dfg::NodeKind::Def { var, stmt, .. } => {
                    format!("definition of v{var} at s{stmt}")
                }
                syncplace_dfg::NodeKind::Use { var, stmt, .. } => {
                    format!("read of v{var} at s{stmt}")
                }
                syncplace_dfg::NodeKind::Exit { stmt, .. } => {
                    format!("exit test at s{stmt}")
                }
            };
            r.push(
                Diagnostic::warning(
                    codes::NO_PLACEMENT,
                    Span::node(n),
                    format!(
                        "no automaton state is feasible for the {what}: this automaton cannot type the program's data, so placement search will find no solution"
                    ),
                )
                .with_help("try an automaton whose shapes match the program's arrays (fig. 6 for element overlap, fig. 7 for node overlap, fig. 8 in 3-D)"),
            );
        }
    }

    // Floating-point Sum/Prod reductions: deterministic only because
    // every engine folds partials in the same binomial-tree order.
    let mut lhs_of = IdVec::default();
    prog.visit_assigns(&mut |a, _| {
        lhs_of.insert(a.id, a.lhs.var());
    });
    for (stmt, info) in dfg.classification.reductions.iter() {
        if matches!(info.op, ReduceOp::Sum | ReduceOp::Prod) {
            let span = lhs_of.get(stmt).map_or(Span::stmt(stmt), |&v| Span::stmt(stmt).with_var(v));
            r.push(
                Diagnostic::warning(
                    codes::REDUCE_NONDET,
                    span,
                    format!(
                        "floating-point {:?} reduction at s{stmt}: the parallel result depends on combination order",
                        info.op
                    ),
                )
                .with_help(
                    "all engines fold partials in the canonical binomial-tree order, so results are reproducible for a fixed partition count but differ across partition counts",
                ),
            );
        }
    }

    r.sort();
    r
}

/// Lint one extracted solution for redundant communications (`SA040`).
///
/// A dependence arrow serviced by two different communication sites of
/// the same variable means the second transfer moves data the first
/// already made coherent; likewise two sites with identical
/// (kind, variable, insertion point) duplicate a whole phase entry.
pub fn lint_solution(_prog: &Program, _dfg: &Dfg, sol: &Solution) -> Report {
    let mut r = Report::new();

    // Arrow serviced twice for the same variable.
    let mut arrow_sites: HashMap<(usize, syncplace_ir::VarId), usize> = HashMap::new();
    for (si, site) in sol.comm_sites.iter().enumerate() {
        for &a in site.arrows.iter() {
            if let Some(&prev) = arrow_sites.get(&(a, site.var)) {
                r.push(Diagnostic::warning(
                    codes::REDUNDANT_COMM,
                    Span::arrow(a).with_var(site.var),
                    format!(
                        "dependence arrow {a} of v{} is serviced by two communication sites ({prev} and {si}): the later transfer re-sends coherent data",
                        site.var
                    ),
                ));
            } else {
                arrow_sites.insert((a, site.var), si);
            }
        }
    }

    // Byte-identical duplicate sites.
    let mut seen: HashMap<_, usize> = HashMap::new();
    for (si, site) in sol.comm_sites.iter().enumerate() {
        let key = (site.kind, site.var, site.location);
        if let Some(&prev) = seen.get(&key) {
            r.push(Diagnostic::warning(
                codes::REDUNDANT_COMM,
                Span::none().with_var(site.var),
                format!(
                    "communication sites {prev} and {si} both perform {:?} of v{} at {:?}",
                    site.kind, site.var, site.location
                ),
            ));
        } else {
            seen.insert(key, si);
        }
    }

    r.sort();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_ir::programs;

    #[test]
    fn legal_programs_lint_without_errors() {
        for (p, aut) in [
            (programs::testiv(), fig6()),
            (programs::testiv(), fig7()),
            (programs::fig5_sketch(), fig6()),
        ] {
            let rep = lint_program(&p, &aut);
            assert!(
                rep.is_error_free(),
                "{} should produce no error-severity lint:\n{rep}",
                p.name
            );
        }
    }

    #[test]
    fn testiv_warns_about_float_sum_reduction() {
        let rep = lint_program(&programs::testiv(), &fig6());
        assert!(
            rep.has_code(codes::REDUCE_NONDET),
            "sqrdiff accumulation is a float Sum:\n{rep}"
        );
    }

    #[test]
    fn taxonomy_cases_fire_their_fig4_codes() {
        for case in syncplace_ir::programs::taxonomy() {
            let rep = lint_program(&case.program, &fig6());
            if case.legal {
                assert!(
                    rep.is_error_free(),
                    "{}: legal case must not error:\n{rep}",
                    case.name
                );
            } else {
                let want = match case.fig4_case {
                    "a" => codes::CARRIED_TRUE,
                    "c" => codes::CARRIED_ANTI,
                    "d" => codes::CARRIED_OUTPUT,
                    "g" => codes::VALUE_ESCAPES,
                    _ => codes::MIXED_USAGE,
                };
                assert!(
                    rep.has_code(want),
                    "{} (case {}) should fire {want}:\n{rep}",
                    case.name,
                    case.fig4_case
                );
            }
        }
    }

    #[test]
    fn automaton_mismatch_warns_no_placement() {
        // edge_smooth needs edge-shaped states; fig6 has none.
        let rep = lint_program(&programs::edge_smooth(), &fig6());
        assert!(rep.has_code(codes::NO_PLACEMENT), "{rep}");
    }

    #[test]
    fn duplicated_comm_site_warns_redundant() {
        use syncplace_placement::{analyze_program, CostParams, SearchOptions};
        let p = programs::testiv();
        let aut = fig6();
        let (dfg, analysis) = analyze_program(
            &p,
            &aut,
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let mut sol = analysis.solutions[0].clone();
        let dup = sol.comm_sites[0].clone();
        sol.comm_sites.push(dup);
        let rep = lint_solution(&p, &dfg, &sol);
        assert!(rep.has_code(codes::REDUNDANT_COMM), "{rep}");
        assert!(
            lint_solution(&p, &dfg, &analysis.solutions[0]).is_clean(),
            "pristine solution must not warn"
        );
    }
}
