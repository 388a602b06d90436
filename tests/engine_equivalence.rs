//! The two propagation engines (the paper's recursive sketch and the
//! iterative production version) agree on every built-in program, and
//! the chain-merge optimization never changes the solution set.

use syncplace::automata::predefined::{element_overlap_2d_full, fig6, fig8};
use syncplace::placement::{enumerate, SearchOptions};

fn programs_and_automata() -> Vec<(
    syncplace::ir::Program,
    syncplace::automata::OverlapAutomaton,
)> {
    vec![
        (syncplace::ir::programs::fig5_sketch(), fig6()),
        (syncplace::ir::programs::testiv(), fig6()),
        (
            syncplace::ir::programs::edge_smooth(),
            element_overlap_2d_full(),
        ),
        (syncplace::ir::programs::tet_heat(20), fig8()),
        (syncplace_bench_setup_chain(8), fig6()),
    ]
}

fn syncplace_bench_setup_chain(n: usize) -> syncplace::ir::Program {
    syncplace_bench::setup::chain_program(n)
}

#[test]
fn recursive_first_solution_is_enumerations_first() {
    for (prog, automaton) in programs_and_automata() {
        let dfg = syncplace::dfg::build(&prog);
        let rec = syncplace::placement::propagate::first_solution(&dfg, &automaton)
            .unwrap_or_else(|| panic!("{}: no solution", prog.name));
        let (all, _) = enumerate(&dfg, &automaton, &SearchOptions::default());
        assert_eq!(rec, all[0], "{}", prog.name);
    }
}

#[test]
fn chain_merge_is_solution_preserving_everywhere() {
    for (prog, automaton) in programs_and_automata() {
        let dfg = syncplace::dfg::build(&prog);
        let plain = enumerate(
            &dfg,
            &automaton,
            &SearchOptions {
                collapse_deterministic: false,
                ..Default::default()
            },
        )
        .0;
        let merged = enumerate(&dfg, &automaton, &SearchOptions::default()).0;
        assert_eq!(plain.len(), merged.len(), "{}", prog.name);
        for m in &merged {
            assert!(
                plain.contains(m),
                "{}: merged invented a mapping",
                prog.name
            );
        }
    }
}

#[test]
fn every_enumerated_mapping_verifies_everywhere() {
    for (prog, automaton) in programs_and_automata() {
        let dfg = syncplace::dfg::build(&prog);
        let (all, stats) = enumerate(&dfg, &automaton, &SearchOptions::default());
        assert!(!stats.truncated, "{}", prog.name);
        for m in &all {
            syncplace::placement::checker::verify_mapping(&dfg, &automaton, m)
                .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
        }
    }
}
