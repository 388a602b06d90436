//! Benches for the placement search (E11: recursive vs iterative
//! propagation; chain-merge scaling) and for the whole analysis next
//! to it (`analyze` − `enumerate` is the ranking half: extraction,
//! dedupe, costing, sort). Plain `std::time` harness.

use syncplace::automata::predefined::{fig6, fig8};
use syncplace::placement::{analyze, enumerate, CostParams, SearchOptions};
use syncplace_bench::harness::Group;
use syncplace_bench::setup::{chain_program, wide_program_src_scaled};

fn bench_testiv_search() {
    let prog = syncplace::ir::programs::testiv();
    let dfg = syncplace::dfg::build(&prog);
    let automaton = fig6();
    let g = Group::new("testiv-search");
    g.bench("iterative-all-solutions", || {
        enumerate(&dfg, &automaton, &SearchOptions::default())
    });
    let first = SearchOptions {
        max_solutions: 1,
        ..Default::default()
    };
    g.bench("iterative-first-solution", || {
        enumerate(&dfg, &automaton, &first)
    });
    g.bench("recursive-first-solution", || {
        syncplace::placement::propagate::first_solution(&dfg, &automaton)
    });
}

fn bench_chain_scaling() {
    let automaton = fig6();
    let g = Group::new("chain-scaling");
    for n in [5usize, 20, 40] {
        let prog = chain_program(n);
        let dfg = syncplace::dfg::build(&prog);
        for (label, collapse) in [("plain", false), ("merged", true)] {
            let opts = SearchOptions {
                max_solutions: 16,
                collapse_deterministic: collapse,
                ..Default::default()
            };
            g.bench(&format!("{label}/{n}"), || {
                enumerate(&dfg, &automaton, &opts)
            });
        }
    }
}

fn bench_analyze() {
    let wide6 = syncplace::ir::parser::parse(&wide_program_src_scaled(6, 1.0)).unwrap();
    let g = Group::new("analyze");
    for (label, prog, automaton) in [
        ("testiv-fig6", syncplace::ir::programs::testiv(), fig6()),
        ("tet_heat-fig8", syncplace::ir::programs::tet_heat(10), fig8()),
        ("wide6-fig6", wide6, fig6()),
    ] {
        let dfg = syncplace::dfg::build(&prog);
        let opts = SearchOptions::default();
        g.bench(&format!("{label}/enumerate"), || {
            enumerate(&dfg, &automaton, &opts)
        });
        g.bench(&format!("{label}/analyze"), || {
            analyze(&prog, &dfg, &automaton, &opts, &CostParams::default())
        });
    }
}

fn bench_dfg_build() {
    let g = Group::new("dfg-build");
    let testiv = syncplace::ir::programs::testiv();
    g.bench("testiv", || syncplace::dfg::build(&testiv));
    let chain = chain_program(40);
    g.bench("chain-40", || syncplace::dfg::build(&chain));
}

fn main() {
    bench_testiv_search();
    bench_chain_scaling();
    bench_analyze();
    bench_dfg_build();
}
