//! "There is not a unique solution for placing these synchronizations,
//! and performance depends on this choice" — enumerate TESTIV's
//! placements, execute the distinct ones, and compare their modeled
//! performance.
//!
//! ```text
//! cargo run --release --example compare_placements
//! ```

use syncplace::prelude::*;
use syncplace::runtime::TimingModel;

fn main() {
    let prog = syncplace::ir::programs::testiv_with(5);
    let mesh = gen2d::perturbed_grid(48, 48, 0.2, 21);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);

    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    println!(
        "{} distinct placements (search visited {} states)\n",
        analysis.solutions.len(),
        analysis.stats.visits
    );

    let part = partition2d(&mesh, 16, Method::RcbKl);
    let d = decompose2d(&mesh, &part.part, 16, Pattern::FIG1);
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let model = TimingModel {
        flop: 4.0,
        alpha: 1000.0,
        beta: 4.0,
    };

    println!(
        "{:>4}  {:>12} {:>8} {:>8} {:>9} {:>9}   placement",
        "rank", "model score", "phases", "values", "t_par", "speedup"
    );
    for (rank, sol) in analysis.solutions.iter().enumerate().take(8) {
        let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        let err = syncplace::runtime::max_rel_error(&seq, &res);
        assert!(err < 1e-9, "placement {rank} wrong: {err}");
        let t = syncplace::runtime::timing::estimate(&seq, &res, &model);
        println!(
            "{rank:>4}  {:>12.0} {:>8} {:>8} {:>9.0} {:>9.1}   {}",
            sol.cost.score,
            res.stats.nphases(),
            res.stats.total_values(),
            t.t_par,
            t.speedup,
            syncplace::codegen::summarize(&prog, sol)
        );
    }
    println!(
        "\nall {} executed placements produce results identical to the sequential run;",
        8.min(analysis.solutions.len())
    );
    println!("the analytic cost ranking tracks the measured communication phases.");
}
