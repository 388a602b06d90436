//! The §5.3 adaptive-mesh workflow as a user would run it:
//! solve → refine where the solution varies → prolong → resume,
//! reusing the placement unchanged and repartitioning for balance.
//!
//! ```text
//! cargo run --release --example adaptive
//! ```

use syncplace::prelude::*;

fn main() {
    let prog = syncplace::ir::programs::testiv_with(20);
    // Analyze once: the placement has no mesh input (§5.3: "the
    // placement of synchronizations needs not change").
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    println!(
        "placement (computed once): {}\n",
        syncplace::codegen::summarize(&prog, &analysis.solutions[0])
    );

    // A front that attracts refinement.
    let front = |c: &[f64; 2]| 1.0 / (1.0 + ((c[0] + c[1] - 0.6) * 10.0).exp());
    let mut mesh = gen2d::perturbed_grid(12, 12, 0.2, 42);
    let mut field: Vec<f64> = mesh.coords.iter().map(front).collect();
    let init = prog.lookup("INIT").unwrap();
    let result = prog.lookup("RESULT").unwrap();

    for cycle in 0..3 {
        let mut bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);
        bindings.input_arrays.insert(init, field.clone());
        let seq = syncplace::runtime::run_sequential(&prog, &bindings);

        // Run the same placed program SPMD on a fresh partition of the
        // current mesh.
        let part = partition2d(&mesh, 6, Method::RcbKl);
        let d = decompose2d(&mesh, &part.part, 6, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        let err = syncplace::runtime::max_rel_error(&seq, &res);
        let max = res.per_proc_compute.iter().cloned().fold(0.0f64, f64::max);
        let avg: f64 = res.per_proc_compute.iter().sum::<f64>() / 6.0;
        println!(
            "cycle {cycle}: {:>5} tris | imbalance {:.2} | {} phases | err {err:.1e}",
            mesh.ntris(),
            max / avg,
            res.stats.nphases(),
        );

        // Adapt: refine where the solved field varies across an element.
        let solved = &res.output_arrays[result];
        let mut marked = vec![false; mesh.ntris()];
        for (t, tri) in mesh.som().iter().enumerate() {
            let vals: Vec<f64> = tri.iter().map(|&s| solved[s as usize]).collect();
            let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
                - vals.iter().cloned().fold(f64::MAX, f64::min);
            marked[t] = spread > 0.05;
        }
        let (fine, _) = syncplace::mesh::refine2d::refine(&mesh, &marked);
        field = syncplace::mesh::refine2d::prolong_node_field(&mesh, &fine, solved);
        mesh = fine;
    }
    println!("\nsame placement object, three meshes, zero re-analysis.");
}
