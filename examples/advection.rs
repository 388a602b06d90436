//! An edge-based advection-style solver with a CFL *max*-reduction:
//! every time step computes the largest edge signal speed (a global
//! `max` that must be allreduced before it can scale the update — a
//! second communication kind inside the loop, unlike TESTIV's
//! sum-only pattern).
//!
//! ```text
//! cargo run --release --example advection
//! ```

use syncplace::automata::predefined::element_overlap_2d_full;
use syncplace::prelude::*;

const ADVECT: &str = r#"
program advect
  input U0 : node
  input V : edge            # edge signal speed (positive)
  output U : node
  map SEG : edge -> node [2]
  var UT : node
  var ACC : node
  var DEG : node
  var cfl : scalar
  var dt : scalar
  var flux : scalar

  forall i in node split { UT(i) = U0(i) }
  iterate step max 25 {
    # global CFL: the largest signal speed this step
    cfl = 0.0
    forall e in edge split { cfl = max(cfl, V(e)) }
    dt = 0.4 / cfl
    forall i in node split { ACC(i) = 0.0 ; DEG(i) = 0.0 }
    forall e in edge split {
      flux = (UT(SEG(e,2)) - UT(SEG(e,1))) * V(e) * dt
      ACC(SEG(e,1)) = ACC(SEG(e,1)) + flux
      ACC(SEG(e,2)) = ACC(SEG(e,2)) - flux
      DEG(SEG(e,1)) = DEG(SEG(e,1)) + 1.0
      DEG(SEG(e,2)) = DEG(SEG(e,2)) + 1.0
    }
    forall i in node split { UT(i) = UT(i) + ACC(i) / DEG(i) }
  }
  forall i in node split { U(i) = UT(i) }
end
"#;

fn main() {
    let prog = parse(ADVECT).expect("parses");
    syncplace::ir::validate::assert_valid(&prog);
    let mesh = gen2d::perturbed_grid(16, 16, 0.2, 31);

    let mut bindings = syncplace::runtime::Bindings::for_mesh(&prog, &mesh);
    let nedges = bindings.counts[syncplace::runtime::bindings::kind_index(EntityKind::Edge)];
    bindings.input_arrays.insert(
        prog.lookup("U0").unwrap(),
        mesh.coords
            .iter()
            .map(|c| if c[0] < 0.3 { 1.0 } else { 0.0 })
            .collect(),
    );
    bindings.input_arrays.insert(
        prog.lookup("V").unwrap(),
        (0..nedges)
            .map(|e| 0.5 + 0.5 * ((e % 13) as f64 / 13.0))
            .collect(),
    );

    let (dfg, analysis) = analyze_program(
        &prog,
        &element_overlap_2d_full(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    let sol = &analysis.solutions[0];
    println!(
        "{} placements; best: {}\n",
        analysis.solutions.len(),
        syncplace::codegen::summarize(&prog, sol)
    );
    println!("{}", syncplace::codegen::annotate(&prog, sol));

    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
    for p in [2usize, 4, 8] {
        let part = partition2d(&mesh, p, Method::RcbKl);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        println!(
            "P={p}: {} phases ({} reduces incl. the CFL max), err {:.2e}",
            res.stats.nphases(),
            res.stats.reduces,
            syncplace::runtime::max_rel_error(&seq, &res)
        );
    }
}
