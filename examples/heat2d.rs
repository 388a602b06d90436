//! A 2-D heat-style smoothing solver, written in the syncplace DSL
//! from scratch (not one of the built-in programs), analyzed, placed
//! and executed on both overlapping patterns.
//!
//! ```text
//! cargo run --example heat2d
//! ```

use syncplace::prelude::*;

const HEAT: &str = r#"
program heat2d
  input U0 : node
  input CAP : node          # nodal capacity (assembled areas)
  input K : tri             # element conductivity * area
  output U : node
  map SOM : tri -> node [3]
  input epsilon : scalar
  var ACC : node
  var UT : node
  var flux : scalar
  var sqrdiff : scalar
  var diff : scalar

  forall i in node split { UT(i) = U0(i) }
  iterate step max 200 {
    forall i in node split { ACC(i) = 0.0 }
    forall i in tri split {
      flux = (UT(SOM(i,1)) + UT(SOM(i,2)) + UT(SOM(i,3))) * K(i) / 3.0
      ACC(SOM(i,1)) = ACC(SOM(i,1)) + flux
      ACC(SOM(i,2)) = ACC(SOM(i,2)) + flux
      ACC(SOM(i,3)) = ACC(SOM(i,3)) + flux
    }
    sqrdiff = 0.0
    forall i in node split {
      diff = ACC(i) / CAP(i) - UT(i)
      sqrdiff = sqrdiff + diff * diff
    }
    exit when sqrdiff < epsilon
    forall i in node split { UT(i) = ACC(i) / CAP(i) }
  }
  forall i in node split { U(i) = UT(i) }
end
"#;

fn main() {
    let prog = syncplace::ir::parser::parse(HEAT).expect("parses");
    syncplace::ir::validate::assert_valid(&prog);

    let mesh = gen2d::perturbed_grid(20, 20, 0.25, 3);
    // Bindings: conductivities = element areas, capacities scaled so a
    // constant field is a fixed point; a hot corner as initial data.
    let areas: Vec<f64> = (0..mesh.ntris())
        .map(|t| mesh.signed_area(t).abs())
        .collect();
    let mut cap = vec![0.0; mesh.nnodes()];
    for (t, tri) in mesh.som().iter().enumerate() {
        for &s in tri {
            cap[s as usize] += areas[t];
        }
    }
    let u0: Vec<f64> = mesh
        .coords
        .iter()
        .map(|c| if c[0] < 0.2 && c[1] < 0.2 { 10.0 } else { 0.0 })
        .collect();
    let mut bindings = syncplace::runtime::Bindings::for_mesh(&prog, &mesh);
    bindings.input_arrays.insert(prog.lookup("U0").unwrap(), u0);
    bindings
        .input_arrays
        .insert(prog.lookup("CAP").unwrap(), cap);
    bindings
        .input_arrays
        .insert(prog.lookup("K").unwrap(), areas);
    bindings
        .input_scalars
        .insert(prog.lookup("epsilon").unwrap(), 1e-10);

    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    println!(
        "sequential: converged after {} steps, peak {:.3}",
        seq.iterations,
        seq.output_arrays[prog.lookup("U").unwrap()]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
    );

    for (pattern, automaton) in [(Pattern::FIG1, fig6()), (Pattern::FIG2, fig7())] {
        let (dfg, analysis) = analyze_program(
            &prog,
            &automaton,
            &SearchOptions::default(),
            &CostParams::default(),
        );
        assert!(analysis.legality.is_legal());
        let sol = &analysis.solutions[0];
        let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
        let part = partition2d(&mesh, 6, Method::GreedyKl);
        let d = decompose2d(&mesh, &part.part, 6, pattern);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        println!(
            "{:<20} {} placements | {} phases | dup tris {} | err {:.2e}",
            pattern.name(),
            analysis.solutions.len(),
            res.stats.nphases(),
            d.total_overlap_elems(),
            syncplace::runtime::max_rel_error(&seq, &res),
        );
    }
}
