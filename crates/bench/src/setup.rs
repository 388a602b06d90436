//! Shared experiment setups: program + mesh + bindings + analysis in
//! one call, parameterized by size so tests run small and the
//! `reproduce` binary runs at paper scale.

use syncplace::automata::predefined::fig8;
use syncplace::automata::OverlapAutomaton;
use syncplace::codegen::SpmdProgram;
use syncplace::dfg::Dfg;
use syncplace::ir::Program;
use syncplace::mesh::{Mesh2d, Mesh3d};
use syncplace::overlap::{Decomposition, Pattern};
use syncplace::placement::{Analysis, CostParams, SearchOptions};
use syncplace::runtime::Bindings;

/// A program, the mesh it runs on and its placement analysis.
pub struct Setup<M> {
    /// The program.
    pub prog: Program,
    /// The mesh it runs on.
    pub mesh: M,
    /// Initial array bindings for the runtime engines.
    pub bindings: Bindings,
    /// Data-flow graph of `prog`.
    pub dfg: Dfg,
    /// Placement analysis: legality, solution space, costs.
    pub analysis: Analysis,
}

/// A fully analyzed TESTIV instance (Fig. 9 shape) on a perturbed grid.
pub type TestivSetup = Setup<Mesh2d>;

/// Analyze `prog` against `automaton` with the default search and cost
/// model.
pub fn analyze(prog: &Program, automaton: &OverlapAutomaton) -> (Dfg, Analysis) {
    syncplace::placement::analyze_program(
        prog,
        automaton,
        &SearchOptions::default(),
        &CostParams::default(),
    )
}

impl<M> Setup<M> {
    /// Analyze `prog` against `automaton`.
    fn analyzed(
        prog: Program,
        mesh: M,
        bindings: Bindings,
        automaton: &OverlapAutomaton,
    ) -> Self {
        let (dfg, analysis) = analyze(&prog, automaton);
        Setup {
            prog,
            mesh,
            bindings,
            dfg,
            analysis,
        }
    }
}

/// Build and analyze TESTIV on an `nx × nx` perturbed grid, with a
/// mildly non-uniform initial field (so placement errors are
/// observable) and the given convergence threshold.
pub fn testiv(nx: usize, epsilon: f64, automaton: &OverlapAutomaton) -> TestivSetup {
    let prog = syncplace::ir::programs::testiv();
    let mesh = syncplace::mesh::gen2d::perturbed_grid(nx, nx, 0.2, 42);
    let mut bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, epsilon);
    let init = prog.lookup("INIT").unwrap();
    bindings.input_arrays.insert(
        init,
        (0..mesh.nnodes())
            .map(|i| 1.0 + 0.25 * ((i % 11) as f64 / 11.0))
            .collect(),
    );
    Setup::analyzed(prog, mesh, bindings, automaton)
}

/// Build and analyze the 3-D tet-heat program (40 time steps) on an
/// `n × n × n` box mesh under the Fig. 8 automaton.
pub fn tet_heat(n: usize) -> Setup<Mesh3d> {
    let prog = syncplace::ir::programs::tet_heat(40);
    let mesh = syncplace::mesh::gen3d::box_mesh(n, n, n);
    let bindings = syncplace::runtime::bindings::tet_heat_bindings(&prog, &mesh, 1e-7);
    Setup::analyzed(prog, mesh, bindings, &fig8())
}

/// Decompose the setup's mesh and produce the executable SPMD program
/// for solution `idx`.
pub fn decompose(
    s: &TestivSetup,
    nparts: usize,
    pattern: Pattern,
    idx: usize,
) -> (Decomposition<3>, SpmdProgram) {
    let part =
        syncplace::partition::partition2d(&s.mesh, nparts, syncplace::partition::Method::GreedyKl);
    let d = syncplace::overlap::decompose2d(&s.mesh, &part.part, nparts, pattern);
    let sol = &s.analysis.solutions[idx.min(s.analysis.solutions.len() - 1)];
    let spmd = syncplace::codegen::spmd_program(&s.prog, &s.dfg, sol);
    (d, spmd)
}

/// Index of the first Fig. 10-style solution: the one that updates
/// `OLD` at the head of the time loop (and therefore restricts the
/// copy loops to the kernel).
pub fn fig10_style_index(s: &TestivSetup) -> Option<usize> {
    let old = s.prog.lookup("OLD").unwrap();
    s.analysis.solutions.iter().position(|sol| {
        sol.comm_sites
            .iter()
            .any(|site| site.var == old && site.in_time_loop)
    })
}

/// A synthetic "chain" program for search-scaling experiments (E9):
/// `n` consecutive partitioned element loops rescaling T₁ → T₂ → …
/// (element-based data has a single coherent state, so each chain link
/// crosses a forced, state-preserving dependence — exactly the
/// sequences §5.2 proposes to merge), followed by a gather–scatter and
/// a reduction so a real placement exists.
pub fn chain_program(n: usize) -> Program {
    let mut src = String::from(
        "program chain\n  input A0 : node\n  output S : scalar\n  output LAST : node\n  map SOM : tri -> node [3]\n  input W : tri\n",
    );
    for k in 1..=n {
        src.push_str(&format!("  var T{k} : tri\n"));
    }
    src.push_str("  forall i in tri split { T1(i) = W(i) + A0(SOM(i,1)) }\n");
    for k in 2..=n {
        src.push_str(&format!(
            "  forall i in tri split {{ T{k}(i) = T{}(i) * 0.5 }}\n",
            k - 1
        ));
    }
    src.push_str(&format!(
        "  S = 0.0\n  forall i in tri split {{ S = S + T{n}(i) }}\n"
    ));
    src.push_str("  forall i in node split { LAST(i) = A0(i) * 2.0 }\nend\n");
    syncplace::ir::parser::parse(&src).expect("chain program parses")
}

/// DSL source of a "wide" program: `k` independent gather–scatter
/// subgraphs, each ending in its own output. Placement choices
/// multiply across subgraphs (the solution count and the search tree
/// grow geometrically with `k`), so — unlike the forced chains of
/// [`chain_program`] — a cold placement is expensive. The final
/// scatter is scaled by `scale`: distinct values produce programs with
/// *identical search cost* but different canonical text — the
/// serve-bench uses a family of these to take several genuinely cold
/// (placement-cache-missing) samples from one daemon.
pub fn wide_program_src_scaled(k: usize, scale: f64) -> String {
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
             forall i in tri split {{ R{j}(i) = N{j}(SOM(i,3)) * {scale:.4} }}\n"
        ));
    }
    src.push_str("end\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace::automata::predefined::fig6;

    #[test]
    fn testiv_setup_builds() {
        let s = testiv(6, 1e-9, &fig6());
        assert!(s.analysis.legality.is_legal());
        assert!(s.analysis.solutions.len() >= 2);
        assert!(fig10_style_index(&s).is_some());
    }

    #[test]
    fn wide_program_is_legal_and_branchy() {
        let p = syncplace::ir::parser::parse(&wide_program_src_scaled(3, 1.0)).unwrap();
        let (_, analysis) = syncplace::placement::analyze_program(
            &p,
            &fig6(),
            &SearchOptions {
                max_solutions: 4096,
                ..Default::default()
            },
            &CostParams::default(),
        );
        assert!(analysis.legality.is_legal());
        // Independent subgraphs multiply placements: with s choices per
        // subgraph there are ~s^k solutions, so 3 subgraphs must beat
        // any single subgraph's count squared... conservatively: > 8.
        assert!(
            analysis.solutions.len() > 8,
            "expected a branchy tree, got {} solutions",
            analysis.solutions.len()
        );
    }

    #[test]
    fn chain_program_is_legal_and_placeable() {
        let p = chain_program(4);
        let (_, analysis) = syncplace::placement::analyze_program(
            &p,
            &fig6(),
            &SearchOptions {
                max_solutions: 8,
                ..Default::default()
            },
            &CostParams::default(),
        );
        assert!(analysis.legality.is_legal());
        assert!(!analysis.solutions.is_empty());
    }
}
