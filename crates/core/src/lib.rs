//! `syncplace` — automatic placement of communications in
//! mesh-partitioning parallelization.
//!
//! A Rust reproduction of L. Hascoët, *"Automatic Placement of
//! Communications in Mesh-Partitioning Parallelization"*, PPoPP 1997.
//!
//! The crate is a facade re-exporting the workspace pieces:
//!
//! | module | contents |
//! |---|---|
//! | [`mesh`] | unstructured 2-D/3-D meshes, generators, edges, dual graph |
//! | [`partition`] | mesh splitters: RCB, RIB, greedy (Farhat), KL |
//! | [`overlap`] | overlapping patterns, sub-meshes, comm schedules |
//! | [`ir`] | the analyzable program class (DSL, AST, printer) |
//! | [`dfg`] | data-dependence graph (the Partita substitute) |
//! | [`automata`] | overlap automata (Figs. 6/7/8) |
//! | [`placement`] | legality + backtracking placement (the paper) |
//! | [`codegen`] | annotated listings & executable SPMD programs |
//! | [`runtime`] | SPMD distributed-memory simulator |
//! | [`inspector`] | PARTI-style inspector/executor baseline |
//! | [`obs`] | zero-cost-when-disabled trace/metrics recorder |
//! | [`analyze`] | independent verifier, plan auditor, IR lints |
//!
//! # Quickstart
//!
//! ```
//! use syncplace::prelude::*;
//!
//! // 1. The program to parallelize (the paper's TESTIV subroutine).
//! let prog = syncplace::ir::programs::testiv();
//!
//! // 2. Analyze against the Fig. 1 overlapping pattern's automaton.
//! let automaton = syncplace::automata::predefined::fig6();
//! let (_dfg, analysis) = syncplace::placement::analyze_program(
//!     &prog,
//!     &automaton,
//!     &SearchOptions::default(),
//!     &CostParams::default(),
//! );
//! assert!(analysis.legality.is_legal());
//! assert!(analysis.solutions.len() >= 2); // Figs. 9 and 10!
//!
//! // 3. Emit the annotated SPMD listing.
//! let listing = syncplace::codegen::annotate(&prog, &analysis.solutions[0]);
//! assert!(listing.contains("C$SYNCHRONIZE"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use syncplace_analyze as analyze;
pub use syncplace_automata as automata;
pub use syncplace_codegen as codegen;
pub use syncplace_dfg as dfg;
pub use syncplace_inspector as inspector;
pub use syncplace_ir as ir;
pub use syncplace_mesh as mesh;
pub use syncplace_obs as obs;
pub use syncplace_overlap as overlap;
pub use syncplace_partition as partition;
pub use syncplace_placement as placement;
pub use syncplace_runtime as runtime;

/// The one engine identity and the one way to run a placed program
/// (`Engine::ALL`, `name`, `run`, `run_with`), defined by the crate
/// that executes it.
pub use syncplace_runtime::Engine;

/// The automaton an overlapping pattern implies (2-D; the CLI's
/// `--dim3` picks `fig8` itself).
pub fn automaton_for(pattern: overlap::Pattern) -> automata::OverlapAutomaton {
    use automata::predefined::{element_overlap_2d_full, element_overlap_two_layer_2d, fig7};
    match pattern {
        overlap::Pattern::NodeOverlap => fig7(),
        overlap::Pattern::ElementOverlap { layers: 2 } => element_overlap_two_layer_2d(),
        _ => element_overlap_2d_full(),
    }
}

/// Parse DSL text and shape-check the program — the one way outside
/// text enters the CLI and the daemon.
pub fn parse_checked(src: &str) -> Result<ir::Program, String> {
    let prog = ir::parser::parse(src).map_err(|e| format!("parse error: {e}"))?;
    let shape_errors = ir::validate::check(&prog);
    if !shape_errors.is_empty() {
        let msgs: Vec<String> = shape_errors.iter().map(|e| e.to_string()).collect();
        return Err(format!("shape errors: {}", msgs.join("; ")));
    }
    Ok(prog)
}

/// Place a program: analyze it against `automaton` with the default
/// search and cost model, and generate the SPMD program of the
/// best-ranked solution (`analysis.solutions[0]`, never absent on
/// `Ok`). An illegal partitioning or an automaton under which no
/// placement exists is an `Err`. `rec` receives the analysis'
/// `search.*` spans and counters.
pub fn place(
    prog: &ir::Program,
    dfg: &dfg::Dfg,
    automaton: &automata::OverlapAutomaton,
    rec: &obs::RecorderRef,
) -> Result<(placement::Analysis, codegen::SpmdProgram), String> {
    let analysis = placement::analyze_recorded(
        prog,
        dfg,
        automaton,
        &placement::SearchOptions::default(),
        &placement::CostParams::default(),
        rec,
    );
    if !analysis.legality.is_legal() {
        return Err(format!(
            "the user partitioning is not legal ({} Fig. 4 violations)",
            analysis.legality.errors.len()
        ));
    }
    let Some(best) = analysis.solutions.first() else {
        return Err(format!(
            "no placement exists under automaton '{}' — wrong pattern for this program?",
            automaton.name
        ));
    };
    let spmd = codegen::spmd_program(prog, dfg, best);
    Ok((analysis, spmd))
}

/// Fill every unbound input of `prog` with a deterministic synthetic
/// field sized by `b.counts`: scalar inputs small positive, array
/// inputs mildly varying positive. The CLI's `run` and the daemon share
/// this one rule, which is what makes their results (and cached-vs-fresh
/// ones) bitwise-comparable.
pub fn synth_inputs(prog: &ir::Program, b: &mut runtime::Bindings) {
    use ir::VarKind;
    for v in prog.inputs() {
        match prog.decl(v).kind {
            VarKind::Scalar => {
                b.input_scalars.get_or_insert_with(v, || 1e-8);
            }
            VarKind::Array { base } => {
                let n = b.counts[runtime::bindings::kind_index(base)];
                let field = || (0..n).map(|i| 1.0 + 0.1 * ((i % 7) as f64)).collect();
                b.input_arrays.get_or_insert_with(v, field);
            }
            VarKind::Map { .. } => {}
        }
    }
}

/// The most common imports in one place.
pub mod prelude {
    pub use crate::Engine;
    pub use syncplace_automata::predefined::{fig6, fig7, fig8};
    pub use syncplace_automata::{CommKind, OverlapAutomaton};
    pub use syncplace_ir::{parser::parse, Program};
    pub use syncplace_mesh::{gen2d, gen3d, EntityKind, Mesh2d, Mesh3d};
    pub use syncplace_overlap::{decompose2d, decompose3d, Pattern};
    pub use syncplace_partition::{partition2d, partition3d, Method};
    pub use syncplace_placement::{analyze, analyze_program, CostParams, SearchOptions, Solution};
}
