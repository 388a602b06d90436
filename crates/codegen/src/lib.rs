//! SPMD code generation from a placement solution.
//!
//! Two outputs:
//!
//! * [`annotate`] — the paper's visible artifact: the original
//!   Fortran-style listing with `C$SYNCHRONIZE METHOD: …` and
//!   `C$ITERATION DOMAIN: KERNEL/OVERLAP` comment directives
//!   interleaved (Figs. 9–10). "In the generated output, the
//!   communication instructions appear as comments. The user replaces
//!   them by calls to subroutines using any communications package,
//!   such as PVM or MPI." (§4)
//! * [`spmd_program`] — the executable form for `syncplace-runtime`:
//!   the same statement sequence with the comment directives turned
//!   into concrete communication operations and each partitioned
//!   loop's iteration domain resolved.

#![forbid(unsafe_code)]

use syncplace_automata::CommKind;
use syncplace_dfg::ReduceOp;
use syncplace_ir::printer::{to_fortran, Annotator};
use syncplace_ir::{IdVec, Program, StmtId, VarId};
use syncplace_placement::{CommSite, InsertionPoint, IterationDomain, Solution};

/// A concrete communication operation of the SPMD program.
#[derive(Debug, Clone, PartialEq)]
pub enum CommOp {
    /// Send each owner's kernel value of `var` to its overlap copies.
    UpdateOverlap { var: VarId },
    /// Sum the partial copies of each shared entity of `var` and write
    /// the total back to every copy.
    AssembleShared { var: VarId },
    /// Globally reduce scalar `var` with `op` and replicate the result.
    Reduce { var: VarId, op: ReduceOp },
}

/// The executable SPMD program: original statements + comm points.
/// Its per-statement tables are [`IdVec`]s indexed by statement id.
#[derive(Debug, Clone)]
pub struct SpmdProgram {
    /// Communications to run immediately before each statement id.
    pub comms_before: IdVec<Vec<CommOp>>,
    /// Communications to run after the last statement.
    pub comms_at_end: Vec<CommOp>,
    /// Iteration domain per partitioned loop statement.
    pub domains: IdVec<IterationDomain>,
    /// Scalar-reduction statements in partitioned loops: the runtime
    /// accumulates these only over kernel (owned) entities so every
    /// entity is counted exactly once globally.
    pub kernel_guarded: IdVec<()>,
}

/// One communication phase's insertion point: all ops at the same
/// point travel together (the paper's "gathered into a single
/// procedure", §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseAt {
    /// Immediately before statement id.
    Before(StmtId),
    /// After the last statement.
    AtEnd,
}

impl SpmdProgram {
    /// Enumerate the communication phases in deterministic order
    /// (ascending statement id, then the end-of-program phase). Each
    /// phase is one insertion point with all its ops in placement
    /// order — the unit that batched runtimes coalesce into one
    /// packet per peer.
    pub fn phases(&self) -> Vec<(PhaseAt, &[CommOp])> {
        let mut out: Vec<(PhaseAt, &[CommOp])> = (self.comms_before.iter())
            .map(|(id, ops)| (PhaseAt::Before(id), ops.as_slice()))
            .collect();
        if !self.comms_at_end.is_empty() {
            out.push((PhaseAt::AtEnd, self.comms_at_end.as_slice()));
        }
        out
    }
}

fn comm_op(site: &CommSite) -> CommOp {
    match site.kind {
        CommKind::UpdateOverlap => CommOp::UpdateOverlap { var: site.var },
        CommKind::AssembleShared => CommOp::AssembleShared { var: site.var },
        CommKind::ReduceScalar => CommOp::Reduce {
            var: site.var,
            op: site.reduce_op.unwrap_or(ReduceOp::Sum),
        },
    }
}

/// Build the executable SPMD form of a solution. The `dfg` supplies
/// the reduction classification used for kernel guards.
pub fn spmd_program(prog: &Program, dfg: &syncplace_dfg::Dfg, sol: &Solution) -> SpmdProgram {
    let mut comms_before = IdVec::default();
    let mut comms_at_end = Vec::new();
    for site in &sol.comm_sites {
        let op = comm_op(site);
        match site.location {
            InsertionPoint::Before(stmt) => {
                comms_before.get_or_insert_with(stmt, Vec::new).push(op)
            }
            InsertionPoint::AtEnd => comms_at_end.push(op),
        }
    }
    // Kernel guards: scalar reductions inside partitioned loops.
    let mut kernel_guarded = IdVec::default();
    prog.visit_assigns(&mut |a, l| {
        if l.is_some_and(|l| l.partitioned)
            && matches!(a.lhs, syncplace_ir::Access::Scalar(_))
            && dfg.classification.reductions.contains(a.id)
        {
            kernel_guarded.insert(a.id, ());
        }
    });
    SpmdProgram {
        comms_before,
        comms_at_end,
        domains: sol.domains.iter().copied().collect(),
        kernel_guarded,
    }
}

/// The directive text of a communication site, in the paper's format.
pub fn directive_text(prog: &Program, site: &CommSite) -> String {
    let name = &prog.decl(site.var).name;
    match site.kind {
        CommKind::UpdateOverlap => {
            format!("SYNCHRONIZE METHOD: overlap-som ON ARRAY: {name}")
        }
        CommKind::AssembleShared => {
            format!("SYNCHRONIZE METHOD: assemble-shared ON ARRAY: {name}")
        }
        CommKind::ReduceScalar => format!(
            "SYNCHRONIZE METHOD: {} reduction ON SCALAR: {name}",
            site.reduce_op.unwrap_or(ReduceOp::Sum).symbol()
        ),
    }
}

struct SolutionAnnotator<'a> {
    prog: &'a Program,
    sol: &'a Solution,
}

impl<'a> Annotator for SolutionAnnotator<'a> {
    fn before_stmt(&self, id: StmtId) -> Vec<String> {
        let mut out: Vec<String> = self
            .sol
            .comm_sites
            .iter()
            .filter(|s| s.location == InsertionPoint::Before(id))
            .map(|s| directive_text(self.prog, s))
            .collect();
        if let Some((_, d)) = self.sol.domains.iter().find(|(s, _)| *s == id) {
            out.push(format!(
                "ITERATION DOMAIN: {}",
                match d {
                    IterationDomain::Kernel => "KERNEL",
                    IterationDomain::Overlap => "OVERLAP",
                }
            ));
        }
        out
    }

    fn at_end(&self) -> Vec<String> {
        self.sol
            .comm_sites
            .iter()
            .filter(|s| s.location == InsertionPoint::AtEnd)
            .map(|s| directive_text(self.prog, s))
            .collect()
    }
}

/// Produce the annotated Fortran-style listing of a solution — the
/// Figs. 9/10 artifact.
pub fn annotate(prog: &Program, sol: &Solution) -> String {
    to_fortran(prog, &SolutionAnnotator { prog, sol })
}

/// A compact one-line summary of a solution for experiment tables:
/// comm sites and restricted domains.
pub fn summarize(prog: &Program, sol: &Solution) -> String {
    let sites: Vec<String> = sol
        .comm_sites
        .iter()
        .map(|s| {
            let what = match s.kind {
                CommKind::UpdateOverlap => "update",
                CommKind::AssembleShared => "assemble",
                CommKind::ReduceScalar => "reduce",
            };
            let loc = match s.location {
                InsertionPoint::Before(stmt) => format!("before s{stmt}"),
                InsertionPoint::AtEnd => "at end".to_string(),
            };
            format!("{what}({}) {loc}", prog.decl(s.var).name)
        })
        .collect();
    let kernels = sol
        .domains
        .iter()
        .filter(|(_, d)| *d == IterationDomain::Kernel)
        .count();
    format!(
        "{} | kernel-restricted loops: {kernels} | score {:.1}",
        sites.join("; "),
        sol.cost.score
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_automata::predefined::fig6;
    use syncplace_ir::programs;
    use syncplace_placement::{analyze_program, CostParams, SearchOptions};

    fn testiv_solutions() -> (Program, Vec<Solution>) {
        let p = programs::testiv();
        let (_, analysis) = analyze_program(
            &p,
            &fig6(),
            &SearchOptions::default(),
            &CostParams::default(),
        );
        assert!(analysis.legality.is_legal());
        (p, analysis.solutions)
    }

    #[test]
    fn annotation_contains_paper_directives() {
        let (p, sols) = testiv_solutions();
        assert!(!sols.is_empty());
        let text = annotate(&p, &sols[0]);
        assert!(
            text.contains("C$SYNCHRONIZE METHOD: overlap-som ON ARRAY:"),
            "{text}"
        );
        assert!(
            text.contains("C$SYNCHRONIZE METHOD: + reduction ON SCALAR: sqrdiff"),
            "{text}"
        );
        assert!(text.contains("C$ITERATION DOMAIN: KERNEL"), "{text}");
        assert!(text.contains("C$ITERATION DOMAIN: OVERLAP"), "{text}");
    }

    #[test]
    fn multiple_distinct_placements_exist() {
        // "more than one solution may be found. Finding them all gives
        // the opportunity to choose." (§1)
        let (_, sols) = testiv_solutions();
        assert!(sols.len() >= 2, "found {} placements", sols.len());
        let f0 = sols[0].fingerprint();
        assert!(sols[1..].iter().all(|s| s.fingerprint() != f0));
    }

    #[test]
    fn spmd_program_carries_comms_and_domains() {
        let (p, sols) = testiv_solutions();
        let dfg = syncplace_dfg::build(&p);
        let spmd = spmd_program(&p, &dfg, &sols[0]);
        let total_comms: usize =
            spmd.comms_before.values().map(|v| v.len()).sum::<usize>() + spmd.comms_at_end.len();
        assert!(total_comms >= 2);
        // All partitioned loops have a domain: init, NEW=0, tri,
        // sqrdiff, copy, result = 6.
        assert_eq!(spmd.domains.len(), 6);
    }

    #[test]
    fn phases_cover_every_comm_op_in_order() {
        let (p, sols) = testiv_solutions();
        let dfg = syncplace_dfg::build(&p);
        let spmd = spmd_program(&p, &dfg, &sols[0]);
        let phases = spmd.phases();
        let total: usize = phases.iter().map(|(_, ops)| ops.len()).sum();
        assert_eq!(
            total,
            spmd.comms_before.values().map(|v| v.len()).sum::<usize>() + spmd.comms_at_end.len()
        );
        // Deterministic order: strictly increasing insertion points.
        for w in phases.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // No phase is empty.
        assert!(phases.iter().all(|(_, ops)| !ops.is_empty()));
    }

    #[test]
    fn summaries_are_distinct_for_distinct_solutions() {
        let (p, sols) = testiv_solutions();
        let a = summarize(&p, &sols[0]);
        let b = summarize(&p, &sols[1]);
        assert_ne!(a, b);
    }

    #[test]
    fn fig7_listing_uses_assemble_directive() {
        use syncplace_automata::predefined::fig7;
        let p = programs::testiv();
        let (_, analysis) = analyze_program(
            &p,
            &fig7(),
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let text = annotate(&p, &analysis.solutions[0]);
        assert!(
            text.contains("C$SYNCHRONIZE METHOD: assemble-shared ON ARRAY: NEW")
                || text.contains("C$SYNCHRONIZE METHOD: assemble-shared ON ARRAY: OLD"),
            "{text}"
        );
        // No stale-copy updates exist under the node-overlap pattern.
        assert!(!text.contains("overlap-som"), "{text}");
    }

    #[test]
    fn max_reduction_directive_symbol() {
        let p = syncplace_ir::parser::parse(
            "program t\n input A : node\n output m : scalar\n m = 0.0\n forall i in node split { m = max(m, A(i)) }\nend",
        )
        .unwrap();
        let (_, analysis) = analyze_program(
            &p,
            &syncplace_automata::predefined::fig6(),
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let text = annotate(&p, &analysis.solutions[0]);
        assert!(
            text.contains("C$SYNCHRONIZE METHOD: max reduction ON SCALAR: m"),
            "{text}"
        );
    }

    #[test]
    fn two_layer_listing_single_update_per_unrolled_iteration() {
        use syncplace_automata::predefined::element_overlap_two_layer_2d;
        let p = syncplace_ir::transform::unroll_time_loop_check_last(&programs::testiv_with(8), 2);
        let (_, analysis) = analyze_program(
            &p,
            &element_overlap_two_layer_2d(),
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let sol = &analysis.solutions[0];
        let updates_in_loop = sol
            .comm_sites
            .iter()
            .filter(|c| c.in_time_loop && c.kind == syncplace_automata::CommKind::UpdateOverlap)
            .count();
        assert_eq!(updates_in_loop, 1, "{}", summarize(&p, sol));
    }
}
