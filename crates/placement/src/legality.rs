//! The Fig. 4 legality check (§3.2).
//!
//! "A loop partitioning provided by the user is acceptable if no
//! dependence (remaining after induction and reduction detection, and
//! localization) is carried across the iterations of the partitioned
//! loop." Plus the case-*g* restriction: a value may not flow out of a
//! *particular* partitioned iteration, "except for the special case of
//! reductions".
//!
//! Each violation is reported as a structured
//! [`Diagnostic`] with a stable code
//! per Fig. 4 case (`SA030`–`SA034`) and, where `dfg::classify` can
//! suggest one, a "removable by localization/reduction" hint.

use syncplace_dfg::{DepKind, Dfg, NodeKind, UseClass, ValueShape};
use syncplace_ir::diag::{codes, Diagnostic, Span};
use syncplace_ir::{Program, StmtId, VarId};

/// One legality violation: the Fig. 4 classification plus the
/// underlying structured diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalityError {
    /// Fig. 4 case letter ('a', 'c', 'd', 'g') or 'm' for mixed usage.
    pub case: char,
    /// The offending variable.
    pub var: VarId,
    /// The partitioned loop involved (when applicable).
    pub loop_stmt: Option<StmtId>,
    /// The structured diagnostic (code, severity, span, message, hint).
    pub diag: Diagnostic,
}

impl LegalityError {
    /// The human-readable explanation (the diagnostic's message).
    pub fn message(&self) -> &str {
        &self.diag.message
    }

    /// The stable diagnostic code for a Fig. 4 case letter.
    pub fn code_for_case(case: char) -> &'static str {
        match case {
            'a' => codes::CARRIED_TRUE,
            'c' => codes::CARRIED_ANTI,
            'd' => codes::CARRIED_OUTPUT,
            'g' => codes::VALUE_ESCAPES,
            _ => codes::MIXED_USAGE,
        }
    }
}

impl std::fmt::Display for LegalityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Display stays the bare message the old string-based error
        // carried; the full coded rendering is `self.diag`'s Display.
        f.write_str(&self.diag.message)
    }
}

/// The verdict for a program.
#[derive(Debug, Clone, Default)]
pub struct LegalityReport {
    pub errors: Vec<LegalityError>,
    /// Carried dependences that were *removed* by localization.
    pub removed_by_localization: usize,
    /// Carried dependences that were *excused* by reduction detection.
    pub excused_by_reduction: usize,
}

impl LegalityReport {
    /// Is the user partitioning legal?
    pub fn is_legal(&self) -> bool {
        self.errors.is_empty()
    }

    /// The structured diagnostics of every violation.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.errors.iter().map(|e| e.diag.clone()).collect()
    }
}

fn legality_error(
    prog: &Program,
    case: char,
    var: VarId,
    loop_stmt: Option<StmtId>,
    message: String,
) -> LegalityError {
    let mut span = Span::none().with_var(var);
    if let Some(l) = loop_stmt {
        span = span.with_stmt(l);
    }
    let mut diag = Diagnostic::error(LegalityError::code_for_case(case), span, message);
    if let Some(l) = loop_stmt {
        if let Some(hint) = syncplace_dfg::removal_hint(prog, l, var) {
            diag = diag.with_help(hint);
        }
    }
    LegalityError {
        case,
        var,
        loop_stmt,
        diag,
    }
}

/// Run the full check.
pub fn check_legality(prog: &Program, dfg: &Dfg) -> LegalityReport {
    let mut report = LegalityReport::default();

    // --- Fig. 4 cases a / c / d: carried dependences -----------------------
    for c in &dfg.carried {
        if !c.partitioned {
            continue; // cases h/i: sequential loops respect everything
        }
        if c.localized {
            report.removed_by_localization += 1;
            continue;
        }
        if c.reduction_ok {
            report.excused_by_reduction += 1;
            continue;
        }
        report.errors.push(legality_error(
            prog,
            c.fig4_case(),
            c.var,
            Some(c.loop_stmt),
            format!(
                "{:?} dependence on {} carried across iterations of partitioned loop s{} (s{} -> s{})",
                c.kind,
                prog.decl(c.var).name,
                c.loop_stmt,
                c.from_stmt,
                c.to_stmt
            ),
        ));
    }

    // --- Fig. 4 case g: values escaping a particular iteration -------------
    for a in dfg.arrows_of_kind(DepKind::True) {
        let from = &dfg.nodes[a.from];
        let to = &dfg.nodes[a.to];
        let NodeKind::Def { stmt, var, .. } = from.kind else {
            continue;
        };
        let from_loop = from.loop_ctx.filter(|c| c.partitioned);
        let Some(floop) = from_loop else { continue };
        let is_reduction = dfg.classification.reductions.contains(stmt);
        // g(1): a fixed-element read of a partitioned array.
        if let NodeKind::Use {
            class: UseClass::Fixed,
            ..
        } = &to.kind
        {
            report.errors.push(legality_error(
                prog,
                'g',
                var,
                Some(floop.loop_stmt),
                format!(
                    "explicit element of partitioned array {} (written in loop s{}) is read as a scalar",
                    prog.decl(var).name,
                    floop.loop_stmt
                ),
            ));
            continue;
        }
        // g(2): a scalar defined by a partitioned iteration escapes the
        // loop without being a reduction. (Localized scalars never
        // escape; their shape is the loop entity.)
        if is_reduction || from.shape != ValueShape::Scalar {
            continue;
        }
        let escapes = match &to.kind {
            NodeKind::Output(_) => true,
            _ => to.loop_ctx.map(|c| c.loop_stmt) != Some(floop.loop_stmt),
        };
        if escapes {
            report.errors.push(legality_error(
                prog,
                'g',
                var,
                Some(floop.loop_stmt),
                format!(
                    "scalar {} takes its value from an unidentifiable iteration of partitioned loop s{}",
                    prog.decl(var).name,
                    floop.loop_stmt
                ),
            ));
        }
    }

    // --- mixed partitioned/sequential array usage ---------------------------
    for &v in &dfg.mixed_usage {
        report.errors.push(legality_error(
            prog,
            'm',
            v,
            None,
            format!(
                "array {} is accessed in both partitioned and sequential loops (cannot be both distributed and replicated)",
                prog.decl(v).name
            ),
        ));
    }

    // Deduplicate identical errors (the same escape may be witnessed by
    // several arrows).
    report.errors.sort_by(|a, b| {
        (a.case, a.var, a.loop_stmt, &a.diag.message).cmp(&(
            b.case,
            b.var,
            b.loop_stmt,
            &b.diag.message,
        ))
    });
    report.errors.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_ir::programs;

    #[test]
    fn taxonomy_full_verdicts() {
        for case in programs::taxonomy() {
            let dfg = syncplace_dfg::build(&case.program);
            let report = check_legality(&case.program, &dfg);
            assert_eq!(
                report.is_legal(),
                case.legal,
                "case {} ({}): {:?}",
                case.name,
                case.why,
                report.errors
            );
        }
    }

    #[test]
    fn taxonomy_case_letters() {
        let expect = [
            ("a-true-carried", 'a'),
            ("c-anti-carried", 'c'),
            ("d-output-carried", 'd'),
            ("g-scalar-liveout", 'g'),
            ("g-fixed-index", 'g'),
        ];
        let cases = programs::taxonomy();
        for (name, letter) in expect {
            let case = cases.iter().find(|c| c.name == name).unwrap();
            let dfg = syncplace_dfg::build(&case.program);
            let report = check_legality(&case.program, &dfg);
            assert!(
                report.errors.iter().any(|e| e.case == letter),
                "case {name}: expected a '{letter}' error, got {:?}",
                report.errors
            );
        }
    }

    #[test]
    fn errors_carry_coded_diagnostics() {
        let cases = programs::taxonomy();
        for case in &cases {
            let dfg = syncplace_dfg::build(&case.program);
            let report = check_legality(&case.program, &dfg);
            for e in &report.errors {
                assert_eq!(e.diag.code, LegalityError::code_for_case(e.case));
                assert_eq!(e.diag.span.var, Some(e.var));
                assert_eq!(e.diag.span.stmt, e.loop_stmt);
                // Display stays the bare message.
                assert_eq!(e.to_string(), e.diag.message);
            }
        }
    }

    #[test]
    fn carried_true_scalar_gets_reduction_hint() {
        let case = programs::taxonomy()
            .into_iter()
            .find(|c| c.name == "a-true-carried")
            .unwrap();
        let dfg = syncplace_dfg::build(&case.program);
        let report = check_legality(&case.program, &dfg);
        let e = report.errors.iter().find(|e| e.case == 'a').unwrap();
        assert!(
            e.diag.help.is_some(),
            "expected a removal hint, got {:?}",
            e.diag
        );
    }

    #[test]
    fn testiv_is_legal_with_removals() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let report = check_legality(&p, &dfg);
        assert!(report.is_legal(), "{:?}", report.errors);
        assert!(report.removed_by_localization > 0);
        assert!(report.excused_by_reduction > 0);
    }

    #[test]
    fn edge_smooth_is_legal() {
        let p = programs::edge_smooth();
        let dfg = syncplace_dfg::build(&p);
        let report = check_legality(&p, &dfg);
        assert!(report.is_legal(), "{:?}", report.errors);
    }

    #[test]
    fn mixed_usage_is_case_m() {
        let p = syncplace_ir::parser::parse(
            "program t\n inout A : node\n output s : scalar\n forall i in node split { A(i) = A(i) + 1.0 }\n s = 0.0\n forall i in node seq { s = s + A(i) }\nend",
        )
        .unwrap();
        let dfg = syncplace_dfg::build(&p);
        let report = check_legality(&p, &dfg);
        assert!(report.errors.iter().any(|e| e.case == 'm'));
    }
}
