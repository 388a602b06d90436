//! Pretty-printers: Fortran-77 style (the look of the paper's Figs.
//! 9–10) and DSL round-trip.
//!
//! The Fortran printer accepts an [`Annotator`] so that
//! `syncplace-codegen` can interleave `C$SYNCHRONIZE` and
//! `C$ITERATION DOMAIN` comment directives — the exact output format
//! of the paper's tool ("In the generated output, the communication
//! instructions appear as comments", §4).

use crate::ast::*;

/// Hook for directive comments interleaved with printed statements.
pub trait Annotator {
    /// Comment lines to print immediately before statement `id`.
    fn before_stmt(&self, _id: StmtId) -> Vec<String> {
        Vec::new()
    }
    /// Comment lines to print immediately after statement `id`
    /// (after the whole loop for loop statements).
    fn after_stmt(&self, _id: StmtId) -> Vec<String> {
        Vec::new()
    }
    /// Comment lines to print at the very end of the program.
    fn at_end(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The trivial annotator: no directives.
pub struct NoAnnotations;
impl Annotator for NoAnnotations {}

/// Loop bound variable name per entity kind (Fortran style).
pub fn bound_name(e: EntityKind) -> &'static str {
    match e {
        EntityKind::Node => "nsom",
        EntityKind::Edge => "nseg",
        EntityKind::Tri => "ntri",
        EntityKind::Tet => "nthd",
    }
}

/// Print a program as Fortran-77-style source.
pub fn to_fortran(prog: &Program, ann: &dyn Annotator) -> String {
    let mut out = String::new();
    let args: Vec<&str> = prog
        .decls
        .iter()
        .filter(|d| d.input || d.output)
        .map(|d| d.name.as_str())
        .collect();
    out.push_str(&format!(
        "      subroutine {}({})\n",
        prog.name.to_uppercase(),
        args.join(", ")
    ));
    for d in &prog.decls {
        let line = match &d.kind {
            VarKind::Scalar => format!("      real {}\n", d.name),
            VarKind::Array { base } => {
                format!("      real {}({})\n", d.name, bound_name(*base))
            }
            VarKind::Map { from, arity, .. } => {
                format!("      integer {}({},{arity})\n", d.name, bound_name(*from))
            }
        };
        out.push_str(&line);
    }
    let mut label = 100usize;
    print_stmts(prog, &prog.body, ann, &mut out, &mut label, 6);
    for line in ann.at_end() {
        out.push_str(&format!("C${line}\n"));
    }
    out.push_str("      end\n");
    out
}

fn print_stmts(
    prog: &Program,
    stmts: &[Stmt],
    ann: &dyn Annotator,
    out: &mut String,
    label: &mut usize,
    indent: usize,
) {
    let pad = " ".repeat(indent);
    for s in stmts {
        let id = s.id();
        for line in ann.before_stmt(id) {
            out.push_str(&format!("C${line}\n"));
        }
        match s {
            Stmt::Loop(l) => {
                out.push_str(&format!(
                    "{pad}do {} = 1,{}\n",
                    l.index,
                    bound_name(l.entity)
                ));
                for a in &l.body {
                    for line in ann.before_stmt(a.id) {
                        out.push_str(&format!("C${line}\n"));
                    }
                    out.push_str(&format!(
                        "{pad}  {} = {}\n",
                        access_str(prog, &a.lhs, Some(&l.index)),
                        expr_str(prog, &a.rhs, Some(&l.index))
                    ));
                    for line in ann.after_stmt(a.id) {
                        out.push_str(&format!("C${line}\n"));
                    }
                }
                out.push_str(&format!("{pad}end do\n"));
            }
            Stmt::Assign(a) => {
                out.push_str(&format!(
                    "{pad}{} = {}\n",
                    access_str(prog, &a.lhs, None),
                    expr_str(prog, &a.rhs, None)
                ));
            }
            Stmt::TimeLoop(t) => {
                let head = *label;
                let exit_label = *label + 100;
                *label += 200;
                out.push_str(&format!("{pad}{} = 0\n", t.counter));
                out.push_str(&format!("{head:<4}  {} = {} + 1\n", t.counter, t.counter));
                // Body; ExitIf statements need the exit label.
                print_time_body(prog, &t.body, ann, out, label, indent, exit_label, t);
                out.push_str(&format!(
                    "{pad}if ({} .lt. {}) goto {head}\n",
                    t.counter, t.max_iters
                ));
                out.push_str(&format!("{exit_label:<4}  continue\n"));
            }
            Stmt::ExitIf(_) => unreachable!("exit tests only appear inside time loops"),
        }
        for line in ann.after_stmt(id) {
            out.push_str(&format!("C${line}\n"));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn print_time_body(
    prog: &Program,
    stmts: &[Stmt],
    ann: &dyn Annotator,
    out: &mut String,
    label: &mut usize,
    indent: usize,
    exit_label: usize,
    _t: &TimeLoopStmt,
) {
    let pad = " ".repeat(indent);
    for s in stmts {
        match s {
            Stmt::ExitIf(e) => {
                for line in ann.before_stmt(e.id) {
                    out.push_str(&format!("C${line}\n"));
                }
                out.push_str(&format!(
                    "{pad}if ({} {} {}) goto {exit_label}\n",
                    expr_str(prog, &e.lhs, None),
                    rel_str(e.rel),
                    expr_str(prog, &e.rhs, None)
                ));
                for line in ann.after_stmt(e.id) {
                    out.push_str(&format!("C${line}\n"));
                }
            }
            other => print_stmts(prog, std::slice::from_ref(other), ann, out, label, indent),
        }
    }
}

fn rel_str(r: RelOp) -> &'static str {
    match r {
        RelOp::Lt => ".lt.",
        RelOp::Le => ".le.",
        RelOp::Gt => ".gt.",
        RelOp::Ge => ".ge.",
    }
}

/// Render an access in Fortran syntax.
pub fn access_str(prog: &Program, a: &Access, index: Option<&str>) -> String {
    let name = &prog.decl(a.var()).name;
    match a {
        Access::Scalar(_) => name.clone(),
        Access::Direct(_) => format!("{name}({})", index.unwrap_or("i")),
        Access::Indirect { map, slot, .. } => format!(
            "{name}({}({},{}))",
            prog.decl(*map).name,
            index.unwrap_or("i"),
            slot + 1
        ),
        Access::Fixed(_, k) => format!("{name}({})", k + 1),
    }
}

/// Render an expression in Fortran syntax (fully parenthesized only
/// where precedence requires).
pub fn expr_str(prog: &Program, e: &Expr, index: Option<&str>) -> String {
    fn prec(e: &Expr) -> u8 {
        match e {
            Expr::Binary(BinOp::Add | BinOp::Sub, _, _) => 1,
            Expr::Binary(BinOp::Mul | BinOp::Div, _, _) => 2,
            _ => 3,
        }
    }
    fn go(prog: &Program, e: &Expr, index: Option<&str>, parent: u8) -> String {
        let s = match e {
            Expr::Const(c) => {
                if *c == c.trunc() && c.abs() < 1e15 {
                    format!("{c:.1}")
                } else {
                    format!("{c}")
                }
            }
            Expr::Read(a) => access_str(prog, a, index),
            Expr::Unary(UnOp::Neg, x) => format!("-{}", go(prog, x, index, 3)),
            Expr::Unary(UnOp::Sqrt, x) => format!("sqrt({})", go(prog, x, index, 0)),
            Expr::Unary(UnOp::Abs, x) => format!("abs({})", go(prog, x, index, 0)),
            Expr::Binary(op, a, b) => {
                let my = prec(e);
                let (sa, sb) = (go(prog, a, index, my), go(prog, b, index, my + 1));
                match op {
                    BinOp::Add => format!("{sa} + {sb}"),
                    BinOp::Sub => format!("{sa} - {sb}"),
                    BinOp::Mul => format!("{sa}*{sb}"),
                    BinOp::Div => format!("{sa}/{sb}"),
                    BinOp::Max => format!("max({sa}, {sb})"),
                    BinOp::Min => format!("min({sa}, {sb})"),
                }
            }
        };
        if prec(e) < parent && matches!(e, Expr::Binary(..)) {
            format!("({s})")
        } else {
            s
        }
    }
    go(prog, e, index, 0)
}

/// Print a program back to DSL syntax (round-trips through the parser).
pub fn to_dsl(prog: &Program) -> String {
    let mut out = format!("program {}\n", prog.name);
    for d in &prog.decls {
        match &d.kind {
            VarKind::Map { from, to, arity } => {
                out.push_str(&format!(
                    "  map {} : {} -> {} [{}]\n",
                    d.name, from, to, arity
                ));
            }
            kind => {
                let kw = match (d.input, d.output) {
                    (true, true) => "inout",
                    (true, false) => "input",
                    (false, true) => "output",
                    (false, false) => "var",
                };
                let ty = match kind {
                    VarKind::Scalar => "scalar".to_string(),
                    VarKind::Array { base } => base.to_string(),
                    VarKind::Map { .. } => unreachable!(),
                };
                out.push_str(&format!("  {kw} {} : {ty}\n", d.name));
            }
        }
    }
    dsl_stmts(prog, &prog.body, &mut out, 1);
    out.push_str("end\n");
    out
}

fn dsl_stmts(prog: &Program, stmts: &[Stmt], out: &mut String, depth: usize) {
    let pad = "  ".repeat(depth);
    for s in stmts {
        match s {
            Stmt::Loop(l) => {
                out.push_str(&format!(
                    "{pad}forall {} in {} {} {{\n",
                    l.index,
                    l.entity,
                    if l.partitioned { "split" } else { "seq" }
                ));
                for a in &l.body {
                    out.push_str(&format!(
                        "{pad}  {} = {}\n",
                        dsl_access(prog, &a.lhs, Some(&l.index)),
                        dsl_expr(prog, &a.rhs, Some(&l.index))
                    ));
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Assign(a) => out.push_str(&format!(
                "{pad}{} = {}\n",
                dsl_access(prog, &a.lhs, None),
                dsl_expr(prog, &a.rhs, None)
            )),
            Stmt::TimeLoop(t) => {
                out.push_str(&format!(
                    "{pad}iterate {} max {} {{\n",
                    t.counter, t.max_iters
                ));
                dsl_stmts(prog, &t.body, out, depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::ExitIf(e) => {
                let rel = match e.rel {
                    RelOp::Lt => "<",
                    RelOp::Le => "<=",
                    RelOp::Gt => ">",
                    RelOp::Ge => ">=",
                };
                out.push_str(&format!(
                    "{pad}exit when {} {rel} {}\n",
                    dsl_expr(prog, &e.lhs, None),
                    dsl_expr(prog, &e.rhs, None)
                ));
            }
        }
    }
}

fn dsl_access(prog: &Program, a: &Access, index: Option<&str>) -> String {
    access_str(prog, a, index)
}

fn dsl_expr(prog: &Program, e: &Expr, index: Option<&str>) -> String {
    expr_str(prog, e, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = r#"
        program demo
          input A : node
          output B : node
          map SOM : tri -> node [3]
          var T : tri
          var s : scalar
          forall i in tri split { T(i) = A(SOM(i,1)) + A(SOM(i,3)) * 2.0 }
          s = 0.0
          iterate k max 5 {
            forall i in node split { B(i) = A(i) }
            exit when s < 1.0
          }
        end
    "#;

    #[test]
    fn fortran_output_contains_expected_shapes() {
        let p = parse(SRC).unwrap();
        let f = to_fortran(&p, &NoAnnotations);
        assert!(f.contains("subroutine DEMO(A, B, SOM)"), "{f}");
        assert!(f.contains("do i = 1,ntri"), "{f}");
        assert!(f.contains("T(i) = A(SOM(i,1)) + A(SOM(i,3))*2.0"), "{f}");
        assert!(f.contains("goto 100"), "{f}");
        assert!(f.contains("if (s .lt. 1.0) goto 200"), "{f}");
        assert!(f.contains("integer SOM(ntri,3)"), "{f}");
    }

    #[test]
    fn dsl_roundtrip() {
        let p = parse(SRC).unwrap();
        let printed = to_dsl(&p);
        let p2 = parse(&printed).unwrap_or_else(|e| panic!("{e}\n---\n{printed}"));
        assert_eq!(p, p2, "roundtrip mismatch:\n{printed}");
    }

    #[test]
    fn precedence_printing() {
        let p =
            parse("program t\n var s : scalar\n s = (1.0 + 2.0) * 3.0\n s = 1.0 + 2.0 * 3.0\nend")
                .unwrap();
        let f = to_fortran(&p, &NoAnnotations);
        assert!(f.contains("(1.0 + 2.0)*3.0"), "{f}");
        assert!(f.contains("s = 1.0 + 2.0*3.0"), "{f}");
    }

    #[test]
    fn annotator_hooks_fire() {
        struct Mark;
        impl Annotator for Mark {
            fn before_stmt(&self, id: StmtId) -> Vec<String> {
                if id == 0 {
                    vec!["ITERATION DOMAIN: OVERLAP".into()]
                } else {
                    Vec::new()
                }
            }
            fn at_end(&self) -> Vec<String> {
                vec!["SYNCHRONIZE METHOD: overlap-som ON ARRAY: B".into()]
            }
        }
        let p = parse(SRC).unwrap();
        let f = to_fortran(&p, &Mark);
        assert!(f.contains("C$ITERATION DOMAIN: OVERLAP"), "{f}");
        assert!(
            f.contains("C$SYNCHRONIZE METHOD: overlap-som ON ARRAY: B"),
            "{f}"
        );
    }
}
