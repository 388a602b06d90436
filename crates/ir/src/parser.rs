//! Parser for the `syncplace` DSL — a small Fortran-flavoured surface
//! syntax for the target program class.
//!
//! Grammar (informal):
//!
//! ```text
//! program    := 'program' IDENT decl* stmt* 'end'
//! decl       := ('input' | 'output' | 'inout' | 'var') IDENT ':' type
//!             | 'map' IDENT ':' entity '->' entity '[' INT ']'
//! type       := 'scalar' | entity
//! entity     := 'node' | 'edge' | 'tri' | 'tet'
//! stmt       := loop | timeloop | exit | assign
//! loop       := 'forall' IDENT 'in' entity ('split' | 'seq') '{' assign* '}'
//! timeloop   := 'iterate' IDENT 'max' INT '{' stmt* '}'
//! exit       := 'exit' 'when' expr rel expr
//! assign     := access '=' expr
//! access     := IDENT
//!             | IDENT '(' IDENT ')'                  -- loop index
//!             | IDENT '(' IDENT '(' IDENT ',' INT ')' ')'  -- indirection
//!             | IDENT '(' INT ')'                    -- fixed index
//! expr       := term (('+' | '-') term)*
//! term       := factor (('*' | '/') factor)*
//! factor     := NUMBER | access | '-' factor | '(' expr ')'
//!             | ('sqrt' | 'abs') '(' expr ')'
//!             | ('max' | 'min') '(' expr ',' expr ')'
//! rel        := '<' | '<=' | '>' | '>='
//! ```
//!
//! `#` starts a comment to end of line. Map slots are 1-based in the
//! surface syntax (like the Fortran `SOM(i,1)`), 0-based in the AST.
//! Nesting is bounded by [`MAX_DEPTH`].

use crate::ast::*;

/// The deepest nesting a program may have: how many parentheses, unary
/// minus signs, intrinsic calls and `iterate` blocks enclose a point,
/// and how tall an expression tree grows (an `n`-term `+` or `*` chain
/// is `n` levels tall). The parser and every later walk over the tree
/// recurse once per level, so one source text cannot overflow the
/// stack of the thread that compiles it.
pub const MAX_DEPTH: usize = 256;

/// Parse a program. Shape validation is the caller's job
/// ([`crate::validate::check`]); the parser only resolves names.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        prog: Program::new(""),
    };
    p.program()?;
    let mut prog = p.prog;
    prog.renumber();
    Ok(prog)
}

/// A parse failure with token position context.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub line: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Int(usize),
    Sym(&'static str),
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(SpannedTok {
                    tok: Tok::Ident(s),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                let mut is_float = false;
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() {
                        s.push(c);
                        chars.next();
                    } else if c == '.' && !is_float {
                        is_float = true;
                        s.push(c);
                        chars.next();
                    } else if (c == 'e' || c == 'E') && !s.is_empty() {
                        is_float = true;
                        s.push(c);
                        chars.next();
                        if let Some(&sign) = chars.peek() {
                            if sign == '+' || sign == '-' {
                                s.push(sign);
                                chars.next();
                            }
                        }
                    } else {
                        break;
                    }
                }
                let tok = if is_float {
                    Tok::Num(s.parse().map_err(|_| ParseError {
                        message: format!("bad number '{s}'"),
                        line,
                    })?)
                } else {
                    Tok::Int(s.parse().map_err(|_| ParseError {
                        message: format!("bad integer '{s}'"),
                        line,
                    })?)
                };
                out.push(SpannedTok { tok, line });
            }
            _ => {
                chars.next();
                let two = |c2: char, chars: &mut std::iter::Peekable<std::str::Chars>| {
                    if chars.peek() == Some(&c2) {
                        chars.next();
                        true
                    } else {
                        false
                    }
                };
                let sym: &'static str = match c {
                    ':' => ":",
                    ',' => ",",
                    ';' => ";",
                    '{' => "{",
                    '}' => "}",
                    '(' => "(",
                    ')' => ")",
                    '[' => "[",
                    ']' => "]",
                    '+' => "+",
                    '*' => "*",
                    '/' => "/",
                    '=' => "=",
                    '-' => {
                        if two('>', &mut chars) {
                            "->"
                        } else {
                            "-"
                        }
                    }
                    '<' => {
                        if two('=', &mut chars) {
                            "<="
                        } else {
                            "<"
                        }
                    }
                    '>' => {
                        if two('=', &mut chars) {
                            ">="
                        } else {
                            ">"
                        }
                    }
                    other => {
                        return Err(ParseError {
                            message: format!("unexpected character '{other}'"),
                            line,
                        })
                    }
                };
                out.push(SpannedTok {
                    tok: Tok::Sym(sym),
                    line,
                });
            }
        }
    }
    Ok(out)
}

/// An expression and the height of its tree.
type Parsed = Result<(Expr, usize), ParseError>;

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
    /// Parentheses, unary ops, intrinsic calls and `iterate` blocks
    /// enclosing the current token.
    depth: usize,
    prog: Program,
}

impl Parser {
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    /// `levels`, or an error once it passes [`MAX_DEPTH`].
    fn within(&self, levels: usize) -> Result<usize, ParseError> {
        if levels > MAX_DEPTH {
            return self.err(format!(
                "nesting deeper than the limit of {MAX_DEPTH} levels"
            ));
        }
        Ok(levels)
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth = self.within(self.depth + 1)?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn eat_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Sym(x)) if x == s => Ok(()),
            other => self.err(format!("expected '{s}', found {other:?}")),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Ident(x)) if x == kw => Ok(()),
            other => self.err(format!("expected '{kw}', found {other:?}")),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn integer(&mut self) -> Result<usize, ParseError> {
        match self.next() {
            Some(Tok::Int(n)) => Ok(n),
            other => self.err(format!("expected integer, found {other:?}")),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn program(&mut self) -> Result<(), ParseError> {
        self.eat_kw("program")?;
        self.prog.name = self.ident()?;
        // Declarations.
        loop {
            if self.peek_kw("input")
                || self.peek_kw("output")
                || self.peek_kw("inout")
                || self.peek_kw("var")
                || self.peek_kw("map")
            {
                self.declaration()?;
            } else {
                break;
            }
        }
        // Statements until 'end'.
        let body = self.stmts_until("end", false)?;
        self.prog.body = body;
        self.eat_kw("end")?;
        Ok(())
    }

    fn declaration(&mut self) -> Result<(), ParseError> {
        let kw = self.ident()?;
        if kw == "map" {
            let name = self.ident()?;
            self.eat_sym(":")?;
            let from = self.entity()?;
            self.eat_sym("->")?;
            let to = self.entity()?;
            self.eat_sym("[")?;
            let arity = self.integer()?;
            self.eat_sym("]")?;
            if self.prog.lookup(&name).is_some() {
                return self.err(format!("duplicate declaration of {name}"));
            }
            self.prog
                .declare(&name, VarKind::Map { from, to, arity }, true, false);
            return Ok(());
        }
        let (input, output) = match kw.as_str() {
            "input" => (true, false),
            "output" => (false, true),
            "inout" => (true, true),
            "var" => (false, false),
            other => return self.err(format!("unknown declaration keyword '{other}'")),
        };
        let name = self.ident()?;
        self.eat_sym(":")?;
        let kind = match self.ident()?.as_str() {
            "scalar" => VarKind::Scalar,
            s => match EntityKind::parse(s) {
                Some(e) => VarKind::Array { base: e },
                None => return self.err(format!("unknown type '{s}'")),
            },
        };
        if self.prog.lookup(&name).is_some() {
            return self.err(format!("duplicate declaration of {name}"));
        }
        self.prog.declare(&name, kind, input, output);
        Ok(())
    }

    fn entity(&mut self) -> Result<EntityKind, ParseError> {
        let s = self.ident()?;
        EntityKind::parse(&s).ok_or(ParseError {
            message: format!("unknown entity kind '{s}'"),
            line: self.line(),
        })
    }

    fn stmts_until(&mut self, terminator: &str, in_time: bool) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            // Skip statement separators.
            while matches!(self.peek(), Some(Tok::Sym(";"))) {
                self.pos += 1;
            }
            if terminator == "end" && self.peek_kw("end") {
                break;
            }
            if terminator == "}" && matches!(self.peek(), Some(Tok::Sym("}"))) {
                break;
            }
            if self.peek().is_none() {
                return self.err(format!("unexpected end of input, expected '{terminator}'"));
            }
            out.push(self.stmt(in_time)?);
        }
        Ok(out)
    }

    fn stmt(&mut self, in_time: bool) -> Result<Stmt, ParseError> {
        if self.peek_kw("forall") {
            return self.loop_stmt();
        }
        if self.peek_kw("iterate") {
            self.eat_kw("iterate")?;
            let counter = self.ident()?;
            self.eat_kw("max")?;
            let max_iters = self.integer()?;
            self.eat_sym("{")?;
            let body = self.nested(|p| p.stmts_until("}", true))?;
            self.eat_sym("}")?;
            return Ok(Stmt::TimeLoop(TimeLoopStmt {
                id: 0,
                counter,
                max_iters,
                body,
            }));
        }
        if self.peek_kw("exit") {
            if !in_time {
                return self.err("'exit when' outside a time loop");
            }
            self.eat_kw("exit")?;
            self.eat_kw("when")?;
            let (lhs, _) = self.expr(None)?;
            let rel = match self.next() {
                Some(Tok::Sym("<")) => RelOp::Lt,
                Some(Tok::Sym("<=")) => RelOp::Le,
                Some(Tok::Sym(">")) => RelOp::Gt,
                Some(Tok::Sym(">=")) => RelOp::Ge,
                other => return self.err(format!("expected comparison, found {other:?}")),
            };
            let (rhs, _) = self.expr(None)?;
            return Ok(Stmt::ExitIf(ExitIfStmt {
                id: 0,
                lhs,
                rel,
                rhs,
            }));
        }
        // Plain assignment.
        let a = self.assign(None)?;
        Ok(Stmt::Assign(a))
    }

    fn loop_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.eat_kw("forall")?;
        let index = self.ident()?;
        self.eat_kw("in")?;
        let entity = self.entity()?;
        let partitioned = match self.ident()?.as_str() {
            "split" => true,
            "seq" => false,
            other => return self.err(format!("expected 'split' or 'seq', found '{other}'")),
        };
        self.eat_sym("{")?;
        let mut body = Vec::new();
        loop {
            while matches!(self.peek(), Some(Tok::Sym(";"))) {
                self.pos += 1;
            }
            if matches!(self.peek(), Some(Tok::Sym("}"))) {
                break;
            }
            body.push(self.assign(Some(&index))?);
        }
        self.eat_sym("}")?;
        Ok(Stmt::Loop(LoopStmt {
            id: 0,
            entity,
            partitioned,
            index,
            body,
        }))
    }

    fn assign(&mut self, loop_index: Option<&str>) -> Result<AssignStmt, ParseError> {
        let lhs = self.access(loop_index)?;
        self.eat_sym("=")?;
        let (rhs, _) = self.expr(loop_index)?;
        Ok(AssignStmt { id: 0, lhs, rhs })
    }

    /// Parse an access starting at an identifier.
    fn access(&mut self, loop_index: Option<&str>) -> Result<Access, ParseError> {
        let name = self.ident()?;
        let var = match self.prog.lookup(&name) {
            Some(v) => v,
            None => return self.err(format!("undeclared variable '{name}'")),
        };
        if !matches!(self.peek(), Some(Tok::Sym("("))) {
            return Ok(Access::Scalar(var));
        }
        self.eat_sym("(")?;
        let acc = match self.next() {
            Some(Tok::Int(k)) => {
                // A(5): fixed index (1-based surface, 0-based AST).
                if k == 0 {
                    return self.err("fixed indices are 1-based");
                }
                Access::Fixed(var, k - 1)
            }
            Some(Tok::Ident(id)) => {
                if Some(id.as_str()) == loop_index {
                    Access::Direct(var)
                } else {
                    // Must be a map: A(MAP(i, k)).
                    let map = match self.prog.lookup(&id) {
                        Some(m) => m,
                        None => return self.err(format!("undeclared map '{id}'")),
                    };
                    self.eat_sym("(")?;
                    let inner = self.ident()?;
                    if Some(inner.as_str()) != loop_index {
                        return self.err(format!(
                            "map index must be the loop variable, found '{inner}'"
                        ));
                    }
                    self.eat_sym(",")?;
                    let slot = self.integer()?;
                    if slot == 0 {
                        return self.err("map slots are 1-based");
                    }
                    self.eat_sym(")")?;
                    Access::Indirect {
                        array: var,
                        map,
                        slot: slot - 1,
                    }
                }
            }
            other => return self.err(format!("bad index expression: {other:?}")),
        };
        self.eat_sym(")")?;
        Ok(acc)
    }

    fn expr(&mut self, loop_index: Option<&str>) -> Parsed {
        self.chain(
            loop_index,
            [("+", BinOp::Add), ("-", BinOp::Sub)],
            Self::term,
        )
    }

    fn term(&mut self, loop_index: Option<&str>) -> Parsed {
        self.chain(
            loop_index,
            [("*", BinOp::Mul), ("/", BinOp::Div)],
            Self::factor,
        )
    }

    /// `operand (op operand)*`, folded left: each operator adds a level.
    fn chain(
        &mut self,
        loop_index: Option<&str>,
        ops: [(&str, BinOp); 2],
        operand: fn(&mut Self, Option<&str>) -> Parsed,
    ) -> Parsed {
        let (mut lhs, mut height) = operand(self, loop_index)?;
        loop {
            let next = ops
                .iter()
                .find(|(sym, _)| matches!(self.peek(), Some(Tok::Sym(s)) if s == sym));
            let Some(&(_, op)) = next else {
                return Ok((lhs, height));
            };
            self.pos += 1;
            let (rhs, h) = operand(self, loop_index)?;
            height = self.within(height.max(h) + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn factor(&mut self, loop_index: Option<&str>) -> Parsed {
        match self.peek().cloned() {
            Some(Tok::Num(n)) => {
                self.pos += 1;
                Ok((Expr::Const(n), 1))
            }
            Some(Tok::Int(n)) => {
                self.pos += 1;
                Ok((Expr::Const(n as f64), 1))
            }
            Some(Tok::Sym("-")) => {
                self.pos += 1;
                let (e, h) = self.nested(|p| p.factor(loop_index))?;
                Ok((-e, self.within(h + 1)?))
            }
            Some(Tok::Sym("(")) => {
                self.pos += 1;
                let e = self.nested(|p| p.expr(loop_index))?;
                self.eat_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(id)) if matches!(id.as_str(), "sqrt" | "abs" | "max" | "min") => {
                self.pos += 1;
                self.eat_sym("(")?;
                let (a, mut h) = self.nested(|p| p.expr(loop_index))?;
                let e = match id.as_str() {
                    "sqrt" => a.sqrt(),
                    "abs" => a.abs(),
                    _ => {
                        self.eat_sym(",")?;
                        let (b, hb) = self.nested(|p| p.expr(loop_index))?;
                        h = h.max(hb);
                        let op = if id == "max" { BinOp::Max } else { BinOp::Min };
                        Expr::Binary(op, Box::new(a), Box::new(b))
                    }
                };
                self.eat_sym(")")?;
                Ok((e, self.within(h + 1)?))
            }
            Some(Tok::Ident(_)) => Ok((Expr::Read(self.access(loop_index)?), 1)),
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;

    const SMOOTH: &str = r#"
        program smooth
          input INIT : node
          output RESULT : node
          input AIRETRI : tri
          input AIRESOM : node
          map SOM : tri -> node [3]
          input epsilon : scalar
          var OLD : node
          var NEW : node
          var vm : scalar
          var sqrdiff : scalar
          var diff : scalar

          forall i in node split { OLD(i) = INIT(i) }
          iterate loop max 100 {
            forall i in node split { NEW(i) = 0.0 }
            forall i in tri split {
              vm = OLD(SOM(i,1)) + OLD(SOM(i,2)) + OLD(SOM(i,3))
              vm = vm * AIRETRI(i) / 18.0
              NEW(SOM(i,1)) = NEW(SOM(i,1)) + vm / AIRESOM(SOM(i,1))
              NEW(SOM(i,2)) = NEW(SOM(i,2)) + vm / AIRESOM(SOM(i,2))
              NEW(SOM(i,3)) = NEW(SOM(i,3)) + vm / AIRESOM(SOM(i,3))
            }
            sqrdiff = 0.0
            forall i in node split {
              diff = NEW(i) - OLD(i)
              sqrdiff = sqrdiff + diff * diff
            }
            exit when sqrdiff < epsilon
            forall i in node split { OLD(i) = NEW(i) }
          }
          forall i in node split { RESULT(i) = NEW(i) }
        end
    "#;

    #[test]
    fn parses_testiv_like_program() {
        let p = parse(SMOOTH).unwrap();
        assert_eq!(p.name, "smooth");
        assert!(validate::check(&p).is_empty());
        assert_eq!(p.body.len(), 3);
        let t = p.time_loop().unwrap();
        assert_eq!(t.max_iters, 100);
        assert_eq!(t.body.len(), 6);
    }

    #[test]
    fn resolves_indirect_access() {
        let p = parse(SMOOTH).unwrap();
        let tri_loop = match &p.time_loop().unwrap().body[1] {
            Stmt::Loop(l) => l,
            other => panic!("{other:?}"),
        };
        assert_eq!(tri_loop.entity, EntityKind::Tri);
        assert!(tri_loop.partitioned);
        match &tri_loop.body[0].rhs.reads()[0] {
            Access::Indirect { array, map, slot } => {
                assert_eq!(p.decl(*array).name, "OLD");
                assert_eq!(p.decl(*map).name, "SOM");
                assert_eq!(*slot, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn undeclared_variable_is_error() {
        let e = parse("program t\n forall i in node split { X(i) = 1.0 }\nend").unwrap_err();
        assert!(e.message.contains("undeclared"), "{e}");
    }

    #[test]
    fn sequential_loop() {
        let p =
            parse("program t\n var A : node\n forall i in node seq { A(i) = 1.0 }\nend").unwrap();
        match &p.body[0] {
            Stmt::Loop(l) => assert!(!l.partitioned),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comments_and_semicolons() {
        let p = parse("program t # header\n var s : scalar\n s = 1.0; s = 2.0 # two stmts\nend")
            .unwrap();
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn fixed_index_access() {
        let p = parse("program t\n var A : node\n var s : scalar\n forall i in node split { A(i) = 0.0 }\n s = A(5)\nend");
        // A(5) outside a loop parses as Fixed; shape check decides legality.
        let p = p.unwrap();
        match &p.body[1] {
            Stmt::Assign(a) => match a.rhs.reads()[0] {
                Access::Fixed(_, 4) => {}
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let p = parse("program t\n var s : scalar\n s = 1.0 + 2.0 * 3.0\nend").unwrap();
        match &p.body[0] {
            Stmt::Assign(a) => match &a.rhs {
                Expr::Binary(BinOp::Add, _, r) => {
                    assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn intrinsics() {
        let p = parse("program t\n var s : scalar\n s = sqrt(abs(s)) + max(s, 1.0)\nend").unwrap();
        match &p.body[0] {
            Stmt::Assign(a) => {
                assert_eq!(a.rhs.reads().len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_slot_rejected() {
        let src = "program t\n map M : tri -> node [3]\n var A : node\n var s : scalar\n forall i in tri split { s = A(M(i,0)) }\nend";
        assert!(parse(src).is_err());
    }

    #[test]
    fn error_carries_line_number() {
        let e = parse("program t\n var s : scalar\n s = @\nend").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn exit_outside_iterate_rejected_at_parse() {
        let e = parse("program t\n var s : scalar\n exit when s < 1.0\nend").unwrap_err();
        assert!(e.message.contains("outside"), "{e}");
    }
}
