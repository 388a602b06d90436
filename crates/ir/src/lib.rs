//! Program representation for the syncplace analyzer — the substitute
//! for the paper's **Partita** Fortran front-end.
//!
//! The paper's target class (§2.1) is "iterative resolutions on
//! unstructured meshes": a sequence of loops over mesh entities
//! (nodes / edges / triangles / tetrahedra), where element loops
//! *gather* node values through indirection arrays and *scatter*
//! accumulated contributions back, a convergence scalar is reduced,
//! and the whole thing repeats in a time loop until convergence.
//!
//! This crate defines exactly that class:
//!
//! * [`ast`] — declarations ([`ast::VarKind`]: scalars, entity-based
//!   arrays, indirection maps), statements ([`ast::Stmt`]: entity
//!   loops, scalar assignments, the time loop with an early-exit
//!   convergence test) and expressions.
//! * [`parser`] — a small Fortran-flavoured DSL so programs can be
//!   written as text (grammar in the module docs).
//! * [`printer`] — Fortran-style pretty-printing (the base layer on
//!   which `syncplace-codegen` overlays `C$` directives, reproducing
//!   the listings of Figs. 9–10).
//! * [`validate`] — shape checking: node-based arrays may be read
//!   directly only in node loops, indirect accesses must go through a
//!   map whose source matches the loop entity, etc. (§3.1 notes this
//!   redundancy "may be used … to cross-check" the user's partitioning
//!   designations — this module is that cross-check.)
//! * [`diag`] — the structured diagnostics engine (stable `SA0xx`
//!   codes, severities, spans, text + JSON rendering) shared by the
//!   placement checker/legality passes and `syncplace-analyze`.
//! * [`programs`] — the paper's example programs: `testiv()` (the
//!   TESTIV subroutine of Figs. 9–10), the Fig. 5 sketch, and the
//!   mini-programs exercising each dependence case of Fig. 4.
//! * [`IdVec`] — the one per-id table: every table keyed by a `VarId`
//!   or a `StmtId` is indexed, not hashed, and iterates in id order.

#![forbid(unsafe_code)]

pub mod ast;
pub mod diag;
mod idvec;
pub mod parser;
pub mod printer;
pub mod programs;
pub mod transform;
pub mod validate;

pub use ast::{
    Access, AssignStmt, BinOp, EntityKind, ExitIfStmt, Expr, LoopStmt, Program, RelOp, Stmt,
    StmtId, TimeLoopStmt, UnOp, VarDecl, VarId, VarKind,
};
pub use idvec::IdVec;
