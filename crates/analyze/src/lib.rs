//! Static analysis for placed programs — the paper's §5.2 "test mode"
//! grown into an independent verification subsystem.
//!
//! Three passes share the structured diagnostics engine of
//! [`syncplace_ir::diag`] (stable `SA0xx` codes, severities, spans,
//! human text + machine-readable JSON — the full code table is in
//! [`syncplace_ir::diag::codes`] and DESIGN.md §7):
//!
//! * [`verify`] — an **independent placement verifier**: a monotone
//!   dataflow fixpoint (arc consistency) over the data-flow graph
//!   computes the set of feasible automaton states per node, then a
//!   complete mapping is checked node-by-node and arrow-by-arrow
//!   against those sets and the §3.4 conditions. It shares *no code
//!   path* with `placement::search` — the backtracking enumeration and
//!   this abstract interpretation cross-validate each other.
//! * [`mod@audit`] — a **CommPlan schedule auditor**: statically checks
//!   the batched runtime's compiled plan. Every communication the
//!   mapping crosses must be covered by exactly one phase; no phase
//!   may be dead or duplicated; per-pair round-1 packets must be
//!   consumed exactly once with no overlapping writes (write-write
//!   races); assembly combines must be owner-first and reduction
//!   trees pinned to the canonical binomial shape on every rank.
//! * [`lint`] — an **IR lint pass** with explanation-quality
//!   diagnostics: the Fig. 4 case letter for each illegal dependence
//!   with "removable by localization/reduction" hints from
//!   `dfg::classify`, a no-placement warning when the fixpoint leaves
//!   a node with an empty state set, redundant-communication and
//!   reduction-order-nondeterminism warnings.
//!
//! Two further passes verify the **concurrency** of the runtime
//! itself (DESIGN.md §12), on the SA05x/SA06x codes:
//!
//! * [`mc`] — a **schedule model checker**: abstracts a compiled
//!   `CommPlan` + engine discipline (staged posts, recycle credits,
//!   wrap-around tail posts, gang barriers) into per-rank transition
//!   systems and exhaustively
//!   explores all inequivalent interleavings at small P with a
//!   sleep-set partial-order reduction, proving determinism of
//!   received contents, stage-buffer safety, and deadlock/
//!   barrier-divergence freedom — printing a minimal counterexample
//!   interleaving on failure.
//! * [`mod@hb`] — a **dynamic happens-before checker**: replays the
//!   `hb.*` event streams a real engine run records into per-rank
//!   vector clocks and flags any cross-rank read not ordered after
//!   its matching write, unmatched receives, diverging barrier
//!   episode counts, and stage-credit violations.
//!
//! The `reproduce lint` subcommand (experiment E20) sweeps the
//! built-in programs × automata × engines through all three passes
//! and fails CI on any error-severity diagnostic; `reproduce
//! racecheck` (E25) drives [`mc`] and [`mod@hb`] across engines ×
//! patterns × P.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod audit;
pub mod hb;
pub mod lint;
pub mod mc;
pub mod verify;

pub use syncplace_ir::diag::{codes, Diagnostic, Report, Severity, Span};

pub use audit::{audit, audit_coverage, audit_plan};
pub use hb::{check_log, HbStats};
pub use lint::{lint_program, lint_solution};
pub use mc::{check as mc_check, check_plan, McOutcome, McProgram};
pub use verify::{feasible_states, verify_mapping, verify_solution, Feasible};
