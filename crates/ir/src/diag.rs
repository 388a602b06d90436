//! The structured diagnostics engine shared by every static-analysis
//! pass (`syncplace-analyze`, `syncplace-placement`).
//!
//! Every finding is a [`Diagnostic`]: a stable `SA0xx` code (the full
//! table lives in [`codes`] and in DESIGN.md §7), a [`Severity`], a
//! [`Span`] pointing into the artifact under analysis (IR statement,
//! data-flow node/arrow, comm-plan phase/rank), the human-readable
//! message, and an optional explanation-quality `help` hint.
//! Diagnostics collect into a [`Report`] that renders both as text and
//! as machine-readable JSON, and that drives the `reproduce lint` CI
//! gate (fail on any error-severity finding).
//!
//! The engine lives in `syncplace-ir` — the lowest crate of the
//! analysis stack — so that the placement checker and legality pass
//! can emit the same structured type the `syncplace-analyze` passes
//! use, without a dependency cycle.

use crate::ast::{StmtId, VarId};
use syncplace_obs::trace::json_escape;

/// How bad a finding is. Only [`Severity::Error`] findings fail the
/// `reproduce lint` CI gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: correct but worth knowing (e.g. fixed combine order).
    Info,
    /// Suspicious but not incorrect (e.g. redundant communication).
    Warning,
    /// A genuine violation: the artifact is wrong or unusable.
    Error,
}

impl Severity {
    /// Lower-case display name (`error` / `warning` / `info`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

/// Where a diagnostic points. All fields are optional: a lint on a
/// whole program may set none, a schedule-audit finding sets
/// `phase`/`rank`, a mapping-verification finding sets `node`/`arrow`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// IR statement id (entity loop, assignment, exit test).
    pub stmt: Option<StmtId>,
    /// The variable concerned.
    pub var: Option<VarId>,
    /// Data-flow node id (index into `Dfg::nodes`).
    pub node: Option<usize>,
    /// Data-flow arrow id (index into `Dfg::arrows`).
    pub arrow: Option<usize>,
    /// Communication-plan phase index.
    pub phase: Option<usize>,
    /// Rank within a communication-plan phase.
    pub rank: Option<usize>,
}

impl Span {
    /// An empty span (whole-artifact diagnostics).
    pub fn none() -> Span {
        Span::default()
    }

    /// Span of an IR statement.
    pub fn stmt(stmt: StmtId) -> Span {
        Span {
            stmt: Some(stmt),
            ..Span::default()
        }
    }

    /// Span of a data-flow node.
    pub fn node(node: usize) -> Span {
        Span {
            node: Some(node),
            ..Span::default()
        }
    }

    /// Span of a data-flow arrow.
    pub fn arrow(arrow: usize) -> Span {
        Span {
            arrow: Some(arrow),
            ..Span::default()
        }
    }

    /// Span of a comm-plan phase (optionally one rank of it).
    pub fn phase(phase: usize, rank: Option<usize>) -> Span {
        Span {
            phase: Some(phase),
            rank,
            ..Span::default()
        }
    }

    /// Attach a statement id.
    pub fn with_stmt(mut self, stmt: StmtId) -> Span {
        self.stmt = Some(stmt);
        self
    }

    /// Attach a variable id.
    pub fn with_var(mut self, var: VarId) -> Span {
        self.var = Some(var);
        self
    }

    /// Is the span entirely empty?
    pub fn is_none(&self) -> bool {
        *self == Span::default()
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(s) = self.stmt {
            parts.push(format!("s{s}"));
        }
        if let Some(v) = self.var {
            parts.push(format!("v{v}"));
        }
        if let Some(n) = self.node {
            parts.push(format!("node {n}"));
        }
        if let Some(a) = self.arrow {
            parts.push(format!("arrow {a}"));
        }
        if let Some(p) = self.phase {
            parts.push(format!("phase {p}"));
        }
        if let Some(r) = self.rank {
            parts.push(format!("rank {r}"));
        }
        f.write_str(&parts.join(", "))
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`"SA002"`, …) from the [`codes`] table.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable one-line message.
    pub message: String,
    /// Where the finding points.
    pub span: Span,
    /// Optional explanation-quality hint ("removable by …").
    pub help: Option<String>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
            help: None,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, span, message)
        }
    }

    /// An info-severity diagnostic.
    pub fn info(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(code, span, message)
        }
    }

    /// Attach a help hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Render as a JSON object (hand-rolled; the workspace builds
    /// without external crates).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":{}",
            self.code,
            self.severity.as_str(),
            json_escape(&self.message)
        );
        let mut span_fields: Vec<String> = Vec::new();
        let pairs: [(&str, Option<usize>); 6] = [
            ("stmt", self.span.stmt),
            ("var", self.span.var),
            ("node", self.span.node),
            ("arrow", self.span.arrow),
            ("phase", self.span.phase),
            ("rank", self.span.rank),
        ];
        for (k, v) in pairs {
            if let Some(v) = v {
                span_fields.push(format!("\"{k}\":{v}"));
            }
        }
        out.push_str(&format!(",\"span\":{{{}}}", span_fields.join(",")));
        if let Some(h) = &self.help {
            out.push_str(&format!(",\"help\":{}", json_escape(h)));
        }
        out.push('}');
        out
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.code,
            self.message
        )?;
        if !self.span.is_none() {
            write!(f, " ({})", self.span)?;
        }
        if let Some(h) = &self.help {
            write!(f, "\n  help: {h}")?;
        }
        Ok(())
    }
}

/// A collection of diagnostics from one analysis run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The findings, in emission order.
    pub diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Add a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Merge another report into this one.
    pub fn extend(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// Findings of a given severity.
    pub fn of_severity(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.diags.iter().filter(move |d| d.severity == s)
    }

    /// Number of error-severity findings (the CI gate counts these).
    pub fn error_count(&self) -> usize {
        self.of_severity(Severity::Error).count()
    }

    /// No findings at all?
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// No error-severity findings?
    pub fn is_error_free(&self) -> bool {
        self.error_count() == 0
    }

    /// Does a finding with this code exist?
    pub fn has_code(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// The distinct codes fired, sorted.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut c: Vec<&'static str> = self.diags.iter().map(|d| d.code).collect();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// Sort findings: errors first, then by code, then by span text
    /// (deterministic report order).
    pub fn sort(&mut self) {
        self.diags.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| a.span.to_string().cmp(&b.span.to_string()))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Render as a JSON array of diagnostic objects.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.diags.iter().map(|d| d.to_json()).collect();
        format!("[{}]", items.join(","))
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diags.is_empty() {
            return writeln!(f, "clean: no diagnostics");
        }
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        let errs = self.error_count();
        let warns = self.of_severity(Severity::Warning).count();
        let infos = self.of_severity(Severity::Info).count();
        writeln!(f, "{errs} error(s), {warns} warning(s), {infos} info(s)")
    }
}

/// The stable diagnostic-code vocabulary. Codes are never reused or
/// renumbered; retiring a check retires its code. The same table is
/// documented in DESIGN.md §7.
pub mod codes {
    /// Mapping structure mismatch (wrong node/arrow count).
    pub const MAPPING_SHAPE: &str = "SA001";
    /// Input node not at its given initial (coherent) state.
    pub const INPUT_STATE: &str = "SA002";
    /// Output or exit-test node not at its required coherent state.
    pub const REQUIRED_STATE: &str = "SA003";
    /// Node state's shape differs from the node's data shape.
    pub const SHAPE_MISMATCH: &str = "SA004";
    /// Propagation arrow without a transition (or a transition on an
    /// anti/output arrow).
    pub const ARROW_UNMAPPED: &str = "SA005";
    /// Arrow transition endpoints disagree with the mapped node states.
    pub const ARROW_ENDPOINTS: &str = "SA006";
    /// Arrow transition class differs from the arrow's derived class.
    pub const ARROW_CLASS: &str = "SA007";
    /// Transition absent from the overlap automaton.
    pub const NOT_IN_AUTOMATON: &str = "SA008";
    /// Partial-reduction state (`Sca1`) on a non-reduction definition.
    pub const SCA1_MISUSE: &str = "SA009";
    /// Array update/assembly communication on an arrow that concerns
    /// no distributed array.
    pub const COMM_NO_ARRAY: &str = "SA010";
    /// Node state outside its dataflow-feasible set (fixpoint).
    pub const INFEASIBLE_STATE: &str = "SA011";
    /// Empty feasible set: no placement can exist for this node.
    pub const NO_FEASIBLE_STATE: &str = "SA012";
    /// Free (source) definition state outside the automaton's
    /// free-definition states.
    pub const FREE_DEF_STATE: &str = "SA013";

    /// Comm op not covered by exactly one plan phase.
    pub const PHASE_COVERAGE: &str = "SA020";
    /// Write-write race: one phase writes a local slot twice, sets and
    /// adds it, or takes two adds into it from one peer.
    pub const WRITE_RACE: &str = "SA021";
    /// Assembly combine is not owner-first, then ascending rank: a
    /// round-1 receive list carrying adds does not ascend by peer.
    pub const OWNER_FIRST: &str = "SA022";
    /// Reduction combine is not ascending-rank consistent (offset
    /// table disagrees with the sender's packet layout).
    pub const REDUCE_ORDER: &str = "SA023";
    /// Dead (empty) communication phase, or one the tape completes
    /// other than exactly once.
    pub const DEAD_PHASE: &str = "SA024";
    /// Packet length disagreement between sender and receiver, or a
    /// peer listed twice or at one end only.
    pub const PACKET_LENGTH: &str = "SA025";
    /// Packet bytes (either round) not consumed exactly once (gap,
    /// overlap, or out-of-bounds read).
    pub const PACKET_COVERAGE: &str = "SA026";

    /// Fig. 4 case a: true dependence carried across a partitioned loop.
    pub const CARRIED_TRUE: &str = "SA030";
    /// Fig. 4 case c: anti dependence carried across a partitioned loop.
    pub const CARRIED_ANTI: &str = "SA031";
    /// Fig. 4 case d: output dependence carried across a partitioned loop.
    pub const CARRIED_OUTPUT: &str = "SA032";
    /// Fig. 4 case g: a value escapes a particular partitioned iteration.
    pub const VALUE_ESCAPES: &str = "SA033";
    /// Mixed partitioned/sequential usage of one array.
    pub const MIXED_USAGE: &str = "SA034";
    /// No placement can exist (some node has an empty feasible set).
    pub const NO_PLACEMENT: &str = "SA035";

    /// Redundant communication: the same dependences are realized by
    /// more than one communication site.
    pub const REDUNDANT_COMM: &str = "SA040";
    /// Floating-point reduction: the result depends on combine order
    /// (the engines fix ascending-rank order for determinism).
    pub const REDUCE_NONDET: &str = "SA041";

    /// Proposed placement omits a required communication.
    pub const COMM_MISSING: &str = "SA050";
    /// Proposed placement communicates where none is possible/needed.
    pub const COMM_SUPERFLUOUS: &str = "SA051";
    /// No consistent mapping exists for the proposed communications.
    pub const COMM_INCONSISTENT: &str = "SA052";

    /// Model checker: received contents are not deterministic — two
    /// explored interleavings deliver different data to some rank.
    pub const MC_NONDET: &str = "SA053";
    /// Model checker: a staging slot is overwritten (or delivered
    /// corrupt) before its previous contents were drained.
    pub const MC_STAGE_OVERWRITE: &str = "SA054";
    /// Model checker: a reachable state deadlocks — some rank blocks
    /// forever on a receive that no interleaving can satisfy.
    pub const MC_DEADLOCK: &str = "SA055";
    /// Model checker: barrier divergence — ranks reach different
    /// barriers (or one terminates while peers wait at a barrier).
    pub const MC_BARRIER_DIVERGENCE: &str = "SA056";
    /// Model checker: residual traffic — a message is still undrained
    /// in some channel when every rank has terminated.
    pub const MC_RESIDUAL: &str = "SA057";

    /// Happens-before: a cross-rank read is not ordered after its
    /// matching write (a data race under the recorded sync edges).
    pub const HB_RACE: &str = "SA060";
    /// Happens-before: a receive (or read) has no matching send — the
    /// event streams cannot be replayed into a consistent order.
    pub const HB_UNMATCHED: &str = "SA061";
    /// Happens-before: barrier episode divergence — ranks disagree on
    /// how many barriers the run passed through.
    pub const HB_BARRIER_DIVERGENCE: &str = "SA062";
    /// Happens-before: staging-credit discipline violated — a stage
    /// buffer was acquired with no seeded or recycled credit left.
    pub const HB_STAGE_DISCIPLINE: &str = "SA063";

    /// The full `(code, summary)` table, for docs and validation.
    pub fn table() -> Vec<(&'static str, &'static str)> {
        vec![
            (MAPPING_SHAPE, "mapping node/arrow count mismatch"),
            (INPUT_STATE, "input node not at its given state"),
            (REQUIRED_STATE, "output/exit node not at required state"),
            (SHAPE_MISMATCH, "node state shape mismatch"),
            (ARROW_UNMAPPED, "propagation arrow without a transition"),
            (ARROW_ENDPOINTS, "transition does not connect mapped states"),
            (ARROW_CLASS, "transition class mismatch"),
            (NOT_IN_AUTOMATON, "transition absent from the automaton"),
            (SCA1_MISUSE, "Sca1 on a non-reduction definition"),
            (COMM_NO_ARRAY, "array communication without an array"),
            (INFEASIBLE_STATE, "state outside the dataflow-feasible set"),
            (NO_FEASIBLE_STATE, "empty feasible set"),
            (FREE_DEF_STATE, "free definition state not allowed"),
            (PHASE_COVERAGE, "comm op not covered by exactly one phase"),
            (WRITE_RACE, "write-write race within a phase"),
            (OWNER_FIRST, "assembly combine not owner-first"),
            (REDUCE_ORDER, "reduction offsets not ascending-rank consistent"),
            (DEAD_PHASE, "dead or duplicated phase"),
            (PACKET_LENGTH, "packet length disagreement"),
            (PACKET_COVERAGE, "packet bytes not consumed exactly once"),
            (CARRIED_TRUE, "Fig. 4 case a: carried true dependence"),
            (CARRIED_ANTI, "Fig. 4 case c: carried anti dependence"),
            (CARRIED_OUTPUT, "Fig. 4 case d: carried output dependence"),
            (VALUE_ESCAPES, "Fig. 4 case g: escaping value"),
            (MIXED_USAGE, "mixed partitioned/sequential array usage"),
            (NO_PLACEMENT, "no placement exists"),
            (REDUNDANT_COMM, "redundant communication"),
            (REDUCE_NONDET, "reduction-order nondeterminism"),
            (COMM_MISSING, "missing communication in proposed placement"),
            (COMM_SUPERFLUOUS, "superfluous communication in proposed placement"),
            (COMM_INCONSISTENT, "no mapping for proposed placement"),
            (MC_NONDET, "interleaving-dependent received contents"),
            (MC_STAGE_OVERWRITE, "stage buffer overwritten before drain"),
            (MC_DEADLOCK, "reachable deadlock on a receive"),
            (MC_BARRIER_DIVERGENCE, "ranks reach different barriers"),
            (MC_RESIDUAL, "undrained message at termination"),
            (HB_RACE, "cross-rank read not ordered after its write"),
            (HB_UNMATCHED, "receive or read without a matching send"),
            (HB_BARRIER_DIVERGENCE, "barrier episode counts disagree"),
            (HB_STAGE_DISCIPLINE, "stage acquired without credit"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_json() {
        let d = Diagnostic::error(codes::INPUT_STATE, Span::node(3).with_stmt(7), "bad state")
            .with_help("set it coherent");
        let text = d.to_string();
        assert!(text.contains("error[SA002]: bad state"), "{text}");
        assert!(text.contains("help: set it coherent"), "{text}");
        let json = d.to_json();
        assert!(json.contains("\"code\":\"SA002\""), "{json}");
        assert!(json.contains("\"node\":3"), "{json}");
        assert!(json.contains("\"stmt\":7"), "{json}");
    }

    #[test]
    fn report_counts_and_order() {
        let mut r = Report::new();
        r.push(Diagnostic::info(codes::REDUCE_NONDET, Span::none(), "i"));
        r.push(Diagnostic::error(codes::WRITE_RACE, Span::phase(1, Some(0)), "e"));
        r.push(Diagnostic::warning(codes::REDUNDANT_COMM, Span::none(), "w"));
        assert_eq!(r.error_count(), 1);
        assert!(!r.is_error_free() || r.error_count() == 0);
        r.sort();
        assert_eq!(r.diags[0].severity, Severity::Error);
        assert!(r.has_code("SA021"));
        assert_eq!(r.codes(), vec!["SA021", "SA040", "SA041"]);
    }

    #[test]
    fn codes_are_unique() {
        let t = codes::table();
        let mut seen = std::collections::HashSet::new();
        for (c, _) in &t {
            assert!(seen.insert(*c), "duplicate code {c}");
            assert!(c.starts_with("SA") && c.len() == 5, "bad code {c}");
        }
    }

    #[test]
    fn json_escaping() {
        let d = Diagnostic::error(codes::MAPPING_SHAPE, Span::none(), "a \"quoted\"\nline");
        let json = d.to_json();
        assert!(json.contains("a \\\"quoted\\\"\\nline"), "{json}");
    }
}
