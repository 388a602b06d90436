//! The data-flow graph proper: occurrence-level nodes and typed
//! dependence arrows.

use crate::classify::Classification;
use crate::ops::{FlatProgram, LoopCtx, OpId};
use syncplace_ir::{Access, EntityKind, StmtId, VarId};

/// Dense node id.
pub type NodeId = usize;

/// Shape of the flowing data at a node (the paper's `Nod`/`Tri`/`Sca`
/// subscript families). Localized scalars take their loop's entity
/// shape ("Localized variables are partitioned along with their
/// partitioned enclosing loop", §3.4); arrays used only in sequential
/// context are replicated and behave like scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueShape {
    /// Replicated scalar-like data (true scalars and replicated arrays).
    Scalar,
    /// Distributed data based on this entity kind.
    Entity(EntityKind),
}

/// How a read occurrence accesses its variable — the refinement that
/// decides which automaton transitions an arrow out of this use may
/// take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UseClass {
    /// Replicated scalar operand.
    Scalar,
    /// `A(i)` in a loop over A's base entity (also localized-scalar
    /// reads, which behave like a direct read of a loop-entity array).
    Direct,
    /// `A(MAP(i,k))`: gathered read through an indirection — requires
    /// a coherent source.
    Gather,
    /// The self-read of a reduction (`s` in `s = s + …`, or
    /// `NEW(SOM(i,1))` on the rhs of the scatter accumulation).
    Carrier,
    /// `A(5)`: explicit element of a partitioned array (Fig. 4 case g).
    Fixed,
}

/// How a definition writes its variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefClass {
    /// Replicated scalar result.
    Scalar,
    /// `A(i) = …`: one value per loop entity (total definition).
    Direct,
    /// `A(MAP(i,k)) = …`: scatter through an indirection (partial).
    Scatter,
    /// `A(5) = …`: explicit element write.
    Fixed,
}

/// Node payload.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Pseudo-definition of a program input (given initial state).
    Input(VarId),
    /// Pseudo-use of a program output (required result state).
    Output(VarId),
    /// The write occurrence + operation of the assignment at `op`.
    Def {
        op: OpId,
        stmt: StmtId,
        var: VarId,
        class: DefClass,
    },
    /// The `ord`-th read occurrence of the operation at `op`.
    Use {
        op: OpId,
        stmt: StmtId,
        ord: usize,
        var: VarId,
        class: UseClass,
        access: Access,
    },
    /// The convergence-test operation at `op` (a control source; must
    /// evaluate identically on all processors).
    Exit { op: OpId, stmt: StmtId },
}

/// A data-flow node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub kind: NodeKind,
    pub shape: ValueShape,
    /// Enclosing entity loop of the occurrence (None for inputs,
    /// outputs, straight-line scalar code and exit tests).
    pub loop_ctx: Option<LoopCtx>,
}

/// The five dependence kinds of §3.2 (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    True,
    Anti,
    Output,
    Control,
    Value,
}

/// A dependence arrow.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrow {
    pub from: NodeId,
    pub to: NodeId,
    pub kind: DepKind,
    /// The variable the dependence is about (None for control/value
    /// arrows where it is implied by the endpoint).
    pub var: Option<VarId>,
}

/// A dependence carried across the iterations of one entity loop —
/// the subject of the Fig. 4 legality check. These never participate
/// in state propagation: either they make the partitioning illegal,
/// or they are removed by reduction detection / localization.
#[derive(Debug, Clone, PartialEq)]
pub struct CarriedDep {
    /// The entity loop carrying the dependence.
    pub loop_stmt: StmtId,
    /// Is that loop partitioned?
    pub partitioned: bool,
    pub kind: DepKind,
    pub var: VarId,
    /// Source / destination statement ids (may be equal).
    pub from_stmt: StmtId,
    pub to_stmt: StmtId,
    /// Removed because the variable is localized in this loop.
    pub localized: bool,
    /// Acceptable because both endpoints belong to compatible
    /// reductions of the variable.
    pub reduction_ok: bool,
}

impl CarriedDep {
    /// Does this dependence make a partitioning of its loop illegal?
    pub fn is_violation(&self) -> bool {
        self.partitioned && !self.localized && !self.reduction_ok
    }

    /// Fig. 4 case letter for violations.
    pub fn fig4_case(&self) -> char {
        match self.kind {
            DepKind::True => 'a',
            DepKind::Anti => 'c',
            DepKind::Output => 'd',
            _ => '?',
        }
    }
}

/// The complete analysis result.
#[derive(Debug)]
pub struct Dfg {
    pub nodes: Vec<Node>,
    pub arrows: Vec<Arrow>,
    pub carried: Vec<CarriedDep>,
    pub classification: Classification,
    /// Arrays that are replicated (never accessed in a partitioned loop).
    pub replicated: syncplace_ir::IdVec<()>,
    /// Arrays accessed both in partitioned and sequential entity loops
    /// (illegal mixed usage, reported by the legality checker).
    pub mixed_usage: Vec<VarId>,
    /// The flattened program (kept for placement/codegen: op order,
    /// loop contexts, statement ids).
    pub flat: FlatProgram,
    // --- indices ---
    pub input_node: syncplace_ir::IdVec<NodeId>,
    pub output_node: syncplace_ir::IdVec<NodeId>,
    /// Def node of each op (None for exit ops).
    pub def_node: Vec<Option<NodeId>>,
    /// Use nodes of each op, in read order.
    pub use_nodes: Vec<Vec<NodeId>>,
    /// Exit node of each op (None for assigns).
    pub exit_node: Vec<Option<NodeId>>,
    /// Outgoing arrows per node.
    pub out_arrows: Vec<Vec<usize>>,
    /// Incoming arrows per node.
    pub in_arrows: Vec<Vec<usize>>,
}

impl Dfg {
    /// Arrows of a given kind.
    pub fn arrows_of_kind(&self, kind: DepKind) -> impl Iterator<Item = &Arrow> + '_ {
        self.arrows.iter().filter(move |a| a.kind == kind)
    }

    /// All carried violations for partitioned loops.
    pub fn violations(&self) -> Vec<&CarriedDep> {
        self.carried.iter().filter(|c| c.is_violation()).collect()
    }

    /// Human-readable description of a node (for diagnostics).
    pub fn describe(&self, prog: &syncplace_ir::Program, n: NodeId) -> String {
        match &self.nodes[n].kind {
            NodeKind::Input(v) => format!("input {}", prog.decl(*v).name),
            NodeKind::Output(v) => format!("output {}", prog.decl(*v).name),
            NodeKind::Def {
                stmt, var, class, ..
            } => {
                format!("def {}@s{stmt} ({class:?})", prog.decl(*var).name)
            }
            NodeKind::Use {
                stmt,
                var,
                class,
                ord,
                ..
            } => format!("use {}@s{stmt}#{ord} ({class:?})", prog.decl(*var).name),
            NodeKind::Exit { stmt, .. } => format!("exit-test@s{stmt}"),
        }
    }
}
