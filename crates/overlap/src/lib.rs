//! Overlapping patterns, sub-mesh extraction and communication
//! schedules (paper §2.3, Figs. 1–2).
//!
//! Mesh-partitioning parallelization duplicates some mesh entities at
//! sub-mesh boundaries so that communications "can be gathered into a
//! single procedure called in the source program". This crate builds
//! everything downstream of the mesh splitter:
//!
//! * [`Pattern`] — the overlapping pattern chosen by the user (§3.1):
//!   element overlap with one or more layers (Fig. 1) or node overlap
//!   (Fig. 2).
//! * [`SubMesh`] — one processor's localized piece of the mesh, with
//!   *kernel* entities numbered first and *overlap* entities last
//!   (the "flocalize" reordering of PARTI, §5.1, which the paper notes
//!   "would become an extra reordering in the mesh splitter").
//! * [`Decomposition`] — all sub-meshes plus one [`UpdateSchedule`]
//!   per entity kind that has copies: the owner → holder copies, which
//!   a Fig. 1 update broadcasts along and a Fig. 2 assembly reduces
//!   along and broadcasts back (one star forest, two collectives), plus
//!   scatter/gather between global arrays and per-processor local
//!   arrays. Readers ask it by entity kind
//!   ([`Decomposition::update_schedule`], [`Decomposition::scatter`],
//!   [`Decomposition::gather`]).
//!
//! The invariants these structures must satisfy (checked in
//! [`check`]) are exactly the paper's correctness argument: under the
//! Fig. 1 pattern, every element incident to a kernel node of a
//! sub-mesh is present in that sub-mesh, so one local gather–scatter
//! step computes exact values "for all kernel nodes" while "overlap
//! nodes now carry incorrect values" until the update communication.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod build;
pub mod check;
pub mod pattern;
pub mod schedule;
pub mod submesh;

pub use build::{
    decompose2d, decompose3d, DecomposeStats, Decomposition, GlobalSetup, PartScratch,
};
pub use pattern::Pattern;
pub use schedule::UpdateSchedule;
pub use submesh::{elem_kind, SubMesh, SubMesh2d, SubMesh3d};
