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
//! * [`Decomposition`] — all sub-meshes plus the communication
//!   schedules: [`UpdateSchedule`] (owner kernel value → overlap
//!   copies, Fig. 1) and [`AssembleSchedule`] (combine partial values
//!   of shared nodes, Fig. 2), plus scatter/gather helpers between
//!   global arrays and per-processor local arrays.
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
pub use schedule::{AssembleSchedule, UpdateSchedule};
pub use submesh::{SubMesh, SubMesh2d, SubMesh3d};
