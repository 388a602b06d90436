//! Unstructured mesh substrate for `syncplace`.
//!
//! The paper's parallelization method ("Automatic Placement of
//! Communications in Mesh-Partitioning Parallelization", Hascoët,
//! PPoPP 1997) operates on iterative numerical programs over
//! *unstructured meshes*: triangular meshes in 2-D (nodes / edges /
//! triangles, §2.1) and tetrahedral meshes in 3-D (§3.4, Fig. 8).
//!
//! This crate provides the mesh data structures and synthetic mesh
//! generators used throughout the reproduction:
//!
//! * [`Mesh2d`] — a 2-D triangulation stored struct-of-arrays with
//!   `u32` entity ids.
//! * [`Mesh3d`] — a 3-D tetrahedral mesh.
//! * [`Mesh`] — what both share: the element→node incidence, whose
//!   edge numbering is stored once, on first read, for every reader.
//! * Generators ([`gen2d`], [`gen3d`]) producing structured-grid
//!   triangulations, annuli, graded and randomly perturbed meshes at
//!   any size — the synthetic stand-in for the CFD meshes of the
//!   paper's reference application [Farhat & Lanteri 1994].
//! * [`csr::Csr`] — the compressed-sparse-row adjacency container.
//!
//! Entity kinds follow the paper's vocabulary: programs and arrays are
//! partitioned *node-wise*, *edge-wise*, *triangle-wise* (2-D) or
//! *tetrahedron-wise* (3-D); see [`EntityKind`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod csr;
pub mod gen2d;
pub mod gen3d;
pub mod ids;
pub mod mesh2d;
pub mod mesh3d;
pub mod refine2d;
pub mod reorder;
pub mod rng;
pub mod simplicial;

pub use csr::{dedup_first_seen, dual_from_facets, n_vertex_pairs, Csr, Dedup};
pub use ids::EntityKind;
pub use mesh2d::Mesh2d;
pub use mesh3d::Mesh3d;
pub use simplicial::Mesh;
