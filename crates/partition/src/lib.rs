//! Mesh partitioners — the "mesh splitter" substrate (paper §2.2).
//!
//! The paper delegates partitioning to **MS3D** (Simulog, proprietary)
//! and explicitly does not contribute there: "Find a good partitioning
//! of the mesh, with a good load balancing and a minimal number of
//! interface nodes. We don't address this problem here." We still need
//! one, so this crate implements the standard geometric and graph
//! algorithms of that era:
//!
//! * [`rcb`] — recursive coordinate bisection on element centroids;
//! * [`rib`] — recursive inertial bisection (bisect along the
//!   principal axis of the centroid cloud);
//! * [`greedy`] — Farhat's greedy graph-growing heuristic, the
//!   algorithm used by the paper's reference application
//!   [Farhat & Lanteri 1994];
//! * [`kl`] — boundary Kernighan–Lin/Fiduccia–Mattheyses refinement
//!   applicable after any of the above;
//! * [`metrics`] — edge cut, interface nodes, load imbalance.
//!
//! A partition is represented as a plain `Vec<u32>` assigning every
//! *element* (triangle / tetrahedron) to a part in `0..nparts`; node
//! ownership is then derived by the overlap builders.

#![forbid(unsafe_code)]

pub mod greedy;
pub mod kl;
pub mod levels;
pub mod metrics;
pub mod rcb;
pub mod rib;

use syncplace_mesh::{Csr, Mesh2d, Mesh3d};

/// The partitioning algorithms offered by [`partition2d`] / [`partition3d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Recursive coordinate bisection.
    Rcb,
    /// Recursive inertial bisection.
    Rib,
    /// Farhat's greedy graph-growing.
    Greedy,
    /// Greedy followed by KL boundary refinement.
    GreedyKl,
    /// RCB followed by KL boundary refinement.
    RcbKl,
    /// Recursive BFS level-structure bisection (+ KL refinement).
    LevelsKl,
}

impl Method {
    /// All methods, for sweeps.
    pub const ALL: [Method; 6] = [
        Method::Rcb,
        Method::Rib,
        Method::Greedy,
        Method::GreedyKl,
        Method::RcbKl,
        Method::LevelsKl,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Rcb => "rcb",
            Method::Rib => "rib",
            Method::Greedy => "greedy",
            Method::GreedyKl => "greedy+kl",
            Method::RcbKl => "rcb+kl",
            Method::LevelsKl => "levels+kl",
        }
    }
}

/// An element→part assignment plus the dual graph it was computed on
/// (kept because refinement and metrics both need it).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Part id per element.
    pub part: Vec<u32>,
    /// Number of parts.
    pub nparts: usize,
    /// Element dual graph (elements adjacent through a shared
    /// edge in 2-D / face in 3-D).
    pub dual: Csr,
}

impl Partition {
    /// Validates that every part is non-empty.
    pub fn all_parts_nonempty(&self) -> bool {
        let mut seen = vec![false; self.nparts];
        for &p in &self.part {
            seen[p as usize] = true;
        }
        seen.into_iter().all(|s| s)
    }
}

/// Partition a 2-D mesh into `nparts` sub-meshes with the given method.
pub fn partition2d(mesh: &Mesh2d, nparts: usize, method: Method) -> Partition {
    let centroids: Vec<[f64; 3]> = (0..mesh.ntris())
        .map(|t| {
            let [x, y] = mesh.centroid(t);
            [x, y, 0.0]
        })
        .collect();
    run(nparts, method, mesh.dual_graph(), &centroids)
}

/// Partition a 3-D mesh into `nparts` sub-meshes with the given method.
pub fn partition3d(mesh: &Mesh3d, nparts: usize, method: Method) -> Partition {
    let centroids: Vec<[f64; 3]> = (0..mesh.ntets()).map(|t| mesh.centroid(t)).collect();
    run(nparts, method, mesh.dual_graph(), &centroids)
}

fn run(nparts: usize, method: Method, dual: Csr, centroids: &[[f64; 3]]) -> Partition {
    assert!(nparts >= 1, "nparts must be >= 1");
    let d = &dual;
    let part = match method {
        Method::Rcb => rcb::rcb(centroids, nparts),
        Method::Rib => rib::rib(centroids, nparts),
        Method::Greedy => greedy::greedy(d, nparts),
        Method::GreedyKl => {
            let mut p = greedy::greedy(d, nparts);
            kl::refine(d, &mut p, nparts);
            p
        }
        Method::RcbKl => {
            let mut p = rcb::rcb(centroids, nparts);
            kl::refine(d, &mut p, nparts);
            p
        }
        Method::LevelsKl => {
            let mut p = levels::levels(d, nparts);
            kl::refine(d, &mut p, nparts);
            p
        }
    };
    Partition { part, nparts, dual }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_mesh::gen2d;

    #[test]
    fn every_method_produces_valid_partition() {
        let mesh = gen2d::grid(8, 8);
        for method in Method::ALL {
            let p = partition2d(&mesh, 4, method);
            assert_eq!(p.part.len(), mesh.ntris());
            assert!(p.part.iter().all(|&x| x < 4), "{}", method.name());
            assert!(p.all_parts_nonempty(), "{}", method.name());
        }
    }

    #[test]
    fn single_part_is_identity() {
        let mesh = gen2d::grid(4, 4);
        let p = partition2d(&mesh, 1, Method::Greedy);
        assert!(p.part.iter().all(|&x| x == 0));
    }

    #[test]
    fn partition3d_works() {
        let mesh = syncplace_mesh::gen3d::box_mesh(3, 3, 3);
        let p = partition3d(&mesh, 4, Method::Rcb);
        assert!(p.all_parts_nonempty());
        assert_eq!(p.part.len(), mesh.ntets());
    }
}
