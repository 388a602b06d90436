//! Mesh quality and sanity measures.
//!
//! Used by tests (generator invariants) and by the experiment harness
//! to report mesh statistics alongside partition quality.

use crate::mesh2d::Mesh2d;
use crate::mesh3d::Mesh3d;

/// Summary statistics of a 2-D mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshStats {
    /// Node count.
    pub nnodes: usize,
    /// Unique-edge count.
    pub nedges: usize,
    /// Element (triangle) count.
    pub nelems: usize,
    /// Smallest triangle area.
    pub min_area: f64,
    /// Largest triangle area.
    pub max_area: f64,
    /// Sum of all triangle areas.
    pub total_area: f64,
    /// Smallest interior angle over all triangles, in degrees.
    pub min_angle_deg: f64,
    /// Largest number of triangles incident to any one node.
    pub max_node_degree: usize,
    /// Nodes on the mesh boundary (incident to a boundary edge).
    pub boundary_nodes: usize,
}

/// Compute [`MeshStats`] for a 2-D mesh.
pub fn stats2d(mesh: &Mesh2d) -> MeshStats {
    let conn = mesh.connectivity();
    let mut min_area = f64::INFINITY;
    let mut max_area = 0.0f64;
    let mut total_area = 0.0;
    let mut min_angle = f64::INFINITY;
    for t in 0..mesh.ntris() {
        let a = mesh.signed_area(t).abs();
        min_area = min_area.min(a);
        max_area = max_area.max(a);
        total_area += a;
        min_angle = min_angle.min(min_angle_of_tri(mesh, t));
    }
    let max_node_degree = (0..mesh.nnodes())
        .map(|n| conn.node_tris.degree(n))
        .max()
        .unwrap_or(0);
    MeshStats {
        nnodes: mesh.nnodes(),
        nedges: conn.edges.len(),
        nelems: mesh.ntris(),
        min_area,
        max_area,
        total_area,
        min_angle_deg: min_angle.to_degrees(),
        max_node_degree,
        boundary_nodes: conn.boundary_node.iter().filter(|&&b| b).count(),
    }
}

/// Smallest interior angle of triangle `t`, in radians.
pub fn min_angle_of_tri(mesh: &Mesh2d, t: usize) -> f64 {
    let [a, b, c] = mesh.som[t];
    let p = |i: u32| mesh.coords[i as usize];
    let (pa, pb, pc) = (p(a), p(b), p(c));
    let d = |u: [f64; 2], v: [f64; 2]| ((u[0] - v[0]).powi(2) + (u[1] - v[1]).powi(2)).sqrt();
    let (la, lb, lc) = (d(pb, pc), d(pa, pc), d(pa, pb));
    let angle = |opp: f64, s1: f64, s2: f64| {
        let cos = ((s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2)).clamp(-1.0, 1.0);
        cos.acos()
    };
    angle(la, lb, lc)
        .min(angle(lb, la, lc))
        .min(angle(lc, la, lb))
}

/// Verify a 3-D mesh is conforming: every face shared by ≤ 2 tets and
/// all tets positively sized. Returns a human-readable error.
pub fn check3d(mesh: &Mesh3d) -> Result<(), String> {
    for t in 0..mesh.ntets() {
        if mesh.signed_volume(t).abs() < 1e-14 {
            return Err(format!("tet {t} has (near-)zero volume"));
        }
    }
    // connectivity() panics on non-manifold input; surface the panic as Err.
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mesh.connectivity()));
    match res {
        Ok(_) => Ok(()),
        Err(_) => Err("mesh is non-manifold".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen2d, gen3d};

    #[test]
    fn grid_stats() {
        let m = gen2d::grid(4, 4);
        let s = stats2d(&m);
        assert_eq!(s.nnodes, 25);
        assert_eq!(s.nelems, 32);
        assert!((s.total_area - 1.0).abs() < 1e-12);
        // Right isoceles triangles: min angle is 45 degrees.
        assert!((s.min_angle_deg - 45.0).abs() < 1e-9);
    }

    #[test]
    fn perturbed_grid_angles_bounded() {
        let m = gen2d::perturbed_grid(8, 8, 0.25, 3);
        let s = stats2d(&m);
        assert!(s.min_angle_deg > 5.0, "min angle {}", s.min_angle_deg);
        assert!((s.total_area - 1.0).abs() < 1e-9);
    }

    #[test]
    fn box_mesh_checks() {
        let m = gen3d::box_mesh(2, 2, 2);
        assert!(check3d(&m).is_ok());
    }

    #[test]
    fn check3d_rejects_degenerate_volume() {
        // A sliver tet with (near-)zero volume.
        let m = crate::Mesh3d::new(
            vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.5, 0.5, 0.0], // coplanar
            ],
            vec![[0, 1, 2, 3]],
        );
        let err = check3d(&m).unwrap_err();
        assert!(err.contains("volume"), "{err}");
    }

    #[test]
    fn check3d_rejects_non_manifold() {
        // Three tets sharing one face.
        let m = crate::Mesh3d::new(
            vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0],
                [1.0, 1.0, 1.0],
            ],
            vec![[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]],
        );
        let err = check3d(&m).unwrap_err();
        assert!(err.contains("manifold"), "{err}");
    }

    #[test]
    fn graded_grid_has_valid_stats() {
        // Node spacing shrinks toward x = 0 (boundary-layer grading).
        let mut m = gen2d::grid(8, 8);
        for c in &mut m.coords {
            c[0] = c[0].powf(2.5);
        }
        let s = stats2d(&m);
        assert!((s.total_area - 1.0).abs() < 1e-9);
        assert!(s.min_area < s.max_area / 4.0, "grading must skew areas");
    }
}
