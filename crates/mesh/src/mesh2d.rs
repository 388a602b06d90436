//! 2-D triangular meshes.
//!
//! A [`Mesh2d`] stores node coordinates and the triangle→node
//! incidence (`som`, named after the `SOM` indirection array of the
//! paper's TESTIV example — *sommet* is French for vertex). The edge
//! numbering is stored once, on first read ([`Mesh::edges`]); a reader
//! of triangle adjacency calls [`Mesh2d::dual_graph`], and nothing else
//! is ever derived.

use crate::csr::{dual_from_facets, Csr};
use crate::simplicial::Mesh;

/// A 2-D triangulation: `coords[n] = [x, y]`, and `som()[t]` the nodes
/// of triangle `t`.
pub type Mesh2d = Mesh<2, 3>;

impl Mesh2d {
    /// Triangle vertices, `som()[t] = [s1, s2, s3]` (node ids).
    pub fn som(&self) -> &[[u32; 3]] {
        self.elems()
    }

    /// Number of triangles.
    pub fn ntris(&self) -> usize {
        self.som().len()
    }

    /// Signed area of triangle `t` (positive when counter-clockwise).
    pub fn signed_area(&self, t: usize) -> f64 {
        let [a, b, c] = self.som()[t];
        let pa = self.coords[a as usize];
        let pb = self.coords[b as usize];
        let pc = self.coords[c as usize];
        0.5 * ((pb[0] - pa[0]) * (pc[1] - pa[1]) - (pc[0] - pa[0]) * (pb[1] - pa[1]))
    }

    /// Triangle centroid (used by geometric partitioners).
    pub fn centroid(&self, t: usize) -> [f64; 2] {
        let [a, b, c] = self.som()[t];
        let pa = self.coords[a as usize];
        let pb = self.coords[b as usize];
        let pc = self.coords[c as usize];
        [(pa[0] + pb[0] + pc[0]) / 3.0, (pa[1] + pb[1] + pc[1]) / 3.0]
    }

    /// The triangle dual graph (triangles sharing an edge), row `t`
    /// in ascending [`Mesh::edges`] id. Panics on a non-manifold
    /// mesh (an edge on three or more triangles).
    pub fn dual_graph(&self) -> Csr {
        let edges = self.edges();
        dual_from_facets::<3>(&edges.ids, edges.keys.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Dedup;

    /// Two triangles sharing an edge:
    /// ```text
    ///   3 --- 2
    ///   | \   |
    ///   |  \  |
    ///   0 --- 1
    /// ```
    fn two_tris() -> Mesh2d {
        Mesh2d::new(
            vec![[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            vec![[0, 1, 3], [1, 2, 3]],
        )
    }

    #[test]
    fn counts() {
        let m = two_tris();
        assert_eq!(m.nnodes(), 4);
        assert_eq!(m.ntris(), 2);
        assert_eq!(m.edges().keys.len(), 5);
    }

    #[test]
    fn areas_positive_ccw() {
        let m = two_tris();
        assert!((m.signed_area(0) - 0.5).abs() < 1e-12);
        assert!((m.signed_area(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dual_graph_connects_shared_edge() {
        let dual = two_tris().dual_graph();
        assert_eq!(dual.row(0), &[1]);
        assert_eq!(dual.row(1), &[0]);
    }

    #[test]
    fn interior_edge_has_two_tris() {
        let m = two_tris();
        let Dedup { keys: edges, ids } = m.edges();
        let shared = edges
            .iter()
            .position(|&[a, b]| (a, b) == (1, 3))
            .expect("shared edge 1-3 exists") as u32;
        assert_eq!(ids.iter().filter(|&&e| e == shared).count(), 2);
        assert!(ids[..3].contains(&shared) && ids[3..].contains(&shared));
    }

    #[test]
    fn all_nodes_on_boundary_of_square() {
        // A boundary edge is one whose id occurs on a single triangle.
        let m = two_tris();
        let Dedup { keys: edges, ids } = m.edges();
        let once = |e: &usize| ids.iter().filter(|&&x| x as usize == *e).count() == 1;
        let mut nodes: Vec<u32> = (0..edges.len())
            .filter(once)
            .flat_map(|e| edges[e])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes, [0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "facet 0 shared by 3 elements: non-manifold mesh")]
    fn three_triangles_on_one_edge_panic() {
        // Edge (0,1) is seen first, so it is facet 0.
        let tris = vec![[0, 1, 2], [1, 0, 3], [0, 1, 4]];
        Mesh2d::new(vec![[0.0; 2]; 5], tris).dual_graph();
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_triangle_rejected() {
        Mesh2d::new(vec![[0.0, 0.0], [1.0, 0.0]], vec![[0, 0, 1]]);
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn out_of_range_node_rejected() {
        Mesh2d::new(vec![[0.0, 0.0], [1.0, 0.0]], vec![[0, 1, 2]]);
    }
}
