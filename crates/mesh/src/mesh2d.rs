//! 2-D triangular meshes.
//!
//! A [`Mesh2d`] stores node coordinates and the triangle→node
//! incidence (`som`, named after the `SOM` indirection array of the
//! paper's TESTIV example — *sommet* is French for vertex). Edges and
//! all adjacency relations are *derived* by [`Mesh2d::connectivity`],
//! which recomputes all seven tables on every call — nothing is cached
//! (`partition2d`, `Bindings::for_mesh2d` and `synth_inputs` each pay
//! for a full derivation).

use crate::csr::{edges_first_seen, Csr};

/// A 2-D triangulation in struct-of-arrays layout.
#[derive(Debug, Clone)]
pub struct Mesh2d {
    /// Node coordinates, `coords[n] = [x, y]`.
    pub coords: Vec<[f64; 2]>,
    /// Triangle vertices, `som[t] = [s1, s2, s3]` (node ids).
    pub som: Vec<[u32; 3]>,
}

/// Derived connectivity of a [`Mesh2d`].
#[derive(Debug, Clone)]
pub struct Connectivity2d {
    /// Unique edges as sorted node pairs `(lo, hi)`, numbered by
    /// [`edges_first_seen`]: first-seen order over triangles with the
    /// local pair order (v1,v2), (v1,v3), (v2,v3).
    pub edges: Vec<[u32; 2]>,
    /// Triangle → its three edges (parallel to `som`; local edge `k`
    /// joins the vertex pair (v1,v2) / (v1,v3) / (v2,v3) for k=0/1/2).
    pub tri_edges: Vec<[u32; 3]>,
    /// Node → incident triangles.
    pub node_tris: Csr,
    /// Node → incident edges.
    pub node_edges: Csr,
    /// Edge → the one or two triangles sharing it.
    pub edge_tris: Csr,
    /// Triangle → edge-adjacent triangles (the element *dual graph*
    /// used by the partitioners).
    pub tri_tris: Csr,
    /// Boundary flag per node (on a boundary edge).
    pub boundary_node: Vec<bool>,
}

impl Mesh2d {
    /// Create a mesh from raw arrays. Panics on out-of-range vertex ids.
    pub fn new(coords: Vec<[f64; 2]>, som: Vec<[u32; 3]>) -> Self {
        let n = coords.len() as u32;
        for (t, tri) in som.iter().enumerate() {
            for &s in tri {
                assert!(s < n, "triangle {t} references node {s} >= {n}");
            }
            assert!(
                tri[0] != tri[1] && tri[1] != tri[2] && tri[0] != tri[2],
                "triangle {t} is degenerate: {tri:?}"
            );
        }
        Mesh2d { coords, som }
    }

    /// Number of nodes.
    pub fn nnodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of triangles.
    pub fn ntris(&self) -> usize {
        self.som.len()
    }

    /// Signed area of triangle `t` (positive when counter-clockwise).
    pub fn signed_area(&self, t: usize) -> f64 {
        let [a, b, c] = self.som[t];
        let pa = self.coords[a as usize];
        let pb = self.coords[b as usize];
        let pc = self.coords[c as usize];
        0.5 * ((pb[0] - pa[0]) * (pc[1] - pa[1]) - (pc[0] - pa[0]) * (pb[1] - pa[1]))
    }

    /// Triangle centroid (used by geometric partitioners).
    pub fn centroid(&self, t: usize) -> [f64; 2] {
        let [a, b, c] = self.som[t];
        let pa = self.coords[a as usize];
        let pb = self.coords[b as usize];
        let pc = self.coords[c as usize];
        [(pa[0] + pb[0] + pc[0]) / 3.0, (pa[1] + pb[1] + pc[1]) / 3.0]
    }

    /// Derive the full connectivity (edges, adjacency, dual graph).
    ///
    /// O(#tris + #edges); edges are numbered in first-seen order over
    /// triangles so numbering is deterministic for a given `som`.
    /// Every call derives everything afresh.
    pub fn connectivity(&self) -> Connectivity2d {
        let nn = self.nnodes();
        let nt = self.ntris();

        let (edges, edge_ids) = edges_first_seen(&self.som);
        let mut tri_edges = vec![[0u32; 3]; nt];
        let mut edge_tri_pairs: Vec<(u32, u32)> = Vec::with_capacity(nt * 3);
        for (t, te) in tri_edges.iter_mut().enumerate() {
            for (k, slot) in te.iter_mut().enumerate() {
                let e = edge_ids[t * 3 + k];
                *slot = e;
                edge_tri_pairs.push((e, t as u32));
            }
        }
        let ne = edges.len();
        let edge_tris = Csr::from_pairs(ne, &edge_tri_pairs);

        // Node -> triangles and node -> edges.
        let mut nt_pairs: Vec<(u32, u32)> = Vec::with_capacity(nt * 3);
        for (t, tri) in self.som.iter().enumerate() {
            for &s in tri {
                nt_pairs.push((s, t as u32));
            }
        }
        let node_tris = Csr::from_pairs(nn, &nt_pairs);
        let mut nepairs: Vec<(u32, u32)> = Vec::with_capacity(ne * 2);
        for (e, &[a, b]) in edges.iter().enumerate() {
            nepairs.push((a, e as u32));
            nepairs.push((b, e as u32));
        }
        let node_edges = Csr::from_pairs(nn, &nepairs);

        // Dual graph: triangles sharing an edge.
        let mut tt_pairs: Vec<(u32, u32)> = Vec::with_capacity(nt * 3);
        let mut boundary_node = vec![false; nn];
        for e in 0..ne {
            let ts = edge_tris.row(e);
            match ts.len() {
                1 => {
                    boundary_node[edges[e][0] as usize] = true;
                    boundary_node[edges[e][1] as usize] = true;
                }
                2 => {
                    tt_pairs.push((ts[0], ts[1]));
                    tt_pairs.push((ts[1], ts[0]));
                }
                k => panic!("edge {e} shared by {k} triangles: non-manifold mesh"),
            }
        }
        let tri_tris = Csr::from_pairs(nt, &tt_pairs);

        Connectivity2d {
            edges,
            tri_edges,
            node_tris,
            node_edges,
            edge_tris,
            tri_tris,
            boundary_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let c = m.connectivity();
        assert_eq!(c.edges.len(), 5);
    }

    #[test]
    fn areas_positive_ccw() {
        let m = two_tris();
        assert!((m.signed_area(0) - 0.5).abs() < 1e-12);
        assert!((m.signed_area(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dual_graph_connects_shared_edge() {
        let m = two_tris();
        let c = m.connectivity();
        assert_eq!(c.tri_tris.row(0), &[1]);
        assert_eq!(c.tri_tris.row(1), &[0]);
    }

    #[test]
    fn interior_edge_has_two_tris() {
        let m = two_tris();
        let c = m.connectivity();
        let shared = c
            .edges
            .iter()
            .position(|&[a, b]| (a, b) == (1, 3))
            .expect("shared edge 1-3 exists");
        assert_eq!(c.edge_tris.row(shared).len(), 2);
    }

    #[test]
    fn all_nodes_on_boundary_of_square() {
        let m = two_tris();
        let c = m.connectivity();
        assert!(c.boundary_node.iter().all(|&b| b));
    }

    #[test]
    fn node_tris_adjacency() {
        let m = two_tris();
        let c = m.connectivity();
        assert_eq!(c.node_tris.row(0), &[0]);
        assert_eq!(c.node_tris.row(1), &[0, 1]);
        assert_eq!(c.node_tris.row(2), &[1]);
        assert_eq!(c.node_tris.row(3), &[0, 1]);
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
