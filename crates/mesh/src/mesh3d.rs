//! 3-D tetrahedral meshes (paper §3.4, Fig. 8).
//!
//! The 3-D overlap automaton of the paper adds tetrahedron- and
//! edge-based data shapes; this module supplies the corresponding mesh
//! substrate: tet→node incidence plus derived triangular faces, unique
//! edges, and the face-adjacency dual graph for partitioning.

use crate::csr::{dedup_first_seen, edges_first_seen, Csr};

/// A tetrahedral mesh in struct-of-arrays layout.
#[derive(Debug, Clone)]
pub struct Mesh3d {
    /// Node coordinates.
    pub coords: Vec<[f64; 3]>,
    /// Tetrahedron vertices, `tets[t] = [a, b, c, d]`.
    pub tets: Vec<[u32; 4]>,
}

/// Derived connectivity of a [`Mesh3d`].
#[derive(Debug, Clone)]
pub struct Connectivity3d {
    /// Unique triangular faces (sorted node triples).
    pub faces: Vec<[u32; 3]>,
    /// Unique edges (sorted node pairs).
    pub edges: Vec<[u32; 2]>,
    /// Tet → its four faces (face `k` is opposite vertex `k`).
    pub tet_faces: Vec<[u32; 4]>,
    /// Tet → its six edges.
    pub tet_edges: Vec<[u32; 6]>,
    /// Face → the one or two tets sharing it.
    pub face_tets: Csr,
    /// Node → incident tets.
    pub node_tets: Csr,
    /// Tet → face-adjacent tets (dual graph).
    pub tet_tets: Csr,
    /// Boundary flag per node (on a boundary face).
    pub boundary_node: Vec<bool>,
}

impl Mesh3d {
    /// Create a mesh from raw arrays, validating vertex ids.
    pub fn new(coords: Vec<[f64; 3]>, tets: Vec<[u32; 4]>) -> Self {
        let n = coords.len() as u32;
        for (t, tet) in tets.iter().enumerate() {
            for &s in tet {
                assert!(s < n, "tet {t} references node {s} >= {n}");
            }
            let mut v = *tet;
            v.sort_unstable();
            assert!(
                v.windows(2).all(|w| w[0] != w[1]),
                "tet {t} is degenerate: {tet:?}"
            );
        }
        Mesh3d { coords, tets }
    }

    /// Number of nodes.
    pub fn nnodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of tetrahedra.
    pub fn ntets(&self) -> usize {
        self.tets.len()
    }

    /// Signed volume of tet `t` (positive when positively oriented).
    pub fn signed_volume(&self, t: usize) -> f64 {
        let [a, b, c, d] = self.tets[t];
        let p = |i: u32| self.coords[i as usize];
        let (pa, pb, pc, pd) = (p(a), p(b), p(c), p(d));
        let u = [pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]];
        let v = [pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2]];
        let w = [pd[0] - pa[0], pd[1] - pa[1], pd[2] - pa[2]];
        (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))
            / 6.0
    }

    /// Tet centroid (for geometric partitioners).
    pub fn centroid(&self, t: usize) -> [f64; 3] {
        let [a, b, c, d] = self.tets[t];
        let p = |i: u32| self.coords[i as usize];
        let (pa, pb, pc, pd) = (p(a), p(b), p(c), p(d));
        [
            (pa[0] + pb[0] + pc[0] + pd[0]) / 4.0,
            (pa[1] + pb[1] + pc[1] + pd[1]) / 4.0,
            (pa[2] + pb[2] + pc[2] + pd[2]) / 4.0,
        ]
    }

    /// Derive faces, edges and adjacency.
    pub fn connectivity(&self) -> Connectivity3d {
        let nn = self.nnodes();
        let nt = self.ntets();

        // Faces via the sort-based first-seen dedup (one occurrence
        // per tet-local face, sorted triple key); edges via the one
        // edge numbering.
        let mut face_occ: Vec<[u32; 3]> = Vec::with_capacity(nt * 4);
        for &[a, b, c, d] in &self.tets {
            for f in [[b, c, d], [a, c, d], [a, b, d], [a, b, c]] {
                let mut key = f;
                key.sort_unstable();
                face_occ.push(key);
            }
        }
        let face_dedup = dedup_first_seen(&face_occ);
        let faces = face_dedup.keys;
        let (edges, edge_ids) = edges_first_seen(&self.tets);
        let mut tet_faces = vec![[0u32; 4]; nt];
        let mut tet_edges = vec![[0u32; 6]; nt];
        let mut face_tet_pairs: Vec<(u32, u32)> = Vec::with_capacity(nt * 4);
        for (t, (tf, te)) in tet_faces.iter_mut().zip(tet_edges.iter_mut()).enumerate() {
            for (k, slot) in tf.iter_mut().enumerate() {
                let fi = face_dedup.ids[t * 4 + k];
                *slot = fi;
                face_tet_pairs.push((fi, t as u32));
            }
            for (k, slot) in te.iter_mut().enumerate() {
                *slot = edge_ids[t * 6 + k];
            }
        }
        let nf = faces.len();
        let face_tets = Csr::from_pairs(nf, &face_tet_pairs);

        let mut ntet_pairs: Vec<(u32, u32)> = Vec::with_capacity(nt * 4);
        for (t, tet) in self.tets.iter().enumerate() {
            for &s in tet {
                ntet_pairs.push((s, t as u32));
            }
        }
        let node_tets = Csr::from_pairs(nn, &ntet_pairs);

        let mut tt_pairs: Vec<(u32, u32)> = Vec::with_capacity(nt * 4);
        let mut boundary_node = vec![false; nn];
        for (f, face) in faces.iter().enumerate().take(nf) {
            let ts = face_tets.row(f);
            match ts.len() {
                1 => {
                    for &s in face {
                        boundary_node[s as usize] = true;
                    }
                }
                2 => {
                    tt_pairs.push((ts[0], ts[1]));
                    tt_pairs.push((ts[1], ts[0]));
                }
                k => panic!("face {f} shared by {k} tets: non-manifold mesh"),
            }
        }
        let tet_tets = Csr::from_pairs(nt, &tt_pairs);

        Connectivity3d {
            faces,
            edges,
            tet_faces,
            tet_edges,
            face_tets,
            node_tets,
            tet_tets,
            boundary_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unit cube split into 5 tetrahedra.
    fn cube5() -> Mesh3d {
        let coords = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ];
        let tets = vec![
            [0, 1, 2, 5],
            [0, 2, 3, 7],
            [0, 5, 2, 7],
            [0, 5, 7, 4],
            [2, 7, 5, 6],
        ];
        Mesh3d::new(coords, tets)
    }

    #[test]
    fn cube_volume_sums_to_one() {
        let m = cube5();
        let vol: f64 = (0..m.ntets()).map(|t| m.signed_volume(t).abs()).sum();
        assert!((vol - 1.0).abs() < 1e-12, "vol = {vol}");
    }

    #[test]
    fn connectivity_counts() {
        let m = cube5();
        let c = m.connectivity();
        // 5-tet cube: 8 nodes, 18 edges (12 cube edges + 6 face diagonals...
        // actually 12 + 6 diagonals + 1 none interior for this split), 16 faces.
        assert_eq!(m.nnodes(), 8);
        assert_eq!(c.edges.len(), 18);
        assert_eq!(c.faces.len(), 16);
        // Euler: V - E + F - T = 8 - 18 + 16 - 5 = 1 (3-ball).
        let euler =
            m.nnodes() as i64 - c.edges.len() as i64 + c.faces.len() as i64 - m.ntets() as i64;
        assert_eq!(euler, 1);
    }

    #[test]
    fn central_tet_has_four_neighbors() {
        let m = cube5();
        let c = m.connectivity();
        // Tet 2 (0,5,2,7) is the central one, face-adjacent to all others.
        assert_eq!(c.tet_tets.row(2).len(), 4);
    }

    #[test]
    fn all_cube_nodes_on_boundary() {
        let m = cube5();
        let c = m.connectivity();
        assert!(c.boundary_node.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_tet_rejected() {
        Mesh3d::new(
            vec![[0.0; 3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            vec![[0, 1, 2, 0]],
        );
    }
}
