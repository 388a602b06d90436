//! 3-D tetrahedral meshes (paper §3.4, Fig. 8).
//!
//! The 3-D overlap automaton of the paper adds tetrahedron- and
//! edge-based data shapes; this module supplies the corresponding mesh
//! substrate: tet→node incidence, whose edge numbering is stored once,
//! on first read ([`Mesh::edges`]), and the face-adjacency dual graph
//! for partitioning ([`Mesh3d::dual_graph`]).

use crate::csr::{dedup_first_seen, dual_from_facets, Csr, Dedup};
use crate::simplicial::Mesh;

/// A tetrahedral mesh: `coords[n] = [x, y, z]`, and `tets()[t]` the
/// nodes of tet `t`.
pub type Mesh3d = Mesh<3, 4>;

impl Mesh3d {
    /// Tetrahedron vertices, `tets()[t] = [a, b, c, d]`.
    pub fn tets(&self) -> &[[u32; 4]] {
        self.elems()
    }

    /// Number of tetrahedra.
    pub fn ntets(&self) -> usize {
        self.tets().len()
    }

    /// Signed volume of tet `t` (positive when positively oriented).
    pub fn signed_volume(&self, t: usize) -> f64 {
        let [a, b, c, d] = self.tets()[t];
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
        let [a, b, c, d] = self.tets()[t];
        let p = |i: u32| self.coords[i as usize];
        let (pa, pb, pc, pd) = (p(a), p(b), p(c), p(d));
        [
            (pa[0] + pb[0] + pc[0] + pd[0]) / 4.0,
            (pa[1] + pb[1] + pc[1] + pd[1]) / 4.0,
            (pa[2] + pb[2] + pc[2] + pd[2]) / 4.0,
        ]
    }

    /// The unique triangular faces, numbered first-seen over tets ×
    /// local face `k` (the face opposite vertex `k`), plus the face id
    /// of every tet-local face (`ids[t * 4 + k]`). Face `[a, b, c]`
    /// (sorted nodes) is keyed `[e, c]`, `e` the [`Mesh::edges`] id of
    /// `[a, b]`: one-to-one, so the numbering is the one over the node
    /// triples, from one counting pass over pairs.
    pub fn faces(&self) -> Dedup<[u32; 2]> {
        // Local pair slot of vertices `i` and `j` (`vertex_pairs` order).
        const SLOT: [[usize; 4]; 4] = [[0, 0, 1, 2], [0, 0, 3, 4], [1, 3, 0, 5], [2, 4, 5, 0]];
        let edges = self.edges();
        let mut occ: Vec<[u32; 2]> = Vec::with_capacity(self.ntets() * 4);
        for (tet, slots) in self.tets().iter().zip(edges.ids.chunks_exact(6)) {
            for mut face in [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]] {
                face.sort_unstable_by_key(|&v| tet[v]);
                let [a, b, c] = face;
                occ.push([slots[SLOT[a][b]], tet[c]]);
            }
        }
        dedup_first_seen(&occ, edges.keys.len().max(self.nnodes()))
    }

    /// The tet dual graph (tets sharing a face), row `t` in ascending
    /// [`Mesh3d::faces`] id. Panics on a non-manifold mesh (a face on
    /// three or more tets).
    pub fn dual_graph(&self) -> Csr {
        let faces = self.faces();
        dual_from_facets::<4>(&faces.ids, faces.keys.len())
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
    fn face_and_edge_counts() {
        let m = cube5();
        let edges = &m.edges().keys;
        let faces = m.faces();
        // 5-tet cube: 8 nodes, 18 edges (12 cube edges + 6 face
        // diagonals), 16 faces (12 boundary triangles + 4 interior).
        assert_eq!(m.nnodes(), 8);
        assert_eq!(edges.len(), 18);
        assert_eq!(faces.keys.len(), 16);
        assert_eq!(faces.ids.len(), 4 * m.ntets());
        // Euler: V - E + F - T = 8 - 18 + 16 - 5 = 1 (3-ball).
        let euler =
            m.nnodes() as i64 - edges.len() as i64 + faces.keys.len() as i64 - m.ntets() as i64;
        assert_eq!(euler, 1);
    }

    #[test]
    fn central_tet_has_four_neighbors() {
        // Tet 2 (0,5,2,7) is the central one, face-adjacent to all others.
        assert_eq!(cube5().dual_graph().row(2), &[0, 1, 4, 3]);
    }

    #[test]
    fn all_cube_nodes_on_boundary() {
        // A boundary face is one whose id occurs on a single tet.
        let m = cube5();
        let Dedup { keys, ids } = m.faces();
        let once = |f: &usize| ids.iter().filter(|&&x| x as usize == *f).count() == 1;
        let nodes_of = |f: usize| {
            let [e, c] = keys[f];
            let [a, b] = m.edges().keys[e as usize];
            [a, b, c]
        };
        let mut nodes: Vec<u32> = (0..keys.len()).filter(once).flat_map(nodes_of).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "non-manifold mesh")]
    fn three_tets_on_one_face_panic() {
        // Only ids matter to the topology; the coordinates can coincide.
        let tets = vec![[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]];
        Mesh3d::new(vec![[0.0; 3]; 6], tets).dual_graph();
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
