//! Simplicial meshes, of which [`Mesh2d`](crate::Mesh2d) and
//! [`Mesh3d`](crate::Mesh3d) are the two shapes.

use std::sync::OnceLock;

use crate::csr::{edges_first_seen, vertex_pairs, Dedup};

/// `V`-vertex simplices (triangles, `V = 3`; tets, `V = 4`) on nodes in
/// `D` dimensions, in struct-of-arrays layout. [`Mesh::new`] validates
/// the incidence, which never changes after it, so the stored edge
/// numbering cannot go stale.
#[derive(Debug, Clone)]
pub struct Mesh<const D: usize, const V: usize> {
    /// Node coordinates.
    pub coords: Vec<[f64; D]>,
    elems: Vec<[u32; V]>,
    edges: OnceLock<Dedup<[u32; 2]>>,
}

impl<const D: usize, const V: usize> Mesh<D, V> {
    /// Create a mesh from raw arrays. Panics on an out-of-range node id
    /// and on an element naming a node twice.
    pub fn new(coords: Vec<[f64; D]>, elems: Vec<[u32; V]>) -> Self {
        let (n, what) = (coords.len(), if V == 3 { "triangle" } else { "tet" });
        for (t, el) in elems.iter().enumerate() {
            for &s in el {
                assert!((s as usize) < n, "{what} {t} references node {s} >= {n}");
            }
            let distinct = vertex_pairs::<V>().all(|(i, j)| el[i] != el[j]);
            assert!(distinct, "{what} {t} is degenerate: {el:?}");
        }
        let edges = OnceLock::new();
        Mesh { coords, elems, edges }
    }

    /// Number of nodes.
    pub fn nnodes(&self) -> usize {
        self.coords.len()
    }

    /// Element vertices, `elems()[e]` = the node ids of element `e`.
    pub fn elems(&self) -> &[[u32; V]] {
        &self.elems
    }

    /// The unique edges as sorted node pairs, first-seen over elements
    /// × local pairs `(i, j)`, `i < j` (`keys`), and the edge id of
    /// every element-local pair slot (`ids[e * n_vertex_pairs::<V>() +
    /// k]`). The first call numbers them; later calls return the same
    /// table.
    pub fn edges(&self) -> &Dedup<[u32; 2]> {
        self.edges.get_or_init(|| edges_first_seen(&self.elems, self.nnodes()))
    }
}
