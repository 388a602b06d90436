//! One processor's localized sub-mesh.
//!
//! "The sub-meshes returned by the mesh partitioner are organized like
//! the original mesh. The array names and access patterns are the
//! same, and thus the computational part of the FORTRAN program
//! remains exactly the same." (§2.2) — a [`SubMesh`] is a complete,
//! self-contained mesh whose indirection arrays (`elems`, `edges`) are
//! expressed in *local* node numbers, so the unmodified SPMD program
//! can run on it directly.
//!
//! Local numbering convention (for every entity kind): **kernel
//! entities first, overlap entities last**. A loop restricted to the
//! kernel iterates `0..n_kernel_*`; a loop over the full overlap
//! domain iterates `0..n_*`. This is the numbering that makes the
//! paper's `C$ITERATION DOMAIN: KERNEL / OVERLAP` annotations directly
//! executable.
//!
//! Every per-kind question — which list maps a kind's local ids to
//! global ones, how long its kernel prefix is — is answered here, by
//! [`SubMesh::l2g`] and [`SubMesh::n_kernel`].

use syncplace_mesh::EntityKind;

/// The element entity kind of an arity (`V = 3` triangles, `V = 4`
/// tetrahedra).
pub fn elem_kind<const V: usize>() -> EntityKind {
    match V {
        3 => EntityKind::Tri,
        4 => EntityKind::Tet,
        _ => panic!("unsupported element arity {V}"),
    }
}

/// A localized sub-mesh with `V`-vertex elements (`V = 3` triangles,
/// `V = 4` tetrahedra).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubMesh<const V: usize> {
    /// This sub-mesh's part id (= processor rank).
    pub part: u32,
    /// Local element → global element. Kernel elements (owned by
    /// `part`) come first.
    pub elems_l2g: Vec<u32>,
    /// Number of kernel elements (prefix of `elems_l2g`).
    pub n_kernel_elems: usize,
    /// Localized element incidence: vertex entries are local node ids.
    pub elems: Vec<[u32; V]>,
    /// Local node → global node. Kernel (owned) nodes come first.
    pub nodes_l2g: Vec<u32>,
    /// Number of kernel nodes (prefix of `nodes_l2g`).
    pub n_kernel_nodes: usize,
    /// Localized unique edges (pairs of local node ids, lo < hi),
    /// kernel edges first.
    pub edges: Vec<[u32; 2]>,
    /// Local edge → global edge (ids of the mesh's edge numbering,
    /// `mesh.edges()`).
    pub edges_l2g: Vec<u32>,
    /// Number of kernel edges (prefix of `edges_l2g`).
    pub n_kernel_edges: usize,
}

/// 2-D (triangle) sub-mesh.
pub type SubMesh2d = SubMesh<3>;
/// 3-D (tetrahedron) sub-mesh.
pub type SubMesh3d = SubMesh<4>;

impl<const V: usize> SubMesh<V> {
    /// Number of local nodes (kernel + overlap).
    pub fn nnodes(&self) -> usize {
        self.nodes_l2g.len()
    }

    /// Number of local elements (kernel + overlap).
    pub fn nelems(&self) -> usize {
        self.elems_l2g.len()
    }

    /// Number of local edges.
    pub fn nedges(&self) -> usize {
        self.edges_l2g.len()
    }

    /// Local → global ids of `kind`, kernel first; `None` for a kind
    /// this arity lacks.
    pub fn l2g(&self, kind: EntityKind) -> Option<&[u32]> {
        match kind {
            EntityKind::Node => Some(&self.nodes_l2g),
            EntityKind::Edge => Some(&self.edges_l2g),
            k if k == elem_kind::<V>() => Some(&self.elems_l2g),
            _ => None,
        }
    }

    /// Number of kernel entities of `kind` (the prefix of
    /// [`SubMesh::l2g`]); `None` for a kind this arity lacks.
    pub fn n_kernel(&self, kind: EntityKind) -> Option<usize> {
        match kind {
            EntityKind::Node => Some(self.n_kernel_nodes),
            EntityKind::Edge => Some(self.n_kernel_edges),
            k if k == elem_kind::<V>() => Some(self.n_kernel_elems),
            _ => None,
        }
    }

    /// The kernel prefix of [`SubMesh::l2g`]: the global ids of the
    /// `kind` entities this part owns, in local order.
    pub fn kernel(&self, kind: EntityKind) -> Option<&[u32]> {
        Some(&self.l2g(kind)?[..self.n_kernel(kind)?])
    }

    /// Number of overlap (non-kernel) nodes.
    pub fn n_overlap_nodes(&self) -> usize {
        self.nnodes() - self.n_kernel_nodes
    }

    /// Number of overlap (duplicated) elements.
    pub fn n_overlap_elems(&self) -> usize {
        self.nelems() - self.n_kernel_elems
    }

    /// Basic structural sanity: localized indices in range, kernel
    /// prefixes within bounds. Returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let nn = self.nnodes() as u32;
        if self.n_kernel_nodes > self.nnodes() {
            return Err("kernel node count exceeds node count".into());
        }
        if self.n_kernel_elems > self.nelems() {
            return Err("kernel element count exceeds element count".into());
        }
        if self.n_kernel_edges > self.nedges() {
            return Err("kernel edge count exceeds edge count".into());
        }
        if self.elems.len() != self.elems_l2g.len() {
            return Err("elems and elems_l2g length mismatch".into());
        }
        if self.edges.len() != self.edges_l2g.len() {
            return Err("edges and edges_l2g length mismatch".into());
        }
        for (e, el) in self.elems.iter().enumerate() {
            for &v in el {
                if v >= nn {
                    return Err(format!("element {e} vertex {v} out of range {nn}"));
                }
            }
        }
        for (e, &[a, b]) in self.edges.iter().enumerate() {
            if a >= nn || b >= nn || a >= b {
                return Err(format!("edge {e} = ({a},{b}) invalid"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SubMesh2d {
        SubMesh {
            part: 0,
            elems_l2g: vec![0, 5],
            n_kernel_elems: 1,
            elems: vec![[0, 1, 2], [1, 3, 2]],
            nodes_l2g: vec![10, 11, 12, 20],
            n_kernel_nodes: 3,
            edges: vec![[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]],
            edges_l2g: vec![0, 1, 2, 7, 8],
            n_kernel_edges: 3,
        }
    }

    #[test]
    fn counts() {
        let s = tiny();
        assert_eq!(s.nnodes(), 4);
        assert_eq!(s.n_overlap_nodes(), 1);
        assert_eq!(s.n_overlap_elems(), 1);
        assert_eq!(s.l2g(EntityKind::Tri), Some(&[0, 5][..]));
        assert_eq!(s.n_kernel(EntityKind::Edge), Some(3));
        assert_eq!(s.l2g(EntityKind::Tet), None);
        assert_eq!(s.n_kernel(EntityKind::Tet), None);
    }

    #[test]
    fn validate_ok() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_vertex() {
        let mut s = tiny();
        s.elems[1] = [0, 1, 9];
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_kernel_prefix() {
        let mut s = tiny();
        s.n_kernel_nodes = 5;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_unsorted_edge() {
        let mut s = tiny();
        s.edges[0] = [1, 0];
        assert!(s.validate().is_err());
    }
}
