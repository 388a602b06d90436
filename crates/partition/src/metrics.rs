//! Partition quality metrics.
//!
//! The paper's splitter objective (§2.2): "compact sub-meshes with a
//! minimal interface size between them, to minimize communications",
//! plus load balance. These metrics quantify exactly that and are
//! reported by the experiment harness next to communication volumes.

use syncplace_mesh::{Csr, Mesh2d};

/// Number of dual-graph edges whose endpoints lie in different parts.
pub fn edge_cut(dual: &Csr, part: &[u32]) -> usize {
    let mut cut = 0usize;
    for e in 0..dual.nrows() {
        for &nb in dual.row(e) {
            if (nb as usize) > e && part[nb as usize] != part[e] {
                cut += 1;
            }
        }
    }
    cut
}

/// Load imbalance: `max part size / average part size` (1.0 = perfect).
pub fn imbalance(part: &[u32], nparts: usize) -> f64 {
    let mut sizes = vec![0usize; nparts];
    for &p in part {
        sizes[p as usize] += 1;
    }
    let avg = part.len() as f64 / nparts as f64;
    sizes.into_iter().map(|s| s as f64).fold(0.0, f64::max) / avg
}

/// Number of *interface nodes* of a 2-D element partition: nodes
/// incident to elements of two or more different parts. These are the
/// nodes that will be duplicated/communicated by the overlap builders.
pub fn interface_nodes2d(mesh: &Mesh2d, part: &[u32]) -> usize {
    let mut first_part: Vec<u32> = vec![u32::MAX; mesh.nnodes()];
    let mut interface = vec![false; mesh.nnodes()];
    for (t, tri) in mesh.som().iter().enumerate() {
        let p = part[t];
        for &s in tri {
            let f = &mut first_part[s as usize];
            if *f == u32::MAX {
                *f = p;
            } else if *f != p {
                interface[s as usize] = true;
            }
        }
    }
    interface.into_iter().filter(|&b| b).count()
}

/// Full quality report for a 2-D partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    pub nparts: usize,
    pub edge_cut: usize,
    pub interface_nodes: usize,
    pub imbalance: f64,
}

/// Compute [`Quality`] for a 2-D mesh partition.
pub fn quality2d(mesh: &Mesh2d, dual: &Csr, part: &[u32], nparts: usize) -> Quality {
    Quality {
        nparts,
        edge_cut: edge_cut(dual, part),
        interface_nodes: interface_nodes2d(mesh, part),
        imbalance: imbalance(part, nparts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition2d, Method};
    use syncplace_mesh::gen2d;

    #[test]
    fn edge_cut_counts_each_edge_once() {
        // Path graph 0-1-2, cut between 1 and 2.
        let dual = Csr::from_rows(vec![vec![1u32], vec![0, 2], vec![1]]);
        assert_eq!(edge_cut(&dual, &[0, 0, 1]), 1);
        assert_eq!(edge_cut(&dual, &[0, 1, 0]), 2);
        assert_eq!(edge_cut(&dual, &[0, 0, 0]), 0);
    }

    #[test]
    fn imbalance_perfect_is_one() {
        assert!((imbalance(&[0, 0, 1, 1], 2) - 1.0).abs() < 1e-12);
        assert!((imbalance(&[0, 0, 0, 1], 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn interface_nodes_on_split_grid() {
        // 2x1 grid split into left/right triangles pairs: the shared
        // column of nodes is the interface.
        let mesh = gen2d::grid(2, 1);
        // Triangles 0,1 in cell 0; 2,3 in cell 1.
        let part = vec![0, 0, 1, 1];
        // Interface nodes: the middle column x=0.5 has nodes 1 and 4.
        assert_eq!(interface_nodes2d(&mesh, &part), 2);
    }

    #[test]
    fn interface_scales_like_sqrt() {
        // For a fixed 2-way split of an n x n grid, interface nodes grow
        // like n while total nodes grow like n^2.
        let small = gen2d::grid(8, 8);
        let large = gen2d::grid(16, 16);
        let ps = partition2d(&small, 2, Method::Rcb);
        let pl = partition2d(&large, 2, Method::Rcb);
        let is = interface_nodes2d(&small, &ps.part);
        let il = interface_nodes2d(&large, &pl.part);
        // Doubling n should roughly double (not quadruple) the interface.
        assert!(il <= is * 3, "interface {is} -> {il}");
        assert!(il >= is, "interface {is} -> {il}");
    }

    #[test]
    fn quality_report() {
        let mesh = gen2d::grid(6, 6);
        let p = partition2d(&mesh, 4, Method::GreedyKl);
        let q = quality2d(&mesh, &p.dual, &p.part, 4);
        assert!(q.edge_cut > 0);
        assert!(q.interface_nodes > 0);
        assert!(q.imbalance >= 1.0 && q.imbalance < 1.3);
    }
}
