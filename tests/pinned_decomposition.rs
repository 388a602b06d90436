//! Pinned outputs of the partition → decomposition chain: an FNV-1a
//! fingerprint over every raw vector one run produces, recorded before
//! the mesh numbered its edges once. The mesh kernels (edge and face
//! numbering, dual graph, incidence CSRs) may change how they compute,
//! never what: a change that permutes any id fails here by name rather
//! than through a downstream suite.

use syncplace::mesh::{gen2d, gen3d};
use syncplace::overlap::{decompose2d, decompose3d, Decomposition, Pattern};
use syncplace::partition::{partition2d, partition3d, Method, Partition};

/// FNV-1a 64 over length-prefixed little-endian `u32` vectors.
struct Fnv(u64);

impl Fnv {
    fn words(&mut self, words: impl ExactSizeIterator<Item = u32>) {
        let len = words.len() as u32;
        for w in std::iter::once(len).chain(words) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    fn flat<const N: usize>(&mut self, v: &[[u32; N]]) {
        self.words(v.iter().flatten().copied().collect::<Vec<_>>().into_iter());
    }
}

/// The partition vector, its dual graph's rows, the mesh's edge keys
/// (hashed where the recorded values expect them) and every vector of
/// the decomposition, sub-meshes and schedules in field order.
fn fingerprint<const V: usize>(p: &Partition, edges: &[[u32; 2]], d: &Decomposition<V>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.words(p.part.iter().copied());
    for (_, row) in p.dual.iter() {
        h.words(row.iter().copied());
    }
    h.words([d.nparts, d.nnodes_global, d.nelems_global].map(|n| n as u32).into_iter());
    h.flat(edges);
    for v in [&d.node_owner, &d.edge_owner, &d.elem_part] {
        h.words(v.iter().copied());
    }
    for s in &d.submeshes {
        let kernels = [s.part as usize, s.n_kernel_elems, s.n_kernel_nodes, s.n_kernel_edges];
        h.words(kernels.map(|n| n as u32).into_iter());
        h.words(s.elems_l2g.iter().copied());
        h.flat(&s.elems);
        h.words(s.nodes_l2g.iter().copied());
        h.flat(&s.edges);
        h.words(s.edges_l2g.iter().copied());
    }
    for sched in [&d.node_update, &d.edge_update] {
        for m in &sched.msgs {
            h.words([m.from, m.to].into_iter());
            h.flat(&m.pairs.iter().map(|&(a, b)| [a, b]).collect::<Vec<_>>());
        }
    }
    h.0
}

#[test]
fn partition_and_decomposition_2d_are_pinned() {
    let mesh = gen2d::perturbed_grid(40, 40, 0.2, 3);
    let p = partition2d(&mesh, 7, Method::RcbKl);
    let d = decompose2d(&mesh, &p.part, 7, Pattern::FIG1);
    let fp = fingerprint(&p, &mesh.edges().keys, &d);
    assert_eq!(fp, 15_208_330_041_142_541_043, "2-D fingerprint");
}

#[test]
fn node_overlap_decomposition_2d_is_pinned() {
    // Fig. 2 assembles along the node schedule: this pins it.
    let mesh = gen2d::perturbed_grid(40, 40, 0.2, 3);
    let p = partition2d(&mesh, 7, Method::RcbKl);
    let d = decompose2d(&mesh, &p.part, 7, Pattern::FIG2);
    let fp = fingerprint(&p, &mesh.edges().keys, &d);
    assert_eq!(fp, 11_280_485_998_088_202_123, "2-D node-overlap fingerprint");
}

#[test]
fn partition_and_decomposition_3d_are_pinned() {
    let mesh = gen3d::box_mesh(6, 6, 6);
    let p = partition3d(&mesh, 5, Method::Rcb);
    let d = decompose3d(&mesh, &p.part, 5, Pattern::FIG1);
    let fp = fingerprint(&p, &mesh.edges().keys, &d);
    assert_eq!(fp, 6_864_240_162_544_060_313, "3-D fingerprint");
}
