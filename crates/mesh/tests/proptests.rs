//! Property-style tests for the mesh substrate, driven by
//! deterministic seeded sweeps (`syncplace_mesh::rng`) instead of an
//! external property-testing crate so they run fully offline.

use std::collections::HashMap;
use std::hash::Hash;
use syncplace_mesh::rng::SmallRng;
use syncplace_mesh::{dedup_first_seen, gen2d, gen3d, refine2d, reorder, Csr, Dedup, Mesh2d, Mesh3d};

/// Triangle facets in the edge numbering's pair order; tet face `k`
/// is opposite vertex `k`.
const TRI: [&[usize]; 3] = [&[0, 1], &[0, 2], &[1, 2]];
const TET: [&[usize]; 4] = [&[1, 2, 3], &[0, 2, 3], &[0, 1, 3], &[0, 1, 2]];

/// Brute-force dual graph: two elements are adjacent iff they share
/// all but one vertex, and a row is ordered by the first-seen id (over
/// elements × local `facets`) of the facet each neighbour shares.
fn reference_dual<const V: usize>(elems: &[[u32; V]], facets: &[&[usize]]) -> Vec<Vec<u32>> {
    let sorted = |it: &mut dyn Iterator<Item = u32>| {
        let mut k: Vec<u32> = it.collect();
        k.sort_unstable();
        k
    };
    let mut seen: Vec<Vec<u32>> = Vec::new();
    for el in elems {
        for f in facets {
            let k = sorted(&mut f.iter().map(|&i| el[i]));
            if !seen.contains(&k) {
                seen.push(k);
            }
        }
    }
    let row = |a: usize| {
        let mut row: Vec<(usize, u32)> = (0..elems.len())
            .filter(|&b| b != a)
            .filter_map(|b| {
                let shared = sorted(&mut elems[a].iter().copied().filter(|v| elems[b].contains(v)));
                let id = seen.iter().position(|k| *k == shared)?;
                (shared.len() == V - 1).then_some((id, b as u32))
            })
            .collect();
        row.sort_unstable();
        row.into_iter().map(|(_, b)| b).collect()
    };
    (0..elems.len()).map(row).collect()
}

fn rows(dual: &Csr) -> Vec<Vec<u32>> {
    dual.iter().map(|(_, r)| r.to_vec()).collect()
}

/// First-seen numbering by a scan in occurrence order: the distinct
/// keys in the order first met, and the id of every occurrence.
fn scan_reference<K: Copy + Eq + Hash>(occ: impl IntoIterator<Item = K>) -> Dedup<K> {
    let mut id_of = HashMap::new();
    let mut keys = Vec::new();
    let ids = (occ.into_iter())
        .map(|k| {
            *id_of.entry(k).or_insert_with(|| {
                keys.push(k);
                keys.len() as u32 - 1
            })
        })
        .collect();
    Dedup { keys, ids }
}

fn sorted<const N: usize>(mut key: [u32; N]) -> [u32; N] {
    key.sort_unstable();
    key
}

/// Reference edge numbering: sorted node pairs over elements × local
/// pairs `(i, j)`, `i < j`.
fn reference_edges<const V: usize>(elems: &[[u32; V]]) -> Dedup<[u32; 2]> {
    let pairs = |el: &[u32; V]| {
        let el = *el;
        (0..V).flat_map(move |i| (i + 1..V).map(move |j| sorted([el[i], el[j]])))
    };
    scan_reference(elems.iter().flat_map(pairs))
}

/// Reference face numbering: sorted node triples over tets × the face
/// opposite vertex `k`.
fn reference_faces(tets: &[[u32; 4]]) -> Dedup<[u32; 3]> {
    let faces = |&[a, b, c, d]: &[u32; 4]| [[b, c, d], [a, c, d], [a, b, d], [a, b, c]].map(sorted);
    scan_reference(tets.iter().flat_map(faces))
}

/// The elements with their node ids relabelled by a seeded
/// permutation of `0..nnodes`.
fn relabel<const V: usize>(elems: &[[u32; V]], nnodes: usize, rng: &mut SmallRng) -> Vec<[u32; V]> {
    let mut perm: Vec<u32> = (0..nnodes as u32).collect();
    for i in (1..nnodes).rev() {
        perm.swap(i, rng.range_usize(0, i + 1));
    }
    elems
        .iter()
        .map(|el| el.map(|v| perm[v as usize]))
        .collect()
}

/// Dual graph and edge numbering of a triangle mesh vs. the references.
fn check_tris(som: &[[u32; 3]], nnodes: usize) {
    let m = Mesh2d::new(vec![[0.0; 2]; nnodes], som.to_vec());
    assert_eq!(rows(&m.dual_graph()), reference_dual(som, &TRI));
    assert_eq!(*m.edges(), reference_edges(som));
}

/// Dual graph, edge and face numbering of a tet mesh vs. the references.
fn check_tets(tets: &[[u32; 4]], nnodes: usize) {
    let m = Mesh3d::new(vec![[0.0; 3]; nnodes], tets.to_vec());
    assert_eq!(rows(&m.dual_graph()), reference_dual(tets, &TET));
    assert_eq!(*m.edges(), reference_edges(tets));
    assert_eq!(face_nodes(&m), reference_faces(tets));
}

/// [`Mesh3d::faces`] with each `[edge, top]` key as its node triple.
fn face_nodes(m: &Mesh3d) -> Dedup<[u32; 3]> {
    let Dedup { keys, ids } = m.faces();
    let edges = &m.edges().keys;
    let keys = (keys.iter())
        .map(|&[e, c]| [edges[e as usize][0], edges[e as usize][1], c])
        .collect();
    Dedup { keys, ids }
}

#[test]
fn dual_graph_matches_brute_force_reference() {
    // Every input is checked as generated and with its node ids
    // relabelled: the counting passes depend on the id range.
    let mut shuffle = SmallRng::seed_from_u64(0x5EED);
    let mut rng = SmallRng::seed_from_u64(0xD0A1);
    for _case in 0..12 {
        let (nx, ny) = (rng.range_usize(2, 9), rng.range_usize(2, 9));
        let m = gen2d::perturbed_grid(nx, ny, 0.3, rng.next_u64() % 500);
        let mark_mod = rng.range_usize(1, 5);
        let marked: Vec<bool> = (0..m.ntris()).map(|t| t % mark_mod == 0).collect();
        let f = refine2d::refine(&m, &marked).0;
        for m in [m, f] {
            check_tris(m.som(), m.nnodes());
            check_tris(&relabel(m.som(), m.nnodes(), &mut shuffle), m.nnodes());
        }
    }
    for (nx, ny, nz) in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 3, 2), (3, 2, 2)] {
        let m = gen3d::box_mesh(nx, ny, nz);
        check_tets(m.tets(), m.nnodes());
        check_tets(&relabel(m.tets(), m.nnodes(), &mut shuffle), m.nnodes());
    }
}

/// Meshes where every element shares one hub node: a fan of 2^17
/// triangles around node 0, and a star of 2^16 tets around edge
/// (0, 1) in which tet `i` shares a face with tets `i ± 1`. A
/// numbering that walked a per-node chain would be quadratic here.
#[test]
fn hub_meshes_number_like_the_reference() {
    // Element `i` meets `i - 1` through a facet seen before its own
    // facet to `i + 1`, so its dual row is [i - 1, i + 1].
    let chain = |k: u32| -> Vec<Vec<u32>> {
        (0..k)
            .map(|i| {
                [i.checked_sub(1), (i + 1 < k).then_some(i + 1)]
                    .into_iter()
                    .flatten()
                    .collect()
            })
            .collect()
    };
    let k = 1u32 << 17;
    let fan: Vec<[u32; 3]> = (0..k).map(|i| [0, i + 1, i + 2]).collect();
    let m = Mesh2d::new(vec![[0.0; 2]; k as usize + 2], fan);
    assert_eq!(*m.edges(), reference_edges(m.som()));
    assert_eq!(rows(&m.dual_graph()), chain(k));

    let k = 1u32 << 16;
    let star: Vec<[u32; 4]> = (0..k).map(|i| [0, 1, i + 2, i + 3]).collect();
    let m = Mesh3d::new(vec![[0.0; 3]; k as usize + 3], star);
    assert_eq!(*m.edges(), reference_edges(m.tets()));
    assert_eq!(face_nodes(&m), reference_faces(m.tets()));
    assert_eq!(rows(&m.dual_graph()), chain(k));
}

/// The numbering kernel against the scan, on pairs and on triples:
/// seeded streams under small node bounds (many repeats), a perturbed
/// grid with its node ids permuted, and a fan in which node 0 lies on
/// every triangle, so one bucket of the leading component holds every
/// triple and every spoke. Keys need not be sorted tuples: `[2, 1]`
/// and `[1, 2]` are distinct.
#[test]
fn dedup_matches_scan_reference() {
    fn check<const N: usize>(occ: &[[u32; N]], n: usize) {
        assert_eq!(dedup_first_seen(occ, n), scan_reference(occ.iter().copied()));
    }
    /// Every element's local pairs, unsorted and sorted, and each
    /// element twice as a triple: as given, then sorted in reverse
    /// element order.
    fn check_elems(tris: &[[u32; 3]], n: usize) {
        let local = |t: &[u32; 3]| TRI.map(|ij| [t[ij[0]], t[ij[1]]]);
        let pairs: Vec<[u32; 2]> = tris.iter().flat_map(local).collect();
        check(&pairs, n);
        check(&pairs.iter().map(|&p| sorted(p)).collect::<Vec<_>>(), n);
        let triples: Vec<[u32; 3]> = (tris.iter().copied())
            .chain(tris.iter().rev().map(|&t| sorted(t)))
            .collect();
        check(&triples, n);
    }
    let mut rng = SmallRng::seed_from_u64(0x9E37_79B9);
    for n in [1, 2, 5, 11] {
        let mut node = || rng.range_usize(0, n) as u32;
        let pairs: Vec<[u32; 2]> = (0..400).map(|_| [node(), node()]).collect();
        check(&pairs, n);
        let triples: Vec<[u32; 3]> = (0..400).map(|_| [node(), node(), node()]).collect();
        check(&triples, n);
    }
    let m = gen2d::perturbed_grid(9, 7, 0.3, 11);
    check_elems(&relabel(m.som(), m.nnodes(), &mut rng), m.nnodes());
    let k = 1u32 << 12;
    let fan: Vec<[u32; 3]> = (0..k).map(|i| [0, i + 1, i + 2]).collect();
    check_elems(&fan, k as usize + 2);

    // The mesh numbers its edges once: every read is the same table.
    let m = Mesh2d::new(vec![[0.0; 2]; k as usize + 2], fan);
    let first: *const Dedup<[u32; 2]> = m.edges();
    m.dual_graph();
    assert!(std::ptr::eq(first, m.edges()));
}

fn assert_disk(m: &Mesh2d) {
    // Conforming (`dual_graph` panics otherwise) + Euler for a disk.
    m.dual_graph();
    let ne = m.edges().keys.len();
    assert_eq!(m.nnodes() as i64 - ne as i64 + m.ntris() as i64, 1);
}

#[test]
fn generators_always_conforming() {
    let mut rng = SmallRng::seed_from_u64(0x6E);
    for _case in 0..48 {
        let nx = rng.range_usize(2, 12);
        let ny = rng.range_usize(2, 12);
        let seed = rng.next_u64() % 500;
        let m = gen2d::perturbed_grid(nx, ny, 0.3, seed);
        assert_disk(&m);
        // All positively oriented.
        for t in 0..m.ntris() {
            assert!(m.signed_area(t) > 0.0);
        }
    }
}

#[test]
fn refinement_preserves_area_and_conformity() {
    let mut rng = SmallRng::seed_from_u64(0x2EF1);
    for _case in 0..48 {
        let nx = rng.range_usize(2, 8);
        let seed = rng.next_u64() % 200;
        let mark_mod = rng.range_usize(1, 6);
        let m = gen2d::perturbed_grid(nx, nx, 0.2, seed);
        let marked: Vec<bool> = (0..m.ntris()).map(|t| t % mark_mod == 0).collect();
        let (f, parents) = refine2d::refine(&m, &marked);
        assert_disk(&f);
        // Area preserved globally and per parent.
        let a0: f64 = (0..m.ntris()).map(|t| m.signed_area(t)).sum();
        let a1: f64 = (0..f.ntris()).map(|t| f.signed_area(t)).sum();
        assert!((a0 - a1).abs() < 1e-9);
        let mut per_parent = vec![0.0f64; m.ntris()];
        for (t, &p) in parents.iter().enumerate() {
            per_parent[p as usize] += f.signed_area(t);
        }
        for (t, &a) in per_parent.iter().enumerate() {
            assert!((a - m.signed_area(t)).abs() < 1e-9);
        }
    }
}

#[test]
fn rcm_permutation_preserves_connectivity_counts() {
    /// Node, edge and triangle counts, the largest number of triangles
    /// on one node, and total area (bitwise: a node renumbering keeps
    /// every triangle's corner order and so its area).
    fn counts(m: &Mesh2d) -> (usize, usize, usize, Option<usize>, f64) {
        let mut tris_on = vec![0usize; m.nnodes()];
        for &s in m.som().iter().flatten() {
            tris_on[s as usize] += 1;
        }
        let ne = m.edges().keys.len();
        let area = (0..m.ntris()).map(|t| m.signed_area(t).abs()).sum();
        (m.nnodes(), ne, m.ntris(), tris_on.into_iter().max(), area)
    }
    let mut rng = SmallRng::seed_from_u64(0x2C);
    for _case in 0..48 {
        let nx = rng.range_usize(2, 9);
        let seed = rng.next_u64() % 200;
        let m = gen2d::perturbed_grid(nx, nx, 0.2, seed);
        let adj = reorder::node_adjacency(&m);
        let perm = reorder::rcm(&adj);
        let (p, _) = reorder::permute_nodes2d(&m, &perm);
        assert_eq!(counts(&m), counts(&p));
    }
}
