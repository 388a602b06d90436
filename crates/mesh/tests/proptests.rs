//! Property-style tests for the mesh substrate, driven by
//! deterministic seeded sweeps (`syncplace_mesh::rng`) instead of an
//! external property-testing crate so they run fully offline.

use syncplace_mesh::rng::SmallRng;
use syncplace_mesh::{edges_first_seen, gen2d, gen3d, refine2d, reorder, Csr, Mesh2d};

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

#[test]
fn dual_graph_matches_brute_force_reference() {
    // Triangle facets in the edge numbering's pair order; tet face `k`
    // is opposite vertex `k`.
    let tri: [&[usize]; 3] = [&[0, 1], &[0, 2], &[1, 2]];
    let tet: [&[usize]; 4] = [&[1, 2, 3], &[0, 2, 3], &[0, 1, 3], &[0, 1, 2]];
    let mut rng = SmallRng::seed_from_u64(0xD0A1);
    for _case in 0..12 {
        let (nx, ny) = (rng.range_usize(2, 9), rng.range_usize(2, 9));
        let m = gen2d::perturbed_grid(nx, ny, 0.3, rng.next_u64() % 500);
        assert_eq!(rows(&m.dual_graph()), reference_dual(&m.som, &tri));
        let mark_mod = rng.range_usize(1, 5);
        let marked: Vec<bool> = (0..m.ntris()).map(|t| t % mark_mod == 0).collect();
        let f = refine2d::refine(&m, &marked).0;
        assert_eq!(rows(&f.dual_graph()), reference_dual(&f.som, &tri));
    }
    for (nx, ny, nz) in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 3, 2), (3, 2, 2)] {
        let m = gen3d::box_mesh(nx, ny, nz);
        assert_eq!(rows(&m.dual_graph()), reference_dual(&m.tets, &tet));
    }
}

fn assert_disk(m: &Mesh2d) {
    // Conforming (`dual_graph` panics otherwise) + Euler for a disk.
    m.dual_graph();
    let ne = edges_first_seen(&m.som).0.len();
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
        for &s in m.som.iter().flatten() {
            tris_on[s as usize] += 1;
        }
        let ne = edges_first_seen(&m.som).0.len();
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
