//! Property-style tests for the mesh substrate, driven by
//! deterministic seeded sweeps (`syncplace_mesh::rng`) instead of an
//! external property-testing crate so they run fully offline.

use syncplace_mesh::rng::SmallRng;
use syncplace_mesh::{gen2d, quality, refine2d, reorder};

#[test]
fn generators_always_conforming() {
    let mut rng = SmallRng::seed_from_u64(0x6E);
    for _case in 0..48 {
        let nx = rng.range_usize(2, 12);
        let ny = rng.range_usize(2, 12);
        let seed = rng.next_u64() % 500;
        let m = gen2d::perturbed_grid(nx, ny, 0.3, seed);
        let c = m.connectivity();
        // Euler characteristic of a disk.
        assert_eq!(
            m.nnodes() as i64 - c.edges.len() as i64 + m.ntris() as i64,
            1
        );
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
        // Conforming (connectivity panics otherwise) + Euler.
        let c = f.connectivity();
        assert_eq!(
            f.nnodes() as i64 - c.edges.len() as i64 + f.ntris() as i64,
            1
        );
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
    let mut rng = SmallRng::seed_from_u64(0x2C);
    for _case in 0..48 {
        let nx = rng.range_usize(2, 9);
        let seed = rng.next_u64() % 200;
        let m = gen2d::perturbed_grid(nx, nx, 0.2, seed);
        let adj = reorder::node_adjacency(&m);
        let perm = reorder::rcm(&adj);
        let (p, _) = reorder::permute_nodes2d(&m, &perm);
        let (s0, s1) = (quality::stats2d(&m), quality::stats2d(&p));
        assert_eq!(s0.nnodes, s1.nnodes);
        assert_eq!(s0.nedges, s1.nedges);
        assert_eq!(s0.nelems, s1.nelems);
        assert!((s0.total_area - s1.total_area).abs() < 1e-9);
        assert_eq!(s0.max_node_degree, s1.max_node_degree);
    }
}
