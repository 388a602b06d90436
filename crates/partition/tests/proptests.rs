//! Property-style tests for the partitioners, driven by deterministic
//! seeded sweeps so they run fully offline.

use syncplace_mesh::gen2d;
use syncplace_mesh::rng::SmallRng;
use syncplace_partition::{metrics, partition2d, Method};

const METHODS: [Method; 5] = [
    Method::Rcb,
    Method::Rib,
    Method::Greedy,
    Method::GreedyKl,
    Method::RcbKl,
];

#[test]
fn partition_is_total_and_in_range() {
    let mut rng = SmallRng::seed_from_u64(0xA1);
    for _case in 0..48 {
        let nx = rng.range_usize(2, 12);
        let ny = rng.range_usize(2, 12);
        let seed = rng.next_u64() % 500;
        let nparts = rng.range_usize(1, 9);
        let method = *rng.pick(&METHODS);
        let mesh = gen2d::perturbed_grid(nx, ny, 0.25, seed);
        let p = partition2d(&mesh, nparts, method);
        assert_eq!(p.part.len(), mesh.ntris());
        assert!(p.part.iter().all(|&x| (x as usize) < nparts));
        // Every part non-empty whenever there are enough elements.
        if mesh.ntris() >= nparts {
            assert!(p.all_parts_nonempty(), "{}", method.name());
        }
    }
}

#[test]
fn geometric_methods_are_balanced() {
    let mut rng = SmallRng::seed_from_u64(0xB2);
    for _case in 0..48 {
        let nx = rng.range_usize(4, 12);
        let nparts = rng.range_usize(2, 8);
        let seed = rng.next_u64() % 100;
        let mesh = gen2d::perturbed_grid(nx, nx, 0.2, seed);
        for method in [Method::Rcb, Method::Rib] {
            let p = partition2d(&mesh, nparts, method);
            let imb = metrics::imbalance(&p.part, nparts);
            assert!(imb < 1.2, "{}: imbalance {imb}", method.name());
        }
    }
}

#[test]
fn kl_never_worsens_cut() {
    let mut rng = SmallRng::seed_from_u64(0xC3);
    for _case in 0..48 {
        let nx = rng.range_usize(4, 10);
        let nparts = rng.range_usize(2, 6);
        let seed = rng.next_u64() % 100;
        let mesh = gen2d::perturbed_grid(nx, nx, 0.2, seed);
        let dual = mesh.dual_graph();
        let base = partition2d(&mesh, nparts, Method::Greedy);
        let before = metrics::edge_cut(&dual, &base.part);
        let refined = partition2d(&mesh, nparts, Method::GreedyKl);
        let after = metrics::edge_cut(&dual, &refined.part);
        assert!(after <= before, "cut {before} -> {after}");
    }
}

#[test]
fn interface_nodes_bounded_by_total() {
    let mut rng = SmallRng::seed_from_u64(0xD4);
    for _case in 0..48 {
        let nx = rng.range_usize(2, 10);
        let nparts = rng.range_usize(1, 6);
        let seed = rng.next_u64() % 100;
        let mesh = gen2d::perturbed_grid(nx, nx, 0.2, seed);
        let p = partition2d(&mesh, nparts, Method::Rcb);
        let iface = metrics::interface_nodes2d(&mesh, &p.part);
        assert!(iface <= mesh.nnodes());
        if nparts == 1 {
            assert_eq!(iface, 0);
        }
    }
}
