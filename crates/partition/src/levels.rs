//! Recursive level-structure (BFS) bisection — the other classic
//! graph-based splitter of the era (Gibbs–Poole–Stockmeyer style):
//! build a breadth-first level structure from a pseudo-peripheral
//! element and cut it at the median level, recursively.

use syncplace_mesh::Csr;

/// Partition the elements of `dual` into `nparts` by recursive BFS
/// level bisection.
pub fn levels(dual: &Csr, nparts: usize) -> Vec<u32> {
    let n = dual.nrows();
    let mut part = vec![0u32; n];
    if nparts <= 1 || n == 0 {
        return part;
    }
    let mut ids: Vec<u32> = (0..n as u32).collect();
    split(dual, &mut ids, 0, nparts as u32, &mut part);
    part
}

fn split(dual: &Csr, ids: &mut [u32], base: u32, k: u32, part: &mut [u32]) {
    if k <= 1 || ids.len() <= 1 {
        for &i in ids.iter() {
            part[i as usize] = base;
        }
        return;
    }
    // BFS distances from a pseudo-peripheral vertex of the subgraph.
    let dist = bfs_levels(dual, ids);
    // Order by (distance, id) and cut proportionally — connected front
    // halves with small cuts on mesh-like graphs.
    ids.sort_unstable_by_key(|&i| (dist[i as usize], i));
    let k_left = k.div_ceil(2);
    let cut = (ids.len() * k_left as usize / k as usize).clamp(1, ids.len() - 1);
    let (left, right) = ids.split_at_mut(cut);
    split(dual, left, base, k_left, part);
    split(dual, right, base + k_left, k - k_left, part);
}

/// BFS distances within the vertex subset, from a pseudo-peripheral
/// start (two BFS sweeps: start anywhere, restart from the farthest).
fn bfs_levels(dual: &Csr, ids: &[u32]) -> Vec<u32> {
    let n = dual.nrows();
    let mut member = vec![false; n];
    for &i in ids {
        member[i as usize] = true;
    }
    let far = bfs(dual, &member, ids[0], n).1;
    let (dist, _) = bfs(dual, &member, far, n);
    dist
}

fn bfs(dual: &Csr, member: &[bool], start: u32, n: usize) -> (Vec<u32>, u32) {
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[start as usize] = 0;
    queue.push_back(start);
    let mut last = start;
    while let Some(v) = queue.pop_front() {
        last = v;
        for &w in dual.row(v as usize) {
            if member[w as usize] && dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    // Unreached members of a disconnected subgraph: give them a large
    // distance so they sort to the far side together.
    for (v, d) in dist.iter_mut().enumerate() {
        if member[v] && *d == u32::MAX {
            *d = u32::MAX - 1;
        }
    }
    (dist, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance};
    use syncplace_mesh::gen2d;

    #[test]
    fn covers_and_balances() {
        let dual = gen2d::grid(10, 10).dual_graph();
        for nparts in [2usize, 4, 7] {
            let part = levels(&dual, nparts);
            assert!(part.iter().all(|&p| (p as usize) < nparts));
            let imb = imbalance(&part, nparts);
            assert!(imb < 1.15, "nparts={nparts}: {imb}");
        }
    }

    #[test]
    fn cut_is_reasonable_on_grid() {
        // A 2-way level cut of an n x n grid should be O(n), far below
        // a random assignment's O(n^2).
        let mesh = gen2d::grid(16, 16);
        let dual = mesh.dual_graph();
        let part = levels(&dual, 2);
        let cut = edge_cut(&dual, &part);
        assert!(cut < 4 * 16, "cut {cut}");
    }

    #[test]
    fn disconnected_graph_handled() {
        use syncplace_mesh::Csr;
        let dual = Csr::from_rows(vec![vec![1u32], vec![0], vec![3], vec![2]]);
        let part = levels(&dual, 2);
        assert_eq!(part.len(), 4);
        assert!(part.contains(&0) && part.contains(&1));
    }

    #[test]
    fn single_part_identity() {
        let dual = gen2d::grid(3, 3).dual_graph();
        assert!(levels(&dual, 1).iter().all(|&p| p == 0));
    }
}
