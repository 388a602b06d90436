//! Farhat's greedy graph-growing partitioner.
//!
//! The classic algorithm from C. Farhat, "A simple and efficient
//! automatic FEM domain decomposer" (1988) — the decomposer family
//! used by the paper's reference application \[2\]. Parts are grown one
//! at a time from a frontier seed by repeatedly absorbing the frontier
//! element with the fewest unassigned neighbours (keeping the growing
//! part compact), until the part reaches its quota.

use syncplace_mesh::Csr;

/// Partition the elements of `dual` into `nparts` balanced parts by
/// greedy graph growing. Disconnected graphs are handled by reseeding.
pub fn greedy(dual: &Csr, nparts: usize) -> Vec<u32> {
    let n = dual.nrows();
    const UNASSIGNED: u32 = u32::MAX;
    let mut part = vec![UNASSIGNED; n];
    if nparts <= 1 {
        part.fill(0);
        return part;
    }
    let mut assigned = 0usize;
    let mut seed_scan = 0usize; // rising scan pointer for seeds

    for p in 0..nparts as u32 {
        // Quota: distribute the remainder over the first parts.
        let remaining_parts = nparts - p as usize;
        let quota = (n - assigned).div_ceil(remaining_parts);
        if quota == 0 {
            continue;
        }
        // Seed: an unassigned element adjacent to already-assigned ones
        // (to keep the next part adjacent to previous parts), or the
        // lowest unassigned element for the first part / new components.
        let mut frontier: Vec<u32> = Vec::new();
        let seed = find_seed(dual, &part, &mut seed_scan);
        frontier.push(seed);
        let mut grown = 0usize;
        while grown < quota {
            // Pick the frontier element with the fewest unassigned
            // neighbours (Farhat's "minimum exposure" rule).
            let pick = match frontier
                .iter()
                .enumerate()
                .filter(|&(_, &e)| part[e as usize] == UNASSIGNED)
                .min_by_key(|&(_, &e)| {
                    dual.row(e as usize)
                        .iter()
                        .filter(|&&x| part[x as usize] == UNASSIGNED)
                        .count()
                }) {
                Some((idx, _)) => idx,
                None => {
                    // Frontier exhausted (disconnected component):
                    // reseed from the global scan.
                    frontier.clear();
                    frontier.push(find_seed(dual, &part, &mut seed_scan));
                    continue;
                }
            };
            let e = frontier.swap_remove(pick);
            if part[e as usize] != UNASSIGNED {
                continue;
            }
            part[e as usize] = p;
            grown += 1;
            assigned += 1;
            for &nb in dual.row(e as usize) {
                if part[nb as usize] == UNASSIGNED {
                    frontier.push(nb);
                }
            }
        }
    }
    // Any stragglers (possible when quotas round awkwardly on
    // disconnected graphs) go to the last part.
    for x in &mut part {
        if *x == UNASSIGNED {
            *x = nparts as u32 - 1;
        }
    }
    part
}

fn find_seed(dual: &Csr, part: &[u32], seed_scan: &mut usize) -> u32 {
    const UNASSIGNED: u32 = u32::MAX;
    // Prefer an unassigned element adjacent to an assigned one.
    for e in 0..dual.nrows() {
        if part[e] == UNASSIGNED && dual.row(e).iter().any(|&x| part[x as usize] != UNASSIGNED) {
            return e as u32;
        }
    }
    // Otherwise first unassigned from the scan pointer.
    while *seed_scan < part.len() && part[*seed_scan] != UNASSIGNED {
        *seed_scan += 1;
    }
    *seed_scan as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_mesh::gen2d;

    fn dual_of_grid(nx: usize, ny: usize) -> Csr {
        gen2d::grid(nx, ny).dual_graph()
    }

    #[test]
    fn balance_exact_on_divisible() {
        let dual = dual_of_grid(8, 8); // 128 triangles
        let part = greedy(&dual, 4);
        let mut counts = [0usize; 4];
        for &p in &part {
            counts[p as usize] += 1;
        }
        assert_eq!(counts, [32, 32, 32, 32]);
    }

    #[test]
    fn balance_within_one_on_non_divisible() {
        let dual = dual_of_grid(5, 5); // 50 triangles
        let part = greedy(&dual, 4);
        let mut counts = [0usize; 4];
        for &p in &part {
            counts[p as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 12 || c == 13), "{counts:?}");
    }

    #[test]
    fn parts_are_connected_on_grid() {
        // Each part should form a connected subgraph of the dual.
        let dual = dual_of_grid(10, 10);
        let part = greedy(&dual, 5);
        for p in 0..5u32 {
            let members: Vec<u32> = (0..dual.nrows() as u32)
                .filter(|&e| part[e as usize] == p)
                .collect();
            assert!(!members.is_empty());
            // BFS within the part.
            let mut seen = vec![false; dual.nrows()];
            let mut stack = vec![members[0]];
            seen[members[0] as usize] = true;
            let mut count = 0;
            while let Some(e) = stack.pop() {
                count += 1;
                for &nb in dual.row(e as usize) {
                    if part[nb as usize] == p && !seen[nb as usize] {
                        seen[nb as usize] = true;
                        stack.push(nb);
                    }
                }
            }
            assert_eq!(count, members.len(), "part {p} disconnected");
        }
    }

    #[test]
    fn disconnected_graph_is_covered() {
        // Two disjoint 2-cliques.
        let dual = Csr::from_rows(vec![vec![1u32], vec![0], vec![3], vec![2]]);
        let part = greedy(&dual, 2);
        let mut counts = [0usize; 2];
        for &p in &part {
            counts[p as usize] += 1;
        }
        assert_eq!(counts, [2, 2]);
    }

    #[test]
    fn single_part() {
        let dual = dual_of_grid(3, 3);
        assert!(greedy(&dual, 1).iter().all(|&p| p == 0));
    }
}
