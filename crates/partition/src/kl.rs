//! Boundary Kernighan–Lin / Fiduccia–Mattheyses refinement.
//!
//! Greedy pass-based refinement of an existing partition: repeatedly
//! move the boundary element with the best *gain* (reduction in cut
//! edges) to a neighbouring part, subject to a balance constraint.
//! Each pass visits each element at most once; passes repeat while the
//! cut improves. This is the standard post-processing after geometric
//! or greedy partitioners.

use syncplace_mesh::Csr;

/// Maximum number of improvement passes of [`refine`].
const MAX_PASSES: usize = 8;
/// Maximum allowed part size as a multiple of the average (5%
/// imbalance tolerance).
const BALANCE_TOLERANCE: f64 = 1.05;

/// Refine `part` in place. Returns the number of elements moved.
pub fn refine(dual: &Csr, part: &mut [u32], nparts: usize) -> usize {
    let n = dual.nrows();
    assert_eq!(part.len(), n);
    if nparts <= 1 || n == 0 {
        return 0;
    }
    let mut sizes = vec![0usize; nparts];
    for &p in part.iter() {
        sizes[p as usize] += 1;
    }
    let max_size = ((n as f64 / nparts as f64) * BALANCE_TOLERANCE).ceil() as usize;
    let min_size = 1usize;

    let mut total_moves = 0usize;
    let mut moved = vec![false; n];
    for _pass in 0..MAX_PASSES {
        moved.fill(false);
        let mut pass_moves = 0usize;
        // Visit boundary elements in index order (deterministic).
        for e in 0..n {
            if moved[e] {
                continue;
            }
            let home = part[e] as usize;
            if sizes[home] <= min_size {
                continue;
            }
            // Tally neighbour parts.
            let mut best_part = home;
            let mut best_gain = 0i64;
            let row = dual.row(e);
            let internal = row
                .iter()
                .filter(|&&x| part[x as usize] == home as u32)
                .count() as i64;
            for &nb in row {
                let q = part[nb as usize] as usize;
                if q == home || sizes[q] + 1 > max_size {
                    continue;
                }
                let external_q = row
                    .iter()
                    .filter(|&&x| part[x as usize] == q as u32)
                    .count() as i64;
                let gain = external_q - internal;
                if gain > best_gain {
                    best_gain = gain;
                    best_part = q;
                }
            }
            if best_part != home && best_gain > 0 {
                part[e] = best_part as u32;
                sizes[home] -= 1;
                sizes[best_part] += 1;
                moved[e] = true;
                pass_moves += 1;
            }
        }
        total_moves += pass_moves;
        if pass_moves == 0 {
            break;
        }
    }
    total_moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::edge_cut;
    use syncplace_mesh::gen2d;

    #[test]
    fn refinement_never_worsens_cut() {
        let mesh = gen2d::perturbed_grid(12, 12, 0.2, 9);
        let dual = mesh.dual_graph();
        // Deliberately bad partition: strided assignment.
        let mut part: Vec<u32> = (0..dual.nrows() as u32).map(|e| e % 4).collect();
        let before = edge_cut(&dual, &part);
        refine(&dual, &mut part, 4);
        let after = edge_cut(&dual, &part);
        assert!(after <= before, "cut went {before} -> {after}");
        // A strided partition is terrible; KL should cut it at least in half.
        assert!(after * 2 < before, "cut went {before} -> {after}");
    }

    #[test]
    fn refinement_respects_balance() {
        let mesh = gen2d::grid(10, 10);
        let dual = mesh.dual_graph();
        let mut part: Vec<u32> = (0..dual.nrows() as u32).map(|e| e % 2).collect();
        refine(&dual, &mut part, 2);
        let mut sizes = [0usize; 2];
        for &p in &part {
            sizes[p as usize] += 1;
        }
        let max = (dual.nrows() as f64 / 2.0 * BALANCE_TOLERANCE).ceil() as usize;
        assert!(sizes[0] <= max && sizes[1] <= max, "{sizes:?}");
        assert!(sizes[0] >= 1 && sizes[1] >= 1);
    }

    #[test]
    fn already_optimal_is_stable() {
        // Two 2-cliques split perfectly: no move improves.
        let dual = Csr::from_rows(vec![vec![1u32], vec![0], vec![3], vec![2]]);
        let mut part = vec![0, 0, 1, 1];
        let moves = refine(&dual, &mut part, 2);
        assert_eq!(moves, 0);
        assert_eq!(part, vec![0, 0, 1, 1]);
    }

    #[test]
    fn single_part_noop() {
        let dual = Csr::from_rows(vec![vec![1u32], vec![0]]);
        let mut part = vec![0, 0];
        assert_eq!(refine(&dual, &mut part, 1), 0);
    }
}
