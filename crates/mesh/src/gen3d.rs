//! Synthetic 3-D tetrahedral mesh generators.

use crate::mesh3d::Mesh3d;

/// Tetrahedralized structured box: `(nx+1)(ny+1)(nz+1)` nodes,
/// `6·nx·ny·nz` tets (each cube split into six tets around the main
/// diagonal — a conforming Kuhn/Freudenthal triangulation).
pub fn box_mesh(nx: usize, ny: usize, nz: usize) -> Mesh3d {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    let mut coords = Vec::with_capacity((nx + 1) * (ny + 1) * (nz + 1));
    for k in 0..=nz {
        for j in 0..=ny {
            for i in 0..=nx {
                coords.push([
                    i as f64 / nx as f64,
                    j as f64 / ny as f64,
                    k as f64 / nz as f64,
                ]);
            }
        }
    }
    let id = |i: usize, j: usize, k: usize| (k * (ny + 1) * (nx + 1) + j * (nx + 1) + i) as u32;
    let mut tets = Vec::with_capacity(6 * nx * ny * nz);
    // The six tets of the Kuhn subdivision of the unit cube, as index
    // paths from corner 0 to corner 7 of the cell.
    const PATHS: [[usize; 4]; 6] = [
        [0, 1, 3, 7],
        [0, 1, 5, 7],
        [0, 2, 3, 7],
        [0, 2, 6, 7],
        [0, 4, 5, 7],
        [0, 4, 6, 7],
    ];
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let corner = |c: usize| id(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1));
                for path in PATHS {
                    tets.push([
                        corner(path[0]),
                        corner(path[1]),
                        corner(path[2]),
                        corner(path[3]),
                    ]);
                }
            }
        }
    }
    Mesh3d::new(coords, tets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_counts() {
        let m = box_mesh(2, 3, 1);
        assert_eq!(m.nnodes(), 3 * 4 * 2);
        assert_eq!(m.ntets(), (6 * 2 * 3));
    }

    #[test]
    fn box_volume_sums_to_one() {
        let m = box_mesh(3, 2, 2);
        let vol: f64 = (0..m.ntets()).map(|t| m.signed_volume(t).abs()).sum();
        assert!((vol - 1.0).abs() < 1e-12, "vol = {vol}");
    }

    #[test]
    fn box_no_degenerate_tets() {
        let m = box_mesh(2, 2, 2);
        for t in 0..m.ntets() {
            assert!(m.signed_volume(t).abs() > 1e-12, "tet {t} degenerate");
        }
    }

    #[test]
    fn box_is_conforming_ball() {
        // Euler characteristic of a 3-ball triangulation is 1.
        // `dual_graph` panics unless every face has at most two tets.
        let m = box_mesh(2, 2, 2);
        m.dual_graph();
        let ne = m.edges().keys.len();
        let nf = m.faces().keys.len();
        let euler = m.nnodes() as i64 - ne as i64 + nf as i64 - m.ntets() as i64;
        assert_eq!(euler, 1);
    }

    #[test]
    fn interior_faces_shared_by_two() {
        let m = box_mesh(2, 1, 1);
        let faces = m.faces();
        let mut tets_on = vec![0usize; faces.keys.len()];
        for &f in &faces.ids {
            tets_on[f as usize] += 1;
        }
        assert!(tets_on.iter().all(|&n| n == 1 || n == 2));
        // Interior faces are exactly the dual graph's edges.
        let interior = tets_on.iter().filter(|&&n| n == 2).count();
        assert_eq!(m.dual_graph().nnz(), 2 * interior);
    }
}
