//! Mesh refinement (paper §5.3).
//!
//! "After a solution is computed, it is useful to refine the mesh,
//! adding more elements where the physical solution varies rapidly
//! (e.g. shocks), and resume execution. This will greatly affect the
//! load-balance among sub-meshes."
//!
//! [`refine`] performs conforming red/green refinement: marked
//! triangles are split into four (red); triangles with exactly one
//! split edge are bisected (green); propagation continues until the
//! mesh conforms. Marking every triangle is the uniform case. The
//! §5.3 experiment uses this to show (a) the placement is
//! mesh-independent and survives adaptation unchanged, and (b) the
//! load imbalance adaptation causes — and repartitioning cures.

use crate::mesh2d::Mesh2d;

/// Red/green refine the marked triangles; returns the refined mesh and
/// the parent triangle of every new triangle (for transferring
/// element-based data).
pub fn refine(mesh: &Mesh2d, marked: &[bool]) -> (Mesh2d, Vec<u32>) {
    assert_eq!(marked.len(), mesh.ntris());
    let (edges, edge_ids) = (&mesh.edges().keys, &mesh.edges().ids);
    let ne = edges.len();
    // Local edge `k` of triangle `t` joins (s1,s2) / (s1,s3) / (s2,s3).
    let tri_edges = |t: usize| -> [u32; 3] { std::array::from_fn(|k| edge_ids[3 * t + k]) };

    // 1. Decide split edges: all edges of marked (red) triangles, then
    // propagate: a triangle with 2+ split edges becomes red too.
    let mut red = marked.to_vec();
    let mut split = vec![false; ne];
    loop {
        let mut changed = false;
        for (t, &is_red) in red.iter().enumerate() {
            if is_red {
                for e in tri_edges(t) {
                    if !split[e as usize] {
                        split[e as usize] = true;
                        changed = true;
                    }
                }
            }
        }
        for (t, r) in red.iter_mut().enumerate() {
            if !*r {
                let n = tri_edges(t).iter().filter(|&&e| split[e as usize]).count();
                if n >= 2 {
                    *r = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // 2. Midpoint nodes for split edges.
    let mut coords = mesh.coords.clone();
    let mut midpoint = vec![u32::MAX; ne];
    for (e, &[a, b]) in edges.iter().enumerate() {
        if split[e] {
            let (pa, pb) = (mesh.coords[a as usize], mesh.coords[b as usize]);
            midpoint[e] = coords.len() as u32;
            coords.push([(pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0]);
        }
    }

    // 3. Emit children.
    let mut som: Vec<[u32; 3]> = Vec::with_capacity(mesh.ntris() * 2);
    let mut parent: Vec<u32> = Vec::with_capacity(mesh.ntris() * 2);
    for (t, &[s1, s2, s3]) in mesh.som().iter().enumerate() {
        let [e12, e13, e23] = tri_edges(t);
        let m12 = midpoint[e12 as usize];
        let m13 = midpoint[e13 as usize];
        let m23 = midpoint[e23 as usize];
        let mut emit = |tri: [u32; 3]| {
            som.push(tri);
            parent.push(t as u32);
        };
        if red[t] {
            // Red: four similar children.
            emit([s1, m12, m13]);
            emit([m12, s2, m23]);
            emit([m13, m23, s3]);
            emit([m12, m23, m13]);
        } else {
            let nsplit = [m12, m13, m23].iter().filter(|&&m| m != u32::MAX).count();
            match nsplit {
                0 => emit([s1, s2, s3]),
                1 => {
                    // Green: bisect through the one midpoint.
                    if m12 != u32::MAX {
                        emit([s1, m12, s3]);
                        emit([m12, s2, s3]);
                    } else if m13 != u32::MAX {
                        emit([s1, s2, m13]);
                        emit([m13, s2, s3]);
                    } else {
                        emit([s1, s2, m23]);
                        emit([s1, m23, s3]);
                    }
                }
                _ => unreachable!("2+ split edges forces red"),
            }
        }
    }
    (Mesh2d::new(coords, som), parent)
}

/// Transfer a node field from the coarse mesh to the refined one:
/// original nodes keep their values, midpoints average their edge's
/// endpoints (linear interpolation).
pub fn prolong_node_field(coarse: &Mesh2d, fine: &Mesh2d, field: &[f64]) -> Vec<f64> {
    assert_eq!(field.len(), coarse.nnodes());
    let edges = &coarse.edges().keys;
    let mut out = Vec::with_capacity(fine.nnodes());
    out.extend_from_slice(field);
    // Fine nodes beyond the coarse count are edge midpoints, created in
    // edge order by `refine`.
    let mut next = coarse.nnodes();
    for &[a, b] in edges {
        if next >= fine.nnodes() {
            break;
        }
        // Only split edges produced midpoints; detect by coordinates.
        let mid = [
            (coarse.coords[a as usize][0] + coarse.coords[b as usize][0]) / 2.0,
            (coarse.coords[a as usize][1] + coarse.coords[b as usize][1]) / 2.0,
        ];
        if fine.coords[next] == mid {
            out.push((field[a as usize] + field[b as usize]) / 2.0);
            next += 1;
        }
    }
    assert_eq!(out.len(), fine.nnodes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen2d;

    /// Uniform (red-everywhere) refinement.
    fn refine_all(mesh: &Mesh2d) -> (Mesh2d, Vec<u32>) {
        refine(mesh, &vec![true; mesh.ntris()])
    }

    #[test]
    fn uniform_refinement_quadruples() {
        let m = gen2d::grid(4, 4);
        let (f, parent) = refine_all(&m);
        assert_eq!(f.ntris(), 4 * m.ntris());
        assert_eq!(parent.len(), f.ntris());
        // Area preserved, and every child is a quarter of its parent
        // (red refinement of right triangles makes similar children).
        let area = |m: &Mesh2d| (0..m.ntris()).map(|t| m.signed_area(t)).sum::<f64>();
        assert!((area(&m) - area(&f)).abs() < 1e-12);
        for (t, &p) in parent.iter().enumerate() {
            assert!((4.0 * f.signed_area(t) - m.signed_area(p as usize)).abs() < 1e-12);
        }
    }

    #[test]
    fn refined_mesh_is_conforming() {
        let m = gen2d::perturbed_grid(6, 6, 0.2, 3);
        let marked: Vec<bool> = (0..m.ntris()).map(|t| t % 5 == 0).collect();
        let (f, _) = refine(&m, &marked);
        // dual_graph() panics on non-conforming input.
        f.dual_graph();
        // Euler for a disk: V - E + F = 1.
        let ne = f.edges().keys.len();
        let euler = f.nnodes() as i64 - ne as i64 + f.ntris() as i64;
        assert_eq!(euler, 1);
        // Orientation preserved.
        for t in 0..f.ntris() {
            assert!(f.signed_area(t) > 0.0, "child {t} inverted");
        }
    }

    #[test]
    fn local_refinement_grows_locally() {
        let m = gen2d::grid(8, 8);
        // Mark only the lower-left quadrant.
        let marked: Vec<bool> = (0..m.ntris())
            .map(|t| {
                let c = m.centroid(t);
                c[0] < 0.5 && c[1] < 0.5
            })
            .collect();
        let nmarked = marked.iter().filter(|&&b| b).count();
        let (f, parent) = refine(&m, &marked);
        assert!(f.ntris() > m.ntris() + 2 * nmarked);
        assert!(f.ntris() < 4 * m.ntris());
        // Parents of children cover all original triangles.
        let mut covered = vec![false; m.ntris()];
        for &p in &parent {
            covered[p as usize] = true;
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn prolongation_is_linear_exact() {
        // A linear field is reproduced exactly by midpoint averaging.
        let m = gen2d::perturbed_grid(5, 5, 0.2, 8);
        let field: Vec<f64> = m.coords.iter().map(|c| 3.0 * c[0] - 2.0 * c[1]).collect();
        let (f, _) = refine_all(&m);
        let fine = prolong_node_field(&m, &f, &field);
        for (n, c) in f.coords.iter().enumerate() {
            let want = 3.0 * c[0] - 2.0 * c[1];
            assert!((fine[n] - want).abs() < 1e-12, "node {n}");
        }
    }

    #[test]
    fn repeated_refinement() {
        let mut m = gen2d::grid(2, 2);
        for _ in 0..3 {
            let (f, _) = refine_all(&m);
            m = f;
        }
        assert_eq!(m.ntris(), 8 * 64);
        m.dual_graph(); // conforming
    }
}
