//! Synthetic 2-D mesh generators.
//!
//! These stand in for the real CFD meshes of the paper's reference
//! application (Farhat & Lanteri's compressible Navier-Stokes solver):
//! what the experiments need is unstructured triangulations with
//! realistic interface-to-area ratios at controllable sizes.

use crate::mesh2d::Mesh2d;
use crate::rng::SmallRng;

/// Triangulated structured grid: `(nx+1) × (ny+1)` nodes, `2·nx·ny`
/// triangles, each cell split along alternating diagonals (union-jack
/// style) so node degrees stay balanced.
pub fn grid(nx: usize, ny: usize) -> Mesh2d {
    assert!(nx >= 1 && ny >= 1);
    let mut coords = Vec::with_capacity((nx + 1) * (ny + 1));
    for j in 0..=ny {
        for i in 0..=nx {
            coords.push([i as f64 / nx as f64, j as f64 / ny as f64]);
        }
    }
    let id = |i: usize, j: usize| (j * (nx + 1) + i) as u32;
    let mut som = Vec::with_capacity(2 * nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            let (a, b, c, d) = (id(i, j), id(i + 1, j), id(i + 1, j + 1), id(i, j + 1));
            if (i + j) % 2 == 0 {
                som.push([a, b, c]);
                som.push([a, c, d]);
            } else {
                som.push([a, b, d]);
                som.push([b, c, d]);
            }
        }
    }
    Mesh2d::new(coords, som)
}

/// Like [`grid`] but with interior nodes jittered by up to
/// `amplitude × cell-size`, producing a genuinely unstructured-looking
/// triangulation while preserving topology and orientation
/// (amplitude must stay below 0.5 to avoid inverted triangles).
pub fn perturbed_grid(nx: usize, ny: usize, amplitude: f64, seed: u64) -> Mesh2d {
    assert!(
        (0.0..0.5).contains(&amplitude),
        "amplitude {amplitude} would invert triangles"
    );
    let mut mesh = grid(nx, ny);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (hx, hy) = (1.0 / nx as f64, 1.0 / ny as f64);
    for j in 1..ny {
        for i in 1..nx {
            let n = j * (nx + 1) + i;
            mesh.coords[n][0] += rng.range_f64(-amplitude, amplitude) * hx;
            mesh.coords[n][1] += rng.range_f64(-amplitude, amplitude) * hy;
        }
    }
    mesh
}

/// Annulus mesh: `nr` radial layers between radii `r0 < r1`, `ns`
/// sectors around. A simple proxy for the O-meshes around airfoils
/// used in CFD. `2·nr·ns` triangles.
pub fn annulus(nr: usize, ns: usize, r0: f64, r1: f64) -> Mesh2d {
    assert!(nr >= 1 && ns >= 3 && r0 > 0.0 && r1 > r0);
    let mut coords = Vec::with_capacity((nr + 1) * ns);
    for l in 0..=nr {
        let r = r0 + (r1 - r0) * l as f64 / nr as f64;
        for s in 0..ns {
            let th = 2.0 * std::f64::consts::PI * s as f64 / ns as f64;
            coords.push([r * th.cos(), r * th.sin()]);
        }
    }
    let id = |l: usize, s: usize| (l * ns + s % ns) as u32;
    let mut som = Vec::with_capacity(2 * nr * ns);
    for l in 0..nr {
        for s in 0..ns {
            let (a, b, c, d) = (id(l, s), id(l, s + 1), id(l + 1, s + 1), id(l + 1, s));
            som.push([a, b, c]);
            som.push([a, c, d]);
        }
    }
    Mesh2d::new(coords, som)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_counts() {
        let m = grid(4, 3);
        assert_eq!(m.nnodes(), 5 * 4);
        assert_eq!(m.ntris(), 2 * 4 * 3);
        let area: f64 = (0..m.ntris()).map(|t| m.signed_area(t)).sum();
        assert!((area - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grid_euler_formula() {
        // V - E + F = 1 for a planar triangulated disk (F = triangles);
        // `dual_graph` panics unless every edge has at most two.
        let m = grid(7, 5);
        m.dual_graph();
        let ne = m.edges().keys.len();
        let (v, e, f) = (m.nnodes() as i64, ne as i64, m.ntris() as i64);
        assert_eq!(v - e + f, 1);
    }

    #[test]
    fn grid_triangles_ccw() {
        let m = grid(5, 5);
        for t in 0..m.ntris() {
            assert!(m.signed_area(t) > 0.0, "triangle {t} not CCW");
        }
    }

    #[test]
    fn perturbed_grid_stays_valid() {
        let m = perturbed_grid(10, 10, 0.3, 42);
        for t in 0..m.ntris() {
            assert!(m.signed_area(t) > 0.0, "triangle {t} inverted");
        }
        let area: f64 = (0..m.ntris()).map(|t| m.signed_area(t)).sum();
        assert!((area - 1.0).abs() < 1e-9);
        // Boundary nodes unmoved.
        assert_eq!(m.coords[0], [0.0, 0.0]);
        assert_eq!(m.coords[10], [1.0, 0.0]);
    }

    #[test]
    fn perturbed_grid_deterministic() {
        let a = perturbed_grid(6, 6, 0.2, 7);
        let b = perturbed_grid(6, 6, 0.2, 7);
        assert_eq!(a.coords, b.coords);
    }

    #[test]
    fn annulus_is_closed_ring() {
        // V - E + F = 0 for an annulus (Euler characteristic 0).
        let m = annulus(3, 16, 1.0, 2.0);
        m.dual_graph();
        let ne = m.edges().keys.len();
        let (v, e, f) = (m.nnodes() as i64, ne as i64, m.ntris() as i64);
        assert_eq!(v - e + f, 0);
        assert_eq!(m.ntris(), 2 * 3 * 16);
    }

    #[test]
    fn annulus_triangles_nondegenerate() {
        let m = annulus(2, 12, 0.5, 1.0);
        for t in 0..m.ntris() {
            assert!(m.signed_area(t).abs() > 1e-9);
        }
    }
}
