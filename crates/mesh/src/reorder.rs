//! Entity renumbering — the global-mesh counterpart of PARTI's
//! "flocalize" step that the paper discusses in §5.1 ("This rearranges
//! split objects, to group 'ghost cells' … In our tool, this
//! 'flocalize' step would become an extra reordering in the mesh
//! splitter"). The sub-meshes already use the kernel-first local
//! numbering; this module provides the classic *global* reorderings
//! that improve locality before splitting.

use crate::csr::Csr;
use crate::mesh2d::Mesh2d;

/// Reverse Cuthill–McKee ordering of a symmetric adjacency graph.
/// Returns `perm` with `perm[new] = old`.
pub fn rcm(adj: &Csr) -> Vec<u32> {
    let n = adj.nrows();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    // Process every connected component, starting each from a minimal-
    // degree pseudo-peripheral vertex.
    while order.len() < n {
        let start = (0..n)
            .filter(|&v| !visited[v])
            .min_by_key(|&v| adj.degree(v))
            .expect("unvisited vertex exists");
        let start = pseudo_peripheral(adj, start as u32, &visited);
        // BFS with neighbours sorted by degree.
        let mut queue = std::collections::VecDeque::new();
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nb: Vec<u32> = adj
                .row(v as usize)
                .iter()
                .copied()
                .filter(|&w| !visited[w as usize])
                .collect();
            nb.sort_by_key(|&w| adj.degree(w as usize));
            for w in nb {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order.reverse();
    order
}

fn pseudo_peripheral(adj: &Csr, mut start: u32, visited: &[bool]) -> u32 {
    // Two BFS sweeps toward an eccentric vertex.
    for _ in 0..2 {
        let mut dist = vec![u32::MAX; adj.nrows()];
        let mut queue = std::collections::VecDeque::new();
        dist[start as usize] = 0;
        queue.push_back(start);
        let mut last = start;
        while let Some(v) = queue.pop_front() {
            last = v;
            for &w in adj.row(v as usize) {
                if !visited[w as usize] && dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        start = last;
    }
    start
}

/// Bandwidth of a symmetric adjacency: `max |i - j|` over edges.
pub fn bandwidth(adj: &Csr) -> usize {
    let mut b = 0usize;
    for (r, row) in adj.iter() {
        for &t in row {
            b = b.max(r.abs_diff(t as usize));
        }
    }
    b
}

/// Apply a node permutation (`perm[new] = old`) to a 2-D mesh:
/// coordinates move, triangle corners are renumbered, geometry is
/// untouched. Returns the permuted mesh and the inverse map
/// (`inv[old] = new`) for carrying fields along.
pub fn permute_nodes2d(mesh: &Mesh2d, perm: &[u32]) -> (Mesh2d, Vec<u32>) {
    assert_eq!(perm.len(), mesh.nnodes());
    let mut inv = vec![0u32; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old as usize] = new as u32;
    }
    let coords: Vec<[f64; 2]> = perm.iter().map(|&old| mesh.coords[old as usize]).collect();
    let som: Vec<[u32; 3]> = (mesh.som().iter())
        .map(|t| [inv[t[0] as usize], inv[t[1] as usize], inv[t[2] as usize]])
        .collect();
    (Mesh2d::new(coords, som), inv)
}

/// The node adjacency graph of a 2-D mesh (nodes joined by an edge).
pub fn node_adjacency(mesh: &Mesh2d) -> Csr {
    let edges = &mesh.edges().keys;
    let mut pairs = Vec::with_capacity(edges.len() * 2);
    for &[a, b] in edges {
        pairs.push((a, b));
        pairs.push((b, a));
    }
    Csr::from_pairs(mesh.nnodes(), &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen2d;

    #[test]
    fn rcm_is_a_permutation() {
        let mesh = gen2d::perturbed_grid(8, 8, 0.2, 4);
        let adj = node_adjacency(&mesh);
        let perm = rcm(&adj);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..mesh.nnodes() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_grid() {
        // Shuffle a grid's node numbering, then RCM it back down.
        let mesh = gen2d::grid(12, 12);
        // A deliberately bad (bit-reversal-ish) permutation.
        let n = mesh.nnodes();
        let mut bad: Vec<u32> = (0..n as u32).collect();
        bad.sort_by_key(|&i| (i as usize * 7919) % n);
        let (shuffled, _) = permute_nodes2d(&mesh, &bad);
        let before = bandwidth(&node_adjacency(&shuffled));
        let perm = rcm(&node_adjacency(&shuffled));
        let (restored, _) = permute_nodes2d(&shuffled, &perm);
        let after = bandwidth(&node_adjacency(&restored));
        assert!(
            after * 3 < before,
            "bandwidth {before} -> {after} (not reduced enough)"
        );
    }

    #[test]
    fn permutation_preserves_geometry() {
        let mesh = gen2d::perturbed_grid(6, 6, 0.2, 9);
        let adj = node_adjacency(&mesh);
        let perm = rcm(&adj);
        let (p, inv) = permute_nodes2d(&mesh, &perm);
        // Total area identical; per-node coordinates map through inv.
        let a0: f64 = (0..mesh.ntris()).map(|t| mesh.signed_area(t)).sum();
        let a1: f64 = (0..p.ntris()).map(|t| p.signed_area(t)).sum();
        assert!((a0 - a1).abs() < 1e-12);
        for (old, &new) in inv.iter().enumerate() {
            assert_eq!(p.coords[new as usize], mesh.coords[old]);
        }
    }

    #[test]
    fn disconnected_graph_covered() {
        let adj = Csr::from_rows(vec![vec![1u32], vec![0], vec![3], vec![2]]);
        let perm = rcm(&adj);
        let mut sorted = perm;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}
