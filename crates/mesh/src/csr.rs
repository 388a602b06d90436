//! Compressed-sparse-row adjacency and the mesh's two derivations.
//!
//! A [`Csr`] maps each row `r` in `0..n` to a slice of `u32` targets.
//! It is built either from an edge list ([`Csr::from_pairs`]) or from
//! per-row lists ([`Csr::from_rows`]), both in O(n + m) with a single
//! counting pass — no per-row `Vec` allocations in the final structure.
//!
//! Meshes store only element→vertex incidence; everything else is
//! derived by whoever reads it, from exactly two functions here: the
//! edge numbering ([`edges_first_seen`]) and the element dual graph
//! ([`dual_from_facets`]).

/// Compressed-sparse-row container: `offsets.len() == nrows + 1`,
/// row `r` owns `targets[offsets[r]..offsets[r+1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Build from `(row, target)` pairs. Pairs may arrive in any order;
    /// within a row, targets keep their arrival order.
    pub fn from_pairs(nrows: usize, pairs: &[(u32, u32)]) -> Self {
        let mut counts = vec![0u32; nrows + 1];
        for &(r, _) in pairs {
            counts[r as usize + 1] += 1;
        }
        for i in 1..=nrows {
            counts[i] += counts[i - 1];
        }
        let mut targets = vec![0u32; pairs.len()];
        let mut cursor = counts.clone();
        for &(r, t) in pairs {
            let c = &mut cursor[r as usize];
            targets[*c as usize] = t;
            *c += 1;
        }
        Csr {
            offsets: counts,
            targets,
        }
    }

    /// Build from an iterator of per-row lists.
    pub fn from_rows<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[u32]>,
    {
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        for row in rows {
            targets.extend_from_slice(row.as_ref());
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored targets.
    pub fn nnz(&self) -> usize {
        self.targets.len()
    }

    /// The targets of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.targets[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Degree (number of targets) of row `r`.
    #[inline]
    pub fn degree(&self, r: usize) -> usize {
        (self.offsets[r + 1] - self.offsets[r]) as usize
    }

    /// Iterate `(row, targets)` over all rows.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.nrows()).map(move |r| (r, self.row(r)))
    }
}

/// Result of [`dedup_first_seen`]: the unique keys in first-seen
/// order plus, for every input occurrence, the id of its key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dedup<K> {
    /// Unique keys, numbered in the order they first appear in the
    /// input (`keys[id]` is the key of unique id `id`).
    pub keys: Vec<K>,
    /// `ids[i]` is the unique id of input occurrence `i`
    /// (`ids.len() == input.len()`).
    pub ids: Vec<u32>,
}

/// Sort-based first-seen deduplication: number the distinct keys of
/// `occ` in the order they first appear, and map every occurrence to
/// its key's id — without per-entity hashing.
///
/// Sorts `(key, position)` pairs, identifies runs of equal keys, and
/// orders the runs by their first (minimal) position, which reproduces
/// first-seen numbering exactly. O(m log m) with two u32 scratch
/// arrays; this is the indexer under [`edges_first_seen`] and
/// `Mesh3d::faces`.
pub fn dedup_first_seen<K: Ord + Copy>(occ: &[K]) -> Dedup<K> {
    let m = occ.len();
    assert!(m < u32::MAX as usize, "occurrence count overflows u32");
    let mut sorted: Vec<(K, u32)> = occ.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
    // Unstable is fine: the position tie-breaks equal keys, so the
    // order is already total.
    sorted.sort_unstable();
    // Runs of equal keys; `first_pos[r]` is the first input position of
    // run `r` (minimal within the run, since positions are ascending
    // inside a run).
    let mut first_pos: Vec<u32> = Vec::new();
    let mut run_of_occ = vec![0u32; m];
    for (s, &(k, i)) in sorted.iter().enumerate() {
        if s == 0 || sorted[s - 1].0 != k {
            first_pos.push(i);
        }
        run_of_occ[i as usize] = (first_pos.len() - 1) as u32;
    }
    // Number runs by first appearance.
    let nu = first_pos.len();
    let mut by_seen: Vec<u32> = (0..nu as u32).collect();
    by_seen.sort_unstable_by_key(|&r| first_pos[r as usize]);
    let mut id_of_run = vec![0u32; nu];
    let mut keys = Vec::with_capacity(nu);
    for (id, &r) in by_seen.iter().enumerate() {
        id_of_run[r as usize] = id as u32;
        keys.push(occ[first_pos[r as usize] as usize]);
    }
    let ids = run_of_occ.iter().map(|&r| id_of_run[r as usize]).collect();
    Dedup { keys, ids }
}

/// Pack an unordered node pair into a sortable `u64` key
/// (`min << 32 | max`). Inverse of [`unpack_pair`].
#[inline]
pub(crate) fn pack_pair(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((lo as u64) << 32) | hi as u64
}

/// Unpack a [`pack_pair`] key back into `(min, max)`.
#[inline]
pub(crate) fn unpack_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// All vertex index pairs `(i, j)` with `i < j` among `V` vertices —
/// the local edges of a `V`-vertex simplex, in the canonical order
/// every edge-numbering pass uses.
pub(crate) fn vertex_pairs<const V: usize>() -> impl Iterator<Item = (usize, usize)> {
    (0..V).flat_map(move |i| (i + 1..V).map(move |j| (i, j)))
}

/// Number of vertex pairs of a `V`-vertex simplex, `V(V−1)/2`.
pub const fn n_vertex_pairs<const V: usize>() -> usize {
    V * (V - 1) / 2
}

/// The one edge numbering: the unique edges of `elems` as sorted node
/// pairs `[lo, hi]`, numbered in first-seen order over elements ×
/// `vertex_pairs`, plus the edge id of every element-local pair slot
/// (`elem_edge_ids[e * n_vertex_pairs::<V>() + k]`). Every reader of
/// edges — the decomposition builder, bindings, refinement, the 2-D
/// dual graph — calls this, which is why edge ids agree everywhere.
pub fn edges_first_seen<const V: usize>(elems: &[[u32; V]]) -> (Vec<[u32; 2]>, Vec<u32>) {
    let mut occ: Vec<u64> = Vec::with_capacity(elems.len() * n_vertex_pairs::<V>());
    for el in elems {
        for (i, j) in vertex_pairs::<V>() {
            occ.push(pack_pair(el[i], el[j]));
        }
    }
    let Dedup { keys, ids } = dedup_first_seen(&occ);
    drop(occ);
    let edges = keys.into_iter().map(|k| unpack_pair(k).into()).collect();
    (edges, ids)
}

/// The element dual graph: elements adjacent through a shared facet
/// (edge in 2-D, face in 3-D), from the flattened element→facet ids
/// (`facet_ids[e * F + k]` ∈ `0..nfacets`). Row `e` lists its
/// neighbours in ascending facet id. Panics when a facet is shared by
/// more than two elements (a non-manifold mesh).
pub fn dual_from_facets<const F: usize>(facet_ids: &[u32], nfacets: usize) -> Csr {
    // The one or two elements on each facet, in element order.
    let mut on = vec![[u32::MAX; 2]; nfacets];
    for (i, &f) in facet_ids.iter().enumerate() {
        let e = (i / F) as u32;
        match &mut on[f as usize] {
            [a, _] if *a == u32::MAX => *a = e,
            [_, b] if *b == u32::MAX => *b = e,
            _ => {
                let k = facet_ids.iter().filter(|&&g| g == f).count();
                panic!("facet {f} shared by {k} elements: non-manifold mesh");
            }
        }
    }
    let pairs: Vec<(u32, u32)> = (on.into_iter())
        .filter(|&[_, b]| b != u32::MAX)
        .flat_map(|[a, b]| [(a, b), (b, a)])
        .collect();
    Csr::from_pairs(facet_ids.len() / F, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_groups_by_row() {
        let csr = Csr::from_pairs(3, &[(0, 5), (2, 7), (0, 6), (2, 8), (2, 9)]);
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.row(0), &[5, 6]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[7, 8, 9]);
        assert_eq!(csr.nnz(), 5);
    }

    #[test]
    fn from_rows_matches_pairs() {
        let a = Csr::from_rows(vec![vec![1u32, 2], vec![], vec![0]]);
        let b = Csr::from_pairs(3, &[(0, 1), (0, 2), (2, 0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn degree_counts_row_targets() {
        let csr = Csr::from_rows(vec![vec![3u32, 1, 2], vec![]]);
        assert_eq!((csr.degree(0), csr.degree(1)), (3, 0));
    }

    #[test]
    fn dedup_numbers_in_first_seen_order() {
        let occ = [30u64, 10, 30, 20, 10, 30];
        let d = dedup_first_seen(&occ);
        assert_eq!(d.keys, vec![30, 10, 20]);
        assert_eq!(d.ids, vec![0, 1, 0, 2, 1, 0]);
    }

    #[test]
    fn dedup_matches_hash_reference() {
        // Pseudo-random occurrence stream vs. a first-seen reference
        // built with a linear scan over a small dense key space.
        let mut state = 0x9e3779b9u64;
        let occ: Vec<u64> = (0..500)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) % 37
            })
            .collect();
        let d = dedup_first_seen(&occ);
        let mut seen: Vec<Option<u32>> = vec![None; 37];
        let mut keys = Vec::new();
        let mut ids = Vec::new();
        for &k in &occ {
            let id = *seen[k as usize].get_or_insert_with(|| {
                keys.push(k);
                (keys.len() - 1) as u32
            });
            ids.push(id);
        }
        assert_eq!(d.keys, keys);
        assert_eq!(d.ids, ids);
    }

    #[test]
    fn dedup_empty_and_single() {
        let d = dedup_first_seen::<u64>(&[]);
        assert!(d.keys.is_empty() && d.ids.is_empty());
        let d = dedup_first_seen(&[7u64]);
        assert_eq!((d.keys, d.ids), (vec![7], vec![0]));
    }

    #[test]
    fn pair_packing_roundtrip() {
        assert_eq!(pack_pair(3, 1), pack_pair(1, 3));
        assert_eq!(unpack_pair(pack_pair(5, 2)), (2, 5));
        assert!(pack_pair(0, 1) < pack_pair(0, 2));
        assert!(pack_pair(0, u32::MAX) < pack_pair(1, 2));
    }
}
