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
//! ([`dual_from_facets`]). Edges and faces are numbered by
//! [`dedup_first_seen`], which is counting passes too: O(m + n) in
//! the occurrences and nodes on any mesh, with no comparison sort and
//! no hashing.

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

/// Counting-sort first-seen numbering: number the distinct node
/// tuples of `occ` (every component below `n`) in the order they first
/// appear, and map every occurrence to its tuple's id — no comparison
/// sort, no hashing.
///
/// One stable counting pass per component, last component first,
/// orders the positions by key, equal keys in ascending position; one
/// scan in input order then numbers each run of equal keys the first
/// time it meets it. O(m + n) time and memory for `m` occurrences on
/// any mesh (DESIGN §11.2); this is the indexer under
/// [`edges_first_seen`] and `Mesh3d::faces`. Panics on a component
/// `>= n`.
pub fn dedup_first_seen<const N: usize>(occ: &[[u32; N]], n: usize) -> Dedup<[u32; N]> {
    let m = occ.len();
    assert!(m < u32::MAX as usize, "occurrence count overflows u32");
    let mut order: Vec<u32> = (0..m as u32).collect();
    let mut next = vec![0u32; m];
    let mut start = vec![0u32; n + 1];
    for c in (0..N).rev() {
        start.fill(0);
        for k in occ {
            start[k[c] as usize + 1] += 1;
        }
        for v in 1..=n {
            start[v] += start[v - 1];
        }
        for &i in &order {
            let s = &mut start[occ[i as usize][c] as usize];
            next[*s as usize] = i;
            *s += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    // `next[i]` becomes the run of occurrence `i`, then its id.
    let mut runs = 0u32;
    let mut prev = order.first().map(|&i| occ[i as usize]);
    for &i in &order {
        let key = Some(occ[i as usize]);
        runs += u32::from(key != prev);
        prev = key;
        next[i as usize] = runs;
    }
    drop(order);
    let mut id_of_run = vec![u32::MAX; runs as usize + 1];
    let mut keys = Vec::with_capacity(runs as usize + 1);
    for (i, r) in next.iter_mut().enumerate() {
        let id = &mut id_of_run[*r as usize];
        if *id == u32::MAX {
            *id = keys.len() as u32;
            keys.push(occ[i]);
        }
        *r = *id;
    }
    Dedup { keys, ids: next }
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
/// [`dedup_first_seen`] numbers the pairs, bounded by the largest node
/// id in `elems` plus one: O(elements + nodes).
pub fn edges_first_seen<const V: usize>(elems: &[[u32; V]]) -> (Vec<[u32; 2]>, Vec<u32>) {
    let mut occ: Vec<[u32; 2]> = Vec::with_capacity(elems.len() * n_vertex_pairs::<V>());
    for el in elems {
        for (i, j) in vertex_pairs::<V>() {
            occ.push([el[i].min(el[j]), el[i].max(el[j])]);
        }
    }
    let n = elems.iter().flatten().max().map_or(0, |&v| v as usize + 1);
    let Dedup { keys, ids } = dedup_first_seen(&occ, n);
    (keys, ids)
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

    /// First-seen numbering by a scan in occurrence order.
    fn scan_reference<K: PartialEq + Copy>(occ: &[K]) -> Dedup<K> {
        let mut keys = Vec::new();
        let ids = (occ.iter())
            .map(|k| match keys.iter().position(|u| u == k) {
                Some(id) => id as u32,
                None => {
                    keys.push(*k);
                    (keys.len() - 1) as u32
                }
            })
            .collect();
        Dedup { keys, ids }
    }

    #[test]
    fn dedup_numbers_in_first_seen_order() {
        // Tuples need not be sorted: [2, 1] and [1, 2] are distinct.
        let occ = [[2, 1], [0, 3], [2, 1], [1, 2], [0, 3], [2, 1]];
        let d = dedup_first_seen(&occ, 4);
        assert_eq!(d.keys, vec![[2, 1], [0, 3], [1, 2]]);
        assert_eq!(d.ids, vec![0, 1, 0, 2, 1, 0]);
    }

    #[test]
    fn dedup_matches_hash_reference() {
        // Seeded streams of pairs and triples under a small node bound
        // vs. the scan reference.
        let mut state = 0x9e3779b9u64;
        let mut node = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % n) as u32
        };
        for n in [1, 2, 5, 11] {
            let pairs: Vec<[u32; 2]> = (0..400).map(|_| [node(n), node(n)]).collect();
            assert_eq!(dedup_first_seen(&pairs, n as usize), scan_reference(&pairs));
            let triples: Vec<[u32; 3]> = (0..400).map(|_| [node(n), node(n), node(n)]).collect();
            assert_eq!(
                dedup_first_seen(&triples, n as usize),
                scan_reference(&triples)
            );
        }
    }

    #[test]
    fn dedup_empty_and_single() {
        for n in [0, 3] {
            let d = dedup_first_seen::<3>(&[], n);
            assert!(d.keys.is_empty() && d.ids.is_empty());
        }
        let d = dedup_first_seen(&[[7, 0]], 8);
        assert_eq!((d.keys, d.ids), (vec![[7, 0]], vec![0]));
    }
}
