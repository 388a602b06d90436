//! Compressed-sparse-row adjacency and the mesh's two derivations.
//!
//! A [`Csr`] maps each row `r` in `0..n` to a slice of `u32` targets.
//! It is built by inverting an item → rows table ([`Csr::invert`],
//! which [`Csr::from_pairs`] uses) or from per-row lists
//! ([`Csr::from_rows`]), in O(n + m) with one counting pass.
//!
//! Meshes store element→vertex incidence, and the edge numbering is
//! stored once, on first read (`edges_first_seen`, called by
//! [`crate::Mesh::edges`]); the element dual graph comes from
//! [`dual_from_facets`]. Edges and faces are numbered by
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
        let mut csr = Csr::invert(nrows, pairs.iter().map(|(r, _)| std::slice::from_ref(r)));
        for t in &mut csr.targets {
            *t = pairs[*t as usize].1;
        }
        csr
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

    /// Invert an item → rows table: row `r` lists, ascending, every
    /// item `i` whose `rows_of` entry names `r` (node → elements from
    /// element → nodes).
    pub fn invert<I, R>(nrows: usize, rows_of: I) -> Self
    where
        I: IntoIterator<Item = R> + Clone,
        R: AsRef<[u32]>,
    {
        let mut offsets = vec![0u32; nrows + 1];
        for rows in rows_of.clone() {
            for &r in rows.as_ref() {
                offsets[r as usize + 1] += 1;
            }
        }
        for i in 1..=nrows {
            offsets[i] += offsets[i - 1];
        }
        let mut targets = vec![0u32; offsets[nrows] as usize];
        let mut cursor = offsets.clone();
        for (i, rows) in rows_of.into_iter().enumerate() {
            for &r in rows.as_ref() {
                let c = &mut cursor[r as usize];
                targets[*c as usize] = i as u32;
                *c += 1;
            }
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
/// tuples of `occ` (every component below `n`, `N >= 2`) in the order
/// they first appear, and map every occurrence to its tuple's id — no
/// comparison sort, no hashing.
///
/// Stable counting passes over the first `N − 1` components group the
/// positions by them, ascending within a group; a stamp on the last
/// component then finds repeats in O(1), with no scan within a group;
/// a scan in input order numbers the keys. O(m + n) for `m`
/// occurrences on any mesh (DESIGN §11.2). Panics on a component `>= n`.
pub fn dedup_first_seen<const N: usize>(occ: &[[u32; N]], n: usize) -> Dedup<[u32; N]> {
    let m = occ.len();
    assert!(N >= 2, "a key has at least two components");
    assert!(m < u32::MAX as usize, "occurrence count overflows u32");
    let mut order: Vec<u32> = (0..m as u32).collect();
    let mut next = vec![0u32; m];
    let mut start = vec![0u32; n + 1];
    for c in (0..N - 1).rev() {
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
    // `next[i]` becomes the run (distinct key, in sorted order) of
    // occurrence `i`, then its id. `start[v]`, if at least the group's
    // first run, is the run of the group's key ending in `v`.
    let last = N - 1;
    start.fill(u32::MAX);
    let (mut runs, mut first) = (0u32, 0u32);
    for (p, &i) in order.iter().enumerate() {
        let key = &occ[i as usize];
        if p > 0 && key[..last] != occ[order[p - 1] as usize][..last] {
            first = runs;
        }
        let r = &mut start[key[last] as usize];
        if *r == u32::MAX || *r < first {
            *r = runs;
            runs += 1;
        }
        next[i as usize] = *r;
    }
    // `order`'s buffer, no longer needed, maps each run to its id.
    let mut id_of_run = order;
    id_of_run.truncate(runs as usize);
    id_of_run.fill(u32::MAX);
    let mut keys = Vec::with_capacity(runs as usize);
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

/// The edge numbering [`crate::Mesh::edges`] stores: sorted node
/// pairs over elements × `vertex_pairs`, numbered first-seen.
pub(crate) fn edges_first_seen<const V: usize>(elems: &[[u32; V]], nnodes: usize) -> Dedup<[u32; 2]> {
    let mut occ: Vec<[u32; 2]> = Vec::with_capacity(elems.len() * n_vertex_pairs::<V>());
    for el in elems {
        for (i, j) in vertex_pairs::<V>() {
            occ.push([el[i].min(el[j]), el[i].max(el[j])]);
        }
    }
    dedup_first_seen(&occ, nnodes)
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
    // Row `e` lists the shared facets naming `e`, ascending; each then
    // becomes the other element on it.
    let shared = on.iter().map(|ab| &ab[..if ab[1] == u32::MAX { 0 } else { 2 }]);
    let mut dual = Csr::invert(facet_ids.len() / F, shared);
    for e in 0..dual.nrows() {
        for t in &mut dual.targets[dual.offsets[e] as usize..dual.offsets[e + 1] as usize] {
            let [a, b] = on[*t as usize];
            *t = a ^ b ^ e as u32;
        }
    }
    dual
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
    fn invert_lists_items_ascending() {
        let csr = Csr::invert(4, [[2u32, 0], [0, 3], [2, 0]].iter());
        assert_eq!(csr, Csr::from_rows(vec![vec![0u32, 1, 2], vec![], vec![0, 2], vec![1]]));
    }

    #[test]
    fn degree_counts_row_targets() {
        let csr = Csr::from_rows(vec![vec![3u32, 1, 2], vec![]]);
        assert_eq!((csr.degree(0), csr.degree(1)), (3, 0));
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
    fn dedup_empty_and_single() {
        for n in [0, 3] {
            let d = dedup_first_seen::<3>(&[], n);
            assert!(d.keys.is_empty() && d.ids.is_empty());
        }
        let d = dedup_first_seen(&[[7, 0]], 8);
        assert_eq!((d.keys, d.ids), (vec![[7, 0]], vec![0]));
    }
}
