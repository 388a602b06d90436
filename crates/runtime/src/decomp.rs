//! Parallel decomposition construction on the warm [`SpmdPool`]: the
//! sequential builder's own three steps — [`global_setup`],
//! [`build_submesh`] once per part, [`finish`] — with only the per-part
//! loop on the pool. That loop is one gang of `workers` jobs over
//! contiguous part blocks, each reusing one stamp-validated
//! [`PartScratch`] across its parts. The jobs never wait, so the pool's
//! W workers share them out: `workers` sets the block split, not the
//! thread count.
//!
//! Same functions, same order: the result is **bitwise identical** to
//! [`syncplace_overlap::build::decompose`] by construction, and
//! `tests/decomp_equivalence.rs` checks it across meshes × patterns ×
//! part counts × worker counts. No production path calls this builder;
//! E24, the equivalence tests and `benchmark/`'s probe do.

use std::sync::Arc;
use std::time::Instant;
use syncplace_mesh::{Mesh2d, Mesh3d};
use syncplace_obs::{self as obs, keys, RecorderRef};
use syncplace_overlap::build::{build_submesh, finish, global_setup, Decomposition, PartScratch};
use syncplace_overlap::{DecomposeStats, Pattern, SubMesh};

use crate::pool::SpmdPool;

/// Split `0..n` into `w` contiguous near-even ranges.
fn ranges(n: usize, w: usize) -> Vec<std::ops::Range<usize>> {
    let w = w.max(1);
    (0..w).map(|i| n * i / w..n * (i + 1) / w).collect()
}

/// Parallel [`decompose2d`](syncplace_overlap::build::decompose2d):
/// same result. The element and part arrays are copied once into
/// shared ownership for the gang jobs.
pub fn decompose2d_par(
    mesh: &Mesh2d,
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
    workers: usize,
    rec: &RecorderRef,
) -> (Decomposition<3>, DecomposeStats) {
    let (elems, part) = (Arc::new(mesh.som.clone()), Arc::new(part.to_vec()));
    decompose_par(mesh.nnodes(), elems, part, nparts, pattern, workers, rec)
}

/// Parallel [`decompose3d`](syncplace_overlap::build::decompose3d).
pub fn decompose3d_par(
    mesh: &Mesh3d,
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
    workers: usize,
    rec: &RecorderRef,
) -> (Decomposition<4>, DecomposeStats) {
    let (elems, part) = (Arc::new(mesh.tets.clone()), Arc::new(part.to_vec()));
    decompose_par(mesh.nnodes(), elems, part, nparts, pattern, workers, rec)
}

/// Build a [`Decomposition`] with the per-part step on the global
/// [`SpmdPool`], bitwise identical to the sequential
/// [`decompose`](syncplace_overlap::build::decompose). `workers = 0`
/// builds as one block.
pub fn decompose_par<const V: usize>(
    nnodes: usize,
    elems: Arc<Vec<[u32; V]>>,
    part: Arc<Vec<u32>>,
    nparts: usize,
    pattern: Pattern,
    workers: usize,
    rec: &RecorderRef,
) -> (Decomposition<V>, DecomposeStats) {
    let t_total = Instant::now();
    let t_span = obs::start(rec);

    let (t0, t_step) = (Instant::now(), obs::start(rec));
    let setup = Arc::new(global_setup(nnodes, &elems, &part, nparts, pattern));
    let dedup_s = t0.elapsed().as_secs_f64();
    obs::finish(rec, keys::DECOMP_DEDUP_SPAN, t_step);

    let (t0, t_step) = (Instant::now(), obs::start(rec));
    let jobs = (ranges(nparts, workers).into_iter())
        .map(|block| {
            let (setup, elems) = (Arc::clone(&setup), Arc::clone(&elems));
            async move {
                let mut scratch = PartScratch::new(&setup);
                let subs: Vec<SubMesh<V>> = block
                    .map(|p| build_submesh(&setup, &elems, p as u32, &mut scratch))
                    .collect();
                Ok(subs)
            }
        })
        .collect();
    let blocks = (SpmdPool::global().run_gang(jobs, rec))
        .unwrap_or_else(|why| panic!("decomposer gang failed: {why}"));
    let submeshes: Vec<SubMesh<V>> = blocks.into_iter().flatten().collect();
    let closure_s = t0.elapsed().as_secs_f64();
    obs::finish(rec, keys::DECOMP_CLOSURE_SPAN, t_step);

    let (t0, t_step) = (Instant::now(), obs::start(rec));
    // The gang has dropped every job, so this is the last reference.
    let setup = Arc::try_unwrap(setup).unwrap_or_else(|shared| (*shared).clone());
    let d = finish(setup, submeshes, &part, pattern);
    let schedule_s = t0.elapsed().as_secs_f64();
    obs::finish(rec, keys::DECOMP_SCHEDULE_SPAN, t_step);

    if let Some(r) = rec {
        r.add(keys::DECOMP_PARTS, nparts as u64);
    }
    obs::finish(rec, keys::DECOMP_SPAN, t_span);
    let stats = DecomposeStats {
        dedup_s,
        closure_s,
        schedule_s,
        total_s: t_total.elapsed().as_secs_f64(),
    };
    (d, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_mesh::gen2d;
    use syncplace_overlap::build::decompose2d;
    use syncplace_partition::{partition2d, Method};

    #[test]
    fn parallel_matches_sequential_small() {
        let mesh = gen2d::grid(9, 7);
        let p = partition2d(&mesh, 4, Method::Greedy);
        for pattern in [Pattern::FIG1, Pattern::FIG2] {
            let seq = decompose2d(&mesh, &p.part, 4, pattern);
            for w in [1, 2, 4] {
                let (par, _) = decompose2d_par(&mesh, &p.part, 4, pattern, w, &None);
                assert_eq!(seq, par, "pattern {pattern:?}, workers {w}");
            }
        }
    }

    #[test]
    fn stats_stages_cover_total() {
        let mesh = gen2d::grid(10, 10);
        let p = partition2d(&mesh, 4, Method::Greedy);
        let (_, st) = decompose2d_par(&mesh, &p.part, 4, Pattern::FIG1, 2, &None);
        assert!(st.total_s >= st.dedup_s.max(st.closure_s).max(st.schedule_s));
        assert!(st.total_s > 0.0);
    }

    #[test]
    fn range_split_covers_and_is_disjoint() {
        for n in [0usize, 1, 7, 100] {
            for w in [1usize, 2, 3, 8] {
                let rs = ranges(n, w);
                assert_eq!(rs.len(), w);
                assert!(rs.windows(2).all(|p| p[0].end == p[1].start));
                assert_eq!((rs[0].start, rs[w - 1].end), (0, n));
            }
        }
    }
}
