//! Parallel decomposition construction on the warm [`SpmdPool`] —
//! overlap distribution in the style of Knepley/Lange/Gorman's
//! star-forest exchanges, adapted to the shared-memory pool: instead
//! of one-sided MPI rounds, workers exchange boundary ownership and
//! ghost lists through owner-bucketed claim vectors passed between
//! gangs.
//!
//! The build runs in four barrier-separated stages, each a pool gang
//! of `workers` jobs over a contiguous range split (jobs that never
//! wait, so the pool's W workers simply share them out; `workers`
//! sets the split, not the thread count):
//!
//! 1. **Ownership** — each worker scans an element chunk and buckets
//!    `(node, part)` claims by destination node range (the sparse
//!    "star-forest round"); a second gang min-merges the claims per
//!    node range into the owner array.
//! 2. **Edge dedup** — each worker sort-dedups its chunk's packed
//!    vertex pairs into a key-sorted run list carrying the chunk-min
//!    occurrence index and owner; a serial k-way merge combines the
//!    chunks (min first-occurrence, min owner) and numbers edges in
//!    first-seen order — exactly the numbering of
//!    [`syncplace_mesh::dedup_first_seen`]; a third gang fills the
//!    per-element edge ids by binary search.
//! 3. **Closure** — workers build the per-part sub-meshes for
//!    contiguous part blocks, each reusing one stamp-validated
//!    [`PartScratch`] across its parts (the same
//!    [`build_submesh`] the sequential builder calls).
//! 4. **Schedules** — update rows per owner block / assembly groups
//!    per node range, from the shared [`EntityPlacement`].
//!
//! Because every per-part and per-entity computation is the same
//! function the sequential builder runs, and every merge is
//! order-insensitive (min) or order-restoring (first-seen sort,
//! ascending concatenation), the resulting [`Decomposition`] is
//! **bitwise identical** to [`syncplace_overlap::build::decompose`] —
//! property-tested across meshes × patterns × part counts × worker
//! counts in `tests/decomp_equivalence.rs`.
//!
//! Measured on the 2-CPU bench host this builder does not beat the
//! sequential one (`runtime.decomp.par_over_seq` in `benchmark/` reads
//! 1.06) and no production path calls it — E24, the equivalence tests
//! and that probe do. Beside the wall time every stage counts
//! entity-touch work units per worker, and
//! [`ParDecompStats::modeled_speedup`] is total work over the critical
//! path (serial units + the sum of each gang's busiest worker): a
//! *model* of the parallelism, labelled as one wherever it is printed.

use std::sync::Arc;
use std::time::Instant;
use syncplace_mesh::{n_vertex_pairs, pack_pair, unpack_pair, vertex_pairs, Mesh2d, Mesh3d};
use syncplace_obs::{self as obs, keys, RecorderRef};
use syncplace_overlap::build::{
    assemble_groups_range, build_submesh, layers_of, owner_csr, update_rows_for_owner,
    Decomposition, EntityPlacement, GlobalSetup, PartScratch,
};
use syncplace_overlap::{AssembleSchedule, Pattern, SubMesh, UpdateSchedule};

use crate::pool::SpmdPool;

/// Per-node-range buckets of `(node, part)` ownership claims.
type ClaimBuckets = Vec<Vec<(u32, u32)>>;
/// One part's update-schedule rows (destination-indexed).
type MsgRows = Vec<Vec<(u32, u32)>>;
/// A pool gang: one boxed job per worker, each returning its payload
/// plus the work units it executed.
type Gang<T> = Vec<Box<dyn FnOnce() -> (T, u64) + Send>>;

/// Work-unit accounting and stage timings of one parallel build.
#[derive(Debug, Clone, Default)]
pub struct ParDecompStats {
    /// Gang width the build ran with.
    pub workers: usize,
    /// Wall-clock of the ownership + dedup stages.
    pub dedup_s: f64,
    /// Wall-clock of the sub-mesh (closure) stage.
    pub closure_s: f64,
    /// Wall-clock of the schedule stage.
    pub schedule_s: f64,
    /// End-to-end wall-clock.
    pub total_s: f64,
    /// Entity-touch work units executed inside pool gangs.
    pub parallel_units: u64,
    /// Entity-touch work units executed serially between gangs
    /// (merges, CSR builds, placement construction).
    pub serial_units: u64,
    /// Modeled critical path: serial units plus each gang's busiest
    /// worker's units.
    pub critical_units: u64,
}

impl ParDecompStats {
    /// Modeled speedup over a one-worker execution of the same work:
    /// total units / critical-path units (the busiest-worker bound the
    /// repo uses wherever the 1-CPU container can't time real
    /// parallelism).
    pub fn modeled_speedup(&self) -> f64 {
        if self.critical_units == 0 {
            return 1.0;
        }
        (self.serial_units + self.parallel_units) as f64 / self.critical_units as f64
    }
}

/// Split `0..n` into `w` contiguous near-even ranges.
fn ranges(n: usize, w: usize) -> Vec<std::ops::Range<usize>> {
    let w = w.max(1);
    (0..w).map(|i| n * i / w..n * (i + 1) / w).collect()
}

/// Index of the range containing `v` (ranges are sorted, disjoint,
/// covering).
fn block_of(ranges: &[std::ops::Range<usize>], v: usize) -> usize {
    ranges.partition_point(|r| r.end <= v)
}

/// Fork-join one gang on the global pool and record it: its units
/// summed into `parallel_units`, its busiest job into the critical
/// path. Returns the payloads in job order.
fn run_stage<T: Send + 'static>(
    jobs: Gang<T>,
    rec: &RecorderRef,
    stats: &mut ParDecompStats,
) -> Vec<T> {
    let tasks = jobs.into_iter().map(|job| async move { Ok(job()) }).collect();
    let results: Vec<(T, u64)> = SpmdPool::global()
        .run_gang(tasks, rec)
        .unwrap_or_else(|why| panic!("decomposer stage failed: {why}"));
    stats.critical_units += results.iter().map(|(_, u)| *u).max().unwrap_or(0);
    stats.parallel_units += results.iter().map(|(_, u)| *u).sum::<u64>();
    results.into_iter().map(|(t, _)| t).collect()
}

/// Count serial work: serial units sit on the critical path in full.
fn serial(stats: &mut ParDecompStats, units: u64) {
    stats.serial_units += units;
    stats.critical_units += units;
}

/// Parallel [`decompose2d`](syncplace_overlap::build::decompose2d):
/// same result, built by `workers` pool jobs. The element and part
/// arrays are copied once into shared ownership for the gang jobs.
pub fn decompose2d_par(
    mesh: &Mesh2d,
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
    workers: usize,
    rec: &RecorderRef,
) -> (Decomposition<3>, ParDecompStats) {
    decompose_par(
        mesh.nnodes(),
        Arc::new(mesh.som.clone()),
        Arc::new(part.to_vec()),
        nparts,
        pattern,
        workers,
        rec,
    )
}

/// Parallel [`decompose3d`](syncplace_overlap::build::decompose3d).
pub fn decompose3d_par(
    mesh: &Mesh3d,
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
    workers: usize,
    rec: &RecorderRef,
) -> (Decomposition<4>, ParDecompStats) {
    decompose_par(
        mesh.nnodes(),
        Arc::new(mesh.tets.clone()),
        Arc::new(part.to_vec()),
        nparts,
        pattern,
        workers,
        rec,
    )
}

/// Build a [`Decomposition`] in parallel on the global [`SpmdPool`],
/// bitwise identical to the sequential
/// [`decompose`](syncplace_overlap::build::decompose).
pub fn decompose_par<const V: usize>(
    nnodes: usize,
    elems: Arc<Vec<[u32; V]>>,
    part: Arc<Vec<u32>>,
    nparts: usize,
    pattern: Pattern,
    workers: usize,
    rec: &RecorderRef,
) -> (Decomposition<V>, ParDecompStats) {
    assert_eq!(elems.len(), part.len());
    assert!(part.iter().all(|&p| (p as usize) < nparts));
    let w = workers.max(1);
    let nelems = elems.len();
    let e_per = n_vertex_pairs::<V>();
    assert!(
        nelems.saturating_mul(e_per) < u32::MAX as usize,
        "edge occurrence count overflows u32"
    );
    let mut stats = ParDecompStats {
        workers: w,
        ..Default::default()
    };
    let t_total = Instant::now();
    let t_span = obs::start(rec);

    let elem_ranges = ranges(nelems, w);
    let node_ranges = ranges(nnodes, w);
    let part_ranges = ranges(nparts, w);

    // --- Stage 1: ownership (bucketed claim exchange) ---------------------
    let t_dedup = Instant::now();
    let t_dedup_span = obs::start(rec);
    let claim_jobs: Gang<ClaimBuckets> = elem_ranges
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, r)| {
            let elems = Arc::clone(&elems);
            let part = Arc::clone(&part);
            let node_ranges = node_ranges.clone();
            let rec = rec.clone();
            Box::new(move || {
                let mut buckets: ClaimBuckets = node_ranges.iter().map(|_| Vec::new()).collect();
                let units = (r.len() * V) as u64;
                for e in r {
                    for &v in &elems[e] {
                        buckets[block_of(&node_ranges, v as usize)].push((v, part[e]));
                    }
                }
                // Publish: worker i's bucket for block j is the write
                // worker j's merge reads after the gang join — the
                // happens-before edge the racecheck pass verifies.
                if let Some(rr) = &rec {
                    for j in 0..node_ranges.len() {
                        rr.hb(i as u32, syncplace_obs::keys::HB_SEND, j as u32);
                    }
                }
                (buckets, units)
            }) as Box<dyn FnOnce() -> (ClaimBuckets, u64) + Send>
        })
        .collect();
    let claims = Arc::new(run_stage(claim_jobs, rec, &mut stats));

    let owner_jobs: Gang<Vec<u32>> = node_ranges
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, r)| {
            let claims = Arc::clone(&claims);
            let rec = rec.clone();
            Box::new(move || {
                let mut owner = vec![u32::MAX; r.len()];
                let mut units = 0u64;
                for (c, chunk) in claims.iter().enumerate() {
                    // Consume: block-owner i reads claim worker c's
                    // bucket — must be ordered after c's publish by
                    // the intervening gang join.
                    if let Some(rr) = &rec {
                        rr.hb(i as u32, syncplace_obs::keys::HB_READ, c as u32);
                    }
                    for &(v, p) in &chunk[i] {
                        let s = v as usize - r.start;
                        owner[s] = owner[s].min(p);
                        units += 1;
                    }
                }
                (owner, units)
            }) as Box<dyn FnOnce() -> (Vec<u32>, u64) + Send>
        })
        .collect();
    let mut node_owner: Vec<u32> = Vec::with_capacity(nnodes);
    for o in run_stage(owner_jobs, rec, &mut stats) {
        node_owner.extend(o);
    }
    drop(claims);

    // --- Stage 2: edge dedup (chunk-sorted + k-way merge) -----------------
    // Chunk entries: (packed key, min occurrence index, min part).
    let dedup_jobs: Gang<Vec<(u64, u32, u32)>> = elem_ranges
        .iter()
        .cloned()
        .map(|r| {
            let elems = Arc::clone(&elems);
            let part = Arc::clone(&part);
            Box::new(move || {
                let mut occ: Vec<(u64, u32)> = Vec::with_capacity(r.len() * e_per);
                for e in r {
                    let el = &elems[e];
                    for (k, (i, j)) in vertex_pairs::<V>().enumerate() {
                        occ.push((pack_pair(el[i], el[j]), (e * e_per + k) as u32));
                    }
                }
                let units = occ.len() as u64;
                occ.sort_unstable();
                let mut out: Vec<(u64, u32, u32)> = Vec::new();
                for (key, seq) in occ {
                    let p = part[seq as usize / e_per];
                    match out.last_mut() {
                        // Sorted by (key, seq): the first entry of a run
                        // already carries the minimal occurrence index.
                        Some(last) if last.0 == key => last.2 = last.2.min(p),
                        _ => out.push((key, seq, p)),
                    }
                }
                (out, units)
            }) as Box<dyn FnOnce() -> (Vec<(u64, u32, u32)>, u64) + Send>
        })
        .collect();
    let lists = run_stage(dedup_jobs, rec, &mut stats);

    // Serial k-way merge over the key-sorted chunk lists, combining
    // equal keys by min occurrence index and min owner.
    let consumed: usize = lists.iter().map(|l| l.len()).sum();
    let mut merged: Vec<(u64, u32, u32)> = Vec::with_capacity(consumed);
    let mut cursors = vec![0usize; lists.len()];
    loop {
        let mut best: Option<u64> = None;
        for (li, l) in lists.iter().enumerate() {
            if let Some(&(k, _, _)) = l.get(cursors[li]) {
                best = Some(best.map_or(k, |b| b.min(k)));
            }
        }
        let Some(key) = best else { break };
        let (mut seq, mut own) = (u32::MAX, u32::MAX);
        for (li, l) in lists.iter().enumerate() {
            if let Some(&(k, s, p)) = l.get(cursors[li]) {
                if k == key {
                    seq = seq.min(s);
                    own = own.min(p);
                    cursors[li] += 1;
                }
            }
        }
        merged.push((key, seq, own));
    }
    serial(&mut stats, consumed as u64);
    drop(lists);

    // First-seen numbering: order merged runs by minimal occurrence
    // index — the numbering `dedup_first_seen` produces sequentially.
    let nu = merged.len();
    let mut order: Vec<u32> = (0..nu as u32).collect();
    order.sort_unstable_by_key(|&i| merged[i as usize].1);
    let mut global_edges: Vec<[u32; 2]> = Vec::with_capacity(nu);
    let mut edge_owner: Vec<u32> = Vec::with_capacity(nu);
    let mut id_of_keyrank = vec![0u32; nu];
    for (id, &i) in order.iter().enumerate() {
        let (key, _, own) = merged[i as usize];
        let (lo, hi) = unpack_pair(key);
        global_edges.push([lo, hi]);
        edge_owner.push(own);
        id_of_keyrank[i as usize] = id as u32;
    }
    serial(&mut stats, nu as u64);
    let keys_sorted: Arc<Vec<u64>> = Arc::new(merged.iter().map(|m| m.0).collect());
    let id_of_keyrank = Arc::new(id_of_keyrank);
    drop(merged);

    let fill_jobs: Gang<Vec<u32>> = elem_ranges
        .iter()
        .cloned()
        .map(|r| {
            let elems = Arc::clone(&elems);
            let keys_sorted = Arc::clone(&keys_sorted);
            let id_of_keyrank = Arc::clone(&id_of_keyrank);
            Box::new(move || {
                let mut out: Vec<u32> = Vec::with_capacity(r.len() * e_per);
                for e in r {
                    let el = &elems[e];
                    for (i, j) in vertex_pairs::<V>() {
                        let key = pack_pair(el[i], el[j]);
                        let k = keys_sorted.binary_search(&key).expect("edge key present");
                        out.push(id_of_keyrank[k]);
                    }
                }
                let units = out.len() as u64;
                (out, units)
            }) as Box<dyn FnOnce() -> (Vec<u32>, u64) + Send>
        })
        .collect();
    let mut elem_edges: Vec<u32> = Vec::with_capacity(nelems * e_per);
    for c in run_stage(fill_jobs, rec, &mut stats) {
        elem_edges.extend(c);
    }
    drop((keys_sorted, id_of_keyrank));

    // Incidence CSRs (two counting passes each — serial).
    serial(&mut stats, (nelems * (V + 1) + nnodes + nparts) as u64);
    let setup = Arc::new(GlobalSetup::from_parts(
        nnodes,
        &elems,
        &part,
        nparts,
        layers_of(pattern),
        node_owner,
        global_edges,
        edge_owner,
        elem_edges,
    ));
    stats.dedup_s = t_dedup.elapsed().as_secs_f64();
    obs::finish(rec, keys::DECOMP_DEDUP_SPAN, t_dedup_span);

    // --- Stage 3: sub-meshes (closure), part blocks -----------------------
    let t_closure = Instant::now();
    let t_closure_span = obs::start(rec);
    let sub_jobs: Gang<Vec<SubMesh<V>>> = part_ranges
        .iter()
        .cloned()
        .map(|r| {
            let setup = Arc::clone(&setup);
            let elems = Arc::clone(&elems);
            Box::new(move || {
                let mut scratch = PartScratch::new(&setup);
                let mut subs: Vec<SubMesh<V>> = Vec::with_capacity(r.len());
                let mut units = 0u64;
                for p in r {
                    let s = build_submesh(&setup, &elems, p as u32, &mut scratch);
                    units += (s.nelems() * (V + e_per) + s.nnodes() + s.nedges()) as u64;
                    subs.push(s);
                }
                (subs, units)
            }) as Box<dyn FnOnce() -> (Vec<SubMesh<V>>, u64) + Send>
        })
        .collect();
    let mut submeshes: Vec<SubMesh<V>> = Vec::with_capacity(nparts);
    for s in run_stage(sub_jobs, rec, &mut stats) {
        submeshes.extend(s);
    }
    stats.closure_s = t_closure.elapsed().as_secs_f64();
    obs::finish(rec, keys::DECOMP_CLOSURE_SPAN, t_closure_span);

    // --- Stage 4: schedules ----------------------------------------------
    let t_sched = Instant::now();
    let t_sched_span = obs::start(rec);
    let slot_units: u64 = submeshes
        .iter()
        .map(|s| (s.nnodes() + s.nedges()) as u64)
        .sum();
    let mut node_update = UpdateSchedule::new(nparts);
    let mut edge_update = UpdateSchedule::new(nparts);
    let mut node_assemble = AssembleSchedule::default();
    match pattern {
        Pattern::ElementOverlap { .. } => {
            let node_place = Arc::new(EntityPlacement::from_l2g(
                nnodes,
                submeshes.iter().map(|s| s.nodes_l2g.as_slice()),
            ));
            let edge_place = Arc::new(EntityPlacement::from_l2g(
                setup.global_edges.len(),
                submeshes.iter().map(|s| s.edges_l2g.as_slice()),
            ));
            let owner_nodes = Arc::new(owner_csr(nparts, &setup.node_owner));
            let owner_edges = Arc::new(owner_csr(nparts, &setup.edge_owner));
            serial(
                &mut stats,
                slot_units + (nnodes + setup.global_edges.len()) as u64,
            );
            let row_jobs: Gang<Vec<(usize, MsgRows, MsgRows)>> =
                part_ranges
                    .iter()
                    .cloned()
                    .map(|r| {
                        let node_place = Arc::clone(&node_place);
                        let edge_place = Arc::clone(&edge_place);
                        let owner_nodes = Arc::clone(&owner_nodes);
                        let owner_edges = Arc::clone(&owner_edges);
                        Box::new(move || {
                            let mut out: Vec<(usize, MsgRows, MsgRows)> =
                                Vec::with_capacity(r.len());
                            let mut units = 0u64;
                            for p in r {
                                let nrows = update_rows_for_owner(
                                    p as u32,
                                    owner_nodes.row(p),
                                    &node_place,
                                    nparts,
                                );
                                let erows = update_rows_for_owner(
                                    p as u32,
                                    owner_edges.row(p),
                                    &edge_place,
                                    nparts,
                                );
                                units += (owner_nodes.degree(p) + owner_edges.degree(p)) as u64;
                                units += nrows.iter().map(|x| x.len() as u64).sum::<u64>();
                                units += erows.iter().map(|x| x.len() as u64).sum::<u64>();
                                out.push((p, nrows, erows));
                            }
                            (out, units)
                        })
                            as Box<dyn FnOnce() -> (Vec<(usize, MsgRows, MsgRows)>, u64) + Send>
                    })
                    .collect();
            for group in run_stage(row_jobs, rec, &mut stats) {
                for (p, nrows, erows) in group {
                    node_update.msgs[p] = nrows;
                    edge_update.msgs[p] = erows;
                }
            }
        }
        Pattern::NodeOverlap => {
            let node_place = Arc::new(EntityPlacement::from_l2g(
                nnodes,
                submeshes.iter().map(|s| s.nodes_l2g.as_slice()),
            ));
            serial(&mut stats, slot_units);
            let group_jobs: Gang<Vec<Vec<(u32, u32)>>> =
                node_ranges
                    .iter()
                    .cloned()
                    .map(|r| {
                        let node_place = Arc::clone(&node_place);
                        let setup = Arc::clone(&setup);
                        Box::new(move || {
                            let g = assemble_groups_range(&setup.node_owner, &node_place, r.clone());
                            let units =
                                r.len() as u64 + g.iter().map(|x| x.len() as u64).sum::<u64>();
                            (g, units)
                        })
                            as Box<dyn FnOnce() -> (Vec<Vec<(u32, u32)>>, u64) + Send>
                    })
                    .collect();
            for g in run_stage(group_jobs, rec, &mut stats) {
                node_assemble.groups.extend(g);
            }
        }
    }
    stats.schedule_s = t_sched.elapsed().as_secs_f64();
    obs::finish(rec, keys::DECOMP_SCHEDULE_SPAN, t_sched_span);

    // --- Assembly ----------------------------------------------------------
    let setup = Arc::try_unwrap(setup).unwrap_or_else(|a| (*a).clone());
    let d = Decomposition {
        pattern,
        nparts,
        nnodes_global: nnodes,
        nelems_global: nelems,
        global_edges: setup.global_edges,
        node_owner: setup.node_owner,
        edge_owner: setup.edge_owner,
        elem_part: (*part).clone(),
        submeshes,
        node_update,
        edge_update,
        node_assemble,
    };
    stats.total_s = t_total.elapsed().as_secs_f64();
    if let Some(r) = rec {
        r.add(keys::DECOMP_PARTS, nparts as u64);
        r.add(keys::DECOMP_PAR_UNITS, stats.parallel_units);
        r.add(keys::DECOMP_SERIAL_UNITS, stats.serial_units);
    }
    obs::finish(rec, keys::DECOMP_SPAN, t_span);
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
                let (par, stats) = decompose2d_par(&mesh, &p.part, 4, pattern, w, &None);
                assert_eq!(seq, par, "pattern {pattern:?}, workers {w}");
                assert!(stats.parallel_units > 0);
            }
        }
    }

    #[test]
    fn modeled_speedup_grows_with_workers() {
        let mesh = gen2d::grid(24, 24);
        let p = partition2d(&mesh, 8, Method::Greedy);
        let (_, s1) = decompose2d_par(&mesh, &p.part, 8, Pattern::FIG1, 1, &None);
        let (_, s4) = decompose2d_par(&mesh, &p.part, 8, Pattern::FIG1, 4, &None);
        assert!(s1.modeled_speedup() <= 1.0 + 1e-9);
        assert!(
            s4.modeled_speedup() > s1.modeled_speedup(),
            "w=4 {} vs w=1 {}",
            s4.modeled_speedup(),
            s1.modeled_speedup()
        );
    }

    #[test]
    fn range_split_covers_and_is_disjoint() {
        for n in [0usize, 1, 7, 100] {
            for w in [1usize, 2, 3, 8] {
                let rs = ranges(n, w);
                assert_eq!(rs.len(), w);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                for v in 0..n {
                    let b = block_of(&rs, v);
                    assert!(rs[b].contains(&v));
                }
            }
        }
    }
}
