//! Cross-construction suite: the parallel pool builder
//! (`runtime::decomp`) must produce a [`Decomposition`] **bitwise
//! identical** to the sequential reference
//! (`overlap::build::decompose`) — every field, every sub-mesh, every
//! schedule row — for any mesh, pattern, part count and worker count.
//!
//! Also the large-tier construction-path gate: the ISSUE requires
//! zero `HashMap`/`HashSet`/`BTreeMap` on the decomposition
//! construction path (mesh connectivity, overlap build, schedules,
//! parallel builder); a source grep enforces it so a regression fails
//! in CI, not in a profile.

use std::sync::Arc;
use syncplace_mesh::{gen2d, gen3d};
use syncplace_overlap::build::{decompose2d, decompose3d};
use syncplace_overlap::Pattern;
use syncplace_partition::{partition2d, partition3d, Method};
use syncplace_runtime::decomp::{decompose2d_par, decompose3d_par, decompose_par};

const PATTERNS: [Pattern; 3] = [
    Pattern::FIG1,
    Pattern::FIG2,
    Pattern::ElementOverlap { layers: 2 },
];

#[test]
fn parallel_equals_sequential_2d_across_meshes_patterns_parts_workers() {
    let meshes = [
        gen2d::perturbed_grid(9, 8, 0.25, 42),
        gen2d::perturbed_grid(13, 5, 0.15, 7),
        gen2d::annulus(10, 6, 1.0, 2.5),
    ];
    for (mi, mesh) in meshes.iter().enumerate() {
        for nparts in [2usize, 3, 5, 8] {
            let p = partition2d(mesh, nparts, Method::Greedy);
            for pattern in PATTERNS {
                let seq = decompose2d(mesh, &p.part, nparts, pattern);
                for workers in [1usize, 2, 3, 4] {
                    let (par, stats) =
                        decompose2d_par(mesh, &p.part, nparts, pattern, workers, &None);
                    assert_eq!(
                        seq, par,
                        "mesh {mi}, P={nparts}, {pattern:?}, workers={workers}"
                    );
                    let stages = stats.dedup_s + stats.closure_s + stats.schedule_s;
                    assert!(stages <= stats.total_s, "{stats:?}");
                }
            }
        }
    }
}

#[test]
fn parallel_equals_sequential_3d() {
    let mesh = gen3d::box_mesh(6, 5, 4);
    for nparts in [3usize, 8] {
        let p = partition3d(&mesh, nparts, Method::Rcb);
        for pattern in PATTERNS {
            let seq = decompose3d(&mesh, &p.part, nparts, pattern);
            for workers in [2usize, 4] {
                let (par, _) = decompose3d_par(&mesh, &p.part, nparts, pattern, workers, &None);
                assert_eq!(seq, par, "P={nparts}, {pattern:?}, workers={workers}");
            }
        }
    }
}

#[test]
fn worker_count_never_changes_the_result() {
    // Same build at every gang width from 0 (clamped to one block) to
    // 8 — all identical.
    let mesh = gen2d::perturbed_grid(11, 11, 0.3, 123);
    let p = partition2d(&mesh, 6, Method::RcbKl);
    let shared = Arc::new(mesh.clone());
    let part = Arc::new(p.part.clone());
    let (base, _) = decompose_par(
        Arc::clone(&shared),
        Arc::clone(&part),
        6,
        Pattern::FIG1,
        1,
        &None,
    );
    for workers in [0, 2, 3, 4, 5, 6, 7, 8] {
        let (d, _) = decompose_par(
            Arc::clone(&shared),
            Arc::clone(&part),
            6,
            Pattern::FIG1,
            workers,
            &None,
        );
        assert_eq!(base, d, "workers={workers}");
    }
}

/// The construction path must not allocate per-entity hash or tree
/// containers (ISSUE: "zero HashMap/BTreeMap allocation on the
/// construction path"). Source-level gate over every file on that
/// path.
#[test]
fn construction_path_is_hash_free() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let files = [
        "crates/mesh/src/csr.rs",
        "crates/mesh/src/mesh2d.rs",
        "crates/mesh/src/mesh3d.rs",
        "crates/mesh/src/simplicial.rs",
        "crates/overlap/src/build.rs",
        "crates/overlap/src/schedule.rs",
        "crates/overlap/src/submesh.rs",
        "crates/runtime/src/decomp.rs",
    ];
    for f in files {
        let path = format!("{root}/{f}");
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        for banned in ["HashMap", "HashSet", "BTreeMap", "BTreeSet"] {
            assert!(
                !src.contains(banned),
                "{f} uses {banned} on the construction path"
            );
        }
    }
}

/// Million-element smoke test at the large-tier operating point
/// (P = 128): run with `cargo test -q --release -- --ignored`.
/// Debug-mode wall-clock is why it is ignored by default, not memory.
#[test]
#[ignore = "million-element build; run in release via the large bench tier"]
fn million_element_p128_smoke() {
    // 708 × 707 quads → 1_001_112 triangles.
    let mesh = gen2d::grid(709, 708);
    assert!(mesh.ntris() >= 1_000_000);
    let p = partition2d(&mesh, 128, Method::Rcb);
    let (d, _) = decompose2d_par(&mesh, &p.part, 128, Pattern::FIG1, 4, &None);
    assert_eq!(d.submeshes.len(), 128);
    assert_eq!(d.nelems_global, mesh.ntris());
    let kernel: usize = d.submeshes.iter().map(|s| s.n_kernel_elems).sum();
    assert_eq!(kernel, mesh.ntris());
}
