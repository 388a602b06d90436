//! Focused tests of the communication semantics that the paper's
//! correctness argument rests on (§2.3), exercised through the whole
//! stack rather than the reference implementations.

use syncplace::prelude::*;
use syncplace_bench::setup;

/// Fig. 1 semantics: after a scatter, kernel values are exact even
/// though overlap copies are garbage; the update makes every copy
/// exact. Checked against a hand-computed global gather–scatter.
#[test]
fn fig1_kernel_exactness_midstep() {
    let mesh = gen2d::perturbed_grid(9, 9, 0.2, 21);
    let part = partition2d(&mesh, 4, Method::Greedy);
    let d = decompose2d(&mesh, &part.part, 4, Pattern::FIG1);
    let global0: Vec<f64> = (0..mesh.nnodes()).map(|i| ((i * 17) % 29) as f64).collect();

    // Global reference step: new[n] = Σ_{t ∋ n} Σ_{m ∈ t} old[m].
    let mut global = vec![0.0; mesh.nnodes()];
    for tri in mesh.som() {
        let s: f64 = tri.iter().map(|&v| global0[v as usize]).sum();
        for &v in tri {
            global[v as usize] += s;
        }
    }
    // Local step on every sub-mesh, full overlap domain, no comm yet.
    let mut locals: Vec<Vec<f64>> = d
        .scatter(EntityKind::Node, &global0)
        .unwrap()
        .into_iter()
        .collect();
    let mut news: Vec<Vec<f64>> = Vec::new();
    for s in &d.submeshes {
        let old = &locals[s.part as usize];
        let mut new = vec![0.0; s.nnodes()];
        for tri in &s.elems {
            let sum: f64 = tri.iter().map(|&v| old[v as usize]).sum();
            for &v in tri {
                new[v as usize] += sum;
            }
        }
        news.push(new);
    }
    // Kernel entries exact...
    for s in &d.submeshes {
        for (l, &g) in s.nodes_l2g.iter().enumerate().take(s.n_kernel_nodes) {
            assert!(
                (news[s.part as usize][l] - global[g as usize]).abs() < 1e-9,
                "kernel node {g}"
            );
        }
    }
    // ...and not every overlap entry is (otherwise the update would be
    // pointless on this mesh/partition).
    let mut stale = false;
    for s in &d.submeshes {
        for (l, &g) in s.nodes_l2g.iter().enumerate().skip(s.n_kernel_nodes) {
            if (news[s.part as usize][l] - global[g as usize]).abs() > 1e-9 {
                stale = true;
            }
        }
    }
    assert!(stale, "overlap copies should be stale before the update");
    // The update fixes everything.
    syncplace::overlap::check::apply_update(&d, &mut news);
    locals = news;
    for s in &d.submeshes {
        for (l, &g) in s.nodes_l2g.iter().enumerate() {
            assert!((locals[s.part as usize][l] - global[g as usize]).abs() < 1e-9);
        }
    }
}

/// Fig. 2 semantics: no element is computed twice, every copy holds a
/// partial, and the assembly produces the exact total on every copy.
#[test]
fn fig2_partial_assembly_exactness() {
    let mesh = gen2d::perturbed_grid(9, 9, 0.2, 22);
    let part = partition2d(&mesh, 3, Method::Rcb);
    let d = decompose2d(&mesh, &part.part, 3, Pattern::FIG2);
    let global0: Vec<f64> = (0..mesh.nnodes()).map(|i| 1.0 + (i % 7) as f64).collect();

    let mut global = vec![0.0; mesh.nnodes()];
    for tri in mesh.som() {
        let s: f64 = tri.iter().map(|&v| global0[v as usize]).sum();
        for &v in tri {
            global[v as usize] += s;
        }
    }
    let olds = d.scatter(EntityKind::Node, &global0).unwrap();
    let mut news: Vec<Vec<f64>> = Vec::new();
    let mut total_elem_visits = 0usize;
    for s in &d.submeshes {
        let old = &olds[s.part as usize];
        let mut new = vec![0.0; s.nnodes()];
        for tri in &s.elems {
            total_elem_visits += 1;
            let sum: f64 = tri.iter().map(|&v| old[v as usize]).sum();
            for &v in tri {
                new[v as usize] += sum;
            }
        }
        news.push(new);
    }
    // No redundant computation.
    assert_eq!(total_elem_visits, mesh.ntris());
    syncplace::overlap::check::apply_assemble(&d, &mut news);
    for s in &d.submeshes {
        for (l, &g) in s.nodes_l2g.iter().enumerate() {
            assert!(
                (news[s.part as usize][l] - global[g as usize]).abs() < 1e-9,
                "node {g} after assembly"
            );
        }
    }
}

/// The executed SPMD communication volumes match the schedules the
/// decomposition predicts (counting is exact, not sampled).
#[test]
fn executed_volumes_match_schedules() {
    let s = setup::testiv(8, 0.0, &fig6());
    let (d, spmd) = setup::decompose(&s, 4, Pattern::FIG1, 0);
    let res = Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
    // Rank-0 placement: one NEW update + one sqrdiff reduce per
    // iteration, fused into one phase.
    let per_iter_update = d.node_update.total_values();
    let per_iter_reduce = 2 * (d.nparts - 1);
    assert_eq!(
        res.stats.total_values(),
        res.iterations * (per_iter_update + per_iter_reduce),
        "volumes must be exactly schedule × iterations"
    );
    assert_eq!(res.stats.nphases(), res.iterations);
}

/// Updates are idempotent under Fig. 1 (copy semantics), which is why
/// two placements realizing "the same communications" at different
/// points still agree (§4).
#[test]
fn fig1_update_idempotent() {
    let mesh = gen2d::grid(6, 6);
    let part = partition2d(&mesh, 3, Method::Rcb);
    let d = decompose2d(&mesh, &part.part, 3, Pattern::FIG1);
    let global: Vec<f64> = (0..mesh.nnodes()).map(|i| i as f64).collect();
    let mut locals = d.scatter(EntityKind::Node, &global).unwrap();
    syncplace::overlap::check::apply_update(&d, &mut locals);
    let once = locals.clone();
    syncplace::overlap::check::apply_update(&d, &mut locals);
    assert_eq!(once, locals);
}

/// Assembly is NOT idempotent (Fig. 7's "updating it twice would
/// result in doubling the values") — the very reason the node-overlap
/// automaton refuses to treat coherent as a special case of partial.
#[test]
fn fig2_assembly_not_idempotent() {
    let mesh = gen2d::grid(6, 6);
    let part = partition2d(&mesh, 3, Method::Rcb);
    let d = decompose2d(&mesh, &part.part, 3, Pattern::FIG2);
    let mut locals: Vec<Vec<f64>> = d.submeshes.iter().map(|s| vec![1.0; s.nnodes()]).collect();
    syncplace::overlap::check::apply_assemble(&d, &mut locals);
    let once = locals.clone();
    syncplace::overlap::check::apply_assemble(&d, &mut locals);
    assert_ne!(once, locals, "double assembly must double shared values");
}
