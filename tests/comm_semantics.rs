//! Focused tests of the communication semantics that the paper's
//! correctness argument rests on (§2.3), exercised through the whole
//! stack rather than the reference implementations.

use syncplace::prelude::*;
use syncplace_bench::setup;
use syncplace_suite::{assemble_groups, assembly_groups, reference_run};

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
    syncplace::overlap::check::apply_update(&d.node_update, &mut news);
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
    syncplace::overlap::check::apply_update(&d.node_update, &mut locals);
    let once = locals.clone();
    syncplace::overlap::check::apply_update(&d.node_update, &mut locals);
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


fn assert_bits_eq(tag: &str, want: &[Vec<f64>], got: &[Vec<f64>]) {
    let bits = |a: &[Vec<f64>]| -> Vec<Vec<u64>> {
        a.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
    };
    assert_eq!(bits(want), bits(got), "{tag}");
}

/// The reference assembly (`check::apply_assemble`, which runs the node
/// schedule) equals, bit for bit, an oracle that reads no schedule, on
/// random local arrays of node-overlap decompositions.
#[test]
fn node_overlap_assembly_matches_a_schedule_free_oracle() {
    let mut rng = syncplace::mesh::rng::SmallRng::seed_from_u64(50);
    let mesh = gen2d::perturbed_grid(17, 13, 0.2, 8);
    let box3 = gen3d::box_mesh(4, 4, 4);
    for np in [2, 3, 5, 8] {
        let part = partition2d(&mesh, np, Method::RcbKl);
        let d2 = decompose2d(&mesh, &part.part, np, Pattern::FIG2);
        let part = partition3d(&box3, np, Method::Rcb);
        let d3 = decompose3d(&box3, &part.part, np, Pattern::FIG2);
        let mut random = |nnodes: Vec<usize>| -> Vec<Vec<f64>> {
            let mut value = || rng.range_f64(-1.0, 1.0) * 10f64.powi((rng.next_u64() % 9) as i32 - 4);
            nnodes.into_iter().map(|n| (0..n).map(|_| value()).collect()).collect()
        };
        let l2 = random(d2.submeshes.iter().map(|s| s.nnodes()).collect());
        let l3 = random(d3.submeshes.iter().map(|s| s.nnodes()).collect());
        let (g2, g3) = (assembly_groups(&d2), assembly_groups(&d3));
        assert!(g2.iter().chain(&g3).any(|g| g.len() >= 3) || np == 2, "P = {np}: a node on three parts");
        for (tag, groups, locals) in [("2-D", &g2, &l2), ("3-D", &g3, &l3)] {
            let mut want = locals.clone();
            assemble_groups(groups, &mut want);
            let mut got = locals.clone();
            if tag == "2-D" {
                syncplace::overlap::check::apply_assemble(&d2, &mut got);
            } else {
                syncplace::overlap::check::apply_assemble(&d3, &mut got);
            }
            assert_bits_eq(&format!("{tag} P = {np}"), &want, &got);
        }
    }
}

fn assert_runs_bitwise(tag: &str, want: &syncplace::runtime::SpmdResult, got: &syncplace::runtime::SpmdResult) {
    assert_eq!(want.iterations, got.iterations, "{tag}: iterations");
    for (v, a) in want.output_arrays.iter() {
        assert_bits_eq(tag, std::slice::from_ref(a), std::slice::from_ref(&got.output_arrays[v]));
    }
    for (v, x) in want.output_scalars.iter() {
        assert_eq!(x.to_bits(), got.output_scalars[v].to_bits(), "{tag}: scalar v{v}");
    }
}

/// Every engine's node-overlap run is bit for bit the plan-free
/// reference run, whose assembly reads no schedule: TESTIV under fig. 7,
/// and the 3-D heat program under the 3-D node-overlap automaton.
#[test]
fn node_overlap_engines_match_the_oracle_run() {
    let assembles = |spmd: &syncplace::codegen::SpmdProgram| {
        let mut ops = spmd.phases().into_iter().flat_map(|p| p.1);
        ops.any(|op| matches!(op, syncplace::codegen::CommOp::AssembleShared { .. }))
    };
    let s = setup::testiv(9, 1e-9, &fig7());
    for np in [2, 3, 5, 8] {
        let (d, spmd) = setup::decompose(&s, np, Pattern::FIG2, 0);
        assert!(assembles(&spmd));
        let want = reference_run(&s.prog, &spmd, &d, &s.bindings);
        for engine in Engine::ALL {
            let got = engine.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
            assert_runs_bitwise(&format!("TESTIV P = {np} {engine:?}"), &want, &got);
        }
    }
    let prog = syncplace::ir::programs::tet_heat(20);
    let mesh = gen3d::box_mesh(4, 4, 4);
    let bindings = syncplace::runtime::bindings::tet_heat_bindings(&prog, &mesh, 1e-8);
    let automaton = syncplace::automata::predefined::node_overlap(3);
    let (dfg, analysis) = analyze_program(&prog, &automaton, &SearchOptions::default(), &CostParams::default());
    assert!(analysis.legality.is_legal() && !analysis.solutions.is_empty(), "tet_heat places under node overlap");
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    assert!(assembles(&spmd));
    for np in [2, 3, 5] {
        let part = partition3d(&mesh, np, Method::Rcb);
        let d = decompose3d(&mesh, &part.part, np, Pattern::FIG2);
        let want = reference_run(&prog, &spmd, &d, &bindings);
        for engine in Engine::ALL {
            let got = engine.run(&prog, &spmd, &d, &bindings).unwrap();
            assert_runs_bitwise(&format!("tet_heat P = {np} {engine:?}"), &want, &got);
        }
    }
}

/// A packing defect in the plan — one round-1 unpack of TESTIV × fig. 7
/// × Fig. 2 shifted by one slot — makes every engine that runs the plan,
/// round-robin included, differ from the plan-free reference run, and
/// the CommPlan auditor names it under exactly one code. The unpack is
/// that of a rank that both owns shared nodes and holds copies: its
/// shifted adds reach a slot that round 2 writes back, which is what
/// the plan-only auditor can see.
#[test]
fn a_shifted_recv1_unpack_is_caught_by_the_reference_and_the_auditor() {
    use syncplace::analyze::codes;
    let s = setup::testiv(9, 1e-9, &fig7());
    let (d, spmd) = setup::decompose(&s, 3, Pattern::FIG2, 0);
    let mut plan = syncplace::runtime::CommPlan::build(&s.prog, &spmd, &d);
    let mut ranks = plan.phases.iter_mut().flat_map(|ph| &mut ph.ranks);
    let rank = ranks.find(|rp| !rp.recv1.is_empty() && !rp.recv2.is_empty());
    let recv = &mut rank.expect("an owner that also holds copies").recv1[0];
    let unpack = recv.updates.iter_mut().chain(&mut recv.adds).find(|ru| !ru.dst.is_empty());
    unpack.expect("a non-empty unpack").dst.iter_mut().for_each(|slot| *slot += 1);

    let report = syncplace::analyze::audit(&s.prog, &s.analysis.solutions[0], &spmd, &plan);
    assert_eq!(report.codes(), [codes::WRITE_RACE], "{report}");

    let want = reference_run(&s.prog, &spmd, &d, &s.bindings);
    let plan = std::sync::Arc::new(plan);
    let bits = |r: &syncplace::runtime::SpmdResult| -> Vec<u64> {
        r.output_arrays.iter().flat_map(|(_, a)| a.iter().map(|x| x.to_bits())).collect()
    };
    for engine in [Engine::RoundRobin, Engine::Batched] {
        let got = engine.run_with(&s.prog, &spmd, &d, &s.bindings, Some(&plan), &None).unwrap();
        assert_ne!(bits(&want), bits(&got), "{}: the shifted unpack went unseen", engine.name());
    }
}
