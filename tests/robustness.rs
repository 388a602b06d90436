//! Robustness and invariance properties of the whole pipeline.

use syncplace::automata::predefined::element_overlap_2d_full;
use syncplace::prelude::*;

/// A node→node stencil program has NO placement under the node-overlap
/// pattern: its automaton offers no upward-gather transitions at all
/// (the neighbour of an owned node may live entirely on another
/// processor). The element-overlap pattern handles it.
#[test]
fn stencil_program_impossible_under_node_overlap() {
    let prog = parse(
        "program stencil\n  input A : node\n  output B : node\n  map NXT : node -> node [1]\n  forall i in node split { B(i) = A(NXT(i,1)) * 0.5 }\nend",
    )
    .unwrap();
    let (_, under_fig7) = analyze_program(
        &prog,
        &fig7(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(under_fig7.legality.is_legal());
    assert!(
        under_fig7.solutions.is_empty(),
        "node-overlap cannot serve upward gathers"
    );
    let (_, under_fig6) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(!under_fig6.solutions.is_empty());
}

/// A legal double-buffered stencil actually runs under element overlap:
/// the gather-up forces the kernel iteration domain.
#[test]
fn stencil_program_runs_with_custom_map() {
    use syncplace::runtime::bindings::{MapBinding, MapData};
    let prog = parse(
        "program stencil\n  input A : node\n  output B : node\n  map NXT : node -> node [1]\n  forall i in node split { B(i) = A(NXT(i,1)) * 0.5 }\nend",
    )
    .unwrap();
    let mesh = gen2d::perturbed_grid(8, 8, 0.2, 3);
    // NXT: each node's first neighbour through an edge.
    let adj = syncplace::mesh::reorder::node_adjacency(&mesh);
    let targets: Vec<u32> = (0..mesh.nnodes()).map(|n| adj.row(n)[0]).collect();
    let mut bindings = syncplace::runtime::Bindings::for_mesh(&prog, &mesh);
    bindings.maps.insert(
        prog.lookup("NXT").unwrap(),
        MapBinding::Custom(MapData { arity: 1, targets }),
    );
    bindings.input_arrays.insert(
        prog.lookup("A").unwrap(),
        (0..mesh.nnodes()).map(|i| (i % 9) as f64).collect(),
    );
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    let sol = &analysis.solutions[0];
    // The stencil loop must be kernel-restricted (gather-up).
    assert!(sol
        .domains
        .iter()
        .any(|(_, d)| *d == syncplace::placement::IterationDomain::Kernel));
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    for p in [2usize, 5] {
        let part = partition2d(&mesh, p, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        assert!(
            syncplace::runtime::max_rel_error(&seq, &res) < 1e-12,
            "P={p}"
        );
    }
}

/// Global node renumbering (RCM) changes nothing observable: the
/// sequential and SPMD results map through the permutation.
#[test]
fn results_invariant_under_rcm_renumbering() {
    use syncplace::mesh::reorder::{node_adjacency, permute_nodes2d, rcm};
    let prog = syncplace::ir::programs::testiv_with(8);
    let mesh = gen2d::perturbed_grid(8, 8, 0.2, 13);
    let perm = rcm(&node_adjacency(&mesh));
    let (pmesh, inv) = permute_nodes2d(&mesh, &perm);

    let run = |mesh: &Mesh2d, init: Vec<f64>| -> Vec<f64> {
        let mut b = syncplace::runtime::bindings::testiv_bindings(&prog, mesh, 0.0);
        b.input_arrays.insert(prog.lookup("INIT").unwrap(), init);
        let (dfg, analysis) = analyze_program(
            &prog,
            &fig6(),
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
        let part = partition2d(mesh, 4, Method::RcbKl);
        let d = decompose2d(mesh, &part.part, 4, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &b).unwrap();
        res.output_arrays[prog.lookup("RESULT").unwrap()].clone()
    };

    let init: Vec<f64> = (0..mesh.nnodes()).map(|i| (i % 6) as f64).collect();
    let pinit: Vec<f64> = (0..pmesh.nnodes())
        .map(|new| init[perm[new] as usize])
        .collect();
    let out = run(&mesh, init);
    let pout = run(&pmesh, pinit);
    for old in 0..mesh.nnodes() {
        let a = out[old];
        let b = pout[inv[old] as usize];
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "node {old}: {a} vs {b}"
        );
    }
}

/// The advection program's CFL max-reduction works end-to-end (the
/// Max allreduce path through placement, codegen and both comm layers).
#[test]
fn max_reduction_end_to_end() {
    let prog = parse(
        "program m\n  input A : node\n  output peak : scalar\n  output B : node\n  peak = 0.0\n  forall i in node split { peak = max(peak, A(i)) }\n  forall i in node split { B(i) = A(i) }\nend",
    )
    .unwrap();
    let mesh = gen2d::grid(7, 7);
    let mut b = syncplace::runtime::Bindings::for_mesh(&prog, &mesh);
    b.input_arrays.insert(
        prog.lookup("A").unwrap(),
        (0..mesh.nnodes())
            .map(|i| ((i * 37) % 101) as f64)
            .collect(),
    );
    let (dfg, analysis) = analyze_program(
        &prog,
        &element_overlap_2d_full(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let seq = syncplace::runtime::run_sequential(&prog, &b);
    let part = partition2d(&mesh, 4, Method::Greedy);
    let d = decompose2d(&mesh, &part.part, 4, Pattern::FIG1);
    let rr = Engine::RoundRobin.run(&prog, &spmd, &d, &b).unwrap();
    let ba = syncplace::Engine::Batched.run(&prog, &spmd, &d, &b).unwrap();
    let peak = prog.lookup("peak").unwrap();
    assert_eq!(rr.output_scalars[peak], seq.output_scalars[peak]);
    assert_eq!(ba.output_scalars[peak], seq.output_scalars[peak]);
    assert_eq!(rr.output_scalar_spread[peak], 0.0);
}

/// Empty and degenerate configurations don't wedge the pipeline.
#[test]
fn degenerate_configurations() {
    // A program with no loops at all.
    let prog =
        parse("program k\n  input a : scalar\n  output b : scalar\n  b = a * 2.0\nend").unwrap();
    let (_, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    assert_eq!(analysis.solutions.len(), 1);
    assert!(analysis.solutions[0].comm_sites.is_empty());
    let mut b = syncplace::runtime::Bindings::default();
    b.input_scalars.insert(prog.lookup("a").unwrap(), 21.0);
    let seq = syncplace::runtime::run_sequential(&prog, &b);
    assert_eq!(seq.output_scalars[prog.lookup("b").unwrap()], 42.0);
}

/// An update whose destinations are reachable both around the time
/// loop's back edge and past its cap exit cannot be covered by one
/// insertion point — the placement falls back to one site per
/// destination region, and the program still runs correctly.
#[test]
fn fallback_placement_with_split_update_sites() {
    let prog = parse(
        "program fallback\n  input A : node\n  output C : tri\n  output s : scalar\n  map SOM : tri -> node [3]\n  var X : node\n  var T : tri\n  forall i in node split { X(i) = A(i) }\n  iterate k max 4 {\n    forall i in tri split { T(i) = X(SOM(i,1)) }\n    s = 0.0\n    forall i in tri split { s = s + T(i) }\n    exit when s < 0.0\n    forall i in node split { X(i) = X(i) * 0.5 }\n  }\n  forall i in tri split { C(i) = X(SOM(i,2)) }\nend",
    )
    .unwrap();
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(
        analysis.legality.is_legal(),
        "{:?}",
        analysis.legality.errors
    );
    assert!(!analysis.solutions.is_empty());
    // Run it.
    let mesh = gen2d::perturbed_grid(7, 7, 0.2, 2);
    let mut b = syncplace::runtime::Bindings::for_mesh(&prog, &mesh);
    b.input_arrays.insert(
        prog.lookup("A").unwrap(),
        (0..mesh.nnodes()).map(|i| 1.0 + (i % 5) as f64).collect(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let seq = syncplace::runtime::run_sequential(&prog, &b);
    for p in [2usize, 4] {
        let part = partition2d(&mesh, p, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &b).unwrap();
        assert!(
            syncplace::runtime::max_rel_error(&seq, &res) < 1e-12,
            "P={p}"
        );
    }
}
