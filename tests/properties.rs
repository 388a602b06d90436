//! Property-style tests over the whole stack: random meshes,
//! partitions and patterns must preserve the decomposition invariants,
//! communication semantics, and SPMD/sequential equivalence; random
//! straight-line programs must round-trip through the DSL. Driven by
//! deterministic seeded sweeps so the suite runs fully offline.

use syncplace::mesh::rng::SmallRng;
use syncplace::prelude::*;

const PATTERNS: [Pattern; 3] = [
    Pattern::FIG1,
    Pattern::FIG2,
    Pattern::ElementOverlap { layers: 2 },
];

const METHODS: [Method; 4] = [
    Method::Rcb,
    Method::Rib,
    Method::Greedy,
    Method::GreedyKl,
];

// ---------------------------------------------------------------------------
// Decomposition invariants on random meshes/partitions/patterns
// ---------------------------------------------------------------------------

#[test]
fn decomposition_invariants_hold() {
    let mut rng = SmallRng::seed_from_u64(0xDEC0);
    for _case in 0..24 {
        let nx = rng.range_usize(3, 12);
        let ny = rng.range_usize(3, 12);
        let seed = rng.next_u64() % 1000;
        let nparts = rng.range_usize(1, 7);
        let pattern = *rng.pick(&PATTERNS);
        let method = *rng.pick(&METHODS);
        let mesh = gen2d::perturbed_grid(nx, ny, 0.25, seed);
        let part = partition2d(&mesh, nparts, method);
        let d = decompose2d(&mesh, &part.part, nparts, pattern);
        syncplace::overlap::check::audit(&d).unwrap();
    }
}

#[test]
fn update_restores_coherence_on_random_data() {
    let mut rng = SmallRng::seed_from_u64(0xC0E);
    for _case in 0..24 {
        let nx = rng.range_usize(3, 10);
        let seed = rng.next_u64() % 1000;
        let nparts = rng.range_usize(2, 6);
        let mesh = gen2d::perturbed_grid(nx, nx, 0.2, seed);
        let part = partition2d(&mesh, nparts, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, nparts, Pattern::FIG1);
        let global: Vec<f64> = (0..d.nnodes_global).map(|i| (i as f64).sin()).collect();
        let mut locals = d.scatter(EntityKind::Node, &global).unwrap();
        // Corrupt every overlap slot, update, check.
        for s in &d.submeshes {
            for v in &mut locals[s.part as usize][s.n_kernel_nodes..s.nnodes()] {
                *v = f64::NAN;
            }
        }
        syncplace::overlap::check::apply_update(&d.node_update, &mut locals);
        assert!(syncplace::overlap::check::is_coherent(&d, &locals, 0.0));
    }
}

#[test]
fn scatter_gather_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x5CA7);
    for _case in 0..24 {
        let nx = rng.range_usize(3, 10);
        let seed = rng.next_u64() % 1000;
        let nparts = rng.range_usize(1, 6);
        let pattern = *rng.pick(&PATTERNS);
        let mesh = gen2d::perturbed_grid(nx, nx, 0.2, seed);
        let part = partition2d(&mesh, nparts, Method::Rcb);
        let d = decompose2d(&mesh, &part.part, nparts, pattern);
        let nodes: Vec<f64> = (0..d.nnodes_global).map(|i| i as f64 * 0.7).collect();
        let elems: Vec<f64> = (0..d.nelems_global).map(|i| i as f64 - 5.0).collect();
        let edges: Vec<f64> = (0..mesh.edges().keys.len()).map(|i| i as f64).collect();
        let globals = [
            (EntityKind::Node, nodes),
            (EntityKind::Tri, elems),
            (EntityKind::Edge, edges),
        ];
        for (kind, global) in globals {
            let locals = d.scatter(kind, &global).unwrap();
            assert_eq!(d.gather(kind, &locals), Some(global));
        }
    }
}

// ---------------------------------------------------------------------------
// SPMD ≡ sequential on random instances
// ---------------------------------------------------------------------------

#[test]
fn spmd_matches_sequential_random() {
    let mut rng = SmallRng::seed_from_u64(0x59D);
    for _case in 0..8 {
        let nx = rng.range_usize(5, 9);
        let seed = rng.next_u64() % 100;
        let nparts = rng.range_usize(2, 6);
        let fig2 = rng.flip();
        let prog = syncplace::ir::programs::testiv_with(12);
        let mesh = gen2d::perturbed_grid(nx, nx, 0.2, seed);
        let mut bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 1e-9);
        bindings.input_arrays.insert(
            prog.lookup("INIT").unwrap(),
            (0..mesh.nnodes())
                .map(|i| ((i as u64 * seed) % 13) as f64)
                .collect(),
        );
        let (pattern, automaton) = if fig2 {
            (Pattern::FIG2, fig7())
        } else {
            (Pattern::FIG1, fig6())
        };
        let (dfg, analysis) = analyze_program(
            &prog,
            &automaton,
            &SearchOptions {
                max_solutions: 4,
                ..Default::default()
            },
            &CostParams::default(),
        );
        assert!(analysis.legality.is_legal());
        let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
        let part = partition2d(&mesh, nparts, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, nparts, pattern);
        let seq = syncplace::runtime::run_sequential(&prog, &bindings);
        let res = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        assert!(syncplace::runtime::max_rel_error(&seq, &res) < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// DSL round-trip on randomly generated straight-line programs
// ---------------------------------------------------------------------------

/// A random scalar expression over the given variable names.
fn arb_expr_text(rng: &mut SmallRng, scalars: &[&str], depth: usize) -> String {
    if depth == 0 || rng.range_usize(0, 4) == 0 {
        return if rng.flip() {
            (*rng.pick(scalars)).to_string()
        } else {
            format!("{}.0", rng.range_usize(1, 100))
        };
    }
    match rng.range_usize(0, 5) {
        0 => format!(
            "({} + {})",
            arb_expr_text(rng, scalars, depth - 1),
            arb_expr_text(rng, scalars, depth - 1)
        ),
        1 => format!(
            "({} * {})",
            arb_expr_text(rng, scalars, depth - 1),
            arb_expr_text(rng, scalars, depth - 1)
        ),
        2 => format!(
            "({} - {})",
            arb_expr_text(rng, scalars, depth - 1),
            arb_expr_text(rng, scalars, depth - 1)
        ),
        3 => format!(
            "max({}, {})",
            arb_expr_text(rng, scalars, depth - 1),
            arb_expr_text(rng, scalars, depth - 1)
        ),
        _ => format!("sqrt(abs({}))", arb_expr_text(rng, scalars, depth - 1)),
    }
}

fn arb_scalar_program(rng: &mut SmallRng, max_stmts: usize) -> String {
    let n = rng.range_usize(1, max_stmts);
    let mut src =
        String::from("program rnd\n  input x : scalar\n  var y : scalar\n  output z : scalar\n");
    for i in 0..n {
        let lhs = ["y", "z"][i % 2];
        let e = arb_expr_text(rng, &["x", "y", "z"], 3);
        src.push_str(&format!("  {lhs} = {e}\n"));
    }
    src.push_str("end\n");
    src
}

#[test]
fn dsl_roundtrip_random_scalar_programs() {
    let mut rng = SmallRng::seed_from_u64(0xD51);
    for _case in 0..48 {
        let src = arb_scalar_program(&mut rng, 8);
        let p1 = parse(&src).unwrap();
        let printed = syncplace::ir::printer::to_dsl(&p1);
        let p2 = parse(&printed).unwrap();
        assert_eq!(p1, p2);
    }
}

#[test]
fn random_scalar_programs_evaluate_identically_after_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xE7A1);
    for _case in 0..48 {
        let src = arb_scalar_program(&mut rng, 6);
        let x = rng.range_f64(0.1, 10.0);
        let p = parse(&src).unwrap();
        let mut bindings = syncplace::runtime::Bindings::default();
        bindings.input_scalars.insert(p.lookup("x").unwrap(), x);
        let r1 = syncplace::runtime::run_sequential(&p, &bindings);
        let p2 = parse(&syncplace::ir::printer::to_dsl(&p)).unwrap();
        let r2 = syncplace::runtime::run_sequential(&p2, &bindings);
        let z = p.lookup("z").unwrap();
        assert_eq!(
            r1.output_scalars[z].to_bits(),
            r2.output_scalars[z].to_bits()
        );
    }
}
