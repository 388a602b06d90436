//! Cross-engine equivalence: every SPMD engine in `Engine::ALL`
//! (round-robin, batched zero-copy, overlapped split-phase) produces
//! outputs and iteration counts **bitwise identical** to the plan-free
//! reference run (`syncplace_suite::reference_run`) on every built-in
//! workload at P ∈ {1, 2, 4, 8}.
//!
//! Bitwise — not approximately — because the engines fix the same
//! combine orders everywhere: an assembled slot folds owner-first then
//! ascending rank, reductions combine up the shared binomial
//! tree in `comm::tree_fold` order. Any drift here is a bug, not
//! rounding.

use syncplace::automata::predefined::{element_overlap_2d_full, fig6, fig8};
use syncplace::prelude::*;
use syncplace::runtime::{Bindings, SpmdResult};
use syncplace::Engine;
use syncplace_suite::reference_run;

const PROCS: [usize; 4] = [1, 2, 4, 8];

fn assert_bitwise(name: &str, p: usize, engine: Engine, reference: &SpmdResult, r: &SpmdResult) {
    assert_eq!(
        reference.iterations, r.iterations,
        "{name} P={p} {}: iteration counts differ",
        engine.name()
    );
    for (v, a) in reference.output_arrays.iter() {
        let b = &r.output_arrays[v];
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{name} P={p} {}: array {v:?}[{i}] differs: {x:?} vs {y:?}",
                engine.name()
            );
        }
    }
    for (v, x) in reference.output_scalars.iter() {
        let y = r.output_scalars[v];
        assert!(
            x.to_bits() == y.to_bits(),
            "{name} P={p} {}: scalar {v:?} differs: {x:?} vs {y:?}",
            engine.name()
        );
    }
}

/// Op, phase and traffic counts are engine-independent: every engine
/// reads them off the one plan.
fn assert_stats(name: &str, p: usize, engine: Engine, reference: &SpmdResult, r: &SpmdResult) {
    assert_eq!(
        reference.stats.updates,
        r.stats.updates,
        "{name} P={p} {}: update op counts differ",
        engine.name()
    );
    assert_eq!(reference.stats.assembles, r.stats.assembles);
    assert_eq!(reference.stats.reduces, r.stats.reduces);
    assert_eq!(reference.stats.nphases(), r.stats.nphases());
    assert_eq!(
        r.stats.total_messages(),
        reference.stats.total_messages(),
        "{name} P={p} {}: message counts differ",
        engine.name()
    );
}

/// Run every engine on one placed program: each bitwise equal to the
/// plan-free reference run, with the stats of the first. Returns the
/// runs in `Engine::ALL` order.
fn check_engines<const V: usize>(
    name: &str,
    prog: &Program,
    spmd: &syncplace::codegen::SpmdProgram,
    d: &syncplace::overlap::Decomposition<V>,
    bindings: &Bindings,
) -> [SpmdResult; 3] {
    let p = d.nparts;
    let reference = reference_run(prog, spmd, d, bindings);
    let runs = Engine::ALL.map(|engine| engine.run(prog, spmd, d, bindings).unwrap());
    for (engine, r) in Engine::ALL.into_iter().zip(&runs) {
        assert_bitwise(name, p, engine, &reference, r);
        assert_stats(name, p, engine, &runs[0], r);
    }
    runs
}

fn check_2d(
    name: &str,
    prog: &Program,
    automaton: &OverlapAutomaton,
    bindings: &Bindings,
    mesh: &Mesh2d,
    pattern: Pattern,
) {
    let (dfg, analysis) = analyze_program(
        prog,
        automaton,
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal(), "{name}");
    let spmd = syncplace::codegen::spmd_program(prog, &dfg, &analysis.solutions[0]);
    // Output tables iterate in `prog.outputs()` order on every engine
    // and in the sequential run.
    let is_array = |&v: &usize| matches!(prog.decl(v).kind, syncplace::ir::VarKind::Array { .. });
    let array_outputs: Vec<usize> = prog.outputs().filter(is_array).collect();
    let ids = |t: &syncplace::ir::IdVec<Vec<f64>>| t.iter().map(|(v, _)| v).collect::<Vec<_>>();
    let seq = syncplace::runtime::run_sequential(prog, bindings);
    assert_eq!(ids(&seq.output_arrays), array_outputs, "{name}: sequential output order");
    for p in PROCS {
        let part = partition2d(mesh, p, Method::Greedy);
        let d = decompose2d(mesh, &part.part, p, pattern);
        let runs = check_engines(name, prog, &spmd, &d, bindings);
        for (engine, r) in Engine::ALL.into_iter().zip(&runs) {
            assert_eq!(ids(&r.output_arrays), array_outputs, "{name} P={p} {}", engine.name());
        }
    }
}

#[test]
fn testiv_all_engines_bitwise_identical() {
    let prog = syncplace::ir::programs::testiv();
    let mesh = gen2d::perturbed_grid(10, 10, 0.2, 7);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 1e-9);
    check_2d("testiv", &prog, &fig6(), &bindings, &mesh, Pattern::FIG1);
}

#[test]
fn testiv_fig2_all_engines_bitwise_identical() {
    let prog = syncplace::ir::programs::testiv();
    let mesh = gen2d::perturbed_grid(9, 9, 0.15, 3);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 1e-9);
    check_2d(
        "testiv/fig2",
        &prog,
        &syncplace::automata::predefined::fig7(),
        &bindings,
        &mesh,
        Pattern::FIG2,
    );
}

#[test]
fn edge_solver_all_engines_bitwise_identical() {
    let prog = syncplace::ir::programs::edge_smooth();
    let mesh = gen2d::perturbed_grid(9, 9, 0.15, 4);
    let x: Vec<f64> = (0..mesh.nnodes()).map(|i| ((i * 13) % 17) as f64).collect();
    let bindings = syncplace::runtime::bindings::edge_smooth_bindings(&prog, &mesh, x);
    check_2d(
        "edge_smooth",
        &prog,
        &element_overlap_2d_full(),
        &bindings,
        &mesh,
        Pattern::FIG1,
    );
}

#[test]
fn tet3d_all_engines_bitwise_identical() {
    let prog = syncplace::ir::programs::tet_heat(30);
    let mesh = gen3d::box_mesh(4, 4, 4);
    let bindings = syncplace::runtime::bindings::tet_heat_bindings(&prog, &mesh, 1e-8);
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig8(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    assert!(analysis.legality.is_legal());
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    for p in PROCS {
        let part = partition3d(&mesh, p, Method::Rib);
        let d = decompose3d(&mesh, &part.part, p, Pattern::FIG1);
        check_engines("tet_heat", &prog, &spmd, &d, &bindings);
    }
}

#[test]
fn engines_survive_back_to_back_runs_on_the_shared_pool() {
    // Both postings share one global worker pool; interleaved runs at
    // different P must not interfere.
    let prog = syncplace::ir::programs::testiv();
    let mesh = gen2d::perturbed_grid(8, 8, 0.1, 5);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 1e-9);
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let mut results = Vec::new();
    for &p in &[4usize, 2, 8, 4] {
        let part = partition2d(&mesh, p, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let ba = Engine::Batched.run(&prog, &spmd, &d, &bindings).unwrap();
        let ov = Engine::Overlapped.run(&prog, &spmd, &d, &bindings).unwrap();
        assert_bitwise("pool-reuse", p, Engine::Overlapped, &ba, &ov);
        results.push(ba);
    }
    // Same P twice → identical results both times.
    assert_bitwise(
        "pool-reuse",
        4,
        Engine::Batched,
        &results[0],
        &results[3],
    );
}

#[test]
fn concurrent_submitters_both_match_round_robin() {
    // Nothing serialises gangs any more: two threads run the pooled
    // engines at once, their ranks interleaving on the same W workers,
    // and each still gets round-robin's bits.
    use syncplace_bench::setup;
    let s = setup::testiv(10, 1e-9, &fig6());
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for (p, engine) in [(8usize, Engine::Batched), (5, Engine::Overlapped)] {
            let (s, start) = (&s, &start);
            scope.spawn(move || {
                let (d, spmd) = setup::decompose(s, p, Pattern::FIG1, 0);
                let reference = Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
                start.wait();
                for _ in 0..10 {
                    let r = engine.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
                    assert_bitwise("concurrent", p, engine, &reference, &r);
                }
            });
        }
    });
}

#[test]
fn sixty_four_ranks_spawn_no_threads() {
    // Was `workers() >= p`: a rank is a task now, and W is the host's.
    let prog = syncplace::ir::programs::testiv_with(3);
    let mesh = gen2d::perturbed_grid(24, 24, 0.1, 5);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let p = 64;
    let part = partition2d(&mesh, p, Method::Greedy);
    let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
    let reference = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
    for engine in [Engine::Batched, Engine::Overlapped] {
        let r = engine.run(&prog, &spmd, &d, &bindings).unwrap();
        assert_bitwise("P=64", p, engine, &reference, &r);
    }
    let cpus = std::thread::available_parallelism().unwrap().get();
    let w = syncplace::runtime::SpmdPool::global().workers();
    assert!((1..=cpus).contains(&w), "{w} workers on {cpus} cpus");
}

#[test]
fn exit_agreement_on_the_tree_matches_round_robin_when_ranks_disagree() {
    // With the reductions stripped (the §6 hand-placement error of
    // `claim_manual_errors_observable`) every rank tests its own
    // partial sum, so the decisions really differ. The pooled engines
    // carry them up and down the binomial tree; rank 0's decision must
    // rule and every disagreement be counted, as in the reference —
    // and the run must end.
    use syncplace_bench::setup;
    let s = setup::testiv(10, 2e-4, &fig6());
    let mut disagreed = 0;
    for p in [3usize, 4, 7] {
        let (d, mut spmd) = setup::decompose(&s, p, Pattern::FIG1, 0);
        for ops in spmd.comms_before.values_mut() {
            ops.retain(|o| !matches!(o, syncplace::codegen::CommOp::Reduce { .. }));
        }
        let rr = Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
        disagreed += rr.stats.divergent_exits;
        for engine in [Engine::Batched, Engine::Overlapped] {
            let r = engine.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
            assert_eq!(r.iterations, rr.iterations, "P={p} {}", engine.name());
            assert_eq!(
                r.stats.divergent_exits,
                rr.stats.divergent_exits,
                "P={p} {}",
                engine.name()
            );
        }
        if p == 4 {
            // The plan cannot prove the stripped test replicated, so the
            // tree runs at every executed test (one per iteration): up
            // and down its P−1 edges, two values a message.
            use syncplace::obs::{keys, MetricsRegistry};
            for engine in [Engine::Batched, Engine::Overlapped] {
                let reg = std::sync::Arc::new(MetricsRegistry::new(keys::ALL));
                let rec: syncplace::obs::RecorderRef = Some(reg.clone());
                let r = (engine.run_with(&s.prog, &spmd, &d, &s.bindings, None, &rec)).unwrap();
                let snap = reg.snapshot();
                let messages = (r.iterations * 2 * (p - 1)) as u64;
                assert_eq!(snap.counter(keys::EXIT_MESSAGES), messages, "{}", engine.name());
                assert_eq!(snap.counter(keys::EXIT_VALUES), 2 * messages, "{}", engine.name());
            }
        }
    }
    assert!(disagreed > 0, "the fixture must make ranks disagree");
}

/// A stencil through a custom node→node map, then a global sum (so
/// every rank has a tree partner to wait for). `NXT` is the identity
/// except at one node owned by — and local to — exactly one rank,
/// which it sends to a node that rank does not hold: that rank alone
/// trips `MapTable::get`'s placement-bug detector. Returns the rank.
fn one_rank_hits_an_absent_target(
    p: usize,
) -> (
    Program,
    syncplace::codegen::SpmdProgram,
    syncplace::overlap::Decomposition<3>,
    Bindings,
    usize,
) {
    use syncplace::runtime::bindings::{MapBinding, MapData};
    let prog = parse(
        "program trap\n  input A : node\n  output s : scalar\n  map NXT : node -> node [1]\n  var B : node\n  forall i in node split { B(i) = A(NXT(i,1)) * 0.5 }\n  s = 0.0\n  forall i in node split { s = s + B(i) }\nend",
    )
    .unwrap();
    let mesh = gen2d::perturbed_grid(10, 10, 0.2, 3);
    let part = partition2d(&mesh, p, Method::Greedy);
    let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
    let holders = |g: u32| d.submeshes.iter().filter(|s| s.nodes_l2g.contains(&g)).count();
    let (victim, from) = (0..p)
        .rev()
        .find_map(|r| {
            let s = &d.submeshes[r];
            let own = &s.nodes_l2g[..s.n_kernel_nodes];
            own.iter().find(|&&g| holders(g) == 1).map(|&g| (r, g))
        })
        .expect("some rank has an interior node");
    let to = (0..mesh.nnodes() as u32)
        .find(|g| !d.submeshes[victim].nodes_l2g.contains(g))
        .expect("no rank holds every node");
    let mut targets: Vec<u32> = (0..mesh.nnodes() as u32).collect();
    targets[from as usize] = to;
    let mut bindings = Bindings::for_mesh(&prog, &mesh);
    let nxt = prog.lookup("NXT").unwrap();
    bindings.maps.insert(nxt, MapBinding::Custom(MapData { arity: 1, targets }));
    let a = prog.lookup("A").unwrap();
    bindings.input_arrays.insert(a, (0..mesh.nnodes()).map(|i| (i % 9) as f64).collect());
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    (prog, spmd, d, bindings, victim)
}

#[test]
fn one_failing_rank_is_an_err_not_a_hang() {
    // Under one thread per rank a dying rank dropped its channel ends
    // and took its peers down with it; a suspended task has nobody to
    // wake it. The pool fails the gang instead: `Err` naming the rank
    // and its message, within the timeout, and the pool stays usable.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let p = 6;
        let (prog, spmd, d, bindings, victim) = one_rank_hits_an_absent_target(p);
        for engine in [Engine::Batched, Engine::Overlapped] {
            let why = engine.run(&prog, &spmd, &d, &bindings).unwrap_err();
            assert!(
                why.contains(&format!("rank {victim} ")) && why.contains("absent on this processor"),
                "{}: {why}",
                engine.name()
            );
        }
        // The next gang on the same pool runs clean.
        let prog = syncplace::ir::programs::testiv();
        let mesh = gen2d::perturbed_grid(8, 8, 0.1, 5);
        let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 1e-9);
        check_2d("after-failure", &prog, &fig6(), &bindings, &mesh, Pattern::FIG1);
        tx.send(()).unwrap();
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("a failed rank must fail its gang, not hang it (or the checks above panicked)");
}

/// One identity: an engine's name is what the daemon's wire carries and
/// what the model checker labels its program with — the same `Engine`
/// at all three ends.
#[test]
fn engine_name_round_trips_through_the_protocol_and_labels_its_mc_program() {
    use syncplace::analyze::mc;
    use syncplace_bench::setup;
    use syncplace_server::protocol::{parse_request, Request};

    let s = setup::testiv(9, 1e-3, &fig6());
    let (d, spmd) = setup::decompose(&s, 2, Pattern::FIG1, 0);
    let plan = syncplace::runtime::CommPlan::build(&s.prog, &spmd, &d);
    for engine in Engine::ALL {
        let line = format!(r#"{{"op":"run","program":"testiv","engine":"{}"}}"#, engine.name());
        match parse_request(&line).unwrap() {
            Request::Run(r) => assert_eq!(r.engine, engine),
            other => panic!("{line} parsed to {other:?}"),
        }
        if engine != Engine::RoundRobin {
            let label = mc::from_plan(&plan, engine, 1).label;
            assert_eq!(label, format!("{}:P2x1", engine.name()));
        }
    }
}

/// The alignment invariant of `SpmdResult::overlap`, on one value: the
/// overlapped engine logs one hidden-work entry per phase application,
/// and the other two hide nothing.
#[test]
fn overlap_report_is_aligned_with_phases_and_zero_unless_overlapped() {
    use syncplace_bench::setup;
    let s = setup::testiv(10, 1e-9, &fig6());
    let (d, spmd) = setup::decompose(&s, 4, Pattern::FIG1, 0);
    for engine in Engine::ALL {
        let res = engine.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
        let o = &res.overlap;
        if engine == Engine::Overlapped {
            assert_eq!(o.hidden_units.len(), res.stats.phases.len());
            assert!(o.total_hidden() > 0.0 && o.early_posts > 0 && o.early_phases > 0);
        } else {
            assert_eq!(
                (o.total_hidden(), o.early_posts, o.early_phases, o.split_phases),
                (0.0, 0, 0, 0),
                "{}",
                engine.name()
            );
        }
    }
}

/// The α/β model's per-engine ordering on the E22 configuration (32×32
/// TESTIV, each engine's result modeled as that engine, overlapped
/// discounted by the compute it kept in flight). Everything read here is derived
/// from the schedule, not from a clock, so the ratios are exact: today
/// 1.4991 / 1.5415 at P=8 and 2.6907 / 2.7297 at P=16, floored at
/// 0.9× — a drop means the model or the counters it reads regressed.
#[test]
fn modeled_time_vs_round_robin_holds_its_floors() {
    use syncplace::runtime::{estimate_engine, run_sequential, TimingModel};
    use syncplace_bench::setup;

    let s = setup::testiv(32, 1e-8, &fig6());
    let seq = run_sequential(&s.prog, &s.bindings);
    let model = TimingModel::default();
    for (p, batched_floor, overlapped_floor) in
        [(2, 1.0, 1.0), (4, 1.0, 1.0), (8, 1.35, 1.39), (16, 2.42, 2.46)]
    {
        let (d, spmd) = setup::decompose(&s, p, Pattern::FIG1, 0);
        let [t_rr, t_ba, t_ov] = Engine::ALL.map(|engine| {
            let res = engine.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
            estimate_engine(&seq, &res, &model, engine).t_par
        });
        let (vs_ba, vs_ov) = (t_rr / t_ba, t_rr / t_ov);
        assert!(vs_ba >= batched_floor - 1e-9, "P={p} batched {vs_ba:.4} < {batched_floor}");
        assert!(vs_ov >= overlapped_floor - 1e-9, "P={p} overlapped {vs_ov:.4} < {overlapped_floor}");
        assert!(vs_ov >= vs_ba - 1e-9, "P={p} overlapped {vs_ov:.4} < batched {vs_ba:.4}");
    }
}

/// A program whose only mention of edges is a `forall e in edge` loop
/// still gets the mesh's edge count from its bindings (the sequential
/// run counts them), and the reference engine reproduces the
/// sequential run bit for bit.
#[test]
fn edge_loop_only_program_counts_edges_and_matches_sequential() {
    use syncplace::runtime::{bindings::kind_index, run_sequential};
    let prog = parse(
        "program edgeloop\n  input X : node\n  output Y : node\n  output n : scalar\n  n = 0.0\n  forall e in edge split { n = n + 1.0 }\n  forall i in node split { Y(i) = X(i) * n }\nend",
    )
    .unwrap();
    let mesh = gen2d::perturbed_grid(9, 7, 0.2, 5);
    let nedges = mesh.edges().keys.len();
    let mut bindings = Bindings::for_mesh(&prog, &mesh);
    assert_eq!(bindings.counts[kind_index(EntityKind::Edge)], nedges);
    let x: Vec<f64> = (0..mesh.nnodes()).map(|i| ((i * 7) % 11) as f64).collect();
    bindings.input_arrays.insert(prog.lookup("X").unwrap(), x);
    let seq = run_sequential(&prog, &bindings);
    let n = prog.lookup("n").unwrap();
    assert_eq!(seq.output_scalars[n], nedges as f64);

    let (dfg, analysis) = analyze_program(
        &prog,
        &element_overlap_2d_full(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for p in PROCS {
        let part = partition2d(&mesh, p, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let r = Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        for (v, a) in seq.output_arrays.iter() {
            assert_eq!(bits(a), bits(&r.output_arrays[v]), "P={p} array {v}");
        }
        for (v, x) in seq.output_scalars.iter() {
            let y = r.output_scalars[v];
            assert_eq!(x.to_bits(), y.to_bits(), "P={p} scalar {v}");
        }
    }
}

/// Every engine on the first six placements of `src`, under Fig. 1
/// (fig6) and Fig. 2 (fig7) overlap at P ∈ {2, 3, 4}: bitwise equal to
/// the plan-free reference run, and matching the sequential run. Input `A` is
/// `1 + i mod 5`; an input `eps` is 0.15 × the first sweep's sum of
/// `A` over every triangle's first two corners. Returns the sequential
/// iteration count.
fn first_placements_agree(name: &str, src: &str) -> usize {
    use syncplace::automata::predefined::fig7;
    let prog = parse(src).unwrap();
    let mesh = gen2d::perturbed_grid(7, 7, 0.2, 2);
    let mut b = Bindings::for_mesh(&prog, &mesh);
    let a: Vec<f64> = (0..mesh.nnodes()).map(|i| 1.0 + (i % 5) as f64).collect();
    if let Some(eps) = prog.lookup("eps") {
        let sum: f64 = mesh.som().iter().map(|t| a[t[0] as usize] + a[t[1] as usize]).sum();
        b.input_scalars.insert(eps, 0.15 * sum);
    }
    b.input_arrays.insert(prog.lookup("A").unwrap(), a);
    let seq = syncplace::runtime::run_sequential(&prog, &b);
    for (automaton, pattern) in [(fig6(), Pattern::FIG1), (fig7(), Pattern::FIG2)] {
        let opts = (SearchOptions::default(), CostParams::default());
        let (dfg, analysis) = analyze_program(&prog, &automaton, &opts.0, &opts.1);
        assert!(!analysis.solutions.is_empty(), "{name} {pattern:?}: no placement");
        for (si, sol) in analysis.solutions.iter().take(6).enumerate() {
            let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
            for p in [2usize, 3, 4] {
                let part = partition2d(&mesh, p, Method::Greedy);
                let d = decompose2d(&mesh, &part.part, p, pattern);
                let tag = format!("{name} {pattern:?} s{si}");
                let [rr, ..] = check_engines(&tag, &prog, &spmd, &d, &b);
                let err = syncplace::runtime::max_rel_error(&seq, &rr);
                assert!(err < 1e-12, "{tag} P={p}: {err}");
            }
        }
    }
    seq.iterations
}

/// The placement that falls back to one update site per destination
/// region (an update reached both around the back edge and past the
/// exit) runs alike on every engine.
#[test]
fn fallback_placement_runs_alike_on_every_engine() {
    let src = "program fallback\n  input A : node\n  output C : tri\n  output s : scalar\n  \
               map SOM : tri -> node [3]\n  var X : node\n  var T : tri\n  \
               forall i in node split { X(i) = A(i) }\n  iterate k max 4 {\n    \
               forall i in tri split { T(i) = X(SOM(i,1)) }\n    s = 0.0\n    \
               forall i in tri split { s = s + T(i) }\n    exit when s < 0.0\n    \
               forall i in node split { X(i) = X(i) * 0.5 }\n  }\n  \
               forall i in tri split { C(i) = X(SOM(i,2)) }\nend";
    assert_eq!(first_placements_agree("fallback", src), 4);
}

/// Two time loops in a row, the first left by its exit test after four
/// of six iterations, the second run to its cap of three: each loop's
/// head and tail on the tape, and the exit's jump past the first tail.
#[test]
fn consecutive_time_loops_with_an_exit_run_alike_on_every_engine() {
    let src = "program twoloops\n  input A : node\n  input eps : scalar\n  output C : node\n  \
               output s : scalar\n  map SOM : tri -> node [3]\n  var X : node\n  var T : tri\n  \
               forall i in node split { X(i) = A(i) }\n  iterate k max 6 {\n    \
               forall i in tri split { T(i) = X(SOM(i,1)) + X(SOM(i,2)) }\n    s = 0.0\n    \
               forall i in tri split { s = s + T(i) }\n    exit when s < eps\n    \
               forall i in node split { X(i) = X(i) * 0.5 }\n  }\n  iterate m max 3 {\n    \
               forall i in tri split { T(i) = X(SOM(i,3)) * 0.5 }\n    \
               forall i in node split { X(i) = X(i) + 1.0 }\n  }\n  \
               forall i in node split { C(i) = X(i) }\nend";
    assert_eq!(first_placements_agree("two loops", src), 4 + 3);
}
