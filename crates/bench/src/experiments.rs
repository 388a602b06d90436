//! The experiments, one per evaluation artifact of the paper.
//!
//! Every function returns the printable report that the `reproduce`
//! binary emits; EXPERIMENTS.md archives the outputs next to what the
//! paper shows.

use crate::setup;
use crate::{push_verdict, table};
use syncplace::automata::predefined::{element_overlap_2d_full, fig6, fig6_from_fig8, fig7, fig8};
use syncplace::automata::CommKind;
use syncplace::overlap::Pattern;
use syncplace::placement::SearchOptions;
use syncplace::runtime::TimingModel;

/// Experiment scale: `Quick` for tests, `Paper` for the binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for tests and the CI gate.
    Quick,
    /// Full sizes matching the committed artifacts.
    Paper,
}

impl Scale {
    /// TESTIV grid edge length at this scale.
    pub fn mesh_n(self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Paper => 24,
        }
    }

    /// Stable lowercase name, as written into `PROFILE_runtime.json`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

// ---------------------------------------------------------------------------
// E1 — Fig. 5 / §3.3: the walkthrough on the program sketch
// ---------------------------------------------------------------------------

/// E1: state propagation over the Fig. 5 sketch — the tool must find
/// the update on `NEW` between its scatter and the final gather, and
/// the total-sum communication on `sqrdiff`.
pub fn e1_sketch() -> String {
    let prog = syncplace::ir::programs::fig5_sketch();
    let (dfg, analysis) = setup::analyze(&prog, &fig6());
    let mut out = String::from("E1 — Fig. 5 sketch (§3.3 walkthrough)\n\n");
    out.push_str(&format!(
        "legal: {}   distinct placements: {}\n\n",
        analysis.legality.is_legal(),
        analysis.solutions.len()
    ));
    let best = &analysis.solutions[0];
    out.push_str("best placement:\n");
    out.push_str(&format!(
        "  {}\n\n",
        syncplace::codegen::summarize(&prog, best)
    ));
    // The narrative of §3.3 in terms of mapped states.
    let new = prog.lookup("NEW").unwrap();
    let sq = prog.lookup("sqrdiff").unwrap();
    out.push_str("flowing-data states along the §3.3 narrative:\n");
    for (i, node) in dfg.nodes.iter().enumerate() {
        use syncplace::dfg::NodeKind;
        let var = match &node.kind {
            NodeKind::Def { var, .. } => Some(*var),
            _ => None,
        };
        if var == Some(new) || var == Some(sq) {
            out.push_str(&format!(
                "  {:<24} : {}\n",
                dfg.describe(&prog, i),
                best.mapping.node_state[i]
            ));
        }
    }
    out.push_str("\nannotated listing:\n");
    out.push_str(&syncplace::codegen::annotate(&prog, best));
    out
}

// ---------------------------------------------------------------------------
// E2 — Figs. 6, 7, 8: the overlap automata
// ---------------------------------------------------------------------------

/// E2: print the three predefined automata and check the §3.4
/// derivation of Fig. 6 from Fig. 8 by state-forgetting.
pub fn e2_automata() -> String {
    let mut out = String::from("E2 — overlap automata (Figs. 6, 7, 8)\n\n");
    for a in [fig6(), fig7(), fig8()] {
        out.push_str(&a.to_table());
        out.push('\n');
    }
    // The derivation claim, compared at the paper's thick/thin
    // granularity.
    let collapse = |a: &syncplace::automata::OverlapAutomaton| {
        a.transitions
            .iter()
            .map(|t| (t.from, t.class.is_thin(), t.to, t.comm))
            .collect::<std::collections::BTreeSet<_>>()
    };
    let same = collapse(&fig6_from_fig8()) == collapse(&fig6());
    out.push_str(&format!(
        "derivation check (§3.4): restrict(fig8, {{Sca,Tri0,Nod}}) == fig6 (thick/thin level): {same}\n"
    ));
    out
}

// ---------------------------------------------------------------------------
// E3 — Fig. 4: the dependence-legality taxonomy
// ---------------------------------------------------------------------------

/// E3: one mini-program per Fig. 4 case; the checker's verdicts must
/// match the paper's table of allowed/forbidden dependences.
pub fn e3_legality() -> String {
    let mut rows = Vec::new();
    let mut all_match = true;
    for case in syncplace::ir::programs::taxonomy() {
        let dfg = syncplace::dfg::build(&case.program);
        let report = syncplace::placement::check_legality(&case.program, &dfg);
        let verdict = report.is_legal();
        all_match &= verdict == case.legal;
        rows.push(vec![
            case.name.to_string(),
            case.fig4_case.to_string(),
            if case.legal { "accept" } else { "reject" }.into(),
            if verdict { "accept" } else { "reject" }.into(),
            if verdict == case.legal {
                "ok"
            } else {
                "MISMATCH"
            }
            .into(),
            format!(
                "loc={} red={}",
                report.removed_by_localization, report.excused_by_reduction
            ),
        ]);
    }
    format!(
        "E3 — Fig. 4 legality taxonomy\n\n{}\nall verdicts match the paper: {all_match}\n",
        table(
            &["case", "fig4", "expected", "verdict", "match", "removals"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// E4 / E5 — Figs. 9 and 10: the two generated TESTIV placements
// ---------------------------------------------------------------------------

/// E4+E5: enumerate TESTIV's placements; print the Fig. 9-style
/// (grouped update+reduce before the test) and Fig. 10-style (OLD
/// update at the loop head, kernel-restricted copies, final RESULT
/// update) listings, then execute both on a partitioned mesh and check
/// numerical equivalence with the sequential run.
pub fn e4_e5_testiv(scale: Scale) -> String {
    let s = setup::testiv(scale.mesh_n(), 1e-7, &fig6());
    let mut out = String::from("E4/E5 — TESTIV placements (Figs. 9–10)\n\n");
    out.push_str(&format!(
        "legal: {}  |  distinct placements found: {}  |  search visits: {}\n\n",
        s.analysis.legality.is_legal(),
        s.analysis.solutions.len(),
        s.analysis.stats.visits
    ));
    let fig9_idx = 0usize;
    let fig10_idx = setup::fig10_style_index(&s).expect("fig10-style solution exists");
    for (label, idx) in [
        ("Fig. 9-style (rank 0)", fig9_idx),
        ("Fig. 10-style", fig10_idx),
    ] {
        let sol = &s.analysis.solutions[idx];
        out.push_str(&format!(
            "--- {label}: {}\n",
            syncplace::codegen::summarize(&s.prog, sol)
        ));
        out.push_str(&syncplace::codegen::annotate(&s.prog, sol));
        out.push('\n');
    }
    // Execute both.
    let seq = syncplace::runtime::run_sequential(&s.prog, &s.bindings);
    let mut rows = Vec::new();
    for (label, idx) in [("fig9-style", fig9_idx), ("fig10-style", fig10_idx)] {
        let (d, spmd) = setup::decompose(&s, 4, Pattern::FIG1, idx);
        let res = syncplace::Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
        let err = syncplace::runtime::max_rel_error(&seq, &res);
        rows.push(vec![
            label.to_string(),
            format!("{}", res.stats.nphases()),
            format!("{}", res.stats.total_values()),
            format!("{}", res.iterations),
            format!("{err:.2e}"),
        ]);
    }
    out.push_str(&table(
        &[
            "placement",
            "comm phases",
            "values moved",
            "iters",
            "max rel err vs seq",
        ],
        &rows,
    ));
    out
}

// ---------------------------------------------------------------------------
// E6 — §2.4: the speedup band of the reference application
// ---------------------------------------------------------------------------

/// E6: modeled speedup of the placed TESTIV time step, P = 1..32.
/// The paper's reference application reports 20–26× at P = 32; the
/// same latency/bandwidth ratio reproduces that band.
pub fn e6_speedup(scale: Scale) -> String {
    let n = match scale {
        Scale::Quick => 32,
        Scale::Paper => 128,
    };
    let iters = match scale {
        Scale::Quick => 3,
        Scale::Paper => 5,
    };
    // Fixed iteration count so every P does identical numerical work.
    let prog = syncplace::ir::programs::testiv_with(iters);
    let mesh = syncplace::mesh::gen2d::perturbed_grid(n, n, 0.2, 42);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);
    let (dfg, analysis) = setup::analyze(&prog, &fig6());
    let sol = &analysis.solutions[0];
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    // Calibration: one interpreter unit of the TESTIV kernel stands
    // for ~4 machine flops of the reference application's much heavier
    // Navier-Stokes flux kernel; α/flop ≈ 250 matches the ~100 µs
    // message latencies vs ~10 Mflop/s nodes of the paper's era.
    let model = TimingModel {
        flop: 4.0,
        alpha: 1000.0,
        beta: 4.0,
    };

    let mut rows = Vec::new();
    let mut s32 = 0.0;
    for p in [1usize, 2, 4, 8, 16, 32] {
        let part = syncplace::partition::partition2d(&mesh, p, syncplace::partition::Method::RcbKl);
        let d = syncplace::overlap::decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let res = syncplace::Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        let t = syncplace::runtime::timing::estimate(&seq, &res, &model);
        if p == 32 {
            s32 = t.speedup;
        }
        rows.push(vec![
            format!("{p}"),
            format!("{:.0}", t.compute_max),
            format!("{:.0}", t.comm),
            format!("{:.1}", t.speedup),
            format!("{:.0}%", 100.0 * t.efficiency),
        ]);
    }
    format!(
        "E6 — speedup shape (§2.4: paper's reference app reports 20–26× at P=32)\n\
         mesh: {n}x{n} perturbed grid ({} triangles), {iters} time steps, α/β/flop = {}/{}/{}\n\n{}\n\
         speedup at P=32: {s32:.1} (paper band for the full CFD app: 20–26)\n",
        mesh.ntris(),
        model.alpha,
        model.beta,
        model.flop,
        table(
            &["P", "max compute", "comm time", "speedup", "efficiency"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// E7 — §2.3: overlapping-pattern trade-off (Fig. 1 vs Fig. 2)
// ---------------------------------------------------------------------------

/// E7: redundant computation (duplicated elements) of the Fig. 1
/// pattern vs the extra communication of the Fig. 2 pattern, over
/// processor counts, plus the two-layer variant's wider overlap.
pub fn e7_patterns(scale: Scale) -> String {
    let n = scale.mesh_n() * 2;
    let mesh = syncplace::mesh::gen2d::perturbed_grid(n, n, 0.2, 13);
    let mut rows = Vec::new();
    for p in [2usize, 4, 8, 16] {
        let part =
            syncplace::partition::partition2d(&mesh, p, syncplace::partition::Method::GreedyKl);
        for pattern in [
            Pattern::FIG1,
            Pattern::ElementOverlap { layers: 2 },
            Pattern::FIG2,
        ] {
            let d = syncplace::overlap::decompose2d(&mesh, &part.part, p, pattern);
            let dup = d.total_overlap_elems();
            let redundancy = 100.0 * dup as f64 / d.nelems_global as f64;
            let (vals, msgs) = match pattern {
                Pattern::NodeOverlap => (
                    d.node_assemble.total_values(),
                    d.node_assemble.total_messages(),
                ),
                _ => (d.node_update.total_values(), d.node_update.total_messages()),
            };
            rows.push(vec![
                format!("{p}"),
                pattern.name().to_string(),
                format!("{dup}"),
                format!("{redundancy:.1}%"),
                format!("{vals}"),
                format!("{msgs}"),
            ]);
        }
    }
    format!(
        "E7 — overlapping-pattern trade-off (§2.3)\n\
         mesh: {n}x{n} ({} triangles). Fig. 1 buys grouped comms with redundant\n\
         compute; Fig. 2 computes nothing twice but moves ~2x values per exchange.\n\n{}",
        mesh.ntris(),
        table(
            &[
                "P",
                "pattern",
                "dup elems",
                "redundancy",
                "values/exchange",
                "msgs/exchange"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// E8 — §5.1: inspector/executor baseline
// ---------------------------------------------------------------------------

/// E8: PARTI-style inspector/executor vs the static placement: comm
/// phases per time step, values moved, inspector overhead, and
/// equivalence of both with the sequential run.
pub fn e8_inspector(scale: Scale) -> String {
    let s = setup::testiv(scale.mesh_n(), 1e-7, &fig6());
    let seq = syncplace::runtime::run_sequential(&s.prog, &s.bindings);
    let mut rows = Vec::new();
    for p in [2usize, 4, 8] {
        let (d, spmd) = setup::decompose(&s, p, Pattern::FIG1, 0);
        let placed = syncplace::Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
        let insp = syncplace::inspector::run_inspector_executor(&s.prog, &d, &s.bindings).unwrap();
        let err_placed = syncplace::runtime::max_rel_error(&seq, &placed);
        let err_insp = syncplace::runtime::max_rel_error(&seq, &insp.result);
        let placed_phases = placed.stats.nphases() as f64 / placed.iterations as f64;
        rows.push(vec![
            format!("{p}"),
            format!("{placed_phases:.1}"),
            format!("{:.1}", insp.phases_per_iteration),
            format!("{}", placed.stats.total_values()),
            format!("{}", insp.result.stats.total_values()),
            format!("{}", insp.inspect_cost),
            format!("{err_placed:.1e}/{err_insp:.1e}"),
        ]);
    }
    format!(
        "E8 — inspector/executor baseline (§5.1)\n\
         \"In inspector/executor methods, the overlap width is minimal, and therefore\n\
         communications must be done between each split loops.\"\n\n{}",
        table(
            &[
                "P",
                "phases/iter (placed)",
                "phases/iter (inspector)",
                "values (placed)",
                "values (inspector)",
                "inspect cost",
                "max err"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// E9 — §5.2: search-cost ablation (chain collapse)
// ---------------------------------------------------------------------------

/// E9: propagation visits with and without the §5.2 state-preserving
/// chain merge, on growing synthetic programs.
pub fn e9_dfgreduce(scale: Scale) -> String {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[2, 6, 10],
        Scale::Paper => &[2, 6, 10, 20, 40],
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let prog = setup::chain_program(n);
        let dfg = syncplace::dfg::build(&prog);
        let opts_collapse = SearchOptions {
            max_solutions: 16,
            ..Default::default()
        };
        let opts_plain = SearchOptions {
            collapse_deterministic: false,
            ..opts_collapse.clone()
        };
        let (s1, st1) = syncplace::placement::enumerate(&dfg, &fig6(), &opts_plain);
        let (s2, st2) = syncplace::placement::enumerate(&dfg, &fig6(), &opts_collapse);
        assert_eq!(s1.len(), s2.len());
        rows.push(vec![
            format!("{n}"),
            format!("{}", dfg.arrows.len()),
            format!("{}", st1.visits),
            format!("{}", st2.visits),
            format!("{:.2}x", st1.visits as f64 / st2.visits.max(1) as f64),
        ]);
    }
    format!(
        "E9 — §5.2 ablation: merging state-preserving dependence chains\n\n{}",
        table(
            &[
                "chain length",
                "dfg arrows",
                "visits (plain)",
                "visits (merged)",
                "saving"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// E10 — Fig. 8 / §3.4: 3-D placement and execution
// ---------------------------------------------------------------------------

/// E10: the 3-D tet-mesh program analyzed with the Fig. 8 automaton,
/// executed SPMD on a decomposed box mesh.
pub fn e10_tet3d(scale: Scale) -> String {
    let n = match scale {
        Scale::Quick => 4,
        Scale::Paper => 8,
    };
    let setup::Setup {
        prog,
        mesh,
        bindings,
        dfg,
        analysis,
    } = setup::tet_heat(n);
    let mut out = format!(
        "E10 — 3-D placement (Fig. 8 automaton)\n\nlegal: {}  placements: {}\n\n",
        analysis.legality.is_legal(),
        analysis.solutions.len()
    );
    let sol = &analysis.solutions[0];
    out.push_str(&syncplace::codegen::annotate(&prog, sol));
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let mut rows = Vec::new();
    for p in [2usize, 4] {
        let part = syncplace::partition::partition3d(&mesh, p, syncplace::partition::Method::Rcb);
        let d = syncplace::overlap::decompose3d(&mesh, &part.part, p, Pattern::FIG1);
        let res = syncplace::Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        let err = syncplace::runtime::max_rel_error(&seq, &res);
        rows.push(vec![
            format!("{p}"),
            format!("{}", d.total_overlap_elems()),
            format!("{}", res.stats.nphases()),
            format!("{err:.2e}"),
        ]);
    }
    out.push('\n');
    out.push_str(&table(
        &["P", "dup tets", "comm phases", "max rel err vs seq"],
        &rows,
    ));
    out
}

// ---------------------------------------------------------------------------
// E12 — §6: catching hand-placement errors
// ---------------------------------------------------------------------------

/// E12: seed the classic manual-transformation errors into a valid
/// placement; the simulation-mode checker must reject each, and the
/// runtime shows the numerical damage ("a small imprecision of the
/// result, and/or a different convergence rate").
pub fn e12_checker(scale: Scale) -> String {
    // A reachable threshold: the run converges mid-way, so a missing
    // reduction visibly changes the convergence behaviour (§6).
    let s = setup::testiv(scale.mesh_n(), 2e-4, &fig6());
    let seq = syncplace::runtime::run_sequential(&s.prog, &s.bindings);
    let sol0 = &s.analysis.solutions[0];

    // The valid comm-arrow set.
    let valid: std::collections::HashSet<usize> = sol0
        .mapping
        .arrow_transition
        .iter()
        .enumerate()
        .filter(|(_, t)| t.map(|t| t.comm.is_some()).unwrap_or(false))
        .map(|(i, _)| i)
        .collect();

    let mut rows = Vec::new();
    // Case 0: the valid placement.
    // Case 1..: drop each communication arrow group in turn.
    let mut cases: Vec<(String, std::collections::HashSet<usize>)> =
        vec![("valid placement".into(), valid.clone())];
    let update_arrows: Vec<usize> = valid
        .iter()
        .copied()
        .filter(|&i| {
            sol0.mapping.arrow_transition[i]
                .map(|t| t.comm == Some(CommKind::UpdateOverlap))
                .unwrap_or(false)
        })
        .collect();
    let update_set: std::collections::HashSet<usize> = update_arrows.iter().copied().collect();
    let reduce_arrows: Vec<usize> = valid.difference(&update_set).copied().collect();
    let mut dropped_update = valid.clone();
    for a in &update_arrows {
        dropped_update.remove(a);
    }
    cases.push(("missing array update".into(), dropped_update));
    let mut dropped_reduce = valid.clone();
    for a in &reduce_arrows {
        dropped_reduce.remove(a);
    }
    cases.push(("missing reduction".into(), dropped_reduce));

    for (label, comm_set) in &cases {
        let checker_ok =
            syncplace::placement::checker::check_placement(&s.dfg, &fig6(), comm_set).is_ok();
        // Runtime damage: strip the corresponding CommOps.
        let (d, mut spmd) = setup::decompose(&s, 4, Pattern::FIG1, 0);
        if label.contains("update") {
            for ops in spmd.comms_before.values_mut() {
                ops.retain(|o| !matches!(o, syncplace::codegen::CommOp::UpdateOverlap { .. }));
            }
            spmd.comms_at_end
                .retain(|o| !matches!(o, syncplace::codegen::CommOp::UpdateOverlap { .. }));
        }
        if label.contains("reduction") {
            for ops in spmd.comms_before.values_mut() {
                ops.retain(|o| !matches!(o, syncplace::codegen::CommOp::Reduce { .. }));
            }
        }
        let res = syncplace::Engine::RoundRobin.run(&s.prog, &spmd, &d, &s.bindings).unwrap();
        let err = syncplace::runtime::max_rel_error(&seq, &res);
        rows.push(vec![
            label.clone(),
            if checker_ok { "accepted" } else { "REJECTED" }.into(),
            format!("{err:.2e}"),
            format!("{} vs {}", res.iterations, seq.iterations),
            format!("{}", res.stats.divergent_exits),
        ]);
    }
    format!(
        "E12 — simulation-mode checking of given placements (§5.2, §6)\n\n{}",
        table(
            &[
                "placement",
                "checker",
                "max rel err",
                "iters (spmd vs seq)",
                "divergent exits"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// E13 — edge-based programs (the other loop shape of §2.1)
// ---------------------------------------------------------------------------

/// E13: the edge-based gather–scatter solver, analyzed with the full
/// 2-D element-overlap automaton (edge states included) and executed
/// SPMD.
pub fn e13_edges(scale: Scale) -> String {
    let n = scale.mesh_n();
    let prog = syncplace::ir::programs::edge_smooth();
    let mesh = syncplace::mesh::gen2d::perturbed_grid(n, n, 0.2, 5);
    let x: Vec<f64> = (0..mesh.nnodes()).map(|i| (i % 9) as f64).collect();
    let bindings = syncplace::runtime::bindings::edge_smooth_bindings(&prog, &mesh, x);
    let (dfg, analysis) = setup::analyze(&prog, &element_overlap_2d_full());
    let mut out = format!(
        "E13 — edge-based gather–scatter (full 2-D automaton with Edg states)\n\n\
         legal: {}  placements: {}\n\n",
        analysis.legality.is_legal(),
        analysis.solutions.len()
    );
    let sol = &analysis.solutions[0];
    out.push_str(&syncplace::codegen::annotate(&prog, sol));
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let mut rows = Vec::new();
    for p in [2usize, 4] {
        let part =
            syncplace::partition::partition2d(&mesh, p, syncplace::partition::Method::Greedy);
        let d = syncplace::overlap::decompose2d(&mesh, &part.part, p, Pattern::FIG1);
        let res = syncplace::Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        let err = syncplace::runtime::max_rel_error(&seq, &res);
        rows.push(vec![
            format!("{p}"),
            format!("{}", res.stats.nphases()),
            format!("{err:.2e}"),
        ]);
    }
    out.push('\n');
    out.push_str(&table(&["P", "comm phases", "max rel err vs seq"], &rows));
    out
}

// ---------------------------------------------------------------------------
// E14 — §3.1/§5.1 extension: two-layer overlap amortizes the update
// ---------------------------------------------------------------------------

/// E14: unroll the TESTIV time loop by 2 and analyze against the
/// two-layer overlap automaton (stratified staleness `Nod0/Nod1/Nod2`):
/// one overlap update now serves **two** time steps — the §5.1
/// amortization ("the user may want to regroup communications further,
/// using a larger overlap"), executed end-to-end on a two-layer
/// decomposition.
pub fn e14_two_layer(scale: Scale) -> String {
    use syncplace::automata::predefined::element_overlap_two_layer_2d;
    let n = scale.mesh_n();
    // The every-k-steps idiom: unroll by 2, test convergence once per
    // unrolled iteration. The SAME program is analyzed under both
    // patterns, so the comparison is apples-to-apples.
    let prog = syncplace::ir::transform::unroll_time_loop_check_last(
        &syncplace::ir::programs::testiv_with(12),
        2,
    );
    let mesh = syncplace::mesh::gen2d::perturbed_grid(n, n, 0.2, 42);
    let mut bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);
    bindings.input_arrays.insert(
        prog.lookup("INIT").unwrap(),
        (0..mesh.nnodes())
            .map(|i| 1.0 + ((i % 7) as f64) * 0.1)
            .collect(),
    );
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let part = syncplace::partition::partition2d(&mesh, 4, syncplace::partition::Method::GreedyKl);
    let mut rows = Vec::new();
    let mut out = String::from(
        "E14 — two-layer overlap amortization (extension of \u{a7}3.1/\u{a7}5.1)\n\
         TESTIV unrolled x2, convergence tested every 2 steps; 4 processors.\n\n",
    );
    for (label, automaton, layers) in [
        ("1-layer (fig6)", fig6(), 1usize),
        ("2-layer (stratified)", element_overlap_two_layer_2d(), 2),
    ] {
        let (dfg, analysis) = setup::analyze(&prog, &automaton);
        assert!(analysis.legality.is_legal());
        let sol = &analysis.solutions[0];
        let update_sites = sol
            .comm_sites
            .iter()
            .filter(|c| c.in_time_loop && c.kind == CommKind::UpdateOverlap)
            .count();
        let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);
        let d = syncplace::overlap::decompose2d(
            &mesh,
            &part.part,
            4,
            Pattern::ElementOverlap { layers },
        );
        let res = syncplace::Engine::RoundRobin.run(&prog, &spmd, &d, &bindings).unwrap();
        let err = syncplace::runtime::max_rel_error(&seq, &res);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", update_sites as f64 / 2.0),
            format!("{:.1}", sol.cost.phases_in_loop as f64 / 2.0),
            format!("{}", d.total_overlap_elems()),
            format!("{}", res.stats.updates),
            format!("{}", res.stats.total_values()),
            format!("{err:.2e}"),
        ]);
    }
    out.push_str(&table(
        &[
            "pattern",
            "updates/step",
            "phases/step",
            "dup elems",
            "updates run",
            "values moved",
            "max rel err",
        ],
        &rows,
    ));
    out.push_str(
        "\nWith the stratified two-layer automaton one update serves two time\n\
         steps (gathers are legal from Nod1), halving the update frequency and\n\
         volume at the price of a wider duplicated-element band -- the \u{a7}5.1\n\
         amortization, chosen automatically by the same placement machinery.\n",
    );
    out
}

// ---------------------------------------------------------------------------
// E15 — §5.3: adaptive refinement and load balancing
// ---------------------------------------------------------------------------

/// E15: solve on a coarse mesh, refine adaptively where the solution
/// varies, prolong the field and resume — with the SAME placement
/// ("the placement of synchronizations needs not change, since this
/// placement did not depend on the geometry of the sub-meshes"),
/// measuring the load imbalance the adaptation causes when the old
/// partition is inherited, and the cure from repartitioning plus the
/// extra redistribution communication §5.3 calls for.
pub fn e15_adaptive(scale: Scale) -> String {
    let n = scale.mesh_n();
    let prog = syncplace::ir::programs::testiv_with(10);
    // The placement is computed ONCE; it has no mesh input at all.
    let (dfg, analysis) = setup::analyze(&prog, &fig6());
    let sol = &analysis.solutions[0];
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, sol);

    // Phase 1: coarse solve.
    let coarse = syncplace::mesh::gen2d::perturbed_grid(n, n, 0.2, 42);
    let mut b1 = syncplace::runtime::bindings::testiv_bindings(&prog, &coarse, 0.0);
    let init = prog.lookup("INIT").unwrap();
    // A front in the lower-left corner — the "shock" that attracts
    // refinement.
    let front = |c: &[f64; 2]| 1.0 / (1.0 + ((c[0] + c[1]) * 8.0).exp());
    b1.input_arrays
        .insert(init, coarse.coords.iter().map(front).collect());
    let seq1 = syncplace::runtime::run_sequential(&prog, &b1);
    let result_var = prog.lookup("RESULT").unwrap();
    let u1 = seq1.output_arrays[result_var].clone();

    // Phase 2: refine where the solved field varies across an element.
    let mut marked = vec![false; coarse.ntris()];
    for (t, tri) in coarse.som.iter().enumerate() {
        let vals: Vec<f64> = tri.iter().map(|&s| u1[s as usize]).collect();
        let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min);
        marked[t] = spread > 0.02;
    }
    let nmarked = marked.iter().filter(|&&x| x).count();
    let (fine, parents) = syncplace::mesh::refine2d::refine(&coarse, &marked);
    let u1_fine = syncplace::mesh::refine2d::prolong_node_field(&coarse, &fine, &u1);

    // Resume on the fine mesh with the SAME spmd program.
    let mut b2 = syncplace::runtime::bindings::testiv_bindings(&prog, &fine, 0.0);
    b2.input_arrays.insert(init, u1_fine);
    let seq2 = syncplace::runtime::run_sequential(&prog, &b2);

    let nparts = 8usize;
    let mut rows = Vec::new();
    // (a) inherited partition: children keep the parent's part.
    let coarse_part =
        syncplace::partition::partition2d(&coarse, nparts, syncplace::partition::Method::RcbKl);
    let inherited: Vec<u32> = parents
        .iter()
        .map(|&p| coarse_part.part[p as usize])
        .collect();
    // (b) repartitioned.
    let repart =
        syncplace::partition::partition2d(&fine, nparts, syncplace::partition::Method::RcbKl);
    for (label, part) in [("inherited", &inherited), ("repartitioned", &repart.part)] {
        let d = syncplace::overlap::decompose2d(&fine, part, nparts, Pattern::FIG1);
        let res = syncplace::Engine::RoundRobin.run(&prog, &spmd, &d, &b2).unwrap();
        let err = syncplace::runtime::max_rel_error(&seq2, &res);
        let max = res.per_proc_compute.iter().cloned().fold(0.0f64, f64::max);
        let avg: f64 = res.per_proc_compute.iter().sum::<f64>() / res.per_proc_compute.len() as f64;
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", max / avg),
            format!("{}", res.stats.nphases()),
            format!("{err:.2e}"),
        ]);
    }
    // The extra redistribution §5.3 requires: every fine-mesh node
    // value moves once when sub-meshes change.
    let redistribution = fine.nnodes();

    format!(
        "E15 — adaptive refinement and load balance (§5.3)\n\n\
         coarse mesh: {} tris; {} marked near the front; fine mesh: {} tris\n\
         the placement was computed once and reused unchanged on both meshes\n\
         (it has no mesh input — exactly §5.3's observation).\n\n{}\n\
         redistribution after adaptation: ~{} node values (one-time)\n",
        coarse.ntris(),
        nmarked,
        fine.ntris(),
        table(
            &[
                "partition",
                "compute imbalance (max/avg)",
                "phases",
                "max rel err"
            ],
            &rows
        ),
        redistribution
    )
}

// ---------------------------------------------------------------------------
// E16 — §1: the solution space ("more than one solution may be found")
// ---------------------------------------------------------------------------

/// E16: how many distinct placements the tool enumerates per program,
/// what the search costs, and the cost spread between the best and
/// worst placements — the quantified version of §1's "finding them all
/// gives the opportunity to choose" and §4's nondeterminism remarks.
pub fn e16_solution_space(scale: Scale) -> String {
    let _ = scale;
    let mut rows = Vec::new();
    let programs: Vec<(
        &str,
        syncplace::ir::Program,
        syncplace::automata::OverlapAutomaton,
    )> = vec![
        (
            "fig5-sketch",
            syncplace::ir::programs::fig5_sketch(),
            fig6(),
        ),
        ("testiv", syncplace::ir::programs::testiv(), fig6()),
        (
            "testiv-unrolled-x2",
            syncplace::ir::transform::unroll_time_loop(&syncplace::ir::programs::testiv(), 2),
            fig6(),
        ),
        (
            "edge-smooth",
            syncplace::ir::programs::edge_smooth(),
            element_overlap_2d_full(),
        ),
        ("tet-heat", syncplace::ir::programs::tet_heat(50), fig8()),
        ("chain-10", setup::chain_program(10), fig6()),
    ];
    for (name, prog, automaton) in &programs {
        let (_, analysis) = setup::analyze(prog, automaton);
        let best = analysis
            .solutions
            .first()
            .map(|s| s.cost.score)
            .unwrap_or(0.0);
        let worst = analysis
            .solutions
            .last()
            .map(|s| s.cost.score)
            .unwrap_or(0.0);
        rows.push(vec![
            name.to_string(),
            format!("{}", prog.nstmts()),
            format!("{}", analysis.solutions.len()),
            format!("{}", analysis.stats.visits),
            format!("{}", analysis.stats.backtracks),
            format!("{best:.0}"),
            format!("{worst:.0}"),
            format!("{:.2}x", worst / best.max(1.0)),
        ]);
    }
    format!(
        "E16 — the placement solution space (§1, §4)\n\n{}\n\
         The cost spread is the price of picking a placement blindly instead\n\
         of letting the tool rank them.\n",
        table(
            &[
                "program",
                "stmts",
                "placements",
                "visits",
                "backtracks",
                "best cost",
                "worst cost",
                "spread"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// E17 — §2.2: mesh-splitter quality (the MS3D substitute)
// ---------------------------------------------------------------------------

/// E17: quality of the implemented splitters — edge cut, interface
/// nodes, balance, and the resulting duplicated-element overhead of a
/// Fig. 1 decomposition (the quantity the paper's splitter minimizes:
/// "compact sub-meshes with a minimal interface size").
pub fn e17_partitioners(scale: Scale) -> String {
    let n = match scale {
        Scale::Quick => 24,
        Scale::Paper => 48,
    };
    let mesh = syncplace::mesh::gen2d::perturbed_grid(n, n, 0.25, 7);
    let nparts = 16usize;
    let mut rows = Vec::new();
    for method in syncplace::partition::Method::ALL {
        let p = syncplace::partition::partition2d(&mesh, nparts, method);
        let q = syncplace::partition::metrics::quality2d(&mesh, &p.dual, &p.part, nparts);
        let d = syncplace::overlap::decompose2d(&mesh, &p.part, nparts, Pattern::FIG1);
        rows.push(vec![
            method.name().to_string(),
            format!("{}", q.edge_cut),
            format!("{}", q.interface_nodes),
            format!("{:.3}", q.imbalance),
            format!(
                "{:.1}%",
                100.0 * d.total_overlap_elems() as f64 / d.nelems_global as f64
            ),
            format!("{}", d.node_update.total_values()),
        ]);
    }
    format!(
        "E17 — mesh-splitter quality (the MS3D substitute, §2.2)\n\
         mesh: {n}x{n} perturbed grid ({} triangles), {nparts} parts\n\n{}",
        mesh.ntris(),
        table(
            &[
                "method",
                "edge cut",
                "iface nodes",
                "imbalance",
                "dup elems",
                "update volume"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// E18 — runtime engines: batched phases, early posting
// ---------------------------------------------------------------------------

/// One engine at one P, as the E18 and E24 engine tables print it.
struct EngineRow {
    p: usize,
    engine: syncplace::Engine,
    messages: usize,
    values: usize,
    phases: usize,
    /// Modeled (α/β): `t_seq / t_par`.
    modeled_speedup: f64,
    /// Modeled (α/β): round-robin's `t_par` over this engine's.
    modeled_vs_rr: f64,
}

/// Run every engine on one decomposition and drive each through the
/// α/β model as itself ([`syncplace::runtime::estimate_engine`]): the
/// round-robin reference serializes reductions into ascending-rank
/// chains, the concurrent engines run the binomial tree, and the
/// overlapped engine's result additionally discounts each phase by the
/// compute it provably kept in flight
/// ([`syncplace::runtime::OverlapReport`]). The modeled columns are
/// deterministic — computed from schedule-derived counters, not clocks.
///
/// Coalescing must never send *more* messages than the per-op wire it
/// replaces (the fixed P=8 packet regression); a violation is pushed
/// onto `faults`.
fn engine_rows(
    s: &setup::TestivSetup,
    seq: &syncplace::runtime::SeqResult,
    d: &syncplace::overlap::Decomposition<3>,
    spmd: &syncplace::codegen::SpmdProgram,
    faults: &mut Vec<String>,
) -> Vec<EngineRow> {
    use syncplace::runtime::estimate_engine;
    use syncplace::Engine;

    let p = d.nparts;
    let model = TimingModel::default();
    let mut rr_t_par = f64::NAN;
    let mut unbatched_messages = usize::MAX;
    let mut rows = Vec::new();
    for engine in Engine::ALL {
        let r = engine.run(&s.prog, spmd, d, &s.bindings).unwrap();
        let est = estimate_engine(seq, &r, &model, engine);
        let messages = r.stats.total_messages();
        if engine == Engine::RoundRobin {
            rr_t_par = est.t_par;
            unbatched_messages = messages;
        } else if messages > unbatched_messages {
            faults.push(format!(
                "P={p} {}: {messages} messages > {unbatched_messages} unbatched",
                engine.name()
            ));
        }
        rows.push(EngineRow {
            p,
            engine,
            messages,
            values: r.stats.total_values(),
            phases: r.stats.nphases(),
            modeled_speedup: est.speedup,
            modeled_vs_rr: rr_t_par / est.t_par,
        });
    }
    rows
}

fn engine_table(rows: &[EngineRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.p),
                r.engine.name().to_string(),
                format!("{}", r.messages),
                format!("{}", r.values),
                format!("{}", r.phases),
                format!("{:.2}", r.modeled_speedup),
                format!("{:.3}", r.modeled_vs_rr),
            ]
        })
        .collect();
    table(
        &[
            "P",
            "engine",
            "messages",
            "values",
            "phases",
            "modeled S",
            "modeled vs RR",
        ],
        &cells,
    )
}

/// E18 / `bench-runtime`: the three SPMD engines at every P — the
/// messages, values and phases each one counted, the α/β model's
/// speedups (see `engine_rows`) — and the packet accounting of the
/// batched wire format. Returns the report and `false` when a batched
/// engine sent more messages than the round-robin reference.
///
/// Every figure is computed, none is clocked, so the report is
/// reproducible byte for byte: the engines' wall clock is
/// `benchmark/`'s `solve-comm` workload. The modeled floors are held
/// by `tests/runtime_engines.rs`.
pub fn bench_runtime(scale: Scale) -> (String, bool) {
    use std::fmt::Write as _;
    use syncplace::runtime::CommPlan;

    let (nx, procs): (usize, &[usize]) = match scale {
        Scale::Quick => (12, &[1, 2, 4]),
        Scale::Paper => (32, &[1, 2, 4, 8, 16]),
    };
    let s = setup::testiv(nx, 1e-8, &fig6());
    let seq = syncplace::runtime::run_sequential(&s.prog, &s.bindings);
    let mut rows = Vec::new();
    let mut faults = Vec::new();
    let mut max_packets_per_pair: usize = 0;
    for &p in procs {
        // The defining property of the batched wire format, read off
        // the plan itself: ≤ 1 packet per ordered peer pair per round.
        let (d, spmd) = setup::decompose(&s, p, Pattern::FIG1, 0);
        let plan = CommPlan::build(&s.prog, &spmd, &d);
        for ph in &plan.phases {
            for rp in &ph.ranks {
                for q in 0..plan.nparts {
                    let packets =
                        usize::from(rp.send1_len[q] > 0) + usize::from(rp.send2_len[q] > 0);
                    max_packets_per_pair = max_packets_per_pair.max(packets);
                }
            }
        }
        rows.extend(engine_rows(&s, &seq, &d, &spmd, &mut faults));
    }

    let mut out = format!(
        "E18 — runtime engines ({nx}x{nx} TESTIV mesh)\n\n{}\n",
        engine_table(&rows)
    );
    let _ = writeln!(
        out,
        "batched wire format: max packets per ordered pair per phase = {max_packets_per_pair} \
         (1 per round; a phase has at most 2 rounds)"
    );
    let ok = push_verdict(&mut out, &faults);
    (out, ok)
}

// ---------------------------------------------------------------------------
// E24 — large-scale tier: million-element decomposition pipeline
// ---------------------------------------------------------------------------

/// E24 / `bench-large`: the large-scale decomposition tier.
///
/// Two checks:
///
/// 1. **Parallel construction** — ~10⁶-element 2-D and 3-D meshes at
///    every large-tier P, built by the sequential CSR-lean builder and
///    by the pool builder at 4 workers: the two decompositions must be
///    bitwise identical.
/// 2. **Engine scaling at the new P values** — every engine at
///    P ∈ {16, 32, 64, 128} on a TESTIV instance, the same table as
///    E18.
///
/// Returns the report and `false` when a floor is violated. At any
/// scale: the parallel build is bitwise-identical to the sequential
/// one and coalescing never adds messages. At paper scale only
/// (million-element meshes): the concurrent engines' modeled time no
/// worse than round-robin's at P ≥ 64.
///
/// Nothing here is clocked: the wall clock and peak memory of this
/// pipeline are `benchmark/`'s `prepare-large` workload. At `--quick`
/// scale ("ci" preset, run by `scripts/clippy.sh`) the meshes shrink
/// to a few thousand elements and P to {4, 8}; the same code paths
/// run.
pub fn e24_large(scale: Scale) -> (String, bool) {
    use std::fmt::Write as _;
    use syncplace::overlap::{decompose2d, decompose3d};
    use syncplace::runtime::decomp::{decompose2d_par, decompose3d_par};
    use syncplace::Engine;

    let (g2x, g2y, b3x, b3y, b3z) = match scale {
        Scale::Quick => (49, 41, 9, 9, 9),
        Scale::Paper => (709, 708, 55, 55, 55),
    };
    let (procs, workers, engine_nx): (&[usize], usize, usize) = match scale {
        Scale::Quick => (&[4, 8], 4, 12),
        Scale::Paper => (&[16, 32, 64, 128], 4, 48),
    };
    let paper = scale == Scale::Paper;

    let mut out = String::from("E24 — large-scale tier: CSR-lean decomposition pipeline\n\n");

    let mesh2 = syncplace::mesh::gen2d::grid(g2x, g2y);
    let mesh3 = syncplace::mesh::gen3d::box_mesh(b3x, b3y, b3z);
    let _ = writeln!(
        out,
        "meshes: 2-D grid {g2x}x{g2y} ({} tris), 3-D box {b3x}x{b3y}x{b3z} ({} tets)",
        mesh2.ntris(),
        mesh3.ntets()
    );

    let mut faults = Vec::new();
    let mut rows = Vec::new();
    for &p in procs {
        let part2 =
            syncplace::partition::partition2d(&mesh2, p, syncplace::partition::Method::Rcb);
        let same2 = decompose2d_par(&mesh2, &part2.part, p, Pattern::FIG1, workers, &None).0
            == decompose2d(&mesh2, &part2.part, p, Pattern::FIG1);
        let part3 =
            syncplace::partition::partition3d(&mesh3, p, syncplace::partition::Method::Rcb);
        let same3 = decompose3d_par(&mesh3, &part3.part, p, Pattern::FIG1, workers, &None).0
            == decompose3d(&mesh3, &part3.part, p, Pattern::FIG1);
        for (dim, same) in [(2usize, same2), (3usize, same3)] {
            if !same {
                faults.push(format!("{dim}D P={p}: parallel decomposition differs from sequential"));
            }
            rows.push(vec![format!("{dim}D"), format!("{p}"), format!("{same}")]);
        }
    }
    let _ = writeln!(
        out,
        "\ndecomposition ({workers}-worker pool builder vs the sequential build):\n\n{}",
        table(&["mesh", "P", "identical"], &rows)
    );

    // Engine scaling at the large-tier P values on a TESTIV instance
    // (the decomposition above is the subject; this is the consumer).
    let s = setup::testiv(engine_nx, 1e-8, &fig6());
    let seq = syncplace::runtime::run_sequential(&s.prog, &s.bindings);
    let mut erows = Vec::new();
    for &p in procs {
        let (d, spmd) = setup::decompose(&s, p, Pattern::FIG1, 0);
        erows.extend(engine_rows(&s, &seq, &d, &spmd, &mut faults));
    }
    for r in &erows {
        if paper && r.p >= 64 && r.engine != Engine::RoundRobin && r.modeled_vs_rr < 1.0 {
            faults.push(format!(
                "P={} {}: modeled time is {:.3}x round-robin's, below 1.0",
                r.p,
                r.engine.name(),
                r.modeled_vs_rr
            ));
        }
    }
    let _ = writeln!(
        out,
        "\nengines at large-tier P ({engine_nx}x{engine_nx} TESTIV):\n\n{}",
        engine_table(&erows)
    );
    let ok = push_verdict(&mut out, &faults);
    (out, ok)
}

// ---------------------------------------------------------------------------
// E25 — racecheck: schedule model checking + happens-before replay
// ---------------------------------------------------------------------------

/// E25 / `racecheck`: concurrency verification of the runtime engines
/// (DESIGN.md §12).
///
/// Four sweeps:
///
/// 1. **Model checking** — every engine's abstracted schedule
///    ([`syncplace::analyze::mc`]) on the Fig. 9 and Fig. 10 TESTIV
///    plans under both overlap patterns at P ≤ 4: exhaustive
///    interleaving exploration
///    with sleep-set partial-order reduction, proving deterministic
///    receive contents, stage-buffer safety, and deadlock /
///    barrier-divergence freedom. The reported reduction ratio is the
///    fraction of naive branches the sleep sets actually executed.
/// 2. **MC mutation suite** — every seeded schedule defect
///    ([`syncplace::analyze::mc::default_mutations`]) must be caught
///    with its exact SA05x code and a counterexample interleaving.
/// 3. **Happens-before replay** — real recorded runs of every
///    engine ([`syncplace::analyze::hb`]) must replay with zero
///    violations.
/// 4. **HB mutation suite** — seeded log defects (dropped sends,
///    receives, gang joins, stage releases) must be caught with their
///    exact SA06x codes.
///
/// Returns the printable report and `false` when any gate failed —
/// the `reproduce` binary exits non-zero so `scripts/clippy.sh` can
/// run this at `--quick` scale as a CI gate.
pub fn e25_racecheck(scale: Scale) -> (String, bool) {
    use std::fmt::Write as _;
    use std::sync::Arc;
    use syncplace::analyze::hb;
    use syncplace::analyze::mc;
    use syncplace::obs::{keys, HbRecorder, RecorderRef};
    use syncplace::runtime::CommPlan;
    use syncplace::Engine;

    let (nx, mc_procs, hb_procs): (usize, &[usize], &[usize]) = match scale {
        Scale::Quick => (9, &[2, 3], &[2, 3]),
        Scale::Paper => (9, &[2, 3, 4], &[2, 4]),
    };
    let s = setup::testiv(nx, 1e-3, &fig6());
    let mut solutions = vec![(0usize, "fig9")];
    if let Some(i) = setup::fig10_style_index(&s) {
        if i != 0 {
            solutions.push((i, "fig10"));
        }
    }

    let mut ok = true;
    let mut out = String::from("E25 — racecheck: concurrency verification of the engines\n\n");

    // 1. Model checking.
    let mut programs = 0u64;
    let mut states = 0u64;
    let mut transitions = 0u64;
    let mut enabled = 0u64;
    let mut capped = 0u64;
    let mut mc_rows: Vec<Vec<String>> = Vec::new();
    for engine in Engine::ALL {
        let (mut e_states, mut e_trans, mut e_enabled, mut e_progs) = (0u64, 0u64, 0u64, 0u64);
        let mut verdict = "proven".to_string();
        for &(idx, label) in &solutions {
            for (pattern, pname) in [(Pattern::FIG1, "fig1"), (Pattern::FIG2, "fig2")] {
                for &p in mc_procs {
                    let (d, spmd) = setup::decompose(&s, p, pattern, idx);
                    let plan = CommPlan::build(&s.prog, &spmd, &d);
                    let sweeps = if p <= 3 { 2 } else { 1 };
                    let r = mc::check_plan(&plan, engine, sweeps);
                    programs += 1;
                    e_progs += 1;
                    e_states += r.stats.states;
                    e_trans += r.stats.transitions;
                    e_enabled += r.stats.enabled_total;
                    capped += u64::from(r.stats.capped);
                    if !r.report.is_clean() {
                        ok = false;
                        verdict = format!(
                            "{label}/{pname}/P{p}: {}",
                            r.report.diags[0]
                        );
                        let _ = writeln!(
                            out,
                            "{} {label}/{pname}/P{p} FAILED:\n{}\n{}",
                            engine.name(),
                            r.report.diags[0],
                            r.counterexample.join("\n")
                        );
                    }
                }
            }
        }
        states += e_states;
        transitions += e_trans;
        enabled += e_enabled;
        let ratio = if e_enabled == 0 {
            1.0
        } else {
            e_trans as f64 / e_enabled as f64
        };
        mc_rows.push(vec![
            engine.name().into(),
            e_progs.to_string(),
            e_states.to_string(),
            e_trans.to_string(),
            format!("{ratio:.3}"),
            verdict,
        ]);
    }
    if capped > 0 {
        ok = false;
    }
    let reduction_ratio = if enabled == 0 {
        1.0
    } else {
        transitions as f64 / enabled as f64
    };
    let _ = writeln!(
        out,
        "model checker ({} schedules, sweeps at P ≤ 3 doubled):\n\n{}",
        programs,
        table(
            &["schedule", "programs", "states", "transitions", "ratio", "result"],
            &mc_rows
        )
    );
    let _ = writeln!(
        out,
        "\ntotal: {states} states, {transitions} of {enabled} enabled branches executed \
         (reduction ratio {reduction_ratio:.3}), {capped} capped"
    );

    // 2. MC mutation suite.
    let (mc_d, mc_spmd) = setup::decompose(&s, 3, Pattern::FIG1, 0);
    let mc_plan = CommPlan::build(&s.prog, &mc_spmd, &mc_d);
    let bases: Vec<mc::McProgram> = Engine::ALL
        .iter()
        .map(|&e| mc::from_plan(&mc_plan, e, 2))
        .collect();
    let mut mc_seeded = 0u64;
    let mut mc_caught = 0u64;
    let mut mut_rows: Vec<Vec<String>> = Vec::new();
    for base in &bases {
        for (mutation, expect) in mc::default_mutations(base) {
            let mut broken = base.clone();
            if !mutation.apply(&mut broken) {
                continue;
            }
            mc_seeded += 1;
            let r = mc::check(&broken);
            let hit = r.report.has_code(expect);
            mc_caught += u64::from(hit);
            if !hit {
                ok = false;
            }
            mut_rows.push(vec![
                base.label.clone(),
                format!("{mutation:?}"),
                expect.into(),
                if hit {
                    "caught".into()
                } else {
                    format!("MISSED ({:?})", r.report.codes())
                },
            ]);
        }
    }
    let _ = writeln!(
        out,
        "\nseeded schedule defects ({mc_caught}/{mc_seeded} caught):\n\n{}",
        table(&["schedule", "mutation", "code", "result"], &mut_rows)
    );

    // 3. Happens-before replay of real runs.
    let mut hb_rows: Vec<Vec<String>> = Vec::new();
    for engine in Engine::ALL {
        for &p in hb_procs {
            let (d, spmd) = setup::decompose(&s, p, Pattern::FIG1, 0);
            let hbr = Arc::new(HbRecorder::new());
            let rec: RecorderRef = Some(hbr.clone());
            let run = engine.run_with(&s.prog, &spmd, &d, &s.bindings, None, &rec);
            let (verdict, events) = match run {
                Ok(_) => {
                    let log = hbr.snapshot();
                    let (report, stats) = hb::check_log(&log);
                    if !report.is_clean() {
                        ok = false;
                        (format!("{}", report.diags[0]), stats.events)
                    } else {
                        ("clean".to_string(), stats.events)
                    }
                }
                Err(e) => {
                    ok = false;
                    (format!("run failed: {e}"), 0)
                }
            };
            hb_rows.push(vec![
                engine.name().into(),
                p.to_string(),
                events.to_string(),
                verdict,
            ]);
        }
    }
    let _ = writeln!(
        out,
        "\nhappens-before replay of recorded runs:\n\n{}",
        table(&["engine", "P", "hb events", "result"], &hb_rows)
    );

    // 4. HB mutation suite on real logs.
    let record = |engine: Engine| {
        let (d, spmd) = setup::decompose(&s, 3, Pattern::FIG1, 0);
        let hbr = Arc::new(HbRecorder::new());
        let rec: RecorderRef = Some(hbr.clone());
        engine
            .run_with(&s.prog, &spmd, &d, &s.bindings, None, &rec)
            .expect("engine run");
        hbr.snapshot()
    };
    let batched = record(Engine::Batched);
    let overlapped = record(Engine::Overlapped);
    use syncplace::ir::diag::codes;
    let hb_cases: Vec<(&str, Option<syncplace::obs::HbLog>, &str)> = vec![
        ("drop last recv", hb::drop_last(&batched, 1, keys::HB_RECV), codes::HB_RACE),
        ("drop last send", hb::drop_last(&batched, 1, keys::HB_SEND), codes::HB_UNMATCHED),
        (
            "drop gang join",
            hb::drop_last(&batched, 1, keys::HB_BARRIER),
            codes::HB_BARRIER_DIVERGENCE,
        ),
        (
            "drop seed release",
            hb::drop_first(&overlapped, 1, keys::HB_STAGE_RELEASE),
            codes::HB_STAGE_DISCIPLINE,
        ),
    ];
    let mut hb_seeded = 0u64;
    let mut hb_caught = 0u64;
    let mut hbm_rows: Vec<Vec<String>> = Vec::new();
    for (label, mutated, expect) in hb_cases {
        let Some(log) = mutated else {
            ok = false;
            hbm_rows.push(vec![label.into(), expect.into(), "INAPPLICABLE".into()]);
            continue;
        };
        hb_seeded += 1;
        let (report, _) = hb::check_log(&log);
        let hit = report.has_code(expect);
        hb_caught += u64::from(hit);
        if !hit {
            ok = false;
        }
        hbm_rows.push(vec![
            label.into(),
            expect.into(),
            if hit {
                "caught".into()
            } else {
                format!("MISSED ({:?})", report.codes())
            },
        ]);
    }
    let _ = writeln!(
        out,
        "\nseeded log defects ({hb_caught}/{hb_seeded} caught):\n\n{}",
        table(&["mutation", "code", "result"], &hbm_rows)
    );

    let _ = writeln!(
        out,
        "overall: {}",
        if ok { "clean" } else { "FAILURES DETECTED" }
    );
    (out, ok)
}

// ---------------------------------------------------------------------------
// E20 — static analysis: verifier, plan auditor, IR lints (`reproduce lint`)
// ---------------------------------------------------------------------------

/// E20: run the three `syncplace::analyze` passes over the built-in
/// programs × automata and the batched engine's compiled plans.
/// Returns the printable report and whether the sweep is clean — no
/// error-severity diagnostic on any legal configuration, every
/// enumerated mapping accepted by the independent fixpoint verifier,
/// every compiled CommPlan accepted by the auditor, and every illegal
/// taxonomy case rejected with its Fig. 4 code.
pub fn e20_lint(scale: Scale) -> (String, bool) {
    use syncplace::analyze;
    use syncplace::placement::enumerate;

    let mut ok = true;
    let mut rows = Vec::new();

    // --- sweep 1: fixpoint-verify every enumerated mapping ------------------
    let sweeps: Vec<(&str, syncplace::ir::Program, syncplace::automata::OverlapAutomaton)> = vec![
        ("testiv x fig6", syncplace::ir::programs::testiv(), fig6()),
        ("testiv x fig7", syncplace::ir::programs::testiv(), fig7()),
        (
            "fig5-sketch x fig6",
            syncplace::ir::programs::fig5_sketch(),
            fig6(),
        ),
        (
            "edge-smooth x full-2d",
            syncplace::ir::programs::edge_smooth(),
            element_overlap_2d_full(),
        ),
        (
            "tet-heat x fig8",
            syncplace::ir::programs::tet_heat(100),
            fig8(),
        ),
    ];
    for (label, prog, aut) in &sweeps {
        let lint = analyze::lint_program(prog, aut);
        let dfg = syncplace::dfg::build(prog);
        let (mappings, _) = enumerate(&dfg, aut, &SearchOptions::default());
        let mut rejected = 0usize;
        for m in &mappings {
            if !analyze::verify_mapping(&dfg, aut, m).is_clean() {
                rejected += 1;
            }
        }
        if rejected > 0 || !lint.is_error_free() || mappings.is_empty() {
            ok = false;
        }
        rows.push(vec![
            (*label).to_string(),
            format!("{}", mappings.len()),
            if rejected == 0 {
                "all accepted".into()
            } else {
                format!("{rejected} REJECTED")
            },
            format!(
                "{} err / {} warn",
                lint.error_count(),
                lint.of_severity(analyze::Severity::Warning).count()
            ),
        ]);
    }
    let verify_table = table(
        &["program x automaton", "mappings", "fixpoint verifier", "lint"],
        &rows,
    );

    // --- sweep 2: audit the batched engine's compiled plans ------------------
    let mut rows = Vec::new();
    for (pattern, name) in [(Pattern::FIG1, "element-overlap"), (Pattern::FIG2, "node-overlap")] {
        let aut = match pattern {
            Pattern::NodeOverlap => fig7(),
            _ => fig6(),
        };
        let s = setup::testiv(scale.mesh_n(), 1e-9, &aut);
        for nparts in [1usize, 4] {
            let (d, spmd) = setup::decompose(&s, nparts, pattern, 0);
            let plan = syncplace::runtime::plan::CommPlan::build(&s.prog, &spmd, &d);
            let rep = analyze::audit(&s.prog, &s.analysis.solutions[0], &spmd, &plan);
            if !rep.is_clean() {
                ok = false;
            }
            rows.push(vec![
                format!("testiv, {name}, {nparts} parts"),
                format!("{}", plan.phases.len()),
                if rep.is_clean() {
                    "clean".into()
                } else {
                    format!("{} finding(s)", rep.diags.len())
                },
            ]);
        }
    }
    let audit_table = table(&["configuration", "phases", "plan audit"], &rows);

    // --- sweep 3: the Fig. 4 taxonomy must fire its documented codes ---------
    let mut rows = Vec::new();
    for case in syncplace::ir::programs::taxonomy() {
        let rep = analyze::lint_program(&case.program, &fig6());
        let verdict = if case.legal {
            if rep.is_error_free() {
                "legal, no errors".to_string()
            } else {
                ok = false;
                "legal but REJECTED".to_string()
            }
        } else if rep.is_error_free() {
            ok = false;
            "illegal but ACCEPTED".to_string()
        } else {
            let mut codes: Vec<&str> = rep
                .of_severity(analyze::Severity::Error)
                .map(|d| d.code)
                .collect();
            codes.sort_unstable();
            codes.dedup();
            codes.join(",")
        };
        rows.push(vec![
            case.name.to_string(),
            case.fig4_case.to_string(),
            verdict,
        ]);
    }
    let taxonomy_table = table(&["taxonomy case", "fig. 4", "diagnostics"], &rows);

    let report = format!(
        "E20 — static analysis: independent verifier, plan auditor, IR lints (§5.2)\n\n\
         Every mapping the backtracking search enumerates must also be accepted\n\
         by the arc-consistency fixpoint verifier (shared code: none), every\n\
         compiled batched CommPlan must pass the schedule audit, and every\n\
         illegal Fig. 4 case must be rejected with its documented SA0xx code.\n\n\
         {verify_table}\n{audit_table}\n{taxonomy_table}\n\
         overall: {}\n",
        if ok { "clean" } else { "FAILURES DETECTED" }
    );
    (report, ok)
}

/// The full experiment index, used by `reproduce list`.
pub fn index() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "e1-sketch",
            "Fig. 5 / §3.3 walkthrough on the program sketch",
        ),
        (
            "e2-automata",
            "Figs. 6/7/8 overlap automata + derivation check",
        ),
        ("e3-legality", "Fig. 4 dependence-legality taxonomy"),
        ("e4-testiv", "Figs. 9/10: both generated TESTIV placements"),
        ("e6-speedup", "§2.4 speedup shape, P = 1..32"),
        ("e7-patterns", "§2.3 Fig.1-vs-Fig.2 overlap trade-off"),
        ("e8-inspector", "§5.1 inspector/executor baseline"),
        ("e9-dfgreduce", "§5.2 chain-merge search ablation"),
        ("e10-tet3d", "Fig. 8: 3-D placement and execution"),
        ("e12-checker", "§5.2/§6 checking seeded placement errors"),
        ("e13-edges", "edge-based gather-scatter (full automaton)"),
        ("e14-twolayer", "two-layer amortization: 0.5 updates/step"),
        (
            "e15-adaptive",
            "\u{a7}5.3 adaptive refinement & load balance",
        ),
        ("e16-solutions", "the placement solution space per program"),
        ("e17-partition", "mesh-splitter quality (MS3D substitute)"),
        (
            "bench-runtime",
            "E18: three engines per P — messages, phases, modeled S",
        ),
        (
            "lint",
            "E20: independent verifier, plan auditor, IR lints",
        ),
        (
            "profile",
            "E21: engine profiler — schedule counters, critical paths, waits, search",
        ),
        (
            "serve-bench",
            "E23: telemetry cost — hot latency, telemetry on vs off",
        ),
        (
            "bench-large",
            "E24: 10^6-element pool builder identity, engines at P <= 128",
        ),
        (
            "racecheck",
            "E25: schedule model checker + happens-before replay, mutation suites",
        ),
    ]
}
