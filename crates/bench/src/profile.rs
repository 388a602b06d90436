//! E21 / `reproduce profile` — the offline engine report.
//!
//! Runs the TESTIV and 3-D tet-heat workloads across every engine
//! and processor counts with a *fanout* recorder: one
//! [`MetricsRegistry`] (the aggregate view) and one
//! [`TimelineRecorder`] (the per-rank event timeline) see the exact
//! same emission stream.
//! The registry gives each run's schedule counters (messages, values,
//! packets, iterations); from the timeline the analysis module
//! extracts per-rank compute-vs-wait attribution, per-phase
//! load-imbalance factors and the critical path through the run's
//! phase DAG; per-span-name latency histograms give p50/p95/p99/max.
//!
//! On top, the Fig. 9-vs-Fig. 10 placement comparison is made
//! *quantitative*: both placements run at the largest P on the batched
//! engine, their critical-path lengths are compared, and the cost
//! model's predicted per-iteration traffic
//! ([`SolutionCost::predicted_per_iteration`]) is cross-validated
//! against the observed per-pair wire volumes. Last, one placement
//! search runs under a registry, whose counters must agree with the
//! analysis it returns.
//!
//! Artifacts: `PROFILE_runtime.json` (analyses, metrics snapshots and
//! histograms, schema [`crate::PROFILE_SCHEMA`]) and
//! `PROFILE_trace.json` (a Chrome
//! `trace_event` array — load it in Perfetto or `chrome://tracing`).
//!
//! [`SolutionCost::predicted_per_iteration`]: syncplace::placement::SolutionCost::predicted_per_iteration

use crate::experiments::Scale;
use crate::{setup, table};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use syncplace::automata::predefined::fig6;
use syncplace::obs::{
    self as obs, keys, ChromeRun, FanoutRecorder, LatencyHistogram, MetricsRegistry,
    MetricsSnapshot, RecorderRef, TimelineRecorder, TimelineSnapshot,
};
use syncplace::overlap::Pattern;
use syncplace::placement::{CostParams, SearchOptions};
use syncplace::Engine;

/// Both views of one instrumented engine run, captured through a
/// [`FanoutRecorder`] tee so they saw the identical call stream.
struct Profiled {
    trace: MetricsSnapshot,
    timeline: TimelineSnapshot,
}

/// Run `engine` on a placed program with the aggregate+timeline tee.
fn run_profiled<const V: usize>(
    engine: Engine,
    prog: &syncplace::ir::Program,
    spmd: &syncplace::codegen::SpmdProgram,
    d: &syncplace::overlap::Decomposition<V>,
    b: &syncplace::runtime::Bindings,
) -> Profiled {
    let tr = Arc::new(MetricsRegistry::new(keys::ALL));
    let tl = Arc::new(TimelineRecorder::new());
    let rec: RecorderRef = Some(Arc::new(FanoutRecorder::new(vec![tr.clone(), tl.clone()])));
    engine.run_with(prog, spmd, d, b, None, &rec).unwrap();
    Profiled {
        trace: tr.snapshot(),
        timeline: tl.snapshot(),
    }
}

/// One report row + JSON entry from a profiled run.
fn digest(
    workload: &str,
    p: usize,
    engine: Engine,
    prof: &Profiled,
    hists: &mut BTreeMap<&'static str, LatencyHistogram>,
    json_runs: &mut Vec<String>,
) -> Vec<String> {
    let a = obs::analyze(&prof.timeline);
    for name in prof.timeline.event_names() {
        hists
            .entry(name)
            .or_default()
            .merge(&prof.timeline.histogram(name));
    }
    json_runs.push(format!(
        "{{\"workload\":\"{workload}\",\"p\":{p},\"engine\":\"{}\",\"analysis\":{},\"trace\":{}}}",
        engine.name(),
        a.to_json(),
        prof.trace.to_json()
    ));
    let t = &prof.trace;
    let run_ns = t.span(keys::RUN_SPAN).map_or(0, |h| h.sum_ns());
    vec![
        format!("{p}"),
        engine.name().to_string(),
        format!("{:.2}", run_ns as f64 / 1e6),
        format!("{:.2}", a.critical_path_ns as f64 / 1e6),
        format!("{:.1}", a.wait_share * 100.0),
        format!("{:.2}", a.max_imbalance),
        format!("{}", a.phases.len()),
        format!("{}", t.counter(keys::COMM_MESSAGES)),
        format!("{}", t.counter(keys::COMM_VALUES)),
        format!("{}", t.total_packets()),
        format!("{}", t.counter(keys::ITERATIONS)),
    ]
}

/// E21: profile every engine × P on both workloads, histogram the
/// interval latencies, quantify Fig. 9 vs Fig. 10 (critical path +
/// cost-model cross-validation) and trace one placement search. Writes
/// `PROFILE_runtime.json` and `PROFILE_trace.json`; returns the
/// printable report.
pub fn profile_runtime(scale: Scale) -> String {
    let procs: &[usize] = match scale {
        Scale::Quick => &[2, 4],
        Scale::Paper => &[2, 4, 8],
    };
    let headers = [
        "P",
        "engine",
        "run ms",
        "crit path ms",
        "wait %",
        "max imbal",
        "phases",
        "messages",
        "values",
        "packets",
        "iters",
    ];

    let mut out = String::from(
        "E21 — engine profiler (schedule counters, critical paths, wait attribution, histograms)\n",
    );
    let mut json_runs = Vec::new();
    let mut hists: BTreeMap<&'static str, LatencyHistogram> = BTreeMap::new();
    // Timelines kept for the Chrome export: (process label, snapshot).
    let mut chrome_runs: Vec<(String, TimelineSnapshot)> = Vec::new();

    // Workload 1: TESTIV on the 2-D perturbed grid.
    let s = setup::testiv(scale.mesh_n(), 1e-8, &fig6());
    let mut rows = Vec::new();
    for &p in procs {
        let (d, spmd) = setup::decompose(&s, p, Pattern::FIG1, 0);
        for engine in Engine::ALL {
            let prof = run_profiled(engine, &s.prog, &spmd, &d, &s.bindings);
            rows.push(digest("testiv", p, engine, &prof, &mut hists, &mut json_runs));
            if engine == Engine::Batched && p == *procs.last().unwrap() {
                chrome_runs.push((format!("testiv batched P={p}"), prof.timeline));
            }
        }
    }
    let _ = write!(
        out,
        "\nTESTIV, {n}x{n} perturbed grid:\n\n{}\n",
        table(&headers, &rows),
        n = scale.mesh_n()
    );

    // Workload 2: 3-D heat diffusion on the tet box mesh (Fig. 8).
    let n3 = match scale {
        Scale::Quick => 4,
        Scale::Paper => 6,
    };
    let t3 = setup::tet_heat(n3);
    let spmd3 = syncplace::codegen::spmd_program(&t3.prog, &t3.dfg, &t3.analysis.solutions[0]);
    let mut rows3 = Vec::new();
    for &p in procs {
        let part =
            syncplace::partition::partition3d(&t3.mesh, p, syncplace::partition::Method::Rcb);
        let d = syncplace::overlap::decompose3d(&t3.mesh, &part.part, p, Pattern::FIG1);
        for engine in Engine::ALL {
            let prof = run_profiled(engine, &t3.prog, &spmd3, &d, &t3.bindings);
            rows3.push(digest("tet-heat", p, engine, &prof, &mut hists, &mut json_runs));
            if engine == Engine::Batched && p == *procs.last().unwrap() {
                chrome_runs.push((format!("tet-heat batched P={p}"), prof.timeline));
            }
        }
    }
    let _ = write!(
        out,
        "\n3-D tet heat, {n3}x{n3}x{n3} box mesh:\n\n{}\n",
        table(&headers, &rows3)
    );

    // Latency histograms, merged over every run above (event-stream
    // intervals, so quantiles reflect all ranks, not rank 0 alone).
    let mut hrows = Vec::new();
    let mut json_hists = Vec::new();
    for (name, h) in &hists {
        hrows.push(vec![
            name.to_string(),
            format!("{}", h.count()),
            format!("{:.3}", h.p50() / 1e6),
            format!("{:.3}", h.p95() / 1e6),
            format!("{:.3}", h.p99() / 1e6),
            format!("{:.3}", h.max_ns() as f64 / 1e6),
        ]);
        json_hists.push(h.to_json(name));
    }
    let _ = write!(
        out,
        "\ninterval latencies over all runs (log₂-bucketed):\n\n{}\n",
        table(&["interval", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"], &hrows)
    );

    // Fig. 9-style vs Fig. 10-style, quantitatively: same program,
    // same mesh, largest P, batched engine — compare the critical
    // paths and cross-validate the cost model's traffic prediction
    // against the observed wire volumes.
    let fig10_idx = setup::fig10_style_index(&s).expect("fig10-style solution exists");
    let cmp_p = *procs.last().unwrap();
    let mut prows = Vec::new();
    let mut json_placements = Vec::new();
    let mut cp_ms = Vec::new();
    let mut obs_values_per_iter = Vec::new();
    let mut pred_volume = Vec::new();
    for (style, idx) in [("fig9", 0usize), ("fig10", fig10_idx)] {
        let (d, spmd) = setup::decompose(&s, cmp_p, Pattern::FIG1, idx);
        let prof = run_profiled(Engine::Batched, &s.prog, &spmd, &d, &s.bindings);
        let a = obs::analyze(&prof.timeline);
        let iters = prof.trace.counter(keys::ITERATIONS).max(1);
        let values_per_iter = prof.trace.total_pair_values() as f64 / iters as f64;
        let cost = &s.analysis.solutions[idx.min(s.analysis.solutions.len() - 1)].cost;
        let (pred_phases, pred_vol) = cost.predicted_per_iteration();
        let phases = prof.trace.span(keys::PHASE_SPAN).map_or(0, |h| h.count());
        cp_ms.push(a.critical_path_ns as f64 / 1e6);
        obs_values_per_iter.push(values_per_iter);
        pred_volume.push(pred_vol);
        prows.push(vec![
            style.to_string(),
            format!("{:.2}", a.critical_path_ns as f64 / 1e6),
            format!("{:.1}", a.wait_share * 100.0),
            format!("{:.2}", a.max_imbalance),
            format!("{phases}"),
            format!("{pred_phases:.0}"),
            format!("{pred_vol:.2}"),
            format!("{values_per_iter:.1}"),
            format!("{}", prof.trace.total_packets()),
        ]);
        json_placements.push(format!(
            "{{\"style\":\"{style}\",\"p\":{cmp_p},\"engine\":\"batched\",\
             \"predicted_phases_per_iter\":{pred_phases:.4},\"predicted_volume_per_iter\":{pred_vol:.4},\
             \"observed_values_per_iter\":{values_per_iter:.4},\"iterations\":{iters},\
             \"analysis\":{},\"trace\":{}}}",
            a.to_json(),
            prof.trace.to_json()
        ));
        chrome_runs.push((format!("{style} batched P={cmp_p}"), prof.timeline));
    }
    let _ = write!(
        out,
        "\nFig. 9-style vs Fig. 10-style (batched, P={cmp_p}):\n\n{}\n",
        table(
            &[
                "placement",
                "crit path ms",
                "wait %",
                "max imbal",
                "phases",
                "pred phases/iter",
                "pred vol/iter",
                "obs values/iter",
                "packets",
            ],
            &prows
        )
    );
    // The model predicts *ratios* between placements of one program;
    // absolute units are abstract. Both placements move the same
    // interface data here (they differ in grouping, not volume), so
    // the observed ratio must track the predicted one.
    let pred_ratio = pred_volume[1] / pred_volume[0].max(1e-12);
    let obs_ratio = obs_values_per_iter[1] / obs_values_per_iter[0].max(1e-12);
    let _ = writeln!(
        out,
        "critical path fig10/fig9: {:.3}x; volume-per-iteration ratio: predicted {pred_ratio:.3}, observed {obs_ratio:.3}",
        cp_ms[1] / cp_ms[0].max(1e-9)
    );

    // Traced placement search on the same program: the registry's
    // counters must agree with the analysis it watched.
    let tr = Arc::new(MetricsRegistry::new(keys::ALL));
    let rec: RecorderRef = Some(tr.clone());
    let an = syncplace::placement::analyze_recorded(
        &s.prog,
        &s.dfg,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
        &rec,
    );
    let search = tr.snapshot();
    assert_eq!(
        search.counter(keys::SEARCH_SOLUTIONS),
        an.solutions.len() as u64
    );
    let _ = writeln!(
        out,
        "\nplacement search (TESTIV × fig6): {} visits, {} backtracks, \
         {} placements kept, {} duplicate mappings pruned, {:.2} ms",
        search.counter(keys::SEARCH_VISITS),
        search.counter(keys::SEARCH_BACKTRACKS),
        search.counter(keys::SEARCH_SOLUTIONS),
        search.counter(keys::SEARCH_PRUNED),
        search.span(keys::SEARCH_SPAN).map_or(0, |h| h.sum_ns()) as f64 / 1e6
    );

    let json = format!(
        "{{\n  \"schema\": \"{}\",\n  \"git_rev\": \"{}\",\n  \"scale\": \"{}\",\n  \
         \"runs\": [\n    {}\n  ],\n  \"histograms\": [\n    {}\n  ],\n  \
         \"placements\": [\n    {}\n  ],\n  \
         \"placement_ratios\": {{\"critical_path\": {:.4}, \"predicted_volume\": {pred_ratio:.4}, \"observed_volume\": {obs_ratio:.4}}},\n  \
         \"search\": {}\n}}\n",
        crate::PROFILE_SCHEMA,
        crate::git_rev(),
        scale.name(),
        json_runs.join(",\n    "),
        json_hists.join(",\n    "),
        json_placements.join(",\n    "),
        cp_ms[1] / cp_ms[0].max(1e-9),
        search.to_json(),
    );
    match std::fs::write("PROFILE_runtime.json", &json) {
        Ok(()) => out.push_str("\nraw profile: PROFILE_runtime.json\n"),
        Err(e) => {
            let _ = writeln!(out, "\n(could not write PROFILE_runtime.json: {e})");
        }
    }

    let runs: Vec<ChromeRun<'_>> = chrome_runs
        .iter()
        .map(|(name, snap)| ChromeRun { name, snapshot: snap })
        .collect();
    let trace = obs::chrome_trace(&runs);
    match std::fs::write("PROFILE_trace.json", &trace) {
        Ok(()) => {
            let _ = writeln!(
                out,
                "chrome trace: PROFILE_trace.json ({} runs, {} KiB) — load in Perfetto or chrome://tracing",
                runs.len(),
                trace.len() / 1024
            );
        }
        Err(e) => {
            let _ = writeln!(out, "(could not write PROFILE_trace.json: {e})");
        }
    }
    out
}
