//! Timeline-profiler acceptance tests (E21).
//!
//! * A `FanoutRecorder` teeing one run into a `MetricsRegistry` and a
//!   `TimelineRecorder` must agree **exactly**: the timeline's rank-0
//!   `engine.phase` / `engine.compute` events sum to the registry
//!   histogram's count and `sum_ns`, because `obs::finish_ranked`
//!   hands both recorders the same duration value.
//! * The phase-DAG critical path has a known answer on a hand-built
//!   DAG, and on live runs it is bounded by the physical wall-clock.
//! * Per-rank event streams are aligned: every rank sees the same
//!   phase sequence, every rank emits exactly one `engine.rank_run`.
//! * The Chrome trace export is structurally valid trace_event JSON.
//! * The README key glossary and `obs::keys::ALL` cannot drift apart.
//! * A live `TimelineRecorder` (per-thread shards, no shared lock on
//!   the hot path) stays within 5% of the disabled path.

use std::sync::Arc;
use syncplace::obs::{
    self, keys, ChromeRun, FanoutRecorder, MetricsRegistry, PhaseDag, RecorderRef,
    TimelineRecorder,
};
use syncplace::prelude::*;
use syncplace::Engine;
use syncplace_suite::fixed_iteration_testiv;

fn run_teed(
    engine: Engine,
    p: usize,
) -> (
    syncplace::obs::MetricsSnapshot,
    syncplace::obs::TimelineSnapshot,
) {
    let (prog, bindings, mesh, spmd) = fixed_iteration_testiv(6, 9);
    let part = partition2d(&mesh, p, Method::Greedy);
    let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
    let tr = Arc::new(MetricsRegistry::new(keys::ALL));
    let tl = Arc::new(TimelineRecorder::new());
    let rec: RecorderRef = Some(Arc::new(FanoutRecorder::new(vec![tr.clone(), tl.clone()])));
    engine
        .run_with(&prog, &spmd, &d, &bindings, None, &rec)
        .unwrap();
    (tr.snapshot(), tl.snapshot())
}

#[test]
fn rank0_timeline_events_sum_to_the_registry_spans_exactly() {
    // On every engine the two views of the ranked intervals agree: the
    // timeline's rank-0 events and the registry's span histogram have
    // the same count and the same summed nanoseconds, and nothing any
    // engine emits falls outside `keys::ALL`.
    let p = 4usize;
    for engine in Engine::ALL {
        let (trace, timeline) = run_teed(engine, p);
        assert_eq!(trace.dropped, 0, "{}: key missing from keys::ALL", engine.name());
        for name in [keys::PHASE_SPAN, keys::COMPUTE_SPAN] {
            let agg = trace.span(name).unwrap_or_else(|| panic!("{}: no {name}", engine.name()));
            let rank0: Vec<u64> = timeline
                .events_named(name)
                .filter(|e| e.rank == 0)
                .map(|e| e.dur_ns())
                .collect();
            assert_eq!(rank0.len() as u64, agg.count(), "{} {name}", engine.name());
            assert_eq!(rank0.iter().sum::<u64>(), agg.sum_ns(), "{} {name}", engine.name());
        }
        // The phase histogram reads the per-rank event stream: every
        // rank process logs its own in-phase time, so P samples per
        // instance (the round-robin reference has one lane), and the
        // stream's max can't sit below the span-table max.
        let lanes = if engine == Engine::RoundRobin { 1 } else { p as u64 };
        let agg = trace.span(keys::PHASE_SPAN).unwrap();
        let hist = timeline.histogram(keys::PHASE_SPAN);
        assert_eq!(hist.count(), agg.count() * lanes, "{}", engine.name());
        assert!(hist.max_ns() >= agg.max_ns(), "histogram max below span max");
    }
}

#[test]
fn per_rank_event_streams_are_aligned() {
    let p = 4usize;
    let (_, timeline) = run_teed(Engine::Batched, p);
    assert_eq!(timeline.nranks(), p);

    // Every rank walks the same placed program, so every rank logs the
    // same number of phase instances, in the same order.
    let phases = timeline.per_rank(keys::PHASE_SPAN);
    assert_eq!(phases.len(), p);
    let k = phases[0].len();
    assert!(k > 0, "no phase instances recorded");
    for (r, seq) in phases.iter().enumerate() {
        assert_eq!(seq.len(), k, "rank {r} phase count diverged");
    }

    // Exactly one whole-job interval per rank, spanning its phases.
    let runs = timeline.per_rank(keys::RANK_RUN);
    assert_eq!(runs.len(), p);
    for (r, seq) in runs.iter().enumerate() {
        assert_eq!(seq.len(), 1, "rank {r}: expected one rank_run event");
        let job = &seq[0];
        for ph in &phases[r] {
            assert!(
                ph.end_ns <= job.end_ns,
                "rank {r}: phase event ends after its own job"
            );
        }
    }

    // The analysis sees the aligned structure: P ranks, k instances,
    // and a critical path no shorter than the slowest-rank phase sum
    // (the barrier chain alone is a lower bound on any schedule).
    let a = obs::analyze(&timeline);
    assert_eq!(a.nranks, p);
    assert_eq!(a.phases.len(), k);
    let barrier_sum: u64 = a.phases.iter().map(|ph| ph.max_dur_ns).sum();
    assert!(a.critical_path_ns >= barrier_sum);
    assert!(a.max_imbalance >= 1.0);
    assert!((0.0..=1.0).contains(&a.wait_share));
}

#[test]
fn critical_path_known_answer_on_synthetic_dag() {
    // source ─▶ a(10) ─▶ p1(5) ─▶ c(1) ─▶ sink
    //       └─▶ b(3) ──┘      └─▶ d(20) ─▶ sink
    // Longest path: source, a, p1, d, sink = 35.
    let mut dag = PhaseDag::new();
    let source = dag.add_node("source", 0);
    let a = dag.add_node("a", 10);
    let b = dag.add_node("b", 3);
    let p1 = dag.add_node("p1", 5);
    let c = dag.add_node("c", 1);
    let d = dag.add_node("d", 20);
    let sink = dag.add_node("sink", 0);
    dag.add_edge(source, a);
    dag.add_edge(source, b);
    dag.add_edge(a, p1);
    dag.add_edge(b, p1);
    dag.add_edge(p1, c);
    dag.add_edge(p1, d);
    dag.add_edge(c, sink);
    dag.add_edge(d, sink);

    let cp = dag.critical_path();
    assert_eq!(cp.length_ns, 35);
    assert_eq!(
        dag.path_labels(&cp),
        vec!["source", "a", "p1", "d", "sink"]
    );

    // A lone chain degenerates to its own sum.
    let mut chain = PhaseDag::new();
    let x = chain.add_node("x", 7);
    let y = chain.add_node("y", 11);
    chain.add_edge(x, y);
    assert_eq!(chain.critical_path().length_ns, 18);
}

#[test]
fn chrome_trace_export_is_structurally_valid() {
    let (_, timeline) = run_teed(Engine::Batched, 2);
    let json = obs::chrome_trace(&[ChromeRun {
        name: "testiv batched P=2",
        snapshot: &timeline,
    }]);
    // The export must parse as a JSON array of event objects with the
    // trace_event required fields (the workspace's hand-rolled parser
    // — no external deps).
    let v = obs::json::parse(&json).expect("chrome trace is valid JSON");
    let events = v.as_arr().expect("top level is an array");
    assert!(!events.is_empty());

    let mut saw_process_meta = false;
    let mut complete = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph field");
        match ph {
            "M" => {
                if e.get("name").and_then(|n| n.as_str()) == Some("process_name") {
                    saw_process_meta = true;
                    let args = e.get("args").expect("metadata args");
                    assert_eq!(
                        args.get("name").and_then(|n| n.as_str()),
                        Some("testiv batched P=2")
                    );
                }
            }
            "X" => {
                complete += 1;
                for field in ["ts", "dur", "pid", "tid"] {
                    assert!(
                        e.get(field).and_then(|f| f.as_f64()).is_some(),
                        "complete event missing numeric {field}"
                    );
                }
                assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
                assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(saw_process_meta, "process_name metadata missing");
    assert_eq!(
        complete,
        timeline.events.len(),
        "one complete event per timeline interval"
    );
}

#[test]
fn readme_key_glossary_matches_keys_all() {
    // Two-direction drift check between the README glossary and the
    // canonical `obs::keys::ALL` vocabulary.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md at the workspace root");

    // Drop fenced code blocks (odd segments when splitting on ```) so
    // shell examples can't shadow or pollute the inline-code scan.
    let prose: String = readme
        .split("```")
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, s)| s)
        .collect::<Vec<_>>()
        .join("\n");

    // Inline `code` tokens in the remaining prose.
    let mut tokens = Vec::new();
    let mut rest = prose.as_str();
    while let Some(start) = rest.find('`') {
        rest = &rest[start + 1..];
        let Some(end) = rest.find('`') else { break };
        tokens.push(&rest[..end]);
        rest = &rest[end + 1..];
    }

    // Direction 1: every key in the vocabulary appears verbatim as an
    // inline code token somewhere in the README.
    for key in keys::ALL {
        assert!(
            tokens.contains(key),
            "key {key:?} is missing from the README glossary"
        );
    }

    // Direction 2: every backticked token that *looks like* a metric
    // key — dotted, and rooted at one of the vocabulary's namespaces —
    // must be an exact member. Catches stale keys left behind after a
    // rename without tripping on `analysis.critical_path_ms` etc.
    let namespaces: Vec<&str> = keys::ALL
        .iter()
        .filter_map(|k| k.split('.').next())
        .collect();
    for tok in &tokens {
        let Some((root, _)) = tok.split_once('.') else {
            continue;
        };
        if namespaces.contains(&root) && !tok.contains(' ') {
            assert!(
                keys::ALL.contains(tok),
                "README documents {tok:?}, which is not in obs::keys::ALL"
            );
        }
    }
}

#[test]
fn live_timeline_recorder_overhead_stays_under_five_percent() {
    // The in-tree overhead guard: a *live* TimelineRecorder — the
    // real thing, buffering events in per-thread shards — must stay
    // within 5% of the fully disabled path on the batched engine.
    // Min-of-N timing with retries keeps CI scheduling noise from
    // failing the guard. The mesh is sized so the disabled run stays
    // above a millisecond: event volume is phases × ranks whatever the
    // mesh, and a run the W-worker pool finishes in 0.3 ms measures
    // the scheduler's jitter (41×41: 1.6–1.9 ms disabled on the 2-CPU
    // host).
    let prog = syncplace::ir::programs::testiv_with(12);
    let mesh = gen2d::perturbed_grid(41, 41, 0.2, 11);
    let bindings = syncplace::runtime::bindings::testiv_bindings(&prog, &mesh, 0.0);
    let (dfg, analysis) = analyze_program(
        &prog,
        &fig6(),
        &SearchOptions::default(),
        &CostParams::default(),
    );
    let spmd = syncplace::codegen::spmd_program(&prog, &dfg, &analysis.solutions[0]);
    let p = 4usize;
    let part = partition2d(&mesh, p, Method::Greedy);
    let d = decompose2d(&mesh, &part.part, p, Pattern::FIG1);
    let plan = Arc::new(syncplace::runtime::CommPlan::build(&prog, &spmd, &d));

    let time_run = |rec: &RecorderRef| -> f64 {
        let t0 = std::time::Instant::now();
        Engine::Batched
            .run_with(&prog, &spmd, &d, &bindings, Some(&plan), rec)
            .unwrap();
        t0.elapsed().as_secs_f64()
    };
    // Warm the pool and caches.
    time_run(&None);

    let mut best_ratio = f64::INFINITY;
    for _attempt in 0..5 {
        let mut off = f64::INFINITY;
        let mut on = f64::INFINITY;
        for _ in 0..7 {
            // A fresh recorder per timed run keeps buffer reuse from
            // flattering the later reps.
            let tl: RecorderRef = Some(Arc::new(TimelineRecorder::new()));
            off = off.min(time_run(&None));
            on = on.min(time_run(&tl));
        }
        best_ratio = best_ratio.min(on / off.max(1e-12));
        if best_ratio <= 1.05 {
            break;
        }
    }
    assert!(
        best_ratio <= 1.05,
        "live timeline recorder overhead {:.1}% exceeds the 5% budget",
        (best_ratio - 1.0) * 100.0
    );
}
