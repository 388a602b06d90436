//! The one metric set: names, units and directions, exactly as
//! `BENCHMARK.json` declares them, and the derivation of per-layer
//! figures from recorded spans and counts.

use std::collections::BTreeMap;

use crate::stats::quantile_pm;
use crate::trace::{Phase, Tracer};

/// A declared metric: name, unit, and whether higher is better.
pub type Decl = (&'static str, &'static str, bool);

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [Decl; 4] = [
    ("setup_s", "s", false),
    ("op_ms_min", "ms", false),
    ("ops_per_s", "1/s", true),
    ("peak_rss_mb", "MB", false),
];

/// Per-layer metrics, reported by every workload's traced run. Layer =
/// crate/module name; `stage.*` are the pipeline stages, `loop.*` the
/// measuring loop's own view and `trace.*` the benchmark's honesty
/// figures.
pub const PER_LAYER: [Decl; 64] = [
    ("ir.parse_ms", "ms", false),
    ("ir.source_bytes", "bytes", false),
    ("ir.parse_mb_per_s", "MB/s", true),
    ("dfg.build_ms", "ms", false),
    ("dfg.nodes", "count", false),
    ("dfg.arrows", "count", false),
    ("placement.analyze_ms", "ms", false),
    ("placement.legality_ms", "ms", false),
    ("placement.enumerate_ms", "ms", false),
    ("placement.rank_ms", "ms", false),
    ("placement.visits", "count", false),
    ("placement.backtracks", "count", false),
    ("placement.mappings", "count", false),
    ("placement.solutions", "count", true),
    ("placement.visits_per_s", "1/s", true),
    ("placement.useful_ratio", "ratio", true),
    ("codegen.spmd_ms", "ms", false),
    ("codegen.annotate_ms", "ms", false),
    ("codegen.comm_ops", "count", false),
    ("mesh.gen_ms", "ms", false),
    ("mesh.elems", "count", true),
    ("partition.ms", "ms", false),
    ("partition.melem_per_s", "Melem/s", true),
    ("partition.edge_cut", "count", false),
    ("overlap.decompose_ms", "ms", false),
    ("overlap.melem_per_s", "Melem/s", true),
    ("overlap.dup_elems", "count", false),
    ("runtime.decomp.par_ms", "ms", false),
    ("runtime.decomp.par_over_seq", "ratio", false),
    ("runtime.plan.build_ms", "ms", false),
    ("runtime.plan.packets_per_sweep", "count", false),
    ("runtime.bindings.ms", "ms", false),
    ("runtime.exec.sequential_ms", "ms", false),
    ("runtime.exec.melem_iter_per_s", "Melem.iter/s", true),
    ("runtime.engine.round-robin.ms", "ms", false),
    ("runtime.engine.batched.ms", "ms", false),
    ("runtime.engine.overlapped.ms", "ms", false),
    ("runtime.engine.batched.over_seq", "ratio", false),
    ("runtime.engine.overlapped.over_seq", "ratio", false),
    ("runtime.engine.batched.over_rr", "ratio", false),
    (
        "runtime.engine.batched.melem_iter_per_s",
        "Melem.iter/s",
        true,
    ),
    ("runtime.comm.messages", "count", false),
    ("runtime.comm.values", "count", false),
    ("runtime.comm.phases", "count", false),
    ("server.inproc_hot_ms_p50", "ms", false),
    ("server.wire_ms_p50", "ms", false),
    ("server.run_ms_p50", "ms", false),
    ("server.compile_ms_p50", "ms", false),
    ("server.overhead_ms_p50", "ms", false),
    ("server.hot_ms_p95", "ms", false),
    ("server.cold_ms_p50", "ms", false),
    ("server.requests", "count", true),
    ("server.shed", "count", false),
    ("server.place_hits", "count", true),
    ("server.place_misses", "count", false),
    ("server.plan_hits", "count", true),
    ("server.plan_misses", "count", false),
    ("server.hit_ratio", "ratio", true),
    ("stage.compile_ms", "ms", false),
    ("stage.prepare_ms", "ms", false),
    ("stage.solve_ms", "ms", false),
    ("loop.op_ms_p50", "ms", false),
    ("trace.layers_sum_share", "ratio", true),
    ("trace.overhead_ratio", "ratio", false),
];

/// Span of a hot request over the socket (feeds `server.wire_ms_p50`,
/// `server.overhead_ms_p50` and `server.hot_ms_p95`).
pub const SERVER_HOT_SPAN: &str = "server.hot_ms";
/// Count of element·iterations one engine run performs.
pub const ENGINE_WORK: &str = "runtime.engine.work";
/// Count of element·iterations the sequential reference performs.
pub const EXEC_WORK: &str = "runtime.exec.work";

/// A derived per-layer metric: its name, the recorded figures it is
/// computed from, and the formula over them in that order.
type Derived = (&'static str, &'static [&'static str], fn(&[f64]) -> f64);

/// Every ratio and difference, each from figures that are themselves
/// reported (or, for the work counts, recorded at the same boundary).
const DERIVED: [Derived; 15] = [
    (
        "ir.parse_mb_per_s",
        &["ir.source_bytes", "ir.parse_ms"],
        |v| 1e-3 * v[0] / v[1],
    ),
    (
        "placement.rank_ms",
        &[
            "placement.analyze_ms",
            "placement.legality_ms",
            "placement.enumerate_ms",
        ],
        |v| v[0] - v[1] - v[2],
    ),
    (
        "placement.visits_per_s",
        &["placement.visits", "placement.enumerate_ms"],
        |v| 1e3 * v[0] / v[1],
    ),
    (
        "placement.useful_ratio",
        &["placement.solutions", "placement.mappings"],
        |v| v[0] / v[1],
    ),
    (
        "partition.melem_per_s",
        &["mesh.elems", "partition.ms"],
        |v| 1e-3 * v[0] / v[1],
    ),
    (
        "overlap.melem_per_s",
        &["mesh.elems", "overlap.decompose_ms"],
        |v| 1e-3 * v[0] / v[1],
    ),
    (
        "runtime.decomp.par_over_seq",
        &["runtime.decomp.par_ms", "overlap.decompose_ms"],
        |v| v[0] / v[1],
    ),
    (
        "runtime.exec.melem_iter_per_s",
        &[EXEC_WORK, "runtime.exec.sequential_ms"],
        |v| 1e-3 * v[0] / v[1],
    ),
    (
        "runtime.engine.batched.melem_iter_per_s",
        &[ENGINE_WORK, "runtime.engine.batched.ms"],
        |v| 1e-3 * v[0] / v[1],
    ),
    (
        "runtime.engine.batched.over_seq",
        &["runtime.engine.batched.ms", "runtime.exec.sequential_ms"],
        |v| v[0] / v[1],
    ),
    (
        "runtime.engine.overlapped.over_seq",
        &["runtime.engine.overlapped.ms", "runtime.exec.sequential_ms"],
        |v| v[0] / v[1],
    ),
    (
        "runtime.engine.batched.over_rr",
        &["runtime.engine.batched.ms", "runtime.engine.round-robin.ms"],
        |v| v[0] / v[1],
    ),
    (
        "server.wire_ms_p50",
        &[SERVER_HOT_SPAN, "server.inproc_hot_ms_p50"],
        |v| v[0] - v[1],
    ),
    (
        "server.overhead_ms_p50",
        &[SERVER_HOT_SPAN, "server.run_ms_p50"],
        |v| v[0] - v[1],
    ),
    (
        "server.hit_ratio",
        &[
            "server.place_hits",
            "server.place_misses",
            "server.plan_hits",
            "server.plan_misses",
        ],
        |v| (v[0] + v[2]) / (v[0] + v[1] + v[2] + v[3]),
    ),
];

/// Every per-layer metric of a traced run, in declaration order.
///
/// A metric is computed from the figures the measured operations
/// recorded. A layer those operations never entered reports what set-up
/// recorded instead — the preflight runs every layer once — so every
/// layer has a measured time on every workload. A derived metric takes
/// *all* its inputs from the same phase, so no ratio mixes an operation's
/// figure with a preflight's. `measured` carries what the loop measures
/// itself (`trace.overhead_ratio`, `loop.op_ms_p50`).
pub fn per_layer(tr: &Tracer, measured: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let phases = [tr.figures(Phase::Op), tr.figures(Phase::Setup)];
    let pick = |inputs: &[&str]| -> Option<Vec<f64>> {
        phases
            .iter()
            .find(|f| inputs.iter().all(|k| f.contains_key(k)))
            .map(|f| inputs.iter().map(|k| f[k]).collect())
    };
    let mut m: BTreeMap<&'static str, f64> = measured.iter().copied().collect();
    for (name, _, _) in PER_LAYER {
        if let Some(v) = pick(&[name]) {
            m.insert(name, v[0]);
        }
    }
    for (name, inputs, formula) in DERIVED {
        if let Some(v) = pick(inputs).map(|v| formula(&v)).filter(|v| v.is_finite()) {
            m.insert(name, v);
        }
    }
    let hot_phase = if phases[0].contains_key(SERVER_HOT_SPAN) {
        Phase::Op
    } else {
        Phase::Setup
    };
    if let Some(p95) = quantile_pm(&tr.samples_ms(SERVER_HOT_SPAN, hot_phase), 950) {
        m.insert("server.hot_ms_p95", p95);
    }
    if let Some(share) = tr.layers_sum_share() {
        m.insert("trace.layers_sum_share", share);
    }
    PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, m.get(name).copied().unwrap_or(0.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(name, "_.-", 64), "bad name {name}");
            assert!(ok(unit, "_/%.-", 16), "bad unit {unit}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = crate::layers::json::parse(&text).expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|(n, u, higher)| {
                    let better = if *higher { "higher" } else { "lower" };
                    (n.to_string(), u.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(declared, ours, "{key} differs from metrics.rs");
        }
    }
}
