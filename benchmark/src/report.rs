//! Turning an [`Outcome`] into the metrics of one run, printing them,
//! and the two tools over result files: `results.json` validation
//! against `BENCHMARK.json` and `compare`.

use std::collections::BTreeMap;

use crate::harness::Outcome;
use crate::layers::json::{self, Value};
use crate::metrics::{per_layer, Decl, END_TO_END, PER_LAYER};
use crate::stats::tail_percentile;
use crate::workloads::Workload;

/// The file the contract and this benchmark agree on.
pub const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// One run's result: the contract's last line, as a value.
pub struct RunResult {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// `(name, value, unit)` — end-to-end metrics of an untraced run,
    /// per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// Build the result of `w`'s run from what it measured.
    pub fn from_outcome(w: &Workload, trace: bool, out: &mut Outcome) -> RunResult {
        let with_units = |values: Vec<(&'static str, f64)>, decls: &[Decl]| {
            values
                .into_iter()
                .zip(decls)
                .map(|((name, v), (_, unit, _))| (name, v, *unit))
                .collect::<Vec<_>>()
        };
        let metrics = if trace {
            let measured = [
                ("trace.overhead_ratio", out.overhead_ratio()),
                ("loop.op_ms_p50", out.op_ms_p50()),
            ];
            let values = per_layer(&out.tracer, &measured);
            let share = out.tracer.layers_sum_share().unwrap_or(0.0);
            if w.library && !(0.95..=1.05).contains(&share) {
                out.fail(format!(
                    "trace.layers_sum_share {share:.4}: layer spans do not add up to the operation wall"
                ));
            }
            with_units(values, &PER_LAYER)
        } else {
            let values = vec![
                ("setup_s", out.setup_min_s()),
                ("op_ms_min", out.op_ms_min()),
                ("ops_per_s", out.ops_per_s()),
                ("peak_rss_mb", out.peak_rss_mb),
            ];
            with_units(values, &END_TO_END)
        };
        for (name, v, _) in &metrics {
            if !v.is_finite() {
                out.fail(format!("metric {name} is not finite"));
            }
        }
        RunResult {
            correct: out.failures.is_empty(),
            attempted: out.attempted.max(1),
            failed: (out.failures.len() as u64).min(out.attempted.max(1)),
            metrics,
        }
    }

    /// The contract's result object.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let m = Value::Obj(vec![
                    (
                        "value".into(),
                        Value::Num(if v.is_finite() { *v } else { 0.0 }),
                    ),
                    ("unit".into(), Value::Str((*unit).into())),
                ]);
                ((*name).to_string(), m)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }
}

/// Print every metric by name with its unit, the sample counts behind the
/// medians, and any failure.
pub fn print_human(w: &Workload, trace: bool, out: &Outcome, res: &RunResult) {
    println!(
        "workload {} ({} run): {} operations attempted, {} failed",
        w.name,
        if trace { "traced" } else { "untraced" },
        res.attempted,
        res.failed
    );
    let lat: Vec<f64> = out.untraced.iter().map(|(_, ms)| *ms).collect();
    let tail = tail_percentile(&lat).map_or(
        "no tail percentile has 10 samples beyond it".to_string(),
        |(p, v)| format!("{p} {v:.3} ms"),
    );
    println!(
        "  samples: {} untraced + {} traced operations, {} set-ups; untraced latency {tail}",
        out.untraced.len(),
        out.traced.len(),
        out.setup_s.len()
    );
    for (name, v, unit) in &res.metrics {
        println!("  {name:<42} {v:>16.6} {unit}");
    }
    for f in out.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn members(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Obj(m)) => m,
        _ => &[],
    }
}

fn declared_names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str).map(String::from))
        .collect()
}

/// Check a `results.json` against the names `BENCHMARK.json` declares: no
/// undeclared and no missing workload or metric.
pub fn validate(results: &Value) -> Result<(), String> {
    let decl = read_json(BENCHMARK_JSON)?;
    let mut problems = Vec::new();
    let mut same = |what: &str, got: Vec<String>, want: Vec<String>| {
        for g in &got {
            if !want.contains(g) {
                problems.push(format!("{what}: '{g}' is not declared in {BENCHMARK_JSON}"));
            }
        }
        for w in &want {
            if !got.contains(w) {
                problems.push(format!("{what}: declared '{w}' is missing"));
            }
        }
    };
    let workloads = members(results.get("workloads"));
    same(
        "workloads",
        workloads.iter().map(|(k, _)| k.clone()).collect(),
        declared_names(&decl, "workloads"),
    );
    for (name, w) in workloads {
        for section in ["end_to_end", "per_layer"] {
            same(
                &format!("{name}.{section}"),
                members(w.get(section))
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect(),
                declared_names(&decl, section),
            );
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// `compare A.json B.json`: per workload and end-to-end metric both
/// values, their relative difference and the metric's bound. `Err` when a
/// pair disagrees by more than its bound or any run had failures.
pub fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let decl = read_json(BENCHMARK_JSON)?;
    let bounds: BTreeMap<String, f64> = decl
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect();
    let mut bad = Vec::new();
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for (wname, wa) in members(a.get("workloads")) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(wname)) else {
            bad.push(format!("{wname}: missing from {b_path}"));
            continue;
        };
        for (side, w) in [(a_path, wa), (b_path, wb)] {
            let failed = w.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
            if failed != 0.0 || w.get("correct") != Some(&Value::Bool(true)) {
                bad.push(format!("{wname}: {failed} failed operations in {side}"));
            }
        }
        for (metric, ma) in members(wa.get("end_to_end")) {
            let value = |m: Option<&Value>| m.and_then(|m| m.get("value")).and_then(Value::as_f64);
            let mb = wb.get("end_to_end").and_then(|e| e.get(metric));
            let (Some(va), Some(vb)) = (value(Some(ma)), value(mb)) else {
                bad.push(format!("{wname}.{metric}: missing from {b_path}"));
                continue;
            };
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let diff = (vb - va) / va;
            let verdict = if diff.abs() > bound { "  DISAGREE" } else { "" };
            println!(
                "{wname:<14} {metric:<12} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}%{verdict}",
                diff * 100.0,
                bound * 100.0
            );
            if diff.abs() > bound {
                bad.push(format!(
                    "{wname}.{metric}: {va} vs {vb} differ by {:.1}% > {:.0}%",
                    diff.abs() * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}
