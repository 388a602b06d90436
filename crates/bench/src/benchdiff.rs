//! Comparing two `BENCH_runtime.json` snapshots — the machinery behind
//! `reproduce benchdiff` and `scripts/benchdiff.sh`.
//!
//! The workspace is std-only (no serde); snapshots are loaded with the
//! shared recursive-descent reader in [`syncplace::obs::json`] (which
//! the placement server's request protocol uses too) — enough for the
//! hand-rolled artifacts the harness writes (objects, arrays, strings
//! with the escapes [`json_escape`] emits, numbers, booleans, null).
//!
//! Comparison semantics:
//!
//! * both files must carry the current [`crate::BENCH_SCHEMA`] tag —
//!   an *old* snapshot from before the tag existed (or from an older
//!   schema) yields a **skip**, not a failure, so the CI gate passes
//!   on the commit that introduces the schema;
//! * engine rows are matched on `(p, engine)`; a row present on one
//!   side only fails the check when scales match (coverage drift);
//! * wall-clock is gated on the ratio `new/old` per engine row, only
//!   when both snapshots were taken at the same scale — the default
//!   threshold (2.0×) is deliberately loose because CI machines are
//!   noisy; the point is catching order-of-magnitude regressions;
//! * `speedup_vs_rr` — each engine's modeled time relative to the
//!   round-robin reference at the same P, deterministic because it is
//!   computed from schedule-derived counters, not clocks — must not
//!   fall more than 10% below the committed value (same scale only);
//! * the batched engine's structural invariant
//!   (`batched_max_packets_per_pair_per_phase`) must not grow;
//! * the placement server's `serve` section (E23) must show a
//!   hot-cache throughput of at least 5× the cold-cache throughput at
//!   paper scale;
//! * the serve section's live-telemetry audit (schema v7) must report
//!   `stats_consistent: true` at any scale — the daemon's metrics
//!   registry reconciled exactly with the bench's request ledger —
//!   and at paper scale the measured `obs_overhead` (hot-path latency
//!   telemetry-on / telemetry-off) must not exceed 1.05×;
//! * the `racecheck` section (E25) must report zero capped
//!   explorations, zero happens-before violations on clean runs, and
//!   every seeded defect caught, at any scale (these are correctness
//!   results, not timings);
//! * **no top-level section may disappear**: every key present in a
//!   paper-scale baseline must still be present in a same-scale
//!   regeneration (`serve`, `large`, `racecheck`, and anything added
//!   later — the rule is generic).
//!
//! [`json_escape`]: syncplace::obs::trace::json_escape

use std::fmt::Write as _;

/// The snapshot reader, re-exported from the shared JSON module so
/// existing `benchdiff::parse` / `benchdiff::Value` callers keep
/// working after the parser's move into `syncplace-obs`.
pub use syncplace::obs::json::{parse, Value};

/// The outcome of one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both snapshots carry the current schema and every gate passed.
    Ok,
    /// At least one side predates the current schema (or isn't a bench
    /// snapshot at all) — nothing comparable, gate passes with a note.
    Skipped,
    /// A gate failed.
    Regression,
}

/// Compare two parsed `BENCH_runtime.json` documents. `max_ratio`
/// bounds the per-row wall-clock ratio `new/old` (applied only when
/// the scales match). Returns the printable report and the verdict.
pub fn compare(old: &Value, new: &Value, max_ratio: f64) -> (String, Verdict) {
    let mut out = String::new();
    let schema = |v: &Value| v.get("schema").and_then(|s| s.as_str().map(String::from));
    let (so, sn) = (schema(old), schema(new));
    if so.as_deref() != Some(crate::BENCH_SCHEMA) {
        let _ = writeln!(
            out,
            "benchdiff: old snapshot has schema {:?}, want {:?} — nothing comparable, skipping",
            so,
            crate::BENCH_SCHEMA
        );
        return (out, Verdict::Skipped);
    }
    if sn.as_deref() != Some(crate::BENCH_SCHEMA) {
        let _ = writeln!(
            out,
            "benchdiff: new snapshot has schema {:?}, want {:?} — regenerate it with `reproduce bench-runtime`",
            sn,
            crate::BENCH_SCHEMA
        );
        return (out, Verdict::Regression);
    }

    let scale = |v: &Value| v.get("scale").and_then(|s| s.as_str().map(String::from));
    let same_scale = scale(old) == scale(new);
    let rev = |v: &Value| {
        v.get("git_rev")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let _ = writeln!(
        out,
        "benchdiff: {} ({:?}) → {} ({:?}){}",
        rev(old),
        scale(old).unwrap_or_default(),
        rev(new),
        scale(new).unwrap_or_default(),
        if same_scale { "" } else { " — scales differ, wall-clock gate skipped" }
    );

    let mut verdict = Verdict::Ok;
    let rows = |v: &Value| -> Vec<(String, f64, Option<f64>)> {
        v.get("engines")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|e| {
                let p = e.get("p")?.as_f64()?;
                let name = e.get("engine")?.as_str()?;
                let wall = e.get("wall_ms")?.as_f64()?;
                let vs_rr = e.get("speedup_vs_rr").and_then(Value::as_f64);
                Some((format!("P={p} {name}"), wall, vs_rr))
            })
            .collect()
    };
    let (ro, rn) = (rows(old), rows(new));
    for (key, wall_new, vs_rr_new) in &rn {
        match ro.iter().find(|(k, _, _)| k == key) {
            None => {
                if same_scale {
                    let _ = writeln!(out, "  {key}: new row (no baseline)");
                }
            }
            Some((_, wall_old, vs_rr_old)) => {
                if !same_scale {
                    continue;
                }
                let ratio = wall_new / wall_old.max(1e-9);
                let flag = if ratio > max_ratio {
                    verdict = Verdict::Regression;
                    "  REGRESSION"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "  {key}: {wall_old:.2} ms → {wall_new:.2} ms ({ratio:.2}x){flag}"
                );
                // The modeled speedup-vs-round-robin is deterministic:
                // losing more than 10% of it means the engine's comm
                // behaviour genuinely regressed.
                if let (Some(o), Some(n)) = (vs_rr_old, vs_rr_new) {
                    if *n < o * 0.9 {
                        verdict = Verdict::Regression;
                        let _ = writeln!(
                            out,
                            "  {key}: modeled speedup vs round-robin fell {o:.3} → {n:.3} \
                             (>10% below baseline)  REGRESSION"
                        );
                    }
                }
            }
        }
    }
    if same_scale {
        for (key, _, _) in &ro {
            if !rn.iter().any(|(k, _, _)| k == key) {
                verdict = Verdict::Regression;
                let _ = writeln!(out, "  {key}: row DISAPPEARED from the new snapshot");
            }
        }
    }

    let packets = |v: &Value| {
        v.get("batched_max_packets_per_pair_per_phase")
            .and_then(Value::as_f64)
    };
    if let (Some(po), Some(pn)) = (packets(old), packets(new)) {
        if pn > po {
            verdict = Verdict::Regression;
            let _ = writeln!(
                out,
                "  batched max packets/pair/phase GREW: {po} → {pn} (wire-format invariant broken)"
            );
        } else {
            let _ = writeln!(out, "  batched max packets/pair/phase: {po} → {pn}");
        }
    }
    // Placement-server gate (E23), on the new snapshot alone: serving
    // a memoized plan must beat recompiling it by at least 5× in
    // sustained request throughput. Quick-scale runs only report (the
    // tiny workload's absolute times are too noisy to gate).
    let paper_new = scale(new).as_deref() == Some("paper");
    if let Some(serve) = new.get("serve") {
        let hot = serve.get("hot_rps").and_then(Value::as_f64);
        let cold = serve.get("cold_rps").and_then(Value::as_f64);
        if let (Some(hot), Some(cold)) = (hot, cold) {
            let ratio = hot / cold.max(1e-9);
            if paper_new && ratio < 5.0 {
                verdict = Verdict::Regression;
                let _ = writeln!(
                    out,
                    "  serve: hot-cache {hot:.0} rps is only {ratio:.2}x cold-cache {cold:.0} rps \
                     (below the 5x floor)  REGRESSION"
                );
            } else {
                let _ = writeln!(
                    out,
                    "  serve: hot-cache {hot:.0} rps vs cold-cache {cold:.0} rps ({ratio:.2}x)"
                );
            }
        }
        // Live-telemetry gates (schema v7). The metrics-vs-ledger
        // reconciliation is exact counting, so it gates at every
        // scale; the overhead ratio is a timing and only means
        // something on the paper workload.
        match serve.get("stats_consistent") {
            Some(&Value::Bool(true)) => {
                let _ = writeln!(out, "  serve: live metrics reconcile with the request ledger");
            }
            Some(_) => {
                verdict = Verdict::Regression;
                let _ = writeln!(
                    out,
                    "  serve: live metrics DISAGREE with the request ledger  REGRESSION"
                );
            }
            None => {}
        }
        if let Some(r) = serve.get("obs_overhead").and_then(Value::as_f64) {
            if paper_new && r > 1.05 {
                verdict = Verdict::Regression;
                let _ = writeln!(
                    out,
                    "  serve: telemetry overhead {r:.3}x exceeds the 1.05x ceiling  REGRESSION"
                );
            } else {
                let _ = writeln!(out, "  serve: telemetry overhead {r:.3}x (hot latency on/off)");
            }
        }
    }
    // Large-tier gates (E24, introduced with schema v5). The bitwise-identity contract
    // of the parallel builder holds at any scale; the performance
    // floors — modeled ≥ 1.5× at 4 workers, the peak-allocation
    // ceiling, and the concurrent engines' vs-RR floors at P ≥ 64 —
    // only mean something at paper scale (million-element meshes).
    if let Some(large) = new.get("large") {
        let metered = |v: &Value| {
            v.get("large")
                .and_then(|l| l.get("alloc_metered"))
                == Some(&Value::Bool(true))
        };
        let old_peaks: Vec<(f64, f64, f64)> = old
            .get("large")
            .and_then(|l| l.get("decompose"))
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|r| {
                Some((
                    r.get("dim")?.as_f64()?,
                    r.get("p")?.as_f64()?,
                    r.get("peak_mb")?.as_f64()?,
                ))
            })
            .collect();
        for row in large
            .get("decompose")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let dim = row.get("dim").and_then(Value::as_f64).unwrap_or(0.0);
            let p = row.get("p").and_then(Value::as_f64).unwrap_or(0.0);
            let key = format!("large {dim}D P={p}");
            if row.get("identical") == Some(&Value::Bool(false)) {
                verdict = Verdict::Regression;
                let _ = writeln!(
                    out,
                    "  {key}: parallel decomposition DIFFERS from sequential (contract broken)"
                );
            }
            let workers = row.get("workers").and_then(Value::as_f64).unwrap_or(0.0);
            if let Some(s) = row.get("modeled_speedup").and_then(Value::as_f64) {
                if paper_new && workers >= 4.0 && s < 1.5 {
                    verdict = Verdict::Regression;
                    let _ = writeln!(
                        out,
                        "  {key}: modeled decompose speedup {s:.2}x at {workers} workers is \
                         below the 1.5x floor  REGRESSION"
                    );
                } else {
                    let _ = writeln!(out, "  {key}: modeled decompose speedup {s:.2}x");
                }
            }
            // Peak-allocation ceiling: same scale, both runs metered.
            if same_scale && paper_new && metered(old) && metered(new) {
                if let (Some(pk), Some((_, _, old_pk))) = (
                    row.get("peak_mb").and_then(Value::as_f64),
                    old_peaks.iter().find(|(d, q, _)| *d == dim && *q == p),
                ) {
                    if pk > old_pk * 1.30 {
                        verdict = Verdict::Regression;
                        let _ = writeln!(
                            out,
                            "  {key}: peak allocation GREW {old_pk:.1} MB → {pk:.1} MB \
                             (> 1.30x ceiling)  REGRESSION"
                        );
                    }
                }
            }
        }
        if paper_new {
            for e in large.get("engines").and_then(Value::as_arr).unwrap_or(&[]) {
                let (Some(p), Some(name), Some(vs_rr)) = (
                    e.get("p").and_then(Value::as_f64),
                    e.get("engine").and_then(Value::as_str),
                    e.get("speedup_vs_rr").and_then(Value::as_f64),
                ) else {
                    continue;
                };
                if p >= 64.0 && matches!(name, "batched" | "overlapped") && vs_rr < 1.0 {
                    verdict = Verdict::Regression;
                    let _ = writeln!(
                        out,
                        "  large P={p} {name}: speedup vs round-robin {vs_rr:.3} fell below \
                         the 1.0 floor  REGRESSION"
                    );
                }
            }
        }
    }
    // Racecheck gates (E25), on the new snapshot alone: these are
    // correctness results, so they gate at every scale. A capped
    // exploration proves nothing, a happens-before violation on a
    // clean run is a real race (or a checker false positive — either
    // must be fixed before merging), and every seeded defect must be
    // caught or the detectors have silently lost power.
    if let Some(rc) = new.get("racecheck") {
        let num = |k: &str| rc.get(k).and_then(Value::as_f64);
        if num("capped").unwrap_or(f64::NAN) != 0.0 {
            verdict = Verdict::Regression;
            let _ = writeln!(
                out,
                "  racecheck: {} exploration(s) hit the transition cap (nothing proven)  REGRESSION",
                num("capped").unwrap_or(f64::NAN)
            );
        }
        if num("hb_violations").unwrap_or(f64::NAN) != 0.0 {
            verdict = Verdict::Regression;
            let _ = writeln!(
                out,
                "  racecheck: {} happens-before violation(s) on clean engine runs  REGRESSION",
                num("hb_violations").unwrap_or(f64::NAN)
            );
        }
        for (seeded, caught, who) in [
            ("mc_defects_seeded", "mc_defects_caught", "model checker"),
            ("hb_defects_seeded", "hb_defects_caught", "happens-before checker"),
        ] {
            let (s, c) = (num(seeded), num(caught));
            if s.is_none() || s != c {
                verdict = Verdict::Regression;
                let _ = writeln!(
                    out,
                    "  racecheck: {who} caught {:?} of {:?} seeded defects  REGRESSION",
                    c, s
                );
            }
        }
        if let (Some(states), Some(ratio)) = (num("states"), num("reduction_ratio")) {
            let _ = writeln!(
                out,
                "  racecheck: {} programs proven, {states} states, reduction ratio {ratio:.3}, \
                 {} hb events replayed",
                num("programs").unwrap_or(f64::NAN),
                num("hb_events").unwrap_or(f64::NAN)
            );
        }
    }
    // Persistence gate, generalizing the old serve/large rules: once a
    // top-level section has shipped in a snapshot, a same-scale
    // regeneration that silently drops it is a regression — a
    // subcommand stopped writing its section (racecheck included).
    if same_scale && paper_new {
        if let (Value::Obj(old_members), Value::Obj(_)) = (old, new) {
            for (key, _) in old_members {
                if new.get(key).is_none() {
                    verdict = Verdict::Regression;
                    let _ = writeln!(
                        out,
                        "  {key}: section DISAPPEARED from the new snapshot"
                    );
                }
            }
        }
    }
    if let Some(r) = new
        .get("obs_overhead")
        .and_then(|o| o.get("ratio"))
        .and_then(Value::as_f64)
    {
        let _ = writeln!(out, "  obs overhead ratio (noop/disabled): {r:.3}x");
    }
    let _ = writeln!(
        out,
        "benchdiff: {}",
        match verdict {
            Verdict::Ok => "ok",
            Verdict::Skipped => "skipped",
            Verdict::Regression => "REGRESSION",
        }
    );
    (out, verdict)
}

/// The `reproduce benchdiff` entry point. Accepts either two file
/// paths (`benchdiff old.json new.json`) or `--check` (compare the
/// committed `BENCH_runtime.json` at `HEAD` against the worktree
/// copy); `--max-ratio R` overrides the wall-clock threshold. Returns
/// the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut max_ratio = 2.0;
    let mut paths: Vec<&str> = Vec::new();
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--max-ratio" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) => max_ratio = r,
                None => {
                    eprintln!("benchdiff: --max-ratio needs a number");
                    return 2;
                }
            },
            p => paths.push(p),
        }
    }

    let (old_src, new_src, labels) = if check {
        let head = std::process::Command::new("git")
            .args(["show", "HEAD:BENCH_runtime.json"])
            .output();
        let old = match head {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            _ => {
                println!("benchdiff --check: no BENCH_runtime.json at HEAD, skipping");
                return 0;
            }
        };
        let new = match std::fs::read_to_string("BENCH_runtime.json") {
            Ok(s) => s,
            Err(_) => {
                println!("benchdiff --check: no BENCH_runtime.json in the worktree, skipping");
                return 0;
            }
        };
        (old, new, ("HEAD".to_string(), "worktree".to_string()))
    } else if paths.len() == 2 {
        let read = |p: &str| match std::fs::read_to_string(p) {
            Ok(s) => Ok(s),
            Err(e) => {
                eprintln!("benchdiff: cannot read {p}: {e}");
                Err(())
            }
        };
        let (Ok(old), Ok(new)) = (read(paths[0]), read(paths[1])) else {
            return 2;
        };
        (old, new, (paths[0].to_string(), paths[1].to_string()))
    } else {
        eprintln!("usage: reproduce benchdiff <old.json> <new.json> [--max-ratio R] | --check");
        return 2;
    };

    let parse_side = |src: &str, label: &str| match parse(src) {
        Ok(v) => Ok(v),
        Err(e) => {
            eprintln!("benchdiff: {label} is not valid JSON: {e}");
            Err(())
        }
    };
    let (Ok(old), Ok(new)) = (
        parse_side(&old_src, &labels.0),
        parse_side(&new_src, &labels.1),
    ) else {
        return 2;
    };
    let (report, verdict) = compare(&old, &new, max_ratio);
    print!("{report}");
    match verdict {
        Verdict::Ok | Verdict::Skipped => 0,
        Verdict::Regression => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(rev: &str, scale: &str, wall: &[(u64, &str, f64)], packets: u64) -> String {
        let engines: Vec<String> = wall
            .iter()
            .map(|(p, e, w)| format!("{{\"p\":{p},\"engine\":\"{e}\",\"wall_ms\":{w}}}"))
            .collect();
        format!(
            "{{\"schema\":\"{}\",\"git_rev\":\"{rev}\",\"scale\":\"{scale}\",\
             \"engines\":[{}],\"batched_max_packets_per_pair_per_phase\":{packets}}}",
            crate::BENCH_SCHEMA,
            engines.join(",")
        )
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = snap("abc", "paper", &[(2, "batched", 1.0), (4, "batched", 2.0)], 2);
        let v = parse(&s).unwrap();
        let (report, verdict) = compare(&v, &v, 2.0);
        assert_eq!(verdict, Verdict::Ok, "{report}");
    }

    #[test]
    fn wall_clock_regression_is_flagged_same_scale_only() {
        let old = parse(&snap("a", "paper", &[(2, "batched", 1.0)], 2)).unwrap();
        let slow = parse(&snap("b", "paper", &[(2, "batched", 5.0)], 2)).unwrap();
        let (report, verdict) = compare(&old, &slow, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("REGRESSION"));
        // Same numbers, different scale: gate skipped.
        let slow_q = parse(&snap("b", "quick", &[(2, "batched", 5.0)], 2)).unwrap();
        let (report, verdict) = compare(&old, &slow_q, 2.0);
        assert_eq!(verdict, Verdict::Ok, "{report}");
    }

    #[test]
    fn missing_engine_row_fails() {
        let old = parse(&snap("a", "paper", &[(2, "batched", 1.0), (4, "batched", 1.0)], 2))
            .unwrap();
        let new = parse(&snap("b", "paper", &[(2, "batched", 1.0)], 2)).unwrap();
        let (report, verdict) = compare(&old, &new, 2.0);
        assert_eq!(verdict, Verdict::Regression);
        assert!(report.contains("DISAPPEARED"));
    }

    fn snap_v3(rev: &str, vs_rr: f64) -> String {
        format!(
            "{{\"schema\":\"{}\",\"git_rev\":\"{rev}\",\"scale\":\"paper\",\
             \"engines\":[{{\"p\":8,\"engine\":\"overlapped\",\"wall_ms\":1.0,\
             \"speedup_vs_rr\":{vs_rr}}}]}}",
            crate::BENCH_SCHEMA
        )
    }

    #[test]
    fn speedup_vs_rr_regression_fails() {
        let old = parse(&snap_v3("a", 1.54)).unwrap();
        let ok = parse(&snap_v3("b", 1.50)).unwrap();
        let (report, verdict) = compare(&old, &ok, 2.0);
        assert_eq!(verdict, Verdict::Ok, "{report}");
        // >10% below the committed 1.54 fails.
        let bad = parse(&snap_v3("c", 1.30)).unwrap();
        let (report, verdict) = compare(&old, &bad, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("below baseline"));
    }

    #[test]
    fn packet_bound_growth_fails() {
        let old = parse(&snap("a", "paper", &[(2, "batched", 1.0)], 2)).unwrap();
        let new = parse(&snap("b", "paper", &[(2, "batched", 1.0)], 3)).unwrap();
        assert_eq!(compare(&old, &new, 2.0).1, Verdict::Regression);
    }

    fn snap_serve(rev: &str, scale: &str, serve: Option<(f64, f64)>) -> String {
        let serve = match serve {
            Some((cold, hot)) => format!(
                ",\"serve\":{{\"workload\":\"wide(6)\",\"p\":8,\"engine\":\"batched\",\
                 \"cold_rps\":{cold},\"hot_rps\":{hot}}}"
            ),
            None => String::new(),
        };
        format!(
            "{{\"schema\":\"{}\",\"git_rev\":\"{rev}\",\"scale\":\"{scale}\",\
             \"engines\":[]{serve}}}",
            crate::BENCH_SCHEMA
        )
    }

    #[test]
    fn serve_gate_enforces_the_5x_floor_at_paper_scale() {
        let old = parse(&snap_serve("a", "paper", Some((60.0, 400.0)))).unwrap();
        let ok = parse(&snap_serve("b", "paper", Some((60.0, 350.0)))).unwrap();
        let (report, verdict) = compare(&old, &ok, 2.0);
        assert_eq!(verdict, Verdict::Ok, "{report}");
        // Hot only 3× cold at paper scale: gate fails.
        let bad = parse(&snap_serve("c", "paper", Some((60.0, 180.0)))).unwrap();
        let (report, verdict) = compare(&old, &bad, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("5x floor"));
        // The same ratio at quick scale only reports.
        let old_q = parse(&snap_serve("a", "quick", Some((60.0, 400.0)))).unwrap();
        let bad_q = parse(&snap_serve("c", "quick", Some((60.0, 180.0)))).unwrap();
        let (report, verdict) = compare(&old_q, &bad_q, 2.0);
        assert_eq!(verdict, Verdict::Ok, "{report}");
    }

    fn snap_serve_v7(rev: &str, scale: &str, consistent: bool, overhead: f64) -> String {
        format!(
            "{{\"schema\":\"{}\",\"git_rev\":\"{rev}\",\"scale\":\"{scale}\",\
             \"engines\":[],\"serve\":{{\"workload\":\"wide(6)\",\
             \"cold_rps\":60.0,\"hot_rps\":400.0,\
             \"stats_consistent\":{consistent},\"span_p99_ms\":3.5,\
             \"obs_overhead\":{overhead}}}}}",
            crate::BENCH_SCHEMA
        )
    }

    #[test]
    fn telemetry_reconciliation_gates_at_any_scale() {
        let ok = parse(&snap_serve_v7("a", "quick", true, 1.01)).unwrap();
        let (report, verdict) = compare(&ok, &ok, 2.0);
        assert_eq!(verdict, Verdict::Ok, "{report}");
        assert!(report.contains("reconcile"));
        let bad = parse(&snap_serve_v7("b", "quick", false, 1.01)).unwrap();
        let (report, verdict) = compare(&ok, &bad, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("DISAGREE"));
        // A pre-v7 serve section without the field gates nothing.
        let old_shape = parse(&snap_serve("a", "quick", Some((60.0, 400.0)))).unwrap();
        assert_eq!(compare(&old_shape, &old_shape, 2.0).1, Verdict::Ok);
    }

    #[test]
    fn telemetry_overhead_ceiling_gates_at_paper_scale_only() {
        let base = parse(&snap_serve_v7("a", "paper", true, 1.01)).unwrap();
        let slow = parse(&snap_serve_v7("b", "paper", true, 1.20)).unwrap();
        let (report, verdict) = compare(&base, &slow, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("1.05x ceiling"));
        // The same ratio at quick scale only reports.
        let base_q = parse(&snap_serve_v7("a", "quick", true, 1.01)).unwrap();
        let slow_q = parse(&snap_serve_v7("b", "quick", true, 1.20)).unwrap();
        let (report, verdict) = compare(&base_q, &slow_q, 2.0);
        assert_eq!(verdict, Verdict::Ok, "{report}");
    }

    #[test]
    fn serve_section_must_not_disappear_at_paper_scale() {
        let old = parse(&snap_serve("a", "paper", Some((60.0, 400.0)))).unwrap();
        let gone = parse(&snap_serve("b", "paper", None)).unwrap();
        let (report, verdict) = compare(&old, &gone, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("DISAPPEARED"));
        // A baseline without the section gates nothing.
        let (report, verdict) = compare(&gone, &gone, 2.0);
        assert_eq!(verdict, Verdict::Ok, "{report}");
    }

    fn snap_large(
        rev: &str,
        scale: &str,
        speedup: f64,
        identical: bool,
        peak_mb: f64,
        vs_rr_128: f64,
    ) -> String {
        format!(
            "{{\"schema\":\"{}\",\"git_rev\":\"{rev}\",\"scale\":\"{scale}\",\"engines\":[],\
             \"large\":{{\"alloc_metered\":true,\
             \"decompose\":[{{\"dim\":2,\"elems\":1000000,\"p\":128,\"workers\":4,\
             \"dedup_s\":1.0,\"closure_s\":1.0,\"schedule_s\":1.0,\"seq_s\":3.0,\"par_s\":1.5,\
             \"modeled_speedup\":{speedup},\"peak_mb\":{peak_mb},\"identical\":{identical}}}],\
             \"engines\":[{{\"p\":128,\"engine\":\"batched\",\"wall_ms\":5.0,\
             \"speedup_vs_rr\":{vs_rr_128}}}]}}}}",
            crate::BENCH_SCHEMA
        )
    }

    #[test]
    fn large_identity_contract_gates_at_any_scale() {
        let ok = parse(&snap_large("a", "quick", 2.0, true, 100.0, 1.2)).unwrap();
        assert_eq!(compare(&ok, &ok, 2.0).1, Verdict::Ok);
        let bad = parse(&snap_large("b", "quick", 2.0, false, 100.0, 1.2)).unwrap();
        let (report, verdict) = compare(&ok, &bad, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("DIFFERS"));
    }

    #[test]
    fn large_floors_gate_at_paper_scale_only() {
        let base = parse(&snap_large("a", "paper", 2.0, true, 100.0, 1.2)).unwrap();
        // Modeled decompose speedup below 1.5x at 4 workers.
        let slow = parse(&snap_large("b", "paper", 1.2, true, 100.0, 1.2)).unwrap();
        let (report, verdict) = compare(&base, &slow, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("1.5x floor"));
        // The same value at quick scale only reports.
        let base_q = parse(&snap_large("a", "quick", 2.0, true, 100.0, 1.2)).unwrap();
        let slow_q = parse(&snap_large("b", "quick", 1.2, true, 100.0, 1.2)).unwrap();
        assert_eq!(compare(&base_q, &slow_q, 2.0).1, Verdict::Ok);
        // Peak allocation beyond the 1.30x ceiling.
        let fat = parse(&snap_large("c", "paper", 2.0, true, 200.0, 1.2)).unwrap();
        let (report, verdict) = compare(&base, &fat, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("ceiling"));
        // Batched engine below the 1.0 vs-RR floor at P=128.
        let lag = parse(&snap_large("d", "paper", 2.0, true, 100.0, 0.8)).unwrap();
        let (report, verdict) = compare(&base, &lag, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("1.0 floor"));
    }

    #[test]
    fn large_section_must_not_disappear_at_paper_scale() {
        let with = parse(&snap_large("a", "paper", 2.0, true, 100.0, 1.2)).unwrap();
        let without = parse(&snap("b", "paper", &[], 0)).unwrap();
        let (report, verdict) = compare(&with, &without, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("large: section DISAPPEARED"));
    }

    #[test]
    fn pre_schema_baseline_skips() {
        let old = parse("{\"engines\":[]}").unwrap();
        let new = parse(&snap("b", "paper", &[(2, "batched", 1.0)], 2)).unwrap();
        assert_eq!(compare(&old, &new, 2.0).1, Verdict::Skipped);
        // ...but a new snapshot without the schema is a failure.
        assert_eq!(compare(&new, &old, 2.0).1, Verdict::Regression);
    }

    fn snap_racecheck(
        rev: &str,
        scale: &str,
        capped: u64,
        hb_violations: u64,
        mc_caught: u64,
        hb_caught: u64,
    ) -> String {
        format!(
            "{{\"schema\":\"{}\",\"git_rev\":\"{rev}\",\"scale\":\"{scale}\",\"engines\":[],\
             \"racecheck\":{{\"programs\":36,\"states\":120000,\"transitions\":150000,\
             \"enabled\":400000,\"reduction_ratio\":0.375,\"capped\":{capped},\
             \"mc_defects_seeded\":12,\"mc_defects_caught\":{mc_caught},\
             \"hb_runs\":12,\"hb_events\":90000,\"hb_violations\":{hb_violations},\
             \"hb_defects_seeded\":5,\"hb_defects_caught\":{hb_caught}}}}}",
            crate::BENCH_SCHEMA
        )
    }

    #[test]
    fn racecheck_gates_capped_violations_and_missed_defects_at_any_scale() {
        let ok = parse(&snap_racecheck("a", "quick", 0, 0, 12, 5)).unwrap();
        let (report, verdict) = compare(&ok, &ok, 2.0);
        assert_eq!(verdict, Verdict::Ok, "{report}");
        for (bad, needle) in [
            (snap_racecheck("b", "quick", 1, 0, 12, 5), "transition cap"),
            (snap_racecheck("c", "quick", 0, 2, 12, 5), "happens-before violation"),
            (snap_racecheck("d", "quick", 0, 0, 11, 5), "model checker caught"),
            (snap_racecheck("e", "quick", 0, 0, 12, 4), "happens-before checker caught"),
        ] {
            let bad = parse(&bad).unwrap();
            let (report, verdict) = compare(&ok, &bad, 2.0);
            assert_eq!(verdict, Verdict::Regression, "{report}");
            assert!(report.contains(needle), "{report}");
        }
    }

    #[test]
    fn any_top_level_section_disappearing_fails_at_paper_scale() {
        // The persistence rule is generic: it covers racecheck and any
        // future section without a bespoke branch.
        let with = parse(&snap_racecheck("a", "paper", 0, 0, 12, 5)).unwrap();
        let without = parse(&snap("b", "paper", &[], 0)).unwrap();
        let (report, verdict) = compare(&with, &without, 2.0);
        assert_eq!(verdict, Verdict::Regression, "{report}");
        assert!(report.contains("racecheck: section DISAPPEARED"), "{report}");
        // Quick-scale regenerations only gate correctness, not layout.
        let with_q = parse(&snap_racecheck("a", "quick", 0, 0, 12, 5)).unwrap();
        let without_q = parse(&snap("b", "quick", &[], 0)).unwrap();
        assert_eq!(compare(&with_q, &without_q, 2.0).1, Verdict::Ok);
    }
}
