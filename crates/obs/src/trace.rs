//! The aggregating [`TraceRecorder`] and its immutable
//! [`TraceSnapshot`], including the hand-rolled JSON rendering used by
//! `TRACE_runtime.json` (the workspace has no external crates, so no
//! serde).

use crate::recorder::Recorder;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Aggregate of all spans recorded under one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Completed spans.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

/// Aggregate traffic of one ordered `(from, to)` rank pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairAgg {
    /// Packets shipped.
    pub packets: u64,
    /// f64 values carried.
    pub values: u64,
}

#[derive(Debug, Default)]
struct Agg {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, SpanAgg>,
    pairs: BTreeMap<(u32, u32), PairAgg>,
}

/// A thread-safe aggregating recorder: every emission folds into
/// ordered maps under one mutex. Lock traffic is per *phase* (the
/// engines never record per mesh entity), so contention stays
/// negligible even with every rank of a gang sharing one recorder.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    inner: Mutex<Agg>,
}

impl TraceRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// An immutable copy of everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        let a = self.inner.lock().expect("trace lock");
        TraceSnapshot {
            counters: a.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            gauges: a.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            spans: a.spans.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            pairs: a.pairs.clone(),
        }
    }

    /// Drop everything recorded so far (reuse one recorder across
    /// independent measurements).
    pub fn reset(&self) {
        *self.inner.lock().expect("trace lock") = Agg::default();
    }
}

impl Recorder for TraceRecorder {
    fn add(&self, key: &'static str, delta: u64) {
        let mut a = self.inner.lock().expect("trace lock");
        *a.counters.entry(key).or_insert(0) += delta;
    }

    fn gauge_max(&self, key: &'static str, value: u64) {
        let mut a = self.inner.lock().expect("trace lock");
        let g = a.gauges.entry(key).or_insert(0);
        *g = (*g).max(value);
    }

    fn span(&self, name: &'static str, nanos: u64) {
        let mut a = self.inner.lock().expect("trace lock");
        let s = a.spans.entry(name).or_default();
        s.count += 1;
        s.total_ns += nanos;
        s.max_ns = s.max_ns.max(nanos);
    }

    fn packet(&self, from: u32, to: u32, values: u64) {
        let mut a = self.inner.lock().expect("trace lock");
        let p = a.pairs.entry((from, to)).or_default();
        p.packets += 1;
        p.values += values;
    }
}

/// An immutable aggregate view of one instrumented run (or several —
/// snapshots just reflect whatever was recorded since the last reset).
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Monotonic counters by key.
    pub counters: BTreeMap<String, u64>,
    /// High-water marks by key.
    pub gauges: BTreeMap<String, u64>,
    /// Span aggregates by name.
    pub spans: BTreeMap<String, SpanAgg>,
    /// Per-ordered-pair packet traffic.
    pub pairs: BTreeMap<(u32, u32), PairAgg>,
}

impl TraceSnapshot {
    /// A counter's value (0 when never recorded).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// A gauge's high-water mark (0 when never recorded).
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// A span aggregate by name.
    pub fn span(&self, name: &str) -> Option<SpanAgg> {
        self.spans.get(name).copied()
    }

    /// The traffic of one ordered pair (zero when silent).
    pub fn pair(&self, from: u32, to: u32) -> PairAgg {
        self.pairs.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Total packets over all ordered pairs.
    pub fn total_packets(&self) -> u64 {
        self.pairs.values().map(|p| p.packets).sum()
    }

    /// Total values over all ordered pairs.
    pub fn total_pair_values(&self) -> u64 {
        self.pairs.values().map(|p| p.values).sum()
    }

    /// Render as a JSON object (counters, gauges, spans in ms,
    /// packets as a `(from, to)` list), deterministically ordered.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        push_map(&mut out, self.counters.iter().map(|(k, &v)| (k.clone(), v.to_string())));
        out.push_str("},\"gauges\":{");
        push_map(&mut out, self.gauges.iter().map(|(k, &v)| (k.clone(), v.to_string())));
        out.push_str("},\"spans\":{");
        push_map(
            &mut out,
            self.spans.iter().map(|(k, s)| {
                (
                    k.clone(),
                    format!(
                        "{{\"count\":{},\"total_ms\":{:.4},\"max_ms\":{:.4}}}",
                        s.count,
                        s.total_ns as f64 / 1e6,
                        s.max_ns as f64 / 1e6
                    ),
                )
            }),
        );
        out.push_str("},\"packets\":[");
        let mut first = true;
        for (&(from, to), p) in &self.pairs {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"from\":{from},\"to\":{to},\"packets\":{},\"values\":{}}}",
                p.packets, p.values
            ));
        }
        out.push_str("]}");
        out
    }
}

fn push_map(out: &mut String, entries: impl Iterator<Item = (String, String)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}:{v}", json_escape(&k)));
    }
}

/// Render `s` as a JSON string literal: quoted, with `"`, `\` and
/// control characters escaped. Every hand-rolled JSON writer in the
/// workspace that emits a non-literal key or value must go through
/// this (the engines only use `&'static str` keys today, but nothing
/// in the `Recorder` signature enforces that they stay hostile-free).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_sum_and_gauges_max() {
        let r = TraceRecorder::new();
        r.add("a", 2);
        r.add("a", 3);
        r.gauge_max("g", 7);
        r.gauge_max("g", 4);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), 5);
        assert_eq!(s.gauge("g"), 7);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn spans_aggregate_count_total_max() {
        let r = TraceRecorder::new();
        r.span("ph", 10);
        r.span("ph", 30);
        let s = r.snapshot().span("ph").unwrap();
        assert_eq!((s.count, s.total_ns, s.max_ns), (2, 40, 30));
    }

    #[test]
    fn pair_matrix_accumulates_per_ordered_pair() {
        let r = TraceRecorder::new();
        r.packet(0, 1, 10);
        r.packet(0, 1, 5);
        r.packet(1, 0, 2);
        let s = r.snapshot();
        assert_eq!(s.pair(0, 1), PairAgg { packets: 2, values: 15 });
        assert_eq!(s.pair(1, 0), PairAgg { packets: 1, values: 2 });
        assert_eq!(s.pair(2, 0), PairAgg::default());
        assert_eq!(s.total_packets(), 3);
        assert_eq!(s.total_pair_values(), 17);
    }

    #[test]
    fn aggregation_is_correct_across_threads() {
        // The cross-thread contract the pool relies on: concurrent
        // emissions from many ranks fold into exact totals.
        let r = Arc::new(TraceRecorder::new());
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.add("n", 1);
                    }
                    r.packet(i, (i + 1) % 8, 10);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.counter("n"), 8000);
        assert_eq!(s.total_packets(), 8);
        assert_eq!(s.total_pair_values(), 80);
    }

    #[test]
    fn reset_clears_everything() {
        let r = TraceRecorder::new();
        r.add("a", 1);
        r.packet(0, 1, 1);
        r.reset();
        let s = r.snapshot();
        assert_eq!(s.counter("a"), 0);
        assert_eq!(s.total_packets(), 0);
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let r = TraceRecorder::new();
        r.add("b", 2);
        r.add("a", 1);
        r.span("ph", 1_500_000);
        r.packet(1, 0, 3);
        let s = r.snapshot();
        let j = s.to_json();
        assert_eq!(j, s.to_json(), "deterministic");
        assert!(j.starts_with('{') && j.ends_with('}'));
        // BTreeMap ordering puts "a" before "b".
        assert!(j.find("\"a\":1").unwrap() < j.find("\"b\":2").unwrap());
        assert!(j.contains("\"total_ms\":1.5000"));
        assert!(j.contains("{\"from\":1,\"to\":0,\"packets\":1,\"values\":3}"));
    }

    #[test]
    fn json_escapes_hostile_keys() {
        // `Recorder` keys are `&'static str`, which does not stop a
        // caller from using a literal containing quotes, backslashes
        // or control characters — the writer must stay well-formed.
        let r = TraceRecorder::new();
        r.add("he said \"hi\"\\path\n", 1);
        r.span("tab\there", 2);
        let j = r.snapshot().to_json();
        assert!(j.contains(r#""he said \"hi\"\\path\n":1"#));
        assert!(j.contains(r#""tab\there":"#));
        // No raw control characters or unescaped quotes survive:
        // strip legal escape pairs and check what remains.
        assert!(!j.contains('\n') && !j.contains('\t'));
    }

    #[test]
    fn json_escape_handles_low_controls() {
        assert_eq!(json_escape("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_escape("plain"), "\"plain\"");
    }
}
