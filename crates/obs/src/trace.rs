//! The two pieces of the aggregate's JSON that other modules share:
//! the per-pair packet cell [`PairAgg`] and the string escaper
//! [`json_escape`] (the workspace has no external crates, so no
//! serde). The aggregate itself is [`crate::MetricsRegistry`]; the
//! tests here hold it to the trace contract — exact counter sums,
//! gauge maxima, span count / sum / max and pair totals, from any
//! number of threads, rendered deterministically.

/// Aggregate traffic of one ordered `(from, to)` rank pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairAgg {
    /// Packets shipped.
    pub packets: u64,
    /// f64 values carried.
    pub values: u64,
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

/// Comma-join rendered JSON fragments: the body of an array or object.
pub(crate) fn json_join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, Recorder};
    use std::sync::Arc;

    #[test]
    fn counters_sum_and_gauges_max() {
        let r = MetricsRegistry::new(&["a", "g"]);
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
        let r = MetricsRegistry::new(&["ph"]);
        r.span("ph", 10);
        r.span("ph", 30);
        let s = r.snapshot();
        let ph = s.span("ph").unwrap();
        assert_eq!((ph.count(), ph.sum_ns(), ph.max_ns()), (2, 40, 30));
    }

    #[test]
    fn pair_matrix_accumulates_per_ordered_pair() {
        let r = MetricsRegistry::new(&[]);
        r.packet(0, 1, 10);
        r.packet(0, 1, 5);
        r.packet(1, 0, 2);
        let s = r.snapshot();
        assert_eq!(s.pair(0, 1), PairAgg { packets: 2, values: 15 });
        assert_eq!(s.pair(1, 0), PairAgg { packets: 1, values: 2 });
        assert_eq!(s.pair(2, 0), PairAgg::default());
        assert_eq!(s.total_packets(), 3);
        assert_eq!(s.total_pair_values(), 17);
        // Pairs have no key vocabulary: a packet is never a drop.
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn aggregation_is_correct_across_threads() {
        // The cross-thread contract the pool relies on: concurrent
        // emissions from many ranks fold into exact totals.
        let r = Arc::new(MetricsRegistry::new(&["n"]));
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
    fn json_is_deterministic_and_well_formed() {
        let r = MetricsRegistry::new(&["b", "a", "ph"]);
        r.add("b", 2);
        r.add("a", 1);
        r.span("ph", 1_500_000);
        r.packet(1, 0, 3);
        let s = r.snapshot();
        let j = s.to_json();
        assert_eq!(j, s.to_json(), "deterministic");
        assert!(crate::json::parse(&j).is_ok());
        // Sorted keys put "a" before "b".
        assert!(j.find("\"a\":1").unwrap() < j.find("\"b\":2").unwrap());
        assert!(j.contains("\"max_ms\":1.500000"));
        assert!(j.contains("{\"from\":1,\"to\":0,\"packets\":1,\"values\":3}"));
    }

    #[test]
    fn json_escapes_hostile_keys() {
        // `Recorder` keys are `&'static str`, which does not stop a
        // caller from using a literal containing quotes, backslashes
        // or control characters — the writer must stay well-formed.
        let r = MetricsRegistry::new(&["he said \"hi\"\\path\n", "tab\there"]);
        r.add("he said \"hi\"\\path\n", 1);
        r.span("tab\there", 2);
        let j = r.snapshot().to_json();
        assert!(j.contains(r#""he said \"hi\"\\path\n":1"#));
        assert!(j.contains(r#""name":"tab\there""#));
        // No raw control characters survive.
        assert!(!j.contains('\n') && !j.contains('\t'));
    }

    #[test]
    fn json_escape_handles_low_controls() {
        assert_eq!(json_escape("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_escape("plain"), "\"plain\"");
    }
}
