//! The one aggregating [`Recorder`]: atomic counters, high-water
//! gauges, log₂ latency histograms and the per-ordered-pair packet
//! matrix, with a point-in-time [`MetricsSnapshot`] rendered as JSON
//! (`stats.metrics`, `diag.trace`, every run in `PROFILE_runtime.json`)
//! or as a Prometheus-style text exposition.
//!
//! # Design
//!
//! A resident daemon must answer a `stats` probe mid-traffic without
//! perturbing the requests it is measuring, and a bench run wants the
//! same sums; one cell layout serves both:
//!
//! * **static key registration** — the key set is fixed at
//!   construction (sorted, deduplicated), so the hot path is a binary
//!   search plus one or two relaxed atomic RMWs: no allocation, no
//!   lock, no growth. Emissions to unregistered keys are *dropped*
//!   and tallied in a meta-counter (`metrics.dropped` in the
//!   exposition) so a vocabulary mismatch is observable instead of
//!   silent: `dropped == 0` after an engine run under
//!   [`crate::keys::ALL`] is the check that the vocabulary is whole.
//! * **lock-free histograms** — spans land in a 65-bucket atomic
//!   histogram using the exact [`crate::hist`] power-of-two binning
//!   ([`bucket_index`]); a snapshot rehydrates the buckets into a
//!   [`LatencyHistogram`] ([`LatencyHistogram::from_counts`]) for
//!   quantiles and JSON.
//!
//! A snapshot reads every atomic with relaxed ordering and no global
//! pause: it is point-in-time per cell, not a cross-key transaction —
//! exactly the consistency a monitoring scrape needs and no more.
//!
//! The packet matrix has no static key set (pairs depend on `P`), so
//! it is the registry's one lock: a map touched only by
//! [`Recorder::packet`] — once per packet a rank ships, never per mesh
//! entity — and by `snapshot`. The daemon's process-wide registry is
//! never handed to an engine, so the live path stays lock-free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::{bucket_index, LatencyHistogram, BUCKET_COUNT};
use crate::recorder::Recorder;
use crate::trace::{json_escape, json_join, PairAgg};

/// A lock-free log₂ histogram cell: per-bucket counts plus exact sum
/// and max, all relaxed atomics.
struct AtomicHist {
    counts: [AtomicU64; BUCKET_COUNT],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHist {
    fn new() -> AtomicHist {
        AtomicHist {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, nanos: u64) {
        self.counts[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(nanos, Ordering::Relaxed);
        self.max_ns.fetch_max(nanos, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        let counts = std::array::from_fn(|b| self.counts[b].load(Ordering::Relaxed));
        LatencyHistogram::from_counts(
            counts,
            self.sum_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

/// One registered key's cells. Which aspect a key uses (counter,
/// gauge or span histogram) is the emitter's convention — the
/// snapshot only surfaces the aspects that actually received data.
struct Cell {
    counter: AtomicU64,
    gauge: AtomicU64,
    hist: AtomicHist,
}

/// The registry: a fixed, sorted key set with one atomic `Cell`
/// per key, plus the packet matrix. Implements [`Recorder`], so it can
/// sit directly at the hook sites or behind a
/// [`crate::FanoutRecorder`] tee.
pub struct MetricsRegistry {
    keys: Vec<&'static str>,
    cells: Vec<Cell>,
    dropped: AtomicU64,
    pairs: Mutex<BTreeMap<(u32, u32), PairAgg>>,
}

impl MetricsRegistry {
    /// A registry over `keys` (sorted and deduplicated; order of the
    /// argument does not matter).
    pub fn new(keys: &[&'static str]) -> MetricsRegistry {
        let mut keys: Vec<&'static str> = keys.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let cells = keys.iter().map(|_| Cell::new()).collect();
        MetricsRegistry {
            keys,
            cells,
            dropped: AtomicU64::new(0),
            pairs: Mutex::new(BTreeMap::new()),
        }
    }

    fn cell(&self, key: &str) -> Option<&Cell> {
        match self.keys.binary_search(&key) {
            Ok(i) => Some(&self.cells[i]),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// A point-in-time snapshot of every non-empty aspect.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for (k, c) in self.keys.iter().zip(self.cells.iter()) {
            let v = c.counter.load(Ordering::Relaxed);
            if v > 0 {
                counters.push((*k, v));
            }
            let g = c.gauge.load(Ordering::Relaxed);
            if g > 0 {
                gauges.push((*k, g));
            }
            let h = c.hist.snapshot();
            if h.count() > 0 {
                hists.push((*k, h));
            }
        }
        let pairs = self.pairs.lock().expect("pair matrix lock poisoned").clone();
        let dropped = self.dropped.load(Ordering::Relaxed);
        MetricsSnapshot { counters, gauges, hists, pairs, dropped }
    }
}

impl Cell {
    fn new() -> Cell {
        Cell { counter: AtomicU64::new(0), gauge: AtomicU64::new(0), hist: AtomicHist::new() }
    }
}

impl Recorder for MetricsRegistry {
    fn add(&self, key: &'static str, delta: u64) {
        if let Some(c) = self.cell(key) {
            c.counter.fetch_add(delta, Ordering::Relaxed);
        }
    }

    fn gauge_max(&self, key: &'static str, value: u64) {
        if let Some(c) = self.cell(key) {
            c.gauge.fetch_max(value, Ordering::Relaxed);
        }
    }

    fn span(&self, name: &'static str, nanos: u64) {
        if let Some(c) = self.cell(name) {
            c.hist.record(nanos);
        }
    }

    fn packet(&self, from: u32, to: u32, values: u64) {
        let mut pairs = self.pairs.lock().expect("pair matrix lock poisoned");
        let p = pairs.entry((from, to)).or_default();
        p.packets += 1;
        p.values += values;
    }
}

/// A point-in-time copy of a registry's non-empty cells, in sorted
/// key order (deterministic rendering).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Counters with a non-zero value, `(key, value)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges with a non-zero high-water mark, `(key, value)`.
    pub gauges: Vec<(&'static str, u64)>,
    /// Span histograms with at least one sample, `(key, histogram)`.
    pub hists: Vec<(&'static str, LatencyHistogram)>,
    /// Per-ordered-pair `(from, to)` packet traffic.
    pub pairs: BTreeMap<(u32, u32), PairAgg>,
    /// Emissions dropped for lack of a registered key.
    pub dropped: u64,
}

impl MetricsSnapshot {
    /// The counter under `key` (0 when absent from the snapshot).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| *v)
    }

    /// The gauge under `key` (0 when absent from the snapshot).
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges.iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| *v)
    }

    /// The span histogram under `key`, if it has any samples — its
    /// `count()`, `sum_ns()` and `max_ns()` are exact.
    pub fn span(&self, key: &str) -> Option<&LatencyHistogram> {
        self.hists.iter().find(|(k, _)| *k == key).map(|(_, h)| h)
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

    /// Render as one JSON object, deterministically ordered:
    /// `{"counters":{..},"gauges":{..},"hists":[..],"packets":[{"from",
    /// "to","packets","values"}..],"dropped":N}`.
    pub fn to_json(&self) -> String {
        let map = |kv: &[(&'static str, u64)]| {
            json_join(kv.iter().map(|(k, v)| format!("{}:{v}", json_escape(k))))
        };
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"hists\":[{}],\"packets\":[{}],\"dropped\":{}}}",
            map(&self.counters),
            map(&self.gauges),
            json_join(self.hists.iter().map(|(k, h)| h.to_json(k))),
            json_join(self.pairs.iter().map(|(&(from, to), p)| format!(
                "{{\"from\":{from},\"to\":{to},\"packets\":{},\"values\":{}}}",
                p.packets, p.values
            ))),
            self.dropped
        )
    }

    /// Render in the Prometheus text format: one
    /// `name{label="v"} value` sample per line, `# TYPE` comments per
    /// family. Counters expose as `syncplace_counter{key="..."}`,
    /// gauges as `syncplace_gauge{key="..."}`, histograms as
    /// `syncplace_span{key="...",stat="..."}` summaries (count,
    /// sum_ms, p50_ms, p95_ms, p99_ms, max_ms), and the drop tally as
    /// the bare `syncplace_dropped`. [`validate_exposition`] checks
    /// this grammar.
    pub fn to_exposition(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE syncplace_counter counter\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("syncplace_counter{{key={}}} {v}\n", json_escape(k)));
        }
        out.push_str("# TYPE syncplace_gauge gauge\n");
        for (k, v) in &self.gauges {
            out.push_str(&format!("syncplace_gauge{{key={}}} {v}\n", json_escape(k)));
        }
        out.push_str("# TYPE syncplace_span summary\n");
        for (k, h) in &self.hists {
            let key = json_escape(k);
            let stats: [(&str, f64); 6] = [
                ("count", h.count() as f64),
                ("sum_ms", h.sum_ns() as f64 / 1e6),
                ("p50_ms", h.p50() / 1e6),
                ("p95_ms", h.p95() / 1e6),
                ("p99_ms", h.p99() / 1e6),
                ("max_ms", h.max_ns() as f64 / 1e6),
            ];
            for (stat, v) in stats {
                out.push_str(&format!("syncplace_span{{key={key},stat=\"{stat}\"}} {v:.6}\n"));
            }
        }
        out.push_str("# TYPE syncplace_dropped counter\n");
        out.push_str(&format!("syncplace_dropped {}\n", self.dropped));
        out
    }
}

/// Check `text` against the exposition grammar: every non-comment,
/// non-blank line must be `name value` or `name{label="v",...} value`
/// with a metric-name-shaped `name` and a finite numeric `value`.
/// Returns the number of samples, or the first offending line
/// (1-based) with a reason. Used by the `syncplace-serve stats` CLI
/// and the CI serve-smoke, so a malformed scrape fails loudly.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
    fn labels_ok(s: &str) -> bool {
        // s is the text between '{' and '}': ident="...",ident="..."
        s.split(',').all(|pair| match pair.split_once('=') {
            Some((k, v)) => {
                is_name(k)
                    && v.len() >= 2
                    && v.starts_with('"')
                    && v.ends_with('"')
                    && !v[1..v.len() - 1].contains('"')
            }
            None => false,
        })
    }
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |why: &str| Err(format!("line {}: {} in {:?}", i + 1, why, line));
        let Some((series, value)) = line.rsplit_once(' ') else {
            return err("no value separator");
        };
        match value.parse::<f64>() {
            Ok(v) if v.is_finite() => {}
            _ => return err("non-numeric value"),
        }
        if let Some((name, rest)) = series.split_once('{') {
            if !is_name(name) {
                return err("bad metric name");
            }
            let Some(labels) = rest.strip_suffix('}') else {
                return err("unclosed label braces");
            };
            if !labels_ok(labels) {
                return err("bad label syntax");
            }
        } else if !is_name(series) {
            return err("bad metric name");
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn registration_sorts_and_dedups() {
        let r = MetricsRegistry::new(&["b.two", "a.one", "b.two"]);
        r.add("a.one", 1);
        r.add("b.two", 2);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a.one", 1), ("b.two", 2)]);
    }

    #[test]
    fn unknown_keys_drop_and_tally() {
        let r = MetricsRegistry::new(&["known"]);
        r.add("unknown", 5);
        r.span("also.unknown", 10);
        r.gauge_max("known", 3);
        let s = r.snapshot();
        assert_eq!(s.counter("unknown"), 0);
        assert_eq!(s.gauge("known"), 3);
        assert_eq!(s.dropped, 2);
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let r = Arc::new(MetricsRegistry::new(&["c", "g", "s"]));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        r.add("c", 1);
                        r.gauge_max("g", t * 1000 + i);
                        r.span("s", i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 8000);
        assert_eq!(s.gauge("g"), 7999);
        let h = s.span("s").unwrap();
        assert_eq!(h.count(), 8000);
        assert_eq!(h.sum_ns(), 8 * (0..1000u64).sum::<u64>());
        assert_eq!(h.max_ns(), 999);
    }

    #[test]
    fn atomic_hist_matches_latency_histogram() {
        let r = MetricsRegistry::new(&["s"]);
        let mut want = LatencyHistogram::new();
        for d in [0u64, 1, 3, 64, 900, 1_000_000] {
            r.span("s", d);
            want.record(d);
        }
        let s = r.snapshot();
        let got = s.span("s").unwrap();
        assert_eq!(got.buckets(), want.buckets());
        assert_eq!(got.sum_ns(), want.sum_ns());
        assert_eq!(got.max_ns(), want.max_ns());
        assert_eq!(got.p99(), want.p99());
    }

    #[test]
    fn exposition_validates_and_counts_samples() {
        let r = MetricsRegistry::new(&["c", "s"]);
        r.add("c", 7);
        r.span("s", 1000);
        let text = r.snapshot().to_exposition();
        // 1 counter + 6 span stats + syncplace_dropped.
        assert_eq!(validate_exposition(&text), Ok(8));
        assert!(text.contains("syncplace_counter{key=\"c\"} 7"));
        assert!(text.contains("syncplace_span{key=\"s\",stat=\"count\"} 1.000000"));
    }

    #[test]
    fn malformed_exposition_is_rejected() {
        assert!(validate_exposition("no_value_here\n").is_err());
        assert!(validate_exposition("name{unclosed 1\n").is_err());
        assert!(validate_exposition("name{k=\"v\"} notanumber\n").is_err());
        assert!(validate_exposition("1badname 3\n").is_err());
        assert!(validate_exposition("name{k=v} 3\n").is_err());
        // Comments and blank lines are fine; zero samples is Ok(0).
        assert_eq!(validate_exposition("# just a comment\n\n"), Ok(0));
    }

    #[test]
    fn snapshot_json_shape() {
        let r = MetricsRegistry::new(&["c", "g", "s"]);
        r.add("c", 1);
        r.gauge_max("g", 2);
        r.span("s", 3);
        r.packet(1, 0, 4);
        let j = r.snapshot().to_json();
        assert!(j.contains("\"counters\":{\"c\":1}"));
        assert!(j.contains("\"gauges\":{\"g\":2}"));
        assert!(j.contains("\"name\":\"s\""));
        assert!(j.contains("\"packets\":[{\"from\":1,\"to\":0,\"packets\":1,\"values\":4}]"));
        assert!(j.contains("\"dropped\":0"));
        assert!(crate::json::parse(&j).is_ok());
    }
}
