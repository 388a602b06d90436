//! Log-bucketed latency histograms: fixed 64-bucket power-of-two
//! binning over nanosecond durations, with quantile estimation
//! (p50/p95/p99) and an exact max.
//!
//! Bucket `b` holds durations `d` with `⌊log2(d)⌋ = b − 1` (bucket 0
//! holds `d = 0`), i.e. bucket boundaries are `[2^(b−1), 2^b)`. A
//! quantile is estimated by walking the cumulative counts to the
//! bucket containing the target rank and interpolating linearly
//! inside it — resolution is therefore a factor of two worst-case,
//! which is ample for the "did p99 explode" question the profiler
//! asks, and the representation is a fixed 64-word array: merging,
//! snapshotting and JSON rendering are trivially cheap.

use crate::trace::{json_escape, json_join};

/// Number of power-of-two buckets (covers every `u64` duration).
pub const BUCKET_COUNT: usize = 65;

/// A log₂-bucketed histogram of nanosecond durations.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKET_COUNT],
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// The bucket index for duration `d`: 0 for `d = 0`, else
/// `⌊log2(d)⌋ + 1`. Public so lock-free recorders (the
/// `metrics::MetricsRegistry` atomic histograms) can bin with the
/// exact same boundaries and later rehydrate via
/// [`LatencyHistogram::from_counts`].
pub fn bucket_index(d: u64) -> usize {
    if d == 0 {
        0
    } else {
        64 - d.leading_zeros() as usize
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { counts: [0; BUCKET_COUNT], total: 0, sum_ns: 0, max_ns: 0 }
    }

    /// Record one duration.
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_index(nanos)] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(nanos);
        self.max_ns = self.max_ns.max(nanos);
    }

    /// Rebuild a histogram from raw per-bucket counts plus the exact
    /// sum and max — the rehydration path for atomic histograms whose
    /// counts were accumulated lock-free (see `metrics`). The total is
    /// the sum of `counts`; `max_ns` is clamped into the top non-empty
    /// bucket's range by the caller's discipline, not re-derived here.
    pub fn from_counts(counts: [u64; BUCKET_COUNT], sum_ns: u64, max_ns: u64) -> LatencyHistogram {
        let total = counts.iter().sum();
        LatencyHistogram { counts, total, sum_ns, max_ns }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of every recorded duration, ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Exact maximum recorded duration, ns (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean duration, ns (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) in nanoseconds by
    /// linear interpolation inside the bucket containing the target
    /// rank; the estimate is clamped to the exact max. Returns 0.0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).max(1.0);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if (next as f64) >= target {
                let lo = if b == 0 { 0.0 } else { (1u64 << (b - 1)) as f64 };
                let hi = if b == 0 { 0.0 } else { ((1u128 << b) - 1) as f64 };
                let frac = (target - seen as f64) / c as f64;
                return (lo + (hi - lo) * frac).min(self.max_ns as f64);
            }
            seen = next;
        }
        self.max_ns as f64
    }

    /// The p50 estimate, ns.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// The p95 estimate, ns.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The p99 estimate, ns.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The non-empty buckets as `(lower_bound_ns, count)` pairs, in
    /// ascending bound order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (if b == 0 { 0 } else { 1u64 << (b - 1) }, c))
            .collect()
    }

    /// Render as a JSON object with the summary statistics (times in
    /// milliseconds, like the trace schema) and the raw bucket list.
    pub fn to_json(&self, name: &str) -> String {
        let buckets = self.buckets().into_iter();
        format!(
            "{{\"name\":{},\"count\":{},\"mean_ms\":{:.6},\"p50_ms\":{:.6},\"p95_ms\":{:.6},\"p99_ms\":{:.6},\"max_ms\":{:.6},\"buckets\":[{}]}}",
            json_escape(name),
            self.total,
            self.mean_ns() / 1e6,
            self.p50() / 1e6,
            self.p95() / 1e6,
            self.p99() / 1e6,
            self.max_ns as f64 / 1e6,
            json_join(buckets.map(|(lo, c)| format!("{{\"ge_ns\":{lo},\"count\":{c}}}"))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn exact_stats_are_exact() {
        let mut h = LatencyHistogram::new();
        for d in [10, 20, 30, 1000] {
            h.record(d);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 1060);
        assert_eq!(h.max_ns(), 1000);
        assert!((h.mean_ns() - 265.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let mut h = LatencyHistogram::new();
        // 99 fast samples in [64, 128), one straggler at 1_000_000.
        for i in 0..99 {
            h.record(64 + (i % 64));
        }
        h.record(1_000_000);
        let p50 = h.p50();
        assert!((64.0..128.0).contains(&p50), "p50 = {p50}");
        // p99 has rank 99 → still the fast bucket's top...
        assert!(h.p99() < 1_000_000.0);
        // ...while the max is the exact straggler.
        assert_eq!(h.max_ns(), 1_000_000);
        // quantile(1.0) lands in the straggler's bucket, clamped to max.
        assert!(h.quantile(1.0) <= 1_000_000.0 && h.quantile(1.0) > 524_288.0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for d in [1u64, 5, 100, 7] {
            a.record(d);
            whole.record(d);
        }
        for d in [2u64, 900, 3] {
            b.record(d);
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum_ns(), whole.sum_ns());
        assert_eq!(a.max_ns(), whole.max_ns());
        assert_eq!(a.buckets(), whole.buckets());
    }

    #[test]
    fn from_counts_round_trips_record() {
        let mut h = LatencyHistogram::new();
        let mut counts = [0u64; BUCKET_COUNT];
        let (mut sum, mut max) = (0u64, 0u64);
        for d in [0u64, 1, 3, 64, 1_000_000, 7] {
            h.record(d);
            counts[bucket_index(d)] += 1;
            sum += d;
            max = max.max(d);
        }
        let r = LatencyHistogram::from_counts(counts, sum, max);
        assert_eq!(r.count(), h.count());
        assert_eq!(r.sum_ns(), h.sum_ns());
        assert_eq!(r.max_ns(), h.max_ns());
        assert_eq!(r.buckets(), h.buckets());
        assert_eq!(r.p99(), h.p99());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.max_ns(), 0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn json_has_summary_and_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        let j = h.to_json("engine.phase");
        assert!(j.contains("\"name\":\"engine.phase\""));
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\"max_ms\":1.000000"));
        assert!(j.contains("\"ge_ns\":524288"));
    }
}
