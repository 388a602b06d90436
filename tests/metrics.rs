//! Live-telemetry acceptance tests: the metrics registry and its
//! supporting pieces under the conditions the placement daemon puts
//! them through.
//!
//! * **Fanout under concurrency**: a [`FanoutRecorder`] teeing two
//!   [`MetricsRegistry`]s must deliver the exact same call stream to
//!   both sinks even when many threads emit through it at once — a
//!   lost or double-counted emission would silently skew one view of
//!   a run against the other.
//! * **Histogram merge algebra**: [`LatencyHistogram::merge`] must be
//!   associative and commutative with exact `count`/`sum`/`max`, so
//!   any partition of a sample stream across shards (threads, flight
//!   segments, scrape intervals) folds back to the same aggregate in
//!   any order. Property-style over deterministic LCG streams.
//! * **Exposition round-trip**: a registry fed mixed traffic renders
//!   an exposition that [`validate_exposition`] accepts, with one
//!   sample line per counter and per histogram summary stat.

use std::sync::Arc;
use syncplace::obs::hist::{LatencyHistogram, BUCKET_COUNT};
use syncplace::obs::recorder::{FanoutRecorder, Recorder};
use syncplace::obs::{validate_exposition, MetricsRegistry};

/// A deterministic LCG stream of latency samples spanning many
/// buckets (constants from Numerical Recipes).
fn lcg_samples(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Spread across ~20 powers of two, with occasional zeros.
            let shift = (state >> 59) % 21;
            (state >> 20) >> (40u64.saturating_sub(shift * 2))
        })
        .collect()
}

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

#[test]
fn fanout_delivers_identical_streams_to_both_sinks_concurrently() {
    const KEYS: &[&str] = &["t.alpha", "t.beta", "t.gamma"];
    let first = Arc::new(MetricsRegistry::new(KEYS));
    let second = Arc::new(MetricsRegistry::new(KEYS));
    let tee = Arc::new(FanoutRecorder::new(vec![
        Arc::clone(&first) as Arc<dyn Recorder>,
        Arc::clone(&second) as Arc<dyn Recorder>,
    ]));

    let threads = 8;
    let per_thread = 500;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let tee = Arc::clone(&tee);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let key = KEYS[(t + i) % KEYS.len()];
                    tee.add(key, 1 + (i as u64 % 3));
                    tee.span(key, ((t * per_thread + i) as u64 + 1) * 100);
                    tee.gauge_max(key, (t * per_thread + i) as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let (a, b) = (first.snapshot(), second.snapshot());
    assert_eq!(a.counters, b.counters, "counters diverged between the tee's sinks");
    assert_eq!(a.gauges, b.gauges, "gauges diverged");
    for &key in KEYS {
        let (sa, sb) = (a.span(key).expect("span"), b.span(key).expect("span"));
        assert_eq!(sa.count(), sb.count(), "span count {key} diverged");
        assert_eq!(sa.sum_ns(), sb.sum_ns(), "span sum {key} diverged");
        assert_eq!(sa.max_ns(), sb.max_ns(), "span max {key} diverged");
    }
    // Both sinks saw every emission: 8 threads × 500 spans, the sum of
    // 100 · (1 ..= 4000) nanoseconds.
    let n = (threads * per_thread) as u64;
    let total: u64 = KEYS.iter().map(|k| b.span(k).unwrap().count()).sum();
    let sum_ns: u64 = KEYS.iter().map(|k| b.span(k).unwrap().sum_ns()).sum();
    assert_eq!(total, n);
    assert_eq!(sum_ns, 100 * n * (n + 1) / 2);
    assert_eq!(a.dropped + b.dropped, 0);
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    for seed in [3u64, 17, 99, 1234] {
        let samples = lcg_samples(seed, 600);
        let reference = hist_of(&samples);

        // Every contiguous 3-way partition point (coarse stride keeps
        // the test fast): (a ∪ b) ∪ c == a ∪ (b ∪ c) == reference.
        for i in (0..samples.len()).step_by(97) {
            for j in (i..samples.len()).step_by(131) {
                let (a, b, c) = (
                    hist_of(&samples[..i]),
                    hist_of(&samples[i..j]),
                    hist_of(&samples[j..]),
                );
                let mut left = a.clone();
                left.merge(&b);
                left.merge(&c);
                let mut right_tail = b.clone();
                right_tail.merge(&c);
                let mut right = a.clone();
                right.merge(&right_tail);
                let mut swapped = c.clone();
                swapped.merge(&a);
                swapped.merge(&b);
                for h in [&left, &right, &swapped] {
                    assert_eq!(h.count(), reference.count());
                    assert_eq!(h.sum_ns(), reference.sum_ns());
                    assert_eq!(h.max_ns(), reference.max_ns());
                    assert_eq!(h.buckets(), reference.buckets());
                    assert_eq!(h.p99(), reference.p99());
                }
            }
        }
    }
}

#[test]
fn histogram_merge_matches_from_counts_reconstruction() {
    let samples = lcg_samples(42, 300);
    let h = hist_of(&samples);
    // `buckets()` lists only non-empty buckets; map each lower bound
    // back to its array slot via `bucket_index`.
    let mut counts = [0u64; BUCKET_COUNT];
    for (lo, c) in h.buckets() {
        counts[syncplace::obs::hist::bucket_index(lo)] = c;
    }
    let rebuilt = LatencyHistogram::from_counts(counts, h.sum_ns(), h.max_ns());
    assert_eq!(rebuilt.count(), h.count());
    assert_eq!(rebuilt.p50(), h.p50());
    assert_eq!(rebuilt.p99(), h.p99());
    // Merging a reconstruction into an empty histogram is the
    // identity.
    let mut empty = LatencyHistogram::new();
    empty.merge(&rebuilt);
    assert_eq!(empty.buckets(), h.buckets());
}

#[test]
fn registry_exposition_round_trips_under_mixed_traffic() {
    const KEYS: &[&str] = &["m.req", "m.err", "m.lat", "m.depth"];
    let reg = Arc::new(MetricsRegistry::new(KEYS));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for i in 0..250u64 {
                    reg.add("m.req", 1);
                    if i % 10 == 0 {
                        reg.add("m.err", 1);
                    }
                    reg.span("m.lat", (t as u64 + 1) * 1000 + i);
                    reg.gauge_max("m.depth", i);
                    // Unknown keys are tallied, never corrupt state.
                    reg.add("m.unregistered", 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let snap = reg.snapshot();
    assert_eq!(snap.counter("m.req"), 1000);
    assert_eq!(snap.counter("m.err"), 100);
    assert_eq!(snap.span("m.lat").unwrap().count(), 1000);
    assert_eq!(snap.gauge("m.depth"), 249);
    assert_eq!(snap.dropped, 1000);

    let expo = snap.to_exposition();
    let samples = validate_exposition(&expo).expect("exposition must validate");
    // 2 counters + 1 gauge + 6 histogram stats + the dropped tally.
    assert_eq!(samples, 2 + 1 + 6 + 1);
    assert!(expo.contains("syncplace_counter{key=\"m.req\"} 1000"));
    assert!(expo.contains("syncplace_span{key=\"m.lat\",stat=\"count\"} 1000"));
    assert!(expo.contains("syncplace_dropped 1000"));
}
