//! The [`Recorder`] trait, the disabled-path plumbing and the tee.

use std::sync::Arc;
use std::time::Instant;

/// A sink for runtime metrics. Implementations must be cheap and
/// thread-safe: the engines call these methods from every rank of an
/// SPMD gang concurrently, at **phase** granularity (never per mesh
/// entity), so even a lock-based implementation stays far below the
/// 5 % overhead budget (DESIGN.md §6).
///
/// All methods take `&self`; implementations aggregate internally.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the monotonic counter `key`.
    fn add(&self, key: &'static str, delta: u64);

    /// Record a high-water mark: keep the maximum of `value` and the
    /// gauge's current value.
    fn gauge_max(&self, key: &'static str, value: u64);

    /// Record one completed wall-clock span of `nanos` under `name`.
    fn span(&self, name: &'static str, nanos: u64);

    /// Record one wire packet of `values` f64 payload sent `from` → `to`
    /// (communication-phase traffic only; see [`crate::keys`]).
    fn packet(&self, from: u32, to: u32, values: u64);

    /// Record one completed, *rank-attributed* wall-clock interval of
    /// `nanos` under `name` — the event-stream counterpart of
    /// [`Recorder::span`]. Aggregating recorders may ignore it (the
    /// default does); timeline recorders keep every occurrence with
    /// its arrival timestamp so per-rank timelines can be rebuilt.
    fn event(&self, rank: u32, name: &'static str, nanos: u64) {
        let _ = (rank, name, nanos);
    }

    /// Record one happens-before event of kind `key` (a `hb.*` key from
    /// [`crate::keys`]) on `rank`, concerning `peer` — a send, receive,
    /// read, barrier arrival, or staging-slot acquire/release at the
    /// engine hook sites. Aggregating and timeline recorders ignore
    /// these (the default is a no-op); the [`crate::hb::HbRecorder`]
    /// keeps every occurrence in per-rank program order so the
    /// `analyze::hb` vector-clock checker can replay them.
    fn hb(&self, rank: u32, key: &'static str, peer: u32) {
        let _ = (rank, key, peer);
    }
}

/// The recorder handle threaded through engines, pool and search.
///
/// `None` disables instrumentation entirely: each site costs one
/// branch, reads no clock and takes no lock — the "zero-cost when
/// disabled" contract. `Some` wraps a shared recorder that rank jobs
/// clone across pool threads.
pub type RecorderRef = Option<Arc<dyn Recorder>>;

/// Start a wall-clock measurement — reads the clock only when `rec`
/// is enabled, returning `None` (free) otherwise.
#[inline]
pub fn start(rec: &RecorderRef) -> Option<Instant> {
    rec.as_ref().map(|_| Instant::now())
}

/// Close a measurement opened by [`start`], recording a span under
/// `name`. A `None` start (disabled recorder) is a no-op.
#[inline]
pub fn finish(rec: &RecorderRef, name: &'static str, started: Option<Instant>) {
    if let (Some(r), Some(t0)) = (rec.as_ref(), started) {
        r.span(name, t0.elapsed().as_nanos() as u64);
    }
}

/// Close a measurement opened by [`start`], recording a
/// rank-attributed *event* only (no span). For intervals that exist
/// once per rank and must not inflate the rank-0 span aggregates —
/// e.g. each rank's whole-job interval or a pool job.
#[inline]
pub fn finish_event(rec: &RecorderRef, name: &'static str, rank: u32, started: Option<Instant>) {
    if let (Some(r), Some(t0)) = (rec.as_ref(), started) {
        r.event(rank, name, t0.elapsed().as_nanos() as u64);
    }
}

/// Close a measurement opened by [`start`], recording a
/// rank-attributed event on *every* rank and, on rank 0 only, the
/// matching span — with the **same** duration value, so a timeline's
/// rank-0 events per name sum to the aggregate's span count and
/// `sum_ns` exactly (asserted in `tests/profile_timeline.rs`).
#[inline]
pub fn finish_ranked(rec: &RecorderRef, name: &'static str, rank: u32, started: Option<Instant>) {
    if let (Some(r), Some(t0)) = (rec.as_ref(), started) {
        let nanos = t0.elapsed().as_nanos() as u64;
        r.event(rank, name, nanos);
        if rank == 0 {
            r.span(name, nanos);
        }
    }
}

/// A tee that forwards every emission to each of its sinks, so one
/// run can feed the aggregating [`crate::MetricsRegistry`] and a
/// [`crate::TimelineRecorder`] simultaneously — the consistency
/// cross-check between the two views relies on both seeing the exact
/// same call stream.
pub struct FanoutRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// A tee over `sinks` (cloned `Arc`s; order is forwarding order).
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> FanoutRecorder {
        FanoutRecorder { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn add(&self, key: &'static str, delta: u64) {
        for s in &self.sinks {
            s.add(key, delta);
        }
    }
    fn gauge_max(&self, key: &'static str, value: u64) {
        for s in &self.sinks {
            s.gauge_max(key, value);
        }
    }
    fn span(&self, name: &'static str, nanos: u64) {
        for s in &self.sinks {
            s.span(name, nanos);
        }
    }
    fn packet(&self, from: u32, to: u32, values: u64) {
        for s in &self.sinks {
            s.packet(from, to, values);
        }
    }
    fn event(&self, rank: u32, name: &'static str, nanos: u64) {
        for s in &self.sinks {
            s.event(rank, name, nanos);
        }
    }
    fn hb(&self, rank: u32, key: &'static str, peer: u32) {
        for s in &self.sinks {
            s.hb(rank, key, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn disabled_ref_never_reads_the_clock() {
        let rec: RecorderRef = None;
        assert!(start(&rec).is_none());
        finish(&rec, "x", None); // no panic, no effect
    }

    #[test]
    fn enabled_ref_times_spans() {
        let tr = Arc::new(MetricsRegistry::new(&["probe"]));
        let rec: RecorderRef = Some(tr.clone());
        let t0 = start(&rec);
        assert!(t0.is_some());
        finish(&rec, "probe", t0);
        let snap = tr.snapshot();
        assert_eq!(snap.span("probe").map(|s| s.count()), Some(1));
    }

    #[test]
    fn finish_ranked_spans_only_on_rank_zero() {
        let tr = Arc::new(MetricsRegistry::new(&["ph"]));
        let rec: RecorderRef = Some(tr.clone());
        for rank in 0..4 {
            let t0 = start(&rec);
            finish_ranked(&rec, "ph", rank, t0);
        }
        // The aggregate ignores events, so only the rank-0 span
        // survives — the rank-0-keys convention is preserved.
        assert_eq!(tr.snapshot().span("ph").map(|s| s.count()), Some(1));
    }

    #[test]
    fn finish_event_never_records_a_span() {
        let tr = Arc::new(MetricsRegistry::new(&["job"]));
        let rec: RecorderRef = Some(tr.clone());
        let t0 = start(&rec);
        finish_event(&rec, "job", 0, t0);
        assert!(tr.snapshot().span("job").is_none());
    }

    #[test]
    fn fanout_forwards_to_every_sink() {
        let a = Arc::new(MetricsRegistry::new(&["k", "g", "s"]));
        let b = Arc::new(MetricsRegistry::new(&["k", "g", "s"]));
        let tee = FanoutRecorder::new(vec![a.clone(), b.clone()]);
        tee.add("k", 2);
        tee.gauge_max("g", 9);
        tee.span("s", 5);
        tee.packet(0, 1, 3);
        tee.event(1, "e", 7);
        for r in [&a, &b] {
            let s = r.snapshot();
            assert_eq!(s.counter("k"), 2);
            assert_eq!(s.gauge("g"), 9);
            assert_eq!(s.span("s").map(|x| x.sum_ns()), Some(5));
            assert_eq!(s.pair(0, 1).values, 3);
        }
    }
}
