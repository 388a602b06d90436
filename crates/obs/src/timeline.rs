//! The event-timeline profiler: a [`TimelineRecorder`] that keeps
//! every rank-attributed interval with its arrival timestamp, instead
//! of folding it away.
//!
//! # Why a second recorder
//!
//! [`crate::MetricsRegistry`] answers *how much* (counters, span sums,
//! a pair matrix); it cannot answer *where time went* — which rank
//! waited, which phase straggled, what the critical path through a
//! run was. The timeline keeps the raw intervals so
//! [`crate::analysis`] can rebuild per-rank timelines, attribute
//! compute vs wait, and extract critical paths; [`crate::chrome`]
//! renders them for Perfetto.
//!
//! # Recording path
//!
//! Emissions land in **per-thread buffers**: each OS thread that
//! touches a given recorder lazily creates its own shard (a
//! `Vec<Event>` behind a mutex that only that thread pushes to) and
//! caches the handle in a `thread_local` map keyed by recorder
//! identity. The hot path is therefore one thread-local lookup plus
//! one *uncontended* mutex push — no cross-thread cache-line traffic,
//! no shared lock. Shards are merged only at [`snapshot`] time, where
//! the recorder walks its shard registry. This keeps a *live* timeline
//! within the <5 % overhead budget (guarded in
//! `tests/profile_timeline.rs`).
//!
//! Timestamps are nanoseconds from the recorder's creation instant
//! (its *epoch*): the `Recorder` API delivers durations, so the
//! recorder stamps the arrival as the interval's **end** and derives
//! the begin as `end − duration`. Phase-granularity emission makes the
//! stamping skew (the nanoseconds between interval end and the
//! recorder call) negligible against the intervals themselves.
//!
//! [`snapshot`]: TimelineRecorder::snapshot

use crate::recorder::Recorder;
use crate::trace::{json_escape, json_join};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// One thread's buffer of the intervals it recorded.
type Shard = Arc<Mutex<Vec<TimelineEvent>>>;

thread_local! {
    /// This thread's shard handle per recorder identity. Weak, so a
    /// dropped recorder's shards are reclaimed; dead entries are swept
    /// whenever a new shard is created.
    static SHARDS: RefCell<HashMap<u64, Weak<Mutex<Vec<TimelineEvent>>>>> =
        RefCell::new(HashMap::new());
}

/// Monotonic recorder identity source (never reused, so a stale
/// thread-local entry can never alias a new recorder).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// An event-collecting recorder: every [`Recorder::event`] emission is
/// kept verbatim with an arrival timestamp, in per-thread shards
/// merged at snapshot time. Counters, gauges, spans and packets are
/// ignored — pair a timeline with a [`crate::MetricsRegistry`] through
/// a [`crate::FanoutRecorder`] when both views of one run are wanted.
#[derive(Debug)]
pub struct TimelineRecorder {
    id: u64,
    epoch: Instant,
    /// Strong handles to every shard ever created for this recorder.
    /// Locked only on shard creation and at snapshot/reset — never on
    /// the per-event hot path.
    registry: Mutex<Vec<Shard>>,
}

impl Default for TimelineRecorder {
    fn default() -> TimelineRecorder {
        TimelineRecorder::new()
    }
}

impl TimelineRecorder {
    /// A fresh recorder; its creation instant is the timestamp epoch.
    pub fn new() -> TimelineRecorder {
        TimelineRecorder {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            registry: Mutex::new(Vec::new()),
        }
    }

    /// Push one interval into the calling thread's shard, creating
    /// and registering the shard on first use.
    fn record(&self, ev: TimelineEvent) {
        SHARDS.with(|cell| {
            let mut map = cell.borrow_mut();
            if let Some(shard) = map.get(&self.id).and_then(Weak::upgrade) {
                shard.lock().expect("timeline shard").push(ev);
                return;
            }
            // First event from this thread for this recorder: create a
            // shard, register it, and sweep dead entries while here.
            map.retain(|_, w| w.strong_count() > 0);
            let shard: Shard = Arc::new(Mutex::new(vec![ev]));
            map.insert(self.id, Arc::downgrade(&shard));
            self.registry.lock().expect("timeline registry").push(shard);
        });
    }

    /// Merge every shard into an immutable, deterministically ordered
    /// snapshot. Recording may continue afterwards; the snapshot
    /// reflects everything that had been pushed when each shard was
    /// visited.
    pub fn snapshot(&self) -> TimelineSnapshot {
        let shards = self.registry.lock().expect("timeline registry").clone();
        let mut events = Vec::new();
        for shard in &shards {
            events.extend_from_slice(&shard.lock().expect("timeline shard"));
        }
        events.sort_by_key(|e| (e.begin_ns, e.end_ns, e.rank, e.name));
        TimelineSnapshot { events }
    }
}

impl Recorder for TimelineRecorder {
    fn add(&self, _key: &'static str, _delta: u64) {}
    fn gauge_max(&self, _key: &'static str, _value: u64) {}
    fn span(&self, _name: &'static str, _nanos: u64) {}
    fn packet(&self, _from: u32, _to: u32, _values: u64) {}

    fn event(&self, rank: u32, name: &'static str, nanos: u64) {
        // Clamp so begin = end − dur never underflows the epoch: the
        // duration is the measured truth and must survive exactly
        // (the aggregate cross-check is exact), so on skew the end is
        // nudged, never the length.
        let end_ns = (self.epoch.elapsed().as_nanos() as u64).max(nanos);
        self.record(TimelineEvent { rank, name, begin_ns: end_ns - nanos, end_ns });
    }
}

/// One completed interval on a rank's timeline. Timestamps are
/// nanoseconds from the recorder epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Emitting rank.
    pub rank: u32,
    /// Interval name (see [`crate::keys`]).
    pub name: &'static str,
    /// Interval start, ns from epoch.
    pub begin_ns: u64,
    /// Interval end, ns from epoch.
    pub end_ns: u64,
}

impl TimelineEvent {
    /// Interval length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }
}

/// The merged, ordered view of one timeline recording: the
/// rank-attributed event stream.
#[derive(Debug, Clone, Default)]
pub struct TimelineSnapshot {
    /// Rank-attributed intervals, ordered by `(begin, end, rank, name)`.
    pub events: Vec<TimelineEvent>,
}

impl TimelineSnapshot {
    /// Number of ranks present in the event stream (max rank + 1; 0
    /// when no events were recorded).
    pub fn nranks(&self) -> usize {
        self.events.iter().map(|e| e.rank as usize + 1).max().unwrap_or(0)
    }

    /// Every event named `name`, in timeline order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TimelineEvent> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// The events named `name` grouped per rank, each rank's sequence
    /// in begin order — the k-th entry of each rank is the k-th
    /// occurrence of that interval on that rank (phases are global
    /// sync points executed in identical order by every rank, which
    /// is what makes index-alignment across ranks meaningful).
    pub fn per_rank(&self, name: &str) -> Vec<Vec<TimelineEvent>> {
        let mut by_rank: Vec<Vec<TimelineEvent>> = vec![Vec::new(); self.nranks()];
        for e in self.events.iter().filter(|e| e.name == name) {
            by_rank[e.rank as usize].push(*e);
        }
        by_rank
    }

    /// A latency histogram over every interval named
    /// `name` (per-rank occurrences, so tail quantiles reflect
    /// stragglers, not rank-0 alone).
    pub fn histogram(&self, name: &str) -> crate::hist::LatencyHistogram {
        let mut h = crate::hist::LatencyHistogram::new();
        for e in self.events_named(name) {
            h.record(e.dur_ns());
        }
        h
    }

    /// The distinct event names present in the event stream, ordered.
    pub fn event_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.events.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Render as a JSON object: `{"nranks":N,"events":[{rank,name,
    /// begin_ns,end_ns},...]}`, deterministically ordered.
    pub fn to_json(&self) -> String {
        let events = self.events.iter().map(|e| {
            format!(
                "{{\"rank\":{},\"name\":{},\"begin_ns\":{},\"end_ns\":{}}}",
                e.rank,
                json_escape(e.name),
                e.begin_ns,
                e.end_ns
            )
        });
        format!("{{\"nranks\":{},\"events\":[{}]}}", self.nranks(), json_join(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderRef;

    #[test]
    fn events_and_spans_land_in_separate_streams() {
        // Through a tee the event stays with the timeline and the span
        // with the aggregate: neither keeps a copy of the other's.
        let tl = Arc::new(TimelineRecorder::new());
        let agg = Arc::new(crate::MetricsRegistry::new(&["ph"]));
        let tee = crate::FanoutRecorder::new(vec![tl.clone(), agg.clone()]);
        tee.event(1, "ph", 100);
        tee.span("ph", 100);
        let s = tl.snapshot();
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].rank, 1);
        assert_eq!(s.events[0].dur_ns(), 100);
        assert_eq!(s.nranks(), 2);
        assert_eq!(agg.snapshot().span("ph").map(|h| h.count()), Some(1));
    }

    #[test]
    fn counters_gauges_packets_are_ignored() {
        let r = TimelineRecorder::new();
        r.add("k", 1);
        r.gauge_max("g", 2);
        r.packet(0, 1, 3);
        let s = r.snapshot();
        assert!(s.events.is_empty());
        assert_eq!(s.nranks(), 0);
    }

    #[test]
    fn cross_thread_events_merge_completely() {
        let r = Arc::new(TimelineRecorder::new());
        let handles: Vec<_> = (0..8u32)
            .map(|rank| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.event(rank, "ph", 10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.events.len(), 800);
        assert_eq!(s.nranks(), 8);
        let per = s.per_rank("ph");
        assert!(per.iter().all(|v| v.len() == 100));
    }

    #[test]
    fn two_recorders_on_one_thread_do_not_alias() {
        let a = TimelineRecorder::new();
        let b = TimelineRecorder::new();
        a.event(0, "x", 1);
        b.event(0, "y", 2);
        assert_eq!(a.snapshot().events.len(), 1);
        assert_eq!(b.snapshot().events.len(), 1);
        assert_eq!(a.snapshot().events[0].name, "x");
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let r = TimelineRecorder::new();
        r.event(0, "a", 5);
        r.event(0, "b", 5);
        let s = r.snapshot();
        assert!(s.events[0].end_ns <= s.events[1].end_ns);
        assert!(s.events[0].begin_ns + 5 == s.events[0].end_ns);
    }

    #[test]
    fn works_through_the_helper_fns() {
        let tl = Arc::new(TimelineRecorder::new());
        let rec: RecorderRef = Some(tl.clone());
        let t0 = crate::start(&rec);
        crate::finish_ranked(&rec, "ph", 3, t0);
        let s = tl.snapshot();
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].rank, 3);
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let r = TimelineRecorder::new();
        r.event(0, "ph", 10);
        let s = r.snapshot();
        let j = s.to_json();
        assert_eq!(j, s.to_json());
        assert!(j.starts_with("{\"nranks\":1,\"events\":["));
        assert!(j.contains("\"name\":\"ph\""));
    }
}
