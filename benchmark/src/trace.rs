//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer (`layers.rs`); nothing inside the program is instrumented.
//! A span carries its name, start, end, the span that caused it, the
//! operation it belongs to and that operation's input kind. Spans and
//! counts stay in memory and are written out (Chrome `trace_event`
//! format) when the workload ends.
//!
//! With tracing off [`Tracer::span`] runs its closure and reads no clock,
//! so the untraced pass measures the program alone.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{median, stratified};

/// Name of the span that wraps one whole operation.
pub const OP: &str = "op";
/// Prefix of the spans that group a pipeline stage (benchmark glue, not
/// a layer of the program).
pub const STAGE: &str = "stage.";

/// Where in the run a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up, including the preflight pipeline.
    Setup,
    /// A measured operation or a traced-only probe of one layer.
    Op,
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric name (`ir.parse_ms`, …), [`OP`] or a `stage.` name.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation identifier shared by all spans of one operation.
    pub op: u64,
    /// Input kind of that operation (for stratified medians).
    pub kind: u32,
    /// Phase of the run.
    pub phase: Phase,
    /// Recording thread (0 = main).
    pub tid: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Clone)]
struct Count {
    name: &'static str,
    value: f64,
    phase: Phase,
}

/// A duration the program reported itself (the server's `run_ms`),
/// aggregated like a span's self time.
#[derive(Debug, Clone)]
struct Reported {
    name: &'static str,
    ms: f64,
    kind: u32,
    phase: Phase,
}

/// In-memory span and count recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    phase: Phase,
    op: u64,
    kind: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<Count>,
    reported: Vec<Reported>,
}

impl Tracer {
    /// A recorder; with `enabled == false` every method is a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            tid: 0,
            phase: Phase::Setup,
            op: 0,
            kind: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
            reported: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this one's clock and
    /// on/off state; merge it back with [`Tracer::absorb`].
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            tid,
            phase: self.phase,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
            reported: Vec::new(),
            ..*self
        }
    }

    /// Merge a forked recorder's spans and counts into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counts.extend(other.counts);
        self.reported.extend(other.reported);
    }

    /// Is tracing on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch tracing on or off (the traced run alternates traced and
    /// untraced passes to price the tracing itself).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Enter a phase of the run.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Tag the spans that follow with operation `op` of input `kind`.
    pub fn set_op(&mut self, op: u64, kind: u32) {
        self.op = op;
        self.kind = kind;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` gets the tracer back to
    /// open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            kind: self.kind,
            phase: self.phase,
            tid: self.tid,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] for a call that opens no child spans.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Record a count made at a layer boundary (graph nodes, search
    /// visits, messages, …). `value` is only evaluated when tracing.
    pub fn count(&mut self, name: &'static str, value: impl FnOnce() -> f64) {
        if self.enabled {
            self.counts.push(Count {
                name,
                value: value(),
                phase: self.phase,
            });
        }
    }

    /// Record a duration the program itself reported for the current
    /// operation; it is aggregated under `name` like a span's self time.
    pub fn reported_ms(&mut self, name: &'static str, ms: f64) {
        if self.enabled {
            self.reported.push(Reported {
                name,
                ms,
                kind: self.kind,
                phase: self.phase,
            });
        }
    }

    /// All spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// `(kind, ms)` samples recorded under `name` in `phase`: the self
    /// time of each layer span (the whole duration of a `stage.` span,
    /// which only groups layers) and every reported duration.
    fn samples(&self, phase: Phase) -> BTreeMap<&'static str, Vec<(u32, f64)>> {
        let mut by_name: BTreeMap<&'static str, Vec<(u32, f64)>> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            if s.phase == phase {
                let ns = if s.name.starts_with(STAGE) {
                    s.dur_ns()
                } else {
                    self_ns
                };
                by_name
                    .entry(s.name)
                    .or_default()
                    .push((s.kind, ns as f64 / 1e6));
            }
        }
        for r in self.reported.iter().filter(|r| r.phase == phase) {
            by_name.entry(r.name).or_default().push((r.kind, r.ms));
        }
        by_name
    }

    /// Every figure recorded in `phase`, by name: the stratified median
    /// of each span's and reported duration's samples in milliseconds,
    /// and the mean of each count per recording. Runs execute whole
    /// passes of a fixed input mix, so the means repeat exactly.
    pub fn figures(&self, phase: Phase) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = self
            .samples(phase)
            .into_iter()
            .filter_map(|(name, samples)| stratified(&samples, median).map(|ms| (name, ms)))
            .collect();
        let mut sums: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for c in self.counts.iter().filter(|c| c.phase == phase) {
            let slot = sums.entry(c.name).or_default();
            slot.0 += c.value;
            slot.1 += 1.0;
        }
        out.extend(sums.into_iter().map(|(name, (sum, n))| (name, sum / n)));
        out
    }

    /// The millisecond samples behind [`Tracer::figures`] for one name.
    pub fn samples_ms(&self, name: &str, phase: Phase) -> Vec<f64> {
        let samples = self.samples(phase).remove(name).unwrap_or_default();
        samples.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Σ layer self time ÷ Σ operation wall over the measured operations:
    /// how much of an operation the layer spans account for. [`OP`] and
    /// `stage.` spans are the benchmark's own glue and count as
    /// unaccounted time.
    pub fn layers_sum_share(&self) -> Option<f64> {
        let selfs = self.self_times_ns();
        let in_op = |mut i: usize| loop {
            if self.spans[i].name == OP {
                return self.spans[i].phase == Phase::Op;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let (mut layers, mut wall) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if !in_op(i) {
                continue;
            }
            if s.name == OP {
                wall += s.dur_ns();
            } else if !s.name.starts_with(STAGE) {
                layers += selfs[i];
            }
        }
        (wall > 0).then(|| layers as f64 / wall as f64)
    }

    /// Render the spans as a Chrome `trace_event` document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\"kind\":{}}}}}",
                s.name,
                if s.phase == Phase::Op { "op" } else { "setup" },
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.op,
                s.kind,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, start ns, end ns, parent, phase, kind)`.
    type RawSpan = (&'static str, u64, u64, Option<usize>, Phase, u32);

    /// A tracer with hand-written spans (no clock involved).
    fn with_spans(spans: &[RawSpan]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, start_ns, end_ns, parent, phase, kind) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 1,
                kind,
                phase,
                tid: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = with_spans(&[
            (OP, 0, 100, None, Phase::Op, 0),
            ("stage.compile_ms", 10, 90, Some(0), Phase::Op, 0),
            ("a_ms", 10, 40, Some(1), Phase::Op, 0),
            ("b_ms", 40, 85, Some(1), Phase::Op, 0),
        ]);
        assert_eq!(t.self_times_ns(), vec![20, 5, 30, 45]);
        // Layers a + b = 75 of the 100 ns operation; op and stage self
        // time (25 ns) is unaccounted glue.
        assert_eq!(t.layers_sum_share(), Some(0.75));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span(OP, |t| t.leaf("a_ms", || 7));
        t.count("n", || unreachable!("counts are lazy"));
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.layers_sum_share(), None);
    }

    #[test]
    fn nesting_sets_parents_and_closes_in_order() {
        let mut t = Tracer::new(true);
        t.set_phase(Phase::Op);
        t.span(OP, |t| {
            t.leaf("a_ms", || ());
            t.span("stage.x_ms", |t| t.leaf("b_ms", || ()));
        });
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn figures_are_per_phase_and_stage_spans_keep_their_duration() {
        let mut t = with_spans(&[
            ("a_ms", 0, 9_000_000, None, Phase::Setup, 0),
            ("a_ms", 0, 1_000_000, None, Phase::Op, 0),
            ("a_ms", 0, 3_000_000, None, Phase::Op, 1),
            ("stage.x_ms", 0, 4_000_000, None, Phase::Op, 0),
            ("b_ms", 0, 3_000_000, Some(3), Phase::Op, 0),
        ]);
        t.set_phase(Phase::Op);
        t.count("n", || 2.0);
        t.count("n", || 4.0);
        t.reported_ms("r_ms", 7.0);
        let (setup, op) = (t.figures(Phase::Setup), t.figures(Phase::Op));
        assert_eq!(setup["a_ms"], 9.0);
        assert_eq!(op["a_ms"], 2.0); // two kinds, equal weight
        assert_eq!(op["stage.x_ms"], 4.0); // duration, not the 1 ms of glue
        assert_eq!(op["b_ms"], 3.0);
        assert_eq!(op["n"], 3.0);
        assert_eq!(op["r_ms"], 7.0);
        assert!(!setup.contains_key("n"));
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut main = with_spans(&[(OP, 0, 10, None, Phase::Op, 0)]);
        let mut other = main.fork(1);
        other.span(OP, |t| t.leaf("a_ms", || ()));
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].tid, 1);
    }
}
