//! Timeline analysis: per-rank compute-vs-wait attribution, per-phase
//! load-imbalance factors, and critical-path extraction over the
//! phase DAG of a run — the quantitative form of the paper's Fig. 9
//! vs Fig. 10 trade-off (grouped communications shorten the phase
//! chain; restricted iteration domains shrink compute but add
//! phases).
//!
//! # The phase DAG
//!
//! A communication phase is a global synchronisation point: every
//! rank executes the same phase sequence in the same order, so the
//! k-th `engine.phase` event on each rank belongs to the same phase
//! *instance*. A run therefore induces a DAG:
//!
//! ```text
//!   source ─▶ gap(r,0) ─▶ phase(0) ─▶ gap(r,1) ─▶ phase(1) ─▶ … ─▶ tail(r) ─▶ sink
//!              (per rank)  (shared)    (per rank)
//! ```
//!
//! * `gap(r,k)` — rank `r`'s local work between its previous sync
//!   point (run start, or the end of phase `k−1` on `r`) and its
//!   arrival at phase `k`;
//! * `phase(k)` — the phase instance itself, weighted by the
//!   *slowest* rank's duration (a barrier completes when the last
//!   rank does);
//! * `tail(r)` — rank `r`'s work after the last phase.
//!
//! The longest path through this DAG is the modeled makespan; which
//! arcs it uses tells you whether a placement is compute-bound (gaps
//! dominate) or synchronisation-bound (phase nodes dominate). The
//! extraction ([`PhaseDag::critical_path`]) is a generic
//! longest-path-in-DAG (Kahn topological order), so synthetic DAGs
//! can assert the known answer directly.

use crate::keys;
use crate::timeline::TimelineSnapshot;
use crate::trace::{json_escape, json_join};

/// One node of a [`PhaseDag`]: a label for reporting and a weight in
/// nanoseconds.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Human-readable node label (`"phase k3"`, `"gap r1 k2"`, …).
    pub label: String,
    /// Node weight, nanoseconds of modeled wall-clock.
    pub weight_ns: u64,
}

/// A weighted DAG of phase/gap/tail nodes; see the module docs for
/// the shape induced by a run.
#[derive(Debug, Clone, Default)]
pub struct PhaseDag {
    nodes: Vec<DagNode>,
    succs: Vec<Vec<usize>>,
}

/// The longest weighted path through a [`PhaseDag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Summed node weights along the path, ns.
    pub length_ns: u64,
    /// Node indices along the path, source to sink.
    pub nodes: Vec<usize>,
}

impl PhaseDag {
    /// An empty DAG.
    pub fn new() -> PhaseDag {
        PhaseDag::default()
    }

    /// Add a node; returns its index.
    pub fn add_node(&mut self, label: impl Into<String>, weight_ns: u64) -> usize {
        self.nodes.push(DagNode { label: label.into(), weight_ns });
        self.succs.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Add a directed edge `from → to`.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        self.succs[from].push(to);
    }

    /// The longest weighted path (node weights summed), computed in
    /// one Kahn topological sweep.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle — run-induced graphs are
    /// acyclic by construction, so a cycle is a caller bug.
    pub fn critical_path(&self) -> CriticalPath {
        let n = self.nodes.len();
        if n == 0 {
            return CriticalPath { length_ns: 0, nodes: Vec::new() };
        }
        let mut indeg = vec![0usize; n];
        for ss in &self.succs {
            for &s in ss {
                indeg[s] += 1;
            }
        }
        // best[i]: longest path length ending at i (inclusive of i);
        // pred[i]: predecessor on that path.
        let mut best: Vec<u64> = self.nodes.iter().map(|nd| nd.weight_ns).collect();
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut processed = 0usize;
        while let Some(i) = queue.pop() {
            processed += 1;
            for &s in &self.succs[i] {
                let cand = best[i] + self.nodes[s].weight_ns;
                // `>=` on first relaxation: weights are non-negative,
                // so a path through any predecessor is at least as
                // long as the node alone — a reachable node must end
                // up with a predecessor even when the tie is exact
                // (zero-weight sources would otherwise vanish from
                // the reconstructed path).
                if cand > best[s] || (pred[s].is_none() && cand >= best[s]) {
                    best[s] = cand;
                    pred[s] = Some(i);
                }
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        assert_eq!(processed, n, "PhaseDag contains a cycle");
        // With non-negative weights every longest path extends to a
        // successor-free node at equal length, so the end is chosen
        // among those — the reconstructed path then runs source to
        // sink instead of stopping at a zero-weight tie.
        let end = (0..n)
            .filter(|&i| self.succs[i].is_empty())
            .max_by_key(|&i| best[i])
            .expect("non-empty");
        let mut nodes = vec![end];
        while let Some(p) = pred[*nodes.last().expect("path")] {
            nodes.push(p);
        }
        nodes.reverse();
        CriticalPath { length_ns: best[end], nodes }
    }

    /// The labels along a [`CriticalPath`], in order.
    pub fn path_labels(&self, cp: &CriticalPath) -> Vec<String> {
        cp.nodes.iter().map(|&i| self.nodes[i].label.clone()).collect()
    }
}

/// Per-rank wall-clock attribution for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankBreakdown {
    /// The rank.
    pub rank: u32,
    /// Whole-job interval (`engine.rank_run` event), ns.
    pub run_ns: u64,
    /// Summed kernel-loop compute (`engine.compute` events), ns.
    pub compute_ns: u64,
    /// Summed communication-phase time (`engine.phase` events), ns.
    pub phase_ns: u64,
    /// The part of `phase_ns` attributed to *waiting*: per phase
    /// instance, this rank's duration minus the fastest rank's (the
    /// fastest rank's time bounds the unavoidable wire cost), ns.
    pub wait_ns: u64,
    /// Phase instances this rank participated in.
    pub phase_count: u64,
}

/// One aligned phase instance across all ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseInstance {
    /// Position in the run's phase sequence.
    pub index: usize,
    /// Earliest rank arrival, ns from epoch.
    pub begin_ns: u64,
    /// Latest rank completion, ns from epoch.
    pub end_ns: u64,
    /// Slowest rank's in-phase duration, ns.
    pub max_dur_ns: u64,
    /// Fastest rank's in-phase duration, ns.
    pub min_dur_ns: u64,
    /// Mean in-phase duration across ranks, ns.
    pub mean_dur_ns: f64,
    /// Load-imbalance factor: `max_dur / mean_dur` (1.0 = balanced).
    pub imbalance: f64,
}

/// The full analysis of one run's timeline.
#[derive(Debug, Clone, Default)]
pub struct TimelineAnalysis {
    /// Ranks present in the event stream.
    pub nranks: usize,
    /// Per-rank attribution, indexed by rank.
    pub ranks: Vec<RankBreakdown>,
    /// Aligned phase instances, in sequence order.
    pub phases: Vec<PhaseInstance>,
    /// Longest path through the run's phase DAG, ns.
    pub critical_path_ns: u64,
    /// Labels along the critical path.
    pub critical_path_labels: Vec<String>,
    /// Σ wait over Σ rank-run time (0.0 when no run time recorded).
    pub wait_share: f64,
    /// Largest per-phase imbalance factor (1.0 when no phases).
    pub max_imbalance: f64,
}

/// Build the phase DAG induced by a timeline (see module docs).
pub fn phase_dag(snap: &TimelineSnapshot) -> PhaseDag {
    let nranks = snap.nranks();
    let mut dag = PhaseDag::new();
    let source = dag.add_node("source", 0);
    let sink_weight = 0;
    if nranks == 0 {
        return dag;
    }
    let per_rank = snap.per_rank(keys::PHASE_SPAN);
    let runs = rank_runs(snap);
    // Align instances on the shortest rank sequence (they are equal on
    // well-formed runs; a mismatch would come from a crashed rank).
    let k_all = per_rank.iter().map(Vec::len).min().unwrap_or(0);
    let sink = dag.add_node("sink", sink_weight);
    let mut prev: Vec<usize> = vec![source; nranks];
    let mut prev_end: Vec<u64> = (0..nranks).map(|r| runs[r].0).collect();
    #[allow(clippy::needless_range_loop)] // k indexes every rank's sequence, not one vec
    for k in 0..k_all {
        let max_dur = (0..nranks).map(|r| per_rank[r][k].dur_ns()).max().unwrap_or(0);
        let phase = dag.add_node(format!("phase k{k}"), max_dur);
        for r in 0..nranks {
            let e = &per_rank[r][k];
            let gap_w = e.begin_ns.saturating_sub(prev_end[r]);
            let gap = dag.add_node(format!("gap r{r} k{k}"), gap_w);
            dag.add_edge(prev[r], gap);
            dag.add_edge(gap, phase);
            prev_end[r] = e.end_ns;
        }
        prev = vec![phase; nranks];
    }
    for r in 0..nranks {
        let tail_w = runs[r].1.saturating_sub(prev_end[r]);
        let tail = dag.add_node(format!("tail r{r}"), tail_w);
        dag.add_edge(prev[r], tail);
        dag.add_edge(tail, sink);
    }
    dag
}

/// Per-rank `(run_begin, run_end)` in epoch-ns: the `engine.rank_run`
/// event when present, else the envelope of the rank's events.
fn rank_runs(snap: &TimelineSnapshot) -> Vec<(u64, u64)> {
    let nranks = snap.nranks();
    let mut runs: Vec<Option<(u64, u64)>> = vec![None; nranks];
    for e in snap.events_named(keys::RANK_RUN) {
        runs[e.rank as usize] = Some((e.begin_ns, e.end_ns));
    }
    for (r, slot) in runs.iter_mut().enumerate() {
        if slot.is_none() {
            let mut lo = u64::MAX;
            let mut hi = 0;
            for e in snap.events.iter().filter(|e| e.rank as usize == r) {
                lo = lo.min(e.begin_ns);
                hi = hi.max(e.end_ns);
            }
            *slot = Some(if lo <= hi { (lo, hi) } else { (0, 0) });
        }
    }
    runs.into_iter().map(|o| o.unwrap_or((0, 0))).collect()
}

/// Analyze one run's timeline: per-rank attribution, per-phase
/// imbalance, and the critical path through the induced phase DAG.
pub fn analyze(snap: &TimelineSnapshot) -> TimelineAnalysis {
    let nranks = snap.nranks();
    let per_rank = snap.per_rank(keys::PHASE_SPAN);
    let runs = rank_runs(snap);
    let k_all = per_rank.iter().map(Vec::len).min().unwrap_or(0);

    let mut phases = Vec::with_capacity(k_all);
    #[allow(clippy::needless_range_loop)] // k indexes every rank's sequence, not one vec
    for k in 0..k_all {
        let durs: Vec<u64> = (0..nranks).map(|r| per_rank[r][k].dur_ns()).collect();
        let max_dur = durs.iter().copied().max().unwrap_or(0);
        let min_dur = durs.iter().copied().min().unwrap_or(0);
        let mean = durs.iter().sum::<u64>() as f64 / nranks.max(1) as f64;
        phases.push(PhaseInstance {
            index: k,
            begin_ns: (0..nranks).map(|r| per_rank[r][k].begin_ns).min().unwrap_or(0),
            end_ns: (0..nranks).map(|r| per_rank[r][k].end_ns).max().unwrap_or(0),
            max_dur_ns: max_dur,
            min_dur_ns: min_dur,
            mean_dur_ns: mean,
            imbalance: if mean > 0.0 { max_dur as f64 / mean } else { 1.0 },
        });
    }

    let mut ranks = Vec::with_capacity(nranks);
    for r in 0..nranks {
        let phase_ns: u64 = per_rank[r].iter().map(|e| e.dur_ns()).sum();
        let wait_ns: u64 = (0..k_all)
            .map(|k| per_rank[r][k].dur_ns() - phases[k].min_dur_ns.min(per_rank[r][k].dur_ns()))
            .sum();
        let compute_ns: u64 = snap
            .events
            .iter()
            .filter(|e| e.rank as usize == r && e.name == keys::COMPUTE_SPAN)
            .map(|e| e.dur_ns())
            .sum();
        ranks.push(RankBreakdown {
            rank: r as u32,
            run_ns: runs[r].1.saturating_sub(runs[r].0),
            compute_ns,
            phase_ns,
            wait_ns,
            phase_count: per_rank[r].len() as u64,
        });
    }

    let dag = phase_dag(snap);
    let cp = dag.critical_path();
    let total_run: u64 = ranks.iter().map(|b| b.run_ns).sum();
    let total_wait: u64 = ranks.iter().map(|b| b.wait_ns).sum();
    TimelineAnalysis {
        nranks,
        ranks,
        max_imbalance: phases.iter().map(|p| p.imbalance).fold(1.0, f64::max),
        phases,
        critical_path_ns: cp.length_ns,
        critical_path_labels: dag.path_labels(&cp),
        wait_share: if total_run > 0 { total_wait as f64 / total_run as f64 } else { 0.0 },
    }
}

impl TimelineAnalysis {
    /// Render as a JSON object (times in ms, shares as ratios),
    /// deterministically ordered.
    pub fn to_json(&self) -> String {
        let ranks = self.ranks.iter().map(|b| {
            format!(
                "{{\"rank\":{},\"run_ms\":{:.6},\"compute_ms\":{:.6},\"phase_ms\":{:.6},\"wait_ms\":{:.6},\"phases\":{}}}",
                b.rank,
                b.run_ns as f64 / 1e6,
                b.compute_ns as f64 / 1e6,
                b.phase_ns as f64 / 1e6,
                b.wait_ns as f64 / 1e6,
                b.phase_count,
            )
        });
        let phases = self.phases.iter().map(|p| {
            format!(
                "{{\"index\":{},\"max_ms\":{:.6},\"min_ms\":{:.6},\"mean_ms\":{:.6},\"imbalance\":{:.4}}}",
                p.index,
                p.max_dur_ns as f64 / 1e6,
                p.min_dur_ns as f64 / 1e6,
                p.mean_dur_ns / 1e6,
                p.imbalance,
            )
        });
        format!(
            "{{\"nranks\":{},\"critical_path_ms\":{:.6},\"wait_share\":{:.6},\"max_imbalance\":{:.4},\"critical_path\":[{}],\"ranks\":[{}],\"phases\":[{}]}}",
            self.nranks,
            self.critical_path_ns as f64 / 1e6,
            self.wait_share,
            self.max_imbalance,
            json_join(self.critical_path_labels.iter().map(|l| json_escape(l))),
            json_join(ranks),
            json_join(phases),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::timeline::TimelineRecorder;

    #[test]
    fn diamond_dag_takes_the_heavy_arm() {
        // source(0) → a(10) → sink(0)
        //          ↘ b(3) → c(4) ↗        longest: source,a,sink = 10
        let mut g = PhaseDag::new();
        let s = g.add_node("source", 0);
        let a = g.add_node("a", 10);
        let b = g.add_node("b", 3);
        let c = g.add_node("c", 4);
        let t = g.add_node("sink", 0);
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(b, c);
        g.add_edge(a, t);
        g.add_edge(c, t);
        let cp = g.critical_path();
        assert_eq!(cp.length_ns, 10);
        assert_eq!(g.path_labels(&cp), ["source", "a", "sink"]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_panics() {
        let mut g = PhaseDag::new();
        let a = g.add_node("a", 1);
        let b = g.add_node("b", 1);
        g.add_edge(a, b);
        g.add_edge(b, a);
        g.critical_path();
    }

    #[test]
    fn empty_dag_is_zero() {
        let cp = PhaseDag::new().critical_path();
        assert_eq!(cp.length_ns, 0);
        assert!(cp.nodes.is_empty());
    }

    /// Hand-build the timeline of a 2-rank run with 2 phases and
    /// check every analysis quantity against the known answer.
    fn synthetic_two_rank() -> TimelineRecorder {
        let r = TimelineRecorder::new();
        // Durations only — the recorder stamps arrival order, but the
        // analysis uses begin/end derived from (arrival, dur); for a
        // fully *synthetic* timeline we emit in run order so derived
        // begins are ordered too. Events: per-rank run, phases, compute.
        // rank 0: compute 100, phase0 dur 50; compute 100, phase1 dur 10
        // rank 1: compute 300, phase0 dur 10; compute  50, phase1 dur 60
        r.event(0, keys::COMPUTE_SPAN, 100);
        r.event(1, keys::COMPUTE_SPAN, 300);
        r.event(0, keys::PHASE_SPAN, 50);
        r.event(1, keys::PHASE_SPAN, 10);
        r.event(0, keys::COMPUTE_SPAN, 100);
        r.event(1, keys::COMPUTE_SPAN, 50);
        r.event(0, keys::PHASE_SPAN, 10);
        r.event(1, keys::PHASE_SPAN, 60);
        r.event(0, keys::RANK_RUN, 400);
        r.event(1, keys::RANK_RUN, 450);
        r
    }

    #[test]
    fn analysis_counts_phases_and_waits() {
        let snap = synthetic_two_rank().snapshot();
        let a = analyze(&snap);
        assert_eq!(a.nranks, 2);
        assert_eq!(a.phases.len(), 2);
        assert_eq!(a.ranks[0].phase_count, 2);
        assert_eq!(a.ranks[0].phase_ns, 60);
        assert_eq!(a.ranks[1].phase_ns, 70);
        // wait = own dur − min dur per instance:
        // rank0: (50−10) + (10−10) = 40;  rank1: 0 + (60−10) = 50
        assert_eq!(a.ranks[0].wait_ns, 40);
        assert_eq!(a.ranks[1].wait_ns, 50);
        assert_eq!(a.ranks[0].compute_ns, 200);
        assert_eq!(a.ranks[1].compute_ns, 350);
        // phase 0: durs {50, 10} → mean 30, imbalance 50/30
        assert!((a.phases[0].imbalance - 50.0 / 30.0).abs() < 1e-12);
        assert!(a.max_imbalance >= a.phases[0].imbalance);
        assert!(a.wait_share > 0.0);
        assert!(a.critical_path_ns > 0);
        assert!(a.critical_path_labels.first().map(String::as_str) == Some("source"));
        assert!(a.critical_path_labels.last().map(String::as_str) == Some("sink"));
    }

    #[test]
    fn single_rank_run_has_no_wait() {
        let r = TimelineRecorder::new();
        r.event(0, keys::PHASE_SPAN, 100);
        r.event(0, keys::RANK_RUN, 500);
        let a = analyze(&r.snapshot());
        assert_eq!(a.nranks, 1);
        assert_eq!(a.ranks[0].wait_ns, 0);
        assert_eq!(a.max_imbalance, 1.0);
    }

    #[test]
    fn analysis_json_is_deterministic() {
        let snap = synthetic_two_rank().snapshot();
        let a = analyze(&snap);
        assert_eq!(a.to_json(), a.to_json());
        assert!(a.to_json().contains("\"nranks\":2"));
    }
}
