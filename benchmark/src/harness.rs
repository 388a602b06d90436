//! What the five workloads share: the run configuration, the sample and
//! failure ledger, the run driver with its repeated set-up, the whole-pass
//! measuring loop, and the preflight pipeline.

use std::time::Instant;

use crate::inputs::MeshSpec;
use crate::layers::{self, Automaton};
use crate::stats::{median, minimum, stratified};
use crate::trace::{Phase, Tracer, OP};

/// Where sockets, traces and `results.json` go: inside the checkout,
/// relative to the repo root `run.sh` works from.
pub const OUT_DIR: &str = "benchmark/out";

/// Largest relative error a solve may have against the sequential run.
pub const MAX_REL_ERROR: f64 = 1e-12;

/// One run's configuration (the contract's command-line arguments).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds; 0 runs exactly one pass (the smoke run).
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

impl RunConfig {
    /// Set-up repetitions before and after the measuring loop; `setup_s`
    /// is the fastest of them all.
    pub fn setups(&self) -> (usize, usize) {
        if self.seconds > 0.0 {
            (3, 2)
        } else {
            (1, 0)
        }
    }
}

/// Samples and failures one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The recorder (empty in an untraced run).
    pub tracer: Tracer,
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// `(kind, latency ms)` of every untraced operation.
    pub untraced: Vec<(u32, f64)>,
    /// `(kind, latency ms)` of every operation of a [`Pass::Traced`].
    pub traced: Vec<(u32, f64)>,
    /// A kind of operation that is not the workload's "one operation"
    /// (the cold requests of `serve-mixed`): it counts towards
    /// `ops_per_s` but not towards `op_ms_min`.
    pub secondary_kind: Option<u32>,
    /// Closed-loop clients issuing operations concurrently.
    pub clients: usize,
    /// `VmHWM` in MB when the measuring loop and its checks ended (the
    /// set-up repetitions after it are not the workload's memory).
    pub peak_rss_mb: f64,
    /// Operations attempted, timed or not (checks included).
    pub attempted: u64,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
    next_op: u64,
}

impl Outcome {
    /// An empty ledger around `tracer`.
    pub fn new(tracer: Tracer) -> Outcome {
        Outcome {
            tracer,
            setup_s: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            secondary_kind: None,
            clients: 1,
            peak_rss_mb: 0.0,
            attempted: 0,
            failures: Vec::new(),
            next_op: 1,
        }
    }

    /// Time one operation of input `kind` under an [`OP`] span and file
    /// its latency under the sort of pass it belongs to.
    pub fn op<T>(&mut self, kind: u32, pass: Pass, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.tracer.set_op(self.next_op, kind);
        self.next_op += 1;
        self.attempted += 1;
        let t0 = Instant::now();
        let out = self.tracer.span(OP, f);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match pass {
            Pass::Untraced => self.untraced.push((kind, ms)),
            Pass::Traced => self.traced.push((kind, ms)),
            Pass::Probe => {}
        }
        out
    }

    /// Record a failed operation or check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Record `res`'s error, if any, prefixed with `what`.
    pub fn check(&mut self, what: &str, res: Result<(), String>) {
        if let Err(e) = res {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Fastest set-up repetition in seconds.
    pub fn setup_min_s(&self) -> f64 {
        minimum(&self.setup_s).unwrap_or(0.0)
    }

    fn primary(&self, samples: &[(u32, f64)]) -> Vec<(u32, f64)> {
        let keep = |s: &&(u32, f64)| Some(s.0) != self.secondary_kind;
        samples.iter().filter(keep).copied().collect()
    }

    /// Best latency of the workload's one operation: per input kind the
    /// fastest untraced operation, kinds averaged by their share.
    pub fn op_ms_min(&self) -> f64 {
        stratified(&self.primary(&self.untraced), minimum).unwrap_or(0.0)
    }

    /// Median latency of the same operations (informational: the host's
    /// slow phases move it).
    pub fn op_ms_p50(&self) -> f64 {
        stratified(&self.primary(&self.untraced), median).unwrap_or(0.0)
    }

    /// Operations per second the closed loop sustains at its best
    /// latencies: clients ÷ the mix-weighted best latency over every kind
    /// of operation, secondary ones included.
    pub fn ops_per_s(&self) -> f64 {
        match stratified(&self.untraced, minimum) {
            Some(ms) if ms > 0.0 => self.clients as f64 * 1e3 / ms,
            _ => 0.0,
        }
    }

    /// Traced ÷ untraced best latency — what tracing costs. The two sorts
    /// of pass alternate, so both see the same phases of the host.
    pub fn overhead_ratio(&self) -> f64 {
        let best = |s: &[(u32, f64)]| stratified(&self.primary(s), minimum);
        match (best(&self.traced), best(&self.untraced)) {
            (Some(t), Some(u)) if u > 0.0 => t / u,
            _ => 0.0,
        }
    }
}

/// One run of a workload: set-up repetitions, the measuring loop on the
/// last state, and more set-up repetitions afterwards, so that `setup_s`
/// — the fastest repetition — samples the host over the whole run and not
/// one instant of it. A repetition is the preflight plus the workload's
/// own `setup`; a state is dropped (daemons stopped and joined) before the
/// next repetition starts.
pub fn drive<S>(
    cfg: &RunConfig,
    mut setup: impl FnMut(&mut Tracer, usize) -> Result<S, String>,
    measure: impl FnOnce(&mut Outcome, &mut S),
) -> Result<Outcome, String> {
    let mut out = Outcome::new(Tracer::new(cfg.trace));
    let mut repetition = |out: &mut Outcome, rep: usize| -> Result<S, String> {
        out.tracer.set_phase(Phase::Setup);
        let t0 = Instant::now();
        preflight(&mut out.tracer, cfg, rep)?;
        out.tracer.set_op(0, 0);
        let state = setup(&mut out.tracer, rep)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.tracer.set_phase(Phase::Op);
        Ok(state)
    };
    let (before, after) = cfg.setups();
    let mut state = None;
    for rep in 0..before {
        drop(state.take());
        state = Some(repetition(&mut out, rep)?);
    }
    let mut state = state.ok_or("no set-up repetition ran")?;
    measure(&mut out, &mut state);
    out.peak_rss_mb = peak_rss_mb();
    drop(state);
    for rep in before..before + after {
        drop(repetition(&mut out, rep)?);
    }
    Ok(out)
}

/// The sort of a pass over the workload's input mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Tracing off; latencies feed the end-to-end metrics.
    Untraced,
    /// Spans recorded around the same calls and nothing else, so its
    /// latencies against the untraced ones price the tracing.
    Traced,
    /// Traced, and followed by the traced-only probes of single layers
    /// (other engines, the sequential run, the pieces of `analyze`).
    /// Probes disturb caches and thread pools, so its latencies feed
    /// neither median.
    Probe,
}

impl Pass {
    /// Does this pass record spans?
    pub fn traced(self) -> bool {
        self != Pass::Untraced
    }
}

/// Run whole passes until `cfg.seconds` have elapsed (at least one
/// cycle). An untraced run repeats [`Pass::Untraced`]. A traced run
/// cycles untraced, traced and probe passes, swapping the first two every
/// cycle so both follow a probe pass equally often and their medians see
/// the same machine; the smoke run (`seconds == 0`) makes one probe pass.
pub fn run_passes(cfg: &RunConfig, out: &mut Outcome, mut pass: impl FnMut(&mut Outcome, Pass)) {
    let t0 = Instant::now();
    let mut cycle = 0usize;
    loop {
        let sorts: &[Pass] = match (cfg.trace, cfg.seconds > 0.0, cycle % 2) {
            (false, _, _) => &[Pass::Untraced],
            (true, false, _) => &[Pass::Probe],
            (true, true, 0) => &[Pass::Untraced, Pass::Traced, Pass::Probe],
            (true, true, _) => &[Pass::Traced, Pass::Untraced, Pass::Probe],
        };
        for sort in sorts {
            out.tracer.set_enabled(sort.traced());
            pass(out, *sort);
        }
        cycle += 1;
        if t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    out.tracer.set_enabled(cfg.trace);
}

/// Input kind of preflight spans, apart from every workload's kinds.
const PREFLIGHT_KIND: u32 = u32::MAX;

/// The quickstart pipeline on a tiny input, through every layer once:
/// TESTIV (2 iterations) on a 12×12 grid at P=4 on all three engines, and
/// a daemon round trip. It checks the build before anything is timed,
/// warms the worker pool, and gives every layer a measured time on every
/// workload. Part of set-up, so `setup_s` includes it.
pub fn preflight(tr: &mut Tracer, cfg: &RunConfig, rep: usize) -> Result<(), String> {
    tr.set_op(0, PREFLIGHT_KIND);
    let c = layers::compile(tr, &layers::testiv_text(2), Automaton::Fig6)?;
    if tr.enabled() {
        layers::compile_probes(tr, &c);
    }
    layers::verify_placements(&c)?;
    let mesh = layers::mesh_gen(
        tr,
        MeshSpec::Grid2d {
            n: 12,
            seed: cfg.seed,
        },
    );
    let prep = layers::prepare(tr, &c, &mesh, 4, cfg.seed);
    layers::audit_plan(&c, &prep)?;
    if !layers::decompose_par_probe(tr, &mesh, &prep, nproc()) {
        return Err("preflight: parallel decomposition differs from sequential".into());
    }
    let seq = layers::sequential(tr, &c, &prep);
    let mut sums = Vec::new();
    for engine in layers::ENGINES {
        let res = layers::solve(tr, engine, &c, &prep)?;
        let err = layers::max_rel_error(&seq, &res);
        if err > MAX_REL_ERROR {
            return Err(format!("preflight: {engine} off by {err:e}"));
        }
        sums.push(layers::checksum(&c, &res));
    }
    if sums.iter().any(|s| *s != sums[0]) {
        return Err("preflight: engines disagree on the output checksum".into());
    }
    crate::serve::probe(tr, cfg, rep)
}

/// Logical CPUs of this host — the load generator's thread budget.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
