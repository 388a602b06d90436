//! SPMD distributed-memory simulator — the substitute for the paper's
//! PVM/MPI runs on a 32-processor MPP (§2.2, §4).
//!
//! The paper's method produces an SPMD program that is "truly SPMD
//! since exactly the same program runs on each processor" on its own
//! localized sub-mesh, plus a handful of communication calls. This
//! crate executes that program:
//!
//! * [`exec::Machine`] — one per-processor memory (scalars + entity
//!   arrays + localized indirection tables). The sequential reference
//!   run is simply a `Machine` over the whole mesh.
//! * [`kernel::Kernel`] — the unmodified statement sequence, lowered
//!   once per plan into a strip program (each op over a strip of
//!   iterations); the one executor every engine (and the reference
//!   run) drives.
//! * [`bindings`] — how program variables bind to mesh data
//!   (indirection maps to connectivity, input arrays to values).
//! * [`tape`] — the placed program lowered once into a flat op list
//!   (loops, assignments, phase posts and completions, exits, time-loop
//!   heads and tails) that every engine steps through and the model
//!   checker checks.
//! * [`spmd`] — the deterministic round-robin engine: all processors
//!   advance op by op on one thread; at each `C$SYNCHRONIZE` point it
//!   runs the plan's recipes in rank order and counts the plan's
//!   statistics ([`comm::CommStats`]).
//! * [`plan`] — the batched communication plan: one coalesced packet
//!   per peer per phase, with buffer layouts precomputed once from
//!   the decomposition's schedules.
//! * [`pool`] — the task pool: P rank tasks (or a fork-join stage's
//!   jobs) on W = `available_parallelism` workers, each task running
//!   from one receive that has to wait to the next; no rank ever parks
//!   a thread, and a failing rank fails its gang instead of hanging it.
//! * [`decomp`] — the sequential builder's three steps with only the
//!   per-part sub-mesh loop as a gang on that pool, bitwise identical
//!   to [`syncplace_overlap::build::decompose`] by construction.
//! * [`pooled`] — the one concurrent engine core: rank tasks on the
//!   pool executing the plan over per-ordered-pair FIFO mailboxes with
//!   recycled zero-copy staging buffers, posting each phase late
//!   (`batched`) or early (`overlapped`); bitwise identical to
//!   round-robin, which runs the same recipes.
//! * [`overlap`] — the producer splits of the early-posting schedule:
//!   interface iterations first, early coalesced sends, interior
//!   compute while packets are in flight.
//! * [`timing`] — the α/β performance model used to produce the
//!   speedup curves of experiment E6 (the paper's §2.4 cites 20–26×
//!   on 32 processors for the real application [Farhat & Lanteri]).
//!
//! One identity, one way in: [`Engine`] names the three schedules and
//! [`Engine::run`] / [`Engine::run_with`] is the only entry point that
//! executes a placed program. The engines differ in *when* work is
//! scheduled, never in what is computed, so everything that has to know
//! which engine ran — the pooled core, the α/β model
//! ([`timing::estimate_engine`]), the model checker
//! (`syncplace_analyze::mc`) and the daemon's protocol — matches on
//! that one enum.
//!
//! `run_with` takes a [`syncplace_obs::RecorderRef`]: passing `Some`
//! captures per-phase wall-clock spans, schedule-derived comm counters,
//! per-ordered-pair packet counts and pool gauges; passing `None` costs
//! one branch per instrumentation site (no clock reads, no locks). The
//! sequential reference ([`run_sequential`]) is never recorded.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bindings;
pub mod comm;
pub mod decomp;
pub mod exec;
pub mod kernel;
pub mod overlap;
pub mod plan;
pub mod pool;
pub mod pooled;
pub mod spmd;
pub mod tape;
pub mod timing;

pub use bindings::{Bindings, MapBinding};
pub use comm::CommStats;
pub use decomp::{decompose2d_par, decompose3d_par, decompose_par};
pub use exec::{run_sequential, Machine, SeqResult};
pub use kernel::Kernel;
pub use overlap::OverlapReport;
pub use plan::CommPlan;
pub use pool::SpmdPool;
pub use spmd::SpmdResult;
pub use timing::{estimate_engine, TimingModel, TimingReport};

use std::sync::Arc;
use syncplace_codegen::SpmdProgram;
use syncplace_ir::Program;
use syncplace_obs::RecorderRef;
use syncplace_overlap::Decomposition;

/// Which SPMD engine executes a placed program — the one engine
/// identity of the workspace. Every engine steps through the same
/// lowered schedule ([`tape`]) and honours a different subset of its
/// ops; all three produce bitwise-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The deterministic round-robin executor ([`spmd`]): one thread
    /// advances every rank op by op and runs each phase's recipes in
    /// rank order.
    RoundRobin,
    /// Rank tasks on the W-worker pool ([`SpmdPool`], W =
    /// `available_parallelism` whatever P is) exchanging batched
    /// zero-copy phases: one coalesced packet per peer per phase,
    /// recycled staging buffers, posted at the completion ([`pooled`],
    /// late posting: the tape's early posts are skipped). A rank that
    /// fails makes the run an `Err`, never a hang.
    Batched,
    /// The batched wire plus communication/compute overlap: round-1
    /// sends post at the tape's hoisted posts and producer splits
    /// ([`overlap`]) and the staging area is double-buffered.
    Overlapped,
}

impl Engine {
    /// All three engines, in documentation order — iterate this to
    /// compare engines on the same placed program.
    pub const ALL: [Engine; 3] = [Engine::RoundRobin, Engine::Batched, Engine::Overlapped];

    /// The engine's stable name: reports, trace output, the daemon's
    /// `engine` field and the model checker's program labels.
    pub fn name(self) -> &'static str {
        match self {
            Engine::RoundRobin => "round-robin",
            Engine::Batched => "batched",
            Engine::Overlapped => "overlapped",
        }
    }

    /// Run a placed SPMD program with this engine.
    pub fn run<const V: usize>(
        self,
        prog: &Program,
        spmd: &SpmdProgram,
        d: &Decomposition<V>,
        b: &Bindings,
    ) -> Result<SpmdResult, String> {
        self.run_with(prog, spmd, d, b, None, &None)
    }

    /// [`Engine::run`] with a prebuilt communication plan and an
    /// observability hook. `plan` is resolved once here — the given
    /// one, reused across runs, or [`CommPlan::build`] — and every
    /// engine executes its kernel, tape and phase recipes.
    /// `rec` as `Some(Arc<dyn Recorder>)` captures per-phase spans,
    /// schedule-derived comm counters and per-pair packet counts,
    /// `&None` is the zero-cost disabled path.
    pub fn run_with<const V: usize>(
        self,
        prog: &Program,
        spmd: &SpmdProgram,
        d: &Decomposition<V>,
        b: &Bindings,
        plan: Option<&Arc<CommPlan>>,
        rec: &RecorderRef,
    ) -> Result<SpmdResult, String> {
        let built;
        let plan = match plan {
            Some(p) => p,
            None => {
                built = Arc::new(CommPlan::build(prog, spmd, d));
                &built
            }
        };
        match self {
            Engine::RoundRobin => spmd::run(prog, d, b, plan, rec),
            Engine::Batched | Engine::Overlapped => {
                pooled::run(SpmdPool::global(), prog, d, b, self, plan, rec)
            }
        }
    }
}

/// Compare a gathered SPMD output with the sequential reference.
/// Returns the maximum relative error over all output variables.
pub fn max_rel_error(seq: &SeqResult, spmd: &SpmdResult) -> f64 {
    let mut worst: f64 = 0.0;
    for (var, a) in seq.output_arrays.iter() {
        let b = &spmd.output_arrays[var];
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            let denom = x.abs().max(1.0);
            worst = worst.max((x - y).abs() / denom);
        }
    }
    for (var, x) in seq.output_scalars.iter() {
        let y = spmd.output_scalars[var];
        worst = worst.max((x - y).abs() / x.abs().max(1.0));
    }
    worst
}
