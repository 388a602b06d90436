//! Runtime observability for the syncplace engines, the placement
//! search and the daemon: a zero-cost-when-disabled [`Recorder`] trait
//! with three sinks — the one aggregate ([`MetricsRegistry`]: the
//! daemon's live `stats`, a request's `diag` trace and every run's
//! `trace` in `PROFILE_runtime.json` are its [`MetricsSnapshot`]), the
//! event-timeline profiler ([`TimelineRecorder`], feeding the
//! [`analysis`] module and the [`chrome`] Perfetto export behind
//! `PROFILE_runtime.json`) and the happens-before log
//! ([`HbRecorder`]). A [`FanoutRecorder`] tees one run into several.
//!
//! # Design
//!
//! Instrumented code is threaded with a [`RecorderRef`] — an
//! `Option<Arc<dyn Recorder>>`. `None` means *disabled*: every
//! instrumentation site reduces to one branch on the option, no clock
//! is read, no allocation happens, and no lock is taken — structurally
//! zero. A *live* timeline stays under 5 % wall-clock, guarded in
//! `tests/profile_timeline.rs`.
//!
//! Metrics come in four shapes:
//!
//! * **counters** — monotonic `u64` sums keyed by a static string
//!   (see [`keys`] for the vocabulary the engines emit);
//! * **gauges** — high-water marks (e.g. pool queue depth);
//! * **spans** — completed wall-clock intervals folded per name into a
//!   log₂ histogram ([`hist`]) with exact count / sum / max, e.g. one
//!   per communication phase;
//! * **packets** — a per-ordered-pair `(from, to)` matrix of packet
//!   and value counts, the wire-level view that the batched engine's
//!   structural bound ([`CommPlan::packets_per_sweep`]) is checked
//!   against.
//!
//! Aggregation is cross-thread by construction: one `Arc` of the same
//! recorder is cloned into every SPMD rank job on the worker pool, so
//! per-rank emissions (each rank records only its *own* sends) sum to
//! run totals without any gather step.
//!
//! [`CommPlan::packets_per_sweep`]: https://docs.rs/syncplace-runtime

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod hb;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod timeline;
pub mod trace;

pub use analysis::{analyze, phase_dag, PhaseDag, TimelineAnalysis};
pub use chrome::{chrome_trace, ChromeRun};
pub use hb::{HbEvent, HbLog, HbRecorder};
pub use hist::LatencyHistogram;
pub use metrics::{validate_exposition, MetricsRegistry, MetricsSnapshot};
pub use recorder::{
    finish, finish_event, finish_ranked, start, FanoutRecorder, Recorder, RecorderRef,
};
pub use timeline::{TimelineEvent, TimelineRecorder, TimelineSnapshot};
pub use trace::PairAgg;

/// The metric-key vocabulary emitted by the engines, the worker pool,
/// the placement search and the daemon. Documented centrally so the
/// README key glossary and DESIGN.md §6 have a single source of truth.
///
/// Recording conventions:
///
/// * *Rank-0 keys* (phase spans, `comm.*` totals, reduce-op counts,
///   iteration counts) are schedule-derived and identical on every
///   rank, so only rank 0 emits them — totals are per *run*.
/// * *Per-rank keys* (`packet()` emissions, `comm.bytes_staged`,
///   `exit.*`) are emitted by each rank for its own sends, so the
///   aggregate is the true wire total across the gang.
pub mod keys {
    /// Span: one communication phase (all ops at one insertion point),
    /// wall-clock as seen by rank 0. Also emitted as a per-rank
    /// *event* on every rank with that rank's own in-phase time.
    pub const PHASE_SPAN: &str = "engine.phase";
    /// Span: one whole engine run (gang launch to gathered results).
    pub const RUN_SPAN: &str = "engine.run";
    /// Event: one rank's whole job, launch to its own completion
    /// (per-rank; events only — never a span, so rank-0 span
    /// aggregates stay schedule-derived).
    pub const RANK_RUN: &str = "engine.rank_run";
    /// Event + rank-0 span: one kernel-loop execution (the compute
    /// side of the compute-vs-wait attribution).
    pub const COMPUTE_SPAN: &str = "engine.compute";
    /// Counter: time-loop iterations executed (rank 0).
    pub const ITERATIONS: &str = "engine.iterations";
    /// Counter: phase-level point-to-point messages, as accounted by
    /// the engine's own wire format (rank 0, schedule-derived).
    pub const COMM_MESSAGES: &str = "comm.messages";
    /// Counter: phase-level values moved (rank 0, schedule-derived).
    pub const COMM_VALUES: &str = "comm.values";
    /// Counter: bytes staged into send buffers, 8 per `f64`, summed
    /// over every rank's own sends (phase traffic only).
    pub const BYTES_STAGED: &str = "comm.bytes_staged";
    /// Counter: `UpdateOverlap` ops executed (rank 0).
    pub const UPDATES: &str = "comm.updates";
    /// Counter: `AssembleShared` ops executed (rank 0).
    pub const ASSEMBLES: &str = "comm.assembles";
    /// Counter: `Reduce` ops executed (rank 0).
    pub const REDUCES: &str = "comm.reduces";
    /// Counter: sum-reductions among [`REDUCES`] (rank 0).
    pub const REDUCE_SUM: &str = "comm.reduce.sum";
    /// Counter: product-reductions among [`REDUCES`] (rank 0).
    pub const REDUCE_PROD: &str = "comm.reduce.prod";
    /// Counter: max-reductions among [`REDUCES`] (rank 0).
    pub const REDUCE_MAX: &str = "comm.reduce.max";
    /// Counter: min-reductions among [`REDUCES`] (rank 0).
    pub const REDUCE_MIN: &str = "comm.reduce.min";
    /// Counter: exit-test agreement messages — `[min, max]` up the
    /// reductions' binomial tree, `[decision, divergent]` down, 2(P−1)
    /// per test (every rank, own sends; *not* part of the per-pair
    /// packet matrix, which covers `C$SYNCHRONIZE` phase traffic only).
    pub const EXIT_MESSAGES: &str = "exit.messages";
    /// Counter: exit-test agreement values, two per message (every
    /// rank, own sends).
    pub const EXIT_VALUES: &str = "exit.values";
    /// Counter: gangs submitted to the SPMD worker pool.
    pub const POOL_GANGS: &str = "pool.gangs";
    /// Counter: rank jobs submitted to the pool.
    pub const POOL_JOBS: &str = "pool.jobs";
    /// Gauge: largest gang (rank tasks in flight together).
    pub const POOL_GANG_RANKS: &str = "pool.gang_ranks";
    /// Gauge: the most tasks of one gang on the pool's ready queue at
    /// once (ready = runnable, not waiting on a receive).
    pub const POOL_QUEUE_PEAK: &str = "pool.queue_peak";
    /// Gauge: W, the pool's workers — `available_parallelism`, fixed
    /// at start, whatever the gang sizes.
    pub const POOL_WORKERS: &str = "pool.workers";
    /// Span: one gang, submit to join.
    pub const POOL_GANG_SPAN: &str = "pool.gang";
    /// Event: one rank job, first poll to completion — across every
    /// suspension and whichever workers ran it (per-rank; events only).
    pub const POOL_JOB: &str = "pool.job";
    /// Span + per-rank event: packing and posting a phase's round-1
    /// packets *early* — before the producer loop's interior
    /// iterations — in the overlapped engine.
    pub const EARLY_SEND_SPAN: &str = "overlap.early_send";
    /// Span + per-rank event: the producer loop's interior iterations,
    /// executed while the early-posted packets are in flight.
    pub const INTERIOR_SPAN: &str = "overlap.interior";
    /// Counter: compute units executed between a phase's early post
    /// and its completion, summed over every rank's own interiors.
    pub const OVERLAP_HIDDEN: &str = "overlap.hidden_units";
    /// Counter: early posts performed (every rank, own posts).
    pub const OVERLAP_POSTS: &str = "overlap.posts";
    /// Counter: placement-search nodes visited.
    pub const SEARCH_VISITS: &str = "search.visits";
    /// Counter: placement-search backtracks.
    pub const SEARCH_BACKTRACKS: &str = "search.backtracks";
    /// Counter: distinct placements kept after fingerprint dedup.
    pub const SEARCH_SOLUTIONS: &str = "search.solutions";
    /// Counter: solutions pruned — mappings whose placement key
    /// duplicated an earlier mapping's.
    pub const SEARCH_PRUNED: &str = "search.pruned";
    /// Span: one full placement search, keying each mapping it
    /// completes and cloning the first of each placement.
    pub const SEARCH_SPAN: &str = "search.enumerate";
    /// Span: ranking the distinct placements — extraction, costing,
    /// fingerprinting and the sort.
    pub const SEARCH_RANK_SPAN: &str = "search.rank";
    /// Counter: requests accepted by the placement server (every
    /// admitted `run` request, hit or miss).
    pub const SERVER_REQUESTS: &str = "server.requests";
    /// Counter: requests shed by admission control (the 429-style
    /// "busy" replies — never admitted, never counted as requests).
    pub const SERVER_SHED: &str = "server.shed";
    /// Span: one admitted request, admission to final response.
    pub const SERVER_REQ_SPAN: &str = "server.request";
    /// Counter: placement-cache hits (analysis + SPMD program reused).
    pub const SERVER_PLACE_HITS: &str = "server.place_hits";
    /// Counter: placement-cache misses (full analyze + codegen ran).
    pub const SERVER_PLACE_MISSES: &str = "server.place_misses";
    /// Counter: plan-cache hits (decomposition + CommPlan reused).
    pub const SERVER_PLAN_HITS: &str = "server.plan_hits";
    /// Counter: plan-cache misses (partition → overlap → CommPlan
    /// compilation ran).
    pub const SERVER_PLAN_MISSES: &str = "server.plan_misses";
    /// Counter: placement-cache single-flight joins — requests that
    /// waited on another request's in-progress build instead of
    /// compiling (they paid the build's latency but ran no build).
    pub const SERVER_PLACE_JOINS: &str = "server.place_joins";
    /// Counter: plan-cache single-flight joins.
    pub const SERVER_PLAN_JOINS: &str = "server.plan_joins";
    /// Counter: requests shed by admission control for capacity (the
    /// inflight + queue budget was full); a subset of [`SERVER_SHED`].
    pub const SERVER_SHED_CAPACITY: &str = "server.shed_capacity";
    /// Counter: requests shed because the daemon was draining after a
    /// shutdown request; the other subset of [`SERVER_SHED`].
    pub const SERVER_SHED_SHUTDOWN: &str = "server.shed_shutdown";
    /// Counter: daemon socket I/O errors survived (accept, read or
    /// write failures) — each logged to the flight recorder instead of
    /// killing the daemon or silently dropping the connection.
    pub const SERVER_IO_ERROR: &str = "server.io_error";
    /// Span: time a request spent waiting in admission control before
    /// its permit (queue wait; part of the request latency split).
    pub const SERVER_QUEUE_SPAN: &str = "server.queue";
    /// Span: time a request spent building — placement analysis and/or
    /// plan compilation on the miss path (≈0 on hits).
    pub const SERVER_BUILD_SPAN: &str = "server.build";
    /// Span: time a request spent executing its engine run.
    pub const SERVER_ENGINE_SPAN: &str = "server.engine";
    /// Counter: emissions dropped by a static-key
    /// [`crate::MetricsRegistry`] because their key was not
    /// registered (surfaced in the `stats` exposition).
    pub const METRICS_DROPPED: &str = "metrics.dropped";
    /// Counter: events appended to the server's flight-recorder ring
    /// (request spans and diag events).
    pub const METRICS_FLIGHT_EVENTS: &str = "metrics.flight_events";
    /// Counter: flight-recorder events overwritten before any `dump`
    /// drained them (the ring is bounded; see `--flight-cap`).
    pub const METRICS_FLIGHT_DROPPED: &str = "metrics.flight_dropped";
    /// Span: one whole decomposition build (sequential or parallel),
    /// setup to schedules.
    pub const DECOMP_SPAN: &str = "decomp.build";
    /// Span: ownership min-scans + sort-based edge dedup + incidence
    /// CSRs (the "dedup" stage of the decompose breakdown).
    pub const DECOMP_DEDUP_SPAN: &str = "decomp.dedup";
    /// Span: per-part overlap closure + localization (sub-mesh
    /// building).
    pub const DECOMP_CLOSURE_SPAN: &str = "decomp.closure";
    /// Span: placement CSRs + copy schedule construction.
    pub const DECOMP_SCHEDULE_SPAN: &str = "decomp.schedule";
    /// Counter: sub-meshes built (one per part per build).
    pub const DECOMP_PARTS: &str = "decomp.parts";
    /// Hb event: one message published by a rank for a peer — the
    /// write side of a cross-rank data movement.
    pub const HB_SEND: &str = "hb.send";
    /// Hb event: one message dequeued from a peer — a synchronizing
    /// receive that orders the receiver after the matching [`HB_SEND`].
    pub const HB_RECV: &str = "hb.recv";
    /// Hb event: the received data actually consumed — the read the
    /// `analyze::hb` race check validates against its matching
    /// [`HB_SEND`]'s vector clock.
    pub const HB_READ: &str = "hb.read";
    /// Hb event: one barrier arrival (pool gang join); an episode
    /// joins the clocks of every rank.
    pub const HB_BARRIER: &str = "hb.barrier";
    /// Hb event: one staging slot acquired from the rank's own free
    /// list for a peer (overlapped engine's recycle discipline).
    pub const HB_STAGE_ACQUIRE: &str = "hb.stage.acquire";
    /// Hb event: one staging slot returned — a seeded double buffer or
    /// a drained buffer given back for the reverse direction.
    pub const HB_STAGE_RELEASE: &str = "hb.stage.release";

    /// Every key in the vocabulary, in declaration order — the single
    /// source of truth the README field glossaries are checked against
    /// (`tests/profile_timeline.rs` enumerates both and fails on
    /// drift).
    pub const ALL: &[&str] = &[
        PHASE_SPAN,
        RUN_SPAN,
        RANK_RUN,
        COMPUTE_SPAN,
        ITERATIONS,
        COMM_MESSAGES,
        COMM_VALUES,
        BYTES_STAGED,
        UPDATES,
        ASSEMBLES,
        REDUCES,
        REDUCE_SUM,
        REDUCE_PROD,
        REDUCE_MAX,
        REDUCE_MIN,
        EXIT_MESSAGES,
        EXIT_VALUES,
        POOL_GANGS,
        POOL_JOBS,
        POOL_GANG_RANKS,
        POOL_QUEUE_PEAK,
        POOL_WORKERS,
        POOL_GANG_SPAN,
        POOL_JOB,
        EARLY_SEND_SPAN,
        INTERIOR_SPAN,
        OVERLAP_HIDDEN,
        OVERLAP_POSTS,
        SEARCH_VISITS,
        SEARCH_BACKTRACKS,
        SEARCH_SOLUTIONS,
        SEARCH_PRUNED,
        SEARCH_SPAN,
        SEARCH_RANK_SPAN,
        SERVER_REQUESTS,
        SERVER_SHED,
        SERVER_REQ_SPAN,
        SERVER_PLACE_HITS,
        SERVER_PLACE_MISSES,
        SERVER_PLAN_HITS,
        SERVER_PLAN_MISSES,
        SERVER_PLACE_JOINS,
        SERVER_PLAN_JOINS,
        SERVER_SHED_CAPACITY,
        SERVER_SHED_SHUTDOWN,
        SERVER_IO_ERROR,
        SERVER_QUEUE_SPAN,
        SERVER_BUILD_SPAN,
        SERVER_ENGINE_SPAN,
        METRICS_DROPPED,
        METRICS_FLIGHT_EVENTS,
        METRICS_FLIGHT_DROPPED,
        DECOMP_SPAN,
        DECOMP_DEDUP_SPAN,
        DECOMP_CLOSURE_SPAN,
        DECOMP_SCHEDULE_SPAN,
        DECOMP_PARTS,
        HB_SEND,
        HB_RECV,
        HB_READ,
        HB_BARRIER,
        HB_STAGE_ACQUIRE,
        HB_STAGE_RELEASE,
    ];
}
