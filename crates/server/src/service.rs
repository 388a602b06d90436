//! The placement service: caches + admission control + execution.
//!
//! [`Service`] is the transport-independent core of the daemon — the
//! Unix-socket layer ([`crate::daemon`]) and the in-process tests both
//! drive it directly. One instance owns:
//!
//! * the **text memo** (raw program text or builtin name + pattern →
//!   placement key), so a repeated text is neither parsed nor printed;
//! * the **placement cache** (canonical program + automaton → parsed
//!   program, SPMD codegen of the best placement) — the expensive,
//!   mesh-independent half of a request;
//! * the **plan cache** (placement + mesh + pattern + `P` →
//!   decomposition, compiled [`CommPlan`] with its tape and kernel,
//!   synthesized inputs, work figure) — what a run reads, built once,
//!   so a request that hits all three only executes;
//! * the **admission gate**: at most `max_inflight` requests execute
//!   concurrently, at most `queue_depth` wait; beyond that a request
//!   is *shed* with a 429-style `busy` error instead of queuing
//!   unboundedly;
//! * the **live telemetry** layer: a lock-light
//!   [`MetricsRegistry`] fed a
//!   structured span per request (verb, cache outcome
//!   hit/miss/join, shed reason, queue + build + engine latency
//!   split) and answered by the `stats` verb, and an always-on
//!   bounded [`FlightRecorder`] ring
//!   of the last-N request spans and diag events, drained by `dump`
//!   and flushed on panic.
//!
//! All engine executions land on the shared process-wide
//! [`SpmdPool`]: the ranks of concurrent requests queue as tasks on
//! its W = `available_parallelism` workers instead of oversubscribing
//! the host (each handler runs its own request's ranks; the W − 1
//! helper threads run anybody's), and every engine is handed the
//! cached [`CommPlan`].
//!
//! [`CommPlan`]: syncplace::runtime::CommPlan
//! [`SpmdPool`]: syncplace::runtime::SpmdPool

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use syncplace::automata::OverlapAutomaton;
use syncplace::codegen::SpmdProgram;
use syncplace::ir::{printer, Program};
use syncplace::obs::trace::json_escape;
use syncplace::obs::{keys, MetricsRegistry, Recorder, RecorderRef};
use syncplace::overlap::Decomposition;
use syncplace::runtime::spmd::submesh_counts;
use syncplace::runtime::{tape, Bindings, CommPlan, SpmdPool, SpmdResult};

use crate::cache::{CacheStats, Lookup, LruCache};
use crate::flight::{self, Appended, FlightRecorder};
use crate::hash::{self, Fnv};
use crate::protocol::{MeshSpec, ProgramSpec, RunRequest};

/// The metric keys the service registers with its
/// [`MetricsRegistry`] — the complete `stats` vocabulary. Everything
/// the request path emits lands on one of these (anything else would
/// show up in the registry's drop tally).
pub const METRIC_KEYS: &[&str] = &[
    keys::SERVER_REQUESTS,
    keys::SERVER_SHED,
    keys::SERVER_SHED_CAPACITY,
    keys::SERVER_SHED_SHUTDOWN,
    keys::SERVER_REQ_SPAN,
    keys::SERVER_QUEUE_SPAN,
    keys::SERVER_BUILD_SPAN,
    keys::SERVER_ENGINE_SPAN,
    keys::SERVER_PLACE_HITS,
    keys::SERVER_PLACE_MISSES,
    keys::SERVER_PLACE_JOINS,
    keys::SERVER_PLAN_HITS,
    keys::SERVER_PLAN_MISSES,
    keys::SERVER_PLAN_JOINS,
    keys::SERVER_IO_ERROR,
    keys::SEARCH_SPAN,
    keys::SEARCH_RANK_SPAN,
    keys::SEARCH_VISITS,
    keys::SEARCH_BACKTRACKS,
    keys::SEARCH_SOLUTIONS,
    keys::SEARCH_PRUNED,
    keys::METRICS_FLIGHT_EVENTS,
    keys::METRICS_FLIGHT_DROPPED,
];

/// Sizing and admission knobs (see OPERATIONS.md for tuning guidance).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Placement-cache bound (distinct program × automaton entries);
    /// also the text memo's bound.
    pub placement_cap: usize,
    /// Plan-cache bound (distinct placement × mesh × pattern × P).
    pub plan_cap: usize,
    /// Requests executing concurrently; the rest wait.
    pub max_inflight: usize,
    /// Requests allowed to wait; beyond this they are shed (`busy`).
    pub queue_depth: usize,
    /// Flight-recorder ring bound (last-N events kept for `dump`).
    pub flight_cap: usize,
    /// Live telemetry (metrics registry + flight recorder). On by
    /// default — the always-on contract; turned off only by the
    /// serve-bench overhead measurement, which needs a
    /// telemetry-free baseline to price the telemetry against.
    pub telemetry: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            placement_cap: 32,
            plan_cap: 64,
            max_inflight: 4,
            queue_depth: 16,
            flight_cap: 256,
            telemetry: true,
        }
    }
}

/// A cached placement: what plan builds and runs read of the program
/// text and the automaton alone (mesh-independent, §5.3).
pub struct PlacedProgram {
    /// The parsed program (canonical owner — plan builds and runs
    /// borrow this copy, not the request's).
    pub prog: Program,
    /// The executable SPMD program for the best-ranked placement.
    pub spmd: SpmdProgram,
    /// How many distinct placements the search found.
    pub n_solutions: usize,
}

/// A cached compiled plan: everything a run of one (placement, mesh,
/// pattern, P) reads — the decomposition of the generated mesh, the
/// batched [`CommPlan`], the inputs and the work figure.
///
/// [`CommPlan`]: syncplace::runtime::CommPlan
pub struct CompiledPlan {
    /// The generated mesh's P-way overlapping decomposition.
    pub d: Decomposition<3>,
    /// The compiled batched communication plan, with its tape and kernel.
    pub plan: Arc<CommPlan>,
    /// The synthesized, validated inputs on the generated mesh, or why
    /// there are none.
    pub bindings: Result<Bindings, String>,
    /// Loop iterations a run takes ([`tape::work`]); 0 for a tape the
    /// engines refuse, which is theirs to answer.
    pub work: u64,
}

/// Largest run one request may ask for: loop iterations summed over
/// every rank and every time-loop iteration the caps allow
/// ([`tape::work`]). The builtins at the largest mesh (2²⁰ cells) stay
/// below 2³⁰ (`testiv`, 100 sweeps: 5.5·10⁸ at `p` = 512), so this
/// refuses only what a source's `iterate … max` inflates.
pub const MAX_RUN_WORK: u64 = 1 << 32;

/// Why a shed request was shed (the structured `reason` field of a
/// `busy` error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission budget (`max_inflight` + `queue_depth`) was
    /// full. Retry with backoff.
    Capacity,
    /// The daemon was draining after a shutdown request. Find
    /// another server.
    Shutdown,
}

impl ShedReason {
    /// The wire spelling (`"capacity"` / `"shutdown"`).
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Capacity => "capacity",
            ShedReason::Shutdown => "shutdown",
        }
    }
}

/// Why a request produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Shed by admission control or drain. Retry later (capacity) or
    /// elsewhere (shutdown).
    Busy {
        /// Why the request was shed.
        reason: ShedReason,
        /// Human-readable detail.
        detail: String,
    },
    /// The request itself is unservable (unknown program, illegal
    /// placement, run failure). Retrying won't help.
    Invalid(String),
}

/// What one admitted `run` request produced.
pub struct RunOutcome {
    /// The SPMD execution result.
    pub result: SpmdResult,
    /// Placement-cache outcome for this request.
    pub placement: Lookup,
    /// Plan-cache outcome for this request.
    pub plan: Lookup,
    /// Distinct placements the (possibly cached) search found.
    pub n_solutions: usize,
    /// Wall-clock spent resolving placement + plan (≈0 on a hot hit).
    pub compile_ms: f64,
    /// Wall-clock spent executing the engine.
    pub run_ms: f64,
    /// FNV-1a digest over all outputs (order-independent: variables
    /// sorted by name, values by bit pattern) — two runs agree iff
    /// their checksums do.
    pub checksum: u64,
    /// This request's engine run as a rendered `MetricsSnapshot` (the
    /// `stats.metrics` shape), when `diag`.
    pub trace_json: Option<String>,
}

/// Point-in-time service statistics (the `pong` payload).
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Admitted `run` requests.
    pub requests: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Sheds for capacity (the admission budget was full).
    pub shed_capacity: u64,
    /// Sheds because the daemon was draining after shutdown.
    pub shed_shutdown: u64,
    /// Seconds since the service was created.
    pub uptime_s: f64,
    /// Text-memo counters (raw program + pattern → placement key).
    pub texts: CacheStats,
    /// Placement-cache counters.
    pub placements: CacheStats,
    /// Plan-cache counters.
    pub plans: CacheStats,
    /// W: workers of the shared SPMD pool (`available_parallelism`,
    /// the same whatever `p` the requests ask for).
    pub pool_workers: usize,
}

impl ServiceStats {
    /// Render the terminal `pong` event.
    pub fn render_pong(&self) -> String {
        let cache = |s: &CacheStats| {
            format!(
                "{{\"hits\":{},\"misses\":{},\"joins\":{},\"evictions\":{},\"compiles\":{},\
                 \"len\":{},\"cap\":{}}}",
                s.hits, s.misses, s.joins, s.evictions, s.compiles, s.len, s.cap
            )
        };
        format!(
            "{{\"event\":\"pong\",\"requests\":{},\"shed\":{},\"shed_capacity\":{},\
             \"shed_shutdown\":{},\"uptime_s\":{:.3},\"text_memo\":{},\
             \"placement_cache\":{},\"plan_cache\":{},\"pool_workers\":{}}}",
            self.requests,
            self.shed,
            self.shed_capacity,
            self.shed_shutdown,
            self.uptime_s,
            cache(&self.texts),
            cache(&self.placements),
            cache(&self.plans),
            self.pool_workers
        )
    }
}

struct GateState {
    running: usize,
    waiting: usize,
}

/// Bounded admission: `max_inflight` running, `queue_depth` waiting,
/// excess shed.
struct AdmissionGate {
    state: Mutex<GateState>,
    freed: Condvar,
    max_inflight: usize,
    queue_depth: usize,
}

/// RAII execution slot; dropping it wakes one waiter.
struct Permit<'a>(&'a AdmissionGate);

impl AdmissionGate {
    fn new(max_inflight: usize, queue_depth: usize) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(GateState {
                running: 0,
                waiting: 0,
            }),
            freed: Condvar::new(),
            max_inflight: max_inflight.max(1),
            queue_depth,
        }
    }

    fn admit(&self) -> Result<Permit<'_>, String> {
        let mut st = self.state.lock().expect("gate lock");
        if st.running >= self.max_inflight {
            if st.waiting >= self.queue_depth {
                return Err(format!(
                    "{} running and {} queued (max_inflight {}, queue_depth {})",
                    st.running, st.waiting, self.max_inflight, self.queue_depth
                ));
            }
            st.waiting += 1;
            while st.running >= self.max_inflight {
                st = self.freed.wait(st).expect("gate lock");
            }
            st.waiting -= 1;
        }
        st.running += 1;
        Ok(Permit(self))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().expect("gate lock");
        st.running -= 1;
        drop(st);
        self.0.freed.notify_one();
    }
}

/// Scratch the request path fills so the flight span can report the
/// latency split and cache outcomes even on error exits.
#[derive(Default)]
struct SpanScratch {
    queue_ns: u64,
    build_ns: u64,
    engine_ns: u64,
    place: Option<Lookup>,
    plan: Option<Lookup>,
}

/// The resident placement service. Cheap to share (`Arc<Service>`);
/// all methods take `&self`.
pub struct Service {
    texts: LruCache<u64>,
    placements: LruCache<PlacedProgram>,
    plans: LruCache<CompiledPlan>,
    gate: AdmissionGate,
    metrics: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
    telemetry: bool,
    requests: AtomicU64,
    shed: AtomicU64,
    shed_capacity: AtomicU64,
    shed_shutdown: AtomicU64,
    draining: AtomicBool,
    started: Instant,
}

impl Service {
    /// A fresh service with the given sizing. Registers its flight
    /// recorder with the process-wide panic-flush hook, so a panic
    /// mid-request dumps the in-flight span and recent history to
    /// stderr.
    pub fn new(cfg: ServiceConfig) -> Service {
        let flight = Arc::new(FlightRecorder::new(cfg.flight_cap));
        if cfg.telemetry {
            flight::register_panic_flush(&flight);
        }
        Service {
            texts: LruCache::new(cfg.placement_cap),
            placements: LruCache::new(cfg.placement_cap),
            plans: LruCache::new(cfg.plan_cap),
            gate: AdmissionGate::new(cfg.max_inflight, cfg.queue_depth),
            metrics: Arc::new(MetricsRegistry::new(METRIC_KEYS)),
            flight,
            telemetry: cfg.telemetry,
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shed_capacity: AtomicU64::new(0),
            shed_shutdown: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// The live-metrics registry behind the `stats` verb.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The flight recorder behind the `dump` verb.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Counter emission to the registry (when telemetry is on).
    fn emit_add(&self, key: &'static str, delta: u64) {
        if self.telemetry {
            self.metrics.add(key, delta);
        }
    }

    /// Span emission to the registry (when telemetry is on).
    fn emit_span(&self, key: &'static str, nanos: u64) {
        if self.telemetry {
            self.metrics.span(key, nanos);
        }
    }

    /// Account one flight-ring append in the registry.
    fn flight_accounting(&self, ap: Appended) {
        self.metrics.add(keys::METRICS_FLIGHT_EVENTS, 1);
        if ap.overwrote {
            self.metrics.add(keys::METRICS_FLIGHT_DROPPED, 1);
        }
    }

    /// Record a non-`run` verb (`ping`, `stats`, `dump`, `shutdown`)
    /// in the flight ring — every request gets a span, not just runs.
    pub fn note_verb(&self, verb: &'static str) {
        if !self.telemetry {
            return;
        }
        let seq = self.flight.begin(verb);
        let ap = self.flight.complete(seq, |_| {});
        self.flight_accounting(ap);
    }

    /// Record a survived daemon I/O error (accept/read/write): bumps
    /// `server.io_error` and logs a flight diag instead of letting the
    /// error kill the daemon or vanish silently.
    pub fn io_error(&self, what: &str, err: &dyn std::fmt::Display) {
        self.emit_add(keys::SERVER_IO_ERROR, 1);
        if self.telemetry {
            let ap = self.flight.diag(format!("{what} error: {err}"));
            self.flight_accounting(ap);
        }
    }

    /// Enter drain mode: every subsequent `run` request is shed with
    /// reason `shutdown`. Called by the daemon when it commits to
    /// stopping; existing connections keep getting answers, but no
    /// new work starts.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Is the service draining?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Current statistics (the `pong` payload).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            shed_capacity: self.shed_capacity.load(Ordering::Relaxed),
            shed_shutdown: self.shed_shutdown.load(Ordering::Relaxed),
            uptime_s: self.started.elapsed().as_secs_f64(),
            texts: self.texts.stats(),
            placements: self.placements.stats(),
            plans: self.plans.stats(),
            pool_workers: SpmdPool::global().workers(),
        }
    }

    /// Render the terminal `stats` event: service counters with the
    /// shed split, flight-ring occupancy, the metrics snapshot as
    /// JSON and the Prometheus-style exposition text (as one escaped
    /// string field).
    pub fn stats_line(&self) -> String {
        let s = self.stats();
        let snap = self.metrics.snapshot();
        let (flen, fapp, fdrop) = self.flight.counters();
        format!(
            "{{\"event\":\"stats\",\"uptime_s\":{:.3},\"requests\":{},\
             \"shed\":{{\"total\":{},\"capacity\":{},\"shutdown\":{}}},\
             \"draining\":{},\"telemetry\":{},\
             \"flight\":{{\"len\":{},\"cap\":{},\"appended\":{},\"dropped\":{}}},\
             \"metrics\":{},\"exposition\":{}}}",
            s.uptime_s,
            s.requests,
            s.shed,
            s.shed_capacity,
            s.shed_shutdown,
            self.is_draining(),
            self.telemetry,
            flen,
            self.flight.cap(),
            fapp,
            fdrop,
            snap.to_json(),
            json_escape(&snap.to_exposition()),
        )
    }

    /// Render the terminal `dump` event, draining the flight ring:
    /// the last-N request spans and diag events in append order, plus
    /// the cumulative overwrite count.
    pub fn dump_line(&self) -> String {
        let (events, dropped) = self.flight.drain();
        let mut out = format!("{{\"event\":\"dump\",\"dropped\":{dropped},\"events\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Count one shed and build its error (the reason reaches both
    /// the metrics registry and the wire).
    fn shed(&self, reason: ShedReason, detail: String) -> ServeError {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.emit_add(keys::SERVER_SHED, 1);
        match reason {
            ShedReason::Capacity => {
                self.shed_capacity.fetch_add(1, Ordering::Relaxed);
                self.emit_add(keys::SERVER_SHED_CAPACITY, 1);
            }
            ShedReason::Shutdown => {
                self.shed_shutdown.fetch_add(1, Ordering::Relaxed);
                self.emit_add(keys::SERVER_SHED_SHUTDOWN, 1);
            }
        }
        ServeError::Busy { reason, detail }
    }

    /// Serve one `run` request end to end: admit, look the text's
    /// placement key up (memo), resolve the placement (cache), resolve
    /// the plan (cache), check the work bound, execute the engine on the
    /// plan's inputs, checksum the outputs. The whole
    /// request is wrapped in a flight span carrying the verb, cache
    /// outcomes, shed reason and queue/build/engine latency split.
    pub fn run(&self, req: &RunRequest) -> Result<RunOutcome, ServeError> {
        let t_req = Instant::now();
        let fseq = self.telemetry.then(|| self.flight.begin("run"));
        let mut scratch = SpanScratch::default();
        let res = self.run_admitted(req, &mut scratch);
        if let Some(seq) = fseq {
            let total_ns = t_req.elapsed().as_nanos() as u64;
            let (outcome, detail) = match &res {
                Ok(_) => ("ok", String::new()),
                Err(ServeError::Busy { reason, detail }) => {
                    ("busy", format!("{}: {detail}", reason.name()))
                }
                Err(ServeError::Invalid(d)) => ("invalid", d.clone()),
            };
            let ap = self.flight.complete(seq, |s| {
                s.placement = scratch.place.map(Lookup::name);
                s.plan = scratch.plan.map(Lookup::name);
                s.engine = Some(req.engine.name());
                s.p = req.p;
                s.queue_ns = scratch.queue_ns;
                s.build_ns = scratch.build_ns;
                s.engine_ns = scratch.engine_ns;
                s.total_ns = total_ns;
                s.outcome = outcome;
                s.detail = detail;
            });
            self.flight_accounting(ap);
        }
        res
    }

    fn run_admitted(
        &self,
        req: &RunRequest,
        scratch: &mut SpanScratch,
    ) -> Result<RunOutcome, ServeError> {
        if self.is_draining() {
            return Err(self.shed(
                ShedReason::Shutdown,
                "the daemon is draining after a shutdown request".to_string(),
            ));
        }
        let t_queue = Instant::now();
        let _permit = match self.gate.admit() {
            Ok(p) => p,
            Err(detail) => return Err(self.shed(ShedReason::Capacity, detail)),
        };
        scratch.queue_ns = t_queue.elapsed().as_nanos() as u64;
        self.emit_span(keys::SERVER_QUEUE_SPAN, scratch.queue_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.emit_add(keys::SERVER_REQUESTS, 1);
        let t_req = Instant::now();

        // Only a memo miss parses the text.
        let (pkey, _) = self
            .texts
            .get_or_build(hash::text_key(&req.program, req.pattern.name()), || {
                key_placement(req)
            })
            .map_err(ServeError::Invalid)?;
        let pkey = *pkey;

        let t_compile = Instant::now();
        let (placed, l_place) = self
            .placements
            .get_or_build(pkey, || {
                // A cold compile's two halves (`search.enumerate`,
                // `search.rank`) and its counters go to the registry.
                let rec: RecorderRef = self
                    .telemetry
                    .then(|| Arc::clone(&self.metrics) as Arc<dyn Recorder>);
                place(req, &rec)
            })
            .map_err(ServeError::Invalid)?;
        scratch.place = Some(l_place);
        self.emit_add(
            match l_place {
                Lookup::Hit => keys::SERVER_PLACE_HITS,
                Lookup::Miss => keys::SERVER_PLACE_MISSES,
                Lookup::Join => keys::SERVER_PLACE_JOINS,
            },
            1,
        );

        let m = &req.mesh;
        let plkey = hash::plan_key(
            pkey,
            m.nx,
            m.ny,
            m.perturb,
            m.seed,
            req.pattern.name(),
            req.p,
        );
        let placed_for_build = Arc::clone(&placed);
        let (compiled, l_plan) = self
            .plans
            .get_or_build(plkey, move || compile_plan(&placed_for_build, m, req))
            .map_err(ServeError::Invalid)?;
        scratch.plan = Some(l_plan);
        self.emit_add(
            match l_plan {
                Lookup::Hit => keys::SERVER_PLAN_HITS,
                Lookup::Miss => keys::SERVER_PLAN_MISSES,
                Lookup::Join => keys::SERVER_PLAN_JOINS,
            },
            1,
        );
        scratch.build_ns = t_compile.elapsed().as_nanos() as u64;
        self.emit_span(keys::SERVER_BUILD_SPAN, scratch.build_ns);
        let compile_ms = scratch.build_ns as f64 / 1e6;
        if compiled.work > MAX_RUN_WORK {
            return Err(ServeError::Invalid(format!(
                "run work {} (loop iterations over all ranks and time-loop \
                 iterations) exceeds the limit of {MAX_RUN_WORK}",
                compiled.work
            )));
        }
        let bindings = compiled.bindings.as_ref().map_err(|e| ServeError::Invalid(e.clone()))?;

        // One registry per `diag` request: O(keys) memory, whatever
        // the run emits.
        let trace = req.diag.then(|| Arc::new(MetricsRegistry::new(keys::ALL)));
        let rec_ref: RecorderRef = trace
            .as_ref()
            .map(|t| Arc::clone(t) as Arc<dyn Recorder>);
        let t_run = Instant::now();
        let result = req
            .engine
            .run_with(
                &placed.prog,
                &placed.spmd,
                &compiled.d,
                bindings,
                Some(&compiled.plan),
                &rec_ref,
            )
            .map_err(ServeError::Invalid)?;
        scratch.engine_ns = t_run.elapsed().as_nanos() as u64;
        self.emit_span(keys::SERVER_ENGINE_SPAN, scratch.engine_ns);
        let run_ms = scratch.engine_ns as f64 / 1e6;

        self.emit_span(keys::SERVER_REQ_SPAN, t_req.elapsed().as_nanos() as u64);
        Ok(RunOutcome {
            checksum: output_checksum(&placed.prog, &result),
            trace_json: trace.map(|t| t.snapshot().to_json()),
            result,
            placement: l_place,
            plan: l_plan,
            n_solutions: placed.n_solutions,
            compile_ms,
            run_ms,
        })
    }
}

/// The program a request names and the automaton its pattern selects.
fn resolve_program(req: &RunRequest) -> Result<(Program, OverlapAutomaton), String> {
    let prog = match &req.program {
        ProgramSpec::Builtin(name) => match name.as_str() {
            "testiv" => syncplace::ir::programs::testiv(),
            "fig5-sketch" => syncplace::ir::programs::fig5_sketch(),
            "edge-smooth" => syncplace::ir::programs::edge_smooth(),
            other => {
                return Err(format!(
                    "unknown builtin '{other}' (testiv|fig5-sketch|edge-smooth)"
                ))
            }
        },
        ProgramSpec::Source(src) => syncplace::parse_checked(src)?,
    };
    Ok((prog, syncplace::automaton_for(req.pattern)))
}

/// The text memo's builder: the formatting-insensitive placement key
/// of a request's program.
fn key_placement(req: &RunRequest) -> Result<u64, String> {
    let (prog, automaton) = resolve_program(req)?;
    Ok(hash::placement_key(&printer::to_dsl(&prog), &automaton.name))
}

/// The placement build. It resolves the text again: a memo hit can
/// find its placement evicted since.
fn place(req: &RunRequest, rec: &RecorderRef) -> Result<PlacedProgram, String> {
    let (prog, automaton) = resolve_program(req)?;
    let dfg = syncplace::dfg::build(&prog);
    let (analysis, spmd) = syncplace::place(&prog, &dfg, &automaton, rec)?;
    let n_solutions = analysis.solutions.len();
    Ok(PlacedProgram { prog, spmd, n_solutions })
}

fn compile_plan(
    placed: &PlacedProgram,
    m: &MeshSpec,
    req: &RunRequest,
) -> Result<CompiledPlan, String> {
    let mesh = syncplace::mesh::gen2d::perturbed_grid(m.nx, m.ny, m.perturb, m.seed);
    if req.p > mesh.ntris() {
        return Err(format!(
            "p = {} exceeds the mesh's {} triangles",
            req.p,
            mesh.ntris()
        ));
    }
    let part = syncplace::partition::partition2d(&mesh, req.p, syncplace::partition::Method::RcbKl);
    let d = syncplace::overlap::decompose2d(&mesh, &part.part, req.p, req.pattern);
    let plan = Arc::new(CommPlan::build(&placed.prog, &placed.spmd, &d));
    let ranks: Vec<_> = d.submeshes.iter().map(submesh_counts).collect();
    let work = plan.tape.as_ref().map_or(0, |ops| tape::work(ops, &ranks));
    let mut b = Bindings::for_mesh(&placed.prog, &mesh);
    syncplace::synth_inputs(&placed.prog, &mut b);
    // The engines localise maps from `d`; only the sequential
    // reference, which the service never runs, reads the global tables.
    (b.elem_table, b.edge_table) = (None, None);
    let bindings = (b.validate(&placed.prog).map(|()| b))
        .map_err(|e| format!("cannot synthesize inputs: {e}"));
    Ok(CompiledPlan { d, plan, bindings, work })
}

/// Order-independent digest of a result's outputs: variables sorted by
/// name, every `f64` folded by bit pattern.
pub fn output_checksum(prog: &Program, res: &SpmdResult) -> u64 {
    let mut h = Fnv::new();
    let mut arrays: Vec<(&str, &Vec<f64>)> = res
        .output_arrays
        .iter()
        .map(|(v, xs)| (prog.decl(v).name.as_str(), xs))
        .collect();
    arrays.sort_by_key(|(name, _)| *name);
    for (name, xs) in arrays {
        h.write_str(name);
        h.write_u64(xs.len() as u64);
        for x in xs {
            h.write_f64(*x);
        }
    }
    let mut scalars: Vec<(&str, f64)> = res
        .output_scalars
        .iter()
        .map(|(v, x)| (prog.decl(v).name.as_str(), *x))
        .collect();
    scalars.sort_by_key(|(name, _)| *name);
    for (name, x) in scalars {
        h.write_str(name);
        h.write_f64(x);
    }
    h.finish()
}

/// Render the `diag` event for an outcome (helper shared by daemon and
/// CLI so the wire shape has one producer).
pub fn diag_line(out: &RunOutcome) -> String {
    crate::protocol::render_diag(
        out.placement.name(),
        out.plan.name(),
        out.n_solutions,
        out.compile_ms,
        out.trace_json.as_deref(),
    )
}

/// Render the terminal `result` event for an outcome.
pub fn result_line(out: &RunOutcome) -> String {
    crate::protocol::render_result(
        out.result.iterations,
        out.result.stats.nphases(),
        out.result.stats.total_messages(),
        out.result.stats.total_values(),
        out.run_ms,
        out.checksum,
    )
}

/// Render a `ServeError` as its terminal `error` event.
pub fn error_line(err: &ServeError) -> String {
    match err {
        ServeError::Busy { reason, detail } => {
            crate::protocol::render_busy(reason.name(), detail)
        }
        ServeError::Invalid(d) => crate::protocol::render_error("invalid", d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use crate::protocol::Request;

    fn run_req(json: &str) -> RunRequest {
        match parse_request(json).unwrap() {
            Request::Run(r) => *r,
            _ => panic!("not a run request"),
        }
    }

    #[test]
    fn serves_testiv_and_caches_both_layers() {
        let svc = Service::new(ServiceConfig::default());
        let req = run_req(
            "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":8,\"ny\":8},\"p\":2}",
        );
        let cold = svc.run(&req).unwrap();
        assert_eq!((cold.placement, cold.plan), (Lookup::Miss, Lookup::Miss));
        let hot = svc.run(&req).unwrap();
        assert_eq!((hot.placement, hot.plan), (Lookup::Hit, Lookup::Hit));
        assert_eq!(cold.checksum, hot.checksum);
        assert!(hot.compile_ms <= cold.compile_ms);
        // The daemon runs the library's default search, nothing else.
        let (_, analysis) = syncplace::placement::analyze_program(
            &syncplace::ir::programs::testiv(),
            &syncplace::automaton_for(req.pattern),
            &Default::default(),
            &Default::default(),
        );
        assert_eq!(cold.n_solutions, analysis.solutions.len());
        let stats = svc.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.placements.compiles, 1);
        assert_eq!(stats.plans.compiles, 1);
    }

    #[test]
    fn shed_when_gate_is_full() {
        // max_inflight 1, queue 0: a second concurrent request sheds.
        let svc = Arc::new(Service::new(ServiceConfig {
            max_inflight: 1,
            queue_depth: 0,
            ..Default::default()
        }));
        let permit = svc.gate.admit().unwrap();
        let req = run_req("{\"op\":\"run\",\"program\":\"testiv\",\"p\":2}");
        match svc.run(&req) {
            Err(ServeError::Busy {
                reason: ShedReason::Capacity,
                ..
            }) => {}
            other => panic!("expected Busy, got {:?}", other.map(|_| "ok")),
        }
        drop(permit);
        let stats = svc.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.shed_capacity, 1);
        assert_eq!(stats.shed_shutdown, 0);
        assert!(svc.run(&req).is_ok());
    }

    #[test]
    fn draining_service_sheds_with_shutdown_reason() {
        let svc = Service::new(ServiceConfig::default());
        let req = run_req("{\"op\":\"run\",\"program\":\"testiv\",\"p\":2}");
        assert!(svc.run(&req).is_ok());
        svc.drain();
        match svc.run(&req) {
            Err(ServeError::Busy {
                reason: ShedReason::Shutdown,
                detail,
            }) => assert!(detail.contains("draining")),
            other => panic!("expected shutdown shed, got {:?}", other.map(|_| "ok")),
        }
        let stats = svc.stats();
        assert_eq!(stats.shed_shutdown, 1);
        assert_eq!(stats.shed_capacity, 0);
        // The registry agrees with the service counters.
        let snap = svc.metrics.snapshot();
        assert_eq!(snap.counter(keys::SERVER_SHED_SHUTDOWN), 1);
        assert_eq!(snap.counter(keys::SERVER_REQUESTS), 1);
    }

    #[test]
    fn stats_line_is_valid_json_with_valid_exposition() {
        let svc = Service::new(ServiceConfig::default());
        let req = run_req("{\"op\":\"run\",\"program\":\"testiv\",\"p\":2}");
        svc.run(&req).unwrap();
        svc.run(&req).unwrap();
        let line = svc.stats_line();
        let v = syncplace::obs::json::parse(&line).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("stats"));
        assert_eq!(v.get("requests").unwrap().as_usize(), Some(2));
        assert_eq!(
            v.get("shed").unwrap().get("total").unwrap().as_usize(),
            Some(0)
        );
        let m = v.get("metrics").unwrap();
        let hits = m.get("counters").unwrap().get(keys::SERVER_PLACE_HITS);
        assert_eq!(hits.unwrap().as_usize(), Some(1));
        let expo = v.get("exposition").unwrap().as_str().unwrap();
        let samples = syncplace::obs::validate_exposition(expo).unwrap();
        assert!(samples > 0, "exposition must carry samples");
    }

    #[test]
    fn dump_line_replays_spans_in_order_and_drains() {
        let svc = Service::new(ServiceConfig::default());
        let req = run_req("{\"op\":\"run\",\"program\":\"testiv\",\"p\":2}");
        svc.run(&req).unwrap();
        svc.note_verb("ping");
        svc.run(&req).unwrap();
        let line = svc.dump_line();
        let v = syncplace::obs::json::parse(&line).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("dump"));
        let events = v.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        let verbs: Vec<&str> = events
            .iter()
            .map(|e| e.get("verb").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(verbs, ["run", "ping", "run"]);
        // Seqs strictly increase: append order is replay order.
        let seqs: Vec<usize> = events
            .iter()
            .map(|e| e.get("seq").unwrap().as_usize().unwrap())
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        // The first run was a double miss, the second a double hit.
        let c0 = events[0].get("cache").unwrap();
        assert_eq!(c0.get("placement").unwrap().as_str(), Some("miss"));
        let c2 = events[2].get("cache").unwrap();
        assert_eq!(c2.get("placement").unwrap().as_str(), Some("hit"));
        // A dump drains the ring.
        let again = svc.dump_line();
        let v2 = syncplace::obs::json::parse(&again).unwrap();
        assert_eq!(v2.get("events").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn telemetry_off_keeps_registry_and_ring_empty() {
        let svc = Service::new(ServiceConfig {
            telemetry: false,
            ..Default::default()
        });
        let req = run_req("{\"op\":\"run\",\"program\":\"testiv\",\"p\":2}");
        svc.run(&req).unwrap();
        let snap = svc.metrics.snapshot();
        assert_eq!(snap.counter(keys::SERVER_REQUESTS), 0);
        assert_eq!(svc.flight.counters(), (0, 0, 0));
        // The service counters still see everything.
        assert_eq!(svc.stats().requests, 1);
    }

    #[test]
    fn io_error_counts_and_leaves_a_diag() {
        let svc = Service::new(ServiceConfig::default());
        svc.io_error("read", &"connection reset");
        let snap = svc.metrics.snapshot();
        assert_eq!(snap.counter(keys::SERVER_IO_ERROR), 1);
        let line = svc.dump_line();
        let v = syncplace::obs::json::parse(&line).unwrap();
        let events = v.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("diag"));
        let msg = events[0].get("message").unwrap().as_str().unwrap();
        assert!(msg.contains("read error"));
    }

    #[test]
    fn invalid_program_is_reported_not_cached() {
        let svc = Service::new(ServiceConfig::default());
        let req = run_req("{\"op\":\"run\",\"program\":\"no-such\",\"p\":2}");
        // Never memoised: the second send is refused as the first was.
        for _ in 0..2 {
            match svc.run(&req) {
                Err(ServeError::Invalid(e)) => assert!(e.contains("unknown builtin")),
                other => panic!("expected Invalid, got {:?}", other.map(|_| "ok")),
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.placements.misses, 0);
        assert_eq!((stats.texts.misses, stats.texts.len), (2, 0));
    }

    /// A `run` request carrying `src` as its program.
    fn source_req(src: &str) -> RunRequest {
        run_req(&format!(
            "{{\"op\":\"run\",\"source\":{},\"p\":2,\"diag\":true}}",
            syncplace::obs::trace::json_escape(src)
        ))
    }

    #[test]
    fn nesting_at_the_limit_answers_and_past_it_is_invalid() {
        use syncplace::ir::parser::MAX_DEPTH;
        let prog = |rhs: String| {
            format!(
                "program deep\n input A : node\n output B : node\n\
                 forall i in node split {{ B(i) = {rhs} }}\nend\n"
            )
        };
        let chain = |n: usize| prog(vec!["A(i)"; n].join(" + "));
        let parens = |n: usize| prog(format!("{}A(i){}", "(".repeat(n), ")".repeat(n)));
        let at_limit = [chain(MAX_DEPTH), parens(MAX_DEPTH)];
        let over = [chain(120_000), parens(200_000)];
        // On a thread with the default stack, as the daemon's handlers are.
        std::thread::spawn(move || {
            let svc = Service::new(ServiceConfig::default());
            for src in at_limit {
                svc.run(&source_req(&src)).unwrap();
            }
            for src in over {
                match svc.run(&source_req(&src)) {
                    Err(ServeError::Invalid(e)) => assert!(e.contains("limit"), "{e}"),
                    other => panic!("expected Invalid, got {:?}", other.map(|_| "ok")),
                }
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_run_over_the_work_bound_is_refused_before_it_starts() {
        let src = "program spin\n input A : node\n output B : node\n\
                   iterate t max 1000000000000 {\n forall i in node split { B(i) = A(i) }\n }\nend\n";
        let svc = Service::new(ServiceConfig::default());
        let t0 = Instant::now();
        let refusal = || match svc.run(&source_req(src)) {
            Err(ServeError::Invalid(e)) => e,
            other => panic!("expected Invalid, got {:?}", other.map(|_| "ok")),
        };
        let e = refusal();
        assert!(e.contains(&format!("limit of {MAX_RUN_WORK}")), "{e}");
        assert!(e.starts_with("run work 289000000000000 "), "{e}");
        // Another request in between answers normally; the same request
        // again, its plan now cached, is refused with the same message.
        let testiv = run_req("{\"op\":\"run\",\"program\":\"testiv\",\"p\":2}");
        assert_eq!(svc.run(&testiv).unwrap().result.iterations, 100);
        assert_eq!(refusal(), e);
        assert_eq!(svc.stats().plans.hits, 1);
        assert!(t0.elapsed().as_secs() < 10, "refused before it ran");
    }

    #[test]
    fn builtins_at_the_largest_mesh_fit_the_work_bound() {
        // One rank over the whole 1024 × 1024 grid. More ranks add only
        // their overlap copies — 3.5 % for `testiv` at p = 512 — so half
        // the bound leaves room for any `p`.
        let mesh = syncplace::mesh::gen2d::perturbed_grid(1024, 1024, 0.0, 1);
        for program in ["testiv", "fig5-sketch", "edge-smooth"] {
            let req = run_req(&format!("{{\"op\":\"run\",\"program\":\"{program}\"}}"));
            let placed = place(&req, &None).unwrap();
            let counts = Bindings::for_mesh(&placed.prog, &mesh).counts;
            let ops = tape::lower(&placed.prog, &placed.spmd, &[]).unwrap();
            let work = tape::work(&ops, &[(counts, counts)]);
            assert!(work > 0 && work <= MAX_RUN_WORK / 2, "{program}: {work}");
        }
    }

    #[test]
    fn pong_renders_valid_json() {
        let svc = Service::new(ServiceConfig::default());
        let line = svc.stats().render_pong();
        let v = syncplace::obs::json::parse(&line).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("pong"));
        assert!(v.get("placement_cache").unwrap().get("cap").is_some());
    }
}
