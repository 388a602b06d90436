//! The one adapter: every call into the repo's API lives in this file.
//!
//! Each function wraps one layer's public entry point in a span named
//! after the per-layer metric it feeds (`ir.parse_ms`,
//! `partition.ms`, …) and records the counts visible at that boundary.
//! Workloads compose these functions and never name a `syncplace` item
//! themselves, so a PR that renames, merges or deletes an engine or an
//! entry point edits this file only.
//!
//! Engines are looked up by `Engine::name()` over `Engine::ALL` and run
//! through `Engine::run`; the `threaded*` engines and the
//! `run_*`/`*_recorded`/`*_with_plan` free functions are never named.

use std::hint::black_box;
use std::path::Path;

use syncplace::analyze::{audit, verify};
use syncplace::automata::predefined::{fig6, fig8};
use syncplace::automata::OverlapAutomaton;
use syncplace::codegen::{self, SpmdProgram};
use syncplace::dfg::{self, Dfg};
use syncplace::ir::{parser, printer, programs, Program};
use syncplace::mesh::{gen2d, gen3d, Mesh2d, Mesh3d};
use syncplace::overlap::{decompose2d, decompose3d, Decomposition, Pattern};
use syncplace::partition::{metrics, partition2d, partition3d, Method};
use syncplace::placement::{self, Analysis, CostParams, SearchOptions};
use syncplace::runtime::{self, bindings, Bindings, CommPlan, SeqResult, SpmdResult};
use syncplace::Engine;
use syncplace_server::protocol::{parse_request, Request};
use syncplace_server::service::{self, output_checksum};
use syncplace_server::{Client, Daemon, DaemonHandle, Service, ServiceConfig};

use crate::inputs::MeshSpec;
use crate::metrics::{ENGINE_WORK, EXEC_WORK};
use crate::trace::Tracer;

/// The repo's JSON reader/writer, reused for the benchmark's own files.
pub use syncplace::obs::json;
/// The repo's JSON string escaper.
pub use syncplace::obs::trace::json_escape;

/// The engines under test, by `Engine::name()`.
pub const ENGINES: [&str; 3] = ["round-robin", "batched", "overlapped"];
/// The engine the daemon deploys by default; end-to-end solves use it.
pub const DEPLOYED_ENGINE: &str = "batched";

fn engine(name: &str) -> Result<Engine, String> {
    Engine::ALL
        .into_iter()
        .find(|e| e.name() == name)
        .ok_or_else(|| format!("no engine named '{name}'"))
}

fn engine_span(name: &str) -> &'static str {
    match name {
        "round-robin" => "runtime.engine.round-robin.ms",
        "batched" => "runtime.engine.batched.ms",
        _ => "runtime.engine.overlapped.ms",
    }
}

/// Which overlap automaton a program is placed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Automaton {
    /// Fig. 6 — 2-D element overlap (Fig. 1 pattern).
    Fig6,
    /// Fig. 8 — its 3-D analogue.
    Fig8,
}

impl Automaton {
    fn build(self) -> OverlapAutomaton {
        match self {
            Automaton::Fig6 => fig6(),
            Automaton::Fig8 => fig8(),
        }
    }
}

/// DSL text of TESTIV with the given iteration cap.
pub fn testiv_text(max_iters: usize) -> String {
    printer::to_dsl(&programs::testiv_with(max_iters))
}

/// DSL text of the 3-D `tetheat` program with the given iteration cap.
pub fn tetheat_text(max_iters: usize) -> String {
    printer::to_dsl(&programs::tet_heat(max_iters))
}

/// A compiled program: text → verified-able `SpmdProgram`.
pub struct Compiled {
    prog: Program,
    dfg: Dfg,
    automaton: OverlapAutomaton,
    analysis: Analysis,
    spmd: SpmdProgram,
}

impl Compiled {
    /// What identifies the result of a compile: solution count and the
    /// best placement's fingerprint. Equal across repetitions of a text.
    pub fn identity(&self) -> (usize, String) {
        (
            self.analysis.solutions.len(),
            self.analysis.solutions[0].fingerprint(),
        )
    }
}

/// The `compile` stage: parse → dfg → analyze → codegen.
pub fn compile(tr: &mut Tracer, src: &str, automaton: Automaton) -> Result<Compiled, String> {
    tr.span("stage.compile_ms", |tr| {
        let prog = tr
            .leaf("ir.parse_ms", || parser::parse(src))
            .map_err(|e| format!("parse error: {e}"))?;
        tr.count("ir.source_bytes", || src.len() as f64);
        let dfg = tr.leaf("dfg.build_ms", || dfg::build(&prog));
        tr.count("dfg.nodes", || dfg.nodes.len() as f64);
        tr.count("dfg.arrows", || dfg.arrows.len() as f64);
        let automaton = automaton.build();
        let analysis = tr.leaf("placement.analyze_ms", || {
            placement::analyze(
                &prog,
                &dfg,
                &automaton,
                &SearchOptions::default(),
                &CostParams::default(),
            )
        });
        if !analysis.legality.is_legal() {
            return Err("the partitioning is not legal".to_string());
        }
        if analysis.solutions.is_empty() {
            return Err(format!("no placement under '{}'", automaton.name));
        }
        tr.count("placement.visits", || analysis.stats.visits as f64);
        tr.count("placement.backtracks", || analysis.stats.backtracks as f64);
        tr.count("placement.solutions", || analysis.solutions.len() as f64);
        let spmd = tr.leaf("codegen.spmd_ms", || {
            codegen::spmd_program(&prog, &dfg, &analysis.solutions[0])
        });
        tr.count("codegen.comm_ops", || {
            spmd.phases()
                .iter()
                .map(|(_, ops)| ops.len())
                .sum::<usize>() as f64
        });
        Ok(Compiled {
            prog,
            dfg,
            automaton,
            analysis,
            spmd,
        })
    })
}

/// Traced-only probes of what `placement::analyze` is made of (legality
/// check, enumeration) and of the listing printer, each called on its
/// own so it gets its own span. `placement.rank_ms` is derived as
/// analyze − legality − enumerate.
pub fn compile_probes(tr: &mut Tracer, c: &Compiled) {
    let legality = tr.leaf("placement.legality_ms", || {
        placement::check_legality(&c.prog, &c.dfg)
    });
    black_box(legality);
    let (mappings, _) = tr.leaf("placement.enumerate_ms", || {
        placement::enumerate(&c.dfg, &c.automaton, &SearchOptions::default())
    });
    tr.count("placement.mappings", || mappings.len() as f64);
    let listing = tr.leaf("codegen.annotate_ms", || {
        codegen::annotate(&c.prog, &c.analysis.solutions[0])
    });
    black_box(listing);
}

/// Output check: every placement the search kept passes the independent
/// fixpoint verifier.
pub fn verify_placements(c: &Compiled) -> Result<(), String> {
    for (i, sol) in c.analysis.solutions.iter().enumerate() {
        let report = verify::verify_solution(&c.dfg, &c.automaton, sol);
        if !report.is_clean() {
            return Err(format!("placement {i} rejected by the verifier:\n{report}"));
        }
    }
    Ok(())
}

/// A generated mesh of either dimension.
pub enum Mesh {
    /// Triangles.
    D2(Mesh2d),
    /// Tetrahedra.
    D3(Mesh3d),
}

impl Mesh {
    /// Element count.
    pub fn nelems(&self) -> usize {
        match self {
            Mesh::D2(m) => m.ntris(),
            Mesh::D3(m) => m.ntets(),
        }
    }
}

/// Generate a mesh.
pub fn mesh_gen(tr: &mut Tracer, spec: MeshSpec) -> Mesh {
    let mesh = tr.leaf("mesh.gen_ms", || match spec {
        MeshSpec::Grid2d { n, seed } => Mesh::D2(gen2d::perturbed_grid(n, n, 0.2, seed)),
        MeshSpec::Box3d { n } => Mesh::D3(gen3d::box_mesh(n, n, n)),
    });
    tr.count("mesh.elems", || mesh.nelems() as f64);
    mesh
}

/// Decomposition + bindings of one arity.
struct Parts<const V: usize> {
    d: Decomposition<V>,
    bindings: Bindings,
}

enum AnyParts {
    D2(Parts<3>),
    D3(Parts<4>),
}

/// The result of the `prepare` stage.
pub struct Prepared {
    nelems: usize,
    part: Vec<u32>,
    nparts: usize,
    parts: AnyParts,
    plan: CommPlan,
}

/// A mildly non-uniform initial field, so a wrong placement changes the
/// outputs (a constant field is a fixed point of both solvers).
fn seeded_field(n: usize, seed: u64) -> Vec<f64> {
    let phase = (seed % 11) as usize;
    (0..n)
        .map(|i| 1.0 + 0.25 * (((i + phase) % 11) as f64 / 11.0))
        .collect()
}

/// The arity-generic tail of [`prepare`]: decomposition → `CommPlan` →
/// bindings, with `INIT` replaced by the seeded field.
fn decomposed<const V: usize>(
    tr: &mut Tracer,
    c: &Compiled,
    decompose: impl FnOnce() -> Decomposition<V>,
    bind: impl FnOnce() -> Bindings,
    init: Vec<f64>,
) -> (Parts<V>, CommPlan) {
    let d = tr.leaf("overlap.decompose_ms", decompose);
    tr.count("overlap.dup_elems", || d.total_overlap_elems() as f64);
    let plan = tr.leaf("runtime.plan.build_ms", || {
        CommPlan::build(&c.prog, &c.spmd, &d)
    });
    let mut bindings = tr.leaf("runtime.bindings.ms", bind);
    let var = c.prog.lookup("INIT").expect("both solvers declare INIT");
    bindings.input_arrays.insert(var, init);
    (Parts { d, bindings }, plan)
}

/// The `prepare` stage by the prelude's quickstart path: partition →
/// decompose → `CommPlan` → bindings. 2-D meshes take TESTIV bindings and
/// RCB+KL, 3-D meshes `tetheat` bindings and RCB; ε = 0, so solves run
/// to their iteration cap.
pub fn prepare(tr: &mut Tracer, c: &Compiled, mesh: &Mesh, nparts: usize, seed: u64) -> Prepared {
    tr.span("stage.prepare_ms", |tr| {
        let partition = tr.leaf("partition.ms", || match mesh {
            Mesh::D2(m) => partition2d(m, nparts, Method::RcbKl),
            Mesh::D3(m) => partition3d(m, nparts, Method::Rcb),
        });
        tr.count("partition.edge_cut", || {
            metrics::edge_cut(&partition.dual, &partition.part) as f64
        });
        let part = partition.part;
        let (parts, plan) = match mesh {
            Mesh::D2(m) => {
                let (parts, plan) = decomposed(
                    tr,
                    c,
                    || decompose2d(m, &part, nparts, Pattern::FIG1),
                    || bindings::testiv_bindings(&c.prog, m, 0.0),
                    seeded_field(m.nnodes(), seed),
                );
                (AnyParts::D2(parts), plan)
            }
            Mesh::D3(m) => {
                let (parts, plan) = decomposed(
                    tr,
                    c,
                    || decompose3d(m, &part, nparts, Pattern::FIG1),
                    || bindings::tet_heat_bindings(&c.prog, m, 0.0),
                    seeded_field(m.nnodes(), seed),
                );
                (AnyParts::D3(parts), plan)
            }
        };
        tr.count("runtime.plan.packets_per_sweep", || {
            plan.packets_per_sweep() as f64
        });
        Prepared {
            nelems: mesh.nelems(),
            part,
            nparts,
            parts,
            plan,
        }
    })
}

/// Traced-only probe of the daemon's builder, `runtime::decomp`'s
/// gang-parallel decomposition, on `workers` threads. Returns whether its
/// result is bitwise the sequential builder's.
pub fn decompose_par_probe(tr: &mut Tracer, mesh: &Mesh, prep: &Prepared, workers: usize) -> bool {
    let (part, p) = (&prep.part, prep.nparts);
    match (mesh, &prep.parts) {
        (Mesh::D2(m), AnyParts::D2(parts)) => {
            let (d, _) = tr.leaf("runtime.decomp.par_ms", || {
                runtime::decomp::decompose2d_par(m, part, p, Pattern::FIG1, workers, &None)
            });
            d == parts.d
        }
        (Mesh::D3(m), AnyParts::D3(parts)) => {
            let (d, _) = tr.leaf("runtime.decomp.par_ms", || {
                runtime::decomp::decompose3d_par(m, part, p, Pattern::FIG1, workers, &None)
            });
            d == parts.d
        }
        _ => false,
    }
}

/// Output check: the `CommPlan` passes the independent schedule auditor.
pub fn audit_plan(c: &Compiled, prep: &Prepared) -> Result<(), String> {
    let report = audit::audit_plan(&c.prog, &c.spmd, &prep.plan);
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("CommPlan rejected by the auditor:\n{report}"))
    }
}

/// One engine run of a placed program (the `solve` stage), through
/// `Engine::run`.
pub fn solve(
    tr: &mut Tracer,
    engine_name: &'static str,
    c: &Compiled,
    prep: &Prepared,
) -> Result<SpmdResult, String> {
    let e = engine(engine_name)?;
    let result = tr.span("stage.solve_ms", |tr| {
        tr.leaf(engine_span(engine_name), || match &prep.parts {
            AnyParts::D2(p) => e.run(&c.prog, &c.spmd, &p.d, &p.bindings),
            AnyParts::D3(p) => e.run(&c.prog, &c.spmd, &p.d, &p.bindings),
        })
    })?;
    tr.count("runtime.comm.messages", || {
        result.stats.total_messages() as f64
    });
    tr.count("runtime.comm.values", || result.stats.total_values() as f64);
    tr.count("runtime.comm.phases", || result.stats.nphases() as f64);
    tr.count(ENGINE_WORK, || (prep.nelems * result.iterations) as f64);
    Ok(result)
}

/// The sequential reference run on the same bindings — the plain
/// single-threaded baseline and the oracle of every solve.
pub fn sequential(tr: &mut Tracer, c: &Compiled, prep: &Prepared) -> SeqResult {
    let b = match &prep.parts {
        AnyParts::D2(p) => &p.bindings,
        AnyParts::D3(p) => &p.bindings,
    };
    let seq = tr.leaf("runtime.exec.sequential_ms", || {
        runtime::run_sequential(&c.prog, b)
    });
    tr.count(EXEC_WORK, || (prep.nelems * seq.iterations) as f64);
    seq
}

/// Largest relative error of a solve against the sequential reference.
pub fn max_rel_error(seq: &SeqResult, res: &SpmdResult) -> f64 {
    runtime::max_rel_error(seq, res)
}

/// Time-loop iterations a solve executed.
pub fn iterations(res: &SpmdResult) -> usize {
    res.iterations
}

/// The daemon's order-independent digest of a solve's outputs.
pub fn checksum(c: &Compiled, res: &SpmdResult) -> u64 {
    output_checksum(&c.prog, res)
}

/// What a `run` request came back with, from the socket or in process.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// `result` event received (not `error`/`busy`).
    pub ok: bool,
    /// Output checksum, as rendered on the wire.
    pub checksum: String,
    /// Engine wall time the server reported.
    pub run_ms: f64,
    /// Placement + plan resolution time (in-process and `diag` replies).
    pub compile_ms: Option<f64>,
    /// Cache diagnosis `(placement, plan)` (in-process and `diag` replies).
    pub cache: Option<(String, String)>,
    /// Error code and detail when not ok.
    pub error: String,
}

/// Cumulative daemon counters, as `ping` reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Admitted `run` requests.
    pub requests: u64,
    /// Requests shed.
    pub shed: u64,
    /// Placement-cache hits.
    pub place_hits: u64,
    /// Placement-cache misses.
    pub place_misses: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
}

/// A real daemon on a Unix socket with the default `ServiceConfig`.
pub struct DaemonUnderTest(DaemonHandle);

impl DaemonUnderTest {
    /// Bind `socket` and serve on a background thread.
    pub fn spawn(socket: &Path) -> Result<DaemonUnderTest, String> {
        let _ = std::fs::remove_file(socket);
        Daemon::spawn(socket, ServiceConfig::default())
            .map(DaemonUnderTest)
            .map_err(|e| format!("cannot start daemon on {}: {e}", socket.display()))
    }

    /// Stop the daemon and join its listener thread.
    pub fn stop(self) -> Result<(), String> {
        self.0.stop().map_err(|e| format!("daemon stop: {e}"))
    }
}

/// One client connection; requests on it are sequential.
pub struct Conn(Client);

impl Conn {
    /// Connect to the daemon on `socket`.
    pub fn connect(socket: &Path) -> Result<Conn, String> {
        Client::connect(socket)
            .map(Conn)
            .map_err(|e| format!("connect {}: {e}", socket.display()))
    }

    /// Send one `run` line and read events up to the terminal one.
    pub fn run(&mut self, line: &str) -> Result<Reply, String> {
        let events = self.0.request(line).map_err(|e| format!("request: {e}"))?;
        let mut reply = Reply::default();
        for ev in &events {
            let field = |k: &str| ev.get(k).and_then(json::Value::as_str).unwrap_or("");
            match field("event") {
                "diag" => {
                    let cache = ev.get("cache");
                    let side = |k: &str| {
                        cache
                            .and_then(|c| c.get(k))
                            .and_then(json::Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    reply.cache = Some((side("placement"), side("plan")));
                    reply.compile_ms = ev.get("compile_ms").and_then(json::Value::as_f64);
                }
                "result" => {
                    reply.ok = true;
                    reply.checksum = field("checksum").to_string();
                    reply.run_ms = ev
                        .get("run_ms")
                        .and_then(json::Value::as_f64)
                        .unwrap_or(0.0);
                }
                other => reply.error = format!("{other} {}: {}", field("code"), field("detail")),
            }
        }
        Ok(reply)
    }

    /// `ping` the daemon for its cumulative counters.
    pub fn counters(&mut self) -> Result<ServerCounters, String> {
        let events = self
            .0
            .request("{\"op\":\"ping\"}")
            .map_err(|e| format!("ping: {e}"))?;
        let pong = events.last().ok_or("empty ping reply")?;
        let num = |v: Option<&json::Value>| v.and_then(json::Value::as_usize).unwrap_or(0) as u64;
        let cache = |name: &str, k: &str| num(pong.get(name).and_then(|c| c.get(k)));
        Ok(ServerCounters {
            requests: num(pong.get("requests")),
            shed: num(pong.get("shed")),
            place_hits: cache("placement_cache", "hits"),
            place_misses: cache("placement_cache", "misses"),
            plan_hits: cache("plan_cache", "hits"),
            plan_misses: cache("plan_cache", "misses"),
        })
    }
}

/// The service without the socket: `Service::run` called directly on the
/// same request lines (parse → run → render), to split wire time from
/// service time.
pub struct InProc(Service);

impl InProc {
    /// A fresh service with the default `ServiceConfig`.
    pub fn new() -> InProc {
        InProc(Service::new(ServiceConfig::default()))
    }

    /// Serve one `run` line in the calling thread.
    pub fn run(&self, line: &str) -> Result<Reply, String> {
        let Request::Run(req) = parse_request(line)? else {
            return Err("not a run request".to_string());
        };
        match self.0.run(&req) {
            Ok(out) => {
                black_box(service::result_line(&out));
                Ok(Reply {
                    ok: true,
                    checksum: format!("{:016x}", out.checksum),
                    run_ms: out.run_ms,
                    compile_ms: Some(out.compile_ms),
                    cache: Some((
                        out.placement.name().to_string(),
                        out.plan.name().to_string(),
                    )),
                    error: String::new(),
                })
            }
            Err(e) => Ok(Reply {
                error: service::error_line(&e),
                ..Reply::default()
            }),
        }
    }
}
