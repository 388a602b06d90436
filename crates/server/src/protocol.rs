//! The wire protocol: newline-delimited JSON over a Unix-domain
//! socket.
//!
//! Every request is one JSON object on one line; every response is a
//! stream of one-line JSON *events*, terminated by a terminal event
//! (`result`, `error`, `pong`, `stats`, `dump` or `bye`). The full
//! schema with examples
//! lives in OPERATIONS.md; this module is its executable counterpart.
//!
//! Requests:
//!
//! ```json
//! {"op":"run","program":"testiv","mesh":{"nx":16,"ny":16,"perturb":0.2,"seed":42},
//!  "pattern":"fig1","p":4,"engine":"batched","diag":true}
//! {"op":"run","source":"program p ... end","p":8}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"dump"}
//! {"op":"shutdown"}
//! ```
//!
//! Parsing uses the shared workspace reader
//! ([`syncplace::obs::json`]), so the server accepts exactly the JSON
//! subset the rest of the suite emits.

use syncplace::obs::json::{self, Value};
use syncplace::obs::trace::json_escape;
use syncplace::overlap::Pattern;
use syncplace::Engine;

/// The mesh a `run` request executes on: an `nx × ny` perturbed grid
/// (the workspace's standard synthetic mesh family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Grid nodes along x.
    pub nx: usize,
    /// Grid nodes along y.
    pub ny: usize,
    /// Node-position perturbation amplitude (0 = regular grid).
    pub perturb: f64,
    /// Deterministic perturbation seed.
    pub seed: u64,
}

impl Default for MeshSpec {
    fn default() -> MeshSpec {
        MeshSpec {
            nx: 16,
            ny: 16,
            perturb: 0.2,
            seed: 42,
        }
    }
}

/// Which program a `run` request places and executes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramSpec {
    /// One of the built-in example programs by name (`"testiv"`,
    /// `"fig5-sketch"`, `"edge-smooth"`).
    Builtin(String),
    /// Full DSL source text, parsed server-side.
    Source(String),
}

/// A fully parsed `run` request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The program to place and execute.
    pub program: ProgramSpec,
    /// The mesh to decompose.
    pub mesh: MeshSpec,
    /// The overlapping pattern (selects the overlap automaton too).
    pub pattern: Pattern,
    /// Processor count.
    pub p: usize,
    /// Which SPMD engine executes the placed program. Not part of any
    /// cache key — engines are bitwise-identical.
    pub engine: Engine,
    /// Stream a `diag` event (cache outcomes, timings, trace snapshot)
    /// before the `result` event.
    pub diag: bool,
}

/// One request line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Place + execute a program.
    Run(Box<RunRequest>),
    /// Health check; answered with a `pong` stats event.
    Ping,
    /// Live-metrics snapshot; answered with a `stats` event carrying
    /// the registry snapshot as JSON plus the text exposition.
    Stats,
    /// Drain the flight recorder; answered with a `dump` event
    /// replaying the last-N request spans and diag events in order.
    Dump,
    /// Stop the daemon after answering `bye`.
    Shutdown,
}

/// Parse one request line. Unknown fields are rejected (they are
/// always a client bug — typically a misspelled option silently
/// falling back to a default).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let obj = match &v {
        Value::Obj(m) => m,
        _ => return Err("request must be a JSON object".into()),
    };
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing string field 'op'")?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "dump" => Ok(Request::Dump),
        "shutdown" => Ok(Request::Shutdown),
        "run" => {
            for (k, _) in obj {
                if !matches!(
                    k.as_str(),
                    "op" | "program" | "source" | "mesh" | "pattern" | "p" | "engine" | "diag"
                ) {
                    return Err(format!("unknown field '{k}'"));
                }
            }
            let program = match (v.get("program"), v.get("source")) {
                (Some(p), None) => ProgramSpec::Builtin(
                    p.as_str().ok_or("'program' must be a string")?.to_string(),
                ),
                (None, Some(s)) => {
                    ProgramSpec::Source(s.as_str().ok_or("'source' must be a string")?.to_string())
                }
                (Some(_), Some(_)) => return Err("give 'program' or 'source', not both".into()),
                (None, None) => return Err("missing 'program' (builtin name) or 'source'".into()),
            };
            let mesh = match v.get("mesh") {
                None => MeshSpec::default(),
                Some(m) => parse_mesh(m)?,
            };
            let pattern = match v.get("pattern") {
                None => Pattern::FIG1,
                Some(p) => parse_pattern(p.as_str().ok_or("'pattern' must be a string")?)?,
            };
            let p = match v.get("p") {
                None => 4,
                Some(n) => {
                    let p = n.as_usize().ok_or("'p' must be a non-negative integer")?;
                    if p == 0 || p > 512 {
                        return Err("'p' must be in 1..=512".into());
                    }
                    p
                }
            };
            let engine = match v.get("engine") {
                None => Engine::Batched,
                Some(e) => parse_engine(e.as_str().ok_or("'engine' must be a string")?)?,
            };
            let diag = match v.get("diag") {
                None => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => return Err("'diag' must be a boolean".into()),
            };
            Ok(Request::Run(Box::new(RunRequest {
                program,
                mesh,
                pattern,
                p,
                engine,
                diag,
            })))
        }
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Largest mesh one request may ask for, in grid cells (`nx·ny`,
/// two triangles each): the daemon generates, partitions, decomposes
/// and caches whatever a request names.
const MAX_MESH_CELLS: usize = 1 << 20;

fn parse_mesh(m: &Value) -> Result<MeshSpec, String> {
    let d = MeshSpec::default();
    let dim = |k: &str, dv: usize| -> Result<usize, String> {
        match m.get(k) {
            None => Ok(dv),
            Some(n) => {
                let n = n
                    .as_usize()
                    .ok_or(format!("mesh '{k}' must be a non-negative integer"))?;
                if (2..=4096).contains(&n) {
                    Ok(n)
                } else {
                    Err(format!("mesh '{k}' must be in 2..=4096"))
                }
            }
        }
    };
    let (nx, ny) = (dim("nx", d.nx)?, dim("ny", d.ny)?);
    if nx * ny > MAX_MESH_CELLS {
        return Err(format!(
            "mesh nx·ny = {} exceeds the limit of {MAX_MESH_CELLS} cells",
            nx * ny
        ));
    }
    Ok(MeshSpec {
        nx,
        ny,
        perturb: match m.get("perturb") {
            None => d.perturb,
            // `perturbed_grid` asserts this range (non-finite values
            // fail the same test).
            Some(n) => n
                .as_f64()
                .filter(|a| (0.0..0.5).contains(a))
                .ok_or("mesh 'perturb' must be a number in 0.0..0.5")?,
        },
        seed: match m.get("seed") {
            None => d.seed,
            Some(n) => n.as_usize().ok_or("mesh 'seed' must be a non-negative integer")? as u64,
        },
    })
}

fn parse_pattern(s: &str) -> Result<Pattern, String> {
    match s {
        "fig1" => Ok(Pattern::FIG1),
        "fig2" => Ok(Pattern::FIG2),
        "2layer" => Ok(Pattern::ElementOverlap { layers: 2 }),
        other => Err(format!("unknown pattern '{other}' (fig1|fig2|2layer)")),
    }
}

fn parse_engine(s: &str) -> Result<Engine, String> {
    Engine::ALL
        .into_iter()
        .find(|e| e.name() == s)
        .ok_or_else(|| {
            let names: Vec<&str> = Engine::ALL.iter().map(|e| e.name()).collect();
            format!("unknown engine '{s}' ({})", names.join("|"))
        })
}

/// Render the terminal `result` event.
#[allow(clippy::too_many_arguments)]
pub fn render_result(
    iterations: usize,
    phases: usize,
    messages: usize,
    values: usize,
    run_ms: f64,
    checksum: u64,
) -> String {
    format!(
        "{{\"event\":\"result\",\"iterations\":{iterations},\"phases\":{phases},\
         \"messages\":{messages},\"values\":{values},\"run_ms\":{run_ms:.3},\
         \"checksum\":\"{checksum:016x}\"}}"
    )
}

/// Render the `diag` event streamed before `result` when the request
/// set `"diag": true`. `trace_json` is the request's already-rendered
/// `MetricsSnapshot` JSON (embedded verbatim as a JSON value) or `None`
/// when tracing was disabled.
pub fn render_diag(
    placement: &'static str,
    plan: &'static str,
    n_solutions: usize,
    compile_ms: f64,
    trace_json: Option<&str>,
) -> String {
    let trace = trace_json.unwrap_or("null");
    format!(
        "{{\"event\":\"diag\",\"cache\":{{\"placement\":\"{placement}\",\"plan\":\"{plan}\"}},\
         \"solutions\":{n_solutions},\"compile_ms\":{compile_ms:.3},\"trace\":{trace}}}"
    )
}

/// Render a terminal `error` event. `code` is a stable machine-readable
/// tag: `busy` (shed by admission control — retry later), `bad-request`
/// (malformed line), `invalid` (the program/placement/run failed).
pub fn render_error(code: &str, detail: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"code\":{},\"detail\":{}}}",
        json_escape(code),
        json_escape(detail)
    )
}

/// Render the terminal `error` event for a shed request, carrying the
/// structured shed reason (`capacity` — the admission budget was
/// full; `shutdown` — the daemon was draining) alongside the
/// human-readable detail.
pub fn render_busy(reason: &str, detail: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"code\":\"busy\",\"reason\":{},\"detail\":{}}}",
        json_escape(reason),
        json_escape(detail)
    )
}

/// Render the `bye` event acknowledging a shutdown request.
pub fn render_bye() -> String {
    "{\"event\":\"bye\"}".to_string()
}

/// Is this event name terminal (the last line of a response)?
pub fn is_terminal(event: &str) -> bool {
    matches!(event, "result" | "error" | "pong" | "stats" | "dump" | "bye")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_run_request() {
        let r = parse_request(
            "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":10,\"ny\":12,\
             \"perturb\":0.1,\"seed\":7},\"pattern\":\"fig2\",\"p\":8,\
             \"engine\":\"overlapped\",\"diag\":true}",
        )
        .unwrap();
        let Request::Run(r) = r else { panic!("not run") };
        assert_eq!(r.program, ProgramSpec::Builtin("testiv".into()));
        assert_eq!((r.mesh.nx, r.mesh.ny, r.mesh.seed), (10, 12, 7));
        assert_eq!(r.pattern, Pattern::FIG2);
        assert_eq!((r.p, r.engine, r.diag), (8, Engine::Overlapped, true));
    }

    #[test]
    fn defaults_fill_omitted_fields() {
        let Request::Run(r) = parse_request("{\"op\":\"run\",\"program\":\"testiv\"}").unwrap()
        else {
            panic!("not run")
        };
        assert_eq!(r.mesh, MeshSpec::default());
        assert_eq!(r.pattern, Pattern::FIG1);
        assert_eq!((r.p, r.engine, r.diag), (4, Engine::Batched, false));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            "{\"op\":\"fly\"}",
            "{\"op\":\"run\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"source\":\"y\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"p\":0}",
            "{\"op\":\"run\",\"program\":\"x\",\"engine\":\"warp\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"engine\":\"threaded\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"pattern\":\"fig9\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"typo\":1}",
            "{\"op\":\"run\",\"program\":\"x\",\"mesh\":{\"nx\":1}}",
            "{\"op\":\"run\",\"program\":\"x\",\"mesh\":{\"perturb\":5.0}}",
            "{\"op\":\"run\",\"program\":\"x\",\"mesh\":{\"perturb\":0.5}}",
            "{\"op\":\"run\",\"program\":\"x\",\"mesh\":{\"perturb\":-1e300}}",
            "{\"op\":\"run\",\"program\":\"x\",\"mesh\":{\"perturb\":1e999}}",
        ] {
            let err = parse_request(bad).expect_err(bad);
            if bad.contains("engine") {
                assert!(err.contains("(round-robin|batched|overlapped)"), "{err}");
            }
            if bad.contains("perturb") {
                assert!(err.contains("0.0..0.5"), "{err}");
            }
        }
    }

    #[test]
    fn deeply_nested_request_is_bad_json_not_an_overflow() {
        // On a thread with the default stack, as the daemon's handlers are.
        let err = std::thread::spawn(|| parse_request(&"[".repeat(200_000)).unwrap_err())
            .join()
            .unwrap();
        assert!(err.starts_with("bad JSON: nesting"), "{err}");
    }

    #[test]
    fn mesh_size_is_bounded_by_its_cell_count() {
        let run = |nx: usize, ny: usize| {
            parse_request(&format!(
                "{{\"op\":\"run\",\"program\":\"x\",\"mesh\":{{\"nx\":{nx},\"ny\":{ny}}}}}"
            ))
        };
        let Request::Run(r) = run(1024, 1024).unwrap() else { panic!("not run") };
        assert_eq!((r.mesh.nx, r.mesh.ny), (1024, 1024));
        let err = run(1025, 1024).expect_err("1025x1024 is over the limit");
        assert!(err.contains("1048576 cells"), "{err}");
    }

    #[test]
    fn ping_and_shutdown_parse() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn stats_and_dump_parse_and_are_terminal() {
        assert_eq!(parse_request("{\"op\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(parse_request("{\"op\":\"dump\"}").unwrap(), Request::Dump);
        assert!(is_terminal("stats"));
        assert!(is_terminal("dump"));
    }

    #[test]
    fn busy_error_carries_its_reason() {
        let line = render_busy("capacity", "4 running and 16 queued");
        let v = syncplace::obs::json::parse(&line).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("busy"));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("capacity"));
        let line = render_busy("shutdown", "the daemon is draining");
        assert!(line.contains("\"reason\":\"shutdown\""));
    }

    #[test]
    fn rendered_events_are_valid_json() {
        for line in [
            render_result(3, 2, 10, 100, 1.5, 0xdead_beef),
            render_diag("hit", "miss", 4, 12.25, None),
            render_diag("miss", "miss", 1, 0.5, Some("{\"counters\":{}}")),
            render_error("busy", "queue full (depth 16)"),
            render_bye(),
        ] {
            let v = syncplace::obs::json::parse(&line).expect(&line);
            assert!(is_terminal(v.get("event").unwrap().as_str().unwrap()) || line.contains("diag"));
        }
    }
}
