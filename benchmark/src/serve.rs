//! `serve-mixed`: one `run` request → terminal event over the Unix
//! socket, closed loop, two client connections against a real `Daemon`
//! with the default `ServiceConfig`.
//!
//! Each connection sends whole blocks of 96 hot requests (12 keys × 8:
//! `fig5-sketch`, `edge-smooth`, `wide(3)` × {16×16, 32×32} × P ∈ {2, 4};
//! no time loop, so the engine is about half of a ≈1 ms request) plus one
//! cold `wide(5)` text the daemon has never seen; order comes from the
//! seed and both caches are warmed in set-up. The `server` layer
//! (protocol, canonicalisation, hashing, caches, admission, input
//! synthesis, checksum) is the work; the cold request in every block
//! shows what a cache miss costs its neighbours.
//!
//! `op_ms_min` is the hot latency; the cold requests weigh on
//! `ops_per_s` and are reported as `server.cold_ms_p50` by the traced
//! run, which also drives `Service::run` in process to split wire time
//! from service time.
//!
//! Every reply is checked against the generator's ledger: hot checksums
//! equal the warm-up's, the daemon's hit/miss counters move by exactly
//! the hot/cold requests sent, nothing is shed, and a re-sent cold text
//! diagnoses `hit`/`hit` with its first checksum.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::harness::{drive, Outcome, RunConfig, OUT_DIR};
use crate::inputs::{cold_id, cold_line, hot_keys, request_block, Request, COLD_KIND};
use crate::layers::{Conn, DaemonUnderTest, InProc, Reply, ServerCounters};
use crate::metrics::SERVER_HOT_SPAN;
use crate::trace::Tracer;

/// Closed-loop client connections.
const CONNS: usize = 2;

/// What a request is sent to.
enum Target<'a> {
    Socket(&'a mut Conn),
    InProc(&'a InProc),
}

impl Target<'_> {
    fn run(&mut self, line: &str) -> Result<Reply, String> {
        match self {
            Target::Socket(conn) => conn.run(line),
            Target::InProc(svc) => svc.run(line),
        }
    }

    /// Span names of hot and cold requests.
    fn spans(&self) -> (&'static str, &'static str) {
        match self {
            Target::Socket(_) => (SERVER_HOT_SPAN, "server.cold_ms_p50"),
            Target::InProc(_) => ("server.inproc_hot_ms_p50", "server.inproc_cold_ms"),
        }
    }
}

/// What one connection's loop produced.
struct ConnLog {
    tracer: Tracer,
    /// `(kind, latency ms, traced block)` per request.
    samples: Vec<(u32, f64, bool)>,
    failures: Vec<String>,
    /// Identifier and checksum of the last cold request.
    last_cold: Option<(usize, String)>,
}

/// Send connection `conn`'s stream to `target`, closed loop — one block
/// without a deadline, else whole blocks until it passes — and check every
/// reply against the ledger of warm-up checksums.
fn closed_loop(
    mut tracer: Tracer,
    cfg: &RunConfig,
    mut target: Target<'_>,
    conn: usize,
    keys: &[Request],
    ledger: &[String],
    deadline: Option<Instant>,
) -> ConnLog {
    let (hot_span, cold_span) = target.spans();
    let mut log = ConnLog {
        tracer: Tracer::new(false),
        samples: Vec::new(),
        failures: Vec::new(),
        last_cold: None,
    };
    let traced_run = tracer.enabled();
    let mut block = 0usize;
    loop {
        // A traced run alternates untraced and traced blocks, swapping
        // the order every pair, so the two medians see the same machine.
        let traced = traced_run && (deadline.is_none() || (block + block / 2) % 2 == 1);
        tracer.set_enabled(traced);
        for (i, req) in request_block(cfg.seed, conn, block, keys)
            .iter()
            .enumerate()
        {
            let cold = req.kind == COLD_KIND;
            tracer.set_op((block * 1000 + i) as u64, req.kind);
            let t0 = Instant::now();
            let reply = tracer.leaf(if cold { cold_span } else { hot_span }, || {
                target.run(&req.line)
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            log.samples.push((req.kind, ms, traced));
            match reply {
                Ok(r) if r.ok => {
                    if cold {
                        if let Some(ms) = r.compile_ms {
                            tracer.reported_ms("server.compile_ms_p50", ms);
                        }
                        log.last_cold = Some((cold_id(conn, block), r.checksum));
                    } else {
                        tracer.reported_ms("server.run_ms_p50", r.run_ms);
                        if r.checksum != ledger[req.kind as usize] {
                            log.failures
                                .push(format!("key {}: checksum off the ledger", req.kind));
                        }
                    }
                }
                Ok(r) => log.failures.push(format!("kind {}: {}", req.kind, r.error)),
                Err(e) => log.failures.push(format!("kind {}: {e}", req.kind)),
            }
        }
        block += 1;
        let whole = !traced_run || block.is_multiple_of(2);
        match deadline {
            None => break,
            Some(d) if whole && Instant::now() >= d => break,
            Some(_) => {}
        }
    }
    tracer.set_enabled(traced_run);
    log.tracer = tracer;
    log
}

/// A running daemon with warmed caches and its client connections.
struct Session {
    // Dropped in declaration order: connections close before the daemon
    // stops.
    conns: Vec<Conn>,
    daemon: Option<DaemonUnderTest>,
    keys: Vec<Request>,
    /// Warm-up checksum per key.
    ledger: Vec<String>,
}

impl Drop for Session {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(d) = self.daemon.take() {
            let _ = d.stop();
        }
    }
}

fn socket_path(tag: &str) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("d{}-{tag}.sock", std::process::id()))
}

/// Warm `target`'s caches with every key once and return the checksum
/// ledger. The first key of each program must diagnose a placement miss,
/// the other keys a placement hit, and all a plan miss.
fn warm(target: &mut Target<'_>, seed: u64, nkeys: usize) -> Result<Vec<String>, String> {
    let mut ledger = Vec::new();
    for key in hot_keys(seed, true).iter().take(nkeys) {
        let r = target.run(&key.line)?;
        if !r.ok {
            return Err(format!("warm-up of key {}: {}", key.kind, r.error));
        }
        let want = (if key.kind % 4 == 0 { "miss" } else { "hit" }, "miss");
        let got = r.cache.unwrap_or_default();
        if (got.0.as_str(), got.1.as_str()) != want {
            return Err(format!(
                "warm-up of key {}: cache diagnosed {got:?}, ledger says {want:?}",
                key.kind
            ));
        }
        ledger.push(r.checksum);
    }
    Ok(ledger)
}

impl Session {
    /// Spawn a daemon on a fresh socket, connect, warm `nkeys` keys.
    fn start(cfg: &RunConfig, tag: &str, nconns: usize, nkeys: usize) -> Result<Session, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let socket = socket_path(tag);
        let daemon = DaemonUnderTest::spawn(&socket)?;
        let mut s = Session {
            conns: Vec::new(),
            daemon: Some(daemon),
            keys: hot_keys(cfg.seed, false).into_iter().take(nkeys).collect(),
            ledger: Vec::new(),
        };
        for _ in 0..nconns {
            s.conns.push(Conn::connect(&socket)?);
        }
        s.ledger = warm(&mut Target::Socket(&mut s.conns[0]), cfg.seed, nkeys)?;
        Ok(s)
    }

    /// Drive every connection's closed loop at once and reconcile the
    /// daemon's counters with what was sent.
    fn measure(&mut self, cfg: &RunConfig, tracer: &mut Tracer, seconds: Option<f64>) -> Measured {
        let before = self.conns[0].counters();
        let t0 = Instant::now();
        let deadline = seconds.map(|s| t0 + Duration::from_secs_f64(s));
        let (keys, ledger) = (&self.keys, &self.ledger);
        let logs: Vec<ConnLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let tr = tracer.fork(i as u32 + 1);
                    scope.spawn(move || {
                        closed_loop(tr, cfg, Target::Socket(conn), i, keys, ledger, deadline)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut m = Measured::collect(logs, tracer);
        let after = self.conns[0].counters();
        match (before, after) {
            (Ok(b), Ok(a)) => m.reconcile(tracer, b, a),
            (Err(e), _) | (_, Err(e)) => m.failures.push(e),
        }
        // A cold text sent again must now hit both caches and repeat its
        // checksum.
        for (id, sum) in m.last_cold.clone() {
            match self.conns[0].run(&cold_line(cfg.seed, id, true)) {
                Ok(r) if r.ok && r.checksum == sum && r.cache == Some(hit_hit()) => {}
                Ok(r) => m.failures.push(format!(
                    "re-sent cold text: {:?} {} (first checksum {sum}) {}",
                    r.cache, r.checksum, r.error
                )),
                Err(e) => m.failures.push(e),
            }
        }
        m
    }
}

fn hit_hit() -> (String, String) {
    ("hit".to_string(), "hit".to_string())
}

/// The merged result of one closed-loop measurement.
#[derive(Default)]
struct Measured {
    samples: Vec<(u32, f64, bool)>,
    failures: Vec<String>,
    last_cold: Vec<(usize, String)>,
}

impl Measured {
    fn collect(logs: Vec<ConnLog>, tracer: &mut Tracer) -> Measured {
        let mut m = Measured::default();
        for log in logs {
            tracer.absorb(log.tracer);
            m.samples.extend(log.samples);
            m.failures.extend(log.failures);
            m.last_cold.extend(log.last_cold);
        }
        m
    }

    /// The daemon's counters must have moved by exactly what was sent.
    fn reconcile(&mut self, tracer: &mut Tracer, before: ServerCounters, after: ServerCounters) {
        let cold = self.samples.iter().filter(|s| s.0 == COLD_KIND).count() as u64;
        let hot = self.samples.len() as u64 - cold;
        let moved = ServerCounters {
            requests: after.requests - before.requests,
            shed: after.shed - before.shed,
            place_hits: after.place_hits - before.place_hits,
            place_misses: after.place_misses - before.place_misses,
            plan_hits: after.plan_hits - before.plan_hits,
            plan_misses: after.plan_misses - before.plan_misses,
        };
        let sent = ServerCounters {
            requests: hot + cold,
            shed: 0,
            place_hits: hot,
            place_misses: cold,
            plan_hits: hot,
            plan_misses: cold,
        };
        if moved != sent {
            self.failures.push(format!(
                "daemon counters moved by {moved:?}, ledger says {sent:?}"
            ));
        }
        for (name, v) in [
            ("server.requests", moved.requests),
            ("server.shed", moved.shed),
            ("server.place_hits", moved.place_hits),
            ("server.place_misses", moved.place_misses),
            ("server.plan_hits", moved.plan_hits),
            ("server.plan_misses", moved.plan_misses),
        ] {
            tracer.count(name, || v as f64);
        }
    }

    /// File samples and failures into the run's outcome.
    fn file(self, out: &mut Outcome, timed: bool) {
        out.attempted += self.samples.len() as u64;
        out.failures.extend(self.failures);
        if !timed {
            return;
        }
        for (kind, ms, traced) in self.samples {
            if traced {
                out.traced.push((kind, ms));
            } else {
                out.untraced.push((kind, ms));
            }
        }
    }
}

/// In-process counterpart of [`Session::measure`]: `CONNS` threads call
/// `Service::run` directly on the same streams.
fn measure_inproc(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    nkeys: usize,
    seconds: Option<f64>,
) -> Measured {
    let svc = InProc::new();
    let keys: Vec<Request> = hot_keys(cfg.seed, false).into_iter().take(nkeys).collect();
    let ledger = match warm(&mut Target::InProc(&svc), cfg.seed, nkeys) {
        Ok(l) => l,
        Err(e) => {
            return Measured {
                failures: vec![format!("in-process {e}")],
                ..Measured::default()
            }
        }
    };
    let t0 = Instant::now();
    let deadline = seconds.map(|s| t0 + Duration::from_secs_f64(s));
    let nthreads = if seconds.is_some() { CONNS } else { 1 };
    let (svc, keys, ledger) = (&svc, &keys, &ledger);
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|i| {
                let tr = tracer.fork(i as u32 + 1 + CONNS as u32);
                scope.spawn(move || {
                    closed_loop(tr, cfg, Target::InProc(svc), i, keys, ledger, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("in-process thread panicked"))
            .collect()
    });
    Measured::collect(logs, tracer)
}

/// The preflight's daemon round trip: one key, one block (8 hot + 1
/// cold) over the socket and in process, every check of the real
/// workload applied.
pub fn probe(tr: &mut Tracer, cfg: &RunConfig, rep: usize) -> Result<(), String> {
    let mut session = Session::start(cfg, &format!("p{rep}"), 1, 1)?;
    let mut failures = session.measure(cfg, tr, None).failures;
    failures.extend(measure_inproc(cfg, tr, 1, None).failures);
    match failures.first() {
        None => Ok(()),
        Some(f) => Err(format!("preflight daemon round trip: {f}")),
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let setup = |_: &mut Tracer, rep| Session::start(cfg, &format!("w{rep}"), CONNS, 12);
    drive(cfg, setup, |out, session| {
        out.secondary_kind = Some(COLD_KIND);
        out.clients = CONNS;
        // A traced run spends the last third of its time in process.
        let socket_s = if cfg.trace {
            cfg.seconds * 2.0 / 3.0
        } else {
            cfg.seconds
        };
        session
            .measure(cfg, &mut out.tracer, Some(socket_s))
            .file(out, true);
        if cfg.trace {
            measure_inproc(cfg, &mut out.tracer, 12, Some(cfg.seconds / 3.0)).file(out, false);
        }
    })
}
