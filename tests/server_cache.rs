//! Placement-server cache contract (PR 7): content-hash keys hit and
//! miss exactly when they should, cached results are bitwise identical
//! to fresh ones, the LRU bound evicts in recency order, single-flight
//! compiles once under contention, and the daemon serves the whole
//! protocol over a real Unix socket.

use std::sync::{Arc, Barrier};

use syncplace_server::cache::Lookup;
use syncplace_server::protocol::{parse_request, Request, RunRequest};
use syncplace_server::service::{ServeError, Service};
use syncplace_server::{Client, Daemon, ServiceConfig};

fn run_req(json: &str) -> RunRequest {
    match parse_request(json).expect("request parses") {
        Request::Run(r) => *r,
        other => panic!("not a run request: {other:?}"),
    }
}

fn testiv_req(p: usize, pattern: &str, engine: &str) -> RunRequest {
    run_req(&format!(
        "{{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{{\"nx\":8,\"ny\":8}},\
         \"pattern\":\"{pattern}\",\"p\":{p},\"engine\":\"{engine}\"}}"
    ))
}

/// The headline guarantee: a cached (hit/hit) response is bitwise
/// identical to a fresh compile of the same request — full output
/// arrays, not just the checksum. Verified across two independent
/// services so "fresh" really is a from-scratch compile.
#[test]
fn cached_and_fresh_results_are_bitwise_identical() {
    let req = testiv_req(2, "fig1", "batched");

    let warm = Service::new(ServiceConfig::default());
    let cold = warm.run(&req).unwrap();
    assert_eq!((cold.placement, cold.plan), (Lookup::Miss, Lookup::Miss));
    let hot = warm.run(&req).unwrap();
    assert_eq!((hot.placement, hot.plan), (Lookup::Hit, Lookup::Hit));

    let fresh = Service::new(ServiceConfig::default()).run(&req).unwrap();
    assert_eq!(fresh.placement, Lookup::Miss);

    assert_eq!(hot.checksum, cold.checksum);
    assert_eq!(hot.checksum, fresh.checksum);
    // Bitwise equality of every output value, not approximate.
    for (out, label) in [(&hot, "hot"), (&fresh, "fresh")] {
        assert_eq!(
            out.result.output_arrays.len(),
            cold.result.output_arrays.len()
        );
        for (var, a) in cold.result.output_arrays.iter() {
            let b = &out.result.output_arrays[var];
            assert_eq!(a.len(), b.len(), "{label}: array length for {var:?}");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: {var:?}[{i}]");
            }
        }
        for (var, x) in cold.result.output_scalars.iter() {
            assert_eq!(
                x.to_bits(),
                out.result.output_scalars[var].to_bits(),
                "{label}: scalar {var:?}"
            );
        }
    }
}

/// Daemon answers pinned to exact values — the `result` line's
/// iterations, messages, values and checksum — for every built-in
/// program and pattern on every engine, so a change in what an engine
/// computes or in the digest's order cannot pass as "two runs agree".
#[test]
fn daemon_answers_are_pinned() {
    let svc = Service::new(ServiceConfig::default());
    for (program, pattern, iterations, messages, values, checksum) in [
        ("testiv", "fig1", 100, 1600, 4400, "6957eb3592644aa5"),
        ("testiv", "fig2", 100, 1600, 4400, "2ce57cf606d922d4"),
        ("testiv", "2layer", 100, 1800, 9200, "6957eb3592644aa5"),
        ("fig5-sketch", "fig1", 0, 16, 44, "ea665c41f2f001bb"),
        ("edge-smooth", "fig1", 0, 10, 38, "90d57ede1af0971f"),
    ] {
        for engine in syncplace::Engine::ALL {
            let out = svc
                .run(&run_req(&format!(
                    "{{\"op\":\"run\",\"program\":\"{program}\",\"mesh\":{{\"nx\":8,\"ny\":8}},\
                     \"pattern\":\"{pattern}\",\"p\":4,\"engine\":\"{}\"}}",
                    engine.name()
                )))
                .unwrap();
            let (r, what) = (&out.result, format!("{program} {pattern} {}", engine.name()));
            assert_eq!(
                (r.iterations, r.stats.total_messages(), r.stats.total_values()),
                (iterations, messages, values),
                "{what}"
            );
            assert_eq!(format!("{:016x}", out.checksum), checksum, "{what}");
        }
    }
}

/// Key sensitivity: which request fields miss which cache. The
/// placement key sees (program, automaton); the plan key additionally
/// sees (mesh, pattern, P); the engine is in neither.
#[test]
fn cache_keys_are_sensitive_to_the_right_fields() {
    let svc = Service::new(ServiceConfig::default());
    let base = testiv_req(2, "fig1", "batched");
    let first = svc.run(&base).unwrap();
    assert_eq!((first.placement, first.plan), (Lookup::Miss, Lookup::Miss));

    // P change: placement reused (mesh-independent analysis, §5.3),
    // plan recompiled.
    let p3 = svc.run(&testiv_req(3, "fig1", "batched")).unwrap();
    assert_eq!((p3.placement, p3.plan), (Lookup::Hit, Lookup::Miss));

    // Pattern change: a different automaton, so both caches miss.
    let fig2 = svc.run(&testiv_req(2, "fig2", "batched")).unwrap();
    assert_eq!((fig2.placement, fig2.plan), (Lookup::Miss, Lookup::Miss));

    // Program change: both miss.
    let sketch = svc
        .run(&run_req(
            "{\"op\":\"run\",\"program\":\"fig5-sketch\",\"mesh\":{\"nx\":8,\"ny\":8},\"p\":2}",
        ))
        .unwrap();
    assert_eq!((sketch.placement, sketch.plan), (Lookup::Miss, Lookup::Miss));

    // Mesh change: placement reused, plan recompiled.
    let mesh = svc
        .run(&run_req(
            "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":9,\"ny\":8},\"p\":2}",
        ))
        .unwrap();
    assert_eq!((mesh.placement, mesh.plan), (Lookup::Hit, Lookup::Miss));

    // Engine change: in NEITHER key (engines are bitwise-identical),
    // so everything is reused and the answer doesn't move.
    let overlapped = svc.run(&testiv_req(2, "fig1", "overlapped")).unwrap();
    assert_eq!((overlapped.placement, overlapped.plan), (Lookup::Hit, Lookup::Hit));
    assert_eq!(overlapped.checksum, first.checksum);
}

/// Formatting-only program changes share a content hash: the key is
/// derived from the canonical (re-printed) text, not the raw source.
#[test]
fn whitespace_does_not_change_the_content_hash() {
    let svc = Service::new(ServiceConfig::default());
    let tidy = run_req(
        "{\"op\":\"run\",\"source\":\"program t\\n  input A : node\\n  output B : node\\n  \
         forall i in node split { B(i) = A(i) * 2.0 }\\nend\\n\",\"mesh\":{\"nx\":6,\"ny\":6},\"p\":2}",
    );
    let messy = run_req(
        "{\"op\":\"run\",\"source\":\"program   t\\n\\n  input A : node\\n  output B : node\\n  \
         forall i in node split {\\n    B(i) = A(i) * 2.0\\n  }\\nend\\n\",\"mesh\":{\"nx\":6,\"ny\":6},\"p\":2}",
    );
    let first = svc.run(&tidy).unwrap();
    assert_eq!(first.placement, Lookup::Miss);
    // The messy text misses the text memo once, then hits it; both
    // sends share the tidy text's placement, plan and answer.
    for _ in 0..2 {
        let again = svc.run(&messy).unwrap();
        assert_eq!((again.placement, again.plan), (Lookup::Hit, Lookup::Hit));
        assert_eq!(again.checksum, first.checksum);
    }
    let texts = svc.stats().texts;
    assert_eq!((texts.misses, texts.hits), (2, 1));
    // One constant differs: a different program.
    let other = run_req(&tidy_json(&tidy_src().replace("2.0", "3.0"), "fig1"));
    assert_eq!(svc.run(&other).unwrap().placement, Lookup::Miss);
    // The same raw text under another pattern: another automaton, so
    // the first pattern's placement is not reused.
    let fig2 = svc.run(&run_req(&tidy_json(&tidy_src(), "fig2"))).unwrap();
    assert_eq!(fig2.placement, Lookup::Miss);
}

/// The tidy one-loop program of the whitespace test.
fn tidy_src() -> String {
    "program t\n  input A : node\n  output B : node\n  \
     forall i in node split { B(i) = A(i) * 2.0 }\nend\n"
        .to_string()
}

fn tidy_json(src: &str, pattern: &str) -> String {
    format!(
        "{{\"op\":\"run\",\"source\":{},\"mesh\":{{\"nx\":6,\"ny\":6}},\
         \"pattern\":\"{pattern}\",\"p\":2}}",
        syncplace::obs::trace::json_escape(src)
    )
}

/// The text memo shares the placement cache's bound: more distinct
/// texts than `placement_cap` leave it at `placement_cap` entries.
#[test]
fn the_text_memo_is_bounded_by_placement_cap() {
    let cap = 3;
    let svc = Service::new(ServiceConfig {
        placement_cap: cap,
        ..Default::default()
    });
    for k in 0..cap + 5 {
        let src = tidy_src().replace("2.0", &format!("{k}.5"));
        svc.run(&run_req(&tidy_json(&src, "fig1"))).unwrap();
    }
    let texts = svc.stats().texts;
    assert_eq!(texts.compiles, (cap + 5) as u64);
    assert!(texts.len <= cap, "{} entries over a cap of {cap}", texts.len);
}

/// LRU eviction: with a plan cache bounded to 2, a third distinct plan
/// evicts the least-recently-used entry — and "used" includes hits,
/// not just inserts.
#[test]
fn plan_cache_evicts_in_recency_order() {
    let svc = Service::new(ServiceConfig {
        plan_cap: 2,
        ..Default::default()
    });
    let req_p = |p: usize| testiv_req(p, "fig1", "batched");
    assert_eq!(svc.run(&req_p(2)).unwrap().plan, Lookup::Miss);
    assert_eq!(svc.run(&req_p(3)).unwrap().plan, Lookup::Miss);
    // Touch P=2 so P=3 becomes the LRU victim.
    assert_eq!(svc.run(&req_p(2)).unwrap().plan, Lookup::Hit);
    // Insert a third plan: evicts P=3, keeps P=2.
    assert_eq!(svc.run(&req_p(4)).unwrap().plan, Lookup::Miss);
    assert_eq!(svc.run(&req_p(2)).unwrap().plan, Lookup::Hit);
    assert_eq!(svc.run(&req_p(3)).unwrap().plan, Lookup::Miss);
    let stats = svc.stats();
    assert_eq!(stats.plans.evictions, 2); // P=3 evicted, then P=4.
    assert_eq!(stats.placements.compiles, 1); // analysis shared by all.
}

/// Single-flight: concurrent identical requests on a cold cache
/// compile the placement and the plan exactly once.
#[test]
fn concurrent_identical_requests_compile_once() {
    let svc = Arc::new(Service::new(ServiceConfig::default()));
    let n = 6;
    let gate = Arc::new(Barrier::new(n));
    let checksums: Vec<u64> = (0..n)
        .map(|_| {
            let (svc, gate) = (Arc::clone(&svc), Arc::clone(&gate));
            std::thread::spawn(move || {
                gate.wait();
                svc.run(&testiv_req(2, "fig1", "batched")).unwrap().checksum
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    assert!(checksums.windows(2).all(|w| w[0] == w[1]));
    let stats = svc.stats();
    assert_eq!(stats.requests, n as u64);
    assert_eq!(stats.placements.compiles, 1, "placement compiled once");
    assert_eq!(stats.plans.compiles, 1, "plan compiled once");
}

/// Admission control sheds (429-style) instead of queueing unboundedly.
/// With one execution slot, no queue, and four threads firing ten
/// requests each in lock-step, overlap — and therefore at least one
/// shed — is guaranteed: every round either all four land on the same
/// slot (three shed) or the round count shrinks only through Busy.
#[test]
fn admission_control_sheds_beyond_the_queue() {
    let svc = Arc::new(Service::new(ServiceConfig {
        max_inflight: 1,
        queue_depth: 0,
        ..Default::default()
    }));
    // Warm the caches so contended requests are pure engine runs.
    svc.run(&testiv_req(2, "fig1", "batched")).unwrap();
    let n = 4;
    let gate = Arc::new(Barrier::new(n));
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let (svc, gate) = (Arc::clone(&svc), Arc::clone(&gate));
            std::thread::spawn(move || {
                let mut busy = 0u64;
                for _ in 0..10 {
                    gate.wait();
                    match svc.run(&testiv_req(2, "fig1", "batched")) {
                        Err(ServeError::Busy { .. }) => busy += 1,
                        other => {
                            other.expect("only Busy is an acceptable error");
                        }
                    }
                }
                busy
            })
        })
        .collect();
    let total_busy: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(total_busy >= 1, "40 lock-step requests on 1 slot never shed");
    let stats = svc.stats();
    assert_eq!(stats.shed, total_busy);
    // Every shed here was a capacity shed, and the split reconciles.
    assert_eq!(stats.shed_capacity, total_busy);
    assert_eq!(stats.shed_shutdown, 0);
    assert_eq!(
        svc.metrics().snapshot().counter(syncplace::obs::keys::SERVER_SHED_CAPACITY),
        total_busy
    );
}

/// End to end over a real Unix-domain socket: run (with diagnostics),
/// ping, shutdown — and stale-socket recovery on rebind.
#[test]
fn daemon_serves_the_protocol_over_a_socket() {
    let socket = std::env::temp_dir().join(format!(
        "syncplace-test-{}-{:?}.sock",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&socket);
    let handle = Daemon::spawn(&socket, ServiceConfig::default()).unwrap();
    let mut client = Client::connect(&socket).unwrap();

    // run with diag: a diag event then a result event.
    let events = client
        .request(
            "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":8,\"ny\":8},\
             \"p\":2,\"diag\":true}",
        )
        .unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].get("event").unwrap().as_str(), Some("diag"));
    let cache = events[0].get("cache").unwrap();
    assert_eq!(cache.get("placement").unwrap().as_str(), Some("miss"));
    assert_eq!(events[1].get("event").unwrap().as_str(), Some("result"));
    assert!(events[1].get("checksum").is_some());
    // The diag trace is this run's engine counters, in the one
    // snapshot schema `stats.metrics` is also rendered in.
    let trace = events[0].get("trace").unwrap();
    assert!(trace.get("counters").unwrap().get("engine.iterations").is_some());
    let stats = client.request("{\"op\":\"stats\"}").unwrap();
    let top_level = |v: &syncplace::obs::json::Value| match v {
        syncplace::obs::json::Value::Obj(members) => {
            members.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
        }
        other => panic!("not an object: {other:?}"),
    };
    assert_eq!(top_level(trace), top_level(stats[0].get("metrics").unwrap()));
    assert_eq!(
        top_level(trace),
        ["counters", "gauges", "hists", "packets", "dropped"]
    );
    assert_eq!(trace.get("dropped").unwrap().as_f64(), Some(0.0));

    // Malformed and unservable requests answer structured errors.
    let bad = client.request("{\"op\":\"run\"}").unwrap();
    assert_eq!(bad[0].get("event").unwrap().as_str(), Some("error"));
    assert_eq!(bad[0].get("code").unwrap().as_str(), Some("bad-request"));
    let unknown = client
        .request("{\"op\":\"run\",\"program\":\"no-such\",\"p\":2}")
        .unwrap();
    assert_eq!(unknown[0].get("code").unwrap().as_str(), Some("invalid"));
    // An out-of-range `perturb` is refused by the parser — it used to
    // reach `perturbed_grid`'s assert and kill this handler thread; the
    // ping below shows the connection is still usable.
    let perturb = client
        .request(
            "{\"op\":\"run\",\"program\":\"testiv\",\
             \"mesh\":{\"nx\":3,\"ny\":3,\"perturb\":5.0},\"p\":4}",
        )
        .unwrap();
    assert_eq!(perturb[0].get("code").unwrap().as_str(), Some("bad-request"));

    // ping reflects the traffic so far.
    let pong = client.request("{\"op\":\"ping\"}").unwrap();
    assert_eq!(pong[0].get("event").unwrap().as_str(), Some("pong"));
    assert_eq!(pong[0].get("requests").unwrap().as_f64(), Some(2.0));
    let place = pong[0].get("placement_cache").unwrap();
    assert_eq!(place.get("compiles").unwrap().as_f64(), Some(1.0));

    // shutdown answers bye and the daemon exits, removing the socket.
    let bye = client.request("{\"op\":\"shutdown\"}").unwrap();
    assert_eq!(bye[0].get("event").unwrap().as_str(), Some("bye"));
    handle.stop().unwrap();
    assert!(!socket.exists(), "socket file not cleaned up");

    // Stale-socket recovery: a leftover socket file whose owner is
    // dead must not block a fresh daemon.
    {
        let stale = std::os::unix::net::UnixListener::bind(&socket).unwrap();
        drop(stale); // dies without unlinking the file
    }
    assert!(socket.exists());
    let handle = Daemon::spawn(&socket, ServiceConfig::default()).unwrap();
    let mut client = Client::connect(&socket).unwrap();
    let pong = client.request("{\"op\":\"ping\"}").unwrap();
    assert_eq!(pong[0].get("requests").unwrap().as_f64(), Some(0.0));
    handle.stop().unwrap();
}

fn scratch_socket(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "syncplace-test-{tag}-{}-{:?}.sock",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// A request line is read into a bounded buffer: 2 MiB without a
/// newline gets one typed error and a closed connection, is counted,
/// and leaves the daemon serving.
#[test]
fn over_long_request_line_is_refused_over_the_socket() {
    use std::io::{BufRead, BufReader, Write};
    let socket = scratch_socket("longline");
    let _ = std::fs::remove_file(&socket);
    let handle = Daemon::spawn(&socket, ServiceConfig::default()).unwrap();

    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    // The daemon hangs up once it has read past its cap, so the tail
    // of this write fails with EPIPE.
    let _ = stream.write_all(&vec![b'x'; 2 << 20]);
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    let ev = syncplace::obs::json::parse(reply.trim()).unwrap();
    assert_eq!(ev.get("code").unwrap().as_str(), Some("bad-request"));
    let msg = ev.get("detail").unwrap().as_str().unwrap();
    assert!(msg.contains("request exceeds 1048576 bytes"), "{msg}");

    let mut client = Client::connect(&socket).unwrap();
    let pong = client.request("{\"op\":\"ping\"}").unwrap();
    assert_eq!(pong[0].get("event").unwrap().as_str(), Some("pong"));
    let stats = client.request("{\"op\":\"stats\"}").unwrap();
    let counters = stats[0].get("metrics").unwrap().get("counters").unwrap();
    assert_eq!(counters.get("server.io_error").unwrap().as_f64(), Some(1.0));
    handle.stop().unwrap();
}

/// A request line that is not UTF-8 gets a typed error, is no I/O
/// error, and the same connection then serves a `ping`.
#[test]
fn non_utf8_request_line_is_refused_and_the_connection_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let socket = scratch_socket("non-utf8");
    let _ = std::fs::remove_file(&socket);
    let handle = Daemon::spawn(&socket, ServiceConfig::default()).unwrap();
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &[u8]| {
        stream.write_all(line).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        syncplace::obs::json::parse(reply.trim()).expect(&reply)
    };

    let bad = ask(b"\xff\xfe{\"op\":\"ping\"}\n");
    assert_eq!(bad.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(bad.get("code").unwrap().as_str(), Some("bad-request"));
    let msg = bad.get("detail").unwrap().as_str().unwrap();
    assert!(msg.contains("not UTF-8"), "{msg}");

    let pong = ask(b"{\"op\":\"ping\"}\n");
    assert_eq!(pong.get("event").unwrap().as_str(), Some("pong"));
    let stats = ask(b"{\"op\":\"stats\"}\n");
    let counters = stats.get("metrics").unwrap().get("counters").unwrap();
    assert!(counters.get("server.io_error").is_none());
    handle.stop().unwrap();
}

/// The one engine `Err` a request can reach: a `seq` entity loop,
/// which every engine refuses alike when the run starts, before any
/// statement executes. The daemon answers the same typed line for all
/// three, the handler thread survives, and the same connection then
/// serves a cold and a hot `testiv`.
#[test]
fn engine_error_is_a_typed_line_and_the_connection_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let socket = scratch_socket("engine-err");
    let _ = std::fs::remove_file(&socket);
    let handle = Daemon::spawn(&socket, ServiceConfig::default()).unwrap();
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim().to_string()
    };

    let seq_loop = "{\"op\":\"run\",\"source\":\"program t\\n input A : node\\n output B : node\\n \
                    forall i in node seq { B(i) = A(i) }\\nend\",\"mesh\":{\"nx\":4,\"ny\":4},\"p\":4}";
    for engine in ["round-robin", "batched", "overlapped"] {
        let line = seq_loop.replacen("{", &format!("{{\"engine\":\"{engine}\","), 1);
        assert_eq!(
            ask(&line),
            "{\"event\":\"error\",\"code\":\"invalid\",\"detail\":\"sequential entity loops unsupported\"}",
            "{engine}"
        );
    }
    let testiv = "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":8,\"ny\":8},\"p\":4}";
    let cold = syncplace::obs::json::parse(&ask(testiv)).unwrap();
    let hot = syncplace::obs::json::parse(&ask(testiv)).unwrap();
    for ev in [&cold, &hot] {
        assert_eq!(ev.get("event").unwrap().as_str(), Some("result"));
    }
    assert_eq!(hot.get("checksum").unwrap().as_str(), cold.get("checksum").unwrap().as_str());
    let pong = syncplace::obs::json::parse(&ask("{\"op\":\"ping\"}")).unwrap();
    // The engine is in no cache key: the later failing requests and the
    // second `testiv` were all hot.
    assert_eq!(pong.get("plan_cache").unwrap().get("hits").unwrap().as_f64(), Some(3.0));
    handle.stop().unwrap();
}

/// The `stats` verb over a real socket: after known traffic, the
/// metrics snapshot must reconcile exactly with what the client sent,
/// and the embedded exposition text must validate.
#[test]
fn stats_verb_reconciles_with_traffic_over_the_socket() {
    let socket = scratch_socket("stats");
    let _ = std::fs::remove_file(&socket);
    let handle = Daemon::spawn(&socket, ServiceConfig::default()).unwrap();
    let mut client = Client::connect(&socket).unwrap();

    let line = "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":8,\"ny\":8},\"p\":2}";
    for _ in 0..3 {
        let events = client.request(line).unwrap();
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("result"));
    }

    let stats = client.request("{\"op\":\"stats\"}").unwrap();
    assert_eq!(stats.len(), 1);
    let ev = &stats[0];
    assert_eq!(ev.get("event").unwrap().as_str(), Some("stats"));
    assert_eq!(ev.get("requests").unwrap().as_f64(), Some(3.0));
    let counters = ev.get("metrics").unwrap().get("counters").unwrap();
    let ctr = |k: &str| counters.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    // The ledger: 1 cold (miss/miss) + 2 hot (hit/hit), zero sheds —
    // and hits + misses == requests per cache. One connection sends
    // one request at a time, so no build is ever joined in flight.
    assert_eq!(ctr("server.requests"), 3.0);
    assert_eq!(ctr("server.place_hits"), 2.0);
    assert_eq!(ctr("server.place_misses"), 1.0);
    assert_eq!(ctr("server.place_joins"), 0.0);
    assert_eq!(ctr("server.plan_hits"), 2.0);
    assert_eq!(ctr("server.plan_misses"), 1.0);
    assert_eq!(ctr("server.plan_joins"), 0.0);
    assert_eq!(ctr("server.shed"), 0.0);
    // The request histogram saw every run with a real latency.
    let hists = ev.get("metrics").unwrap().get("hists").unwrap().as_arr().unwrap();
    let req_hist = hists
        .iter()
        .find(|h| h.get("name").and_then(|n| n.as_str()) == Some("server.request"))
        .expect("server.request histogram");
    assert_eq!(req_hist.get("count").unwrap().as_f64(), Some(3.0));
    assert!(req_hist.get("p99_ms").unwrap().as_f64().unwrap() > 0.0);
    // The exposition validates and is non-trivial.
    let expo = ev.get("exposition").unwrap().as_str().unwrap();
    let samples = syncplace::obs::validate_exposition(expo).unwrap();
    assert!(samples >= 10, "expected a rich exposition, got {samples} samples");

    handle.stop().unwrap();
}

/// The `dump` verb over a real socket: the flight ring replays the
/// last-N request spans in order (every verb, not just runs), stays
/// bounded under overflow, and drains on read.
#[test]
fn dump_verb_replays_a_bounded_span_ring_over_the_socket() {
    let socket = scratch_socket("dump");
    let _ = std::fs::remove_file(&socket);
    // The ring minimum is 8: ask for less, get 8.
    let handle = Daemon::spawn(
        &socket,
        ServiceConfig {
            flight_cap: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(&socket).unwrap();

    let line = "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":8,\"ny\":8},\"p\":2}";
    for _ in 0..10 {
        client.request(line).unwrap();
    }
    client.request("{\"op\":\"ping\"}").unwrap();

    let dump = client.request("{\"op\":\"dump\"}").unwrap();
    let ev = &dump[0];
    assert_eq!(ev.get("event").unwrap().as_str(), Some("dump"));
    let events = ev.get("events").unwrap().as_arr().unwrap();
    // 10 runs + ping + the dump's own span = 12 appends into a ring
    // of 8: exactly 8 survive, 4 overwritten.
    assert_eq!(events.len(), 8);
    assert_eq!(ev.get("dropped").unwrap().as_f64(), Some(4.0));
    // Append order is replay order, and the tail reads
    // ... run, ping, dump — every verb got a span.
    let verbs: Vec<&str> = events
        .iter()
        .map(|e| e.get("verb").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(&verbs[..6], &["run"; 6]);
    assert_eq!(&verbs[6..], &["ping", "dump"]);
    let seqs: Vec<f64> = events
        .iter()
        .map(|e| e.get("seq").unwrap().as_f64().unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs not increasing: {seqs:?}");
    // Run spans carry the latency split and cache outcomes.
    let run_span = &events[0];
    assert_eq!(run_span.get("outcome").unwrap().as_str(), Some("ok"));
    assert_eq!(
        run_span.get("cache").unwrap().get("placement").unwrap().as_str(),
        Some("hit")
    );
    assert!(run_span.get("engine_ms").unwrap().as_f64().unwrap() > 0.0);

    // A dump drains: the next one holds only its own span.
    let again = client.request("{\"op\":\"dump\"}").unwrap();
    let events = again[0].get("events").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].get("verb").unwrap().as_str(), Some("dump"));

    handle.stop().unwrap();
}

/// A draining daemon sheds new work with reason `shutdown`, and the
/// busy error carries that reason over the wire.
#[test]
fn busy_errors_carry_the_shutdown_reason_over_the_socket() {
    let socket = scratch_socket("drain");
    let _ = std::fs::remove_file(&socket);
    let handle = Daemon::spawn(&socket, ServiceConfig::default()).unwrap();
    let mut client = Client::connect(&socket).unwrap();
    let line = "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":8,\"ny\":8},\"p\":2}";
    client.request(line).unwrap();

    handle.service().drain();
    let events = client.request(line).unwrap();
    assert_eq!(events[0].get("event").unwrap().as_str(), Some("error"));
    assert_eq!(events[0].get("code").unwrap().as_str(), Some("busy"));
    assert_eq!(events[0].get("reason").unwrap().as_str(), Some("shutdown"));
    let stats = handle.service().stats();
    assert_eq!(stats.shed_shutdown, 1);
    assert_eq!(stats.requests, 1);

    handle.stop().unwrap();
}

/// Killing a request mid-flight: a panic on a thread holding an
/// in-flight span triggers the flight recorder's panic flush, which
/// captures that span (verb + `inflight` outcome) so the operator can
/// see what the daemon was doing when it died.
#[test]
fn panic_mid_request_flushes_the_inflight_span() {
    let svc = Service::new(ServiceConfig::default());
    // Warm the service so the flight ring holds history too.
    svc.run(&testiv_req(2, "fig1", "batched")).unwrap();

    let flight = Arc::clone(svc.flight());
    let t = std::thread::spawn(move || {
        let _seq = flight.begin("run");
        // Simulated kill mid-request: the span is begun, never
        // completed.
        panic!("engine died mid-request");
    });
    assert!(t.join().is_err());

    let flushed = syncplace_server::flight::last_panic_flush()
        .expect("the panic hook must capture a flush while a span is in flight");
    assert!(flushed.contains("\"outcome\":\"inflight\""), "{flushed}");
    assert!(flushed.contains("\"verb\":\"run\""), "{flushed}");
    // The ring history (the completed warm-up run) rides along.
    assert!(flushed.contains("\"outcome\":\"ok\""), "{flushed}");
}
