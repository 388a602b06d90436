//! E23 / `serve-bench`: the cost of watching — the resident placement
//! daemon's hot request latency with telemetry on vs off.
//!
//! Two real [`Daemon`]s, one with telemetry on and one with it off,
//! serve the same hot `run` request on private sockets, driven over
//! the wire exactly like an external client would. The timed passes
//! **interleave** (off, on, off, on, …) so that machine-wide drift —
//! frequency scaling, background load, page cache — hits both sides
//! alike; each adjacent off/on pair yields one ratio and the reported
//! figure is the **median** of those ratios, which a single disturbed
//! pass cannot move (per-side minima can come from different machine
//! states, so a min/min ratio is noisier). The batched engine
//! dominates each request, so the per-request telemetry cost — a
//! handful of relaxed atomics plus one flight-ring append — should be
//! deep in the noise.
//!
//! This is the one wall-clock reading `reproduce` keeps: `benchmark/`
//! times the request path (`serve-mixed`) but always with telemetry
//! on, so it cannot price it. What the daemon computes — the request
//! ledger, miss/miss then hit/hit, bitwise-stable checksums, one
//! compile per program — is asserted by `tests/server_cache.rs`.
//!
//! The subcommand judges what it just measured and `reproduce` exits
//! non-zero on a fault: at any scale both daemons must answer every
//! request with a `result` and stop cleanly; at paper scale the ratio
//! must stay at or below 1.05× (the quick workload's absolute times are
//! too small to compare).
//!
//! [`Daemon`]: syncplace_server::Daemon

use std::path::PathBuf;
use std::time::Instant;

use syncplace::obs::json;
use syncplace::obs::trace::json_escape;
use syncplace_server::{Client, Daemon, DaemonHandle, ServiceConfig};

use crate::experiments::Scale;
use crate::setup;

/// The paper-scale ceiling on the telemetry-on / telemetry-off ratio.
const CEILING: f64 = 1.05;

/// Start a daemon on a private socket, telemetry on or off.
fn spawn(telemetry: bool) -> Result<(PathBuf, DaemonHandle), String> {
    let socket = std::env::temp_dir().join(format!(
        "syncplace-obs-overhead-{}-{}.sock",
        std::process::id(),
        telemetry as u8
    ));
    let _ = std::fs::remove_file(&socket);
    let cfg = ServiceConfig {
        telemetry,
        ..ServiceConfig::default()
    };
    let handle =
        Daemon::spawn(&socket, cfg).map_err(|e| format!("cannot start overhead daemon: {e}"))?;
    Ok((socket, handle))
}

/// Time the same hot workload on a telemetry-on and a telemetry-off
/// daemon and return the median latency ratio on / off over `passes`
/// interleaved pass pairs of `hot_n` requests each.
fn measure_overhead(line: &str, hot_n: usize, passes: usize) -> Result<f64, String> {
    let one = |client: &mut Client| -> Result<(), String> {
        let events = client.request(line).map_err(|e| format!("request: {e}"))?;
        let last = events.last().ok_or("empty response")?;
        if last.get("event").and_then(json::Value::as_str) != Some("result") {
            return Err(format!("terminal event: {}", json::write(last)));
        }
        Ok(())
    };
    let (off_socket, off_handle) = spawn(false)?;
    let (on_socket, on_handle) = spawn(true)?;
    let run = || -> Result<f64, String> {
        let mut off_client =
            Client::connect(&off_socket).map_err(|e| format!("connect: {e}"))?;
        let mut on_client = Client::connect(&on_socket).map_err(|e| format!("connect: {e}"))?;
        one(&mut off_client)?; // warm both caches on both daemons
        one(&mut on_client)?;
        let pass = |client: &mut Client| -> Result<f64, String> {
            let t0 = Instant::now();
            for _ in 0..hot_n {
                one(client)?;
            }
            Ok(t0.elapsed().as_secs_f64())
        };
        let mut ratios = Vec::with_capacity(passes);
        for _ in 0..passes {
            let off = pass(&mut off_client)?;
            let on = pass(&mut on_client)?;
            ratios.push(on / off.max(1e-12));
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        Ok(ratios[ratios.len() / 2])
    };
    let outcome = run();
    let stop_off = off_handle.stop();
    let stop_on = on_handle.stop();
    let ratio = outcome?;
    stop_off.map_err(|e| format!("overhead daemon did not stop cleanly: {e}"))?;
    stop_on.map_err(|e| format!("overhead daemon did not stop cleanly: {e}"))?;
    Ok(ratio)
}

/// E23 / `serve-bench`: measure the telemetry cost against two live
/// daemons and judge it. Returns the report and `false` when a daemon
/// failed to serve or stop, or the paper-scale ratio exceeded 1.05×.
pub fn e23_serve(scale: Scale) -> (String, bool) {
    let (wide_k, mesh_n, p, hot_n, passes) = match scale {
        Scale::Quick => (4usize, 10usize, 8usize, 8usize, 5usize),
        Scale::Paper => (6, 24, 8, 24, 9),
    };
    let line = format!(
        "{{\"op\":\"run\",\"source\":{},\"mesh\":{{\"nx\":{mesh_n},\"ny\":{mesh_n}}},\
         \"pattern\":\"fig1\",\"p\":{p},\"engine\":\"batched\"}}",
        json_escape(&setup::wide_program_src(wide_k))
    );
    let ratio = match measure_overhead(&line, hot_n, passes) {
        Ok(ratio) => ratio,
        Err(e) => return (format!("E23 — serve-bench FAILED: {e}\n"), false),
    };
    let mut out = format!(
        "E23 — telemetry cost: hot latency, telemetry on vs off \
         (wide({wide_k}) {mesh_n}x{mesh_n} fig1 p={p} batched ({}), cpus = {})\n\n\
         telemetry overhead (median of {passes} interleaved pass pairs, {hot_n} hot requests \
         each): {ratio:.3}x   (paper-scale ceiling: <= {CEILING}x)\n",
        scale.name(),
        crate::cpus(),
    );
    let mut faults = Vec::new();
    if scale == Scale::Paper && ratio > CEILING {
        faults.push(format!("telemetry overhead {ratio:.3}x exceeds {CEILING}x"));
    }
    let ok = crate::push_verdict(&mut out, &faults);
    (out, ok)
}
