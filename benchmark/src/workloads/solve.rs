//! `solve-compute` and `solve-comm`: one engine run of placed TESTIV,
//! 100 iterations, ε = 0, on the deployed engine — the same `runtime`
//! layer used two opposite ways.
//!
//! * `solve-compute`: 128×128 perturbed grid (32 768 triangles) at P=8 —
//!   4 096 triangles per rank, the interpreter's compute is ≥90% of the
//!   run. Kernel compilation shows here.
//! * `solve-comm`: 24×24 grid (1 152 triangles) at P=16 — 72 triangles
//!   per rank and ≈10⁴ messages per run: messaging, barriers and 16 rank
//!   threads on this host's cores dominate. Rank multiplexing shows here,
//!   and a compute win bought with per-phase overhead is exposed here.
//!
//! Compile and prepare happen in set-up. A probe pass also runs the
//! sequential reference and the other two engines, each in its own span.

use crate::harness::{drive, run_passes, Outcome, Pass, RunConfig, MAX_REL_ERROR};
use crate::inputs::MeshSpec;
use crate::layers::{self, Automaton, Compiled, Prepared, DEPLOYED_ENGINE, ENGINES};
use crate::trace::Tracer;

/// Time-loop iterations of every solve.
const ITERATIONS: usize = 100;

/// `solve-compute`.
pub fn run_compute(cfg: &RunConfig) -> Result<Outcome, String> {
    run(cfg, 128, 8)
}

/// `solve-comm`.
pub fn run_comm(cfg: &RunConfig) -> Result<Outcome, String> {
    run(cfg, 24, 16)
}

fn run(cfg: &RunConfig, n: usize, nparts: usize) -> Result<Outcome, String> {
    let setup = |tr: &mut Tracer, _| {
        let c = layers::compile(tr, &layers::testiv_text(ITERATIONS), Automaton::Fig6)?;
        let mesh = layers::mesh_gen(tr, MeshSpec::Grid2d { n, seed: cfg.seed });
        let prep = layers::prepare(tr, &c, &mesh, nparts, cfg.seed);
        Ok((c, prep))
    };
    drive(cfg, setup, |out, (c, prep)| measure(cfg, out, c, prep))
}

fn measure(cfg: &RunConfig, out: &mut Outcome, c: &Compiled, prep: &Prepared) {
    // Output checksum of the first solve; every other solve, on any
    // engine, must repeat it.
    let mut reference: Option<u64> = None;
    let mut agree = |out: &mut Outcome, engine: &str, res: Result<_, String>| match res {
        Ok(res) => {
            let sum = layers::checksum(c, &res);
            if *reference.get_or_insert(sum) != sum {
                out.fail(format!("{engine}: output checksum differs"));
            }
            if layers::iterations(&res) != ITERATIONS {
                out.fail(format!("{engine}: stopped before the iteration cap"));
            }
            Some(res)
        }
        Err(e) => {
            out.fail(format!("{engine}: {e}"));
            None
        }
    };
    run_passes(cfg, out, |out, pass| {
        let res = out.op(0, pass, |tr| layers::solve(tr, DEPLOYED_ENGINE, c, prep));
        agree(out, DEPLOYED_ENGINE, res);
        if pass == Pass::Probe {
            layers::sequential(&mut out.tracer, c, prep);
            for engine in ENGINES.into_iter().filter(|e| *e != DEPLOYED_ENGINE) {
                let res = layers::solve(&mut out.tracer, engine, c, prep);
                agree(out, engine, res);
            }
        }
    });

    // Output checks, outside every timed region and with tracing off.
    let mut off = Tracer::new(false);
    out.check("placement", layers::verify_placements(c));
    out.check("plan", layers::audit_plan(c, prep));
    let seq = layers::sequential(&mut off, c, prep);
    for engine in ENGINES {
        out.attempted += 1;
        let res = layers::solve(&mut off, engine, c, prep);
        if let Some(res) = agree(out, engine, res) {
            let err = layers::max_rel_error(&seq, &res);
            if err > MAX_REL_ERROR {
                out.fail(format!("{engine}: off the sequential run by {err:e}"));
            }
        }
    }
}
