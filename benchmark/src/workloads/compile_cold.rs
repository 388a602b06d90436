//! `compile-cold`: DSL text → verified `SpmdProgram`.
//!
//! One operation compiles one text: parse → dfg → analyze → codegen.
//! The inputs are 24 distinct texts (TESTIV and `tetheat` with
//! seed-varied iteration caps, `wide(4..6)` with seed-derived scale
//! constants), run as alternating passes of 12 with the same mix of
//! kinds; no mesh, no engine. `placement` does ≥95% of the work, so this is the
//! only place a search, extraction or ranking change can show — and where
//! an engine change must show nothing.

use crate::harness::{drive, run_passes, Outcome, Pass, RunConfig};
use crate::inputs::{compile_texts, ProgramText};
use crate::layers;

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    drive(
        cfg,
        |_, _| Ok(compile_texts(cfg.seed)),
        |out, texts| measure(cfg, out, texts),
    )
}

fn measure(cfg: &RunConfig, out: &mut Outcome, texts: &[ProgramText]) {
    // Identity of each text's first compile; later passes must repeat it.
    let mut first: Vec<Option<(usize, String)>> = vec![None; texts.len()];
    let mut passes = 0;
    run_passes(cfg, out, |out, pass| {
        // A pass is one half of the 24 texts; both halves have the same
        // mix of kinds.
        let half = texts.len() / 2;
        let start = passes % 2 * half;
        passes += 1;
        for (i, text) in texts.iter().enumerate().skip(start).take(half) {
            let compiled = out.op(text.kind, pass, |tr| {
                layers::compile(tr, &text.src, text.automaton)
            });
            let c = match compiled {
                Ok(c) => c,
                Err(e) => {
                    out.fail(format!("text {i}: {e}"));
                    continue;
                }
            };
            if pass == Pass::Probe {
                layers::compile_probes(&mut out.tracer, &c);
            }
            match &first[i] {
                None => {
                    out.check(&format!("text {i}"), layers::verify_placements(&c));
                    first[i] = Some(c.identity());
                }
                Some(id) if *id != c.identity() => {
                    out.fail(format!("text {i}: placement differs between passes"));
                }
                Some(_) => {}
            }
        }
    });
}
