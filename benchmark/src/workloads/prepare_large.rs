//! `prepare-large`: DSL text + mesh spec → checked result.
//!
//! One operation is the whole library call chain on one input: compile,
//! mesh generation, the `prepare` stage (partition → decomposition →
//! `CommPlan` → bindings, by the prelude's quickstart path) and a
//! 1-iteration solve. A pass alternates a 2-D input (400×400 grid, 320k
//! triangles, RCB+KL, TESTIV / fig6) and a 3-D one (32³ box, ≈197k
//! tetrahedra, RCB, `tetheat` / fig8), both at P=16 under the Fig. 1
//! pattern. `partition` + `overlap` + `runtime::bindings` do most of the
//! work and the engine little; both const-generic arities (V=3, V=4) are
//! exercised, and this is the memory workload.

use crate::harness::{drive, nproc, run_passes, Outcome, Pass, RunConfig, MAX_REL_ERROR};
use crate::inputs::MeshSpec;
use crate::layers::{self, Automaton, DEPLOYED_ENGINE};
use crate::trace::Tracer;

const NPARTS: usize = 16;

struct Input {
    name: &'static str,
    src: String,
    automaton: Automaton,
    mesh: MeshSpec,
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let setup = |_: &mut Tracer, _| {
        Ok([
            Input {
                name: "2-D",
                src: layers::testiv_text(1),
                automaton: Automaton::Fig6,
                mesh: MeshSpec::Grid2d {
                    n: 400,
                    seed: cfg.seed,
                },
            },
            Input {
                name: "3-D",
                src: layers::tetheat_text(1),
                automaton: Automaton::Fig8,
                mesh: MeshSpec::Box3d { n: 32 },
            },
        ])
    };
    drive(cfg, setup, |out, inputs| measure(cfg, out, inputs))
}

fn measure(cfg: &RunConfig, out: &mut Outcome, inputs: &[Input; 2]) {
    // Output checksum of each input's first pipeline; later ones repeat it.
    let mut reference: [Option<u64>; 2] = [None, None];
    run_passes(cfg, out, |out, pass| {
        for (kind, input) in inputs.iter().enumerate() {
            let piped = out.op(kind as u32, pass, |tr| {
                let c = layers::compile(tr, &input.src, input.automaton)?;
                let mesh = layers::mesh_gen(tr, input.mesh);
                let prep = layers::prepare(tr, &c, &mesh, NPARTS, cfg.seed);
                let res = layers::solve(tr, DEPLOYED_ENGINE, &c, &prep)?;
                Ok::<_, String>((c, mesh, prep, res))
            });
            let (c, mesh, prep, res) = match piped {
                Ok(p) => p,
                Err(e) => {
                    out.fail(format!("{}: {e}", input.name));
                    continue;
                }
            };
            if pass == Pass::Probe {
                layers::compile_probes(&mut out.tracer, &c);
                if !layers::decompose_par_probe(&mut out.tracer, &mesh, &prep, nproc()) {
                    out.fail(format!("{}: parallel decomposition differs", input.name));
                }
            }
            out.check(input.name, layers::audit_plan(&c, &prep));
            let sum = layers::checksum(&c, &res);
            match reference[kind] {
                Some(first) if first != sum => {
                    out.fail(format!(
                        "{}: output checksum differs between passes",
                        input.name
                    ));
                }
                Some(_) if pass != Pass::Probe => {}
                // First pass (and every probe pass, for the
                // `runtime.exec` span): the full oracle.
                _ => {
                    reference[kind] = Some(sum);
                    out.check(input.name, layers::verify_placements(&c));
                    let seq = layers::sequential(&mut out.tracer, &c, &prep);
                    let err = layers::max_rel_error(&seq, &res);
                    if err > MAX_REL_ERROR {
                        out.fail(format!("{}: off the sequential run by {err:e}", input.name));
                    }
                }
            }
        }
    });
}
