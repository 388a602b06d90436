//! `syncplace` — the command-line tool.
//!
//! ```text
//! syncplace check   <prog.spl>                 # Fig. 4 legality report
//! syncplace place   <prog.spl> [options]       # annotated SPMD listing(s)
//! syncplace run     <prog.spl> [options]       # simulate on a mesh
//! syncplace automata [name]                    # print overlap automata
//! ```
//!
//! Options:
//!   --pattern fig1|fig2|2layer    overlapping pattern   (default fig1)
//!   --solutions N                 print the top-N placements (default 1)
//!   --procs P                     processors for `run`   (default 4)
//!   --mesh  NxM                   grid mesh for `run`    (default 16x16)
//!   --dim3                        analyze against the 3-D automaton
//!
//! The program file uses the syncplace DSL (see `crates/core/examples/
//! dsl/*.spl` and the grammar in `syncplace::ir::parser`). This is the
//! paper's workflow: the user supplies the program and the overlapping
//! pattern; the tool checks applicability and produces the annotated
//! SPMD source.

use syncplace::automata::predefined::{element_overlap_two_layer_2d, fig6, fig7, fig8};
use syncplace::automata::OverlapAutomaton;
use syncplace::overlap::Pattern;
use syncplace::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = real_main(&args);
    std::process::exit(code);
}

fn real_main(args: &[String]) -> i32 {
    let Some(cmd) = args.first() else {
        eprintln!("usage: syncplace <check|place|run|automata> [args]  (see --help)");
        return 2;
    };
    match cmd.as_str() {
        "--help" | "-h" | "help" => {
            println!("{}", HELP);
            0
        }
        "automata" => {
            let which = args.get(1).map(|s| s.as_str()).unwrap_or("all");
            for a in [fig6(), fig7(), fig8(), element_overlap_two_layer_2d()] {
                if which == "all" || a.name.contains(which) || which == short_name(&a) {
                    println!("{}", a.to_table());
                }
            }
            0
        }
        "check" | "place" | "run" | "dfg" | "sweep" => with_program(cmd, &args[1..]),
        other => {
            eprintln!("unknown command '{other}'");
            2
        }
    }
}

fn short_name(a: &OverlapAutomaton) -> &'static str {
    match a.states.len() {
        5 => "fig6",
        9 => "fig8",
        _ => "other",
    }
}

struct Opts {
    pattern: Pattern,
    automaton: OverlapAutomaton,
    solutions: usize,
    procs: usize,
    mesh: (usize, usize),
}

fn parse_opts(args: &[String]) -> Result<(String, Opts), String> {
    let mut file = None;
    let mut pattern = Pattern::FIG1;
    let mut solutions = 1usize;
    let mut procs = 4usize;
    let mut mesh = (16usize, 16usize);
    let mut dim3 = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pattern" => {
                let v = it.next().ok_or("--pattern needs a value")?;
                pattern = match v.as_str() {
                    "fig1" => Pattern::FIG1,
                    "fig2" => Pattern::FIG2,
                    "2layer" => Pattern::ElementOverlap { layers: 2 },
                    other => return Err(format!("unknown pattern '{other}'")),
                };
            }
            "--solutions" => {
                solutions = it
                    .next()
                    .ok_or("--solutions needs a value")?
                    .parse()
                    .map_err(|_| "bad --solutions value")?;
            }
            "--procs" => {
                procs = it
                    .next()
                    .ok_or("--procs needs a value")?
                    .parse()
                    .map_err(|_| "bad --procs value")?;
            }
            "--mesh" => {
                let v = it.next().ok_or("--mesh needs NxM")?;
                let (a, b) = v.split_once('x').ok_or("mesh format is NxM")?;
                mesh = (
                    a.parse().map_err(|_| "bad mesh size")?,
                    b.parse().map_err(|_| "bad mesh size")?,
                );
            }
            "--dim3" => dim3 = true,
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_string());
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let automaton = if dim3 {
        fig8()
    } else {
        syncplace::automaton_for(pattern)
    };
    Ok((
        file.ok_or("missing program file")?,
        Opts {
            pattern,
            automaton,
            solutions,
            procs,
            mesh,
        },
    ))
}

fn with_program(cmd: &str, rest: &[String]) -> i32 {
    let (file, opts) = match parse_opts(rest) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return 2;
        }
    };
    let prog = match syncplace::parse_checked(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{file}: {e}");
            return 1;
        }
    };

    let dfg = syncplace::dfg::build(&prog);
    if cmd == "dfg" {
        print!("{}", syncplace::dfg::dump::dependence_report(&prog, &dfg));
        println!("--- graphviz ---");
        print!("{}", syncplace::dfg::dump::to_dot(&prog, &dfg));
        return 0;
    }
    let legality = syncplace::placement::check_legality(&prog, &dfg);
    println!(
        "{}: {} statements, {} data-flow nodes, {} arrows",
        prog.name,
        prog.nstmts(),
        dfg.nodes.len(),
        dfg.arrows.len()
    );
    if !legality.is_legal() {
        println!("the user partitioning is NOT legal (Fig. 4):");
        for e in &legality.errors {
            println!("  case {}: {}", e.case, e.diag);
        }
        return 1;
    }
    println!(
        "partitioning legal ({} dependences removed by localization, {} excused as reductions)",
        legality.removed_by_localization, legality.excused_by_reduction
    );
    if cmd == "check" {
        return 0;
    }

    let (analysis, spmd) = match syncplace::place(&prog, &dfg, &opts.automaton, &None) {
        Ok(placed) => placed,
        Err(e) => {
            println!("{e}");
            return 1;
        }
    };
    println!(
        "{} distinct placements (automaton '{}', {} search steps)\n",
        analysis.solutions.len(),
        opts.automaton.name,
        analysis.stats.visits
    );
    for (i, sol) in analysis.solutions.iter().take(opts.solutions).enumerate() {
        println!(
            "=== placement {i}: {}",
            syncplace::codegen::summarize(&prog, sol)
        );
        println!("{}", syncplace::codegen::annotate(&prog, sol));
    }
    if cmd == "place" {
        return 0;
    }
    if cmd == "sweep" {
        return sweep(&prog, &spmd, &opts);
    }

    // run: simulate on a grid mesh with synthetic inputs.
    let mesh = gen2d::perturbed_grid(opts.mesh.0, opts.mesh.1, 0.2, 42);
    let mut bindings = syncplace::runtime::Bindings::for_mesh(&prog, &mesh);
    syncplace::synth_inputs(&prog, &mut bindings);
    if let Err(e) = bindings.validate(&prog) {
        eprintln!("cannot synthesize inputs for `run`: {e}");
        return 1;
    }
    let seq = syncplace::runtime::run_sequential(&prog, &bindings);
    let part = partition2d(&mesh, opts.procs, Method::RcbKl);
    let d = decompose2d(&mesh, &part.part, opts.procs, opts.pattern);
    print!("{}", d.report());
    match Engine::RoundRobin.run(&prog, &spmd, &d, &bindings) {
        Ok(res) => {
            let err = syncplace::runtime::max_rel_error(&seq, &res);
            println!(
                "ran on {} processors over a {}x{} mesh ({} triangles, {} duplicated):",
                opts.procs,
                opts.mesh.0,
                opts.mesh.1,
                mesh.ntris(),
                d.total_overlap_elems()
            );
            println!(
                "  {} iterations, {} comm phases, {} values moved, max rel err vs sequential {err:.2e}",
                res.iterations,
                res.stats.nphases(),
                res.stats.total_values()
            );
            if err < 1e-9 {
                println!("  OK — SPMD result matches the sequential run");
                0
            } else {
                println!("  MISMATCH — the placement or runtime is wrong");
                1
            }
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            1
        }
    }
}

/// `syncplace sweep`: modeled speedup of the best placement over a
/// processor sweep on the given mesh.
fn sweep(
    prog: &syncplace::ir::Program,
    spmd: &syncplace::codegen::SpmdProgram,
    opts: &Opts,
) -> i32 {
    let mesh = gen2d::perturbed_grid(opts.mesh.0, opts.mesh.1, 0.2, 42);
    let mut bindings = syncplace::runtime::Bindings::for_mesh(prog, &mesh);
    syncplace::synth_inputs(prog, &mut bindings);
    if let Err(e) = bindings.validate(prog) {
        eprintln!("cannot synthesize inputs: {e}");
        return 1;
    }
    let seq = syncplace::runtime::run_sequential(prog, &bindings);
    let model = syncplace::runtime::TimingModel::default();
    println!(
        "{:>4} {:>12} {:>12} {:>9} {:>11} {:>8}",
        "P", "max compute", "comm time", "speedup", "efficiency", "err"
    );
    let mut p = 1usize;
    while p <= opts.procs {
        let part = partition2d(&mesh, p, Method::RcbKl);
        let d = decompose2d(&mesh, &part.part, p, opts.pattern);
        match Engine::RoundRobin.run(prog, spmd, &d, &bindings) {
            Ok(res) => {
                let t = syncplace::runtime::timing::estimate(&seq, &res, &model);
                let err = syncplace::runtime::max_rel_error(&seq, &res);
                println!(
                    "{p:>4} {:>12.0} {:>12.0} {:>9.2} {:>10.0}% {err:>8.1e}",
                    t.compute_max,
                    t.comm,
                    t.speedup,
                    100.0 * t.efficiency
                );
            }
            Err(e) => {
                eprintln!("P={p}: {e}");
                return 1;
            }
        }
        p *= 2;
    }
    0
}

const HELP: &str = "\
syncplace — automatic placement of communications in mesh-partitioning
parallelization (Hascoët, PPoPP 1997)

USAGE:
  syncplace check   <prog.spl>              Fig. 4 legality report
  syncplace place   <prog.spl> [options]    annotated SPMD listing(s)
  syncplace run     <prog.spl> [options]    simulate on a mesh
  syncplace dfg     <prog.spl>              dependence report + DOT graph
  syncplace sweep   <prog.spl> [options]    modeled speedup for P = 1..--procs
  syncplace automata [fig6|fig7|fig8|2layer|all]

OPTIONS:
  --pattern fig1|fig2|2layer   overlapping pattern       (default fig1)
  --solutions N                print the top-N placements (default 1)
  --procs P                    processors for `run`       (default 4)
  --mesh NxM                   grid mesh for `run`        (default 16x16)
  --dim3                       use the 3-D (Fig. 8) automaton";
