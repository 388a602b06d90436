//! Experiment harness: `reproduce <experiment> [--quick]` regenerates
//! each figure/table of the paper. `reproduce list` prints the index,
//! `reproduce all` runs everything.

use syncplace_bench::experiments::{self as ex, Scale};
use syncplace_bench::{profile, serve};

/// Run one experiment: its report and whether it passed. Experiments
/// that only print are always `true`; the ones that judge what they
/// just computed (`lint`, `racecheck`, `bench-runtime`, `serve-bench`,
/// `bench-large`) say so here and `main` turns `false` into exit 1.
fn run(name: &str, scale: Scale) -> Option<(String, bool)> {
    let report = match name {
        "e1-sketch" => ex::e1_sketch(),
        "e2-automata" => ex::e2_automata(),
        "e3-legality" => ex::e3_legality(),
        "e4-testiv" | "e5-testiv" => ex::e4_e5_testiv(scale),
        "e6-speedup" => ex::e6_speedup(scale),
        "e7-patterns" => ex::e7_patterns(scale),
        "e8-inspector" => ex::e8_inspector(scale),
        "e9-dfgreduce" => ex::e9_dfgreduce(scale),
        "e10-tet3d" => ex::e10_tet3d(scale),
        "e12-checker" => ex::e12_checker(scale),
        "e13-edges" => ex::e13_edges(scale),
        "e14-twolayer" => ex::e14_two_layer(scale),
        "e15-adaptive" => ex::e15_adaptive(scale),
        "e16-solutions" => ex::e16_solution_space(scale),
        "e17-partition" => ex::e17_partitioners(scale),
        "profile" | "e21-profile" => profile::profile_runtime(scale),
        "bench-runtime" | "e18-runtime" => return Some(ex::bench_runtime(scale)),
        "lint" | "e20-lint" => return Some(ex::e20_lint(scale)),
        "serve-bench" | "e23-serve" => return Some(serve::e23_serve(scale)),
        "bench-large" | "e24-large" => return Some(ex::e24_large(scale)),
        "racecheck" | "e25-racecheck" => return Some(ex::e25_racecheck(scale)),
        _ => return None,
    };
    Some((report, true))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(|s| s.as_str()).unwrap_or("list");
    if let Some(stray) = args.iter().skip(1).find(|a| *a != "--quick") {
        eprintln!("unknown argument '{stray}': the only flag is --quick (paper scale is the default)");
        std::process::exit(1);
    }
    let quick = args.iter().skip(1).any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let names: Vec<&str> = match name {
        "list" => {
            println!("experiments (run `reproduce <name>` or `reproduce all`):");
            for (n, d) in ex::index() {
                println!("  {n:<14} {d}");
            }
            return;
        }
        "all" => ex::index().into_iter().map(|(n, _)| n).collect(),
        one => vec![one],
    };
    let mut failed = Vec::new();
    for n in &names {
        if names.len() > 1 {
            println!("================================================================");
        }
        match run(n, scale) {
            Some((report, ok)) => {
                println!("{report}");
                if !ok {
                    failed.push(*n);
                }
            }
            None => {
                eprintln!("unknown experiment '{n}'; try `reproduce list`");
                std::process::exit(1);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
}
