//! `syncplace-benchmark` — the repo's layered wall-clock benchmark.
//!
//! Five workloads, one metric set, every layer measured from outside by
//! `std::time::Instant` around its public functions. See `README.md` in
//! this directory; `run.sh` is the one command.
//!
//! ```text
//! syncplace-benchmark run --workload W --seed N --seconds S --trace 0|1
//! syncplace-benchmark suite [--seed N] [--seconds S] [--smoke]
//! syncplace-benchmark compare A.json B.json
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod harness;
mod inputs;
mod layers;
mod metrics;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use harness::{RunConfig, OUT_DIR};
use layers::json::{self, Value};
use report::RunResult;

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: '{v}'")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// One run of one workload: the contract's interface. Prints every metric
/// and, as the last line, the result object.
fn run(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("run needs --workload")?;
    let w = workloads::ALL
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("bad value for --trace: '{v}'")),
    };
    let cfg = RunConfig {
        seed: args.parsed("--seed", 1u64)?,
        seconds: args.parsed("--seconds", 12.0f64)?,
        trace,
    };
    println!(
        "host: nproc {}; seed {}; {} s measured",
        harness::nproc(),
        cfg.seed,
        cfg.seconds
    );
    let mut out = (w.run)(&cfg)?;
    let res = RunResult::from_outcome(w, trace, &mut out);
    if trace {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", w.name));
        std::fs::write(&path, out.tracer.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans in {}",
            out.tracer.spans().len(),
            path.display()
        );
    }
    report::print_human(w, trace, &out, &res);
    println!("{}", json::write(&res.to_value()));
    Ok(res.correct)
}

fn tool_output(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Every workload, untraced then traced, each in a fresh child process;
/// writes `results.json` and validates it against `BENCHMARK.json`.
fn suite(args: &Args) -> Result<bool, String> {
    let smoke = args.flag("--smoke");
    let seed = args.parsed("--seed", 1u64)?;
    let seconds = if smoke {
        0.0
    } else {
        args.parsed("--seconds", 12.0f64)?
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in &workloads::ALL {
        let mut entry = vec![];
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let child = Command::new(&exe)
                .args(["run", "--workload", w.name, "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            let res = stdout
                .lines()
                .last()
                .and_then(|l| json::parse(l).ok())
                .ok_or_else(|| format!("{} (trace {trace}) printed no result", w.name))?;
            let num = |k: &str| res.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            attempted += num("attempted");
            failed += num("failed");
            correct &= res.get("correct") == Some(&Value::Bool(true)) && child.status.success();
            entry.push((
                section.to_string(),
                res.get("metrics").cloned().unwrap_or(Value::Null),
            ));
        }
        all_ok &= correct;
        entry.push(("attempted".into(), Value::Num(attempted)));
        entry.push(("failed".into(), Value::Num(failed)));
        entry.push(("correct".into(), Value::Bool(correct)));
        workloads.push((w.name.to_string(), Value::Obj(entry)));
    }
    let host = Value::Obj(vec![
        ("nproc".into(), Value::Num(harness::nproc() as f64)),
        ("rustc".into(), Value::Str(tool_output("rustc", &["-V"]))),
        (
            "git_rev".into(),
            Value::Str(tool_output("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ]);
    let results = Value::Obj(vec![
        ("host".into(), host),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("workloads".into(), Value::Obj(workloads)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = PathBuf::from(OUT_DIR).join("results.json");
    std::fs::write(&path, json::write(&results) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    report::validate(&results)?;
    println!(
        "results.json matches the names declared in {}",
        report::BENCHMARK_JSON
    );
    Ok(all_ok)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    let done = match sub.as_str() {
        "run" => run(&args),
        "suite" => suite(&args),
        "compare" => match args.0.as_slice() {
            [a, b] => report::compare(a, b).map(|()| true),
            _ => Err("compare needs two result files".to_string()),
        },
        _ => Err("usage: syncplace-benchmark run|suite|compare … (see benchmark/README.md)".into()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: some operation or check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
