//! Experiment harness regenerating every figure of the paper, plus
//! shared setup helpers.
//!
//! Each `eN_*` function in [`experiments`] reproduces one evaluation
//! artifact (see DESIGN.md's experiment index) and returns a printable
//! report; the ones that judge their own result return `(report, ok)`
//! and `reproduce` exits non-zero on `false`. A report prints what the
//! code computes — counts, identities, modeled figures and verdicts —
//! so it reads the same on any host. Two readings of the clock remain:
//! E23's telemetry on/off ratio ([`serve`]), which `benchmark/` cannot
//! take, and E21's profile timelines ([`profile`]), which explain one
//! run and claim no speed. Nothing is persisted to compare against
//! later: the repo's wall-clock regression gate is `benchmark/run.sh`.
//! EXPERIMENTS.md records paper-vs-measured.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod profile;
pub mod serve;
pub mod setup;

/// Schema tag written into `PROFILE_runtime.json`.
pub const PROFILE_SCHEMA: &str = "syncplace-profile/1";

/// The short git revision of the working tree, for stamping generated
/// artifacts; `"unknown"` outside a git checkout (or without git).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPUs this process may use, printed beside E23's telemetry-cost
/// ratio: the one wall-clock figure a `reproduce` report judges.
pub(crate) fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The closing lines of a gated report: every violated floor, then the
/// verdict. Returns whether the gate passed.
pub(crate) fn push_verdict(out: &mut String, faults: &[String]) -> bool {
    for f in faults {
        out.push_str(&format!("FLOOR VIOLATED: {f}\n"));
    }
    out.push_str(if faults.is_empty() {
        "overall: ok\n"
    } else {
        "overall: FAILURES DETECTED\n"
    });
    faults.is_empty()
}

/// Render a simple aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_alignment() {
        let t = super::table(
            &["a", "long"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("333"));
        assert!(t.lines().count() == 4);
    }
}
