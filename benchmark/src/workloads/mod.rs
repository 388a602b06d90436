//! The five workloads. Names are final; later issues cite them.

pub mod compile_cold;
pub mod prepare_large;
pub mod solve;

use crate::harness::{Outcome, RunConfig};

/// A workload: its name, why it exists, and how to run it.
pub struct Workload {
    /// Name, as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Whether `trace.layers_sum_share` must lie in [0.95, 1.05] (the
    /// library workloads; the daemon's layers are not visible from
    /// outside).
    pub library: bool,
    /// Run it.
    pub run: fn(&RunConfig) -> Result<Outcome, String>,
}

/// All workloads, in `BENCHMARK.json` order.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "compile-cold",
        library: true,
        run: compile_cold::run,
    },
    Workload {
        name: "solve-compute",
        library: true,
        run: solve::run_compute,
    },
    Workload {
        name: "solve-comm",
        library: true,
        run: solve::run_comm,
    },
    Workload {
        name: "prepare-large",
        library: true,
        run: prepare_large::run,
    },
    Workload {
        name: "serve-mixed",
        library: false,
        run: crate::serve::run,
    },
];
