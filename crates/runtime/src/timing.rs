//! The α/β performance model.
//!
//! The paper's reference application reports "a very good speedup
//! ranging between 20 to 26 for 32 processors" (§2.4, citing Farhat &
//! Lanteri's runs on early-90s MPPs). We reproduce the *shape* of that
//! result with a standard latency/bandwidth model: a run's modeled
//! time is the slowest processor's compute plus, for every
//! communication phase, a latency term per round and a bandwidth term
//! for the busiest processor's volume.

use crate::exec::SeqResult;
use crate::spmd::SpmdResult;
use crate::Engine;

/// Machine model. Units are "time per compute unit" — one abstract
/// interpreter work unit ≈ a handful of flops.
#[derive(Debug, Clone, Copy)]
pub struct TimingModel {
    /// Time per compute unit.
    pub flop: f64,
    /// Latency per communication round (α). Early-90s MPP message
    /// latencies were ~50–100 µs against ~100 ns flops: α/flop ≈ 10³.
    pub alpha: f64,
    /// Time per communicated value (β): ~10 MB/s links against
    /// ~10 Mflop/s nodes put one 8-byte value around a few flops.
    pub beta: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            flop: 1.0,
            alpha: 1000.0,
            beta: 4.0,
        }
    }
}

/// Modeled timing of one SPMD run against its sequential reference.
#[derive(Debug, Clone, Copy)]
pub struct TimingReport {
    /// Modeled sequential time.
    pub t_seq: f64,
    /// Modeled parallel time (max compute + communication).
    pub t_par: f64,
    /// Slowest processor's compute time.
    pub compute_max: f64,
    /// Total communication time.
    pub comm: f64,
    /// `t_seq / t_par`.
    pub speedup: f64,
    /// Parallel efficiency: speedup / nparts.
    pub efficiency: f64,
}

/// Evaluate the model on the binomial-tree wire of the concurrent
/// engines — the machine the paper's speedups are quoted for.
pub fn estimate(seq: &SeqResult, spmd: &SpmdResult, model: &TimingModel) -> TimingReport {
    estimate_engine(seq, spmd, model, Engine::Batched)
}

/// [`estimate`] for the engine that produced `spmd`.
///
/// The recorded [`crate::comm::PhaseStat`]s are the plan's, identical
/// across engines; what differs is how the same plan goes on the wire,
/// and the [`Engine`] says it:
///
/// * [`Engine::RoundRobin`] advances every rank op by op
///   *in rank order*, which serializes collectives into ascending-rank
///   chains: rank `r` can only combine after rank `r − 1`, so a
///   reducing phase costs `2·(P − 1)` latency rounds (accumulate up the
///   chain, result back down) instead of the binomial tree's
///   `2·⌈log₂ P⌉`.
/// * [`Engine::Batched`] and [`Engine::Overlapped`] run the binomial
///   tree, so a phase costs the rounds recorded in its `PhaseStat`.
///
/// Each phase's communication cost is then discounted by `flop ·`
/// [`crate::OverlapReport::hidden_units`] of the same result — per
/// phase application, the compute units every rank kept in flight
/// between the phase's early post and its completion (all zeros unless
/// the overlapped engine ran) — floored at zero: work genuinely
/// executed while the packets were on the wire does not wait for them.
pub fn estimate_engine(
    seq: &SeqResult,
    spmd: &SpmdResult,
    model: &TimingModel,
    engine: Engine,
) -> TimingReport {
    let t_seq = seq.compute_units * model.flop;
    let compute_max = spmd.per_proc_compute.iter().cloned().fold(0.0f64, f64::max) * model.flop;
    let nparts = spmd.per_proc_compute.len();
    let tree_rounds = crate::comm::reduce_tree_rounds(nparts);
    let reduces_on_a_chain = match engine {
        Engine::RoundRobin => nparts >= 2,
        Engine::Batched | Engine::Overlapped => false,
    };
    let mut comm = 0.0;
    for (k, ph) in spmd.stats.phases.iter().enumerate() {
        // A reducing phase is recognizable from its rounds: the merge
        // takes the max over the phase's ops, and the tree term
        // dominates the update (1) and assemble (2) terms at P ≥ 2.
        let rounds = if reduces_on_a_chain && ph.rounds == tree_rounds {
            2 * (nparts - 1)
        } else {
            ph.rounds
        };
        let wire = model.alpha * rounds as f64 + model.beta * ph.max_proc_values as f64;
        let hidden = spmd.overlap.hidden_units.get(k).copied().unwrap_or(0.0);
        comm += (wire - model.flop * hidden).max(0.0);
    }
    let t_par = compute_max + comm;
    let speedup = t_seq / t_par;
    TimingReport {
        t_seq,
        t_par,
        compute_max,
        comm,
        speedup,
        efficiency: speedup / nparts as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::testiv_bindings;
    use syncplace_automata::predefined::fig6;
    use syncplace_ir::programs;
    use syncplace_mesh::gen2d;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_placement::{analyze_program, CostParams, SearchOptions};

    fn speedup(nx: usize, nparts: usize) -> f64 {
        let p = programs::testiv();
        let mesh = gen2d::grid(nx, nx);
        let b = testiv_bindings(&p, &mesh, 0.0); // fixed 100 iterations
        let seq = crate::run_sequential(&p, &b);
        let (dfg, analysis) = analyze_program(
            &p,
            &fig6(),
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let spmd_prog = syncplace_codegen::spmd_program(&p, &dfg, &analysis.solutions[0]);
        let part = partition2d(&mesh, nparts, Method::GreedyKl);
        let d = decompose2d(&mesh, &part.part, nparts, Pattern::FIG1);
        let res = Engine::RoundRobin.run(&p, &spmd_prog, &d, &b).unwrap();
        estimate(&seq, &res, &TimingModel::default()).speedup
    }

    #[test]
    fn speedup_grows_with_processors() {
        let s2 = speedup(24, 2);
        let s4 = speedup(24, 4);
        let s8 = speedup(24, 8);
        assert!(s2 > 1.2, "{s2}");
        assert!(s4 > s2, "{s4} !> {s2}");
        assert!(s8 > s4, "{s8} !> {s4}");
    }

    #[test]
    fn speedup_is_sublinear() {
        let s8 = speedup(24, 8);
        assert!(s8 < 8.0);
    }

    /// TESTIV at `nparts` under the overlapped engine.
    fn paper_run(nparts: usize) -> (SeqResult, SpmdResult) {
        let p = programs::testiv();
        let mesh = gen2d::grid(24, 24);
        let b = testiv_bindings(&p, &mesh, 0.0);
        let seq = crate::run_sequential(&p, &b);
        let (dfg, analysis) = analyze_program(
            &p,
            &fig6(),
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let spmd_prog = syncplace_codegen::spmd_program(&p, &dfg, &analysis.solutions[0]);
        let part = partition2d(&mesh, nparts, Method::GreedyKl);
        let d = decompose2d(&mesh, &part.part, nparts, Pattern::FIG1);
        let res = Engine::Overlapped.run(&p, &spmd_prog, &d, &b).unwrap();
        (seq, res)
    }

    #[test]
    fn reference_chain_wire_is_slower_than_the_tree() {
        let (seq, res) = paper_run(8);
        let m = TimingModel::default();
        let chain = estimate_engine(&seq, &res, &m, Engine::RoundRobin);
        let tree = estimate_engine(&seq, &res, &m, Engine::Overlapped);
        // 2·(P−1) = 14 chain rounds against 2·log₂8 = 6 tree rounds on
        // every reducing phase.
        assert!(chain.t_par > tree.t_par, "{} !> {}", chain.t_par, tree.t_par);
        assert_eq!(tree.t_par, estimate(&seq, &res, &m).t_par);
    }

    #[test]
    fn hidden_work_discounts_comm_and_never_goes_negative() {
        let (seq, overlapped) = paper_run(8);
        let m = TimingModel::default();
        assert!(overlapped.overlap.total_hidden() > 0.0);
        let mut plain = overlapped.clone();
        plain.overlap = Default::default();
        let comm = |res| estimate_engine(&seq, res, &m, Engine::Overlapped).comm;
        let (discounted, full) = (comm(&overlapped), comm(&plain));
        assert!(discounted < full, "{discounted} !< {full}");
        // Absurdly large hidden credit floors each phase at zero
        // rather than underflowing.
        let mut huge = overlapped.clone();
        huge.overlap.hidden_units = vec![f64::INFINITY; huge.stats.phases.len()];
        let floored = estimate_engine(&seq, &huge, &m, Engine::Overlapped);
        assert_eq!(floored.comm, 0.0);
        assert!(floored.t_par >= floored.compute_max);
    }

    #[test]
    fn larger_meshes_scale_better() {
        // Fixed P: a larger mesh has a better compute/comm ratio.
        let small = speedup(12, 8);
        let large = speedup(32, 8);
        assert!(large > small, "{large} !> {small}");
    }
}
