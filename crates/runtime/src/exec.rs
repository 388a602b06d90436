//! Per-processor memory and the sequential reference run. A
//! [`Machine`] executes the program's [`Kernel`] — "the computational
//! part of the FORTRAN program remains exactly the same" (§2.2) —
//! on the whole mesh (sequential reference) or on one sub-mesh (SPMD).

use crate::bindings::{kind_index, Bindings};
use crate::kernel::Kernel;
use syncplace_ir::{EntityKind, IdVec, Program, Stmt, VarKind};
use syncplace_placement::IterationDomain;

/// A localized indirection table; `u32::MAX` marks a target that is
/// not present on this processor (only reachable by ill-placed
/// upward gathers — hitting one is a placement bug, so it panics).
/// The default (arity 0) is "no table bound".
#[derive(Debug, Clone, Default)]
pub struct MapTable {
    /// Targets per source entity.
    pub arity: usize,
    /// `targets[i * arity + slot]`, `u32::MAX` = absent locally.
    pub targets: Vec<u32>,
}

impl MapTable {
    #[inline]
    pub(crate) fn get(&self, i: usize, slot: usize) -> usize {
        let t = self.targets[i * self.arity + slot];
        assert!(
            t != u32::MAX,
            "indirection target absent on this processor (upward gather \
             outside the kernel domain — invalid placement)"
        );
        t as usize
    }
}

/// One processor's memory. [`crate::kernel`] executes on it.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Local entity counts (node, edge, tri, tet).
    pub counts: [usize; 4],
    /// Kernel (owned) entity counts.
    pub kernel_counts: [usize; 4],
    /// Scalar values per VarId (unused slots 0).
    pub scalars: Vec<f64>,
    /// Array values per VarId (empty for non-arrays).
    pub arrays: Vec<Vec<f64>>,
    /// Localized indirection tables per VarId (arity 0 = unbound).
    pub maps: Vec<MapTable>,
    /// Abstract work counter: Σ statement-weight × iterations executed.
    pub compute_units: f64,
}

impl Machine {
    /// Create a machine with zeroed locals. `counts`/`kernel_counts`
    /// describe this processor's (sub-)mesh; arrays are allocated to
    /// the local size of their base entity.
    pub fn new(prog: &Program, counts: [usize; 4], kernel_counts: [usize; 4]) -> Machine {
        let n = prog.decls.len();
        let mut arrays = vec![Vec::new(); n];
        for (v, d) in prog.decls.iter().enumerate() {
            if let VarKind::Array { base } = d.kind {
                arrays[v] = vec![0.0; counts[kind_index(base)]];
            }
        }
        Machine {
            counts,
            kernel_counts,
            scalars: vec![0.0; n],
            arrays,
            maps: vec![MapTable::default(); n],
            compute_units: 0.0,
        }
    }

    /// The local count of entities of a kind.
    pub fn count(&self, e: EntityKind) -> usize {
        self.counts[kind_index(e)]
    }

    /// The kernel count of entities of a kind.
    pub fn kernel_count(&self, e: EntityKind) -> usize {
        self.kernel_counts[kind_index(e)]
    }

    /// The iteration count of a loop over entity kind `e` in `domain`.
    pub fn domain_count(&self, e: EntityKind, domain: IterationDomain) -> usize {
        match domain {
            IterationDomain::Overlap => self.count(e),
            IterationDomain::Kernel => self.kernel_count(e),
        }
    }
}

/// Result of a sequential reference run.
#[derive(Debug, Clone)]
pub struct SeqResult {
    /// Final values of every output array, in global numbering.
    pub output_arrays: IdVec<Vec<f64>>,
    /// Final values of every output scalar.
    pub output_scalars: IdVec<f64>,
    /// Time-loop iterations executed.
    pub iterations: usize,
    /// Abstract compute units executed (loop iterations weighted).
    pub compute_units: f64,
}

/// Run the sequential reference execution of a program on global mesh
/// data — the oracle every engine's result is compared with.
pub fn run_sequential(prog: &Program, b: &Bindings) -> SeqResult {
    b.validate(prog).expect("bindings validate");
    let mut m = Machine::new(prog, b.counts, b.counts);
    for (v, binding) in b.maps.iter() {
        let table = b.global_table(binding);
        m.maps[v] = table.expect("structural table present in bindings");
    }
    for (v, arr) in b.input_arrays.iter() {
        m.arrays[v] = arr.clone();
    }
    for (v, &s) in b.input_scalars.iter() {
        m.scalars[v] = s;
    }

    let k = Kernel::lower(prog, |_| false).unwrap_or_else(|e| panic!("{e}"));
    k.check_tables(prog, std::slice::from_ref(&m)).unwrap_or_else(|e| panic!("{e}"));

    let mut iterations = 0usize;
    run_block_seq(&prog.body, &k, &mut m, &mut iterations);

    let mut output_arrays = IdVec::default();
    let mut output_scalars = IdVec::default();
    for v in prog.outputs() {
        match prog.decl(v).kind {
            VarKind::Scalar => {
                output_scalars.insert(v, m.scalars[v]);
            }
            VarKind::Array { .. } => {
                output_arrays.insert(v, m.arrays[v].clone());
            }
            VarKind::Map { .. } => {}
        }
    }
    SeqResult {
        output_arrays,
        output_scalars,
        iterations,
        compute_units: m.compute_units,
    }
}

fn run_block_seq(stmts: &[Stmt], k: &Kernel, m: &mut Machine, iterations: &mut usize) -> bool {
    for s in stmts {
        match s {
            Stmt::Loop(l) => {
                let n = m.count(l.entity);
                m.exec_loop(k, l.id, n, n);
            }
            Stmt::TimeLoop(t) => {
                'time: for _ in 0..t.max_iters {
                    *iterations += 1;
                    if run_block_seq(&t.body, k, m, iterations) {
                        break 'time;
                    }
                }
            }
            Stmt::Assign(_) | Stmt::ExitIf(_) => {
                if m.exec_stmt(k, s.id()) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_ir::programs;
    use syncplace_mesh::gen2d;

    fn testiv_bindings(nx: usize, ny: usize) -> (Program, Bindings) {
        let p = programs::testiv();
        let mesh = gen2d::grid(nx, ny);
        let b = crate::bindings::testiv_bindings(&p, &mesh, 1e-10);
        (p, b)
    }

    #[test]
    fn sequential_testiv_converges_to_constant() {
        // With INIT = 1 everywhere and area-weighted averaging, the
        // field should stay near 1 and converge quickly.
        let (p, b) = testiv_bindings(6, 6);
        let r = run_sequential(&p, &b);
        assert!(r.iterations >= 1);
        let out = &r.output_arrays[p.lookup("RESULT").unwrap()];
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sequential_smoothing_decreases_variation() {
        // A spiky initial field must smooth out.
        let p = programs::testiv();
        let mesh = gen2d::grid(8, 8);
        let mut b = crate::bindings::testiv_bindings(&p, &mesh, 0.0);
        let init = p.lookup("INIT").unwrap();
        let spiky: Vec<f64> = (0..mesh.nnodes())
            .map(|i| if i % 2 == 0 { 2.0 } else { 0.0 })
            .collect();
        b.input_arrays.insert(init, spiky.clone());
        let r = run_sequential(&p, &b);
        let out = &r.output_arrays[p.lookup("RESULT").unwrap()];
        let spread = |xs: &[f64]| {
            let max = xs.iter().cloned().fold(f64::MIN, f64::max);
            let min = xs.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            spread(out) < spread(&spiky),
            "{} !< {}",
            spread(out),
            spread(&spiky)
        );
        // epsilon = 0 means the cap is reached.
        assert_eq!(r.iterations, 100);
    }

    #[test]
    fn machine_counts_compute_units() {
        let (p, b) = testiv_bindings(4, 4);
        let r = run_sequential(&p, &b);
        assert!(r.compute_units > 0.0);
    }

    #[test]
    fn intrinsics_and_operators_evaluate() {
        let p = syncplace_ir::parser::parse(
            "program t\n input a : scalar\n output b : scalar\n output c : scalar\n output d : scalar\n b = sqrt(abs(0.0 - a))\n c = max(a, 10.0) + min(a, 2.0)\n d = (a + 1.0) * (a - 1.0) / 3.0\nend",
        )
        .unwrap();
        let mut bind = crate::bindings::Bindings::default();
        bind.input_scalars.insert(p.lookup("a").unwrap(), 4.0);
        let r = run_sequential(&p, &bind);
        assert_eq!(r.output_scalars[p.lookup("b").unwrap()], 2.0);
        assert_eq!(r.output_scalars[p.lookup("c").unwrap()], 12.0);
        assert_eq!(r.output_scalars[p.lookup("d").unwrap()], 5.0);
    }

    #[test]
    fn exit_relations() {
        // s counts 1, 2, …, 5: the test fires at the first s it holds for.
        for (rel, expect) in [("<", 5), ("<=", 1), (">", 2), (">=", 1)] {
            let src = format!(
                "program t\n output s : scalar\n s = 0.0\n iterate k max 5 {{ s = s + 1.0\n exit when s {rel} 1.0 }}\nend"
            );
            let p = syncplace_ir::parser::parse(&src).unwrap();
            let r = run_sequential(&p, &crate::bindings::Bindings::default());
            assert_eq!(r.iterations, expect, "rel {rel}");
        }
    }

    #[test]
    #[should_panic(expected = "absent on this processor")]
    fn absent_map_target_panics() {
        let t = MapTable {
            arity: 1,
            targets: vec![u32::MAX],
        };
        t.get(0, 0);
    }

    #[test]
    fn fixed_access_reads_and_writes() {
        // Fixed element access on a replicated (seq-only) array.
        let p = syncplace_ir::parser::parse(
            "program t\n input A : node\n output s : scalar\n s = A(3)\nend",
        )
        .unwrap();
        let mut b = crate::bindings::Bindings {
            counts: [5, 0, 0, 0],
            ..Default::default()
        };
        b.input_arrays
            .insert(p.lookup("A").unwrap(), vec![10.0, 11.0, 12.0, 13.0, 14.0]);
        let r = run_sequential(&p, &b);
        // A(3) is 1-based in the surface syntax → index 2.
        assert_eq!(r.output_scalars[p.lookup("s").unwrap()], 12.0);
    }

    #[test]
    fn kernel_guard_limits_reduction_iterations() {
        let p = syncplace_ir::parser::parse(
            "program t\n input A : node\n output s : scalar\n s = 0.0\n forall i in node split { s = s + A(i) }\nend",
        )
        .unwrap();
        let mut m = Machine::new(&p, [4, 0, 0, 0], [2, 0, 0, 0]);
        m.arrays[p.lookup("A").unwrap()] = vec![1.0, 2.0, 4.0, 8.0];
        let red_stmt = match &p.body[1] {
            syncplace_ir::Stmt::Loop(l) => l.body[0].id,
            _ => panic!(),
        };
        let k = Kernel::lower(&p, |s| s == red_stmt).unwrap();
        match &p.body[1] {
            syncplace_ir::Stmt::Loop(l) => m.exec_loop(&k, l.id, 4, 2),
            _ => panic!(),
        }
        // Guarded: only the 2 kernel entries accumulate.
        assert_eq!(m.scalars[p.lookup("s").unwrap()], 3.0);
    }
}
