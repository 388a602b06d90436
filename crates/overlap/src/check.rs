//! Decomposition invariant checkers and a reference implementation of
//! the two communication procedures.
//!
//! `apply_update` / `apply_assemble` are the *reference* (schedule-
//! driven, sequential) semantics of the `C$SYNCHRONIZE` directives: the
//! inspector runs its ghost gathers through `apply_update`, and the
//! test suites' plan-free reference run, which every runtime engine
//! must match bit for bit, runs its updates through it.

use crate::build::Decomposition;
use crate::schedule::UpdateSchedule;
use crate::submesh::{elem_kind, SubMesh};
use syncplace_mesh::EntityKind;

/// Apply an owner→copies update along `schedule` to per-processor
/// arrays of its entity kind (Fig. 1 on the node schedule): every copy
/// it lists receives its owner's kernel value.
pub fn apply_update(schedule: &UpdateSchedule, locals: &mut [Vec<f64>]) {
    for m in &schedule.msgs {
        for &(src, dst) in &m.pairs {
            let v = locals[m.from as usize][src as usize];
            locals[m.to as usize][dst as usize] = v;
        }
    }
}

/// Apply the Fig. 2 assembly communication along the node schedule:
/// reverse, each holder's partial is added into its owner's copy (owner
/// first, then holders by ascending part, as the messages ascend by
/// `(owner, holder)`); forward, the owner's total is written back to
/// every copy.
pub fn apply_assemble<const V: usize>(d: &Decomposition<V>, locals: &mut [Vec<f64>]) {
    for m in &d.node_update.msgs {
        for &(src, dst) in &m.pairs {
            let v = locals[m.to as usize][dst as usize];
            locals[m.from as usize][src as usize] += v;
        }
    }
    apply_update(&d.node_update, locals);
}

/// Are the local node arrays *coherent*, i.e. does every copy of every
/// global node hold the same value as its owner's kernel copy (state
/// `Nod0` of the overlap automaton)?
pub fn is_coherent<const V: usize>(d: &Decomposition<V>, locals: &[Vec<f64>], tol: f64) -> bool {
    let owned = d
        .gather(EntityKind::Node, locals)
        .expect("every arity has nodes");
    let stale = |(s, local): (&SubMesh<V>, &Vec<f64>)| {
        (s.nodes_l2g.iter().zip(local)).any(|(&g, &v)| (v - owned[g as usize]).abs() > tol)
    };
    !d.submeshes.iter().zip(locals).any(stale)
}

/// Full structural audit of a decomposition. Returns the first
/// violated invariant as an error string.
pub fn audit<const V: usize>(d: &Decomposition<V>) -> Result<(), String> {
    // Sub-mesh internal validity.
    for s in &d.submeshes {
        s.validate().map_err(|e| format!("part {}: {e}", s.part))?;
    }
    // Kernel cover/uniqueness: every entity is kernel on exactly one
    // part, its owner.
    for kind in [EntityKind::Node, elem_kind::<V>(), EntityKind::Edge] {
        let owners = d.owners(kind).unwrap_or_default();
        let mut owned = vec![0u32; owners.len()];
        for s in &d.submeshes {
            let kernel = &s.l2g(kind).unwrap_or_default()[..s.n_kernel(kind).unwrap_or_default()];
            for &g in kernel {
                owned[g as usize] += 1;
                if owners[g as usize] != s.part {
                    return Err(format!(
                        "{kind} {g} is kernel in part {} but owned by {}",
                        s.part, owners[g as usize]
                    ));
                }
            }
        }
        if let Some(g) = owned.iter().position(|&c| c != 1) {
            return Err(format!("{kind} {g} kernel-owned {} times", owned[g]));
        }
    }
    // The node schedule moves exactly one value per copy, under every
    // pattern.
    let slots: usize = d.submeshes.iter().map(|s| s.nnodes()).sum();
    let copies = slots - d.nnodes_global;
    if d.node_update.total_values() != copies {
        return Err(format!(
            "node schedule moves {} values but there are {copies} copies",
            d.node_update.total_values()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::decompose2d;
    use crate::pattern::Pattern;
    use syncplace_mesh::gen2d;
    use syncplace_partition::{partition2d, Method};

    fn fig1_decomp() -> Decomposition<3> {
        let mesh = gen2d::grid(8, 8);
        let p = partition2d(&mesh, 4, Method::Greedy);
        decompose2d(&mesh, &p.part, 4, Pattern::FIG1)
    }

    #[test]
    fn update_restores_coherence() {
        let d = fig1_decomp();
        let global: Vec<f64> = (0..d.nnodes_global).map(|i| (i * 7 % 13) as f64).collect();
        let mut locals = d.scatter(EntityKind::Node, &global).unwrap();
        // Corrupt all overlap values.
        for s in &d.submeshes {
            for v in &mut locals[s.part as usize][s.n_kernel_nodes..s.nnodes()] {
                *v = -999.0;
            }
        }
        assert!(!is_coherent(&d, &locals, 1e-12));
        apply_update(&d.node_update, &mut locals);
        assert!(is_coherent(&d, &locals, 1e-12));
        assert_eq!(d.gather(EntityKind::Node, &locals).unwrap(), global);
    }

    #[test]
    fn assemble_sums_partials() {
        let mesh = gen2d::grid(4, 4);
        let p = partition2d(&mesh, 2, Method::Rcb);
        let d = decompose2d(&mesh, &p.part, 2, Pattern::FIG2);
        // Each copy holds 1.0; after assembly every copy of a shared
        // node holds its multiplicity.
        let mut locals: Vec<Vec<f64>> = d.submeshes.iter().map(|s| vec![1.0; s.nnodes()]).collect();
        apply_assemble(&d, &mut locals);
        let mut mult = vec![0u32; d.nnodes_global];
        for s in &d.submeshes {
            for &g in &s.nodes_l2g {
                mult[g as usize] += 1;
            }
        }
        for s in &d.submeshes {
            for (l, &g) in s.nodes_l2g.iter().enumerate() {
                assert_eq!(
                    locals[s.part as usize][l], mult[g as usize] as f64,
                    "node {g}"
                );
            }
        }
    }

    #[test]
    fn audit_passes_for_built_decompositions() {
        let mesh = gen2d::perturbed_grid(9, 7, 0.2, 5);
        for pattern in [
            Pattern::FIG1,
            Pattern::FIG2,
            Pattern::ElementOverlap { layers: 2 },
        ] {
            for np in [1, 2, 3, 5] {
                let p = partition2d(&mesh, np, Method::GreedyKl);
                let d = decompose2d(&mesh, &p.part, np, pattern);
                audit(&d).unwrap_or_else(|e| panic!("{pattern:?} np={np}: {e}"));
            }
        }
    }

    #[test]
    fn audit_catches_corruption() {
        let mut d = fig1_decomp();
        d.node_update.msgs[0].pairs.pop();
        assert!(audit(&d).is_err());
    }

    /// One nodal gather–scatter step (sum over incident elements of
    /// the sum of their corner values), on arbitrary `[u32;3]` elems.
    fn gs_step(nnodes: usize, elems: &[[u32; 3]], old: &[f64]) -> Vec<f64> {
        let mut new = vec![0.0; nnodes];
        for el in elems {
            let s: f64 = el.iter().map(|&v| old[v as usize]).sum();
            for &v in el {
                new[v as usize] += s;
            }
        }
        new
    }

    /// An L-layer overlap must support L consecutive gather–scatter
    /// steps with exact kernel values and no communication (the wide-
    /// overlap amortization of §5.1).
    #[test]
    fn l_layer_closure_supports_l_steps_without_comm() {
        let mesh = gen2d::perturbed_grid(12, 12, 0.2, 17);
        let global0: Vec<f64> = (0..mesh.nnodes()).map(|i| ((i * 31) % 23) as f64).collect();
        for layers in [1usize, 2, 3] {
            let p = partition2d(&mesh, 4, Method::Greedy);
            let d = decompose2d(&mesh, &p.part, 4, Pattern::ElementOverlap { layers });
            // Global reference: `layers` steps.
            let mut global = global0.clone();
            for _ in 0..layers {
                global = gs_step(mesh.nnodes(), mesh.som(), &global);
            }
            // Local: same steps on each sub-mesh, full local domain,
            // NO communication.
            let locals0 = d.scatter(EntityKind::Node, &global0).unwrap();
            for s in &d.submeshes {
                let mut local = locals0[s.part as usize].clone();
                for _ in 0..layers {
                    local = gs_step(s.nnodes(), &s.elems, &local);
                }
                for (l, &g) in s.nodes_l2g.iter().enumerate().take(s.n_kernel_nodes) {
                    assert!(
                        (local[l] - global[g as usize]).abs() < 1e-9,
                        "layers={layers} part={} node {g}: {} != {}",
                        s.part,
                        local[l],
                        global[g as usize]
                    );
                }
            }
        }
    }

    /// And L+1 steps must NOT be exact (the closure is tight, not
    /// accidentally global).
    #[test]
    fn l_plus_one_steps_need_communication() {
        let mesh = gen2d::perturbed_grid(12, 12, 0.2, 17);
        let global0: Vec<f64> = (0..mesh.nnodes()).map(|i| ((i * 31) % 23) as f64).collect();
        let p = partition2d(&mesh, 4, Method::Greedy);
        let d = decompose2d(&mesh, &p.part, 4, Pattern::ElementOverlap { layers: 1 });
        let mut global = global0.clone();
        for _ in 0..2 {
            global = gs_step(mesh.nnodes(), mesh.som(), &global);
        }
        let locals0 = d.scatter(EntityKind::Node, &global0).unwrap();
        let mut any_wrong = false;
        for s in &d.submeshes {
            let mut local = locals0[s.part as usize].clone();
            for _ in 0..2 {
                local = gs_step(s.nnodes(), &s.elems, &local);
            }
            for (l, &g) in s.nodes_l2g.iter().enumerate().take(s.n_kernel_nodes) {
                if (local[l] - global[g as usize]).abs() > 1e-9 {
                    any_wrong = true;
                }
            }
        }
        assert!(any_wrong, "two steps on a 1-layer overlap should be stale");
    }
}
