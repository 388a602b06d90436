//! Binding program variables to mesh data.
//!
//! The analyzed program is symbolic: `SOM : tri -> node [3]` names an
//! indirection array, `INIT : node` an input field. A [`Bindings`]
//! value supplies the concrete data: which connectivity each map is
//! (element→vertices, edge→endpoints, or a custom table), the global
//! values of every input array, and the values of input scalars.

use syncplace_ir::{EntityKind, IdVec, Program, Stmt, VarKind};
use syncplace_mesh::Mesh;
use syncplace_overlap::elem_kind;

/// A concrete indirection table in *global* entity numbering.
#[derive(Debug, Clone)]
pub struct MapData {
    /// Targets per source entity.
    pub arity: usize,
    /// `targets[from * arity + slot]` = global target id.
    pub targets: Vec<u32>,
}

/// What connectivity a declared map stands for.
#[derive(Debug, Clone)]
pub enum MapBinding {
    /// Element → its vertices (the `SOM` array: triangle or tet corners).
    ElemNodes,
    /// Edge → its two endpoint nodes (the `SEG` array).
    EdgeNodes,
    /// An arbitrary table in global numbering (e.g. a node→node
    /// stencil); localized per sub-mesh automatically.
    Custom(MapData),
}

/// All concrete data for one program run. The per-variable tables are
/// [`IdVec`]s indexed by `VarId`.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    /// Global entity counts, indexed by [`EntityKind`] discriminant
    /// order: node, edge, tri, tet.
    pub counts: [usize; 4],
    /// Map bindings per map variable.
    pub maps: IdVec<MapBinding>,
    /// Global values of input arrays.
    pub input_arrays: IdVec<Vec<f64>>,
    /// Values of input scalars.
    pub input_scalars: IdVec<f64>,
    /// Element → vertex table in global numbering (flattened), for
    /// resolving [`MapBinding::ElemNodes`] in the sequential run.
    pub elem_table: Option<MapData>,
    /// Edge → endpoint table in global numbering; `None` unless the
    /// program mentions edges (see [`Bindings::for_mesh`]).
    pub edge_table: Option<MapData>,
}

/// Index of an entity kind into `counts`.
pub fn kind_index(e: EntityKind) -> usize {
    match e {
        EntityKind::Node => 0,
        EntityKind::Edge => 1,
        EntityKind::Tri => 2,
        EntityKind::Tet => 3,
    }
}

impl Bindings {
    /// Validate that every input of the program is bound and sized.
    pub fn validate(&self, prog: &Program) -> Result<(), String> {
        for v in prog.inputs() {
            match &prog.decl(v).kind {
                VarKind::Scalar => {
                    if !self.input_scalars.contains(v) {
                        return Err(format!("input scalar {} unbound", prog.decl(v).name));
                    }
                }
                VarKind::Array { base } => {
                    let arr = self
                        .input_arrays
                        .get(v)
                        .ok_or_else(|| format!("input array {} unbound", prog.decl(v).name))?;
                    let want = self.counts[kind_index(*base)];
                    if arr.len() != want {
                        return Err(format!(
                            "input array {} has {} values, mesh has {want} {base}s",
                            prog.decl(v).name,
                            arr.len()
                        ));
                    }
                }
                VarKind::Map { from, to, arity } => match self.maps.get(v) {
                    Some(MapBinding::ElemNodes) => {
                        if *to != EntityKind::Node {
                            return Err(format!(
                                "map {} bound to element corners but targets {to}s",
                                prog.decl(v).name
                            ));
                        }
                    }
                    Some(MapBinding::EdgeNodes) => {
                        if *from != EntityKind::Edge || *to != EntityKind::Node || *arity != 2 {
                            return Err(format!(
                                "map {} bound to edge endpoints but declared {from}->{to}[{arity}]",
                                prog.decl(v).name
                            ));
                        }
                    }
                    Some(MapBinding::Custom(m)) => {
                        if m.arity != *arity {
                            return Err(format!(
                                "map {} custom table arity {} != declared {arity}",
                                prog.decl(v).name,
                                m.arity
                            ));
                        }
                        let nfrom = self.counts[kind_index(*from)];
                        if m.targets.len() != nfrom * m.arity {
                            return Err(format!(
                                "map {} table has {} entries, expected {}",
                                prog.decl(v).name,
                                m.targets.len(),
                                nfrom * m.arity
                            ));
                        }
                    }
                    None => {
                        return Err(format!("map {} unbound", prog.decl(v).name));
                    }
                },
            }
        }
        Ok(())
    }

    /// The global-numbering table a binding stands for, in the
    /// machine's format (the sequential run's "localization"); `None`
    /// when a structural binding's table is missing.
    pub fn global_table(&self, binding: &MapBinding) -> Option<crate::exec::MapTable> {
        let data = match binding {
            MapBinding::ElemNodes => self.elem_table.as_ref(),
            MapBinding::EdgeNodes => self.edge_table.as_ref(),
            MapBinding::Custom(t) => Some(t),
        };
        data.map(|m| crate::exec::MapTable {
            arity: m.arity,
            targets: m.targets.clone(),
        })
    }

    /// Standard bindings for a mesh of `V`-vertex elements (triangles
    /// or tets): entity counts from the mesh, every declared `elem ->
    /// node [V]` map bound to element corners and every `edge -> node
    /// [2]` map to edge endpoints. Edges are read from the mesh's own
    /// numbering ([`Mesh::edges`], the one the decomposition reads) only when
    /// `prog` mentions them — an edge-based array, a map from or to
    /// `edge`, or a `forall … in edge` loop; otherwise `edge_table` is
    /// `None` and the edge count 0, since nothing can read either.
    pub fn for_mesh<const D: usize, const V: usize>(prog: &Program, mesh: &Mesh<D, V>) -> Bindings {
        let (ek, elems) = (elem_kind::<V>(), mesh.elems());
        let mut counts = [0; 4];
        counts[kind_index(EntityKind::Node)] = mesh.nnodes();
        counts[kind_index(ek)] = elems.len();
        let mut edge_table = None;
        if mentions_edges(prog) {
            let edges = &mesh.edges().keys;
            counts[kind_index(EntityKind::Edge)] = edges.len();
            edge_table = Some(MapData {
                arity: 2,
                targets: edges.iter().flatten().copied().collect(),
            });
        }
        let maps = (prog.decls.iter().enumerate())
            .filter_map(|(v, d)| {
                let VarKind::Map { from, to, arity } = d.kind else {
                    return None;
                };
                let binding = match (from, to, arity) {
                    (f, EntityKind::Node, a) if f == ek && a == V => MapBinding::ElemNodes,
                    (EntityKind::Edge, EntityKind::Node, 2) => MapBinding::EdgeNodes,
                    _ => return None,
                };
                Some((v, binding))
            })
            .collect();
        Bindings {
            counts,
            maps,
            elem_table: Some(MapData {
                arity: V,
                targets: elems.iter().flatten().copied().collect(),
            }),
            edge_table,
            ..Default::default()
        }
    }
}

/// Does `prog` mention the edge entity: an edge-based array, a map from
/// or to `edge`, or a `forall … in edge` loop?
fn mentions_edges(prog: &Program) -> bool {
    fn loops_over_edges(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Loop(l) => l.entity == EntityKind::Edge,
            Stmt::TimeLoop(t) => loops_over_edges(&t.body),
            Stmt::Assign(_) | Stmt::ExitIf(_) => false,
        })
    }
    let is_edge = |k| k == EntityKind::Edge;
    prog.decls.iter().any(|d| match d.kind {
        VarKind::Scalar => false,
        VarKind::Array { base } => is_edge(base),
        VarKind::Map { from, to, .. } => is_edge(from) || is_edge(to),
    }) || loops_over_edges(&prog.body)
}

/// Ready-made bindings for the TESTIV program on a 2-D mesh: `INIT`
/// uniform 1, `AIRETRI` triangle areas, `AIRESOM` assembled nodal
/// areas scaled so that a constant field is a fixed point of the
/// averaging (the convergence behaviour of the paper's example).
pub fn testiv_bindings(prog: &Program, mesh: &syncplace_mesh::Mesh2d, epsilon: f64) -> Bindings {
    let mut b = Bindings::for_mesh(prog, mesh);
    let areas: Vec<f64> = (0..mesh.ntris())
        .map(|t| mesh.signed_area(t).abs())
        .collect();
    // vm = (ΣOLD)·A/18; NEW(s) += vm/AIRESOM(s). A constant field c is
    // preserved when AIRESOM(s) = Σ incident A / 6.
    let mut airesom = vec![0.0; mesh.nnodes()];
    for (t, tri) in mesh.som().iter().enumerate() {
        for &s in tri {
            airesom[s as usize] += areas[t] / 6.0;
        }
    }
    b.input_arrays
        .insert(prog.lookup("INIT").expect("INIT"), vec![1.0; mesh.nnodes()]);
    b.input_arrays
        .insert(prog.lookup("AIRETRI").expect("AIRETRI"), areas);
    b.input_arrays
        .insert(prog.lookup("AIRESOM").expect("AIRESOM"), airesom);
    b.input_scalars
        .insert(prog.lookup("epsilon").expect("epsilon"), epsilon);
    b
}

/// Ready-made bindings for the 3-D `tetheat` program: volumes and
/// assembled nodal volumes (constant-preserving scaling).
pub fn tet_heat_bindings(prog: &Program, mesh: &syncplace_mesh::Mesh3d, epsilon: f64) -> Bindings {
    let mut b = Bindings::for_mesh(prog, mesh);
    let vols: Vec<f64> = (0..mesh.ntets())
        .map(|t| mesh.signed_volume(t).abs())
        .collect();
    // vm = (Σ4 OLD)·V/16; constant preserved when VOLS(s) = ΣV/4.
    let mut vols_n = vec![0.0; mesh.nnodes()];
    for (t, tet) in mesh.tets().iter().enumerate() {
        for &s in tet {
            vols_n[s as usize] += vols[t] / 4.0;
        }
    }
    b.input_arrays
        .insert(prog.lookup("INIT").expect("INIT"), vec![1.0; mesh.nnodes()]);
    b.input_arrays
        .insert(prog.lookup("VOLT").expect("VOLT"), vols);
    b.input_arrays
        .insert(prog.lookup("VOLS").expect("VOLS"), vols_n);
    b.input_scalars
        .insert(prog.lookup("epsilon").expect("epsilon"), epsilon);
    b
}

/// Ready-made bindings for the `edgesmooth` program: unit edge
/// weights and an input field.
pub fn edge_smooth_bindings(
    prog: &Program,
    mesh: &syncplace_mesh::Mesh2d,
    x: Vec<f64>,
) -> Bindings {
    let mut b = Bindings::for_mesh(prog, mesh);
    assert_eq!(x.len(), mesh.nnodes());
    b.input_arrays.insert(prog.lookup("X").expect("X"), x);
    let nedges = b.counts[kind_index(EntityKind::Edge)];
    b.input_arrays
        .insert(prog.lookup("W").expect("W"), vec![1.0; nedges]);
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_ir::programs;
    use syncplace_mesh::{gen2d, gen3d};

    #[test]
    fn testiv_bindings_validate() {
        let p = programs::testiv();
        testiv_bindings(&p, &gen2d::grid(4, 4), 1e-6)
            .validate(&p)
            .unwrap();
    }

    #[test]
    fn missing_input_caught() {
        let p = programs::testiv();
        let mesh = gen2d::grid(3, 3);
        let b = Bindings::for_mesh(&p, &mesh);
        assert!(b.validate(&p).is_err());
    }

    #[test]
    fn wrong_size_caught() {
        let p = programs::testiv();
        let mut b = testiv_bindings(&p, &gen2d::grid(3, 3), 1e-6);
        b.input_arrays
            .insert(p.lookup("INIT").unwrap(), vec![1.0; 3]);
        let err = b.validate(&p).unwrap_err();
        assert!(err.contains("INIT"), "{err}");
    }

    #[test]
    fn edge_table_only_for_programs_that_mention_edges() {
        let grid = gen2d::grid(4, 3);
        let tets = gen3d::box_mesh(2, 2, 1);
        let edge = kind_index(EntityKind::Edge);
        for b in [
            testiv_bindings(&programs::testiv(), &grid, 0.0),
            Bindings::for_mesh(&programs::fig5_sketch(), &grid),
            tet_heat_bindings(&programs::tet_heat(1), &tets, 0.0),
        ] {
            assert!(b.edge_table.is_none());
            assert_eq!(b.counts[edge], 0);
        }
        let x = vec![1.0; grid.nnodes()];
        let b = edge_smooth_bindings(&programs::edge_smooth(), &grid, x);
        let nedges = grid.edges().keys.len();
        assert_eq!(b.counts[edge], nedges);
        assert_eq!(b.edge_table.map(|t| t.targets.len()), Some(2 * nedges));
    }

    #[test]
    fn edge_table_matches_decomposition_edges() {
        // One edge numbering across modules: the bindings' global edge
        // table is the mesh's, and each sub-mesh edge's global id names
        // the same two nodes in it.
        use syncplace_overlap::{decompose2d, Pattern};
        use syncplace_partition::{partition2d, Method};
        let mesh = gen2d::perturbed_grid(7, 6, 0.2, 11);
        let x = vec![1.0; mesh.nnodes()];
        let b = edge_smooth_bindings(&programs::edge_smooth(), &mesh, x);
        let p = partition2d(&mesh, 3, Method::Greedy);
        let d = decompose2d(&mesh, &p.part, 3, Pattern::FIG1);
        let table = b.edge_table.expect("edgesmooth has edges").targets;
        let global: Vec<u32> = mesh.edges().keys.iter().flatten().copied().collect();
        assert_eq!(table, global);
        for s in &d.submeshes {
            for (e, &g) in s.edges.iter().zip(&s.edges_l2g) {
                let mut nodes = e.map(|n| s.nodes_l2g[n as usize]);
                nodes.sort_unstable();
                assert_eq!(table[2 * g as usize..][..2], nodes);
            }
        }
    }
}
