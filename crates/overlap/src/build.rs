//! Decomposition builder: mesh + partition + pattern → sub-meshes and
//! communication schedules.
//!
//! Ownership conventions (deterministic, partition-derived):
//!
//! * an **element** is owned by its part;
//! * a **node** is owned by the minimum part id among its incident
//!   elements;
//! * an **edge** is owned by the minimum part id among its incident
//!   elements.
//!
//! Under [`Pattern::ElementOverlap`], sub-mesh `p` contains its own
//! elements plus the *closure* required by the paper's correctness
//! argument (§2.3): every element incident to a kernel node of `p`
//! (repeated `layers` times). One local gather–scatter step then
//! computes exact values for all kernel nodes; overlap-node values are
//! refreshed by the [`UpdateSchedule`].
//!
//! Under [`Pattern::NodeOverlap`], no element is duplicated; interface
//! nodes are shared between parts and their post-scatter partial
//! values are combined by the [`AssembleSchedule`].
//!
//! The whole construction path is CSR-lean: entity deduplication uses
//! the shared sort-based first-seen numbering of `syncplace-mesh`
//! ([`edges_first_seen`]), per-part closure and localization run over
//! stamp-validated scratch arrays that are allocated once and reused
//! across parts, and schedules are derived from an entity placement
//! (a global-entity → (part, local) CSR) instead of dense per-part
//! lookup tables. Total cost is O(M log M) for the dedup plus O(total
//! sub-mesh slots) for everything else — no per-entity hashing and no
//! dense O(parts × entities) scans, so million-element meshes at
//! 128 parts stay within a few hundred bytes per element.
//!
//! A build is three steps: [`global_setup`], [`build_submesh`] once per
//! part, then [`finish`] (placements, schedules and the one
//! [`Decomposition`] literal). [`decompose`] runs them in order.
//! They are public because the runtime's parallel builder runs
//! the same three, with only the per-part step on its pool.

use crate::pattern::Pattern;
use crate::schedule::{AssembleSchedule, UpdateSchedule};
use crate::submesh::SubMesh;
use syncplace_mesh::{edges_first_seen, n_vertex_pairs, Csr, Mesh2d, Mesh3d};

/// A complete decomposition: all sub-meshes plus schedules and
/// global↔local transfer helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition<const V: usize> {
    /// The overlapping pattern this decomposition implements.
    pub pattern: Pattern,
    /// Number of parts (processors).
    pub nparts: usize,
    /// Global node count.
    pub nnodes_global: usize,
    /// Global element count.
    pub nelems_global: usize,
    /// Global unique edges (sorted pairs, first-seen order over elements).
    pub global_edges: Vec<[u32; 2]>,
    /// Owner part per global node.
    pub node_owner: Vec<u32>,
    /// Owner part per global edge.
    pub edge_owner: Vec<u32>,
    /// Part per global element (copied from the partition).
    pub elem_part: Vec<u32>,
    /// The localized sub-meshes, index = part id.
    pub submeshes: Vec<SubMesh<V>>,
    /// Owner→copies node update schedule (element-overlap patterns).
    pub node_update: UpdateSchedule,
    /// Owner→copies edge update schedule (element-overlap patterns).
    pub edge_update: UpdateSchedule,
    /// Shared-node assembly schedule (node-overlap pattern; empty otherwise).
    pub node_assemble: AssembleSchedule,
}

/// Wall-clock breakdown of one parallel decomposition build, by stage
/// (the runtime's pool builder returns it; the sequential [`decompose`]
/// reads no clock).
#[derive(Debug, Clone, Copy, Default)]
pub struct DecomposeStats {
    /// Ownership scans + sort-based edge dedup + incidence CSRs.
    pub dedup_s: f64,
    /// Per-part overlap closure + localization (sub-mesh building).
    pub closure_s: f64,
    /// Placement CSRs + update/assembly schedules.
    pub schedule_s: f64,
    /// End-to-end build time (≥ the sum of the stages).
    pub total_s: f64,
}

/// Decompose a 2-D mesh. `part` must assign every triangle a part id
/// below `nparts`.
pub fn decompose2d(
    mesh: &Mesh2d,
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
) -> Decomposition<3> {
    decompose(mesh.nnodes(), &mesh.som, part, nparts, pattern)
}

/// Decompose a 3-D mesh.
pub fn decompose3d(
    mesh: &Mesh3d,
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
) -> Decomposition<4> {
    decompose(mesh.nnodes(), &mesh.tets, part, nparts, pattern)
}

/// Generic decomposition over `V`-vertex elements: [`global_setup`],
/// [`build_submesh`] once per part, then [`finish`].
pub fn decompose<const V: usize>(
    nnodes: usize,
    elems: &[[u32; V]],
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
) -> Decomposition<V> {
    let setup = global_setup(nnodes, elems, part, nparts, pattern);
    let mut scratch = PartScratch::new(&setup);
    let submeshes: Vec<SubMesh<V>> = (0..nparts as u32)
        .map(|p| build_submesh(&setup, elems, p, &mut scratch))
        .collect();
    finish(setup, submeshes, part, pattern)
}

/// The last build step: placement CSRs over the built sub-meshes, the
/// update (element overlap) or assembly (node overlap) schedules, and
/// the [`Decomposition`] that holds them with `setup`'s ownership and
/// edges. `submeshes[p]` must be part `p`'s [`build_submesh`].
pub fn finish<const V: usize>(
    setup: GlobalSetup,
    submeshes: Vec<SubMesh<V>>,
    part: &[u32],
    pattern: Pattern,
) -> Decomposition<V> {
    let (nnodes, nparts) = (setup.nnodes, setup.nparts);
    let mut node_update = UpdateSchedule::new(nparts);
    let mut edge_update = UpdateSchedule::new(nparts);
    let mut node_assemble = AssembleSchedule::default();
    match pattern {
        Pattern::ElementOverlap { .. } => {
            let node_place =
                EntityPlacement::from_l2g(nnodes, submeshes.iter().map(|s| s.nodes_l2g.as_slice()));
            let edge_place = EntityPlacement::from_l2g(
                setup.global_edges.len(),
                submeshes.iter().map(|s| s.edges_l2g.as_slice()),
            );
            let owner_nodes = owner_csr(nparts, &setup.node_owner);
            let owner_edges = owner_csr(nparts, &setup.edge_owner);
            for p in 0..nparts {
                node_update.msgs[p] =
                    update_rows_for_owner(p as u32, owner_nodes.row(p), &node_place, nparts);
                edge_update.msgs[p] =
                    update_rows_for_owner(p as u32, owner_edges.row(p), &edge_place, nparts);
            }
        }
        Pattern::NodeOverlap => {
            let node_place =
                EntityPlacement::from_l2g(nnodes, submeshes.iter().map(|s| s.nodes_l2g.as_slice()));
            node_assemble.groups = assemble_groups(&setup.node_owner, &node_place);
        }
    }
    Decomposition {
        pattern,
        nparts,
        nnodes_global: nnodes,
        nelems_global: part.len(),
        global_edges: setup.global_edges,
        node_owner: setup.node_owner,
        edge_owner: setup.edge_owner,
        elem_part: part.to_vec(),
        submeshes,
        node_update,
        edge_update,
        node_assemble,
    }
}

// --- Global setup ----------------------------------------------------------

/// Everything the per-part sub-mesh builder needs, derived once from
/// the global mesh: ownership, the deduplicated edge set, and the
/// incidence CSRs. Element arrays are *not* stored here — callers pass
/// them alongside, so the parallel builder can share one copy.
#[derive(Debug, Clone)]
pub struct GlobalSetup {
    /// Global node count.
    pub nnodes: usize,
    /// Number of parts.
    pub nparts: usize,
    /// Overlap layers (0 under [`Pattern::NodeOverlap`]).
    pub layers: usize,
    /// Owner part per global node (min incident element part).
    pub node_owner: Vec<u32>,
    /// Owner part per global edge (min incident element part).
    pub edge_owner: Vec<u32>,
    /// Global unique edges (sorted pairs, first-seen order over elements).
    pub global_edges: Vec<[u32; 2]>,
    /// Element-local pair slot → global edge id, flattened:
    /// `elem_edges[e * E + k]` with `E = V(V−1)/2`, as
    /// [`edges_first_seen`] numbers them.
    pub elem_edges: Vec<u32>,
    /// Node → incident elements (for the overlap closure).
    pub node_elems: Csr,
    /// Part → its kernel elements, ascending global id.
    pub part_elems: Csr,
}

/// Overlap layer count implied by a pattern.
fn layers_of(pattern: Pattern) -> usize {
    match pattern {
        Pattern::ElementOverlap { layers } => {
            assert!(layers >= 1, "element overlap needs >= 1 layer");
            layers
        }
        Pattern::NodeOverlap => 0,
    }
}

/// The first build step: ownership min-scans, the edge numbering (the
/// same [`edges_first_seen`] bindings and refinement call), and the
/// incidence CSRs.
pub fn global_setup<const V: usize>(
    nnodes: usize,
    elems: &[[u32; V]],
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
) -> GlobalSetup {
    assert_eq!(elems.len(), part.len());
    assert!(part.iter().all(|&p| (p as usize) < nparts));

    let mut node_owner = vec![u32::MAX; nnodes];
    for (e, el) in elems.iter().enumerate() {
        for &v in el {
            let o = &mut node_owner[v as usize];
            *o = (*o).min(part[e]);
        }
    }

    // Global unique edges in the meshes' own numbering; edge owner =
    // min incident element part.
    let e_per = n_vertex_pairs::<V>();
    let (global_edges, elem_edges) = edges_first_seen(elems);
    let mut edge_owner = vec![u32::MAX; global_edges.len()];
    for (i, &id) in elem_edges.iter().enumerate() {
        let o = &mut edge_owner[id as usize];
        *o = (*o).min(part[i / e_per]);
    }
    assert!(
        node_owner.iter().all(|&o| o != u32::MAX),
        "mesh has isolated nodes"
    );

    let mut ne_pairs: Vec<(u32, u32)> = Vec::with_capacity(elems.len() * V);
    for (e, el) in elems.iter().enumerate() {
        for &v in el {
            ne_pairs.push((v, e as u32));
        }
    }
    let node_elems = Csr::from_pairs(nnodes, &ne_pairs);
    drop(ne_pairs);
    let pe_pairs: Vec<(u32, u32)> = part
        .iter()
        .enumerate()
        .map(|(e, &p)| (p, e as u32))
        .collect();
    let part_elems = Csr::from_pairs(nparts, &pe_pairs);
    GlobalSetup {
        nnodes,
        nparts,
        layers: layers_of(pattern),
        node_owner,
        edge_owner,
        global_edges,
        elem_edges,
        node_elems,
        part_elems,
    }
}

impl GlobalSetup {
    /// Global element count.
    pub fn nelems(&self) -> usize {
        self.part_elems.nnz()
    }
}

// --- Per-part sub-mesh construction ----------------------------------------

/// Reusable per-part scratch: stamp-validated arrays sized to the
/// global mesh, allocated once and shared by every part a caller
/// builds (each parallel worker owns one). A slot is valid for part
/// `p` iff its stamp equals `p`, so no clearing between parts.
#[derive(Debug)]
pub struct PartScratch {
    /// Element membership in the current part's set (reset on exit).
    in_set: Vec<bool>,
    /// Closure frontier membership, stamped by part.
    frontier_stamp: Vec<u32>,
    /// Node first-seen marker, stamped by part.
    node_stamp: Vec<u32>,
    /// Global node → local id, valid iff `node_stamp` matches.
    node_local: Vec<u32>,
    /// Edge first-seen marker, stamped by part.
    edge_stamp: Vec<u32>,
}

impl PartScratch {
    /// Fresh scratch sized for `setup`'s mesh.
    pub fn new(setup: &GlobalSetup) -> PartScratch {
        PartScratch {
            in_set: vec![false; setup.nelems()],
            frontier_stamp: vec![u32::MAX; setup.nnodes],
            node_stamp: vec![u32::MAX; setup.nnodes],
            node_local: vec![u32::MAX; setup.nnodes],
            edge_stamp: vec![u32::MAX; setup.global_edges.len()],
        }
    }
}

/// Build part `p`'s localized sub-mesh: kernel elements, the
/// `layers`-deep overlap closure, and first-seen local numbering with
/// kernel entities first. Deterministic for a given setup; the
/// sequential and parallel builders both call this, which is what
/// makes their decompositions bitwise identical.
pub fn build_submesh<const V: usize>(
    setup: &GlobalSetup,
    elems: &[[u32; V]],
    p: u32,
    scratch: &mut PartScratch,
) -> SubMesh<V> {
    // Kernel elements in ascending global order.
    let kernel_elems: &[u32] = setup.part_elems.row(p as usize);
    for &e in kernel_elems {
        scratch.in_set[e as usize] = true;
    }
    // Overlap closure. Invariant after `layers` rounds: starting
    // from coherent node values, `layers` consecutive full-domain
    // gather–scatter steps still produce exact kernel values with
    // no communication (the amortization of wide overlaps, §5.1).
    // Round 1 grows from the kernel nodes; every later round grows
    // from ALL nodes of the current element set — including the
    // non-owned nodes of kernel elements, whose own stencils the
    // next step consumes.
    let mut overlap_elems: Vec<u32> = Vec::new();
    if setup.layers >= 1 {
        let mut frontier_nodes: Vec<u32> = Vec::new();
        for &e in kernel_elems {
            for &v in &elems[e as usize] {
                if setup.node_owner[v as usize] == p && scratch.frontier_stamp[v as usize] != p {
                    scratch.frontier_stamp[v as usize] = p;
                    frontier_nodes.push(v);
                }
            }
        }
        for round in 0..setup.layers {
            let mut added: Vec<u32> = Vec::new();
            for &n in &frontier_nodes {
                for &e in setup.node_elems.row(n as usize) {
                    if !scratch.in_set[e as usize] {
                        scratch.in_set[e as usize] = true;
                        added.push(e);
                    }
                }
            }
            added.sort_unstable();
            overlap_elems.extend(&added);
            // Next frontier: every node of the current set not yet
            // expanded.
            if round + 1 < setup.layers {
                frontier_nodes.clear();
                for &e in kernel_elems.iter().chain(overlap_elems.iter()) {
                    for &v in &elems[e as usize] {
                        if scratch.frontier_stamp[v as usize] != p {
                            scratch.frontier_stamp[v as usize] = p;
                            frontier_nodes.push(v);
                        }
                    }
                }
            }
        }
    }
    // Reset the only non-stamped scratch.
    for &e in kernel_elems.iter().chain(overlap_elems.iter()) {
        scratch.in_set[e as usize] = false;
    }

    // --- Local numbering: kernel entities first ---------------------------
    let elems_l2g: Vec<u32> = kernel_elems
        .iter()
        .chain(overlap_elems.iter())
        .copied()
        .collect();
    let n_kernel_elems = kernel_elems.len();

    // Nodes: first-seen over elements, kernel (owned) before overlap.
    let mut kernel_nodes: Vec<u32> = Vec::new();
    let mut overlap_nodes: Vec<u32> = Vec::new();
    for &e in &elems_l2g {
        for &v in &elems[e as usize] {
            if scratch.node_stamp[v as usize] != p {
                scratch.node_stamp[v as usize] = p;
                if setup.node_owner[v as usize] == p {
                    kernel_nodes.push(v);
                } else {
                    overlap_nodes.push(v);
                }
            }
        }
    }
    let n_kernel_nodes = kernel_nodes.len();
    let nodes_l2g: Vec<u32> = kernel_nodes.into_iter().chain(overlap_nodes).collect();
    for (l, &g) in nodes_l2g.iter().enumerate() {
        scratch.node_local[g as usize] = l as u32;
    }

    // Localized element incidence.
    let local_elems: Vec<[u32; V]> = elems_l2g
        .iter()
        .map(|&e| {
            let mut le = [0u32; V];
            for (k, &v) in elems[e as usize].iter().enumerate() {
                le[k] = scratch.node_local[v as usize];
            }
            le
        })
        .collect();

    // Local edges: first-seen over local elements, kernel before overlap.
    let e_per = n_vertex_pairs::<V>();
    let mut kernel_edges: Vec<(u32 /*global*/, [u32; 2])> = Vec::new();
    let mut ovl_edges: Vec<(u32, [u32; 2])> = Vec::new();
    for &e in &elems_l2g {
        let base = e as usize * e_per;
        for k in 0..e_per {
            let ge = setup.elem_edges[base + k];
            if scratch.edge_stamp[ge as usize] != p {
                scratch.edge_stamp[ge as usize] = p;
                let [a, b] = setup.global_edges[ge as usize];
                let (la, lb) = (
                    scratch.node_local[a as usize],
                    scratch.node_local[b as usize],
                );
                let le = if la < lb { [la, lb] } else { [lb, la] };
                if setup.edge_owner[ge as usize] == p {
                    kernel_edges.push((ge, le));
                } else {
                    ovl_edges.push((ge, le));
                }
            }
        }
    }
    let n_kernel_edges = kernel_edges.len();
    let mut edges_l2g = Vec::with_capacity(kernel_edges.len() + ovl_edges.len());
    let mut local_edges = Vec::with_capacity(edges_l2g.capacity());
    for (ge, le) in kernel_edges.into_iter().chain(ovl_edges) {
        edges_l2g.push(ge);
        local_edges.push(le);
    }

    SubMesh {
        part: p,
        elems_l2g,
        n_kernel_elems,
        elems: local_elems,
        nodes_l2g,
        n_kernel_nodes,
        edges: local_edges,
        edges_l2g,
        n_kernel_edges,
    }
}

// --- Entity placement ------------------------------------------------------

/// Global entity → its `(part, local id)` placements, in CSR form with
/// rows in ascending part order — the sparse replacement for the old
/// dense per-part `local_of` tables (which cost O(parts × entities)
/// memory; this costs O(total sub-mesh slots)).
#[derive(Debug, Clone, PartialEq, Eq)]
struct EntityPlacement {
    offsets: Vec<u32>,
    parts: Vec<u32>,
    locals: Vec<u32>,
}

impl EntityPlacement {
    /// Build from per-part local→global lists (part id = iteration
    /// index, so iterate parts in ascending order).
    fn from_l2g<'a, I>(nglobal: usize, lists: I) -> EntityPlacement
    where
        I: Iterator<Item = &'a [u32]> + Clone,
    {
        let mut counts = vec![0u32; nglobal + 1];
        for l2g in lists.clone() {
            for &g in l2g {
                counts[g as usize + 1] += 1;
            }
        }
        for i in 1..=nglobal {
            counts[i] += counts[i - 1];
        }
        let nnz = counts[nglobal] as usize;
        let mut parts = vec![0u32; nnz];
        let mut locals = vec![0u32; nnz];
        let mut cursor = counts.clone();
        for (p, l2g) in lists.enumerate() {
            for (l, &g) in l2g.iter().enumerate() {
                let c = &mut cursor[g as usize];
                parts[*c as usize] = p as u32;
                locals[*c as usize] = l as u32;
                *c += 1;
            }
        }
        EntityPlacement {
            offsets: counts,
            parts,
            locals,
        }
    }

    /// Number of parts holding entity `g`.
    #[inline]
    fn degree(&self, g: usize) -> usize {
        (self.offsets[g + 1] - self.offsets[g]) as usize
    }

    /// The `(part, local id)` placements of entity `g`, ascending part.
    #[inline]
    fn row(&self, g: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (s, e) = (self.offsets[g] as usize, self.offsets[g + 1] as usize);
        self.parts[s..e]
            .iter()
            .copied()
            .zip(self.locals[s..e].iter().copied())
    }

    /// Local id of entity `g` on part `p`, if present.
    fn local_on(&self, g: usize, p: u32) -> Option<u32> {
        self.row(g).find(|&(q, _)| q == p).map(|(_, l)| l)
    }
}

// --- Schedule construction -------------------------------------------------

/// Owner part → its owned entities (ascending global id).
fn owner_csr(nparts: usize, owner: &[u32]) -> Csr {
    let pairs: Vec<(u32, u32)> = owner
        .iter()
        .enumerate()
        .map(|(g, &o)| (o, g as u32))
        .collect();
    Csr::from_pairs(nparts, &pairs)
}

/// The update-schedule rows sent *by* owner `p`: for every owned
/// entity (ascending global id), one `(src_local_on_p, dst_local_on_q)`
/// pair per non-owner copy. Rows come back sorted by source index.
fn update_rows_for_owner(
    p: u32,
    owned: &[u32],
    place: &EntityPlacement,
    nparts: usize,
) -> Vec<Vec<(u32, u32)>> {
    let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nparts];
    for &g in owned {
        let src = place
            .local_on(g as usize, p)
            .expect("owner holds its entity");
        for (q, dst) in place.row(g as usize) {
            if q != p {
                rows[q as usize].push((src, dst));
            }
        }
    }
    for r in &mut rows {
        r.sort_unstable();
    }
    rows
}

/// Assembly groups in ascending global node order: every node held by
/// ≥ 2 parts yields one `(part, local)` group, owner first then
/// ascending part.
fn assemble_groups(node_owner: &[u32], place: &EntityPlacement) -> Vec<Vec<(u32, u32)>> {
    let mut groups: Vec<Vec<(u32, u32)>> = Vec::new();
    for (n, &owner) in node_owner.iter().enumerate() {
        if place.degree(n) >= 2 {
            let mut group: Vec<(u32, u32)> = place.row(n).collect();
            group.sort_by_key(|&(q, _)| (q != owner, q));
            groups.push(group);
        }
    }
    groups
}

impl<const V: usize> Decomposition<V> {
    /// Split a global node-based array into per-processor local arrays.
    /// One pass over the local slots of each part (no global scans).
    pub fn scatter_node_array(&self, global: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(global.len(), self.nnodes_global);
        self.submeshes
            .iter()
            .map(|s| s.nodes_l2g.iter().map(|&g| global[g as usize]).collect())
            .collect()
    }

    /// Rebuild a global node array from local arrays, reading every
    /// node's value from its owner (kernel values are authoritative).
    /// One pass over kernel slots, which partition the global ids.
    pub fn gather_node_array(&self, locals: &[Vec<f64>]) -> Vec<f64> {
        let mut global = vec![0.0; self.nnodes_global];
        for (p, s) in self.submeshes.iter().enumerate() {
            for (l, &g) in s.nodes_l2g.iter().enumerate().take(s.n_kernel_nodes) {
                debug_assert_eq!(self.node_owner[g as usize], p as u32);
                global[g as usize] = locals[p][l];
            }
        }
        global
    }

    /// Split a global element-based array into per-processor local arrays.
    pub fn scatter_elem_array(&self, global: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(global.len(), self.nelems_global);
        self.submeshes
            .iter()
            .map(|s| s.elems_l2g.iter().map(|&g| global[g as usize]).collect())
            .collect()
    }

    /// Rebuild a global element array from owners' kernel values.
    pub fn gather_elem_array(&self, locals: &[Vec<f64>]) -> Vec<f64> {
        let mut global = vec![0.0; self.nelems_global];
        for (p, s) in self.submeshes.iter().enumerate() {
            for (l, &g) in s.elems_l2g.iter().enumerate().take(s.n_kernel_elems) {
                debug_assert_eq!(self.elem_part[g as usize], p as u32);
                global[g as usize] = locals[p][l];
            }
        }
        global
    }

    /// Split a global edge-based array into per-processor local arrays.
    pub fn scatter_edge_array(&self, global: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(global.len(), self.global_edges.len());
        self.submeshes
            .iter()
            .map(|s| s.edges_l2g.iter().map(|&g| global[g as usize]).collect())
            .collect()
    }

    /// Rebuild a global edge array from owners' kernel values.
    pub fn gather_edge_array(&self, locals: &[Vec<f64>]) -> Vec<f64> {
        let mut global = vec![0.0; self.global_edges.len()];
        for (p, s) in self.submeshes.iter().enumerate() {
            for (l, &g) in s.edges_l2g.iter().enumerate().take(s.n_kernel_edges) {
                debug_assert_eq!(self.edge_owner[g as usize], p as u32);
                global[g as usize] = locals[p][l];
            }
        }
        global
    }

    /// Total number of duplicated (overlap) elements across parts —
    /// the redundant-computation cost of element-overlap patterns.
    pub fn total_overlap_elems(&self) -> usize {
        self.submeshes.iter().map(|s| s.n_overlap_elems()).sum()
    }

    /// Total number of overlap node slots across parts.
    pub fn total_overlap_nodes(&self) -> usize {
        self.submeshes.iter().map(|s| s.n_overlap_nodes()).sum()
    }

    /// A one-screen summary of the decomposition (used by the CLI and
    /// experiment printouts).
    pub fn report(&self) -> String {
        let mut out = format!(
            "decomposition: {} parts, pattern {}\n\
             global: {} nodes, {} elements, {} edges\n\
             duplicated: {} elements ({:.1}%), {} node slots\n",
            self.nparts,
            self.pattern.name(),
            self.nnodes_global,
            self.nelems_global,
            self.global_edges.len(),
            self.total_overlap_elems(),
            100.0 * self.total_overlap_elems() as f64 / self.nelems_global.max(1) as f64,
            self.total_overlap_nodes(),
        );
        match self.pattern {
            Pattern::NodeOverlap => out.push_str(&format!(
                "assembly: {} shared-node groups, {} values / exchange\n",
                self.node_assemble.ngroups(),
                self.node_assemble.total_values()
            )),
            _ => out.push_str(&format!(
                "update: {} messages, {} values / exchange (max {} per sender)\n",
                self.node_update.total_messages(),
                self.node_update.total_values(),
                self.node_update.max_send_values()
            )),
        }
        let sizes: Vec<String> = self
            .submeshes
            .iter()
            .map(|s| {
                format!(
                    "p{}: {}k+{}o",
                    s.part,
                    s.n_kernel_elems,
                    s.n_overlap_elems()
                )
            })
            .collect();
        out.push_str(&format!("parts: {}\n", sizes.join("  ")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_mesh::gen2d;
    use syncplace_partition::{partition2d, Method};

    fn decomp(nx: usize, ny: usize, nparts: usize, pattern: Pattern) -> Decomposition<3> {
        let mesh = gen2d::grid(nx, ny);
        let p = partition2d(&mesh, nparts, Method::Greedy);
        decompose2d(&mesh, &p.part, nparts, pattern)
    }

    #[test]
    fn kernel_nodes_partition_global_nodes() {
        for pattern in [Pattern::FIG1, Pattern::FIG2] {
            let d = decomp(6, 6, 4, pattern);
            let mut owned = vec![0u32; d.nnodes_global];
            for s in &d.submeshes {
                for &g in s.nodes_l2g.iter().take(s.n_kernel_nodes) {
                    owned[g as usize] += 1;
                }
            }
            assert!(owned.iter().all(|&c| c == 1), "{:?}", pattern);
        }
    }

    #[test]
    fn kernel_elems_partition_global_elems() {
        let d = decomp(6, 6, 4, Pattern::FIG1);
        let mut owned = vec![0u32; d.nelems_global];
        for s in &d.submeshes {
            for &g in s.elems_l2g.iter().take(s.n_kernel_elems) {
                owned[g as usize] += 1;
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    }

    #[test]
    fn fig1_closure_invariant() {
        // Every global element incident to a kernel node of p is in p.
        let mesh = gen2d::grid(8, 8);
        let p = partition2d(&mesh, 4, Method::Greedy);
        let d = decompose2d(&mesh, &p.part, 4, Pattern::FIG1);
        for s in &d.submeshes {
            let mut present = vec![false; d.nelems_global];
            for &g in &s.elems_l2g {
                present[g as usize] = true;
            }
            for (t, tri) in mesh.som.iter().enumerate() {
                let touches_kernel = tri.iter().any(|&n| d.node_owner[n as usize] == s.part);
                if touches_kernel {
                    assert!(present[t], "part {} misses element {t}", s.part);
                }
            }
        }
    }

    #[test]
    fn fig2_has_no_duplicated_elements() {
        let d = decomp(6, 6, 4, Pattern::FIG2);
        assert_eq!(d.total_overlap_elems(), 0);
        let total: usize = d.submeshes.iter().map(|s| s.nelems()).sum();
        assert_eq!(total, d.nelems_global);
    }

    #[test]
    fn fig1_has_duplicated_elements() {
        let d = decomp(6, 6, 4, Pattern::FIG1);
        assert!(d.total_overlap_elems() > 0);
    }

    #[test]
    fn two_layers_strictly_wider() {
        let d1 = decomp(10, 10, 4, Pattern::ElementOverlap { layers: 1 });
        let d2 = decomp(10, 10, 4, Pattern::ElementOverlap { layers: 2 });
        assert!(d2.total_overlap_elems() > d1.total_overlap_elems());
    }

    #[test]
    fn update_schedule_covers_all_copies() {
        let d = decomp(8, 8, 4, Pattern::FIG1);
        // Count copies: node slots beyond the owner's kernel slot.
        let slots: usize = d.submeshes.iter().map(|s| s.nnodes()).sum();
        let copies = slots - d.nnodes_global;
        assert_eq!(d.node_update.total_values(), copies);
    }

    #[test]
    fn assemble_groups_cover_interface() {
        let mesh = gen2d::grid(8, 8);
        let p = partition2d(&mesh, 4, Method::Greedy);
        let d = decompose2d(&mesh, &p.part, 4, Pattern::FIG2);
        let iface = syncplace_partition::metrics::interface_nodes2d(&mesh, &p.part);
        assert_eq!(d.node_assemble.ngroups(), iface);
        for g in &d.node_assemble.groups {
            assert!(g.len() >= 2);
            // Owner first.
            let owner_part = g[0].0;
            let gnode = d.submeshes[owner_part as usize].nodes_l2g[g[0].1 as usize];
            assert_eq!(d.node_owner[gnode as usize], owner_part);
        }
    }

    #[test]
    fn scatter_gather_node_roundtrip() {
        for pattern in [Pattern::FIG1, Pattern::FIG2] {
            let d = decomp(7, 5, 3, pattern);
            let global: Vec<f64> = (0..d.nnodes_global).map(|i| i as f64 * 1.5).collect();
            let locals = d.scatter_node_array(&global);
            let back = d.gather_node_array(&locals);
            assert_eq!(global, back);
        }
    }

    #[test]
    fn scatter_gather_elem_roundtrip() {
        let d = decomp(7, 5, 3, Pattern::FIG1);
        let global: Vec<f64> = (0..d.nelems_global).map(|i| i as f64 - 3.0).collect();
        let locals = d.scatter_elem_array(&global);
        let back = d.gather_elem_array(&locals);
        assert_eq!(global, back);
    }

    #[test]
    fn kernel_edges_partition_global_edges() {
        let d = decomp(6, 6, 4, Pattern::FIG1);
        let mut owned = vec![0u32; d.global_edges.len()];
        for s in &d.submeshes {
            for &g in s.edges_l2g.iter().take(s.n_kernel_edges) {
                owned[g as usize] += 1;
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    }

    #[test]
    fn submeshes_validate() {
        for pattern in [
            Pattern::FIG1,
            Pattern::FIG2,
            Pattern::ElementOverlap { layers: 2 },
        ] {
            let d = decomp(8, 6, 5, pattern);
            for s in &d.submeshes {
                s.validate().unwrap();
            }
        }
    }

    #[test]
    fn single_part_has_no_overlap() {
        let d = decomp(5, 5, 1, Pattern::FIG1);
        assert_eq!(d.total_overlap_elems(), 0);
        assert_eq!(d.total_overlap_nodes(), 0);
        assert_eq!(d.node_update.total_values(), 0);
    }

    #[test]
    fn report_mentions_key_figures() {
        let d = decomp(6, 6, 3, Pattern::FIG1);
        let r = d.report();
        assert!(r.contains("3 parts"));
        assert!(r.contains("element-overlap(1)"));
        assert!(r.contains("update:"), "{r}");
        let d2 = decomp(6, 6, 3, Pattern::FIG2);
        assert!(d2.report().contains("assembly:"));
    }

    #[test]
    fn decompose3d_works() {
        let mesh = syncplace_mesh::gen3d::box_mesh(3, 3, 3);
        let p = syncplace_partition::partition3d(&mesh, 4, Method::Rcb);
        let d = decompose3d(&mesh, &p.part, 4, Pattern::FIG1);
        for s in &d.submeshes {
            s.validate().unwrap();
        }
        // Closure invariant in 3-D.
        for s in &d.submeshes {
            let mut present = vec![false; d.nelems_global];
            for &g in &s.elems_l2g {
                present[g as usize] = true;
            }
            for (t, tet) in mesh.tets.iter().enumerate() {
                if tet.iter().any(|&n| d.node_owner[n as usize] == s.part) {
                    assert!(present[t], "part {} misses tet {t}", s.part);
                }
            }
        }
    }

    #[test]
    fn placement_rows_ascend_and_locate() {
        let d = decomp(8, 8, 4, Pattern::FIG1);
        let place = EntityPlacement::from_l2g(
            d.nnodes_global,
            d.submeshes.iter().map(|s| s.nodes_l2g.as_slice()),
        );
        for n in 0..d.nnodes_global {
            let row: Vec<(u32, u32)> = place.row(n).collect();
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "ascending parts");
            for &(p, l) in &row {
                assert_eq!(d.submeshes[p as usize].nodes_l2g[l as usize], n as u32);
            }
            assert!(
                place.local_on(n, d.node_owner[n]).is_some(),
                "owner always holds its node"
            );
        }
    }
}
