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
//! values are assembled along the same owner → copies node
//! [`UpdateSchedule`]: summed into the owner's copy, then written back.
//!
//! The whole construction path is CSR-lean: edges are the mesh's own
//! numbering ([`Mesh::edges`], numbered once per mesh by the shared
//! counting-sort first-seen kernel of `syncplace-mesh` and stored
//! there), per-part closure and localization run over
//! stamp-validated scratch arrays that are allocated once and reused
//! across parts, and schedules are derived from an entity placement
//! (a global-entity → (part, local) CSR) instead of dense per-part
//! lookup tables; an update schedule lists only the messages that
//! carry a copy, and readers ask the [`Decomposition`] by entity kind
//! ([`Decomposition::owners`], [`Decomposition::update_schedule`],
//! [`Decomposition::scatter`], [`Decomposition::gather`]), never
//! through a node / edge / element ladder of their own. Total cost is
//! O(M + N) for the edge numbering when the mesh does not hold it yet
//! (M element-local edge slots, N nodes) plus
//! O(total sub-mesh slots) for everything else — no per-entity hashing
//! and no dense O(parts × entities) scans, so million-element meshes at
//! 128 parts stay within a few hundred bytes per element.
//!
//! A build is three steps: [`global_setup`], [`build_submesh`] once per
//! part, then [`finish`] (placements, schedules and the one
//! [`Decomposition`] literal). [`decompose`] runs them in order.
//! They are public because the runtime's parallel builder runs
//! the same three, with only the per-part step on its pool.

use crate::pattern::Pattern;
use crate::schedule::UpdateSchedule;
use crate::submesh::{elem_kind, SubMesh};
use syncplace_mesh::{n_vertex_pairs, Csr, EntityKind, Mesh, Mesh2d, Mesh3d};

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
    /// Owner part per global node.
    pub node_owner: Vec<u32>,
    /// Owner part per global edge.
    pub edge_owner: Vec<u32>,
    /// Part per global element (copied from the partition).
    pub elem_part: Vec<u32>,
    /// The localized sub-meshes, index = part id.
    pub submeshes: Vec<SubMesh<V>>,
    /// Owner→copies node schedule: an update broadcasts along it, a
    /// node-overlap assembly reduces along it and broadcasts back.
    pub node_update: UpdateSchedule,
    /// Owner→copies edge update schedule (element-overlap patterns).
    pub edge_update: UpdateSchedule,
}

/// Wall-clock breakdown of one parallel decomposition build, by stage
/// (the runtime's pool builder returns it; the sequential [`decompose`]
/// reads no clock).
#[derive(Debug, Clone, Copy, Default)]
pub struct DecomposeStats {
    /// Ownership scans + the edge numbering, unless the mesh already
    /// holds it + incidence CSRs.
    pub dedup_s: f64,
    /// Per-part overlap closure + localization (sub-mesh building).
    pub closure_s: f64,
    /// Placement CSRs + copy schedules.
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
    decompose(mesh, part, nparts, pattern)
}

/// Decompose a 3-D mesh.
pub fn decompose3d(
    mesh: &Mesh3d,
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
) -> Decomposition<4> {
    decompose(mesh, part, nparts, pattern)
}

/// Generic decomposition over `V`-vertex elements: [`global_setup`],
/// [`build_submesh`] once per part, then [`finish`].
pub fn decompose<const D: usize, const V: usize>(
    mesh: &Mesh<D, V>,
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
) -> Decomposition<V> {
    let setup = global_setup(mesh, part, nparts, pattern);
    let mut scratch = PartScratch::new(&setup);
    let submeshes: Vec<SubMesh<V>> = (0..nparts as u32)
        .map(|p| build_submesh(&setup, mesh, p, &mut scratch))
        .collect();
    finish(setup, submeshes, part, pattern)
}

/// The last build step: placement CSRs over the built sub-meshes, the
/// node copy schedule (every pattern) and the edge one (element
/// overlap), and the [`Decomposition`] that holds them with `setup`'s
/// ownership.
/// `submeshes[p]` must be part `p`'s [`build_submesh`].
pub fn finish<const V: usize>(
    setup: GlobalSetup,
    submeshes: Vec<SubMesh<V>>,
    part: &[u32],
    pattern: Pattern,
) -> Decomposition<V> {
    let (nnodes, nparts) = (setup.nnodes, setup.nparts);
    let mut edge_update = UpdateSchedule::default();
    let node_place =
        EntityPlacement::from_l2g(nnodes, submeshes.iter().map(|s| s.nodes_l2g.as_slice()));
    let kernels = |kind| submeshes.iter().map(move |s| s.kernel(kind).unwrap());
    let node_update = owner_to_copies(kernels(EntityKind::Node), &node_place);
    if let Pattern::ElementOverlap { .. } = pattern {
        let edge_place = EntityPlacement::from_l2g(
            setup.edge_owner.len(),
            submeshes.iter().map(|s| s.edges_l2g.as_slice()),
        );
        edge_update = owner_to_copies(kernels(EntityKind::Edge), &edge_place);
    }
    Decomposition {
        pattern,
        nparts,
        nnodes_global: nnodes,
        nelems_global: part.len(),
        node_owner: setup.node_owner,
        edge_owner: setup.edge_owner,
        elem_part: part.to_vec(),
        submeshes,
        node_update,
        edge_update,
    }
}

// --- Global setup ----------------------------------------------------------

/// Everything the per-part sub-mesh builder needs beyond the [`Mesh`],
/// derived once from it and the partition: ownership and the incidence
/// CSRs. Elements and edges are *not* stored here — callers pass the
/// mesh alongside, so the parallel builder can share one copy.
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
    /// Owner part per global edge (min incident element part), in the
    /// mesh's edge numbering.
    pub edge_owner: Vec<u32>,
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

/// The first build step: ownership min-scans over the mesh's edge
/// numbering (the one [`Mesh::edges`] the partitioner, bindings and
/// refinement read, numbered here if no reader has asked yet), and the
/// incidence CSRs.
pub fn global_setup<const D: usize, const V: usize>(
    mesh: &Mesh<D, V>,
    part: &[u32],
    nparts: usize,
    pattern: Pattern,
) -> GlobalSetup {
    let (nnodes, elems) = (mesh.nnodes(), mesh.elems());
    assert_eq!(elems.len(), part.len());
    assert!(part.iter().all(|&p| (p as usize) < nparts));

    let mut node_owner = vec![u32::MAX; nnodes];
    for (e, el) in elems.iter().enumerate() {
        for &v in el {
            let o = &mut node_owner[v as usize];
            *o = (*o).min(part[e]);
        }
    }

    // Edge owner = min incident element part, in the mesh's numbering.
    let e_per = n_vertex_pairs::<V>();
    let edges = mesh.edges();
    let mut edge_owner = vec![u32::MAX; edges.keys.len()];
    for (i, &id) in edges.ids.iter().enumerate() {
        let o = &mut edge_owner[id as usize];
        *o = (*o).min(part[i / e_per]);
    }
    assert!(
        node_owner.iter().all(|&o| o != u32::MAX),
        "mesh has isolated nodes"
    );

    let node_elems = Csr::invert(nnodes, elems.iter());
    let part_elems = Csr::invert(nparts, part.iter().map(std::slice::from_ref));
    GlobalSetup {
        nnodes,
        nparts,
        layers: layers_of(pattern),
        node_owner,
        edge_owner,
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
            edge_stamp: vec![u32::MAX; setup.edge_owner.len()],
        }
    }
}

/// Build part `p`'s localized sub-mesh: kernel elements, the
/// `layers`-deep overlap closure, and first-seen local numbering with
/// kernel entities first. Deterministic for a given setup; the
/// sequential and parallel builders both call this, which is what
/// makes their decompositions bitwise identical.
pub fn build_submesh<const D: usize, const V: usize>(
    setup: &GlobalSetup,
    mesh: &Mesh<D, V>,
    p: u32,
    scratch: &mut PartScratch,
) -> SubMesh<V> {
    let (elems, edges) = (mesh.elems(), mesh.edges());
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
            let ge = edges.ids[base + k];
            if scratch.edge_stamp[ge as usize] != p {
                scratch.edge_stamp[ge as usize] = p;
                let [a, b] = edges.keys[ge as usize];
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

    /// The `(part, local id)` placements of entity `g`, ascending part.
    #[inline]
    fn row(&self, g: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (s, e) = (self.offsets[g] as usize, self.offsets[g + 1] as usize);
        self.parts[s..e]
            .iter()
            .copied()
            .zip(self.locals[s..e].iter().copied())
    }
}

// --- Schedule construction -------------------------------------------------

/// The owner→copies update of one entity kind: one `(owner, part,
/// src_local_on_owner, dst_local_on_part)` copy per placement of an
/// entity on a part other than its owner. Owner `p` walks its kernel
/// (`kernels[p]`: the entities it owns, in local order, so `src`
/// ascends) and a stable sort by receiver groups its copies, so they
/// reach [`UpdateSchedule::from_copies`] already in schedule order.
fn owner_to_copies<'a>(
    kernels: impl Iterator<Item = &'a [u32]>,
    place: &EntityPlacement,
) -> UpdateSchedule {
    let mut copies = Vec::with_capacity(place.parts.len() + 1 - place.offsets.len());
    for (p, kernel) in (0..).zip(kernels) {
        let first = copies.len();
        for (src, &g) in (0..).zip(kernel) {
            let others = place.row(g as usize).filter(|&(q, _)| q != p);
            copies.extend(others.map(|(q, dst)| (p, q, src, dst)));
        }
        copies[first..].sort_by_key(|c| c.1);
    }
    UpdateSchedule::from_copies(copies)
}

impl<const V: usize> Decomposition<V> {
    /// Owner part per global entity of `kind` (an element's owner is
    /// its part); `None` for a kind this arity lacks.
    pub fn owners(&self, kind: EntityKind) -> Option<&[u32]> {
        match kind {
            EntityKind::Node => Some(&self.node_owner),
            EntityKind::Edge => Some(&self.edge_owner),
            k if k == elem_kind::<V>() => Some(&self.elem_part),
            _ => None,
        }
    }

    /// The owner→copies schedule an update of a `kind`-based array
    /// runs: `None` for element arrays, which every pattern recomputes
    /// redundantly, so they are always coherent. Node overlap
    /// assembles its copies and never updates them (Fig. 7 places no
    /// update), so an update there moves nothing.
    pub fn update_schedule(&self, kind: EntityKind) -> Option<&UpdateSchedule> {
        static NOTHING: UpdateSchedule = UpdateSchedule { msgs: Vec::new() };
        match kind {
            EntityKind::Node if self.pattern == Pattern::NodeOverlap => Some(&NOTHING),
            EntityKind::Node => Some(&self.node_update),
            EntityKind::Edge => Some(&self.edge_update),
            EntityKind::Tri | EntityKind::Tet => None,
        }
    }

    /// Split a global `kind`-based array into per-processor local
    /// arrays, one pass over each part's local slots; `None` for a kind
    /// this arity lacks.
    pub fn scatter(&self, kind: EntityKind, global: &[f64]) -> Option<Vec<Vec<f64>>> {
        assert_eq!(global.len(), self.owners(kind)?.len());
        let local =
            |s: &SubMesh<V>| Some(s.l2g(kind)?.iter().map(|&g| global[g as usize]).collect());
        self.submeshes.iter().map(local).collect()
    }

    /// Rebuild a global `kind`-based array from local arrays, reading
    /// every entity's value from its owner (kernel values are
    /// authoritative): one pass over kernel slots, which partition the
    /// global ids. `None` for a kind this arity lacks.
    pub fn gather(&self, kind: EntityKind, locals: &[Vec<f64>]) -> Option<Vec<f64>> {
        let owners = self.owners(kind)?;
        let mut global = vec![0.0; owners.len()];
        for (p, s) in self.submeshes.iter().enumerate() {
            for (l, &g) in s.kernel(kind)?.iter().enumerate() {
                debug_assert_eq!(owners[g as usize], p as u32);
                global[g as usize] = locals[p][l];
            }
        }
        Some(global)
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
            self.edge_owner.len(),
            self.total_overlap_elems(),
            100.0 * self.total_overlap_elems() as f64 / self.nelems_global.max(1) as f64,
            self.total_overlap_nodes(),
        );
        match self.pattern {
            Pattern::NodeOverlap => {
                // A shared node is an owner slot with copies; its
                // assembly moves each copy's partial in and the total back.
                let sched = &self.node_update;
                let mut shared: Vec<(u32, u32)> =
                    (sched.msgs.iter()).flat_map(|m| m.pairs.iter().map(|p| (m.from, p.0))).collect();
                shared.sort_unstable();
                shared.dedup();
                out.push_str(&format!(
                    "assembly: {} shared-node groups, {} values / exchange\n",
                    shared.len(),
                    2 * sched.total_values()
                ))
            }
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
            for (t, tri) in mesh.som().iter().enumerate() {
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

    /// `s` against a brute-force reference built from the `l2g` lists
    /// and `owners` alone: for every copy of an entity on a part q
    /// other than its owner p, one `(p-local, q-local)` pair in the
    /// p → q message. Messages must be non-empty, never to their
    /// sender, strictly ascending by `(from, to)`, with pairs ascending.
    fn check_against_reference(
        owners: &[u32],
        l2g: &[&[u32]],
        s: &UpdateSchedule,
    ) -> Result<(), String> {
        for m in &s.msgs {
            if m.pairs.is_empty() || m.from == m.to {
                return Err(format!(
                    "message {} -> {} is empty or to itself",
                    m.from, m.to
                ));
            }
            if !m.pairs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "message {} -> {} pairs do not ascend",
                    m.from, m.to
                ));
            }
        }
        if !s
            .msgs
            .windows(2)
            .all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to))
        {
            return Err("messages do not ascend by (from, to)".into());
        }
        let mut on_owner = vec![u32::MAX; owners.len()];
        for (p, list) in l2g.iter().enumerate() {
            for (l, &g) in list.iter().enumerate() {
                if owners[g as usize] == p as u32 {
                    on_owner[g as usize] = l as u32;
                }
            }
        }
        let mut want: Vec<(u32, u32, u32, u32)> = Vec::new();
        for (q, list) in l2g.iter().enumerate() {
            for (l, &g) in list.iter().enumerate() {
                let p = owners[g as usize];
                if p != q as u32 {
                    want.push((p, q as u32, on_owner[g as usize], l as u32));
                }
            }
        }
        want.sort_unstable();
        let got: Vec<(u32, u32, u32, u32)> = (s.msgs.iter())
            .flat_map(|m| m.pairs.iter().map(|&(src, dst)| (m.from, m.to, src, dst)))
            .collect();
        if got != want {
            return Err(format!("schedule {got:?} != reference {want:?}"));
        }
        Ok(())
    }

    fn check_both_kinds<const V: usize>(d: &Decomposition<V>) -> Result<(), String> {
        for kind in [EntityKind::Node, EntityKind::Edge] {
            let l2g: Vec<&[u32]> = d.submeshes.iter().map(|s| s.l2g(kind).unwrap()).collect();
            let s = d.update_schedule(kind).unwrap();
            check_against_reference(d.owners(kind).unwrap(), &l2g, s)
                .map_err(|e| format!("{kind}: {e}"))?;
        }
        Ok(())
    }

    #[test]
    fn update_schedule_covers_all_copies() {
        let d = decomp(8, 8, 4, Pattern::FIG1);
        // Count copies: node slots beyond the owner's kernel slot.
        let slots: usize = d.submeshes.iter().map(|s| s.nnodes()).sum();
        let copies = slots - d.nnodes_global;
        assert_eq!(d.node_update.total_values(), copies);

        let mesh2 = gen2d::perturbed_grid(10, 9, 0.2, 3);
        let mesh3 = syncplace_mesh::gen3d::box_mesh(4, 4, 3);
        for pattern in [Pattern::FIG1, Pattern::ElementOverlap { layers: 2 }] {
            for np in [1, 2, 5, 16] {
                let part2 = partition2d(&mesh2, np, Method::Greedy).part;
                let d2 = decompose2d(&mesh2, &part2, np, pattern);
                check_both_kinds(&d2).unwrap_or_else(|e| panic!("2-D {pattern:?} P={np}: {e}"));
                let part3 = syncplace_partition::partition3d(&mesh3, np, Method::Rcb).part;
                let d3 = decompose3d(&mesh3, &part3, np, pattern);
                check_both_kinds(&d3).unwrap_or_else(|e| panic!("3-D {pattern:?} P={np}: {e}"));
                assert_eq!(d2.node_update.msgs.is_empty(), np == 1);
                assert_eq!(d3.edge_update.msgs.is_empty(), np == 1);
            }
        }
        // Node overlap copies nodes only, along the same schedule.
        for np in [1, 2, 5, 16] {
            let part2 = partition2d(&mesh2, np, Method::Greedy).part;
            let d2 = decompose2d(&mesh2, &part2, np, Pattern::FIG2);
            let l2g: Vec<&[u32]> = d2.submeshes.iter().map(|s| s.nodes_l2g.as_slice()).collect();
            check_against_reference(&d2.node_owner, &l2g, &d2.node_update)
                .unwrap_or_else(|e| panic!("2-D node overlap P={np}: {e}"));
            assert!(d2.edge_update.msgs.is_empty());
            // An update there moves nothing: the copies are assembled.
            assert!(d2.update_schedule(EntityKind::Node).unwrap().msgs.is_empty());
        }
        // The reference catches a lost copy.
        let mut lost = decomp(8, 8, 4, Pattern::FIG1);
        lost.node_update.msgs[0].pairs.pop();
        assert!(check_both_kinds(&lost).is_err());
    }

    #[test]
    fn assemble_groups_cover_interface() {
        // Under node overlap the node schedule's owner slots are the
        // shared nodes: one group per interface node, sent by its owner.
        let mesh = gen2d::grid(8, 8);
        let p = partition2d(&mesh, 4, Method::Greedy);
        let d = decompose2d(&mesh, &p.part, 4, Pattern::FIG2);
        let iface = syncplace_partition::metrics::interface_nodes2d(&mesh, &p.part);
        let mut groups = Vec::new();
        for m in &d.node_update.msgs {
            for &(src, _) in &m.pairs {
                let gnode = d.submeshes[m.from as usize].nodes_l2g[src as usize];
                assert_eq!(d.node_owner[gnode as usize], m.from, "sent by the owner");
                groups.push(gnode);
            }
        }
        groups.sort_unstable();
        groups.dedup();
        assert_eq!(groups.len(), iface);
    }

    #[test]
    fn scatter_gather_node_roundtrip() {
        for pattern in [Pattern::FIG1, Pattern::FIG2] {
            let d = decomp(7, 5, 3, pattern);
            let global: Vec<f64> = (0..d.nnodes_global).map(|i| i as f64 * 1.5).collect();
            let locals = d.scatter(EntityKind::Node, &global).unwrap();
            let back = d.gather(EntityKind::Node, &locals).unwrap();
            assert_eq!(global, back);
        }
    }

    #[test]
    fn scatter_gather_elem_roundtrip() {
        let d = decomp(7, 5, 3, Pattern::FIG1);
        let global: Vec<f64> = (0..d.nelems_global).map(|i| i as f64 - 3.0).collect();
        let locals = d.scatter(EntityKind::Tri, &global).unwrap();
        let back = d.gather(EntityKind::Tri, &locals).unwrap();
        assert_eq!(global, back);
        assert!(d.scatter(EntityKind::Tet, &global).is_none());
        assert!(d.gather(EntityKind::Tet, &locals).is_none());
    }

    #[test]
    fn kernel_edges_partition_global_edges() {
        let d = decomp(6, 6, 4, Pattern::FIG1);
        let mut owned = vec![0u32; d.edge_owner.len()];
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
            for (t, tet) in mesh.tets().iter().enumerate() {
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
                place.row(n).any(|(q, _)| q == d.node_owner[n]),
                "owner always holds its node"
            );
        }
    }
}
