//! Flowing-data states.

use syncplace_mesh::EntityKind;

/// The shape family of the flowing data (the letter part of the
/// paper's state names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// Replicated scalar (`Sca`).
    Sca,
    /// Node-based (`Nod`).
    Nod,
    /// Edge-based (`Edg`).
    Edg,
    /// Triangle-based (`Tri`) — the top entity in 2-D, a face in 3-D.
    Tri,
    /// Tetrahedron-based (`Thd`) — the top entity in 3-D.
    Thd,
}

impl Shape {
    /// Every shape, in declaration (and `Ord`) order.
    pub const ALL: [Self; 5] = [Self::Sca, Self::Nod, Self::Edg, Self::Tri, Self::Thd];

    /// The shape of data based on a mesh entity kind.
    pub fn of_entity(e: EntityKind) -> Shape {
        match e {
            EntityKind::Node => Shape::Nod,
            EntityKind::Edge => Shape::Edg,
            EntityKind::Tri => Shape::Tri,
            EntityKind::Tet => Shape::Thd,
        }
    }

    /// Topological dimension of the underlying entity (scalars have
    /// none; used to classify indirection maps as downward or upward).
    pub fn dim(self) -> Option<usize> {
        match self {
            Shape::Sca => None,
            Shape::Nod => Some(0),
            Shape::Edg => Some(1),
            Shape::Tri => Some(2),
            Shape::Thd => Some(3),
        }
    }

    /// Paper-style shape name.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Sca => "Sca",
            Shape::Nod => "Nod",
            Shape::Edg => "Edg",
            Shape::Tri => "Tri",
            Shape::Thd => "Thd",
        }
    }
}

/// Coherence level of the overlap (the subscript part of the state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Coherence {
    /// `…₀`: overlap copies hold the owner's value (or, for scalars,
    /// every processor holds the same value).
    Coherent,
    /// `…₁`: element-overlap incoherence — the kernel value is
    /// correct, overlap copies are stale (or, for scalars, each
    /// processor holds a partial reduction). Under a two-layer
    /// pattern this is *one step* of staleness: values are still
    /// correct on the kernel **and** the first overlap ring.
    Stale,
    /// `…₂`: two steps of staleness under a two-layer pattern — only
    /// the kernel values are still correct; a third gather–scatter
    /// step would need an update first.
    Stale2,
    /// `…₁/₂`: node-overlap incoherence — every copy holds a partial
    /// value; the correct value is the combination of all copies
    /// (Fig. 7's `Nod_{1/2}`: "the correct value does not reside on
    /// any of the duplicated nodes").
    Partial,
}

impl Coherence {
    /// Every coherence level, in declaration (and `Ord`) order.
    pub const ALL: [Self; 4] = [Self::Coherent, Self::Stale, Self::Stale2, Self::Partial];

    /// Staleness depth: how many gather–scatter steps separate this
    /// state from full coherence (`Partial` is not on this axis).
    pub fn stale_rank(self) -> Option<usize> {
        match self {
            Coherence::Coherent => Some(0),
            Coherence::Stale => Some(1),
            Coherence::Stale2 => Some(2),
            Coherence::Partial => None,
        }
    }
}

/// A flowing-data state: shape × coherence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct State {
    pub shape: Shape,
    pub coh: Coherence,
}

impl State {
    pub const fn new(shape: Shape, coh: Coherence) -> State {
        State { shape, coh }
    }

    /// The coherent state of a shape.
    pub const fn coherent(shape: Shape) -> State {
        State::new(shape, Coherence::Coherent)
    }

    /// Is this a coherent state?
    pub fn is_coherent(self) -> bool {
        self.coh == Coherence::Coherent
    }

    /// Paper-style display name (`Nod0`, `Nod1`, `Nod1/2`, `Sca0`, …).
    pub fn name(self) -> String {
        let sub = match self.coh {
            Coherence::Coherent => "0",
            Coherence::Stale => "1",
            Coherence::Stale2 => "2",
            Coherence::Partial => "1/2",
        };
        format!("{}{}", self.shape.name(), sub)
    }
}

impl std::fmt::Display for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Common state constants.
pub const SCA0: State = State::coherent(Shape::Sca);
pub const SCA1: State = State::new(Shape::Sca, Coherence::Stale);
pub const NOD0: State = State::coherent(Shape::Nod);
pub const NOD1: State = State::new(Shape::Nod, Coherence::Stale);
pub const NOD2: State = State::new(Shape::Nod, Coherence::Stale2);
pub const NOD_HALF: State = State::new(Shape::Nod, Coherence::Partial);
pub const EDG0: State = State::coherent(Shape::Edg);
pub const EDG1: State = State::new(Shape::Edg, Coherence::Stale);
pub const TRI0: State = State::coherent(Shape::Tri);
pub const TRI1: State = State::new(Shape::Tri, Coherence::Stale);
pub const THD0: State = State::coherent(Shape::Thd);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(NOD0.name(), "Nod0");
        assert_eq!(NOD1.name(), "Nod1");
        assert_eq!(NOD_HALF.name(), "Nod1/2");
        assert_eq!(SCA0.name(), "Sca0");
        assert_eq!(TRI0.name(), "Tri0");
        assert_eq!(THD0.name(), "Thd0");
    }

    #[test]
    fn shape_of_entity() {
        use syncplace_mesh::EntityKind;
        assert_eq!(Shape::of_entity(EntityKind::Node), Shape::Nod);
        assert_eq!(Shape::of_entity(EntityKind::Edge), Shape::Edg);
        assert_eq!(Shape::of_entity(EntityKind::Tri), Shape::Tri);
        assert_eq!(Shape::of_entity(EntityKind::Tet), Shape::Thd);
    }

    #[test]
    fn coherence_queries() {
        assert!(NOD0.is_coherent());
        assert!(!NOD1.is_coherent());
        assert!(!NOD_HALF.is_coherent());
    }
}
