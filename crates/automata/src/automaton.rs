//! The overlap automaton structure and its transition queries.

use crate::state::{Shape, State};

/// Classification of a data-flow arrow, deciding which transitions it
/// may cross. `TrueDep` is the paper's *thick* arrow family (the only
/// one that may carry an "Update"); the others are *thin*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrowClass {
    /// Definition → use (also input → use and definition → output).
    TrueDep,
    /// Replicated scalar operand → operation.
    ValueScalar,
    /// Direct entity read (`A(i)`, or a localized scalar) → operation
    /// in the same entity's loop.
    ValueDirect,
    /// Gathered read through a *downward* incidence map — the loop
    /// entity's own sub-entities (`OLD(SOM(i,2))` in a triangle loop).
    /// Sub-entities always travel with their elements, so these reads
    /// are available on the full overlap domain.
    ValueGatherDown,
    /// Gathered read through an *upward or lateral* map (node→triangle
    /// adjacency, node→node stencil). Under a one-layer element
    /// overlap these targets are only guaranteed present for kernel
    /// loop entities, so such gathers can only feed kernel-domain
    /// definitions (and reductions).
    ValueGatherUp,
    /// Reduction self-read → its own accumulation.
    ValueCarrier,
    /// Test → controlled operation.
    Control,
}

impl ArrowClass {
    /// Every class, in declaration order.
    pub const ALL: [Self; 7] = [
        Self::TrueDep,
        Self::ValueScalar,
        Self::ValueDirect,
        Self::ValueGatherDown,
        Self::ValueGatherUp,
        Self::ValueCarrier,
        Self::Control,
    ];

    /// Is this one of the thin (value/control) classes?
    pub fn is_thin(self) -> bool {
        !matches!(self, ArrowClass::TrueDep)
    }
}

/// Communication actions implied by the special transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommKind {
    /// Fig. 1 / Fig. 6: send each owner's kernel value to its overlap
    /// copies (`C$SYNCHRONIZE METHOD: overlap-… ON ARRAY: …`).
    UpdateOverlap,
    /// Fig. 2 / Fig. 7: gather the partial values of each shared
    /// entity, combine them, send the total back to all copies.
    AssembleShared,
    /// Global reduction of a scalar
    /// (`C$SYNCHRONIZE METHOD: + reduction ON SCALAR: …`).
    ReduceScalar,
}

impl CommKind {
    /// Every kind, in declaration order: `ALL[k as usize] == k`.
    pub const ALL: [Self; 3] = [Self::UpdateOverlap, Self::AssembleShared, Self::ReduceScalar];
}

/// One allowed evolution of the flowing data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transition {
    pub from: State,
    pub class: ArrowClass,
    pub to: State,
    /// The communication this transition forces, if any ("Traversing
    /// them implies that a communication must be inserted somewhere
    /// between the extremities of the data-dependence").
    pub comm: Option<CommKind>,
}

/// An overlap automaton: one per overlapping pattern (§3.4: "There is
/// one specific overlap automaton for each overlapping pattern").
#[derive(Debug, Clone)]
pub struct OverlapAutomaton {
    /// Human-readable name ("fig6", "fig7", …).
    pub name: String,
    /// The states, in display order.
    pub states: Vec<State>,
    /// All transitions.
    pub transitions: Vec<Transition>,
}

impl OverlapAutomaton {
    /// The most transitions per `(from, class)`: the search's viability mask is a `u64`.
    pub const MAX_RUN: usize = 64;

    /// Create an automaton, checking that transitions only mention
    /// listed states and that no `(from, class)` run exceeds `MAX_RUN`.
    pub fn new(name: &str, states: Vec<State>, mut transitions: Vec<Transition>) -> Self {
        for t in &transitions {
            assert!(
                states.contains(&t.from) && states.contains(&t.to),
                "{name}: transition {} -> {} uses unknown state",
                t.from,
                t.to
            );
        }
        // Deterministic order: comm-free transitions first (the search
        // prefers not to communicate), then by target state.
        transitions.sort_by_key(|t| (t.from, t.class as u8, t.comm.is_some(), t.to));
        transitions.dedup();
        for run in transitions.chunk_by(|x, y| (x.from, x.class) == (y.from, y.class)) {
            let (Transition { from, class, .. }, n, max) = (run[0], run.len(), Self::MAX_RUN);
            assert!(n <= max, "{name}: {n} transitions on ({from}, {class:?})");
        }
        OverlapAutomaton {
            name: name.to_string(),
            states,
            transitions,
        }
    }

    /// Transitions leaving `from` on an arrow of class `class`
    /// (comm-free ones first).
    pub fn from_on(&self, from: State, class: ArrowClass) -> impl Iterator<Item = &Transition> {
        self.transitions
            .iter()
            .filter(move |t| t.from == from && t.class == class)
    }

    /// Does the exact transition exist?
    pub fn has(&self, from: State, class: ArrowClass, to: State) -> bool {
        self.from_on(from, class).any(|t| t.to == to)
    }

    /// The required state of a program output / control decision of
    /// the given shape: coherent.
    pub fn required_state(&self, shape: Shape) -> State {
        State::coherent(shape)
    }

    /// The given state of a program input of the given shape: coherent.
    pub fn input_state(&self, shape: Shape) -> State {
        State::coherent(shape)
    }

    /// The states a definition with no data operands (constant rhs)
    /// may take: coherent always; for a non-scatter definition of a
    /// lower entity, also the pattern's incoherent state if the
    /// automaton has one (running the loop on the kernel domain only).
    /// Scatter definitions take only the incoherent state.
    pub fn free_def_states(&self, shape: Shape, is_scatter: bool) -> Vec<State> {
        let mut out = Vec::new();
        for &s in &self.states {
            if s.shape != shape {
                continue;
            }
            if is_scatter {
                if !s.is_coherent() {
                    out.push(s);
                }
            } else if s.is_coherent() {
                out.push(s);
            } else if s.coh.stale_rank().is_some_and(|r| r > 0) && shape != Shape::Sca {
                // Voluntary restricted-domain execution (element overlap).
                out.push(s);
            }
        }
        out
    }

    /// Restrict to a subset of states, keeping only transitions among
    /// them — the paper's derivation of Fig. 6 from Fig. 8 "simply by
    /// forgetting the unused states … and forgetting the corresponding
    /// transitions".
    pub fn restrict(&self, name: &str, keep: &[State]) -> OverlapAutomaton {
        let states: Vec<State> = self
            .states
            .iter()
            .copied()
            .filter(|s| keep.contains(s))
            .collect();
        let transitions: Vec<Transition> = self
            .transitions
            .iter()
            .copied()
            .filter(|t| keep.contains(&t.from) && keep.contains(&t.to))
            .collect();
        OverlapAutomaton::new(name, states, transitions)
    }

    /// Render the automaton as a table (used by experiment E2).
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "automaton {} — {} states, {} transitions\nstates: {}\n",
            self.name,
            self.states.len(),
            self.transitions.len(),
            self.states
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        for t in &self.transitions {
            let comm = match t.comm {
                Some(CommKind::UpdateOverlap) => "  [Update]",
                Some(CommKind::AssembleShared) => "  [Update/assemble]",
                Some(CommKind::ReduceScalar) => "  [Update/reduce]",
                None => "",
            };
            let thick = if t.class.is_thin() { "thin " } else { "THICK" };
            out.push_str(&format!(
                "  {thick} {:<12} {:>5} -> {:<5}{comm}\n",
                format!("{:?}", t.class),
                t.from.name(),
                t.to.name()
            ));
        }
        out
    }

    /// Structural sanity: every non-scalar state is reachable from
    /// some coherent state, and every comm transition ends coherent.
    pub fn validate(&self) -> Result<(), String> {
        for t in &self.transitions {
            if t.comm.is_some() {
                if !t.to.is_coherent() {
                    return Err(format!(
                        "comm transition {} -> {} does not restore coherence",
                        t.from, t.to
                    ));
                }
                if t.class != ArrowClass::TrueDep {
                    return Err(format!(
                        "comm transition {} -> {} on thin arrow {:?}",
                        t.from, t.to, t.class
                    ));
                }
            }
        }
        // Reachability from coherent states.
        let mut reach: std::collections::HashSet<State> = self
            .states
            .iter()
            .copied()
            .filter(|s| s.is_coherent())
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for t in &self.transitions {
                if reach.contains(&t.from) && reach.insert(t.to) {
                    changed = true;
                }
            }
        }
        for &s in &self.states {
            if !reach.contains(&s) {
                return Err(format!("state {s} unreachable from coherent states"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::*;

    /// `CommKind::ALL` lists every kind at its index: the match is
    /// exhaustive, so a new kind does not compile until it is listed.
    #[test]
    fn comm_kind_all_is_every_kind() {
        for (i, k) in CommKind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i);
            match k {
                CommKind::UpdateOverlap | CommKind::AssembleShared | CommKind::ReduceScalar => {}
            }
        }
    }

    fn tiny() -> OverlapAutomaton {
        OverlapAutomaton::new(
            "tiny",
            vec![NOD0, NOD1, SCA0],
            vec![
                Transition {
                    from: NOD0,
                    class: ArrowClass::TrueDep,
                    to: NOD0,
                    comm: None,
                },
                Transition {
                    from: NOD1,
                    class: ArrowClass::TrueDep,
                    to: NOD0,
                    comm: Some(CommKind::UpdateOverlap),
                },
                Transition {
                    from: NOD0,
                    class: ArrowClass::ValueDirect,
                    to: NOD1,
                    comm: None,
                },
                Transition {
                    from: SCA0,
                    class: ArrowClass::ValueScalar,
                    to: NOD0,
                    comm: None,
                },
            ],
        )
    }

    #[test]
    fn query_transitions() {
        let a = tiny();
        assert!(a.has(NOD1, ArrowClass::TrueDep, NOD0));
        assert!(!a.has(NOD1, ArrowClass::ValueGatherDown, NOD0));
        assert_eq!(a.from_on(NOD0, ArrowClass::TrueDep).count(), 1);
    }

    #[test]
    fn comm_free_first() {
        let mut ts = tiny().transitions;
        ts.push(Transition {
            from: NOD1,
            class: ArrowClass::TrueDep,
            to: NOD1,
            comm: None,
        });
        let a = OverlapAutomaton::new("t", vec![NOD0, NOD1, SCA0], ts);
        let order: Vec<_> = a.from_on(NOD1, ArrowClass::TrueDep).collect();
        assert_eq!(order[0].comm, None);
        assert_eq!(order[1].comm, Some(CommKind::UpdateOverlap));
    }

    #[test]
    fn restrict_drops_transitions() {
        let a = tiny();
        let r = a.restrict("r", &[NOD0, SCA0]);
        assert_eq!(r.states.len(), 2);
        assert!(r.transitions.iter().all(|t| t.from != NOD1 && t.to != NOD1));
    }

    #[test]
    fn validate_rejects_comm_to_incoherent() {
        let a = OverlapAutomaton::new(
            "bad",
            vec![NOD0, NOD1],
            vec![
                Transition {
                    from: NOD0,
                    class: ArrowClass::ValueDirect,
                    to: NOD1,
                    comm: None,
                },
                Transition {
                    from: NOD1,
                    class: ArrowClass::TrueDep,
                    to: NOD1,
                    comm: Some(CommKind::UpdateOverlap),
                },
            ],
        );
        assert!(a.validate().is_err());
    }

    #[test]
    fn free_def_states_logic() {
        let a = tiny();
        assert_eq!(a.free_def_states(Shape::Nod, false), vec![NOD0, NOD1]);
        assert_eq!(a.free_def_states(Shape::Nod, true), vec![NOD1]);
        assert_eq!(a.free_def_states(Shape::Sca, false), vec![SCA0]);
    }

    /// A run of `n` distinct transitions leaving `Nod0` on a true
    /// dependence: every target state × every comm label.
    fn run_of(n: usize) -> OverlapAutomaton {
        let states: Vec<State> = Shape::ALL
            .iter()
            .flat_map(|&s| Coherence::ALL.map(|c| State::new(s, c)))
            .collect();
        let comms = [
            None,
            Some(CommKind::UpdateOverlap),
            Some(CommKind::AssembleShared),
            Some(CommKind::ReduceScalar),
        ];
        let ts = states
            .iter()
            .flat_map(|&to| {
                comms.map(|comm| Transition {
                    from: NOD0,
                    class: ArrowClass::TrueDep,
                    to,
                    comm,
                })
            })
            .take(n)
            .collect();
        OverlapAutomaton::new("wide-run", states, ts)
    }

    #[test]
    fn run_of_max_run_accepted() {
        let a = run_of(OverlapAutomaton::MAX_RUN);
        assert_eq!(a.from_on(NOD0, ArrowClass::TrueDep).count(), 64);
    }

    #[test]
    #[should_panic(expected = "wide-run: 65 transitions on (Nod0, TrueDep)")]
    fn run_over_max_run_rejected() {
        run_of(OverlapAutomaton::MAX_RUN + 1);
    }

    #[test]
    #[should_panic(expected = "unknown state")]
    fn unknown_state_rejected() {
        OverlapAutomaton::new(
            "bad",
            vec![NOD0],
            vec![Transition {
                from: NOD0,
                class: ArrowClass::TrueDep,
                to: NOD1,
                comm: None,
            }],
        );
    }
}
