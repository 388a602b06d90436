//! Mapping data-flow arrows to automaton arrow classes.

use syncplace_automata::{ArrowClass, Shape};
use syncplace_dfg::{Arrow, DepKind, Dfg, NodeKind, UseClass, ValueShape};

/// The automaton shape of a data-flow node.
pub fn shape_of(dfg: &Dfg, node: usize) -> Shape {
    match dfg.nodes[node].shape {
        ValueShape::Scalar => Shape::Sca,
        ValueShape::Entity(e) => Shape::of_entity(e),
    }
}

/// Classify a propagation arrow (true / value / control). Anti and
/// output arrows are never propagated and must not be passed here.
pub fn classify_arrow(dfg: &Dfg, arrow: &Arrow) -> ArrowClass {
    match arrow.kind {
        DepKind::True => ArrowClass::TrueDep,
        DepKind::Control => ArrowClass::Control,
        DepKind::Value => {
            let from = &dfg.nodes[arrow.from];
            match &from.kind {
                NodeKind::Use { class, .. } => match class {
                    UseClass::Scalar => ArrowClass::ValueScalar,
                    UseClass::Direct => ArrowClass::ValueDirect,
                    UseClass::Carrier => ArrowClass::ValueCarrier,
                    UseClass::Gather => {
                        // Downward when the gathered array's entity has
                        // strictly smaller dimension than the loop entity
                        // (the loop's own sub-entities travel with it).
                        let loop_dim = from
                            .loop_ctx
                            .map(|c| Shape::of_entity(c.entity).dim().unwrap())
                            .unwrap_or(usize::MAX);
                        let arr_dim = shape_of(dfg, arrow.from).dim().unwrap_or(0);
                        if arr_dim < loop_dim {
                            ArrowClass::ValueGatherDown
                        } else {
                            ArrowClass::ValueGatherUp
                        }
                    }
                    // Fixed accesses only survive in illegal programs,
                    // which never reach propagation; treat as scalar so
                    // diagnostics stay readable if they do.
                    UseClass::Fixed => ArrowClass::ValueScalar,
                },
                _ => unreachable!("value arrows originate at use nodes"),
            }
        }
        DepKind::Anti | DepKind::Output => {
            unreachable!("anti/output arrows are not propagated")
        }
    }
}

/// The class of a propagation arrow (true, value or control), `None`
/// for the anti and output arrows propagation never crosses.
pub fn propagation_class(dfg: &Dfg, arrow: &Arrow) -> Option<ArrowClass> {
    matches!(
        arrow.kind,
        DepKind::True | DepKind::Value | DepKind::Control
    )
    .then(|| classify_arrow(dfg, arrow))
}

/// The arrow ids participating in state propagation (true, value and
/// control arrows), in deterministic order.
pub fn propagation_arrows(dfg: &Dfg) -> Vec<usize> {
    dfg.arrows
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.kind, DepKind::True | DepKind::Value | DepKind::Control))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_ir::programs;

    #[test]
    fn testiv_arrow_classes() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let mut saw_gather_down = false;
        let mut saw_carrier = false;
        let mut saw_true = false;
        for i in propagation_arrows(&dfg) {
            let a = &dfg.arrows[i];
            match classify_arrow(&dfg, a) {
                ArrowClass::ValueGatherDown => saw_gather_down = true,
                ArrowClass::ValueCarrier => saw_carrier = true,
                ArrowClass::TrueDep => saw_true = true,
                _ => {}
            }
        }
        assert!(saw_gather_down && saw_carrier && saw_true);
        // TESTIV has no upward maps.
        assert!(!propagation_arrows(&dfg)
            .iter()
            .any(|&i| { classify_arrow(&dfg, &dfg.arrows[i]) == ArrowClass::ValueGatherUp }));
    }

    #[test]
    fn stencil_map_is_gather_up() {
        let p = syncplace_ir::parser::parse(
            "program t\n input A : node\n output B : node\n map NXT : node -> node [1]\n forall i in node split { B(i) = A(NXT(i,1)) }\nend",
        )
        .unwrap();
        let dfg = syncplace_dfg::build(&p);
        let ups = propagation_arrows(&dfg)
            .iter()
            .filter(|&&i| classify_arrow(&dfg, &dfg.arrows[i]) == ArrowClass::ValueGatherUp)
            .count();
        assert_eq!(ups, 1);
    }
}
