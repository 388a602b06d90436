//! Corrupted fixtures must be rejected with their documented SA0xx
//! codes (DESIGN.md §7): one test per diagnostic, each seeding exactly
//! one defect into an otherwise valid mapping or compiled CommPlan.

use syncplace::analyze::{self, codes};
use syncplace::automata::state::{NOD1, SCA1, TRI1};
use syncplace::automata::{ArrowClass, OverlapAutomaton, Transition};
use syncplace::dfg::{Dfg, NodeKind};
use syncplace::placement::Mapping;
use syncplace::prelude::*;
use syncplace::runtime::plan::{CommPlan, Recv1};
use syncplace::runtime::tape::Op;
use syncplace::ir::VarId;
use std::collections::BTreeSet;
use syncplace_bench::setup;

/// A valid TESTIV mapping under fig. 6 to corrupt.
fn fixture() -> (syncplace::ir::Program, Dfg, OverlapAutomaton, Mapping) {
    let p = syncplace::ir::programs::testiv();
    let dfg = syncplace::dfg::build(&p);
    let aut = fig6();
    let (mappings, _) = syncplace::placement::enumerate(&dfg, &aut, &SearchOptions::default());
    assert!(!mappings.is_empty());
    (p, dfg, aut, mappings[0].clone())
}

fn assert_rejected_with(dfg: &Dfg, aut: &OverlapAutomaton, m: &Mapping, code: &str) {
    let rep = analyze::verify_mapping(dfg, aut, m);
    assert!(
        rep.has_code(code),
        "corruption should fire {code}, got codes {:?}:\n{rep}",
        rep.codes()
    );
}

#[test]
fn sa001_wrong_mapping_shape() {
    let (_p, dfg, aut, mut m) = fixture();
    m.node_state.pop();
    assert_rejected_with(&dfg, &aut, &m, codes::MAPPING_SHAPE);
}

#[test]
fn sa002_input_not_at_given_state() {
    let (p, dfg, aut, mut m) = fixture();
    let init = p.lookup("INIT").unwrap();
    let n = dfg.input_node[init];
    m.node_state[n] = NOD1;
    assert_rejected_with(&dfg, &aut, &m, codes::INPUT_STATE);
}

#[test]
fn sa003_output_not_at_required_state() {
    let (p, dfg, aut, mut m) = fixture();
    let res = p.lookup("RESULT").unwrap();
    let n = dfg.output_node[res];
    m.node_state[n] = NOD1;
    assert_rejected_with(&dfg, &aut, &m, codes::REQUIRED_STATE);
}

#[test]
fn sa004_state_shape_mismatch() {
    let (p, dfg, aut, mut m) = fixture();
    let new = p.lookup("NEW").unwrap();
    let n = dfg
        .nodes
        .iter()
        .position(|nd| matches!(nd.kind, NodeKind::Def { var, .. } if var == new))
        .unwrap();
    m.node_state[n] = TRI1;
    assert_rejected_with(&dfg, &aut, &m, codes::SHAPE_MISMATCH);
}

#[test]
fn sa005_propagation_arrow_unmapped() {
    let (_p, dfg, aut, mut m) = fixture();
    let a = m.arrow_transition.iter().position(|t| t.is_some()).unwrap();
    m.arrow_transition[a] = None;
    assert_rejected_with(&dfg, &aut, &m, codes::ARROW_UNMAPPED);
}

#[test]
fn sa006_transition_endpoints_disagree() {
    let (_p, dfg, aut, mut m) = fixture();
    // Swap in a genuine automaton transition of the same class whose
    // source state differs from the mapped tail state: still in the
    // automaton, but it no longer connects the two mapped nodes.
    let (a, t) = m
        .arrow_transition
        .iter()
        .enumerate()
        .find_map(|(a, t)| t.map(|t| (a, t)))
        .unwrap();
    let tail = dfg.arrows[a].from;
    let other = aut
        .transitions
        .iter()
        .find(|t2| t2.class == t.class && t2.from != m.node_state[tail])
        .copied()
        .expect("fig6 has another transition of this class");
    m.arrow_transition[a] = Some(other);
    assert_rejected_with(&dfg, &aut, &m, codes::ARROW_ENDPOINTS);
}

#[test]
fn sa007_wrong_arrow_class() {
    let (_p, dfg, aut, mut m) = fixture();
    let a = m
        .arrow_transition
        .iter()
        .position(|t| t.map(|t| t.class != ArrowClass::Control).unwrap_or(false))
        .unwrap();
    let mut t = m.arrow_transition[a].unwrap();
    t.class = ArrowClass::Control;
    m.arrow_transition[a] = Some(t);
    assert_rejected_with(&dfg, &aut, &m, codes::ARROW_CLASS);
}

#[test]
fn sa008_fabricated_transition() {
    let (_p, dfg, aut, mut m) = fixture();
    // A 2-D element-overlap automaton has no thread-shaped states at
    // all, so this transition cannot be one of fig. 6's.
    let a = m.arrow_transition.iter().position(|t| t.is_some()).unwrap();
    let t = m.arrow_transition[a].unwrap();
    let thd = syncplace::automata::State::new(
        syncplace::automata::Shape::Thd,
        syncplace::automata::Coherence::Stale,
    );
    m.arrow_transition[a] = Some(Transition {
        from: thd,
        class: t.class,
        to: thd,
        comm: None,
    });
    assert_rejected_with(&dfg, &aut, &m, codes::NOT_IN_AUTOMATON);
}

#[test]
fn sa009_sca1_on_non_reduction() {
    let (p, dfg, aut, mut m) = fixture();
    // `vm = OLD(..) + ..` defines a plain localized scalar, not a
    // reduction: it may never hold the partial-reduction state Sca1.
    let vm = p.lookup("vm").unwrap();
    let n = dfg
        .nodes
        .iter()
        .position(|nd| matches!(nd.kind, NodeKind::Def { var, .. } if var == vm))
        .unwrap();
    m.node_state[n] = SCA1;
    assert_rejected_with(&dfg, &aut, &m, codes::SCA1_MISUSE);
}

#[test]
fn sa010_communication_moving_no_array() {
    let (_p, dfg, aut, mut m) = fixture();
    // Attach an update to an arrow that moves no distributed array (a
    // scalar-valued dependence): the wire has nothing to carry.
    let a = (0..dfg.arrows.len())
        .find(|&a| {
            m.arrow_transition[a]
                .map(|t| t.comm.is_none() && t.class == ArrowClass::ValueScalar)
                .unwrap_or(false)
        })
        .expect("testiv has scalar value arrows");
    let mut t = m.arrow_transition[a].unwrap();
    t.comm = Some(CommKind::UpdateOverlap);
    m.arrow_transition[a] = Some(t);
    assert_rejected_with(&dfg, &aut, &m, codes::COMM_NO_ARRAY);
}

// ---------------------------------------------------------------------------
// CommPlan auditor codes
// ---------------------------------------------------------------------------

type PlanFixture = (
    syncplace::ir::Program,
    syncplace::placement::Solution,
    syncplace::codegen::SpmdProgram,
    syncplace::runtime::plan::CommPlan,
);

fn plan_fixture(nparts: usize) -> PlanFixture {
    let s = setup::testiv(6, 1e-9, &fig6());
    let (d, spmd) = setup::decompose(&s, nparts, Pattern::FIG1, 0);
    let plan = syncplace::runtime::plan::CommPlan::build(&s.prog, &spmd, &d);
    (s.prog.clone(), s.analysis.solutions[0].clone(), spmd, plan)
}

fn assert_audit_fires(f: &PlanFixture, plan: &syncplace::runtime::plan::CommPlan, code: &str) {
    let rep = analyze::audit(&f.0, &f.1, &f.2, plan);
    assert!(
        rep.has_code(code),
        "corruption should fire {code}, got codes {:?}:\n{rep}",
        rep.codes()
    );
}

#[test]
fn sa020_op_count_mismatch() {
    let f = plan_fixture(4);
    let (prog, sol, mut spmd, plan) = (f.0.clone(), f.1.clone(), f.2.clone(), f.3.clone());
    // Drop one op from the SPMD program after compiling the plan.
    spmd.comms_before.values_mut().next().unwrap().pop();
    let rep = analyze::audit(&prog, &sol, &spmd, &plan);
    assert!(
        rep.has_code(codes::PHASE_COVERAGE),
        "got {:?}:\n{rep}",
        rep.codes()
    );
}

#[test]
fn sa021_duplicate_unpack_slot() {
    let f = plan_fixture(4);
    let mut plan = f.3.clone();
    'outer: for ph in &mut plan.phases {
        for rp in &mut ph.ranks {
            let mut updates = rp.recv1.iter_mut().flat_map(|r1| &mut r1.updates);
            if let Some(ru) = updates.find(|ru| ru.dst.len() >= 2) {
                ru.dst[1] = ru.dst[0];
                break 'outer;
            }
        }
    }
    assert_audit_fires(&f, &plan, codes::WRITE_RACE);
}

/// TESTIV placed under fig. 7 on a node-overlap decomposition: the
/// fixture whose phases assemble.
fn fig2_plan_fixture(nparts: usize) -> PlanFixture {
    let s = setup::testiv(6, 1e-9, &fig7());
    let (d, spmd) = setup::decompose(&s, nparts, Pattern::FIG2, 0);
    let plan = CommPlan::build(&s.prog, &spmd, &d);
    (s.prog.clone(), s.analysis.solutions[0].clone(), spmd, plan)
}

#[test]
fn sa022_not_owner_first() {
    // Swap two round-1 receives of one rank that add into a common
    // owned slot: the holders' partials would combine out of rank order.
    let f = fig2_plan_fixture(3);
    let mut plan = f.3.clone();
    let slots = |r1: &Recv1| -> BTreeSet<(VarId, u32)> {
        r1.adds.iter().flat_map(|a| a.dst.iter().map(move |&s| (a.var, s))).collect()
    };
    let mut hit = false;
    'outer: for rp in plan.phases.iter_mut().flat_map(|ph| &mut ph.ranks) {
        for i in 0..rp.recv1.len() {
            for j in i + 1..rp.recv1.len() {
                if !slots(&rp.recv1[i]).is_disjoint(&slots(&rp.recv1[j])) {
                    rp.recv1.swap(i, j);
                    hit = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(hit, "a node shared by three parts");
    assert_audit_fires_only(&f, &plan, codes::OWNER_FIRST);
}

#[test]
fn sa023_wrong_reduction_tree() {
    let f = plan_fixture(4);
    let mut plan = f.3.clone();
    assert!(plan.phases.iter().any(|ph| ph.reduces > 0), "testiv has a sqrdiff reduction");
    // Claim an extra child the binomial tree does not give the root: a
    // duplicated combine.
    let root = &mut plan.wiring.ranks[0];
    let extra = root.children[0];
    root.children.push(extra);
    assert_audit_fires(&f, &plan, codes::REDUCE_ORDER);
}

#[test]
fn sa024_orphan_phase() {
    let f = plan_fixture(4);
    let mut plan = f.3.clone();
    let orphan = plan.phases[0].clone();
    plan.phases.push(orphan);
    assert_audit_fires(&f, &plan, codes::DEAD_PHASE);
}

/// The fixture's tape, with `edit` applied to it.
fn with_tape(f: &PlanFixture, edit: impl FnOnce(&mut Vec<Op>)) -> CommPlan {
    let mut plan = f.3.clone();
    edit(plan.tape.as_mut().unwrap());
    plan
}

/// The report on a corrupted plan carries `code` and no other.
fn assert_audit_fires_only(f: &PlanFixture, plan: &CommPlan, code: &str) {
    let rep = analyze::audit(&f.0, &f.1, &f.2, plan);
    assert_eq!(rep.codes(), [code], "{rep}");
}

/// Where the tape completes the fixture's first phase.
fn first_completion(ops: &[Op]) -> usize {
    ops.iter().position(|op| matches!(op, Op::Complete(0))).unwrap()
}

#[test]
fn sa024_duplicated_completion() {
    let f = plan_fixture(4);
    let plan = with_tape(&f, |ops| ops.insert(first_completion(ops), Op::Complete(0)));
    assert_audit_fires_only(&f, &plan, codes::DEAD_PHASE);
}

#[test]
fn sa024_dropped_completion() {
    let f = plan_fixture(4);
    let plan = with_tape(&f, |ops| drop(ops.remove(first_completion(ops))));
    assert_audit_fires_only(&f, &plan, codes::DEAD_PHASE);
}

#[test]
fn sa020_completion_before_the_wrong_statement() {
    // Phase 0 moves past the op its insertion point names: it still
    // completes once, but in the wrong place.
    let f = plan_fixture(4);
    let plan = with_tape(&f, |ops| {
        let at = first_completion(ops);
        let next = (at + 1..ops.len()).find(|&i| !matches!(ops[i], Op::Post(_))).unwrap();
        let done = ops.remove(at);
        ops.insert(next, done);
    });
    assert_audit_fires_only(&f, &plan, codes::PHASE_COVERAGE);
}

#[test]
fn sa025_send_length_lie() {
    let f = plan_fixture(4);
    let mut plan = f.3.clone();
    let send = plan.phases.iter_mut().flat_map(|ph| &mut ph.ranks).find_map(|rp| rp.send1.first_mut());
    send.expect("testiv has round-1 traffic").len += 1;
    assert_audit_fires(&f, &plan, codes::PACKET_LENGTH);
}

#[test]
fn sa025_receiver_lists_a_silent_peer() {
    // In the first phase where rank 0 hears from a peer, it also lists
    // one that sends it nothing: it would wait for that packet forever.
    let f = plan_fixture(4);
    let mut plan = f.3.clone();
    let rq = plan.phases.iter_mut().map(|ph| &mut ph.ranks[0].recv1).find(|l| !l.is_empty());
    let rq = rq.unwrap();
    let peer = (1..4u32).find(|p| rq.iter().all(|r1| r1.peer != *p)).expect("a silent peer");
    let silent = Recv1 { peer, updates: Vec::new(), adds: Vec::new() };
    rq.insert(rq.partition_point(|r1| r1.peer < peer), silent);
    assert_audit_fires_only(&f, &plan, codes::PACKET_LENGTH);
}

#[test]
fn sa025_sender_lists_a_peer_twice() {
    let f = plan_fixture(4);
    let mut plan = f.3.clone();
    let rp = plan.phases.iter_mut().flat_map(|ph| &mut ph.ranks).find(|rp| !rp.send1.is_empty());
    let send1 = &mut rp.expect("testiv has round-1 traffic").send1;
    send1.insert(0, send1[0].clone());
    assert_audit_fires(&f, &plan, codes::PACKET_LENGTH);
}

#[test]
fn sa026_packet_gap() {
    let f = plan_fixture(4);
    let mut plan = f.3.clone();
    'outer: for ph in &mut plan.phases {
        for rp in &mut ph.ranks {
            let mut updates = rp.recv1.iter_mut().flat_map(|r1| &mut r1.updates);
            if let Some(ru) = updates.find(|ru| !ru.dst.is_empty()) {
                ru.dst.pop();
                break 'outer;
            }
        }
    }
    assert_audit_fires(&f, &plan, codes::PACKET_COVERAGE);
}

#[test]
fn sa026_round_two_unpack_shifted() {
    // Move a round-2 write-back one value along its packet: the
    // receiver skips the first total and reads past the last.
    let f = fig2_plan_fixture(3);
    let mut plan = f.3.clone();
    let r2 = plan.phases.iter_mut().flat_map(|ph| &mut ph.ranks).find_map(|rp| rp.recv2.first_mut());
    r2.expect("node overlap sends totals back").updates[0].off += 1;
    assert_audit_fires_only(&f, &plan, codes::PACKET_COVERAGE);
}

// ---------------------------------------------------------------------------
// Placement-diagnosis codes (checker refactor)
// ---------------------------------------------------------------------------

#[test]
fn sa050_missing_communication_diagnosed() {
    let s = setup::testiv(6, 1e-9, &fig6());
    let sol = &s.analysis.solutions[0];
    let valid: std::collections::HashSet<usize> = sol
        .mapping
        .arrow_transition
        .iter()
        .enumerate()
        .filter(|(_, t)| t.map(|t| t.comm.is_some()).unwrap_or(false))
        .map(|(i, _)| i)
        .collect();
    let victim = *valid.iter().min().unwrap();
    let mut broken = valid.clone();
    broken.remove(&victim);
    let diag = syncplace::placement::check_placement(&s.dfg, &fig6(), &broken).unwrap_err();
    assert!(diag.missing.contains(&victim));
    assert!(diag
        .diagnostics
        .iter()
        .any(|d| d.code == codes::COMM_MISSING));
}
