//! Mutation test for the flow-optimality certifier: take a genuinely optimal
//! matching witness, perturb it in targeted ways, and check the certifier
//! rejects every mutant. A certifier that accepts a perturbed solution would
//! silently bless suboptimal or corrupt matchings in CI.

use mcl_audit::{certify, Violation};
use mcl_flow::min_cost_matching;

fn witness() -> (mcl_flow::FlowGraph, mcl_flow::FlowSolution) {
    // 3x3 assignment with a unique optimum: diagonal is expensive, the
    // rotation (0->1, 1->2, 2->0) is cheap.
    let edges = [
        (0, 0, 9),
        (0, 1, 1),
        (1, 1, 9),
        (1, 2, 1),
        (2, 2, 9),
        (2, 0, 1),
    ];
    let (m, w, _) = min_cost_matching(3, 3, &edges).expect("feasible");
    assert_eq!(m.cost, 3);
    (w.graph, w.solution)
}

#[test]
fn pristine_witness_certifies() {
    let (g, s) = witness();
    let cert = certify(&g, &s).expect("optimal solution must certify");
    assert_eq!(cert.cost, 3);
    assert_eq!(cert.arcs, g.num_arcs());
}

#[test]
fn rerouted_flow_is_rejected() {
    let (g, s) = witness();
    // Move one unit of flow from a matched left-right arc to a different
    // arc out of the same left vertex, keeping the claimed cost. This
    // breaks conservation, slackness, or the cost recomputation — the
    // certifier must catch it one way or another.
    for i in 0..s.flow.len() {
        for j in 0..s.flow.len() {
            if i == j || s.flow[i] == 0 || s.flow[j] != 0 {
                continue;
            }
            let mut bad = s.clone();
            bad.flow[i] = 0;
            bad.flow[j] = 1;
            assert!(
                certify(&g, &bad).is_err(),
                "perturbed flow (drain arc {i}, fill arc {j}) must not certify"
            );
        }
    }
}

#[test]
fn truncated_flow_is_rejected() {
    let (g, s) = witness();
    let mut bad = s.clone();
    bad.flow.pop();
    assert!(matches!(
        certify(&g, &bad),
        Err(Violation::FlowLenMismatch { .. })
    ));
}

#[test]
fn understated_cost_is_rejected() {
    let (g, s) = witness();
    let mut bad = s.clone();
    bad.cost -= 1;
    assert!(matches!(
        certify(&g, &bad),
        Err(Violation::CostMismatch { .. })
    ));
}

#[test]
fn corrupted_potential_is_rejected() {
    let (g, s) = witness();
    // Skew every potential by a node-dependent amount; some arc's reduced
    // cost must then violate complementary slackness.
    let mut bad = s.clone();
    for (i, p) in bad.potential.iter_mut().enumerate() {
        *p += (i as i64) * 7 - 11;
    }
    assert!(matches!(
        certify(&g, &bad),
        Err(Violation::SlacknessViolated { .. })
    ));
}

#[test]
fn overfilled_arc_is_rejected() {
    let (g, s) = witness();
    let mut bad = s.clone();
    let i = bad.flow.iter().position(|&f| f > 0).unwrap();
    bad.flow[i] += 1;
    assert!(
        certify(&g, &bad).is_err(),
        "capacity or conservation must trip"
    );
}
