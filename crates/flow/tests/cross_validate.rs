//! Cross-validation of the network simplex against the independent
//! successive-shortest-paths oracle on random instances, and the oracle's
//! own checks on hand-solved ones.

#[path = "support/instances.rs"]
mod instances;
#[path = "support/ssp.rs"]
mod ssp;

use mcl_flow::{FlowError, FlowGraph, FlowSolution, NodeId};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// The network simplex's solution without its pivot count.
fn simplex(g: &FlowGraph) -> Result<FlowSolution, FlowError> {
    mcl_flow::solve(g).map(|(sol, _)| sol)
}

/// Builds a random balanced flow problem guaranteed feasible by adding a
/// high-cost "overflow" path from every source to every sink.
fn random_graph(n: usize, arcs: &[(usize, usize, i64, i64)], supplies: &[i64]) -> FlowGraph {
    let mut g = FlowGraph::with_nodes(n + 1);
    let hub = NodeId(n);
    let total: i64 = supplies.iter().map(|s| s.abs()).sum();
    for (v, &s) in supplies.iter().enumerate() {
        g.set_supply(NodeId(v), s);
        // Feasibility backbone through a hub with expensive arcs.
        g.add_arc(NodeId(v), hub, total.max(1), 10_000);
        g.add_arc(hub, NodeId(v), total.max(1), 10_000);
    }
    for &(u, v, cap, cost) in arcs {
        g.add_arc(NodeId(u % n), NodeId(v % n), cap, cost);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn network_simplex_matches_ssp(
        n in 2usize..9,
        arcs in prop::collection::vec(
            (0usize..16, 0usize..16, 0i64..40, -30i64..60), 1..24),
        raw_supplies in prop::collection::vec(-10i64..10, 2..9),
    ) {
        // Balance supplies.
        let mut supplies: Vec<i64> = (0..n)
            .map(|i| raw_supplies.get(i).copied().unwrap_or(0))
            .collect();
        let excess: i64 = supplies.iter().sum();
        supplies[0] -= excess;

        let g = random_graph(n, &arcs, &supplies);
        let ns = simplex(&g);
        let sp = ssp::solve(&g);
        match (ns, sp) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.cost, b.cost, "objective mismatch");
                prop_assert!(a.verify(&g).is_none(), "NS optimality certificate");
                // Flow conservation for both solutions.
                for sol in [&a, &b] {
                    let mut net = vec![0i64; g.num_nodes()];
                    for (arc, &f) in g.arcs().iter().zip(&sol.flow) {
                        prop_assert!(f >= 0 && f <= arc.cap);
                        net[arc.from.0] += f;
                        net[arc.to.0] -= f;
                    }
                    for (v, &b_v) in g.supplies().iter().enumerate() {
                        prop_assert_eq!(net[v], b_v, "conservation at node {}", v);
                    }
                }
            }
            (a, b) => prop_assert!(false, "solver disagreement: {:?} vs {:?}", a.map(|s| s.cost), b.map(|s| s.cost)),
        }
    }

    #[test]
    fn circulations_agree(
        n in 2usize..8,
        arcs in prop::collection::vec(
            (0usize..16, 0usize..16, 0i64..40, -30i64..60), 1..20),
    ) {
        // All-zero supplies: pure circulation, only negative cycles matter.
        let mut g = FlowGraph::with_nodes(n);
        for &(u, v, cap, cost) in &arcs {
            g.add_arc(NodeId(u % n), NodeId(v % n), cap, cost);
        }
        let a = simplex(&g).unwrap();
        let b = ssp::solve(&g).unwrap();
        prop_assert_eq!(a.cost, b.cost);
        prop_assert!(a.cost <= 0, "circulation optimum is never positive");
        prop_assert!(a.verify(&g).is_none());
    }
}

/// The simplex unit tests' seeded instances (the same seed and sizes as
/// `tree_invariants_hold_after_every_pivot`): the same optimum as SSP.
#[test]
fn seeded_instances_match_ssp() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for n in (8..120).step_by(7) {
        let g = instances::random_instance(&mut rng, n);
        let sol = simplex(&g).expect("feasible instance");
        assert_eq!(sol.cost, ssp::solve(&g).expect("feasible").cost, "n = {n}");
    }
}

/// The oracle itself, on instances with known optima.
mod oracle {
    use super::ssp::solve;
    use mcl_flow::{FlowError, FlowGraph, NodeId};

    #[test]
    fn simple_path() {
        let mut g = FlowGraph::with_nodes(3);
        g.set_supply(NodeId(0), 5);
        g.set_supply(NodeId(2), -5);
        g.add_arc(NodeId(0), NodeId(1), 10, 2);
        g.add_arc(NodeId(1), NodeId(2), 10, 3);
        let s = solve(&g).unwrap();
        assert_eq!(s.cost, 25);
    }

    #[test]
    fn negative_arc_presaturation() {
        // A negative arc with nothing downstream forces flow back.
        let mut g = FlowGraph::with_nodes(2);
        g.add_arc(NodeId(0), NodeId(1), 5, -3);
        g.add_arc(NodeId(1), NodeId(0), 5, 1);
        let s = solve(&g).unwrap();
        assert_eq!(s.flow, vec![5, 5]);
        assert_eq!(s.cost, -10);
    }

    #[test]
    fn negative_arc_not_worth_keeping() {
        // Returning the saturated flow costs more than the gain.
        let mut g = FlowGraph::with_nodes(2);
        g.add_arc(NodeId(0), NodeId(1), 5, -3);
        g.add_arc(NodeId(1), NodeId(0), 5, 7);
        let s = solve(&g).unwrap();
        assert_eq!(s.flow, vec![0, 0]);
        assert_eq!(s.cost, 0);
    }

    #[test]
    fn potentials_certify_duality() {
        // Mirror of `network_simplex::tests::potentials_certify_duality`:
        // the SSP potentials must satisfy the same complementary-slackness
        // certificate on the same instance.
        let mut g = FlowGraph::with_nodes(4);
        g.set_supply(NodeId(0), 6);
        g.set_supply(NodeId(3), -6);
        g.add_arc(NodeId(0), NodeId(1), 4, 2);
        g.add_arc(NodeId(0), NodeId(2), 4, 3);
        g.add_arc(NodeId(1), NodeId(3), 5, 2);
        g.add_arc(NodeId(2), NodeId(3), 5, 1);
        let s = solve(&g).unwrap();
        assert!(s.verify(&g).is_none());
        assert_eq!(s.cost, 4 * 4 + 2 * 4);
        // Spot-check the dual inequalities directly: every arc must have
        // rc >= 0 when idle and rc <= 0 when saturated.
        for (i, a) in g.arcs().iter().enumerate() {
            let rc = a.cost as i128 - s.potential[a.from.0] as i128 + s.potential[a.to.0] as i128;
            if s.flow[i] == 0 {
                assert!(rc >= 0, "arc {i}: idle with rc {rc}");
            }
            if s.flow[i] == a.cap {
                assert!(rc <= 0, "arc {i}: saturated with rc {rc}");
            }
        }
    }

    #[test]
    fn infeasible() {
        let mut g = FlowGraph::with_nodes(2);
        g.set_supply(NodeId(0), 5);
        g.set_supply(NodeId(1), -5);
        g.add_arc(NodeId(0), NodeId(1), 3, 1);
        assert_eq!(solve(&g), Err(FlowError::Infeasible));
    }

    #[test]
    fn matches_transportation_optimum() {
        let mut g = FlowGraph::with_nodes(5);
        g.set_supply(NodeId(0), 3);
        g.set_supply(NodeId(1), 4);
        g.set_supply(NodeId(2), -2);
        g.set_supply(NodeId(3), -2);
        g.set_supply(NodeId(4), -3);
        let costs = [[4, 6, 9], [5, 3, 8]];
        for (i, row) in costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                g.add_arc(NodeId(i), NodeId(2 + j), 10, c);
            }
        }
        assert_eq!(solve(&g).unwrap().cost, 39);
    }
}
