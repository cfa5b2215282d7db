//! Seeded random flow instances shared by the simplex's unit tests (tree
//! invariants after every pivot) and the SSP cross-check.

use mcl_flow::{FlowGraph, NodeId, INF_CAP};
use rand::{rngs::StdRng, Rng};

/// Seeded random feasible instance: a bidirectional ring keeps every
/// supply routable, extra random arcs make the tree reshape often.
pub fn random_instance(rng: &mut StdRng, n: usize) -> FlowGraph {
    let mut g = FlowGraph::with_nodes(n);
    let mut total = 0;
    for v in 0..n - 1 {
        let b = rng.gen_range(-6i64..7);
        g.set_supply(NodeId(v), b);
        total += b;
    }
    g.set_supply(NodeId(n - 1), -total);
    for v in 0..n {
        let w = (v + 1) % n;
        g.add_arc(NodeId(v), NodeId(w), INF_CAP, rng.gen_range(1i64..50));
        g.add_arc(NodeId(w), NodeId(v), INF_CAP, rng.gen_range(1i64..50));
    }
    for _ in 0..3 * n {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        g.add_arc(
            NodeId(u),
            NodeId(v),
            rng.gen_range(0i64..15),
            rng.gen_range(-5i64..40),
        );
    }
    g
}
