//! Optimality certificates for min-cost-flow solutions.
//!
//! A flow is provably optimal when it is feasible (capacity bounds and flow
//! conservation) and complementary slackness holds against the dual node
//! potentials `π`: with reduced cost `rc(a) = cost(a) − π(from) + π(to)`,
//! every arc with `rc > 0` must carry zero flow and every arc with `rc < 0`
//! must be saturated. This check is solver-independent — it certifies
//! solutions from both the successive-shortest-path solver and the network
//! simplex without trusting either.

use std::fmt;

use mcl_flow::{FlowGraph, FlowSolution};

/// Proof that a solution is a feasible, optimal flow for its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// Independently recomputed total cost.
    pub cost: i128,
    /// Number of nodes whose conservation constraint was checked.
    pub nodes: usize,
    /// Number of arcs whose bounds and slackness were checked.
    pub arcs: usize,
}

/// Why a claimed solution is not certified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `flow` has the wrong length for the graph.
    FlowLenMismatch {
        /// Number of arcs in the graph.
        expected: usize,
        /// Length of the flow vector.
        got: usize,
    },
    /// `potential` has the wrong length for the graph.
    PotentialLenMismatch {
        /// Number of nodes in the graph.
        expected: usize,
        /// Length of the potential vector.
        got: usize,
    },
    /// An arc's flow is negative or exceeds its capacity.
    CapacityViolated {
        /// Offending arc index.
        arc: usize,
        /// Flow on the arc.
        flow: i64,
        /// Capacity of the arc.
        cap: i64,
    },
    /// A node's net outflow differs from its supply.
    ConservationViolated {
        /// Offending node index.
        node: usize,
        /// Declared supply.
        supply: i64,
        /// Actual outflow minus inflow.
        net: i128,
    },
    /// Complementary slackness fails on an arc.
    SlacknessViolated {
        /// Offending arc index.
        arc: usize,
        /// Reduced cost `cost − π(from) + π(to)`.
        reduced_cost: i128,
        /// Flow on the arc.
        flow: i64,
        /// Capacity of the arc.
        cap: i64,
    },
    /// The solution's claimed cost differs from the recomputed cost.
    CostMismatch {
        /// Cost claimed by the solver.
        claimed: i128,
        /// Cost recomputed from the flow.
        recomputed: i128,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::FlowLenMismatch { expected, got } => {
                write!(f, "flow vector length {got}, graph has {expected} arcs")
            }
            Violation::PotentialLenMismatch { expected, got } => {
                write!(
                    f,
                    "potential vector length {got}, graph has {expected} nodes"
                )
            }
            Violation::CapacityViolated { arc, flow, cap } => {
                write!(f, "arc {arc}: flow {flow} outside [0, {cap}]")
            }
            Violation::ConservationViolated { node, supply, net } => {
                write!(f, "node {node}: net outflow {net} != supply {supply}")
            }
            Violation::SlacknessViolated {
                arc,
                reduced_cost,
                flow,
                cap,
            } => write!(
                f,
                "arc {arc}: reduced cost {reduced_cost} inconsistent with flow {flow}/{cap}"
            ),
            Violation::CostMismatch {
                claimed,
                recomputed,
            } => {
                write!(f, "claimed cost {claimed}, flow costs {recomputed}")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Certifies that `s` is a feasible and optimal flow for `g`.
///
/// # Errors
///
/// Returns the first [`Violation`] found: shape mismatch, capacity bound,
/// conservation, complementary slackness, or claimed-cost mismatch.
pub fn certify(g: &FlowGraph, s: &FlowSolution) -> Result<Certificate, Violation> {
    let arcs = g.arcs();
    if s.flow.len() != arcs.len() {
        return Err(Violation::FlowLenMismatch {
            expected: arcs.len(),
            got: s.flow.len(),
        });
    }
    if s.potential.len() != g.num_nodes() {
        return Err(Violation::PotentialLenMismatch {
            expected: g.num_nodes(),
            got: s.potential.len(),
        });
    }

    let mut net = vec![0i128; g.num_nodes()];
    let mut cost = 0i128;
    for (i, a) in arcs.iter().enumerate() {
        let f = s.flow[i];
        if f < 0 || f > a.cap {
            return Err(Violation::CapacityViolated {
                arc: i,
                flow: f,
                cap: a.cap,
            });
        }
        net[a.from.0] += i128::from(f);
        net[a.to.0] -= i128::from(f);
        cost += i128::from(a.cost) * i128::from(f);
    }

    for (v, (&n, &b)) in net.iter().zip(g.supplies()).enumerate() {
        if n != i128::from(b) {
            return Err(Violation::ConservationViolated {
                node: v,
                supply: b,
                net: n,
            });
        }
    }

    for (i, a) in arcs.iter().enumerate() {
        let f = s.flow[i];
        let rc = i128::from(a.cost) - i128::from(s.potential[a.from.0])
            + i128::from(s.potential[a.to.0]);
        if (rc > 0 && f > 0) || (rc < 0 && f < a.cap) {
            return Err(Violation::SlacknessViolated {
                arc: i,
                reduced_cost: rc,
                flow: f,
                cap: a.cap,
            });
        }
    }

    if cost != s.cost {
        return Err(Violation::CostMismatch {
            claimed: s.cost,
            recomputed: cost,
        });
    }

    Ok(Certificate {
        cost,
        nodes: g.num_nodes(),
        arcs: arcs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_flow::NodeId;

    /// 0 -> 1 -> 2 path carrying 2 units at cost 3 each.
    fn path() -> (FlowGraph, FlowSolution) {
        let mut g = FlowGraph::with_nodes(3);
        g.set_supply(NodeId(0), 2);
        g.set_supply(NodeId(2), -2);
        g.add_arc(NodeId(0), NodeId(1), 2, 1);
        g.add_arc(NodeId(1), NodeId(2), 2, 2);
        let s = FlowSolution {
            flow: vec![2, 2],
            potential: vec![0, -1, -3],
            cost: 6,
        };
        (g, s)
    }

    #[test]
    fn certifies_valid_solution() {
        let (g, s) = path();
        let c = certify(&g, &s).expect("valid solution certifies");
        assert_eq!(c.cost, 6);
        assert_eq!(c.arcs, 2);
    }

    #[test]
    fn rejects_conservation_violation() {
        let (g, mut s) = path();
        s.flow[1] = 1;
        s.cost = 4;
        assert!(matches!(
            certify(&g, &s),
            Err(Violation::ConservationViolated { node: 1, .. })
        ));
    }

    #[test]
    fn rejects_capacity_violation() {
        let (g, mut s) = path();
        s.flow[0] = 3;
        assert!(matches!(
            certify(&g, &s),
            Err(Violation::CapacityViolated { arc: 0, .. })
        ));
    }

    #[test]
    fn rejects_slackness_violation() {
        let mut g = FlowGraph::with_nodes(2);
        g.set_supply(NodeId(0), 1);
        g.set_supply(NodeId(1), -1);
        g.add_arc(NodeId(0), NodeId(1), 2, 1); // cheap, used
        g.add_arc(NodeId(0), NodeId(1), 2, 5); // expensive, idle
                                               // Route the unit over the expensive arc: feasible but suboptimal
                                               // under potentials that price the cheap arc.
        let s = FlowSolution {
            flow: vec![0, 1],
            potential: vec![0, -1],
            cost: 5,
        };
        assert!(matches!(
            certify(&g, &s),
            Err(Violation::SlacknessViolated { arc: 1, .. })
        ));
    }

    #[test]
    fn rejects_cost_mismatch() {
        let (g, mut s) = path();
        s.cost = 7;
        assert!(matches!(
            certify(&g, &s),
            Err(Violation::CostMismatch { .. })
        ));
    }
}
