//! Flow network construction.

use std::fmt;

/// Node index within a [`FlowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Arc index within a [`FlowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcId(pub usize);

/// Effectively-infinite arc capacity.
pub const INF_CAP: i64 = i64::MAX / 4;

/// A directed arc with zero lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Upper capacity (lower bound is always zero).
    pub cap: i64,
    /// Cost per unit of flow (may be negative).
    pub cost: i64,
}

/// A directed flow network with node supplies.
///
/// Supplies must sum to zero for a feasible problem; a graph with all-zero
/// supplies is a min-cost *circulation* problem (negative-cost cycles are
/// then the only source of flow).
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    arcs: Vec<Arc>,
    supply: Vec<i64>,
}

impl FlowGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` nodes and zero supplies.
    pub fn with_nodes(n: usize) -> Self {
        Self {
            arcs: Vec::new(),
            supply: vec![0; n],
        }
    }

    /// Adds a node with zero supply.
    pub fn add_node(&mut self) -> NodeId {
        self.supply.push(0);
        NodeId(self.supply.len() - 1)
    }

    /// Sets the supply of a node (positive = source, negative = sink).
    pub fn set_supply(&mut self, v: NodeId, b: i64) {
        self.supply[v.0] = b;
    }

    /// Adds an arc and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the capacity is negative.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, cap: i64, cost: i64) -> ArcId {
        assert!(from.0 < self.supply.len() && to.0 < self.supply.len());
        assert!(cap >= 0, "arc capacity must be non-negative");
        self.arcs.push(Arc {
            from,
            to,
            cap,
            cost,
        });
        ArcId(self.arcs.len() - 1)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.supply.len()
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// All arcs.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Node supplies.
    pub fn supplies(&self) -> &[i64] {
        &self.supply
    }

    /// Whether supplies sum to zero.
    pub fn is_balanced(&self) -> bool {
        self.supply.iter().sum::<i64>() == 0
    }
}

/// An optimal flow with its dual certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSolution {
    /// Flow on each arc, indexed by [`ArcId`].
    pub flow: Vec<i64>,
    /// Node potentials `π`. With reduced cost `rc(a) = cost(a) − π(from) +
    /// π(to)`, optimality means `rc ≥ 0` on empty arcs and `rc ≤ 0` on
    /// saturated arcs. Dual variables of LP formulations solved through flow
    /// duality are read from these.
    pub potential: Vec<i64>,
    /// Total cost `Σ cost·flow`.
    pub cost: i128,
}

impl FlowSolution {
    /// Verifies complementary slackness of this solution against `g`.
    /// Returns the first violated arc if any (for tests/debugging); an arc
    /// whose flow or endpoint potential is missing counts as violated.
    pub fn verify(&self, g: &FlowGraph) -> Option<ArcId> {
        for (i, a) in g.arcs().iter().enumerate() {
            let (Some(&f), Some(&pf), Some(&pt)) = (
                self.flow.get(i),
                self.potential.get(a.from.0),
                self.potential.get(a.to.0),
            ) else {
                return Some(ArcId(i));
            };
            if f < 0 || f > a.cap {
                return Some(ArcId(i));
            }
            let rc = a.cost as i128 - pf as i128 + pt as i128;
            // Optimality: rc > 0 forces flow 0; rc < 0 forces saturation.
            if rc > 0 && f > 0 {
                return Some(ArcId(i));
            }
            if rc < 0 && f < a.cap {
                return Some(ArcId(i));
            }
        }
        None
    }
}

/// Errors from flow solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// Supplies do not sum to zero.
    Unbalanced,
    /// No feasible flow satisfies the supplies.
    Infeasible,
    /// The optimum is unbounded (a negative cycle of infinite capacity).
    Unbounded,
    /// The solver exceeded its iteration budget (should not happen).
    IterationLimit,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlowError::Unbalanced => "node supplies do not sum to zero",
            FlowError::Infeasible => "no feasible flow",
            FlowError::Unbounded => "objective unbounded below",
            FlowError::IterationLimit => "iteration limit exceeded",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FlowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_graph() {
        let mut g = FlowGraph::with_nodes(2);
        let c = g.add_node();
        g.set_supply(NodeId(0), 5);
        g.set_supply(c, -5);
        let a = g.add_arc(NodeId(0), NodeId(1), 3, 1);
        g.add_arc(NodeId(1), c, 10, 2);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(a, ArcId(0));
        assert!(g.is_balanced());
    }

    #[test]
    #[should_panic]
    fn negative_cap_rejected() {
        let mut g = FlowGraph::with_nodes(2);
        g.add_arc(NodeId(0), NodeId(1), -1, 0);
    }

    #[test]
    fn verify_flags_a_truncated_solution() {
        let mut g = FlowGraph::with_nodes(2);
        g.add_arc(NodeId(0), NodeId(1), 5, 1);
        g.add_arc(NodeId(1), NodeId(0), 5, 1);
        let short_flow = FlowSolution {
            flow: vec![0],
            potential: vec![0, 0],
            cost: 0,
        };
        assert_eq!(short_flow.verify(&g), Some(ArcId(1)));
        let short_potential = FlowSolution {
            flow: vec![0, 0],
            potential: vec![0],
            cost: 0,
        };
        assert_eq!(short_potential.verify(&g), Some(ArcId(0)));
    }

    #[test]
    fn unbalanced_detected() {
        let mut g = FlowGraph::with_nodes(1);
        g.set_supply(NodeId(0), 3);
        assert!(!g.is_balanced());
    }
}
