//! Min-cost bipartite perfect matching on top of min-cost flow.
//!
//! Used by the maximum-displacement optimization (stage 2): cells of one
//! type within one fence region are matched to the multiset of their current
//! positions under the convex cost `φ` of Eq. 3. Solved with the same
//! network simplex ([`crate::solve`]) as stage 3.

use crate::graph::{ArcId, FlowGraph, FlowSolution, NodeId};

/// A perfect matching of all left vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// `assignment[l] = r`: left vertex `l` is matched to right vertex `r`.
    pub assignment: Vec<usize>,
    /// Total cost of the matching.
    pub cost: i128,
}

/// The flow network and dual-certified solution a matching was read from.
/// An external verifier can certify optimality of the matching from this
/// witness alone (feasibility + complementary slackness of `solution`
/// against `graph`), without trusting the solver.
#[derive(Debug, Clone)]
pub struct MatchingWitness {
    /// The bipartite flow network the matching was solved on.
    pub graph: FlowGraph,
    /// The solver's flow and dual potentials.
    pub solution: FlowSolution,
    /// Arc ids of the left-right edges, parallel to the input edge list.
    pub edge_arcs: Vec<ArcId>,
}

/// Finds a min-cost matching covering every left vertex, over a sparse edge
/// list `(left, right, cost)`. Returns `None` when no perfect matching
/// exists. Costs must be non-negative.
///
/// Alongside the matching come its optimality witness (the flow network
/// and dual solution it was read from; for the trivial `n_left == 0` case
/// an empty graph with an empty solution) and the simplex pivots it took,
/// which the caller books under its own counter.
///
/// ```
/// use mcl_flow::min_cost_matching;
/// let (m, _witness, _pivots) =
///     min_cost_matching(2, 2, &[(0, 0, 5), (0, 1, 1), (1, 0, 2), (1, 1, 9)]).unwrap();
/// assert_eq!(m.assignment, vec![1, 0]);
/// assert_eq!(m.cost, 3);
/// ```
pub fn min_cost_matching(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, i64)],
) -> Option<(Matching, MatchingWitness, u64)> {
    if n_left == 0 {
        return Some((
            Matching {
                assignment: Vec::new(),
                cost: 0,
            },
            MatchingWitness {
                graph: FlowGraph::new(),
                solution: FlowSolution {
                    flow: Vec::new(),
                    potential: Vec::new(),
                    cost: 0,
                },
                edge_arcs: Vec::new(),
            },
            0,
        ));
    }
    if n_left > n_right {
        return None;
    }
    let src = 0usize;
    let left0 = 1usize;
    let right0 = left0 + n_left;
    let sink = right0 + n_right;
    let mut g = FlowGraph::with_nodes(sink + 1);
    g.set_supply(NodeId(src), n_left as i64);
    g.set_supply(NodeId(sink), -(n_left as i64));
    for l in 0..n_left {
        g.add_arc(NodeId(src), NodeId(left0 + l), 1, 0);
    }
    let mut edge_arcs = Vec::with_capacity(edges.len());
    for &(l, r, c) in edges {
        assert!(l < n_left && r < n_right, "edge endpoint out of range");
        assert!(c >= 0, "matching costs must be non-negative");
        edge_arcs.push(g.add_arc(NodeId(left0 + l), NodeId(right0 + r), 1, c));
    }
    for r in 0..n_right {
        g.add_arc(NodeId(right0 + r), NodeId(sink), 1, 0);
    }
    let (sol, pivots) = crate::solve(&g).ok()?;
    let mut assignment = vec![usize::MAX; n_left];
    for (aid, &(l, r, _)) in edge_arcs.iter().zip(edges) {
        if sol.flow[aid.0] > 0 {
            assignment[l] = r;
        }
    }
    if assignment.contains(&usize::MAX) {
        return None;
    }
    let cost = sol.cost;
    Some((
        Matching { assignment, cost },
        MatchingWitness {
            graph: g,
            solution: sol,
            edge_arcs,
        },
        pivots,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matching alone, over every pair of a dense cost matrix:
    /// `costs[l][r]` is the cost of pairing left `l` with right `r`.
    fn dense(costs: &[Vec<i64>]) -> Option<Matching> {
        let n_right = costs.first().map_or(0, Vec::len);
        let mut edges = Vec::with_capacity(costs.len() * n_right);
        for (l, row) in costs.iter().enumerate() {
            assert_eq!(row.len(), n_right, "cost matrix must be rectangular");
            edges.extend(row.iter().enumerate().map(|(r, &c)| (l, r, c)));
        }
        min_cost_matching(costs.len(), n_right, &edges).map(|(m, _, _)| m)
    }

    /// Brute-force optimum over all permutations (small n).
    fn brute(costs: &[Vec<i64>]) -> i128 {
        let n = costs.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best = i128::MAX;
        permute(&mut perm, 0, &mut |p| {
            let c: i128 = p
                .iter()
                .enumerate()
                .map(|(l, &r)| costs[l][r] as i128)
                .sum();
            best = best.min(c);
        });
        best
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn square_matches_brute_force() {
        let costs = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        let m = dense(&costs).unwrap();
        assert_eq!(m.cost, brute(&costs));
        // Assignment must be a permutation.
        let mut seen = [false; 3];
        for &r in &m.assignment {
            assert!(!seen[r]);
            seen[r] = true;
        }
    }

    #[test]
    fn rectangular_left_covered() {
        let costs = vec![vec![10, 1, 10], vec![1, 10, 10]];
        let m = dense(&costs).unwrap();
        assert_eq!(m.cost, 2);
        assert_eq!(m.assignment, vec![1, 0]);
    }

    #[test]
    fn sparse_infeasible_is_none() {
        // Both lefts can only take right 0.
        assert!(min_cost_matching(2, 2, &[(0, 0, 1), (1, 0, 1)]).is_none());
    }

    #[test]
    fn more_left_than_right_is_none() {
        assert!(min_cost_matching(3, 2, &[(0, 0, 1), (1, 1, 1), (2, 1, 1)]).is_none());
    }

    #[test]
    fn empty_is_trivial() {
        let (m, _, pivots) = min_cost_matching(0, 5, &[]).unwrap();
        assert!(m.assignment.is_empty());
        assert_eq!((m.cost, pivots), (0, 0));
    }

    #[test]
    fn identity_is_kept_when_optimal() {
        // Diagonal zeros: identity matching is optimal with cost 0.
        let costs = vec![vec![0, 7, 7], vec![7, 0, 7], vec![7, 7, 0]];
        let m = dense(&costs).unwrap();
        assert_eq!(m.assignment, vec![0, 1, 2]);
        assert_eq!(m.cost, 0);
    }

    #[test]
    fn witness_carries_certified_solution() {
        let edges = [(0, 0, 5), (0, 1, 1), (1, 0, 2), (1, 1, 9)];
        let (m, w, pivots) = min_cost_matching(2, 2, &edges).unwrap();
        assert_eq!(m.cost, 3);
        assert!(pivots > 0);
        assert!(w.solution.verify(&w.graph).is_none());
        // Exactly the matched edges carry flow.
        for (aid, &(l, r, _)) in w.edge_arcs.iter().zip(&edges) {
            assert_eq!(w.solution.flow[aid.0] > 0, m.assignment[l] == r);
        }
    }

    #[test]
    fn random_instances_match_brute_force() {
        // Deterministic LCG so the test is reproducible.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let n = 2 + (rng() % 5) as usize;
            let costs: Vec<Vec<i64>> = (0..n)
                .map(|_| (0..n).map(|_| (rng() % 100) as i64).collect())
                .collect();
            let m = dense(&costs).unwrap();
            assert_eq!(m.cost, brute(&costs), "costs {costs:?}");
        }
    }
}
