//! Primal network simplex for min-cost flow.
//!
//! Implements the classic spanning-tree simplex with the **first eligible**
//! pivot rule (the configuration the paper uses in LEMON) and Cunningham's
//! leaving-arc rule (last blocking arc along the oriented cycle, starting at
//! the apex) to maintain a strongly feasible basis and prevent cycling.
//!
//! Potentials are maintained so that every tree arc has zero reduced cost
//! with the convention `rc(a) = cost(a) − π(from) + π(to)`; the returned
//! [`FlowSolution::potential`] therefore certifies optimality and doubles as
//! the dual solution of LPs encoded as flows.

use crate::graph::{Arc, FlowError, FlowGraph, FlowSolution, NodeId};

/// Arc state in the simplex basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArcState {
    /// Non-basic at lower bound (flow 0).
    Lower,
    /// Non-basic at upper bound (flow = cap).
    Upper,
    /// In the spanning tree.
    Tree,
}

/// Solves the min-cost flow problem by network simplex; returns the optimal
/// solution and the number of pivots it took, for callers that book the
/// work under their own counter.
///
/// ```
/// use mcl_flow::{FlowGraph, NodeId};
///
/// let mut g = FlowGraph::with_nodes(3);
/// g.set_supply(NodeId(0), 4);
/// g.set_supply(NodeId(2), -4);
/// g.add_arc(NodeId(0), NodeId(1), 10, 1);
/// g.add_arc(NodeId(1), NodeId(2), 10, 1);
/// g.add_arc(NodeId(0), NodeId(2), 2, 5);
/// let (sol, _pivots) = mcl_flow::solve(&g)?;
/// assert_eq!(sol.cost, 8); // all 4 units via the middle node at cost 2
/// # Ok::<(), mcl_flow::FlowError>(())
/// ```
///
/// # Errors
///
/// [`FlowError::Unbalanced`] when supplies do not sum to zero,
/// [`FlowError::Infeasible`] when the supplies cannot be routed,
/// [`FlowError::Unbounded`] when a negative cycle has infinite capacity,
/// [`FlowError::IterationLimit`] when the pivot count passes a generous
/// polynomial bound (a cycling guard, not a workload limit).
pub fn solve(g: &FlowGraph) -> Result<(FlowSolution, u64), FlowError> {
    if !g.is_balanced() {
        return Err(FlowError::Unbalanced);
    }
    Solver::new(g).run()
}

const NONE: usize = usize::MAX;

struct Solver<'a> {
    g: &'a FlowGraph,
    n: usize,       // number of real nodes; root = n
    flow: Vec<i64>, // per arc (real + artificial)
    state: Vec<ArcState>,
    arcs: Vec<Arc>,         // real arcs then artificial arcs
    parent: Vec<usize>,     // per node (incl. root)
    parent_arc: Vec<usize>, // arc connecting node to parent
    depth: Vec<u32>,
    children: Vec<Vec<usize>>,
    slot: Vec<usize>, // per node: its index in its parent's `children`
    pi: Vec<i128>,
    /// Per-pivot work lists, kept between pivots so a pivot allocates
    /// nothing once they have grown.
    scratch: Scratch,
}

/// A tree or entering arc on a pivot's oriented cycle.
#[derive(Clone, Copy)]
struct CycArc {
    id: usize,
    down: bool, // traversed in arc direction (flow increases)?
}

#[derive(Default)]
struct Scratch {
    up_path: Vec<usize>,
    down_path: Vec<usize>,
    cyc: Vec<CycArc>,
    path: Vec<usize>,
    stack: Vec<usize>,
}

impl<'a> Solver<'a> {
    fn new(g: &'a FlowGraph) -> Self {
        let n = g.num_nodes();
        let root = n;
        let max_cost: i128 = g
            .arcs()
            .iter()
            .map(|a| (a.cost as i128).abs())
            .max()
            .unwrap_or(0);
        let big: i64 = (1 + (n as i128 + 1) * (max_cost + 1)).min(i64::MAX as i128 / 4) as i64;

        let m = g.num_arcs();
        let mut solver = Self {
            g,
            n,
            flow: vec![0i64; m],
            state: vec![ArcState::Lower; m],
            arcs: g.arcs().to_vec(),
            parent: vec![NONE; n + 1],
            parent_arc: vec![NONE; n + 1],
            depth: vec![1u32; n + 1],
            children: vec![Vec::new(); n + 1],
            slot: vec![NONE; n + 1],
            pi: vec![0i128; n + 1],
            scratch: Scratch::default(),
        };
        solver.depth[root] = 0;

        // Artificial arcs form the initial spanning tree (star around root).
        for (v, &b) in g.supplies().iter().enumerate() {
            let arc = if b > 0 {
                Arc {
                    from: NodeId(v),
                    to: NodeId(root),
                    cap: i64::MAX / 2,
                    cost: big,
                }
            } else {
                Arc {
                    from: NodeId(root),
                    to: NodeId(v),
                    cap: i64::MAX / 2,
                    cost: big,
                }
            };
            solver.link(v, root, solver.arcs.len());
            solver.arcs.push(arc);
            solver.flow.push(b.abs());
            solver.state.push(ArcState::Tree);
            // Tree arc has rc = 0: π(to) = π(from) − cost.
            solver.pi[v] = if b > 0 { big as i128 } else { -(big as i128) };
        }
        solver
    }

    /// Runs the simplex to optimality; returns the solution and the number
    /// of pivots performed.
    fn run(mut self) -> Result<(FlowSolution, u64), FlowError> {
        // Generous polynomial budget; practical pivot counts are far lower.
        // Guards against cycling bugs rather than real workloads.
        let budget = 1_000_000usize.max(self.arcs.len().saturating_mul(2000));
        let mut cursor = 0usize;
        let mut pivots = 0usize;
        while let Some(e) = self.entering(&mut cursor) {
            pivots += 1;
            if pivots > budget {
                return Err(FlowError::IterationLimit);
            }
            self.pivot(e)?;
        }
        self.finish(pivots)
    }

    /// First-eligible entering arc, scanning from `cursor` with wraparound;
    /// `None` at optimality.
    fn entering(&self, cursor: &mut usize) -> Option<usize> {
        let m = self.arcs.len();
        let a = (*cursor..m)
            .chain(0..*cursor)
            .find(|&a| self.is_eligible(a))?;
        *cursor = (a + 1) % m;
        Some(a)
    }

    /// Extracts the solution once no arc is eligible.
    fn finish(self, pivots: usize) -> Result<(FlowSolution, u64), FlowError> {
        // Any remaining flow on artificial arcs means infeasible supplies.
        for a in self.g.num_arcs()..self.arcs.len() {
            if self.flow[a] > 0 {
                return Err(FlowError::Infeasible);
            }
        }

        let flow = self.flow[..self.g.num_arcs()].to_vec();
        let cost: i128 = self
            .g
            .arcs()
            .iter()
            .zip(&flow)
            .map(|(a, &f)| a.cost as i128 * f as i128)
            .sum();
        // Normalize potentials to π(root) = 0 and clamp into i64.
        let base = self.pi[self.n];
        let potential: Vec<i64> = (0..self.n)
            .map(|v| {
                let p = self.pi[v] - base;
                debug_assert!(p >= i64::MIN as i128 && p <= i64::MAX as i128);
                p as i64
            })
            .collect();
        Ok((
            FlowSolution {
                flow,
                potential,
                cost,
            },
            pivots as u64,
        ))
    }

    fn rc(&self, a: usize) -> i128 {
        let arc = &self.arcs[a];
        arc.cost as i128 - self.pi[arc.from.0] + self.pi[arc.to.0]
    }

    fn is_eligible(&self, a: usize) -> bool {
        match self.state[a] {
            ArcState::Lower => self.arcs[a].cap > 0 && self.rc(a) < 0,
            ArcState::Upper => self.rc(a) > 0,
            ArcState::Tree => false,
        }
    }

    /// Performs one pivot with entering arc `e`.
    fn pivot(&mut self, e: usize) -> Result<(), FlowError> {
        let arc = self.arcs[e];
        // Orientation of the cycle follows the direction of flow change on
        // `e`: forward if entering from Lower, backward if from Upper.
        let forward = self.state[e] == ArcState::Lower;
        let (start, end) = if forward {
            (arc.from.0, arc.to.0)
        } else {
            (arc.to.0, arc.from.0)
        };
        // The oriented cycle is: apex -> ... -> start, e, end -> ... -> apex.
        // Collect tree arcs on both paths.
        let (mut u, mut v) = (start, end);
        let Scratch {
            mut up_path,   // arcs from start up to apex
            mut down_path, // arcs from end up to apex
            mut cyc,
            mut path,
            mut stack,
        } = std::mem::take(&mut self.scratch);
        up_path.clear();
        down_path.clear();
        cyc.clear();
        path.clear();
        while self.depth[u] > self.depth[v] {
            up_path.push(self.parent_arc[u]);
            u = self.parent[u];
        }
        while self.depth[v] > self.depth[u] {
            down_path.push(self.parent_arc[v]);
            v = self.parent[v];
        }
        while u != v {
            up_path.push(self.parent_arc[u]);
            u = self.parent[u];
            down_path.push(self.parent_arc[v]);
            v = self.parent[v];
        }
        // Oriented cycle arc list starting at the apex:
        //   reversed(up_path) [descending apex->start], then e, then
        //   down_path [ascending end->apex].
        // For each, a +1 direction means flow increases along orientation.
        // Tree arc t connects child c to parent p; traversing downward
        // (apex->start) goes parent->child, upward child->parent.
        for &t in up_path.iter().rev() {
            // Traversal goes parent -> child here. The arc's stored direction
            // is from/to; child is the node whose parent_arc == t. Flow
            // increases along traversal iff the arc points parent->child.
            let child = self.child_of(t);
            let points_down = self.arcs[t].to.0 == child;
            cyc.push(CycArc {
                id: t,
                down: points_down,
            });
        }
        cyc.push(CycArc {
            id: e,
            down: forward,
        });
        for &t in down_path.iter() {
            // Traversal goes child -> parent. Flow increases iff the arc
            // points child->parent.
            let child = self.child_of(t);
            let points_up = self.arcs[t].from.0 == child;
            cyc.push(CycArc {
                id: t,
                down: points_up,
            });
        }

        // Residual along orientation.
        let mut theta = i64::MAX;
        let mut leaving_idx = NONE;
        for (i, ca) in cyc.iter().enumerate() {
            let res = if ca.down {
                self.arcs[ca.id].cap - self.flow[ca.id]
            } else {
                self.flow[ca.id]
            };
            // Cunningham: pick the LAST blocking arc in traversal order.
            if res < theta || (res == theta && leaving_idx != NONE) {
                theta = res;
                leaving_idx = i;
            }
        }
        if theta >= i64::MAX / 4 {
            return Err(FlowError::Unbounded);
        }
        // Apply flow change.
        if theta > 0 {
            for ca in &cyc {
                if ca.down {
                    self.flow[ca.id] += theta;
                } else {
                    self.flow[ca.id] -= theta;
                }
            }
        }
        let leave = cyc[leaving_idx].id;
        if leave == e {
            // Entering arc saturated without changing the basis.
            self.state[e] = if forward {
                ArcState::Upper
            } else {
                ArcState::Lower
            };
            self.scratch = Scratch {
                up_path,
                down_path,
                cyc,
                path,
                stack,
            };
            return Ok(());
        }
        // Replace `leave` by `e` in the tree.
        let leave_child = self.child_of(leave);
        self.state[leave] = if self.flow[leave] == 0 {
            ArcState::Lower
        } else {
            ArcState::Upper
        };
        self.state[e] = ArcState::Tree;

        // Detach subtree rooted at leave_child.
        self.unlink(leave_child);

        // Which endpoint of `e` is inside the detached subtree?
        let (ef, et) = (arc.from.0, arc.to.0);
        let s = if self.in_subtree(leave_child, ef) {
            ef
        } else {
            et
        };
        let t = if s == ef { et } else { ef };
        debug_assert!(self.in_subtree(leave_child, s));
        debug_assert!(!self.in_subtree(leave_child, t));

        // Re-root the detached subtree at `s` by reversing parent pointers
        // along the path s -> ... -> leave_child.
        let mut w = s;
        while w != NONE && w != leave_child {
            path.push(w);
            w = self.parent[w];
        }
        path.push(leave_child);
        for i in (0..path.len() - 1).rev() {
            let hi = path[i + 1]; // current parent
            let lo = path[i];
            // Reverse: hi becomes child of lo.
            let a = self.unlink(lo);
            self.link(hi, lo, a);
        }
        self.link(s, t, e);

        // Recompute depth and potentials of the re-hung subtree.
        stack.push(s);
        while let Some(x) = stack.pop() {
            let p = self.parent[x];
            let a = self.parent_arc[x];
            self.depth[x] = self.depth[p] + 1;
            let arc = &self.arcs[a];
            // rc = cost − π(from) + π(to) = 0.
            self.pi[x] = if arc.to.0 == x {
                self.pi[arc.from.0] - arc.cost as i128
            } else {
                self.pi[arc.to.0] + arc.cost as i128
            };
            stack.extend(self.children[x].iter().copied());
        }
        self.scratch = Scratch {
            up_path,
            down_path,
            cyc,
            path,
            stack,
        };
        Ok(())
    }

    /// Hangs `c` under `p` via tree arc `arc`.
    fn link(&mut self, c: usize, p: usize, arc: usize) {
        self.parent[c] = p;
        self.parent_arc[c] = arc;
        self.slot[c] = self.children[p].len();
        self.children[p].push(c);
    }

    /// Detaches `c` from its parent in O(1) and returns its old parent arc.
    /// Child order is free to change: only the re-hang DFS reads it, and
    /// depth and π there depend on parent pointers alone.
    fn unlink(&mut self, c: usize) -> usize {
        let p = self.parent[c];
        let i = self.slot[c];
        self.children[p].swap_remove(i);
        if let Some(&moved) = self.children[p].get(i) {
            self.slot[moved] = i;
        }
        self.parent[c] = NONE;
        std::mem::replace(&mut self.parent_arc[c], NONE)
    }

    fn child_of(&self, tree_arc: usize) -> usize {
        let a = &self.arcs[tree_arc];
        if self.parent_arc[a.from.0] == tree_arc {
            a.from.0
        } else {
            debug_assert_eq!(self.parent_arc[a.to.0], tree_arc);
            a.to.0
        }
    }

    /// Asserts the spanning-tree invariants: every node but the root is
    /// listed exactly once, under its parent and at its `slot`, one level
    /// below it, via a tree arc joining the two with zero reduced cost.
    #[cfg(test)]
    fn check_tree(&self) {
        let root = self.n;
        assert_eq!(self.parent[root], NONE);
        let mut listed = 0;
        for (p, kids) in self.children.iter().enumerate() {
            for (i, &c) in kids.iter().enumerate() {
                assert_eq!(self.parent[c], p, "child {c} listed under {p}");
                assert_eq!(self.slot[c], i, "slot of {c}");
                assert_eq!(self.depth[c], self.depth[p] + 1, "depth of {c}");
                let a = self.parent_arc[c];
                assert_eq!(self.state[a], ArcState::Tree);
                let ends = (self.arcs[a].from.0, self.arcs[a].to.0);
                assert!(ends == (c, p) || ends == (p, c), "arc {a} joins {c}-{p}");
                assert_eq!(self.rc(a), 0, "tree arc {a} has nonzero rc");
                listed += 1;
            }
        }
        assert_eq!(listed, root);
        let tree_arcs = self.state.iter().filter(|&&st| st == ArcState::Tree);
        assert_eq!(tree_arcs.count(), root);
    }

    /// Walks parent pointers up to `root`'s depth; the detached subtree's
    /// root has parent `NONE`, as does the tree root, so the walk always
    /// terminates. Depths strictly decrease along parent pointers (a
    /// detached subtree keeps the depths it had), so no node at or above
    /// `root`'s depth can lead to it.
    fn in_subtree(&self, root: usize, mut v: usize) -> bool {
        let top = self.depth[root];
        loop {
            if v == root {
                return true;
            }
            if self.parent[v] == NONE || self.depth[v] <= top {
                return false;
            }
            v = self.parent[v];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::INF_CAP;
    use crate::instances::random_instance;
    use rand::{rngs::StdRng, SeedableRng};

    fn optimum(g: &FlowGraph) -> FlowSolution {
        solve(g).expect("solvable").0
    }

    #[test]
    fn trivial_path() {
        let mut g = FlowGraph::with_nodes(3);
        g.set_supply(NodeId(0), 5);
        g.set_supply(NodeId(2), -5);
        g.add_arc(NodeId(0), NodeId(1), 10, 2);
        g.add_arc(NodeId(1), NodeId(2), 10, 3);
        let s = optimum(&g);
        assert_eq!(s.cost, 25);
        assert_eq!(s.flow, vec![5, 5]);
        assert!(s.verify(&g).is_none());
    }

    #[test]
    fn splits_across_two_paths_by_cost() {
        let mut g = FlowGraph::with_nodes(3);
        g.set_supply(NodeId(0), 4);
        g.set_supply(NodeId(2), -4);
        g.add_arc(NodeId(0), NodeId(1), 10, 1);
        g.add_arc(NodeId(1), NodeId(2), 10, 1);
        g.add_arc(NodeId(0), NodeId(2), 2, 5);
        let s = optimum(&g);
        // Direct arc costs 5 > 2, so everything goes via node 1.
        assert_eq!(s.cost, 8);
        assert!(s.verify(&g).is_none());
    }

    #[test]
    fn saturates_cheap_path_first() {
        let mut g = FlowGraph::with_nodes(2);
        g.set_supply(NodeId(0), 10);
        g.set_supply(NodeId(1), -10);
        g.add_arc(NodeId(0), NodeId(1), 4, 1);
        g.add_arc(NodeId(0), NodeId(1), 20, 3);
        let s = optimum(&g);
        assert_eq!(s.flow, vec![4, 6]);
        assert_eq!(s.cost, 4 + 18);
    }

    #[test]
    fn negative_cycle_circulation() {
        // 0 -> 1 -> 2 -> 0 with total negative cost and finite caps: the
        // circulation saturates the cycle.
        let mut g = FlowGraph::with_nodes(3);
        g.add_arc(NodeId(0), NodeId(1), 7, -5);
        g.add_arc(NodeId(1), NodeId(2), 7, 1);
        g.add_arc(NodeId(2), NodeId(0), 7, 1);
        let s = optimum(&g);
        assert_eq!(s.flow, vec![7, 7, 7]);
        assert_eq!(s.cost, -21);
        assert!(s.verify(&g).is_none());
    }

    #[test]
    fn zero_supply_no_negative_cycle_stays_empty() {
        let mut g = FlowGraph::with_nodes(3);
        g.add_arc(NodeId(0), NodeId(1), 7, 5);
        g.add_arc(NodeId(1), NodeId(2), 7, 1);
        g.add_arc(NodeId(2), NodeId(0), 7, 1);
        let s = optimum(&g);
        assert_eq!(s.cost, 0);
        assert_eq!(s.flow, vec![0, 0, 0]);
    }

    #[test]
    fn unbounded_detected() {
        let mut g = FlowGraph::with_nodes(2);
        g.add_arc(NodeId(0), NodeId(1), INF_CAP, -1);
        g.add_arc(NodeId(1), NodeId(0), INF_CAP, 0);
        assert_eq!(solve(&g), Err(FlowError::Unbounded));
    }

    #[test]
    fn infeasible_detected() {
        let mut g = FlowGraph::with_nodes(3);
        g.set_supply(NodeId(0), 5);
        g.set_supply(NodeId(2), -5);
        g.add_arc(NodeId(0), NodeId(1), 3, 1); // bottleneck < 5
        g.add_arc(NodeId(1), NodeId(2), 10, 1);
        assert_eq!(solve(&g), Err(FlowError::Infeasible));
    }

    #[test]
    fn unbalanced_detected() {
        let mut g = FlowGraph::with_nodes(2);
        g.set_supply(NodeId(0), 1);
        assert_eq!(solve(&g), Err(FlowError::Unbalanced));
    }

    #[test]
    fn transportation_problem() {
        // 2 sources (3, 4), 3 sinks (2, 2, 3), complete bipartite costs.
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
        let s = optimum(&g);
        // Optimal: s0->t0:2, s0->t2:1, s1->t1:2, s1->t2:2 = 8+9+6+16 = 39.
        assert_eq!(s.cost, 39);
        assert!(s.verify(&g).is_none());
    }

    #[test]
    fn tree_invariants_hold_after_every_pivot() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut last, mut middle, mut most_left) = (0, 0, 0.0f64);
        for n in (8..120).step_by(7) {
            let g = random_instance(&mut rng, n);
            let mut s = Solver::new(&g);
            s.check_tree();
            let (mut cursor, mut pivots, mut left) = (0, 0, 0);
            while let Some(e) = s.entering(&mut cursor) {
                let star = s.children[n].clone();
                s.pivot(e).expect("bounded instance");
                s.check_tree();
                pivots += 1;
                // A pivot detaches at most one child of the root.
                if let Some(i) = star.iter().position(|&c| s.parent[c] != n) {
                    left += 1;
                    if i + 1 == star.len() {
                        last += 1;
                    } else {
                        middle += 1;
                    }
                }
            }
            most_left = most_left.max(f64::from(left) / n as f64);
            let (sol, _) = s.finish(pivots).expect("feasible instance");
            assert!(sol.verify(&g).is_none());
        }
        assert!(last > 0 && middle > 0, "last {last}, middle {middle}");
        assert!(most_left > 0.5, "at most {most_left} of the star left");
    }

    #[test]
    fn potentials_certify_duality() {
        let mut g = FlowGraph::with_nodes(4);
        g.set_supply(NodeId(0), 6);
        g.set_supply(NodeId(3), -6);
        g.add_arc(NodeId(0), NodeId(1), 4, 2);
        g.add_arc(NodeId(0), NodeId(2), 4, 3);
        g.add_arc(NodeId(1), NodeId(3), 5, 2);
        g.add_arc(NodeId(2), NodeId(3), 5, 1);
        let s = optimum(&g);
        assert!(s.verify(&g).is_none());
        assert_eq!(s.cost, 4 * 4 + 2 * 4);
    }
}
