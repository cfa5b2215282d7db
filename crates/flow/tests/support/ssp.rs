//! Successive shortest paths min-cost flow: a second, independent solver,
//! the tests' oracle for the network simplex (`mcl_flow::solve`), which
//! solves every production flow. Negative-cost arcs are handled by
//! pre-saturation; shortest paths then run Dijkstra with Johnson potentials
//! on the residual network.
//!
//! Test support, not library code: a test target includes it with
//! `#[path = ".../flow/tests/support/ssp.rs"] mod ssp;`.

use mcl_flow::{FlowError, FlowGraph, FlowSolution};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Solves a min-cost flow problem with successive shortest paths.
///
/// # Errors
///
/// [`FlowError::Unbalanced`] when supplies do not sum to zero,
/// [`FlowError::Infeasible`] when some excess cannot be routed,
/// [`FlowError::Unbounded`] is never returned: infinite-capacity negative
/// cycles are capped by `INF_CAP` pre-saturation, matching
/// the behaviour expected from bounded legalization LPs.
pub fn solve(g: &FlowGraph) -> Result<FlowSolution, FlowError> {
    if !g.is_balanced() {
        return Err(FlowError::Unbalanced);
    }
    let n = g.num_nodes();
    let m = g.num_arcs();

    // Residual representation: forward arc 2i, backward arc 2i+1.
    let mut head = Vec::with_capacity(2 * m);
    let mut cap = Vec::with_capacity(2 * m);
    let mut cost = Vec::with_capacity(2 * m);
    let mut first: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut excess: Vec<i64> = g.supplies().to_vec();

    for (i, a) in g.arcs().iter().enumerate() {
        let mut f0 = 0i64;
        if a.cost < 0 {
            // Saturate negative arcs up front.
            f0 = a.cap;
            excess[a.from.0] -= a.cap;
            excess[a.to.0] += a.cap;
        }
        first[a.from.0].push((2 * i) as u32);
        head.push(a.to.0 as u32);
        cap.push(a.cap - f0);
        cost.push(a.cost as i128);
        first[a.to.0].push((2 * i + 1) as u32);
        head.push(a.from.0 as u32);
        cap.push(f0);
        cost.push(-(a.cost as i128));
    }

    let mut pi = vec![0i128; n];
    let mut dist = vec![0i128; n];
    let mut pre: Vec<u32> = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(i128, u32)>> = BinaryHeap::new();

    #[allow(clippy::while_let_loop)]
    // the loop body also breaks on other conditions historically; keep explicit
    loop {
        let Some(s) = (0..n).find(|&v| excess[v] > 0) else {
            break;
        };
        // Dijkstra from s over residual arcs with reduced costs.
        dist.fill(i128::MAX);
        pre.fill(u32::MAX);
        dist[s] = 0;
        heap.clear();
        heap.push(Reverse((0, s as u32)));
        while let Some(Reverse((d, v))) = heap.pop() {
            let v = v as usize;
            if d > dist[v] {
                continue;
            }
            for &e in &first[v] {
                let e = e as usize;
                if cap[e] <= 0 {
                    continue;
                }
                let w = head[e] as usize;
                let rc = cost[e] + pi[v] - pi[w];
                debug_assert!(rc >= 0, "reduced cost must stay non-negative");
                let nd = d + rc;
                if nd < dist[w] {
                    dist[w] = nd;
                    pre[w] = e as u32;
                    heap.push(Reverse((nd, w as u32)));
                }
            }
        }
        // Pick the closest reachable deficit node.
        let Some(t) = (0..n)
            .filter(|&v| excess[v] < 0 && dist[v] < i128::MAX)
            .min_by_key(|&v| dist[v])
        else {
            return Err(FlowError::Infeasible);
        };
        // Update potentials, clamped at dist[t] (textbook rule keeping
        // residual reduced costs non-negative).
        let dt = dist[t];
        for v in 0..n {
            if dist[v] < i128::MAX {
                pi[v] += dist[v].min(dt);
            } else {
                pi[v] += dt;
            }
        }
        // Bottleneck along the path.
        let mut push = excess[s].min(-excess[t]);
        let mut v = t;
        while v != s {
            let e = pre[v] as usize;
            push = push.min(cap[e]);
            v = head[e ^ 1] as usize;
        }
        // Apply.
        let mut v = t;
        while v != s {
            let e = pre[v] as usize;
            cap[e] -= push;
            cap[e ^ 1] += push;
            v = head[e ^ 1] as usize;
        }
        excess[s] -= push;
        excess[t] += push;
    }

    // Extract flows: forward residual 2i has cap[2i] = original cap − flow.
    let mut flow = vec![0i64; m];
    let mut total: i128 = 0;
    for (i, a) in g.arcs().iter().enumerate() {
        flow[i] = a.cap - cap[2 * i];
        total += a.cost as i128 * flow[i] as i128;
    }
    let potential: Vec<i64> = pi.iter().map(|&p| -(p as i64)).collect();
    Ok(FlowSolution {
        flow,
        potential,
        cost: total,
    })
}
