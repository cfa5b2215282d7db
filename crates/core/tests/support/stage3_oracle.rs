//! Stage 3 as one graph: every placed movable cell, every neighbour pair
//! and (with `n₀ > 0`) the Eq. 8–9 extension in a single dual min-cost
//! flow, exactly as §3.3 states it. The library solves the same LP by
//! independent components and repairs the relaxation until it is exact;
//! this is the oracle its suite compares against.

use mcl_core::routability::RoutOracle;
use mcl_core::state::PlacementState;
use mcl_core::LegalizerConfig;
use mcl_db::prelude::*;
use mcl_flow::{FlowGraph, NodeId, INF_CAP};
use std::collections::HashSet;

/// The one-graph optimum over the placed movable cells, with the LP
/// terms that price any other solution.
pub struct Monolithic {
    /// Optimal x of each cell, in ascending id order.
    pub xs: Vec<(CellId, Dbu)>,
    /// Weighted x-displacement at the optimum, in site units.
    pub weighted: i64,
    origin: Dbu,
    sw: Dbu,
    w: Vec<i64>,
    xp: Vec<i64>,
    dy: Vec<i64>,
    n0: i64,
    max_dy: i64,
}

impl Monolithic {
    /// The LP objective (Eq. 4 with the Eq. 8 terms) of positions `xs`
    /// (same cells, same order), in site units:
    /// `Σ n_i·|dx_i| + n₀·(max(0, −max δ_y − min_i(dx_i − δ_yi)) +
    /// max(0, max_i(dx_i + δ_yi) − max δ_y))` with `dx_i = x_i − x'_i`,
    /// the flow's cost with `π_p`, `π_n` at their best.
    pub fn objective(&self, xs: &[(CellId, Dbu)]) -> i64 {
        let dx: Vec<i64> = xs
            .iter()
            .zip(&self.xp)
            .map(|(&(_, x), &xp)| (x - self.origin) / self.sw - xp)
            .collect();
        let total: i64 = dx.iter().zip(&self.w).map(|(d, w)| w * d.abs()).sum();
        if self.n0 == 0 {
            return total;
        }
        let low = dx
            .iter()
            .zip(&self.dy)
            .map(|(d, y)| d - y)
            .min()
            .unwrap_or(0);
        let high = dx
            .iter()
            .zip(&self.dy)
            .map(|(d, y)| d + y)
            .max()
            .unwrap_or(0);
        total + self.n0 * ((-self.max_dy - low).max(0) + (high - self.max_dy).max(0))
    }
}

/// Builds and solves the full stage-3 flow of a full (non-delta) run.
pub fn solve_monolithic(
    state: &PlacementState<'_>,
    config: &LegalizerConfig,
    weights: &[i64],
    oracle: Option<&RoutOracle<'_>>,
) -> Monolithic {
    let d = state.design();
    let sw = d.tech.site_width;
    let cells: Vec<CellId> = d
        .movable_cells()
        .filter(|&c| state.pos(c).is_some())
        .collect();
    let k = cells.len();
    let mut index = vec![usize::MAX; d.cells.len()];
    for (i, &c) in cells.iter().enumerate() {
        index[c.0 as usize] = i;
    }
    let to_sites = |x: Dbu| -> i64 { (x - d.core.xl) / sw };
    let (mut xp, mut lo, mut hi, mut dy, mut cur) =
        (vec![0; k], vec![0; k], vec![0; k], vec![0; k], vec![0; k]);
    for (i, &c) in cells.iter().enumerate() {
        let cell = &d.cells[c.0 as usize];
        let p = state.pos(c).expect("placed");
        let w = d.type_of(c).width;
        cur[i] = to_sites(p.x);
        xp[i] = to_sites(d.tech.snap_x_nearest(d.core.xl, cell.gp.x));
        dy[i] = ((p.y - cell.gp.y).abs() + sw / 2) / sw;
        let (mut l, mut r) = (d.core.xl, d.core.xh);
        for seg in state.segments_of(c) {
            let seg = &state.segments().segments()[seg];
            l = l.max(seg.x.lo);
            r = r.min(seg.x.hi - w);
        }
        if let Some(o) = oracle {
            let row = state.row_of(c).expect("placed");
            (l, r) = o.clean_x_range(cell.type_id, row, p.x, l, r);
        }
        lo[i] = to_sites(l);
        hi[i] = to_sites(r);
    }

    // Adjacent occupants of every segment, each pair once.
    let mut pairs: Vec<(usize, usize, i64)> = Vec::new();
    let mut seen: HashSet<(CellId, CellId)> = HashSet::new();
    for seg in 0..state.segments().len() {
        for w2 in state.cells_in_segment(seg).windows(2) {
            let (a, b) = (w2[0], w2[1]);
            if !seen.insert((a, b)) {
                continue;
            }
            let (ta, tb) = (d.type_of(a), d.type_of(b));
            let s = d
                .tech
                .edge_spacing
                .spacing(ta.edge_class.1, tb.edge_class.0);
            let sep = ta.width / sw + (s + sw - 1).div_euclid(sw);
            let (ia, ib) = (index[a.0 as usize], index[b.0 as usize]);
            pairs.push((ia, ib, sep.min(cur[ib] - cur[ia])));
        }
    }

    let n0 = if config.n0_factor > 0 {
        config.n0_factor
            * cells
                .iter()
                .map(|&c| weights[c.0 as usize])
                .max()
                .unwrap_or(1)
    } else {
        0
    };
    let mut g = FlowGraph::with_nodes(1 + k + if n0 > 0 { 2 } else { 0 });
    let z = NodeId(0);
    let node = |i: usize| NodeId(1 + i);
    for (i, &c) in cells.iter().enumerate() {
        let n = weights[c.0 as usize];
        g.add_arc(z, node(i), n, -xp[i]);
        g.add_arc(node(i), z, n, xp[i]);
        g.add_arc(z, node(i), INF_CAP, -lo[i]);
        g.add_arc(node(i), z, INF_CAP, hi[i]);
    }
    for &(a, b, sep) in &pairs {
        g.add_arc(node(a), node(b), INF_CAP, -sep);
    }
    let max_dy = dy.iter().copied().max().unwrap_or(0);
    if n0 > 0 {
        let (p, n) = (NodeId(1 + k), NodeId(2 + k));
        for i in 0..k {
            g.add_arc(p, node(i), INF_CAP, -(xp[i] + dy[i]));
            g.add_arc(node(i), n, INF_CAP, xp[i] - dy[i]);
        }
        g.add_arc(z, p, n0, max_dy);
        g.add_arc(n, z, n0, max_dy);
    }
    let (sol, _) = mcl_flow::solve(&g).expect("the stage-3 flow is solvable");
    let xs: Vec<i64> = (0..k)
        .map(|i| sol.potential[1 + i] - sol.potential[0])
        .collect();
    let w: Vec<i64> = cells.iter().map(|&c| weights[c.0 as usize]).collect();
    let weighted = (0..k).map(|i| w[i] * (xs[i] - xp[i]).abs()).sum();
    Monolithic {
        xs: cells
            .iter()
            .zip(&xs)
            .map(|(&c, &x)| (c, d.core.xl + x * sw))
            .collect(),
        weighted,
        origin: d.core.xl,
        sw,
        w,
        xp,
        dy,
        n0,
        max_dy,
    }
}
