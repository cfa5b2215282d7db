//! Fixed row & fixed order optimization — stage 3 (§3.3).
//!
//! Keeping every cell's row assignment and left-to-right order, the x
//! coordinates solve the LP of Eq. 4 (weighted total displacement, neighbor
//! separation, segment/feasible-range bounds), extended with the
//! max-displacement terms of Eq. 8. The LP is solved through its dual
//! min-cost flow (Eq. 5–9), and the optimal positions are recovered from
//! the network simplex node potentials: `x_i = π_i − π_z`.
//!
//! ## Flow construction (derivation summary)
//!
//! Working in site units with reduced cost `rc(a) = cost − π(from) + π(to)`:
//!
//! | dual var | arc | cap | cost | certifies |
//! |---|---|---|---|---|
//! | `f_i⁺` | `z→i` | `n_i` | `−x'_i` | `f=0 ⇒ x_i ≥ x'_i`, `f=cap ⇒ x_i ≤ x'_i` |
//! | `f_i⁻` | `i→z` | `n_i` | `+x'_i` | mirror |
//! | `f_ij` | `i→j` | ∞ | `−w̃_ij` | `x_j − x_i ≥ w̃_ij` |
//! | `f_i^l` | `z→i` | ∞ | `−l_i` | `x_i ≥ l_i` |
//! | `f_i^r` | `i→z` | ∞ | `+r_i` | `x_i ≤ r_i` |
//! | `f_i^p` | `p→i` | ∞ | `−(x'_i + δ_yi)` | `δ⁻ ≤ x_i − x'_i − δ_yi` |
//! | `f_i^n` | `i→n` | ∞ | `+(x'_i − δ_yi)` | `δ⁺ ≥ x_i − x'_i + δ_yi` |
//! | `f^p` | `z→p` | `n₀` | `+max δ_y` | caps the max-disp weight |
//! | `f^n` | `n→z` | `n₀` | `+max δ_y` | mirror |
//!
//! With routability enabled, `[l_i, r_i]` is additionally intersected with
//! the maximal x range where the cell's pins stay clear of vertical P/G
//! stripes (§3.4), i.e. `C_L = C_R = C`.
//!
//! ## Independent components, exact by relax-and-verify
//!
//! The flow is not solved as one graph. Legalization moves are local, so
//! most neighbour pairs cannot bind: a pair whose current slack
//! `x_b − x_a − w̃_ab` exceeds the two cells' summed distance `|x_i − x'_i|`
//! from their targets is *dropped* from a relaxation, and the relaxation
//! falls apart into the connected components of the kept pairs (union-find
//! over the cells). Each component gets its own graph with its own `z`: the
//! Eq. 5–7 arcs of its cells plus every pair with both ends inside it.
//! Components are claimed largest first from one atomic cursor by the job's
//! threads (one thread runs inline) and each yields `x_i = π_i − π_z` for
//! its cells.
//!
//! The relaxation's feasible set contains the LP's, so an optimum of it
//! that meets every dropped constraint is optimal for the LP. After each
//! round every dropped pair is checked on the assembled x; the components
//! of each violated pair are merged and only merged components are solved
//! again, until none is violated. Every round lowers the component count,
//! so the worst case is the one full graph; there is no cap and no
//! fallback. Components are unions of whole earlier components, their
//! graphs list cells in ascending index and pairs in scan order, and the
//! merges of a round form the same partition in any order, so the result
//! does not depend on the thread count or on which thread solved what.
//!
//! The certificate for the full graph is the components' flows and
//! potentials (each shifted to `π_z = 0`) plus zero flow on every dropped
//! arc: a dropped pair arc `a→b` has `rc = x_b − x_a − w̃_ab ≥ 0`, so zero
//! flow on it meets complementary slackness. Debug and `audit` builds
//! build the full graph and run `mcl_audit::certify` on the assembly.
//!
//! ## The Eq. 8–9 extension
//!
//! `v_p` and `v_n` touch every cell, so they would join everything into
//! one component. They are priced instead. With `π_z = 0` and no flow on
//! the extension, the arcs `z→p` (`rc = max δ_y + π_p`) and `p→i`
//! (`rc = x_i − x'_i − δ_yi − π_p`) all price non-negative for some `π_p`
//! iff `min_i(x_i − x'_i − δ_yi) ≥ −max δ_y`; on the `v_n` side the arcs
//! `i→n` and `n→z` need `max_i(x_i − x'_i + δ_yi) ≤ max δ_y`. (`max δ_y`
//! stays global, as in the one-graph formulation.) The cells that break
//! either condition are merged, with their components, into one component
//! that carries `v_p`, `v_n` and its members' p/n arcs. Once it is solved,
//! every cell outside it is priced against its `π_p`/`π_n`: a cell with
//! `x_i − x'_i − δ_yi < π_p` or `x_i − x'_i + δ_yi > π_n` joins it, and the
//! loop repeats. At the fixed point the p/n arcs outside it carry zero flow
//! at non-negative reduced cost, which completes the certificate.
//!
//! The run's `fixed_order.components`, `fixed_order.largest_component`,
//! `fixed_order.repair_rounds` and `fixed_order.ext_cells` counters report
//! the final partition; `flow.simplex` records one span per component
//! solve, on the thread that solved it.

use crate::config::LegalizerConfig;
use crate::routability::RoutOracle;
use crate::state::PlacementState;
use mcl_db::prelude::*;
use mcl_flow::{FlowError, FlowGraph, NodeId, INF_CAP};
use mcl_obs::{clock::Stopwatch, CounterKind, Meter, SpanKind};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Statistics of one stage-3 run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FixedOrderStats {
    /// Cells in the flow (placed movable cells).
    pub cells: usize,
    /// Neighbor-separation arcs (`|E|`).
    pub neighbor_arcs: usize,
    /// Cells whose x changed.
    pub cells_moved: usize,
    /// Weighted x-displacement before, in site units.
    pub weighted_before: i64,
    /// Weighted x-displacement after, in site units.
    pub weighted_after: i64,
    /// Whether the solution was applied (false on solver failure or
    /// validation mismatch — the placement is then left untouched).
    pub applied: bool,
}

/// Runs the fixed row & order refinement in place, on one thread.
pub fn optimize_fixed_order(
    state: &mut PlacementState<'_>,
    config: &LegalizerConfig,
    weights: &[i64],
    oracle: Option<&RoutOracle<'_>>,
) -> FixedOrderStats {
    let mut obs = Meter::new();
    optimize_fixed_order_metered(state, config, weights, oracle, &mut obs, None, 1)
}

/// [`optimize_fixed_order`] that solves the components on `threads`
/// threads and records the flow solves (spans + pivot count) and the
/// partition counters into `obs`. The result does not depend on
/// `threads`.
///
/// With `delta` set (ECO delta mode) the flow is built over dirty-closure
/// members only; a closure cell's nearest clean segment neighbors become
/// fixed walls (its `[l_i, r_i]` is clipped at their edges under the same
/// soft-violation relaxation as the pair arcs), so clean cells are never
/// moved and never crossed.
pub fn optimize_fixed_order_metered(
    state: &mut PlacementState<'_>,
    config: &LegalizerConfig,
    weights: &[i64],
    oracle: Option<&RoutOracle<'_>>,
    obs: &mut Meter,
    delta: Option<&crate::dirty::DirtyClosure>,
    threads: usize,
) -> FixedOrderStats {
    let d = state.design();
    let sw = d.tech.site_width;
    let mut stats = FixedOrderStats::default();

    // Index placed movable cells. In delta mode that is the placed closure
    // members, in the closure's ascending id order (members are movable:
    // the state only ever places and mutates movable cells).
    let placed = |&c: &CellId| state.pos(c).is_some();
    let cells: Vec<CellId> = match delta {
        Some(dc) => dc.cells().iter().copied().filter(placed).collect(),
        None => d.movable_cells().filter(placed).collect(),
    };
    let k = cells.len();
    if k == 0 {
        stats.applied = true;
        return stats;
    }
    // A full run indexes every cell of the design; a delta's index is a
    // binary search in its ascending member list, so its set-up follows
    // the closure, not the design.
    let dense: Vec<usize> = match delta {
        Some(_) => Vec::new(),
        None => {
            let mut index = vec![usize::MAX; d.cells.len()];
            for (i, &c) in cells.iter().enumerate() {
                index[c.0 as usize] = i;
            }
            index
        }
    };
    let index_of = |c: CellId| -> Option<usize> {
        match delta {
            Some(_) => cells.binary_search(&c).ok(),
            None => Some(dense[c.0 as usize]).filter(|&i| i != usize::MAX),
        }
    };
    stats.cells = k;

    let to_sites = |x: Dbu| -> i64 { (x - d.core.xl) / sw };
    let snap = |x: Dbu| d.tech.snap_x_nearest(d.core.xl, x);

    // Per-cell data.
    let mut lp = Lp {
        w: cells.iter().map(|&c| weights[c.0 as usize]).collect(),
        xp: vec![0; k],
        lo: vec![0; k],
        hi: vec![0; k],
        dy: vec![0; k],
        cur: vec![0; k],
        pairs: Vec::new(),
        n0: 0,
        max_dy: 0,
    };
    for (i, &c) in cells.iter().enumerate() {
        let cell = &d.cells[c.0 as usize];
        let p = state.pos(c).unwrap();
        let w = d.type_of(c).width;
        lp.cur[i] = to_sites(p.x);
        lp.xp[i] = to_sites(snap(cell.gp.x));
        lp.dy[i] = ((p.y - cell.gp.y).abs() + sw / 2) / sw;
        // Segment bounds across all spanned rows.
        let mut l = d.core.xl;
        let mut r = d.core.xh;
        for seg_idx in state.segments_of(c) {
            let seg = &state.segments().segments()[seg_idx];
            l = l.max(seg.x.lo);
            r = r.min(seg.x.hi - w);
        }
        // Routability feasible range (C_L = C_R = C with pins constrained).
        if let Some(o) = oracle {
            let row = state.row_of(c).unwrap();
            let (cl, ch) = o.clean_x_range(cell.type_id, row, p.x, l, r);
            l = cl;
            r = ch;
        }
        lp.lo[i] = to_sites(l);
        lp.hi[i] = to_sites(r);
        debug_assert!(lp.lo[i] <= lp.cur[i] && lp.cur[i] <= lp.hi[i]);
    }

    // Neighbor pairs from segment occupant lists.
    let spacing_snapped = |a: u8, b: u8| -> i64 {
        let s = d.tech.edge_spacing.spacing(a, b);
        (s + sw - 1).div_euclid(sw)
    };
    for (a, b) in neighbor_pairs(state, delta) {
        let ta = d.type_of(a);
        let tb = d.type_of(b);
        let sep = ta.width / sw + spacing_snapped(ta.edge_class.1, tb.edge_class.0);
        // On dense designs stage 1 may leave *soft* edge-spacing
        // violations; requiring the full rule here would make the
        // constraint system infeasible (the dual flow then pushes INF_CAP
        // around a negative cycle and its potentials are meaningless).
        // Never ask for more separation than the incumbent has: the LP
        // stays feasible and an existing soft gap can only grow, never
        // shrink.
        match (index_of(a), index_of(b)) {
            (Some(ia), Some(ib)) => {
                let sep = sep.min(lp.cur[ib] - lp.cur[ia]);
                lp.pairs.push((ia as u32, ib as u32, sep));
            }
            // Delta mode: a clean neighbor is a fixed wall. Clip the
            // closure cell's bound at the wall minus the (relaxed)
            // separation; the incumbent stays feasible because the
            // relaxation never asks for more than the current gap.
            (Some(ia), None) => {
                let bx = to_sites(state.soa().x(b));
                let s = sep.min(bx - lp.cur[ia]);
                lp.hi[ia] = lp.hi[ia].min(bx - s);
            }
            (None, Some(ib)) => {
                let ax = to_sites(state.soa().x(a));
                let s = sep.min(lp.cur[ib] - ax);
                lp.lo[ib] = lp.lo[ib].max(ax + s);
            }
            // Both clean: never emitted in delta mode, impossible in a
            // full run (every occupant is indexed).
            (None, None) => {}
        }
    }
    stats.neighbor_arcs = lp.pairs.len();

    // Weighted displacement before.
    let weighted = |xs: &[i64]| -> i64 { (0..k).map(|i| lp.w[i] * (xs[i] - lp.xp[i]).abs()).sum() };
    stats.weighted_before = weighted(&lp.cur);

    if config.n0_factor > 0 {
        lp.n0 = config.n0_factor * lp.w.iter().copied().max().unwrap_or(1);
        lp.max_dy = lp.dy.iter().copied().max().unwrap_or(0);
    }
    let extension = lp.n0 > 0;

    let Ok(xs) = lp.solve(threads.max(1), obs) else {
        return stats;
    };

    // Validate the recovered primal solution.
    for (i, &x) in xs.iter().enumerate() {
        if x < lp.lo[i] || x > lp.hi[i] {
            debug_assert!(
                false,
                "bound violated for cell {i}: {x} not in [{}, {}]",
                lp.lo[i], lp.hi[i]
            );
            return stats;
        }
    }
    for &(ia, ib, sep) in &lp.pairs {
        if xs[ib as usize] - xs[ia as usize] < sep {
            debug_assert!(false, "separation violated");
            return stats;
        }
    }
    stats.weighted_after = weighted(&xs);
    if !extension && stats.weighted_after > stats.weighted_before {
        // Without the max-disp terms the optimum can't be worse than the
        // incumbent; guard against solver surprises. With the extension the
        // total displacement may legitimately grow in exchange for a
        // smaller maximum.
        debug_assert!(false, "stage 3 must not worsen the objective");
        return stats;
    }

    // Apply: left-movers in ascending current x, then right-movers in
    // descending current x (no transient overlap).
    let cur = &lp.cur;
    let mut order: Vec<usize> = (0..k).filter(|&i| xs[i] != cur[i]).collect();
    order.sort_by_key(|&i| {
        if xs[i] < cur[i] {
            (0, cur[i], 0i64)
        } else {
            (1, 0, -cur[i])
        }
    });
    for i in order {
        let c = cells[i];
        let new_x = d.core.xl + xs[i] * sw;
        state.shift_x(c, new_x);
        stats.cells_moved += 1;
    }
    stats.applied = true;
    stats
}

/// Stage 3's LP over the indexed cells, in site units.
struct Lp {
    /// Weight `n_i`.
    w: Vec<i64>,
    /// Target `x'_i`.
    xp: Vec<i64>,
    /// Feasible range `[l_i, r_i]`: `lo` holds `l_i`, `hi` holds `r_i`.
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// y displacement `δ_yi`.
    dy: Vec<i64>,
    /// Incumbent x.
    cur: Vec<i64>,
    /// Neighbour pairs `(a, b, w̃_ab)`: `x_b − x_a ≥ w̃_ab`, in scan order.
    pairs: Vec<(u32, u32, i64)>,
    /// Extension capacity `n₀` (0: no extension) and `max δ_y`.
    n0: i64,
    max_dy: i64,
}

/// The optimum of one component: its cells' x in member order, its
/// extension potentials `(π_p − π_z, π_n − π_z)` when it carries the
/// extension, and (read by the certificate) its arc flows in
/// [`Lp::graph`] order and its cost.
struct Solved {
    xs: Vec<i64>,
    ext_pot: Option<(i64, i64)>,
    #[cfg_attr(not(any(debug_assertions, feature = "audit")), allow(dead_code))]
    flow: Vec<i64>,
    #[cfg_attr(not(any(debug_assertions, feature = "audit")), allow(dead_code))]
    cost: i128,
}

/// The components of one round: cells and internal pairs of each, in
/// compressed rows. Components are numbered in the order of their lowest
/// cell; cells ascend and pairs keep scan order within each.
struct Partition {
    /// Component of each cell.
    comp: Vec<u32>,
    /// Index of each cell within its component's member list.
    local: Vec<u32>,
    cells: Vec<u32>,
    cell_start: Vec<usize>,
    pairs: Vec<u32>,
    pair_start: Vec<usize>,
    /// The component carrying `v_p` / `v_n`, if any.
    ext: Option<usize>,
}

impl Partition {
    fn len(&self) -> usize {
        self.cell_start.len() - 1
    }

    fn cells(&self, c: usize) -> &[u32] {
        &self.cells[self.cell_start[c]..self.cell_start[c + 1]]
    }

    fn pairs(&self, c: usize) -> &[u32] {
        &self.pairs[self.pair_start[c]..self.pair_start[c + 1]]
    }

    /// The classes of `uf` over `k` cells; `anchor` is the union-find
    /// element standing for the extension nodes.
    fn of(uf: &mut UnionFind, k: usize, pairs: &[(u32, u32, i64)], anchor: Option<usize>) -> Self {
        let mut id_of_root = vec![u32::MAX; uf.parent.len()];
        let mut n = 0;
        let comp: Vec<u32> = (0..k)
            .map(|i| {
                let r = uf.find(i);
                if id_of_root[r] == u32::MAX {
                    id_of_root[r] = n;
                    n += 1;
                }
                id_of_root[r]
            })
            .collect();
        let n = n as usize;
        let by_comp = comp.iter().enumerate().map(|(i, &c)| (c, i as u32));
        let (cells, cell_start) = compress(n, by_comp);
        let mut local = vec![0u32; k];
        for c in 0..n {
            for (j, &i) in cells[cell_start[c]..cell_start[c + 1]].iter().enumerate() {
                local[i as usize] = j as u32;
            }
        }
        let internal = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(a, b, _))| comp[a as usize] == comp[b as usize])
            .map(|(q, &(a, _, _))| (comp[a as usize], q as u32));
        let (pairs, pair_start) = compress(n, internal);
        let ext = anchor.and_then(|a| {
            let r = uf.find(a);
            (id_of_root[r] != u32::MAX).then(|| id_of_root[r] as usize)
        });
        Self {
            comp,
            local,
            cells,
            cell_start,
            pairs,
            pair_start,
            ext,
        }
    }
}

/// Groups `(group, value)` items (`group < n`) into compressed rows:
/// the values in item order, and each group's start (plus the end).
fn compress(n: usize, items: impl Iterator<Item = (u32, u32)> + Clone) -> (Vec<u32>, Vec<usize>) {
    let mut start = vec![0usize; n + 1];
    for (g, _) in items.clone() {
        start[g as usize + 1] += 1;
    }
    for g in 0..n {
        start[g + 1] += start[g];
    }
    let mut fill = start[..n].to_vec();
    let mut values = vec![0u32; start[n]];
    for (g, v) in items {
        values[fill[g as usize]] = v;
        fill[g as usize] += 1;
    }
    (values, start)
}

impl Lp {
    fn len(&self) -> usize {
        self.cur.len()
    }

    /// The dual flow graph of the LP restricted to `cells` (ascending),
    /// the `pairs` among them and, with `ext`, the extension nodes:
    /// node 0 is `z`, node `1 + local[i]` is cell `i`, then `p`, `n`.
    /// Arcs: each cell's four Eq. 5–7 arcs in member order, the pairs,
    /// then (with `ext`) each cell's `p→i`, `i→n` and finally `z→p`,
    /// `n→z`.
    fn graph(&self, cells: &[u32], pairs: &[u32], ext: bool, local: &[u32]) -> FlowGraph {
        let m = cells.len();
        let mut g = FlowGraph::with_nodes(1 + m + if ext { 2 } else { 0 });
        let z = NodeId(0);
        let node = |i: u32| NodeId(1 + local[i as usize] as usize);
        for &i in cells {
            let i = i as usize;
            let v = node(i as u32);
            g.add_arc(z, v, self.w[i], -self.xp[i]);
            g.add_arc(v, z, self.w[i], self.xp[i]);
            g.add_arc(z, v, INF_CAP, -self.lo[i]);
            g.add_arc(v, z, INF_CAP, self.hi[i]);
        }
        for &q in pairs {
            let (a, b, sep) = self.pairs[q as usize];
            g.add_arc(node(a), node(b), INF_CAP, -sep);
        }
        if ext {
            let (p, n) = (NodeId(1 + m), NodeId(2 + m));
            for &i in cells {
                let (v, i) = (node(i), i as usize);
                g.add_arc(p, v, INF_CAP, -(self.xp[i] + self.dy[i]));
                g.add_arc(v, n, INF_CAP, self.xp[i] - self.dy[i]);
            }
            g.add_arc(z, p, self.n0, self.max_dy);
            g.add_arc(n, z, self.n0, self.max_dy);
        }
        g
    }

    /// Solves one component by network simplex.
    fn solve_component(&self, part: &Partition, c: usize) -> Result<(Solved, u64), FlowError> {
        let cells = part.cells(c);
        let ext = part.ext == Some(c);
        let g = self.graph(cells, part.pairs(c), ext, &part.local);
        let (sol, pivots) = mcl_flow::solve(&g)?;
        let pz = sol.potential[0];
        let m = cells.len();
        let solved = Solved {
            xs: (0..m).map(|j| sol.potential[1 + j] - pz).collect(),
            ext_pot: ext.then(|| (sol.potential[1 + m] - pz, sol.potential[2 + m] - pz)),
            flow: sol.flow,
            cost: sol.cost,
        };
        Ok((solved, pivots))
    }

    /// Solves components `todo` (largest first) on `threads` threads (no
    /// more than there are components): each claims the next component
    /// from one atomic cursor, and the runner is thread 0. Returns the
    /// solutions in `todo` order.
    fn solve_components(
        &self,
        part: &Partition,
        todo: &[usize],
        threads: usize,
        obs: &mut Meter,
    ) -> Result<Vec<Solved>, FlowError> {
        let cursor = AtomicUsize::new(0);
        let work = |t: usize| {
            let mut meter = Meter::new();
            let mut done = Vec::new();
            loop {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&c) = todo.get(at) else { break };
                let clock = Stopwatch::start();
                let solved = self.solve_component(part, c);
                meter.record_span(SpanKind::FlowSimplex, clock.elapsed_nanos(), t);
                if let Ok((_, pivots)) = &solved {
                    meter.add(CounterKind::SimplexPivots, *pivots);
                }
                done.push((at, solved.map(|(s, _)| s)));
            }
            (done, meter)
        };
        let work = &work;
        let helpers = threads.min(todo.len()).saturating_sub(1);
        let mut parts = Vec::with_capacity(helpers + 1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=helpers)
                .map(|t| scope.spawn(move || work(t)))
                .collect();
            parts.push(work(0));
            for h in handles {
                parts.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
        });
        let mut slots: Vec<Option<Result<Solved, FlowError>>> = todo.iter().map(|_| None).collect();
        for (done, meter) in parts {
            obs.merge(&meter);
            for (at, solved) in done {
                slots[at] = Some(solved);
            }
        }
        slots
            .into_iter()
            .map(|s| s.unwrap_or(Err(FlowError::Infeasible)))
            .collect()
    }

    /// Solves the LP by components, repairing the relaxation until the
    /// assembled solution is optimal for the full graph (module doc).
    /// Returns every cell's x.
    fn solve(&self, threads: usize, obs: &mut Meter) -> Result<Vec<i64>, FlowError> {
        let k = self.len();
        let anchor = (self.n0 > 0).then_some(k);
        let mut uf = UnionFind::new(k + 1);
        for &(a, b, sep) in &self.pairs {
            let (a, b) = (a as usize, b as usize);
            let slack = self.cur[b] - self.cur[a] - sep;
            if slack <= (self.cur[a] - self.xp[a]).abs() + (self.cur[b] - self.xp[b]).abs() {
                uf.union(a, b);
            }
        }

        let mut xs = vec![0i64; k];
        // `(π_p, π_n)` of the component carrying the extension; without
        // one, the widest prices that keep `z→p` and `n→z` empty.
        let mut ext_pot = (-self.max_dy, self.max_dy);
        // The (size, carries extension) of the component each cell was
        // last solved in; a component equal to one already solved is not
        // solved again.
        let mut solved_as = vec![(0usize, false); k];
        #[cfg(any(debug_assertions, feature = "audit"))]
        let mut assembly = Assembly::new(self);
        let mut rounds = 0u64;
        let part = loop {
            let part = Partition::of(&mut uf, k, &self.pairs, anchor);
            let mut todo: Vec<usize> = (0..part.len())
                .filter(|&c| {
                    let key = (part.cells(c).len(), part.ext == Some(c));
                    solved_as[part.cells(c)[0] as usize] != key
                })
                .collect();
            todo.sort_by_key(|&c| std::cmp::Reverse(part.cells(c).len()));
            let solved = self.solve_components(&part, &todo, threads, obs)?;
            for (c, s) in todo.into_iter().zip(solved) {
                let key = (part.cells(c).len(), part.ext == Some(c));
                for (&i, &x) in part.cells(c).iter().zip(&s.xs) {
                    xs[i as usize] = x;
                    solved_as[i as usize] = key;
                }
                if let Some(pot) = s.ext_pot {
                    ext_pot = pot;
                }
                #[cfg(any(debug_assertions, feature = "audit"))]
                assembly.record(self, &part, c, &s);
            }

            // Verify the dropped pairs, then price the extension arcs of
            // the cells outside the component carrying it.
            let mut merged = false;
            for &(a, b, sep) in &self.pairs {
                let (a, b) = (a as usize, b as usize);
                if part.comp[a] != part.comp[b] && xs[b] - xs[a] < sep {
                    uf.union(a, b);
                    merged = true;
                }
            }
            if let Some(anchor) = anchor {
                let (pp, pn) = ext_pot;
                for (i, &x) in xs.iter().enumerate() {
                    let outside = part.ext != Some(part.comp[i] as usize);
                    let dx = x - self.xp[i];
                    if outside && (dx - self.dy[i] < pp || dx + self.dy[i] > pn) {
                        uf.union(i, anchor);
                        merged = true;
                    }
                }
            }
            if !merged {
                break part;
            }
            rounds += 1;
        };

        let size = |c: usize| part.cells(c).len() as u64;
        obs.add(CounterKind::FixedOrderComponents, part.len() as u64);
        let largest = (0..part.len()).map(size).max().unwrap_or(0);
        obs.add(CounterKind::FixedOrderLargestComponent, largest);
        obs.add(CounterKind::FixedOrderRepairRounds, rounds);
        obs.add(CounterKind::FixedOrderExtCells, part.ext.map_or(0, size));
        #[cfg(any(debug_assertions, feature = "audit"))]
        assembly.certify(self, &part, &xs, ext_pot);
        Ok(xs)
    }
}

/// The full graph's flow ([`Lp::graph`] order over all cells and pairs)
/// assembled from the component solves, and each solved component's cost
/// keyed by its lowest cell: the certificate debug and `audit` builds
/// check before the potentials become positions.
#[cfg(any(debug_assertions, feature = "audit"))]
struct Assembly {
    flow: Vec<i64>,
    cost: Vec<i128>,
}

#[cfg(any(debug_assertions, feature = "audit"))]
impl Assembly {
    fn new(lp: &Lp) -> Self {
        let k = lp.len();
        let ext_arcs = if lp.n0 > 0 { 2 * k + 2 } else { 0 };
        Self {
            flow: vec![0; 4 * k + lp.pairs.len() + ext_arcs],
            cost: vec![0; k],
        }
    }

    /// Copies component `c`'s flows to their full-graph arcs. A dropped
    /// pair keeps zero flow, as do the extension arcs of cells outside the
    /// component carrying it: components only grow, so an arc once inside
    /// one stays inside.
    fn record(&mut self, lp: &Lp, part: &Partition, c: usize, s: &Solved) {
        let (k, cells, pairs) = (lp.len(), part.cells(c), part.pairs(c));
        let m = cells.len();
        for (j, &i) in cells.iter().enumerate() {
            let i = i as usize;
            self.flow[4 * i..4 * i + 4].copy_from_slice(&s.flow[4 * j..4 * j + 4]);
        }
        for (t, &q) in pairs.iter().enumerate() {
            self.flow[4 * k + q as usize] = s.flow[4 * m + t];
        }
        if s.ext_pot.is_some() {
            let (at, base) = (4 * m + pairs.len(), 4 * k + lp.pairs.len());
            for (j, &i) in cells.iter().enumerate() {
                let i = i as usize;
                self.flow[base + 2 * i..base + 2 * i + 2]
                    .copy_from_slice(&s.flow[at + 2 * j..at + 2 * j + 2]);
            }
            self.flow[base + 2 * k..].copy_from_slice(&s.flow[at + 2 * m..]);
        }
        self.cost[cells[0] as usize] = s.cost;
    }

    /// Runs the independent auditor on the full graph: feasibility and
    /// complementary slackness of the assembled flow under the potentials
    /// `π_z = 0`, `π_i = x_i`, `(π_p, π_n) = ext_pot`.
    fn certify(self, lp: &Lp, part: &Partition, xs: &[i64], ext_pot: (i64, i64)) {
        let all: Vec<u32> = (0..lp.len() as u32).collect();
        let pairs: Vec<u32> = (0..lp.pairs.len() as u32).collect();
        let extension = lp.n0 > 0;
        let g = lp.graph(&all, &pairs, extension, &all);
        let mut potential = vec![0i64];
        potential.extend_from_slice(xs);
        if extension {
            potential.extend([ext_pot.0, ext_pot.1]);
        }
        let cost = (0..part.len())
            .map(|c| self.cost[part.cells(c)[0] as usize])
            .sum();
        let sol = mcl_flow::FlowSolution {
            flow: self.flow,
            potential,
            cost,
        };
        assert_eq!(
            mcl_audit::certify(&g, &sol).map(|cert| cert.cost),
            Ok(sol.cost),
            "stage-3 dual flow failed its optimality certificate"
        );
    }
}

/// Union-find by size with path halving; the classes do not depend on the
/// order of the unions.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        if self.size[a] < self.size[b] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b] = a;
        self.size[a] += self.size[b];
    }
}

/// Adjacent occupant pairs `(left, right)` of the segments, in ascending
/// segment order, each pair once (a pair of multi-row cells can abut in
/// several rows; its first segment counts).
///
/// With `delta` set only the pairs with a closure member are kept: each
/// member's slot in its segments gives its two pairs, which are then
/// visited in segment and list order. That is exactly the full scan
/// filtered to pairs with a member, in the same order, at a cost that
/// follows the closure instead of the design.
fn neighbor_pairs(
    state: &PlacementState<'_>,
    delta: Option<&crate::dirty::DirtyClosure>,
) -> Vec<(CellId, CellId)> {
    let mut pairs = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    // The pair of the occupants at `i` and `i + 1` of segment `seg`.
    let mut visit = |seg: usize, i: usize| {
        let list = state.cells_in_segment(seg);
        let (a, b) = (list[i], list[i + 1]);
        // Only two multi-row cells can abut in more than one segment.
        let soa = state.soa();
        let once = soa.height_rows(a) == 1 || soa.height_rows(b) == 1;
        if once || seen.insert((a.0, b.0)) {
            pairs.push((a, b));
        }
    };
    match delta {
        Some(dc) => {
            let mut at: Vec<(usize, usize)> = Vec::new();
            for &c in dc.cells().iter().filter(|&&c| state.pos(c).is_some()) {
                for (seg, i) in state.segment_memberships(c) {
                    if i > 0 {
                        at.push((seg, i - 1));
                    }
                    if i + 1 < state.cells_in_segment(seg).len() {
                        at.push((seg, i));
                    }
                }
            }
            at.sort_unstable();
            at.dedup();
            for (seg, i) in at {
                visit(seg, i);
            }
        }
        None => {
            for seg in 0..state.segments().len() {
                for i in 1..state.cells_in_segment(seg).len() {
                    visit(seg, i - 1);
                }
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_db::score::Metrics;

    fn row_design(cells_at: &[(Dbu, Dbu)]) -> Design {
        // (gp_x, placed_x) single-row cells of width 20 on row 0.
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 2000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        for (i, &(gx, px)) in cells_at.iter().enumerate() {
            let mut c = Cell::new(format!("c{i}"), CellTypeId(0), Point::new(gx, 0));
            c.pos = Some(Point::new(px, 0));
            d.add_cell(c);
        }
        d
    }

    fn run(d: &Design, n0: i64) -> (Design, FixedOrderStats) {
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.n0_factor = n0;
        let weights = vec![1i64; d.cells.len()];
        let mut state = PlacementState::from_design_positions(d).unwrap();
        let stats = optimize_fixed_order(&mut state, &cfg, &weights, None);
        let mut out = d.clone();
        state.write_back(&mut out);
        (out, stats)
    }

    #[test]
    fn cells_return_to_gp_when_space_allows() {
        let d = row_design(&[(100, 300), (400, 340), (800, 380)]);
        let (out, stats) = run(&d, 0);
        assert!(stats.applied);
        assert_eq!(out.cells[0].pos.unwrap().x, 100);
        assert_eq!(out.cells[1].pos.unwrap().x, 400);
        assert_eq!(out.cells[2].pos.unwrap().x, 800);
        assert_eq!(stats.weighted_after, 0);
    }

    #[test]
    fn dual_flow_solve_is_metered() {
        let d = row_design(&[(100, 300), (400, 340), (800, 380)]);
        let cfg = LegalizerConfig::total_displacement();
        let mut state = PlacementState::from_design_positions(&d).unwrap();
        let mut obs = Meter::new();
        let stats =
            optimize_fixed_order_metered(&mut state, &cfg, &[1; 3], None, &mut obs, None, 1);
        assert!(stats.applied);
        let span = obs.span(SpanKind::FlowSimplex);
        assert_eq!((span.count, span.thread_ids()), (1, vec![0]));
        assert!(obs.counter(CounterKind::SimplexPivots) > 0);
        // Stage 2's matching counter stays untouched.
        assert_eq!(obs.counter(CounterKind::MatchingSimplexPivots), 0);
    }

    #[test]
    fn tolerates_soft_edge_spacing_violations_in_input() {
        // Two cells of a spacing-constrained class placed abutted (a *soft*
        // violation stage 1 may legitimately leave on dense designs). The
        // full-rule separation would make the LP infeasible; the builder
        // must relax to the incumbent gap, keep the dual meaningful, and
        // still apply an improvement without shrinking the bad gap.
        let mut d = row_design(&[(100, 300), (400, 320), (800, 380)]);
        let mut table = EdgeSpacingTable::new(2);
        table.set(1, 1, 40);
        d.tech.edge_spacing = table;
        d.cell_types[0].edge_class = (1, 1);
        let (out, stats) = run(&d, 0);
        assert!(stats.applied, "LP must stay feasible: {stats:?}");
        let xs: Vec<Dbu> = out.cells.iter().map(|c| c.pos.unwrap().x).collect();
        // The violated pair keeps at least its incumbent gap (cells are 20
        // wide, so the abutted pair keeps >= 20); satisfied pairs keep the
        // full rule (20 width + 40 spacing).
        assert!(xs[1] - xs[0] >= 20, "{xs:?}");
        assert!(xs[2] - xs[1] >= 60, "{xs:?}");
        assert!(stats.weighted_after <= stats.weighted_before);
    }

    #[test]
    fn separation_respected_when_gps_collide() {
        // Both cells want x=100; order fixed, so optimum is x=100, x=120
        // (or 80/100 — same cost 2 sites).
        let d = row_design(&[(100, 200), (100, 260)]);
        let (out, stats) = run(&d, 0);
        assert!(stats.applied);
        let x0 = out.cells[0].pos.unwrap().x;
        let x1 = out.cells[1].pos.unwrap().x;
        assert!(x1 - x0 >= 20);
        let total = (x0 - 100).abs() + (x1 - 100).abs();
        assert_eq!(total, 20);
        assert!(Checker::new(&out).check().is_legal());
    }

    #[test]
    fn optimum_is_never_worse_and_matches_dp_on_random_rows() {
        // Exhaustive DP reference on a single row with site granularity.
        let mut seed = 0xDEADBEEFu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..20 {
            let n = 2 + (rng() % 5) as usize;
            // Legal placement: pack cells with random gaps.
            let mut placed = Vec::new();
            let mut x = (rng() % 5) as Dbu * 10;
            for _ in 0..n {
                placed.push(x);
                x += 20 + (rng() % 6) as Dbu * 10;
            }
            let cells: Vec<(Dbu, Dbu)> = placed
                .iter()
                .map(|&px| (((rng() % 40) as Dbu) * 10, px))
                .collect();
            let d = row_design(&cells);
            let (_, stats) = run(&d, 0);
            assert!(stats.applied, "case {case}");
            // DP over site positions 0..=W for ordered cells.
            let sites = 200usize; // core width 2000 / 10
            let wsites = 2usize;
            let inf = i64::MAX / 4;
            let gxs: Vec<i64> = cells.iter().map(|&(g, _)| g / 10).collect();
            let mut dp = vec![inf; sites + 1];
            for (i, &gx) in gxs.iter().enumerate() {
                let mut ndp = vec![inf; sites + 1];
                let lo_i = i * wsites;
                let mut best_prev = inf;
                for s in lo_i..=sites - (gxs.len() - i) * wsites {
                    if i == 0 {
                        best_prev = 0;
                    } else if s >= wsites && dp[s - wsites] < best_prev {
                        best_prev = dp[s - wsites];
                    }
                    if best_prev < inf {
                        ndp[s] = best_prev + (s as i64 - gx).abs();
                    }
                }
                // Make dp[s] = min over positions ≤ s handled via best_prev;
                // store raw.
                dp = ndp;
            }
            let opt = dp.iter().copied().min().unwrap();
            assert_eq!(stats.weighted_after, opt, "case {case}: cells {cells:?}");
        }
    }

    #[test]
    fn multi_row_cells_couple_rows() {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 2000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("d", 40, 2));
        // Double-height cell between two singles on different rows.
        let mut a = Cell::new("a", CellTypeId(0), Point::new(0, 0));
        a.pos = Some(Point::new(100, 0));
        d.add_cell(a);
        let mut m = Cell::new("m", CellTypeId(1), Point::new(200, 0));
        m.pos = Some(Point::new(120, 0));
        d.add_cell(m);
        let mut b = Cell::new("b", CellTypeId(0), Point::new(0, 90));
        b.pos = Some(Point::new(160, 90));
        d.add_cell(b);
        let (out, stats) = run(&d, 0);
        assert!(stats.applied);
        assert!(Checker::new(&out).check().is_legal());
        // a wants 0, m wants 200, b wants 0 but must stay right of m (row 1
        // order: m then b). Check order retained.
        let xa = out.cells[0].pos.unwrap().x;
        let xm = out.cells[1].pos.unwrap().x;
        let xb = out.cells[2].pos.unwrap().x;
        assert!(xa + 20 <= xm);
        assert!(xm + 40 <= xb);
        assert!(stats.weighted_after <= stats.weighted_before);
    }

    #[test]
    fn n0_extension_trades_total_for_max() {
        // c0 is displaced 72 sites left of its GP behind a chain of cells
        // sitting at their GPs; shrinking c0's displacement pushes the chain
        // right of *their* GPs. The weighted-sum surrogate n0(δ⁻ − δ⁺) is
        // indifferent to that 1:1 trade on its own (δ⁺ grows as |δ⁻|
        // shrinks), so a fifth cell with a fixed 45-site *y* displacement
        // pins δ⁺ ≥ 45 and δ⁻ ≤ −45, making the trade profitable until the
        // x outlier drops to 45 sites.
        let mut d = row_design(&[(900, 100), (200, 200), (300, 300), (400, 400)]);
        let mut c4 = Cell::new("c4", CellTypeId(0), Point::new(1500, 450));
        c4.pos = Some(Point::new(1500, 0)); // at GP x, 5 rows below GP y
        d.add_cell(c4);
        let (out0, s0) = run(&d, 0);
        // Plain optimum is a plateau of value 72 sites of x displacement
        // (c4's y displacement is constant to stage 3); without the
        // extension c0 keeps a 64-72 site displacement.
        assert_eq!(s0.weighted_after, 72);
        let disp0 = out0.cells[0].displacement();
        assert!(disp0 >= 640, "plain optimum leaves the outlier at {disp0}");
        // With a strong n0 the chain shifts right until the x outlier
        // matches the pinned 45-site bound.
        let (out1, s1) = run(&d, 50);
        let max0 = Metrics::measure(&out0).max_disp_rows;
        let max1 = Metrics::measure(&out1).max_disp_rows;
        assert!(
            max1 < max0,
            "extension should cut max disp: {max0} -> {max1}"
        );
        assert_eq!(out1.cells[0].displacement(), 450);
        assert!(s1.weighted_after >= s0.weighted_after, "total may grow");
        assert!(Checker::new(&out1).check().is_legal());
    }

    #[test]
    fn weights_bias_who_moves() {
        // Two cells with colliding GPs; the heavy one wins the spot.
        let mut d = row_design(&[(100, 200), (100, 260)]);
        let _ = &mut d;
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.n0_factor = 0;
        let mut weights = vec![1i64; d.cells.len()];
        weights[1] = 10;
        let mut state = PlacementState::from_design_positions(&d).unwrap();
        let stats = optimize_fixed_order(&mut state, &cfg, &weights, None);
        assert!(stats.applied);
        let mut out = d.clone();
        state.write_back(&mut out);
        // Heavy cell 1 sits at its GP (100); cell 0 pushed left to 80.
        assert_eq!(out.cells[1].pos.unwrap().x, 100);
        assert_eq!(out.cells[0].pos.unwrap().x, 80);
    }

    #[test]
    fn bounds_from_fences_respected() {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 2000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        let f = d.add_fence(FenceRegion::new("g", vec![Rect::new(500, 0, 700, 90)]));
        let mut c = Cell::new("c", CellTypeId(0), Point::new(100, 0));
        c.fence = f;
        c.pos = Some(Point::new(600, 0));
        d.add_cell(c);
        let (out, stats) = run(&d, 0);
        assert!(stats.applied);
        // GP pull is to 100 but the fence holds it at its left edge 500.
        assert_eq!(out.cells[0].pos.unwrap().x, 500);
        assert!(Checker::new(&out).check().is_legal());
    }

    #[test]
    fn delta_pairs_are_the_full_scan_filtered_to_members() {
        let mut gen = mcl_gen::GeneratorConfig::small(41);
        gen.num_cells = 1_500;
        gen.density = 0.55;
        gen.fences = 2;
        gen.fence_cell_fraction = 0.15;
        let design = mcl_gen::generate(&gen).expect("generation succeeds").design;
        let placed = crate::Engine::new(LegalizerConfig::contest())
            .run_one(&design, crate::RunSpec::Fresh)
            .expect("legalized")
            .design;
        let mut state = PlacementState::from_design_positions(&placed).unwrap();
        // Vacate every 97th movable cell: the closure then spans many
        // segments, multi-row cells and both fences.
        let vacated: Vec<CellId> = placed.movable_cells().step_by(97).collect();
        for &c in &vacated {
            state.remove(c);
        }
        let dc = crate::dirty::compute(&state, &LegalizerConfig::contest());
        let delta = neighbor_pairs(&state, Some(&dc));
        let full: Vec<(CellId, CellId)> = neighbor_pairs(&state, None)
            .into_iter()
            .filter(|&(a, b)| dc.contains(a) || dc.contains(b))
            .collect();
        assert!(full.len() > vacated.len(), "{} pairs", full.len());
        assert_eq!(delta, full);
    }
}
