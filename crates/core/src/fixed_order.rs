//! Fixed row & fixed order optimization — stage 3 (§3.3).
//!
//! Keeping every cell's row assignment and left-to-right order, the x
//! coordinates solve the LP of Eq. 4 (weighted total displacement, neighbor
//! separation, segment/feasible-range bounds), extended with the
//! max-displacement terms of Eq. 8. The LP is solved through its dual
//! min-cost flow (Eq. 5–9) with `m + 1` vertices (plus `v_p`, `v_n` for the
//! extension), and the optimal positions are recovered from the network
//! simplex node potentials: `x_i = π_i − π_z`.
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

use crate::config::LegalizerConfig;
use crate::routability::RoutOracle;
use crate::state::PlacementState;
use mcl_db::prelude::*;
use mcl_flow::{FlowGraph, NodeId, INF_CAP};
use mcl_obs::{clock::Stopwatch, CounterKind, Meter, SpanKind};
use std::collections::HashSet;

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

/// Runs the fixed row & order refinement in place.
pub fn optimize_fixed_order(
    state: &mut PlacementState<'_>,
    config: &LegalizerConfig,
    weights: &[i64],
    oracle: Option<&RoutOracle<'_>>,
) -> FixedOrderStats {
    let mut obs = Meter::new();
    optimize_fixed_order_metered(state, config, weights, oracle, &mut obs, None)
}

/// [`optimize_fixed_order`] that records the dual flow solve (span + pivot
/// count) into `obs`.
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
    let mut index = vec![usize::MAX; d.cells.len()];
    for (i, &c) in cells.iter().enumerate() {
        index[c.0 as usize] = i;
    }
    stats.cells = k;

    let to_sites = |x: Dbu| -> i64 { (x - d.core.xl) / sw };
    let snap = |x: Dbu| d.tech.snap_x_nearest(d.core.xl, x);

    // Per-cell data.
    let mut xp = vec![0i64; k]; // x'_i in sites
    let mut lo = vec![0i64; k];
    let mut hi = vec![0i64; k];
    let mut dy = vec![0i64; k]; // δ_yi in sites
    let mut cur = vec![0i64; k];
    for (i, &c) in cells.iter().enumerate() {
        let cell = &d.cells[c.0 as usize];
        let p = state.pos(c).unwrap();
        let w = d.type_of(c).width;
        cur[i] = to_sites(p.x);
        xp[i] = to_sites(snap(cell.gp.x));
        dy[i] = ((p.y - cell.gp.y).abs() + sw / 2) / sw;
        // Segment bounds across all spanned rows.
        let mut l = d.core.xl;
        let mut r = d.core.xh;
        for (seg_idx, _) in state.segment_memberships(c) {
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
        lo[i] = to_sites(l);
        hi[i] = to_sites(r);
        debug_assert!(lo[i] <= cur[i] && cur[i] <= hi[i]);
    }

    // Neighbor pairs from segment occupant lists.
    let mut pairs: Vec<(usize, usize, i64)> = Vec::new();
    let spacing_snapped = |a: u8, b: u8| -> i64 {
        let s = d.tech.edge_spacing.spacing(a, b);
        (s + sw - 1).div_euclid(sw)
    };
    for (a, b) in neighbor_pairs(state, delta) {
        let ia = index[a.0 as usize];
        let ib = index[b.0 as usize];
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
        match (ia != usize::MAX, ib != usize::MAX) {
            (true, true) => pairs.push((ia, ib, sep.min(cur[ib] - cur[ia]))),
            // Delta mode: a clean neighbor is a fixed wall. Clip the
            // closure cell's bound at the wall minus the (relaxed)
            // separation; the incumbent stays feasible because the
            // relaxation never asks for more than the current gap.
            (true, false) => {
                let bx = to_sites(state.soa().x(b));
                let s = sep.min(bx - cur[ia]);
                hi[ia] = hi[ia].min(bx - s);
            }
            (false, true) => {
                let ax = to_sites(state.soa().x(a));
                let s = sep.min(cur[ib] - ax);
                lo[ib] = lo[ib].max(ax + s);
            }
            // Both clean: never emitted in delta mode, impossible in a
            // full run (every occupant is indexed).
            (false, false) => {}
        }
    }
    stats.neighbor_arcs = pairs.len();

    // Weighted displacement before.
    let weighted = |xs: &dyn Fn(usize) -> i64| -> i64 {
        cells
            .iter()
            .enumerate()
            .map(|(i, &c)| weights[c.0 as usize] * (xs(i) - xp[i]).abs())
            .sum()
    };
    stats.weighted_before = weighted(&|i| cur[i]);

    // Build the flow graph: node 0 = z, 1..=k cells, then p, n.
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
    let extension = n0 > 0;
    let num_nodes = 1 + k + if extension { 2 } else { 0 };
    let mut g = FlowGraph::with_nodes(num_nodes);
    let z = NodeId(0);
    let node = |i: usize| NodeId(1 + i);
    for (i, &c) in cells.iter().enumerate() {
        let ni = weights[c.0 as usize];
        g.add_arc(z, node(i), ni, -xp[i]);
        g.add_arc(node(i), z, ni, xp[i]);
        g.add_arc(z, node(i), INF_CAP, -lo[i]);
        g.add_arc(node(i), z, INF_CAP, hi[i]);
    }
    for &(ia, ib, sep) in &pairs {
        g.add_arc(node(ia), node(ib), INF_CAP, -sep);
    }
    if extension {
        let p = NodeId(1 + k);
        let nn = NodeId(2 + k);
        let max_dy = dy.iter().copied().max().unwrap_or(0);
        for i in 0..k {
            g.add_arc(p, node(i), INF_CAP, -(xp[i] + dy[i]));
            g.add_arc(node(i), nn, INF_CAP, xp[i] - dy[i]);
        }
        g.add_arc(z, p, n0, max_dy);
        g.add_arc(nn, z, n0, max_dy);
    }

    let t_flow = Stopwatch::start();
    let solved = mcl_flow::solve(&g);
    obs.record_span(SpanKind::FlowSimplex, t_flow.elapsed_nanos(), 0);
    let Ok((sol, pivots)) = solved else {
        return stats;
    };
    obs.add(CounterKind::SimplexPivots, pivots);
    // The independent auditor re-derives feasibility and complementary
    // slackness of the dual flow before its potentials become positions.
    #[cfg(any(debug_assertions, feature = "audit"))]
    assert_eq!(
        mcl_audit::certify(&g, &sol).map(|cert| cert.cost),
        Ok(sol.cost),
        "stage-3 dual flow failed its optimality certificate"
    );
    let pi_z = sol.potential[0];
    let xs: Vec<i64> = (0..k).map(|i| sol.potential[1 + i] - pi_z).collect();

    // Validate the recovered primal solution.
    for i in 0..k {
        if xs[i] < lo[i] || xs[i] > hi[i] {
            debug_assert!(
                false,
                "bound violated for cell {i}: {} not in [{}, {}]",
                xs[i], lo[i], hi[i]
            );
            return stats;
        }
    }
    for &(ia, ib, sep) in &pairs {
        if xs[ib] - xs[ia] < sep {
            debug_assert!(false, "separation violated");
            return stats;
        }
    }
    stats.weighted_after = weighted(&|i| xs[i]);
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

/// Adjacent occupant pairs `(left, right)` of the segments, in ascending
/// segment order, each pair once (a pair of multi-row cells can abut in
/// several rows; its first segment counts).
///
/// With `delta` set only the segments holding a closure member are
/// scanned and only pairs with a member are kept: exactly the full scan
/// filtered to pairs with a member, in the same order, at a cost that
/// follows the closure instead of the design.
fn neighbor_pairs(
    state: &PlacementState<'_>,
    delta: Option<&crate::dirty::DirtyClosure>,
) -> Vec<(CellId, CellId)> {
    let segs: Vec<usize> = match delta {
        Some(dc) => {
            let mut segs: Vec<usize> = dc
                .cells()
                .iter()
                .filter(|&&c| state.pos(c).is_some())
                .flat_map(|&c| state.segment_memberships(c))
                .map(|(seg, _)| seg)
                .collect();
            segs.sort_unstable();
            segs.dedup();
            segs
        }
        None => (0..state.segments().len()).collect(),
    };
    let mut pairs = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    for seg in segs {
        for w2 in state.cells_in_segment(seg).windows(2) {
            let (a, b) = (w2[0], w2[1]);
            if delta.is_some_and(|dc| !dc.contains(a) && !dc.contains(b)) {
                continue;
            }
            if seen.insert((a.0, b.0)) {
                pairs.push((a, b));
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
        let stats = optimize_fixed_order_metered(&mut state, &cfg, &[1; 3], None, &mut obs, None);
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
