//! Seed-faithful insertion evaluation, kept verbatim from before the
//! allocation-free rewrite of [`crate::insertion`].
//!
//! This module is **not** used by the legalizer. It exists for two reasons:
//!
//! 1. **Differential testing** — `best_insertion_reference` must return
//!    bit-identical results to [`crate::insertion::best_insertion`] on any
//!    input; `tests/insertion_diff.rs` checks this on randomized designs.
//! 2. **Benchmark baseline** — the `mgl` section of the perf bench
//!    (`crates/bench/src/bin/perf.rs`) measures the new hot path against
//!    this implementation (fresh `Vec`s and `PwlCurve`s per candidate,
//!    owned-`Vec` tuple dedup, `PwlCurve::sum`).
//!
//! Do not optimize this module; its value is being the fixed point of
//! comparison.

use crate::curve::PwlCurve;
use crate::insertion::{gp_ref, CostModel, Insertion, Line};
use crate::state::PlacementState;
use mcl_db::prelude::*;
use std::collections::HashSet;

/// Finds the best insertion of `target` within `window` using the original
/// allocating evaluation strategy. See the module docs; use
/// [`crate::insertion::best_insertion`] in real code.
pub fn best_insertion_reference(
    state: &PlacementState<'_>,
    target: CellId,
    window: Rect,
    model: &CostModel<'_>,
) -> Option<Insertion> {
    let d = state.design();
    let tc = &d.cells[target.0 as usize];
    let ct = d.type_of(target);
    let h = ct.height_rows as usize;
    let w_t = ct.width;
    let w_target = model.weights[target.0 as usize];
    let gp_x_snapped = d.tech.snap_x_nearest(d.core.xl, tc.gp.x);

    let row_lo = d.row_of_y(window.yl.max(d.core.yl)).unwrap_or(0);
    let row_hi_incl = d.row_of_y((window.yh - 1).min(d.core.yh - 1)).unwrap_or(0);
    let max_base = d.num_rows.checked_sub(h)?;

    let mut best: Option<Insertion> = None;
    let mut consider = |cand: Insertion, gp_y: Dbu, gp_x: Dbu, d: &Design| {
        let better = match &best {
            None => true,
            Some(b) => {
                let key = |c: &Insertion| {
                    (
                        c.cost,
                        (d.row_y(c.base_row) - gp_y).abs(),
                        (c.x - gp_x).abs(),
                        c.base_row,
                        c.x,
                    )
                };
                key(&cand) < key(b)
            }
        };
        if better {
            best = Some(cand);
        }
    };

    for base_row in row_lo..=row_hi_incl.min(max_base) {
        if d.row_y(base_row) + h as Dbu * d.tech.row_height > window.yh.min(d.core.yh) {
            continue;
        }
        if let Some(par) = ct.rail_parity {
            if !par.matches(base_row) {
                continue;
            }
        }
        if let Some(o) = model.oracle {
            if !o.h_rails_ok(tc.type_id, base_row) {
                continue;
            }
        }
        let y = d.row_y(base_row);
        let y_cost = w_target.saturating_mul((y - tc.gp.y).abs());

        let segmap = state.segments();
        let win_x = Interval::new(window.xl.max(d.core.xl), window.xh.min(d.core.xh));
        let mut regions: Vec<Interval> = state
            .segments_overlapping(base_row, tc.fence, win_x)
            .map(|i| segmap.segments()[i].x.intersect(win_x))
            .collect();
        for r in base_row + 1..base_row + h {
            let mut next = Vec::new();
            for region in &regions {
                for i in state.segments_overlapping(r, tc.fence, *region) {
                    let iv = segmap.segments()[i].x.intersect(*region);
                    if iv.len() >= w_t {
                        next.push(iv);
                    }
                }
            }
            regions = next;
            if regions.is_empty() {
                break;
            }
        }

        for region in regions {
            if region.len() < w_t {
                continue;
            }
            evaluate_region_reference(
                state,
                target,
                model,
                base_row,
                h,
                region,
                y_cost,
                gp_x_snapped,
                &mut consider,
            );
        }
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn evaluate_region_reference(
    state: &PlacementState<'_>,
    target: CellId,
    model: &CostModel<'_>,
    base_row: usize,
    h: usize,
    region: Interval,
    y_cost: i64,
    gp_x_snapped: Dbu,
    consider: &mut impl FnMut(Insertion, Dbu, Dbu, &Design),
) {
    let d = state.design();
    let tc = &d.cells[target.0 as usize];
    let ct = d.type_of(target);
    let w_t = ct.width;
    let sw = d.tech.site_width;
    let snap_up = |x: Dbu| d.core.xl + (x - d.core.xl + sw - 1).div_euclid(sw) * sw;
    let snap_down = |x: Dbu| d.core.xl + (x - d.core.xl).div_euclid(sw) * sw;

    // Build lineups per row.
    let mut lineups: Vec<Vec<Line>> = Vec::with_capacity(h);
    for r in base_row..base_row + h {
        let mut line = Vec::new();
        for seg_idx in state.segments_overlapping(r, tc.fence, region) {
            for &cid in state.cells_in_segment(seg_idx) {
                let p = state.pos(cid).unwrap();
                let cct = d.type_of(cid);
                let span = Interval::new(p.x, p.x + cct.width);
                if !span.overlaps(region) {
                    continue;
                }
                let shiftable = cct.height_rows == 1 && region.covers(span);
                line.push(Line {
                    id: cid,
                    x: p.x,
                    w: cct.width,
                    lc: cct.edge_class.0,
                    rc: cct.edge_class.1,
                    shiftable,
                });
            }
        }
        line.sort_unstable_by_key(|l| l.x);
        lineups.push(line);
    }

    // Candidate anchors.
    let lo_limit = region.lo;
    let hi_limit = region.hi - w_t;
    let mut anchors: Vec<Dbu> = vec![gp_x_snapped.clamp(lo_limit, hi_limit)];
    for line in &lineups {
        for c in line {
            anchors.push(snap_up(c.x + c.w).clamp(lo_limit, hi_limit));
            anchors.push(snap_down(c.x - w_t).clamp(lo_limit, hi_limit));
        }
    }
    anchors.sort_unstable();
    anchors.dedup();
    const MAX_ANCHORS: usize = 96;
    if anchors.len() > MAX_ANCHORS {
        anchors.sort_unstable_by_key(|&a| ((a - gp_x_snapped).abs(), a));
        anchors.truncate(MAX_ANCHORS);
        anchors.sort_unstable();
    }

    let spacing = |a: u8, b: u8| -> Dbu {
        let s = d.tech.edge_spacing.spacing(a, b);
        (s + sw - 1).div_euclid(sw) * sw
    };

    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    for &anchor in &anchors {
        // Slot tuple by center comparison.
        let tuple: Vec<u32> = lineups
            .iter()
            .map(|line| line.partition_point(|l| 2 * l.x + l.w <= 2 * anchor + w_t) as u32)
            .collect();
        if !seen.insert(tuple.clone()) {
            continue;
        }

        // Chains and bounds.
        let mut lb = region.lo;
        let mut ub_x = region.hi - w_t;
        let mut curves: Vec<PwlCurve> = Vec::new();
        curves.push(PwlCurve::vee(
            gp_x_snapped,
            model.weights[target.0 as usize],
        ));
        let mut chain_info: Vec<(CellId, Dbu, bool)> = Vec::new();

        for (row_i, line) in lineups.iter().enumerate() {
            let slot = tuple[row_i] as usize;
            // Left chain.
            let mut off: Dbu = 0;
            let mut prev_lc = ct.edge_class.0;
            let mut wall: Option<(Dbu, u8)> = None;
            for j in (0..slot).rev() {
                let c = &line[j];
                if !c.shiftable {
                    wall = Some((c.x + c.w, c.rc));
                    break;
                }
                off += spacing(c.rc, prev_lc) + c.w;
                let (g, base) = gp_ref(d, model, c);
                let wgt = model.weights[c.id.0 as usize];
                let dv = if model.normalize { -base * wgt } else { 0 };
                if g >= c.x {
                    curves.push(PwlCurve::type_b(c.x + off, base, wgt).offset(dv));
                } else {
                    curves.push(PwlCurve::type_d(g + off, base, wgt).offset(dv));
                }
                chain_info.push((c.id, off, true));
                prev_lc = c.lc;
            }
            let (wall_edge, wall_rc) = wall.unwrap_or((region.lo, u8::MAX));
            let wall_sp = if wall_rc == u8::MAX {
                0
            } else {
                spacing(wall_rc, prev_lc)
            };
            lb = lb.max(wall_edge + wall_sp + off);

            // Right chain.
            let mut off: Dbu = w_t;
            let mut prev_rc = ct.edge_class.1;
            let mut rwall: Option<(Dbu, u8)> = None;
            let mut last_extent = off;
            for c in line.iter().skip(slot) {
                if !c.shiftable {
                    rwall = Some((c.x, c.lc));
                    break;
                }
                let off_c = off + spacing(prev_rc, c.lc);
                let (g, base) = gp_ref(d, model, c);
                let wgt = model.weights[c.id.0 as usize];
                let dv = if model.normalize { -base * wgt } else { 0 };
                if g <= c.x {
                    curves.push(PwlCurve::type_a(c.x - off_c, base, wgt).offset(dv));
                } else {
                    curves.push(PwlCurve::type_c(c.x - off_c, base, wgt).offset(dv));
                }
                chain_info.push((c.id, off_c, false));
                off = off_c + c.w;
                prev_rc = c.rc;
                last_extent = off;
            }
            let (rwall_edge, rwall_lc) = rwall.unwrap_or((region.hi, u8::MAX));
            let rwall_sp = if rwall_lc == u8::MAX {
                0
            } else {
                spacing(prev_rc, rwall_lc)
            };
            ub_x = ub_x.min(rwall_edge - rwall_sp - last_extent);
        }

        let lb = snap_up(lb);
        let ub = snap_down(ub_x);
        if lb > ub {
            continue;
        }

        let total = PwlCurve::sum(curves);
        let prefer = gp_x_snapped.clamp(lb, ub);
        let Some((x0, _)) = total.min_on(lb, ub, prefer) else {
            continue;
        };

        // Routability-aware candidate positions.
        let mut cand_xs = vec![x0];
        if let Some(o) = model.oracle {
            if o.v_violations(tc.type_id, base_row, x0) > 0 {
                if let Some(xr) = o.clear_x_right(tc.type_id, base_row, x0, ub) {
                    cand_xs.push(xr);
                }
                if let Some(xl) = o.clear_x_left(tc.type_id, base_row, x0, lb) {
                    cand_xs.push(xl);
                }
            }
        }
        for x in cand_xs {
            let mut cost = total.eval(x).saturating_add(y_cost);
            if let Some(o) = model.oracle {
                cost = cost
                    .saturating_add(
                        model
                            .rail_penalty
                            .saturating_mul(o.v_violations(tc.type_id, base_row, x) as i64),
                    )
                    .saturating_add(
                        model
                            .io_penalty
                            .saturating_mul(o.io_overlaps(tc.type_id, base_row, x) as i64),
                    );
            }
            // Reconstruct shifts at this x.
            let mut shifts = Vec::new();
            let mut ok = true;
            for &(cid, off, is_left) in &chain_info {
                let cur = state.pos(cid).unwrap().x;
                let new_x = if is_left {
                    cur.min(x - off)
                } else {
                    cur.max(x + off)
                };
                if new_x != cur {
                    if (new_x - d.core.xl) % sw != 0 {
                        ok = false;
                        break;
                    }
                    shifts.push((cid, new_x));
                }
            }
            if !ok {
                continue;
            }
            consider(
                Insertion {
                    base_row,
                    x,
                    cost,
                    shifts,
                },
                tc.gp.y,
                gp_x_snapped,
                d,
            );
        }
    }
}
