//! Multi-row global legalization — stage 1 (§3.1, Algorithm 1): the
//! building blocks the deterministic window scheduler
//! ([`crate::scheduler`]) drives.
//!
//! Cells are visited in a fixed order ([`cell_order`]). For each target cell
//! a window around its GP location ([`window_for`]) is searched with
//! [`crate::insertion::best_insertion`]; failed windows expand
//! geometrically; cells that still fail fall back to a whole-design scan
//! for the nearest feasible gap ([`fallback_scan`], guaranteeing completion
//! whenever capacity exists).

use crate::config::{CellOrder, LegalizerConfig, WeightMode};
use crate::error::{FailureClass, FailureRecord};
use crate::insertion::{Insertion, InsertionScratch};
use crate::routability::RoutOracle;
use crate::state::{PlaceError, PlacementState};
use mcl_db::prelude::*;
use mcl_obs::{CounterKind, Meter};

/// Statistics of one MGL run.
///
/// Equality compares the *placement outcome* counters only; [`Self::scratch`]
/// and [`Self::obs`] depend on the thread count and wall-clock time, which
/// legitimately differ between otherwise identical runs, and are excluded
/// from `==`.
#[derive(Debug, Clone, Default)]
pub struct MglStats {
    /// Cells placed through window insertion.
    pub placed_in_window: usize,
    /// Total window expansions performed.
    pub expansions: usize,
    /// Cells placed by the global fallback scan.
    pub fallbacks: usize,
    /// Cells that could not be placed at all.
    pub failed: usize,
    /// Contained per-cell evaluation failures that were retried (the
    /// deterministic repair pass; DESIGN.md §11). Zero on fault-free runs.
    pub retries: u64,
    /// Cells quarantined (left unplaced) after the retry budget ran out.
    pub quarantined: usize,
    /// Failure rows for quarantines and rejected fallback placements,
    /// surfaced into `LegalizeStats` and the RunReport `failures` array.
    pub failures: Vec<FailureRecord>,
    /// Merged hot-path counters of every insertion scratch of the run;
    /// `created` counts their constructions (not part of equality).
    pub scratch: crate::insertion::ScratchStats,
    /// Structured spans/counters/histograms: rounds (`mgl.select` spans),
    /// windows evaluated, phase wall times and evaluation time summed over
    /// the runner and its helpers (not part of equality).
    pub obs: Meter,
}

impl PartialEq for MglStats {
    fn eq(&self, other: &Self) -> bool {
        self.placed_in_window == other.placed_in_window
            && self.expansions == other.expansions
            && self.fallbacks == other.fallbacks
            && self.failed == other.failed
            && self.retries == other.retries
            && self.quarantined == other.quarantined
            && self.failures == other.failures
    }
}

impl Eq for MglStats {}

/// Computes per-cell cost weights according to the weight mode.
///
/// [`WeightMode::ContestAverage`] weighs every cell by `m / |C_h|` so the
/// summed objective matches the height-averaged metric of Eq. 2 up to a
/// constant factor.
pub fn compute_weights(design: &Design, mode: WeightMode) -> Vec<i64> {
    match mode {
        WeightMode::Uniform => vec![1; design.cells.len()],
        WeightMode::ContestAverage => {
            let h_max = design.max_height_rows() as usize;
            let mut counts = vec![0i64; h_max + 1];
            let mut m = 0i64;
            for id in design.movable_cells() {
                counts[design.type_of(id).height_rows as usize] += 1;
                m += 1;
            }
            design
                .cells
                .iter()
                .map(|c| {
                    let h = design.cell_types[c.type_id.0 as usize].height_rows as usize;
                    if c.fixed || counts[h] == 0 {
                        1
                    } else {
                        (m / counts[h]).max(1)
                    }
                })
                .collect()
        }
    }
}

/// The deterministic order MGL processes cells in.
pub fn cell_order(design: &Design, order: CellOrder) -> Vec<CellId> {
    order_cells(design, order, design.movable_cells().collect())
}

/// `ids` in [`cell_order`]'s order. Every order is a total order on the
/// cells (ties break on the id), so ordering a subset gives exactly the
/// subsequence [`cell_order`] would: an ECO run orders only the cells it
/// has to place.
pub fn order_cells(design: &Design, order: CellOrder, mut ids: Vec<CellId>) -> Vec<CellId> {
    let order = match order {
        CellOrder::Auto => {
            if design.density() > 0.82 {
                CellOrder::HeightThenShuffled
            } else {
                CellOrder::GpX
            }
        }
        o => o,
    };
    match order {
        CellOrder::Auto => unreachable!("resolved above"),
        CellOrder::Id => {}
        CellOrder::GpX => {
            ids.sort_by_key(|&id| {
                let c = &design.cells[id.0 as usize];
                (c.gp.x, c.gp.y, id.0)
            });
        }
        CellOrder::HeightThenWidth => {
            ids.sort_by_key(|&id| {
                let c = &design.cells[id.0 as usize];
                let ct = &design.cell_types[c.type_id.0 as usize];
                (
                    std::cmp::Reverse(ct.height_rows),
                    std::cmp::Reverse(ct.width),
                    c.gp.x,
                    c.gp.y,
                    id.0,
                )
            });
        }
        CellOrder::HeightThenShuffled => {
            // splitmix64 of the id: deterministic, but the id is the
            // cell's index in the input, so the shuffle still depends on
            // the input order (ROADMAP: "Same design, same placement,
            // whatever order its cells are listed in").
            let mix = |mut z: u64| {
                z = z.wrapping_add(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            ids.sort_by_key(|&id| {
                let c = &design.cells[id.0 as usize];
                let ct = &design.cell_types[c.type_id.0 as usize];
                (std::cmp::Reverse(ct.height_rows), mix(id.0 as u64), id.0)
            });
        }
    }
    ids
}

/// The search window around a cell's GP location after `n` expansions,
/// clamped to the core.
pub fn window_for(design: &Design, cell: CellId, config: &LegalizerConfig, n: usize) -> Rect {
    let c = &design.cells[cell.0 as usize];
    let ct = design.type_of(cell);
    let rh = design.tech.row_height;
    let sw = design.tech.site_width;
    let cx = c.gp.x + ct.width / 2;
    let cy = c.gp.y + ct.height_rows as Dbu * rh / 2;
    let hw = (config.window_sites_after(n) as Dbu * sw).max(ct.width / 2 + sw);
    let hh = (config.window_rows_after(n) as Dbu * rh).max(ct.height_rows as Dbu * rh / 2 + rh);
    Rect::new(
        (cx - hw).max(design.core.xl),
        (cy - hh).max(design.core.yl),
        (cx + hw).min(design.core.xh),
        (cy + hh).min(design.core.yh),
    )
}

/// Applies an insertion to the state: shifts local cells (in an order that
/// keeps intermediate states overlap-free), then places the target.
/// Allocates two small ordering buffers; hot loops should use
/// [`apply_insertion_with`] with a pooled scratch instead.
pub fn apply_insertion(state: &mut PlacementState<'_>, target: CellId, ins: &Insertion) {
    let mut scratch = InsertionScratch::new();
    apply_insertion_with(state, target, ins, &mut scratch);
}

/// [`apply_insertion`] with the shift-ordering buffers drawn from `scratch`,
/// so applying stays allocation-free in steady state.
pub fn apply_insertion_with(
    state: &mut PlacementState<'_>,
    target: CellId,
    ins: &Insertion,
    scratch: &mut InsertionScratch,
) {
    let d = state.design();
    // Left-moving cells first (ascending current x), then right-moving
    // (descending current x): no transient overlap.
    let (mut left, mut right) = scratch.take_apply_buffers();
    for &(cid, nx) in &ins.shifts {
        // A shift can only target a placed cell; an unplaced one (impossible
        // for a well-formed insertion) has nothing to move.
        let Some(cur) = state.pos(cid).map(|p| p.x) else {
            continue;
        };
        if nx < cur {
            left.push((cid, nx));
        } else if nx > cur {
            right.push((cid, nx));
        }
    }
    // Every retained cid is placed (filtered above); the fallback key only
    // keeps the sort total without a panic path.
    left.sort_by_key(|&(cid, _)| state.pos(cid).map_or(Dbu::MAX, |p| p.x));
    right.sort_by_key(|&(cid, _)| std::cmp::Reverse(state.pos(cid).map_or(Dbu::MIN, |p| p.x)));
    for &(cid, nx) in left.iter().chain(right.iter()) {
        state.shift_x(cid, nx);
    }
    scratch.restore_apply_buffers(left, right);
    let y = d.row_y(ins.base_row);
    if let Err(e) = state.place(target, Point::new(ins.x, y)) {
        // An unplaceable insertion is corrupted eval output; panicking here
        // is the designed fault signal, contained at the Apply-replay and
        // stage catch_unwind boundaries.
        panic!("insertion must be placeable: {e}");
    }
}

/// Records a fallback position the state rejected: the cell counts as
/// failed (with a typed failure row) instead of panicking the run — the
/// invariant "fallback positions are free" is now audited, not assumed.
pub(crate) fn record_fallback_reject(stats: &mut MglStats, cell: CellId, p: Point, e: &PlaceError) {
    stats.failed += 1;
    stats.failures.push(FailureRecord {
        stage: "mgl",
        class: FailureClass::Degradable,
        message: format!(
            "fallback for cell {} at ({}, {}) rejected: {e}",
            cell.0, p.x, p.y
        ),
    });
}

/// Mirrors the insertion-eval scratch counters into the typed obs counters.
pub(crate) fn record_scratch_counters(obs: &mut Meter, s: &crate::insertion::ScratchStats) {
    obs.add(CounterKind::AlignedRegions, s.regions);
    obs.add(CounterKind::InsertionAnchors, s.anchors);
    obs.add(CounterKind::DedupHits, s.dedup_hits);
    obs.add(CounterKind::CurveMinimizations, s.curve_mins);
}

/// Whole-design scan: nearest gap (no pushing) that fits the cell, honoring
/// fences, parity and horizontal rails. Used as a last resort.
///
/// Rows are visited outward from the cell's GP y (lower row first on equal
/// distance), so the scan stops as soon as a row's y displacement alone can
/// no longer beat the incumbent; within a row, segments whose x interval
/// cannot beat the incumbent either are pruned before the gap walk. On
/// cost ties between rows this prefers the row closer to the GP.
pub fn fallback_scan(
    state: &PlacementState<'_>,
    cell: CellId,
    oracle: Option<&RoutOracle<'_>>,
) -> Option<Point> {
    let d = state.design();
    let c = &d.cells[cell.0 as usize];
    let ct = d.type_of(cell);
    let h = ct.height_rows as usize;
    let w = ct.width;
    let sw = d.tech.site_width;
    let snap_up = |x: Dbu| d.core.xl + (x - d.core.xl + sw - 1).div_euclid(sw) * sw;
    let snap_down = |x: Dbu| d.core.xl + (x - d.core.xl).div_euclid(sw) * sw;
    let max_sp = d.tech.edge_spacing.max_spacing();
    let pad = (max_sp + sw - 1).div_euclid(sw) * sw;

    let rows_total = d.num_rows.saturating_sub(h - 1);
    if rows_total == 0 {
        return None;
    }
    // Two-pointer outward walk from the base row nearest the GP; visit
    // order is nondecreasing in |row_y − gp.y|.
    let rh = d.tech.row_height;
    let raw = (c.gp.y - d.core.yl).div_euclid(rh);
    let mut down: i64 = raw.min(rows_total as i64 - 1);
    let mut up: usize = if down < 0 { 0 } else { down as usize + 1 };

    // For multi-row cells every candidate is re-checked on the upper rows
    // via a placement probe. Conflicting occupants are located by binary
    // search on the SoA x column instead of filtering the whole row.
    let candidate_ok = |base_row: usize, x: Dbu| -> bool {
        if h > 1 {
            let span = Interval::new(x, x + w);
            for r in base_row..base_row + h {
                let Some(si) = state.find_covering_segment(r, c.fence, span) else {
                    return false;
                };
                if !state
                    .occupants_overlapping(si, x - pad, x + w + pad)
                    .is_empty()
                {
                    return false;
                }
            }
        }
        true
    };

    let mut best: Option<(i64, Point)> = None;
    // Upper-bound seed (pruning only): probe a handful of gaps around the
    // GP x in each row outward until any feasible candidate turns up, and
    // enter it as a pseudo-incumbent at `cost + 1`. Every bound below
    // compares strictly, so the seed prunes strictly-greater costs while
    // keeping ties admissible, and the canonical walk revisits the probe
    // candidate itself — the returned point is the exact candidate the
    // unseeded walk would pick, but every row walk is bounded from the
    // start instead of only after the first organically-found incumbent.
    {
        const PROBE_GAPS: usize = 3;
        const PROBE_BUDGET: usize = 96;
        let mut budget = PROBE_BUDGET;
        let mut pdown = down;
        let mut pup = up;
        'probe: loop {
            let base_row = match (pdown >= 0, pup < rows_total) {
                (false, false) => break,
                (true, false) => {
                    let r = pdown as usize;
                    pdown -= 1;
                    r
                }
                (false, true) => {
                    let r = pup;
                    pup += 1;
                    r
                }
                (true, true) => {
                    let yd = (d.row_y(pdown as usize) - c.gp.y).abs();
                    let yu = (d.row_y(pup) - c.gp.y).abs();
                    if yd <= yu {
                        let r = pdown as usize;
                        pdown -= 1;
                        r
                    } else {
                        let r = pup;
                        pup += 1;
                        r
                    }
                }
            };
            if let Some(par) = ct.rail_parity {
                if !par.matches(base_row) {
                    continue;
                }
            }
            if let Some(o) = oracle {
                if !o.h_rails_ok(c.type_id, base_row) {
                    continue;
                }
            }
            let y = d.row_y(base_row);
            let y_cost = (y - c.gp.y).abs();
            let segmap = state.segments();
            for &s0 in segmap.in_row(base_row) {
                let seg = &segmap.segments()[s0];
                if seg.fence != c.fence || seg.x.len() < w {
                    continue;
                }
                let soa = state.soa();
                let occupants = state.cells_in_segment(s0);
                // Jump straight to the gap straddling the GP x; the gap
                // edge bookkeeping mirrors the canonical walk below so a
                // probe hit is byte-for-byte one of its candidates.
                let mut idx =
                    occupants.partition_point(|&o| soa.pos(o).is_some_and(|p| p.x < c.gp.x));
                let mut gap_lo = seg.x.lo;
                for j in (0..idx).rev() {
                    if soa.pos(occupants[j]).is_some() {
                        gap_lo = soa.end_x(occupants[j]);
                        break;
                    }
                }
                for _ in 0..PROBE_GAPS {
                    if budget == 0 {
                        break 'probe;
                    }
                    budget -= 1;
                    let gap_hi = if idx < occupants.len() {
                        soa.pos(occupants[idx]).map_or(seg.x.hi, |p| p.x)
                    } else {
                        seg.x.hi
                    };
                    let lo = snap_up(if gap_lo > seg.x.lo {
                        gap_lo + pad
                    } else {
                        gap_lo
                    });
                    let hi = snap_down(if gap_hi < seg.x.hi {
                        gap_hi - pad
                    } else {
                        gap_hi
                    }) - w;
                    if hi >= lo {
                        let x = c.gp.x.clamp(lo, hi);
                        let x = snap_up(x).min(hi).max(lo);
                        if candidate_ok(base_row, x) {
                            let cost = (x - c.gp.x).abs() + y_cost;
                            best = Some((cost + 1, Point::new(x, y)));
                            break 'probe;
                        }
                    }
                    if idx >= occupants.len() {
                        break;
                    }
                    gap_lo = soa
                        .pos(occupants[idx])
                        .map_or(gap_lo, |_| soa.end_x(occupants[idx]));
                    idx += 1;
                }
            }
        }
    }
    loop {
        let base_row = match (down >= 0, up < rows_total) {
            (false, false) => break,
            (true, false) => {
                let r = down as usize;
                down -= 1;
                r
            }
            (false, true) => {
                let r = up;
                up += 1;
                r
            }
            (true, true) => {
                let yd = (d.row_y(down as usize) - c.gp.y).abs();
                let yu = (d.row_y(up) - c.gp.y).abs();
                if yd <= yu {
                    let r = down as usize;
                    down -= 1;
                    r
                } else {
                    let r = up;
                    up += 1;
                    r
                }
            }
        };
        let y = d.row_y(base_row);
        let y_cost = (y - c.gp.y).abs();
        // Rows are visited nearest-first: once the y displacement alone
        // cannot strictly beat the incumbent, no remaining row can.
        if let Some((bc, _)) = best {
            if y_cost >= bc {
                break;
            }
        }
        if let Some(par) = ct.rail_parity {
            if !par.matches(base_row) {
                continue;
            }
        }
        if let Some(o) = oracle {
            if !o.h_rails_ok(c.type_id, base_row) {
                continue;
            }
        }
        // Candidate spans: for each segment column, walk gaps.
        let segmap = state.segments();
        for &s0 in segmap.in_row(base_row) {
            let seg = &segmap.segments()[s0];
            if seg.fence != c.fence || seg.x.len() < w {
                continue;
            }
            if let Some((bc, _)) = best {
                // Closest feasible x in this segment is still too far: the
                // gap walk cannot produce a strict improvement.
                let min_x_dist = if c.gp.x < seg.x.lo {
                    seg.x.lo - c.gp.x
                } else if c.gp.x > seg.x.hi - w {
                    c.gp.x - (seg.x.hi - w)
                } else {
                    0
                };
                if y_cost + min_x_dist >= bc {
                    continue;
                }
            }
            // Gap walk on the base row; for multi-row cells every candidate
            // is re-checked on the upper rows via a placement probe.
            let soa = state.soa();
            let occupants = state.cells_in_segment(s0);
            // With an incumbent of cost `bc`, only gaps intersecting
            // `(gp.x − budget, gp.x + budget)` with `budget = bc − y_cost`
            // can strictly improve: jump the walk to the first such gap
            // (by binary search on the x-sorted occupants) instead of
            // walking the whole segment — without fences a segment spans
            // the entire row, so this is the difference between O(row)
            // and O(log row) per visited row.
            let mut idx = match best {
                Some((bc, _)) => occupants
                    .partition_point(|&o| soa.pos(o).is_some_and(|p| p.x < c.gp.x - (bc - y_cost))),
                None => 0,
            };
            // The gap's left edge is the end of the nearest placed
            // occupant before the jump target (unplaced entries cannot
            // bound a gap, mirroring the sequential walk).
            let mut gap_lo = seg.x.lo;
            for j in (0..idx).rev() {
                if soa.pos(occupants[j]).is_some() {
                    gap_lo = soa.end_x(occupants[j]);
                    break;
                }
            }
            loop {
                // Gap edges only move right: once the left edge passes
                // `gp.x + budget`, every remaining candidate displaces at
                // least `budget` and cannot strictly improve.
                if let Some((bc, _)) = best {
                    if gap_lo >= c.gp.x + (bc - y_cost) {
                        break;
                    }
                }
                let gap_hi = if idx < occupants.len() {
                    // Segment occupants are placed by definition; an
                    // unplaced one degrades to "gap runs to segment end".
                    soa.pos(occupants[idx]).map_or(seg.x.hi, |p| p.x)
                } else {
                    seg.x.hi
                };
                // Conservative pad for edge spacing against gap neighbours.
                let lo = snap_up(if gap_lo > seg.x.lo {
                    gap_lo + pad
                } else {
                    gap_lo
                });
                let hi = snap_down(if gap_hi < seg.x.hi {
                    gap_hi - pad
                } else {
                    gap_hi
                }) - w;
                if hi >= lo {
                    let x = c.gp.x.clamp(lo, hi);
                    let x = snap_up(x).min(hi).max(lo);
                    let cost = (x - c.gp.x).abs() + y_cost;
                    if candidate_ok(base_row, x) && best.map(|(bc, _)| cost < bc).unwrap_or(true) {
                        best = Some((cost, Point::new(x, y)));
                    }
                }
                if idx >= occupants.len() {
                    break;
                }
                let occ = occupants[idx];
                // An unplaced occupant cannot bound the gap; keep the
                // current lower edge and move on.
                gap_lo = soa.pos(occ).map_or(gap_lo, |_| soa.end_x(occ));
                idx += 1;
            }
        }
    }
    best.map(|(_, p)| p)
}

/// Reference-mode re-export for baselines.
pub use crate::config::DisplacementReference as Reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunSpec};
    use crate::pipeline::{Stage, StageSet};
    use mcl_db::legal::Checker;

    /// Stage 1 alone through the engine.
    fn run_mgl(design: &Design, config: &LegalizerConfig) -> (Design, MglStats) {
        let mut config = config.clone();
        config.stages = StageSet::of(&[Stage::Mgl]);
        let out = Engine::new(config)
            .run_one(design, RunSpec::default())
            .expect("MGL run");
        (out.design, out.stats.mgl)
    }

    fn dense_design(n_cells: usize, seed: u64) -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 2000, 1800));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("d", 30, 2));
        d.add_cell_type(CellType::new("t3", 40, 3));
        // Simple xorshift for reproducible pseudo-random GP.
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for i in 0..n_cells {
            let t = match rng() % 10 {
                0..=6 => CellTypeId(0),
                7..=8 => CellTypeId(1),
                _ => CellTypeId(2),
            };
            let x = (rng() % 1900) as Dbu;
            let y = (rng() % 1700) as Dbu;
            d.add_cell(Cell::new(format!("c{i}"), t, Point::new(x, y)));
        }
        d
    }

    #[test]
    fn legalizes_a_dense_block() {
        let d = dense_design(120, 42);
        let cfg = LegalizerConfig::total_displacement();
        let (out, stats) = run_mgl(&d, &cfg);
        assert_eq!(stats.failed, 0, "{stats:?}");
        let rep = Checker::new(&out).check();
        assert!(rep.is_legal(), "{:?}", rep.details);
    }

    #[test]
    fn deterministic_across_runs() {
        let d = dense_design(80, 7);
        let cfg = LegalizerConfig::total_displacement();
        let (a, _) = run_mgl(&d, &cfg);
        let (b, _) = run_mgl(&d, &cfg);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.pos, cb.pos);
        }
    }

    #[test]
    fn weights_contest_mode() {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 1000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("d", 30, 2));
        for i in 0..9 {
            d.add_cell(Cell::new(format!("s{i}"), CellTypeId(0), Point::new(0, 0)));
        }
        d.add_cell(Cell::new("d0", CellTypeId(1), Point::new(0, 0)));
        let w = compute_weights(&d, WeightMode::ContestAverage);
        // 10 cells: 9 single (weight 10/9 -> 1), 1 double (weight 10).
        assert_eq!(w[0], 1);
        assert_eq!(w[9], 10);
    }

    #[test]
    fn fallback_scan_finds_far_gap() {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 1000, 180));
        let wide = d.add_cell_type(CellType::new("wide", 480, 1));
        let s = d.add_cell_type(CellType::new("s", 20, 1));
        // Fill row 0 almost fully.
        let a = d.add_cell(Cell::new("a", wide, Point::new(0, 0)));
        let b = d.add_cell(Cell::new("b", wide, Point::new(480, 0)));
        let t = d.add_cell(Cell::new("t", s, Point::new(500, 10)));
        let mut st = PlacementState::new(&d);
        st.place(a, Point::new(0, 0)).unwrap();
        st.place(b, Point::new(480, 0)).unwrap();
        let p = fallback_scan(&st, t, None).unwrap();
        // Gap on row 0 at [960, 1000) or row 1 anywhere; nearest to GP
        // (500,10) by total displacement: row 1 at x=500 costs 80; row 0 at
        // 960 costs 460.
        assert_eq!(p, Point::new(500, 90));
        let _ = t;
    }

    #[test]
    fn order_height_first() {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 1000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("d", 30, 2));
        d.add_cell(Cell::new("a", CellTypeId(0), Point::new(0, 0)));
        d.add_cell(Cell::new("b", CellTypeId(1), Point::new(0, 0)));
        let ord = cell_order(&d, CellOrder::HeightThenWidth);
        assert_eq!(ord[0], CellId(1), "taller first");
    }

    #[test]
    fn routability_mode_keeps_design_legal() {
        let mut d = dense_design(60, 99);
        d.grid = PowerGrid {
            h_layer: 2,
            h_width: 6,
            h_pitch_rows: 1,
            v_layer: 3,
            v_width: 8,
            v_pitch: 400,
            v_offset: 200,
        };
        // Give the single-height type a pin that can collide with stripes.
        d.cell_types[0].pins.push(PinShape {
            name: "a".into(),
            layer: 2,
            rect: Rect::new(4, 30, 12, 50),
        });
        let cfg = LegalizerConfig::contest();
        let (out, stats) = run_mgl(&d, &cfg);
        assert_eq!(stats.failed, 0);
        let rep = Checker::new(&out).check();
        assert!(rep.is_legal(), "{:?}", rep.details);
        // Vertical-stripe avoidance should leave zero pin violations here
        // (stripes are sparse enough to dodge).
        assert_eq!(rep.pin_shorts + rep.pin_access, 0, "{:?}", rep.details);
    }
}
