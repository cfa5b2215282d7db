//! Transitive dirty-window closure for delta-first (ECO) legalization.
//!
//! A delta run mutates a handful of cells; everything the post stages are
//! allowed to touch must be derivable from those mutations alone. This
//! module turns the raw dirty set tracked by
//! [`PlacementState`] (epoch-stamped cells
//! plus the rects they vacated) into its *transitive geometric closure*:
//! every placed cell within the edge-spacing halo of a dirty rect becomes
//! dirty itself, and its own halo-expanded rect is scanned in turn, until
//! a fixed point — re-running the closure on its own result adds nothing
//! (pinned by the property suite in `crates/core/tests/dirty_props.rs`).
//!
//! The scanned windows are deduplicated through a [`HierGrid`] so repeat
//! coverage of the same region is skipped instead of re-walked; the grid
//! is also how the windows are reported outward (`eco.windows_dirty`).
//! Cells outside the closure are guaranteed untouched by the delta post
//! stages: stage 2 only re-matches groups restricted to closure members
//! and stage 3 treats the nearest clean neighbors as fixed walls.

use crate::spatial::HierGrid;
use crate::state::PlacementState;
use mcl_db::prelude::*;

/// The transitive closure of a delta's dirty set: the cells a delta-mode
/// post stage may move, and the halo-expanded windows that were scanned
/// to find them.
#[derive(Debug, Clone, Default)]
pub struct DirtyClosure {
    /// Per-cell membership, indexed by `CellId`.
    in_closure: Vec<bool>,
    /// Closure members in ascending id order.
    cells: Vec<CellId>,
    /// Every halo-expanded window scanned while growing the closure (in
    /// scan order, deduplicated by containment).
    windows: Vec<Rect>,
}

impl DirtyClosure {
    /// Whether `cell` is in the closure (may be moved by delta stages).
    #[inline]
    pub fn contains(&self, cell: CellId) -> bool {
        self.in_closure
            .get(cell.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Closure members in ascending id order.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// The scanned dirty windows (halo-expanded, containment-deduped).
    pub fn windows(&self) -> &[Rect] {
        &self.windows
    }

    /// Number of closure members.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the closure is empty (nothing moved).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// The halo a dirty rect is expanded by before scanning for neighbors:
/// the worst-case edge spacing rounded up to whole sites (the farthest a
/// cell can constrain a neighbor it does not overlap), plus one site so
/// snap-rounding at the boundary can never exclude a constrained cell.
pub fn halo(d: &Design) -> Dbu {
    let sw = d.tech.site_width;
    let s = d.tech.edge_spacing.max_spacing();
    (s + sw - 1).div_euclid(sw) * sw + sw
}

/// Computes the transitive dirty-window closure of the state's current
/// dirty set (see [`PlacementState::dirty_cells`]): seeds are each dirty
/// cell's pre-mutation rect and current rect; any placed cell overlapping
/// a halo-expanded window joins the closure and contributes its own
/// window, until no window finds a new cell.
pub fn compute(state: &PlacementState<'_>) -> DirtyClosure {
    let seeds: Vec<(CellId, Option<Rect>)> = state.dirty_cells().to_vec();
    compute_from_seeds(state, &seeds)
}

/// [`compute`] over an explicit seed list (cell, pre-mutation rect).
/// Exposed for the fixed-point property suite.
pub fn compute_from_seeds(
    state: &PlacementState<'_>,
    seeds: &[(CellId, Option<Rect>)],
) -> DirtyClosure {
    let d = state.design();
    let h = halo(d);
    let n = d.cells.len();
    let mut out = DirtyClosure {
        in_closure: vec![false; n],
        cells: Vec::new(),
        windows: Vec::new(),
    };
    // Windows already scanned, for containment dedup; a generous band
    // height keeps multi-row windows in few bands.
    let mut scanned = HierGrid::new(d.core, d.tech.row_height.max(1) * 4);
    let mut worklist: Vec<Rect> = Vec::new();

    let expand = |r: Rect| Rect::new(r.xl - h, r.yl, r.xh + h, r.yh);
    for &(cell, origin) in seeds {
        if !out.in_closure[cell.0 as usize] {
            out.in_closure[cell.0 as usize] = true;
            out.cells.push(cell);
        }
        if let Some(r) = origin {
            worklist.push(expand(r));
        }
        if let Some(r) = state.cell_rect(cell) {
            worklist.push(expand(r));
        }
    }

    let rh = d.tech.row_height;
    while let Some(win) = worklist.pop() {
        // Skip windows fully covered by an already-scanned window.
        let mut covered = false;
        scanned.range_query(
            win,
            |_| true,
            |_, r, _| {
                if r.xl <= win.xl && r.yl <= win.yl && r.xh >= win.xh && r.yh >= win.yh {
                    covered = true;
                }
            },
        );
        if covered {
            continue;
        }
        scanned.insert(win, 0);
        out.windows.push(win);

        // Scan every segment row the window touches for overlapping
        // occupants (any fence — spacing constraints cross fence walls
        // only through the segment padding, but group restriction in
        // stage 2 needs the member set per fence anyway).
        let row_lo = ((win.yl - d.core.yl).div_euclid(rh)).max(0) as usize;
        let row_hi = (((win.yh - d.core.yl - 1).div_euclid(rh)).max(0) as usize)
            .min(d.num_rows.saturating_sub(1));
        for row in row_lo..=row_hi.max(row_lo) {
            if row >= d.num_rows {
                break;
            }
            for &seg in state.segments().in_row(row) {
                let s = &state.segments().segments()[seg];
                if !s.x.overlaps(Interval::new(win.xl, win.xh)) {
                    continue;
                }
                for &c in state.occupants_overlapping(seg, win.xl, win.xh) {
                    if out.in_closure[c.0 as usize] {
                        continue;
                    }
                    out.in_closure[c.0 as usize] = true;
                    out.cells.push(c);
                    if let Some(r) = state.cell_rect(c) {
                        worklist.push(expand(r));
                    }
                }
            }
        }
    }
    out.cells.sort_unstable_by_key(|c| c.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Design {
        let mut d = Design::new("dc", Technology::example(), Rect::new(0, 0, 2000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        for i in 0..12 {
            d.add_cell(Cell::new(
                format!("c{i}"),
                CellTypeId(0),
                Point::new(i as Dbu * 60, 0),
            ));
        }
        d
    }

    #[test]
    fn closure_empty_without_mutations() {
        let mut d = design();
        for i in 0..12 {
            d.cells[i].pos = Some(Point::new(i as Dbu * 60, 0));
        }
        let s = PlacementState::from_design_positions(&d).unwrap();
        let c = compute(&s);
        assert!(c.is_empty());
        assert!(c.windows().is_empty());
    }

    #[test]
    fn closure_pulls_in_halo_neighbors_transitively() {
        let mut d = design();
        // Abutted chain at the left: cells 0..4 at x = 0,20,40,60,80.
        for i in 0..5 {
            d.cells[i].pos = Some(Point::new(i as Dbu * 20, 0));
        }
        // Far-away cell untouched by any halo.
        d.cells[11].pos = Some(Point::new(1500, 0));
        let mut s = PlacementState::from_design_positions(&d).unwrap();
        // Move cell 2 out of the chain: its vacated rect borders 1 and 3,
        // whose rects border 0 and 4 — the whole chain is in the closure.
        s.remove(CellId(2));
        s.place(CellId(2), Point::new(400, 0)).unwrap();
        let c = compute(&s);
        for i in 0..5 {
            assert!(c.contains(CellId(i)), "chain member {i} missing");
        }
        assert!(!c.contains(CellId(11)), "distant cell must stay clean");
        assert!(!c.windows().is_empty());
    }
}
