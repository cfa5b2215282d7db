//! Bounded dirty-window closure for delta-first (ECO) legalization.
//!
//! A delta run mutates a handful of cells; everything the post stages are
//! allowed to touch must be derivable from those mutations alone. This
//! module turns the raw dirty set [`PlacementState::dirty_cells`] derives
//! from the delta's replay log (the cells mutated since the epoch's log
//! mark, with the rects they held at it) into the *closure*: the cells a
//! delta-mode post stage may move.
//!
//! Each seed (a mutated cell) anchors one box on the rect it vacated and
//! one on the rect it now occupies. A box is the anchor rect grown by the
//! MGL base window — [`LegalizerConfig::window_sites`] sites left and
//! right, [`LegalizerConfig::window_rows`] rows up and down — the local
//! neighbourhood stage 1 inserts into (§3.1). From each anchor the halo
//! walk is transitive: every placed cell within the edge-spacing halo of a
//! member joins, and its own halo-expanded rect is scanned in turn, but
//! every scanned window is clipped to the box of the seed the walk started
//! from. A cell first reached from one box expands inside that box only,
//! and the worklist order is fixed by the seed order, so the same seeds
//! always give the same set. The closure is therefore local: a 64-cell
//! delta re-legalizes a few hundred cells however dense the design is.
//!
//! The scanned windows are deduplicated by containment through a
//! [`HierGrid`] (a covered window can only find members already found),
//! and they are how the closure is reported outward (`eco.windows_dirty`).
//!
//! Safety does not rest on the closure being closed: clean neighbours are
//! walls. Stage 2 permutes closure members of one (type, fence) group
//! among their own positions, so every footprint — and with it every
//! overlap, edge-spacing and pin relation to any neighbour, clean or not —
//! is unchanged. Stage 3 keeps each member's rows and order, and a
//! member's nearest clean neighbour in each segment clips its x range at
//! the wall minus the required separation (relaxed to the incumbent gap,
//! as for member pairs). Clean cells are never moved, and no member can
//! come closer to one than the rules allow. The property suite in
//! `crates/core/tests/dirty_props.rs` pins the geometry; the wall path is
//! exercised by `tests/eco_parity.rs`.

use crate::config::LegalizerConfig;
use crate::spatial::HierGrid;
use crate::state::PlacementState;
use mcl_db::prelude::*;

/// The closure of a delta's dirty set: the cells a delta-mode post stage
/// may move, and the clipped, halo-expanded windows that were scanned to
/// find them.
#[derive(Debug, Clone, Default)]
pub struct DirtyClosure {
    /// Per-cell membership, indexed by `CellId`.
    in_closure: Vec<bool>,
    /// Closure members in ascending id order.
    cells: Vec<CellId>,
    /// Every clipped window scanned while growing the closure (in scan
    /// order, deduplicated by containment).
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

    /// The scanned dirty windows (halo-expanded, clipped to their anchor
    /// box, containment-deduped).
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

/// The box a seed rect anchors: `r` grown by the MGL base window
/// (`window_sites` sites on each side, `window_rows` rows above and
/// below), clamped to the core. Every closure member overlaps the box of
/// the seed whose walk found it.
pub fn anchor_box(d: &Design, config: &LegalizerConfig, r: Rect) -> Rect {
    let hw = config.window_sites as Dbu * d.tech.site_width;
    let hh = config.window_rows as Dbu * d.tech.row_height;
    Rect::new(r.xl - hw, r.yl - hh, r.xh + hw, r.yh + hh).intersect(d.core)
}

/// Computes the bounded closure of the state's current dirty set (see
/// [`PlacementState::dirty_cells`]): seeds are each dirty cell's
/// pre-mutation rect and current rect, each anchoring a box
/// ([`anchor_box`]); any placed cell overlapping a halo-expanded window
/// clipped to its walk's box joins the closure and contributes its own
/// window in the same box, until no window finds a new cell.
pub fn compute(state: &PlacementState<'_>, config: &LegalizerConfig) -> DirtyClosure {
    compute_from_seeds(state, config, &state.dirty_cells())
}

/// [`compute`] over an explicit seed list (cell, pre-mutation rect).
/// Exposed for the property suite.
pub fn compute_from_seeds(
    state: &PlacementState<'_>,
    config: &LegalizerConfig,
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
    // Pending scans: a clipped window and the anchor box it belongs to.
    let mut worklist: Vec<(Rect, Rect)> = Vec::new();

    let window =
        |r: Rect, anchor: Rect| Rect::new(r.xl - h, r.yl, r.xh + h, r.yh).intersect(anchor);
    for &(cell, origin) in seeds {
        if !out.in_closure[cell.0 as usize] {
            out.in_closure[cell.0 as usize] = true;
            out.cells.push(cell);
        }
        for r in origin.into_iter().chain(state.cell_rect(cell)) {
            let anchor = anchor_box(d, config, r);
            worklist.push((window(r, anchor), anchor));
        }
    }

    let rh = d.tech.row_height;
    while let Some((win, anchor)) = worklist.pop() {
        if win.is_empty() {
            continue;
        }
        // Skip windows fully covered by an already-scanned window.
        if scanned.covers_any(win) {
            continue;
        }
        scanned.insert(win);
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
                        worklist.push((window(r, anchor), anchor));
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
        let c = compute(&s, &LegalizerConfig::contest());
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
        let c = compute(&s, &LegalizerConfig::contest());
        for i in 0..5 {
            assert!(c.contains(CellId(i)), "chain member {i} missing");
        }
        assert!(!c.contains(CellId(11)), "distant cell must stay clean");
        assert!(!c.windows().is_empty());
    }

    #[test]
    fn walk_stops_at_the_anchor_box() {
        // One abutted chain of 12 cells at x = 0, 20, ..., 220 on row 0.
        let mut d = design();
        for i in 0..12 {
            d.cells[i].pos = Some(Point::new(i as Dbu * 20, 0));
        }
        let mut s = PlacementState::from_design_positions(&d).unwrap();
        s.remove(CellId(0));
        s.place(CellId(0), Point::new(0, 180)).unwrap();
        // Two sites either side of the vacated rect [0, 20): the box is
        // [0, 40), so the walk reaches cell 1 only. Cell 2 abuts it but
        // lies outside the box: a clean wall.
        let mut cfg = LegalizerConfig::contest();
        cfg.window_sites = 2;
        cfg.window_rows = 1;
        let c = compute(&s, &cfg);
        assert_eq!(c.cells(), &[CellId(0), CellId(1)]);
        assert!(c.windows().iter().all(|w| w.xh <= 40));
        // The unbounded walk would have taken the whole chain.
        cfg.window_sites = 100;
        assert_eq!(compute(&s, &cfg).len(), 12);
    }
}
