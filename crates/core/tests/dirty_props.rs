//! Property suite for the bounded dirty-window closure (ECO deltas).
//!
//! The closure computed by [`mcl_core::dirty::compute`] decides which
//! cells a delta's post stages may move. Its rule: each mutated cell is a
//! member and anchors a box (its vacated and its current rect, grown by
//! the MGL base window); the edge-spacing halo walk from each anchor is
//! transitive but clipped to that box. The suite pins the rule: every
//! mutated cell is a member, every member overlaps a seed's box, every
//! placed cell overlapping a scanned window is a member (soundness against
//! a naive scan), the same seeds always give the same set, and a contained
//! delta never floods the design. Legality does not depend on the set
//! (clean neighbours are walls to the post stages), so there is no
//! fixed-point property: a clean cell may abut a member.
//!
//! The base placement is a collision-free slot grid; mutations relocate a
//! random subset of cells to a disjoint slot pool, so every generated
//! sequence is legal by construction and the properties run on thousands
//! of distinct dirty patterns and window sizes.

use mcl_core::dirty::{compute, compute_from_seeds};
use mcl_core::{LegalizerConfig, PlacementState};
use mcl_db::prelude::*;
use proptest::prelude::*;

/// 10 rows, two cell heights, everything placed on a sparse slot grid:
/// 30 single-row cells on rows 0..4 and 6 double-row cells on row 4.
fn slotted_design() -> Design {
    let mut d = Design::new("dp", Technology::example(), Rect::new(0, 0, 4000, 900));
    d.add_cell_type(CellType::new("s", 20, 1));
    d.add_cell_type(CellType::new("d", 30, 2));
    for i in 0..30usize {
        let mut c = Cell::new(format!("s{i}"), CellTypeId(0), Point::new(0, 0));
        c.pos = Some(Point::new((i / 4) as Dbu * 200, (i % 4) as Dbu * 90));
        d.add_cell(c);
    }
    for i in 0..6usize {
        let mut c = Cell::new(format!("d{i}"), CellTypeId(1), Point::new(0, 0));
        c.pos = Some(Point::new(i as Dbu * 300, 4 * 90));
        d.add_cell(c);
    }
    d
}

/// The target slot pool: unique x per slot (so any two targets are
/// disjoint), rows 6..10 for singles and even rows for doubles.
fn slot_target(slot: usize, two_rows: bool) -> Point {
    let x = 2000 + slot as Dbu * 80;
    let row = if two_rows {
        6 + (slot % 2) * 2
    } else {
        6 + slot % 4
    };
    Point::new(x, row as Dbu * 90)
}

/// The slotted design with the generated moves applied under dirty
/// tracking; returns the moved cells.
fn mutate<'d>(d: &'d Design, raw_moves: &[(usize, usize)]) -> (PlacementState<'d>, Vec<CellId>) {
    let mut s = PlacementState::from_design_positions(d).unwrap();
    let mut used_cells = [false; 36];
    let mut used_slots = [false; 24];
    let mut moved = Vec::new();
    for &(cell, slot) in raw_moves {
        if used_cells[cell] || used_slots[slot] {
            continue;
        }
        used_cells[cell] = true;
        used_slots[slot] = true;
        let id = CellId(cell as u32);
        s.remove(id);
        s.place(id, slot_target(slot, cell >= 30)).unwrap();
        moved.push(id);
    }
    (s, moved)
}

/// A contest configuration with the given MGL base window.
fn config(window_sites: usize, window_rows: usize) -> LegalizerConfig {
    let mut c = LegalizerConfig::contest();
    c.window_sites = window_sites;
    c.window_rows = window_rows;
    c
}

/// Strict (positive-area) overlap.
fn overlaps(a: Rect, b: Rect) -> bool {
    a.xl < b.xh && a.xh > b.xl && a.yl < b.yh && a.yh > b.yl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every mutated cell is in the closure, and the closure is *sound*
    /// against a naive scan: any placed cell whose rect strictly overlaps
    /// any scanned window is a member.
    #[test]
    fn closure_covers_dirty_cells_and_window_occupants(
        raw_moves in prop::collection::vec((0usize..36, 0usize..24), 1..10),
        window_sites in 0usize..30,
        window_rows in 0usize..4,
    ) {
        let d = slotted_design();
        let (s, moved) = mutate(&d, &raw_moves);
        let c = compute(&s, &config(window_sites, window_rows));
        for &id in &moved {
            prop_assert!(c.contains(id), "moved cell {} missing from closure", id.0);
        }
        for i in 0..36u32 {
            let id = CellId(i);
            let Some(r) = s.cell_rect(id) else { continue };
            if c.windows().iter().any(|&w| overlaps(r, w)) {
                prop_assert!(
                    c.contains(id),
                    "cell {i} overlaps a scanned window but is not a member"
                );
            }
        }
    }

    /// The closure is bounded by its anchors: every scanned window lies
    /// inside a seed's box (its vacated or current rect grown by the MGL
    /// base window), and every member overlaps one.
    #[test]
    fn members_and_windows_stay_inside_the_seed_boxes(
        raw_moves in prop::collection::vec((0usize..36, 0usize..24), 1..10),
        window_sites in 0usize..30,
        window_rows in 0usize..4,
    ) {
        let d = slotted_design();
        let (s, _) = mutate(&d, &raw_moves);
        let c = compute(&s, &config(window_sites, window_rows));
        let (hw, hh) = (window_sites as Dbu * 10, window_rows as Dbu * 90);
        let boxes: Vec<Rect> = s
            .dirty_cells()
            .iter()
            .flat_map(|&(id, origin)| origin.into_iter().chain(s.cell_rect(id)))
            .map(|r| Rect::new(r.xl - hw, r.yl - hh, r.xh + hw, r.yh + hh).intersect(d.core))
            .collect();
        for &w in c.windows() {
            prop_assert!(
                boxes.iter().any(|b| b.covers(w)),
                "window {w:?} leaves every seed box"
            );
        }
        for &id in c.cells() {
            let Some(r) = s.cell_rect(id) else { continue };
            prop_assert!(
                boxes.iter().any(|&b| overlaps(r, b)),
                "member {} overlaps no seed box", id.0
            );
        }
    }

    /// The same seeds always give the same set (and the same scanned
    /// windows): the closure is a function of the seed list.
    #[test]
    fn same_seeds_give_the_same_closure(
        raw_moves in prop::collection::vec((0usize..36, 0usize..24), 1..10),
        window_sites in 0usize..30,
        window_rows in 0usize..4,
    ) {
        let d = slotted_design();
        let (s, _) = mutate(&d, &raw_moves);
        let cfg = config(window_sites, window_rows);
        let c = compute(&s, &cfg);
        let seeds = s.dirty_cells();
        let again = compute_from_seeds(&s, &cfg, &seeds);
        prop_assert_eq!(c.cells(), again.cells());
        prop_assert_eq!(c.windows(), again.windows());
    }

    /// Cells far outside every halo stay clean: a closure never floods the
    /// whole design when the dirty region is contained.
    #[test]
    fn distant_cells_stay_clean(slot in 0usize..24) {
        let d = slotted_design();
        let mut s = PlacementState::from_design_positions(&d).unwrap();
        // Move exactly one single-row cell into the empty target area.
        s.remove(CellId(0));
        s.place(CellId(0), slot_target(slot, false)).unwrap();
        let c = compute(&s, &LegalizerConfig::contest());
        // The slot grid is 200 dbu apart and the target pool 80 dbu with
        // one cell placed: the closure must stay a small local set, and in
        // particular cells in distant columns must stay clean.
        prop_assert!(c.contains(CellId(0)));
        let far = CellId(29); // x = 1400, far from both column 0 and the pool
        prop_assert!(!c.contains(far), "distant cell joined the closure");
        prop_assert!(c.len() < 36, "closure flooded the whole design");
    }
}
