//! Cell library types ([`CellType`]) and cell instances ([`Cell`]).

use crate::geom::{Dbu, Orient, Point, Rect};

/// Index of a [`CellType`] in [`crate::Design::cell_types`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellTypeId(pub u32);

/// Index of a [`Cell`] in [`crate::Design::cells`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Index of a fence region in [`crate::Design::fences`]. Id `0` is always
/// the *default fence*: the region outside all named fences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FenceId(pub u16);

impl FenceId {
    /// The default fence region (outside all named fences).
    pub const DEFAULT: FenceId = FenceId(0);
}

/// Row parity required for the bottom row of an even-height cell so its
/// power/ground rails align with the row grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowParity {
    /// Bottom row index must be even.
    Even,
    /// Bottom row index must be odd.
    Odd,
}

impl RowParity {
    /// Whether a bottom-row index satisfies this parity.
    pub fn matches(self, row: usize) -> bool {
        match self {
            RowParity::Even => row.is_multiple_of(2),
            RowParity::Odd => row % 2 == 1,
        }
    }
}

/// A signal-pin shape in cell-local coordinates (origin at the cell's
/// lower-left corner, orientation `N`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinShape {
    /// Pin name within the cell (e.g. `"A"`, `"ZN"`).
    pub name: String,
    /// Metal layer the shape is drawn on (1 = M1).
    pub layer: u8,
    /// Shape bounding box, cell-local.
    pub rect: Rect,
}

/// A master cell in the library.
#[derive(Debug, Clone, PartialEq)]
pub struct CellType {
    /// Library name of the master.
    pub name: String,
    /// Width in database units (a multiple of the site width).
    pub width: Dbu,
    /// Height in rows (1 = single-row cell).
    pub height_rows: u32,
    /// Edge classes of the (left, right) boundaries for edge-spacing rules.
    pub edge_class: (u8, u8),
    /// Required bottom-row parity; `None` for cells that can be flipped to
    /// align with any row (odd-height cells).
    pub rail_parity: Option<RowParity>,
    /// Signal pin shapes.
    pub pins: Vec<PinShape>,
}

impl CellType {
    /// Creates a pin-less cell type with default edge classes.
    ///
    /// Even-height cells default to [`RowParity::Even`]; odd-height cells
    /// have no parity restriction (they can be flipped to match the rails).
    pub fn new(name: impl Into<String>, width: Dbu, height_rows: u32) -> Self {
        assert!(
            width > 0 && height_rows > 0,
            "cell dimensions must be positive"
        );
        Self {
            name: name.into(),
            width,
            height_rows,
            edge_class: (0, 0),
            rail_parity: if height_rows.is_multiple_of(2) {
                Some(RowParity::Even)
            } else {
                None
            },
            pins: Vec::new(),
        }
    }

    /// The pin rectangle of pin `idx` under the given orientation and row
    /// height, still cell-local.
    pub fn pin_rect_local(&self, idx: usize, orient: Orient, row_height: Dbu) -> Rect {
        let h = self.height_rows as Dbu * row_height;
        orient.apply(self.pins[idx].rect, self.width, h)
    }
}

/// A cell instance to be legalized.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// Master index.
    pub type_id: CellTypeId,
    /// Global-placement position of the lower-left corner (input; not
    /// necessarily legal).
    pub gp: Point,
    /// Current (legalized) lower-left position, if placed.
    pub pos: Option<Point>,
    /// Current orientation.
    pub orient: Orient,
    /// Fence region the cell must be placed inside.
    pub fence: FenceId,
    /// Fixed cells (terminals, macros) may not be moved and act as blockages.
    pub fixed: bool,
}

impl Cell {
    /// Creates a movable cell at a GP position in the default fence.
    pub fn new(name: impl Into<String>, type_id: CellTypeId, gp: Point) -> Self {
        Self {
            name: name.into(),
            type_id,
            gp,
            pos: None,
            orient: Orient::N,
            fence: FenceId::DEFAULT,
            fixed: false,
        }
    }

    /// Current position, or the GP position when not yet placed.
    pub fn pos_or_gp(&self) -> Point {
        self.pos.unwrap_or(self.gp)
    }

    /// Total displacement `δ = |x−x'| + |y−y'|` in database units, zero when
    /// unplaced.
    pub fn displacement(&self) -> Dbu {
        match self.pos {
            Some(p) => p.manhattan(self.gp),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_matches() {
        assert!(RowParity::Even.matches(0));
        assert!(!RowParity::Even.matches(3));
        assert!(RowParity::Odd.matches(5));
    }

    #[test]
    fn default_parity_by_height() {
        assert_eq!(CellType::new("a", 10, 1).rail_parity, None);
        assert_eq!(CellType::new("b", 10, 2).rail_parity, Some(RowParity::Even));
        assert_eq!(CellType::new("c", 10, 3).rail_parity, None);
        assert_eq!(CellType::new("d", 10, 4).rail_parity, Some(RowParity::Even));
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        CellType::new("bad", 0, 1);
    }

    #[test]
    fn pin_rect_respects_orientation() {
        let mut t = CellType::new("t", 20, 1);
        t.pins.push(PinShape {
            name: "A".into(),
            layer: 1,
            rect: Rect::new(2, 3, 6, 8),
        });
        let rh = 90;
        assert_eq!(t.pin_rect_local(0, Orient::N, rh), Rect::new(2, 3, 6, 8));
        assert_eq!(t.pin_rect_local(0, Orient::FS, rh), Rect::new(2, 82, 6, 87));
        assert_eq!(t.pin_rect_local(0, Orient::FN, rh), Rect::new(14, 3, 18, 8));
    }

    #[test]
    fn displacement_unplaced_is_zero() {
        let c = Cell::new("c", CellTypeId(0), Point::new(100, 100));
        assert_eq!(c.displacement(), 0);
        assert_eq!(c.pos_or_gp(), Point::new(100, 100));
    }

    #[test]
    fn displacement_manhattan() {
        let mut c = Cell::new("c", CellTypeId(0), Point::new(100, 100));
        c.pos = Some(Point::new(110, 80));
        assert_eq!(c.displacement(), 30);
    }
}
