//! Append-only replay log and independent replay verifier for the
//! legalization schedulers.
//!
//! The legalizer core records every committed placement mutation (place,
//! remove, horizontal shift) into a [`ReplayLog`]. Because the log is a
//! total order of state mutations, two runs are bit-identical exactly when
//! their logs are equal — this is how the parallel scheduler's determinism
//! claim (same result for any thread count) becomes a checkable invariant
//! rather than a comment.
//!
//! [`ReplayLog::verify`] additionally replays the log against this crate's
//! own occupancy model (no `PlacementState`, no `SegmentMap`): every
//! operation must keep the placement site-aligned, in-core,
//! parity-correct, fence-contained, and overlap-free at every intermediate
//! step, not just at the end.

use std::fmt;

use mcl_db::cell::{CellId, RowParity};
use mcl_db::design::Design;
use mcl_db::geom::{Dbu, Point};

use crate::legality::{clipped_rows, FenceSpans};

/// One committed placement mutation, with what it overwrote.
///
/// `Remove` and `ShiftX` carry the position they replaced, so every op can
/// be inverted from the log alone: undoing the ops after a mark, newest
/// first, and truncating the log back to that mark is how an uncommitted
/// stage or ECO delta leaves the placement and the log. The before-fields
/// follow from the log's prefix, so [`ReplayLog::digest`] leaves them out
/// and [`ReplayLog::verify`] checks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOp {
    /// Cell placed with its lower-left corner at `(x, y)`.
    Place {
        /// Cell placed.
        cell: CellId,
        /// Lower-left x.
        x: Dbu,
        /// Lower-left y.
        y: Dbu,
    },
    /// Cell removed from the placement.
    Remove {
        /// Cell removed.
        cell: CellId,
        /// Lower-left x it vacated.
        x: Dbu,
        /// Lower-left y it vacated.
        y: Dbu,
    },
    /// Placed cell moved horizontally to `x` within its rows.
    ShiftX {
        /// Cell shifted.
        cell: CellId,
        /// Lower-left x before the shift.
        from: Dbu,
        /// New lower-left x.
        x: Dbu,
    },
}

impl ReplayOp {
    /// The cell the op mutates.
    pub fn cell(self) -> CellId {
        match self {
            ReplayOp::Place { cell, .. }
            | ReplayOp::Remove { cell, .. }
            | ReplayOp::ShiftX { cell, .. } => cell,
        }
    }
}

/// A record of placement mutations, in commit order: appended to, and
/// split at a mark when the ops after it are undone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayLog {
    ops: Vec<ReplayOp>,
}

impl ReplayLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a successful placement.
    pub fn record_place(&mut self, cell: CellId, x: Dbu, y: Dbu) {
        self.ops.push(ReplayOp::Place { cell, x, y });
    }

    /// Records the removal of a cell from `(x, y)`.
    pub fn record_remove(&mut self, cell: CellId, x: Dbu, y: Dbu) {
        self.ops.push(ReplayOp::Remove { cell, x, y });
    }

    /// Records a horizontal shift from `from` to `x`.
    pub fn record_shift_x(&mut self, cell: CellId, from: Dbu, x: Dbu) {
        self.ops.push(ReplayOp::ShiftX { cell, from, x });
    }

    /// The recorded operations in commit order.
    pub fn ops(&self) -> &[ReplayOp] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Splits the log at `mark`: returns the operations from `mark` on,
    /// keeping those before it.
    pub fn split_off(&mut self, mark: usize) -> ReplayLog {
        ReplayLog {
            ops: self.ops.split_off(mark.min(self.ops.len())),
        }
    }

    /// Order-sensitive FNV-1a digest of the log. Equal digests on runs with
    /// different thread counts are the determinism invariant. The
    /// before-fields of `Remove` and `ShiftX` are not hashed: they follow
    /// from the ops before them.
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for op in &self.ops {
            match *op {
                ReplayOp::Place { cell, x, y } => {
                    eat(1);
                    eat(u64::from(cell.0));
                    eat(x as u64);
                    eat(y as u64);
                }
                ReplayOp::Remove { cell, .. } => {
                    eat(2);
                    eat(u64::from(cell.0));
                }
                ReplayOp::ShiftX { cell, x, .. } => {
                    eat(3);
                    eat(u64::from(cell.0));
                    eat(x as u64);
                }
            }
        }
        h
    }

    /// Replays the log against an independent occupancy model of `design`
    /// (cells at their *input* state: movable cells unplaced, fixed cells
    /// as blockages). Every intermediate state must be legal.
    ///
    /// Returns the final position of every cell on success.
    ///
    /// # Errors
    ///
    /// Returns the first operation that violates a hard constraint.
    pub fn verify(&self, design: &Design) -> Result<Vec<Option<Point>>, ReplayError> {
        Replayer::new(design).run(&self.ops)
    }
}

/// A replay verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the offending operation in the log.
    pub op_index: usize,
    /// Cell the operation addressed.
    pub cell: CellId,
    /// What went wrong.
    pub kind: ReplayErrorKind,
}

/// Why a replayed operation is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayErrorKind {
    /// Cell id out of range for the design.
    UnknownCell,
    /// Operation addressed a fixed cell.
    FixedCell,
    /// Place on a cell that is already placed.
    AlreadyPlaced,
    /// Remove or shift on a cell that is not placed.
    NotPlaced,
    /// Target position off the site or row grid.
    Misaligned,
    /// Target rectangle leaves the core.
    OutOfCore,
    /// Target row violates the cell's rail parity.
    BadParity,
    /// Target span not contained in a segment of the cell's fence.
    OutsideFence,
    /// Target rectangle overlaps another cell or a fixed blockage.
    Overlap(CellId),
    /// A remove or shift records a before-position other than where the
    /// cell is.
    WrongOrigin,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay op {} on cell {}: {:?}",
            self.op_index, self.cell.0, self.kind
        )
    }
}

impl std::error::Error for ReplayError {}

/// Occupancy of one placed rectangle.
#[derive(Clone, Copy)]
struct Footprint {
    xl: Dbu,
    xh: Dbu,
    row_lo: usize,
    row_hi: usize,
    id: CellId,
}

struct Replayer<'a> {
    design: &'a Design,
    spans: FenceSpans,
    /// Fixed blockages, immutable during replay.
    fixed: Vec<Footprint>,
    /// Footprints of currently placed movable cells, keyed by cell index.
    placed: Vec<Option<Footprint>>,
}

impl<'a> Replayer<'a> {
    fn new(design: &'a Design) -> Self {
        let rh = design.tech.row_height;
        let fixed = design
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.fixed)
            .filter_map(|(i, c)| {
                let p = c.pos?;
                let ct = &design.cell_types[c.type_id.0 as usize];
                let (row_lo, row_hi) = clipped_rows(
                    p.y,
                    p.y + i64::from(ct.height_rows) * rh,
                    design.core.yl,
                    rh,
                    design.num_rows,
                );
                (row_lo < row_hi).then_some(Footprint {
                    xl: p.x,
                    xh: p.x + ct.width,
                    row_lo,
                    row_hi,
                    id: CellId(i as u32),
                })
            })
            .collect();
        Self {
            design,
            spans: FenceSpans::build(design),
            fixed,
            placed: vec![None; design.cells.len()],
        }
    }

    /// Validates that `cell` may legally occupy `[xl, xh)` starting at
    /// `row`, ignoring its own current footprint.
    fn check_site(
        &self,
        cell: CellId,
        xl: Dbu,
        y: Dbu,
        enforce_parity: bool,
    ) -> Result<Footprint, ReplayErrorKind> {
        let d = self.design;
        let c = &d.cells[cell.0 as usize];
        let ct = &d.cell_types[c.type_id.0 as usize];
        let xh = xl + ct.width;
        let yh = y + i64::from(ct.height_rows) * d.tech.row_height;

        if xl < d.core.xl || xh > d.core.xh || y < d.core.yl || yh > d.core.yh {
            return Err(ReplayErrorKind::OutOfCore);
        }
        if (xl - d.core.xl).rem_euclid(d.tech.site_width) != 0
            || (y - d.core.yl) % d.tech.row_height != 0
        {
            return Err(ReplayErrorKind::Misaligned);
        }
        let row = ((y - d.core.yl) / d.tech.row_height) as usize;
        if enforce_parity {
            let ok = match ct.rail_parity {
                Some(RowParity::Even) => row % 2 == 0,
                Some(RowParity::Odd) => row % 2 == 1,
                // Free cells take whatever flip the row needs; the scheduler
                // assigns the orientation at write-back.
                None => true,
            };
            if !ok {
                return Err(ReplayErrorKind::BadParity);
            }
        }
        let row_hi = row + ct.height_rows as usize;
        if !(row..row_hi).all(|rr| self.spans.covers(rr, c.fence.0, xl, xh)) {
            return Err(ReplayErrorKind::OutsideFence);
        }

        let fp = Footprint {
            xl,
            xh,
            row_lo: row,
            row_hi,
            id: cell,
        };
        for other in self
            .fixed
            .iter()
            .chain(self.placed.iter().flatten())
            .filter(|o| o.id != cell)
        {
            if other.xl < fp.xh
                && fp.xl < other.xh
                && other.row_lo < fp.row_hi
                && fp.row_lo < other.row_hi
            {
                return Err(ReplayErrorKind::Overlap(other.id));
            }
        }
        Ok(fp)
    }

    fn run(mut self, ops: &[ReplayOp]) -> Result<Vec<Option<Point>>, ReplayError> {
        let d = self.design;
        let rh = d.tech.row_height;
        for (op_index, op) in ops.iter().enumerate() {
            let cell = op.cell();
            let fail = |kind| ReplayError {
                op_index,
                cell,
                kind,
            };
            let idx = cell.0 as usize;
            if idx >= d.cells.len() {
                return Err(fail(ReplayErrorKind::UnknownCell));
            }
            if d.cells[idx].fixed {
                return Err(fail(ReplayErrorKind::FixedCell));
            }
            match *op {
                ReplayOp::Place { x, y, .. } => {
                    if self.placed[idx].is_some() {
                        return Err(fail(ReplayErrorKind::AlreadyPlaced));
                    }
                    let fp = self.check_site(cell, x, y, true).map_err(fail)?;
                    self.placed[idx] = Some(fp);
                }
                ReplayOp::Remove { x, y, .. } => {
                    let Some(cur) = self.placed[idx].take() else {
                        return Err(fail(ReplayErrorKind::NotPlaced));
                    };
                    if (cur.xl, d.core.yl + cur.row_lo as Dbu * rh) != (x, y) {
                        return Err(fail(ReplayErrorKind::WrongOrigin));
                    }
                }
                ReplayOp::ShiftX { from, x, .. } => {
                    let Some(cur) = self.placed[idx] else {
                        return Err(fail(ReplayErrorKind::NotPlaced));
                    };
                    if cur.xl != from {
                        return Err(fail(ReplayErrorKind::WrongOrigin));
                    }
                    let y = d.core.yl + cur.row_lo as Dbu * rh;
                    let fp = self.check_site(cell, x, y, true).map_err(fail)?;
                    self.placed[idx] = Some(fp);
                }
            }
        }
        Ok(self
            .placed
            .iter()
            .map(|fp| fp.map(|fp| Point::new(fp.xl, d.core.yl + fp.row_lo as Dbu * rh)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_db::prelude::*;

    fn design() -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 1000, 900));
        let s = d.add_cell_type(CellType::new("s", 20, 1));
        for i in 0..3 {
            d.add_cell(Cell::new(format!("c{i}"), s, Point::new(i * 40, 0)));
        }
        d
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = ReplayLog::new();
        a.record_place(CellId(0), 0, 0);
        a.record_place(CellId(1), 40, 0);
        let mut b = ReplayLog::new();
        b.record_place(CellId(1), 40, 0);
        b.record_place(CellId(0), 0, 0);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a, b);
        let mut c = ReplayLog::new();
        c.record_place(CellId(0), 0, 0);
        c.record_place(CellId(1), 40, 0);
        assert_eq!(a.digest(), c.digest());
        assert_eq!(a, c);
    }

    #[test]
    fn verify_accepts_legal_sequence() {
        let d = design();
        let mut log = ReplayLog::new();
        log.record_place(CellId(0), 0, 0);
        log.record_place(CellId(1), 20, 0);
        log.record_shift_x(CellId(1), 20, 40);
        log.record_remove(CellId(0), 0, 0);
        log.record_place(CellId(2), 0, 0);
        let pos = log.verify(&d).expect("legal sequence");
        assert_eq!(pos[0], None);
        assert_eq!(pos[1], Some(Point::new(40, 0)));
        assert_eq!(pos[2], Some(Point::new(0, 0)));
    }

    #[test]
    fn verify_rejects_transient_overlap() {
        let d = design();
        let mut log = ReplayLog::new();
        log.record_place(CellId(0), 0, 0);
        log.record_place(CellId(1), 10, 0); // overlaps cell 0
        log.record_remove(CellId(0), 0, 0); // "fixed" afterwards — still illegal
        let err = log.verify(&d).unwrap_err();
        assert_eq!(err.op_index, 1);
        assert_eq!(err.kind, ReplayErrorKind::Overlap(CellId(0)));
    }

    #[test]
    fn verify_rejects_double_place_and_ghost_ops() {
        let d = design();
        let mut log = ReplayLog::new();
        log.record_place(CellId(0), 0, 0);
        log.record_place(CellId(0), 100, 0);
        assert_eq!(
            log.verify(&d).unwrap_err().kind,
            ReplayErrorKind::AlreadyPlaced
        );
        let mut log = ReplayLog::new();
        log.record_remove(CellId(1), 40, 0);
        assert_eq!(log.verify(&d).unwrap_err().kind, ReplayErrorKind::NotPlaced);
        let mut log = ReplayLog::new();
        log.record_place(CellId(9), 0, 0);
        assert_eq!(
            log.verify(&d).unwrap_err().kind,
            ReplayErrorKind::UnknownCell
        );
    }

    #[test]
    fn verify_rejects_misaligned_shift() {
        let d = design();
        let mut log = ReplayLog::new();
        log.record_place(CellId(0), 0, 0);
        log.record_shift_x(CellId(0), 0, 15);
        assert_eq!(
            log.verify(&d).unwrap_err().kind,
            ReplayErrorKind::Misaligned
        );
    }

    #[test]
    fn verify_rejects_wrong_origins() {
        let d = design();
        for op in [
            ReplayOp::Remove {
                cell: CellId(0),
                x: 20,
                y: 0,
            },
            ReplayOp::Remove {
                cell: CellId(0),
                x: 0,
                y: 90,
            },
            ReplayOp::ShiftX {
                cell: CellId(0),
                from: 20,
                x: 40,
            },
        ] {
            let mut log = ReplayLog::new();
            log.record_place(CellId(0), 0, 0);
            log.ops.push(op);
            let err = log.verify(&d).unwrap_err();
            assert_eq!((err.op_index, err.kind), (1, ReplayErrorKind::WrongOrigin));
        }
    }

    #[test]
    fn ops_stay_24_bytes_and_digest_skips_before_fields() {
        assert_eq!(std::mem::size_of::<ReplayOp>(), 24);
        let mut a = ReplayLog::new();
        a.record_shift_x(CellId(0), 0, 40);
        a.record_remove(CellId(0), 40, 0);
        let mut b = ReplayLog::new();
        b.record_shift_x(CellId(0), 20, 40);
        b.record_remove(CellId(0), 60, 90);
        assert_eq!(a.digest(), b.digest());
        let tail = a.split_off(1);
        assert_eq!(a.len(), 1);
        let removal = ReplayOp::Remove {
            cell: CellId(0),
            x: 40,
            y: 0,
        };
        assert_eq!(tail.ops(), &[removal]);
    }
}
