//! Mutable placement state shared by all legalization stages.
//!
//! Tracks, for every fence segment, the ordered list of cells currently
//! occupying it. Fixed cells are *not* tracked: segments are built with
//! fixed obstructions already subtracted, so walls seen by the algorithms
//! are segment boundaries and other movable cells only.
//!
//! Every mutation goes through [`PlacementState::place`],
//! [`PlacementState::remove`] or [`PlacementState::shift_x`], each of which
//! either completes or changes nothing, and is recorded in the state's
//! replay log together with the position it overwrote. That log is the
//! state's one journal: `PlacementState::undo_to` rolls a failed stage or
//! ECO delta back to a log mark, and [`PlacementState::touched_since`]
//! derives the cells a delta mutated (the ECO dirty set) from it.

use mcl_audit::ReplayOp;
use mcl_db::prelude::*;

/// Error placing a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// No segment of the cell's fence covers the requested span on `row`.
    NoSegment {
        /// The offending row.
        row: usize,
    },
    /// The requested span overlaps an existing cell.
    Occupied {
        /// The blocking cell.
        by: CellId,
    },
    /// The position violates the row-parity (P/G alignment) rule.
    BadParity,
    /// The position is not site-aligned in x or row-aligned in y.
    Misaligned,
    /// The cell is already placed (remove it first).
    AlreadyPlaced,
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::NoSegment { row } => write!(f, "no covering segment on row {row}"),
            PlaceError::Occupied { by } => write!(f, "span occupied by cell {}", by.0),
            PlaceError::BadParity => f.write_str("row parity violates P/G alignment"),
            PlaceError::Misaligned => f.write_str("position is not site/row aligned"),
            PlaceError::AlreadyPlaced => f.write_str("cell already placed"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// Hot per-cell state in structure-of-arrays layout.
///
/// The legalizer's inner loops (lineup construction, fallback scanning,
/// overlap probes) touch one or two fields of many cells, not many fields
/// of one cell. Keeping each field in its own dense array indexed by
/// `CellId` turns those loops into sequential scans over contiguous
/// memory instead of pointer chases through `Design::cells` and
/// `Design::cell_types`, which is what makes the difference between 4k-
/// and 1M-cell designs. `width`/`height_rows`/`fence` are immutable
/// copies of design data; `x`/`y`/`placed` are the working position.
#[derive(Debug, Clone, Default)]
pub struct CellSoA {
    x: Vec<Dbu>,
    y: Vec<Dbu>,
    placed: Vec<bool>,
    width: Vec<Dbu>,
    height_rows: Vec<u32>,
    fence: Vec<FenceId>,
    edge_class: Vec<(u8, u8)>,
}

impl CellSoA {
    /// Builds the static columns from a design; all cells start unplaced.
    pub fn from_design(design: &Design) -> Self {
        let n = design.cells.len();
        let mut width = Vec::with_capacity(n);
        let mut height_rows = Vec::with_capacity(n);
        let mut fence = Vec::with_capacity(n);
        let mut edge_class = Vec::with_capacity(n);
        for c in &design.cells {
            let ct = &design.cell_types[c.type_id.0 as usize];
            width.push(ct.width);
            height_rows.push(ct.height_rows);
            fence.push(c.fence);
            edge_class.push(ct.edge_class);
        }
        Self {
            x: vec![0; n],
            y: vec![0; n],
            placed: vec![false; n],
            width,
            height_rows,
            fence,
            edge_class,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.placed.len()
    }

    /// Whether the design has no cells.
    pub fn is_empty(&self) -> bool {
        self.placed.is_empty()
    }

    /// Working position, `None` when unplaced.
    #[inline]
    pub fn pos(&self, cell: CellId) -> Option<Point> {
        let i = cell.0 as usize;
        if self.placed[i] {
            Some(Point::new(self.x[i], self.y[i]))
        } else {
            None
        }
    }

    /// Working x of a *placed* cell (stale for unplaced cells — only call
    /// on members of an occupant list).
    #[inline]
    pub fn x(&self, cell: CellId) -> Dbu {
        self.x[cell.0 as usize]
    }

    /// Cell width (cached from the cell type).
    #[inline]
    pub fn width(&self, cell: CellId) -> Dbu {
        self.width[cell.0 as usize]
    }

    /// Right edge `x + width` of a placed cell.
    #[inline]
    pub fn end_x(&self, cell: CellId) -> Dbu {
        let i = cell.0 as usize;
        self.x[i] + self.width[i]
    }

    /// Cell height in rows (cached from the cell type).
    #[inline]
    pub fn height_rows(&self, cell: CellId) -> u32 {
        self.height_rows[cell.0 as usize]
    }

    /// Fence region of the cell.
    #[inline]
    pub fn fence(&self, cell: CellId) -> FenceId {
        self.fence[cell.0 as usize]
    }

    /// `(left, right)` edge classes (cached from the cell type).
    #[inline]
    pub fn edge_class(&self, cell: CellId) -> (u8, u8) {
        self.edge_class[cell.0 as usize]
    }

    #[inline]
    fn set_pos(&mut self, cell: CellId, p: Point) {
        let i = cell.0 as usize;
        self.x[i] = p.x;
        self.y[i] = p.y;
        self.placed[i] = true;
    }

    #[inline]
    fn clear_pos(&mut self, cell: CellId) {
        self.placed[cell.0 as usize] = false;
    }
}

/// Working placement over a design.
#[derive(Debug, Clone)]
pub struct PlacementState<'d> {
    design: &'d Design,
    cols: Columns,
}

/// Everything a [`PlacementState`] owns, apart from its design borrow.
/// [`PlacementState::detach`] and [`PlacementState::attach`] move these
/// columns out of and into a state in O(1), which is how a resident ECO
/// session keeps one state across deltas while owning the design it
/// borrows.
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns {
    segmap: SegmentMap,
    /// Per segment: occupant cells sorted by x.
    seg_cells: Vec<Vec<CellId>>,
    /// Hot per-cell state (positions + cached dimensions), SoA layout.
    soa: CellSoA,
    /// Record of committed mutations in commit order, each with what it
    /// overwrote: consumed by the determinism auditor
    /// (`mcl_audit::replay`), undone by `PlacementState::undo_to`.
    replay: mcl_audit::ReplayLog,
    /// Log mark where the dirty epoch starts: the ops from here on are
    /// the ones [`PlacementState::dirty_cells`] derives from.
    epoch: usize,
    /// Number of placed cells (the state places movable cells only).
    placed: usize,
}

impl Columns {
    /// Writes the working position of `cells` (and their row-derived
    /// orientations) into `design`, the design the columns belong to.
    pub(crate) fn write_back_cells(&self, design: &mut Design, cells: &[CellId]) {
        for &id in cells {
            self.write_cell(design, id);
        }
    }

    fn write_cell(&self, design: &mut Design, id: CellId) {
        let pos = self.soa.pos(id);
        let Some(type_id) = design.cells.get(id.0 as usize).map(|c| c.type_id) else {
            return;
        };
        let orient = pos.map(|p| {
            let row = ((p.y - design.core.yl) / design.tech.row_height) as usize;
            design.orient_for_row(type_id, row)
        });
        if let Some(c) = design.cells.get_mut(id.0 as usize) {
            c.pos = pos;
            c.orient = orient.unwrap_or(c.orient);
        }
    }
}

impl<'d> PlacementState<'d> {
    /// Creates an empty state (no movable cell placed). Pre-placed positions
    /// in the design are ignored; use [`Self::from_design_positions`] to
    /// adopt them.
    ///
    /// Internal segment boundaries (fence edges, blockage edges) are padded
    /// inward by the worst-case edge spacing so cells in adjacent segments
    /// can never violate spacing rules across a boundary the legalizer
    /// cannot see.
    pub fn new(design: &'d Design) -> Self {
        let mut segmap = design.build_segments();
        let sw = design.tech.site_width;
        let pad = {
            let s = design.tech.edge_spacing.max_spacing();
            (s + sw - 1).div_euclid(sw) * sw
        };
        if pad > 0 {
            segmap.pad_internal_edges(design.core.xl, design.core.xh, pad);
        }
        let seg_cells = vec![Vec::new(); segmap.len()];
        Self {
            design,
            cols: Columns {
                segmap,
                seg_cells,
                soa: CellSoA::from_design(design),
                replay: mcl_audit::ReplayLog::new(),
                epoch: 0,
                placed: 0,
            },
        }
    }

    /// Creates a state adopting the design's current (legal) positions.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlaceError`] if an adopted position is not
    /// placeable (e.g. the input was not legal).
    pub fn from_design_positions(design: &'d Design) -> Result<Self, (CellId, PlaceError)> {
        let mut s = Self::new(design);
        for id in design.movable_cells() {
            if let Some(p) = design.cells[id.0 as usize].pos {
                s.place(id, p).map_err(|e| (id, e))?;
            }
        }
        // Adoption is the baseline, not a delta: the epoch starts *after*
        // it so only post-adoption mutations count as dirty.
        s.begin_epoch();
        Ok(s)
    }

    /// Starts a fresh dirty epoch at the current log mark: the dirty set
    /// empties and holds the cells mutated from here on.
    pub fn begin_epoch(&mut self) {
        self.cols.epoch = self.mark();
    }

    /// Moves the owned columns out, ending the design borrow; O(1).
    pub(crate) fn detach(self) -> Columns {
        self.cols
    }

    /// Re-attaches columns taken by [`Self::detach`] to `design`; O(1).
    /// The design must be the one the columns were built over, up to the
    /// per-cell fields the state does not cache (`pos`, `orient`, `gp`).
    pub(crate) fn attach(cols: Columns, design: &'d Design) -> Self {
        debug_assert_eq!(cols.soa.len(), design.cells.len());
        Self { design, cols }
    }

    /// A mark in the replay log: the number of mutations logged so far.
    pub fn mark(&self) -> usize {
        self.cols.replay.len()
    }

    /// Undoes every mutation logged after `mark`, newest first, and
    /// truncates the log back to it: positions, occupant lists and the
    /// placed count are what they were at the mark, and the epoch starts
    /// no later than it. Each op is inverted from what it overwrote; a
    /// re-place lands on the footprint the cell held at that point of the
    /// log, so it cannot fail. Undo runs in `Drop`, so it raises nothing.
    pub(crate) fn undo_to(&mut self, mark: usize) {
        let undone = self.cols.replay.split_off(mark);
        for &op in undone.ops().iter().rev() {
            match op {
                ReplayOp::Place { cell, .. } => self.unplace(cell),
                ReplayOp::Remove { cell, x, y } => {
                    let _ = self.insert(cell, Point::new(x, y));
                }
                ReplayOp::ShiftX { cell, from, .. } => self.cols.soa.x[cell.0 as usize] = from,
            }
        }
        self.cols.epoch = self.cols.epoch.min(mark);
    }

    /// Cells mutated since [`Self::begin_epoch`] (the ECO dirty set): see
    /// [`Self::touched_since`] at the epoch's mark.
    pub fn dirty_cells(&self) -> Vec<(CellId, Option<Rect>)> {
        self.touched_since(self.cols.epoch)
    }

    /// The cells the log's ops after `mark` mutate, in first-touch order,
    /// each with the rect it occupied at the mark (`None` if unplaced).
    ///
    /// A cell's first op after the mark says where it was: a `Place` means
    /// unplaced, a `Remove` or `ShiftX` carries the corner it overwrote. A
    /// shift keeps the row, so a cell first shifted takes its y from its
    /// first later removal, or from its current position if it has none.
    /// Costs a sort of the ops after the mark, nothing per design cell.
    pub fn touched_since(&self, mark: usize) -> Vec<(CellId, Option<Rect>)> {
        let ops = self.cols.replay.ops().get(mark..).unwrap_or_default();
        // Each cell's ops, in commit order, as one run.
        let mut by_cell: Vec<(u32, usize)> = ops.iter().map(|op| op.cell().0).zip(0..).collect();
        by_cell.sort_unstable();
        let mut touched: Vec<(usize, CellId, Option<Rect>)> = by_cell
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let (cell, first) = (CellId(run[0].0), run[0].1);
                let corner = match ops[first] {
                    ReplayOp::Place { .. } => None,
                    ReplayOp::Remove { x, y, .. } => Some(Point::new(x, y)),
                    ReplayOp::ShiftX { from, .. } => run
                        .iter()
                        .find_map(|&(_, i)| match ops[i] {
                            ReplayOp::Remove { y, .. } => Some(y),
                            _ => None,
                        })
                        .or_else(|| self.pos(cell).map(|p| p.y))
                        .map(|y| Point::new(from, y)),
                };
                (first, cell, corner.map(|p| self.rect_at(cell, p)))
            })
            .collect();
        touched.sort_unstable_by_key(|t| t.0);
        touched.into_iter().map(|(_, c, r)| (c, r)).collect()
    }

    /// The rect currently occupied by a placed cell (`None` if unplaced).
    pub fn cell_rect(&self, cell: CellId) -> Option<Rect> {
        self.cols.soa.pos(cell).map(|p| self.rect_at(cell, p))
    }

    /// The rect `cell` would occupy with its lower-left corner at `p`.
    fn rect_at(&self, cell: CellId, p: Point) -> Rect {
        Rect::new(
            p.x,
            p.y,
            p.x + self.cols.soa.width(cell),
            p.y + self.cols.soa.height_rows(cell) as Dbu * self.design.tech.row_height,
        )
    }

    /// The underlying design.
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// The fence segments.
    pub fn segments(&self) -> &SegmentMap {
        &self.cols.segmap
    }

    /// Current working position of a cell.
    #[inline]
    pub fn pos(&self, cell: CellId) -> Option<Point> {
        self.cols.soa.pos(cell)
    }

    /// The hot per-cell state (positions + cached dimensions) in SoA layout.
    #[inline]
    pub fn soa(&self) -> &CellSoA {
        &self.cols.soa
    }

    /// Occupants of segment `seg`, sorted by x.
    pub fn cells_in_segment(&self, seg: usize) -> &[CellId] {
        &self.cols.seg_cells[seg]
    }

    /// The occupants of segment `seg` whose span `[x, x+w)` overlaps
    /// `[lo, hi)`, as a sub-slice located by binary search.
    ///
    /// Occupants are non-overlapping and sorted by x, so both `x` and
    /// `x + w` are monotone along the list and the overlapping run is
    /// contiguous: O(log n + k) instead of the O(n) full-list filter that
    /// stops scaling once rows hold thousands of cells.
    pub fn occupants_overlapping(&self, seg: usize, lo: Dbu, hi: Dbu) -> &[CellId] {
        let list = &self.cols.seg_cells[seg];
        let start = list.partition_point(|&c| self.cols.soa.end_x(c) <= lo);
        let rest = &list[start..];
        let len = rest.partition_point(|&c| self.cols.soa.x(c) < hi);
        &rest[..len]
    }

    /// Bottom row of a placed cell.
    pub fn row_of(&self, cell: CellId) -> Option<usize> {
        self.pos(cell)
            .map(|p| ((p.y - self.design.core.yl) / self.design.tech.row_height) as usize)
    }

    /// Places a movable cell with its lower-left corner at `p` (must be
    /// site- and row-aligned).
    ///
    /// # Errors
    ///
    /// See [`PlaceError`]. On error the state is unchanged.
    pub fn place(&mut self, cell: CellId, p: Point) -> Result<(), PlaceError> {
        self.insert(cell, p)?;
        self.cols.replay.record_place(cell, p.x, p.y);
        Ok(())
    }

    /// [`Self::place`] without the log entry.
    fn insert(&mut self, cell: CellId, p: Point) -> Result<(), PlaceError> {
        if self.cols.soa.pos(cell).is_some() {
            return Err(PlaceError::AlreadyPlaced);
        }
        let d = self.design;
        let ct = d.type_of(cell);
        let fence = self.cols.soa.fence(cell);
        if !d.tech.is_site_aligned(d.core.xl, p.x)
            || (p.y - d.core.yl).rem_euclid(d.tech.row_height) != 0
        {
            return Err(PlaceError::Misaligned);
        }
        let row = ((p.y - d.core.yl) / d.tech.row_height) as usize;
        if let Some(par) = ct.rail_parity {
            if !par.matches(row) {
                return Err(PlaceError::BadParity);
            }
        }
        let span = Interval::new(p.x, p.x + ct.width);
        let h = ct.height_rows as usize;
        // Validate all rows first.
        let mut segs = Vec::with_capacity(h);
        for r in row..row + h {
            let Some(seg_idx) = self.find_covering_segment(r, fence, span) else {
                return Err(PlaceError::NoSegment { row: r });
            };
            // Overlap test against neighbors in the segment.
            let list = &self.cols.seg_cells[seg_idx];
            let idx = self.insert_index(list, p.x);
            if idx < list.len() {
                let nb = list[idx];
                if self.cols.soa.x(nb) < span.hi {
                    return Err(PlaceError::Occupied { by: nb });
                }
            }
            if idx > 0 {
                let nb = list[idx - 1];
                if self.cols.soa.end_x(nb) > span.lo {
                    return Err(PlaceError::Occupied { by: nb });
                }
            }
            segs.push(seg_idx);
        }
        // Commit.
        self.cols.soa.set_pos(cell, p);
        self.cols.placed += 1;
        for seg_idx in segs {
            let idx = self.insert_index(&self.cols.seg_cells[seg_idx], p.x);
            self.cols.seg_cells[seg_idx].insert(idx, cell);
        }
        Ok(())
    }

    /// Removes a placed cell from the state.
    ///
    /// # Panics
    ///
    /// Panics, before changing anything, if the cell is not placed.
    pub fn remove(&mut self, cell: CellId) {
        let p = self.cols.soa.pos(cell).expect("cell not placed");
        self.unplace(cell);
        self.cols.replay.record_remove(cell, p.x, p.y);
    }

    /// [`Self::remove`] without the log entry. Every row's segment is
    /// found before anything changes.
    fn unplace(&mut self, cell: CellId) {
        let rows: Vec<(usize, usize)> = self.segment_memberships(cell).collect();
        // Rows are distinct segments: removing the cell from one leaves the
        // indices found in the others valid.
        for (seg_idx, i) in rows {
            self.cols.seg_cells[seg_idx].remove(i);
        }
        self.cols.soa.clear_pos(cell);
        self.cols.placed -= 1;
    }

    /// Horizontally shifts a placed cell to `new_x`. The caller must
    /// guarantee the cell's order among its segment neighbors is unchanged
    /// and the span stays inside its segments; this is checked with debug
    /// assertions only (hot path of the spreading step).
    pub fn shift_x(&mut self, cell: CellId, new_x: Dbu) {
        let p = self.cols.soa.pos(cell).expect("cell not placed");
        debug_assert!(self.shift_is_order_preserving(cell, new_x));
        self.cols.soa.set_pos(cell, Point::new(new_x, p.y));
        self.cols.replay.record_shift_x(cell, p.x, new_x);
    }

    /// Takes ownership of the replay log of every committed mutation since
    /// construction (or the last take), leaving an empty one at which the
    /// epoch restarts.
    pub fn take_replay_log(&mut self) -> mcl_audit::ReplayLog {
        self.cols.epoch = 0;
        std::mem::take(&mut self.cols.replay)
    }

    #[allow(dead_code)]
    fn shift_is_order_preserving(&self, cell: CellId, new_x: Dbu) -> bool {
        let w = self.cols.soa.width(cell);
        for (seg_idx, i) in self.segment_memberships(cell) {
            let list = &self.cols.seg_cells[seg_idx];
            if i > 0 && new_x < self.cols.soa.end_x(list[i - 1]) {
                return false;
            }
            if i + 1 < list.len() && new_x + w > self.cols.soa.x(list[i + 1]) {
                return false;
            }
            let seg = &self.segments().segments()[seg_idx];
            if new_x < seg.x.lo || new_x + w > seg.x.hi {
                return false;
            }
        }
        true
    }

    /// The segments a placed cell occupies, bottom row first.
    ///
    /// # Panics
    ///
    /// When the cell is not placed, or (on a corrupted state) a row of it
    /// has no covering segment; the panic comes when the iterator reaches
    /// that row.
    pub fn segments_of(&self, cell: CellId) -> impl Iterator<Item = usize> + '_ {
        let p = self.cols.soa.pos(cell).expect("cell not placed");
        let row = ((p.y - self.design.core.yl) / self.design.tech.row_height) as usize;
        let span = Interval::new(p.x, p.x + self.cols.soa.width(cell));
        let fence = self.cols.soa.fence(cell);
        (row..row + self.cols.soa.height_rows(cell) as usize).map(move |r| {
            self.find_covering_segment(r, fence, span)
                .expect("placed cell must have segments")
        })
    }

    /// [`Self::segments_of`] with the cell's index in each segment's
    /// occupant list. Occupant lists are sorted by x and their spans are
    /// disjoint, so the index is a binary search on the cell's x; nothing
    /// is allocated.
    ///
    /// # Panics
    ///
    /// As [`Self::segments_of`], and when a segment's list lacks the cell.
    pub fn segment_memberships(&self, cell: CellId) -> impl Iterator<Item = (usize, usize)> + '_ {
        let x = self.cols.soa.x(cell);
        self.segments_of(cell).map(move |seg_idx| {
            let list = &self.cols.seg_cells[seg_idx];
            let i = list.partition_point(|&c| self.cols.soa.x(c) < x);
            assert!(
                list.get(i) == Some(&cell),
                "cell must be in its segment list"
            );
            (seg_idx, i)
        })
    }

    /// Index of the segment on `row` of fence `fence` covering `span`.
    pub fn find_covering_segment(
        &self,
        row: usize,
        fence: FenceId,
        span: Interval,
    ) -> Option<usize> {
        self.cols.segmap.in_row(row).iter().copied().find(|&i| {
            let s = &self.cols.segmap.segments()[i];
            s.fence == fence && s.x.covers(span)
        })
    }

    /// Segments on `row` of fence `fence` overlapping the x window.
    pub fn segments_overlapping(
        &self,
        row: usize,
        fence: FenceId,
        window: Interval,
    ) -> impl Iterator<Item = usize> + '_ {
        self.cols
            .segmap
            .in_row(row)
            .iter()
            .copied()
            .filter(move |&i| {
                let s = &self.cols.segmap.segments()[i];
                s.fence == fence && s.x.overlaps(window)
            })
    }

    /// Number of placed cells; O(1).
    pub fn placed_count(&self) -> usize {
        self.cols.placed
    }

    /// Writes the working positions (and row-derived orientations) back into
    /// a clone of the design.
    pub fn write_back(&self, design: &mut Design) {
        for id in self.design.movable_cells() {
            self.cols.write_cell(design, id);
        }
    }

    fn insert_index(&self, list: &[CellId], x: Dbu) -> usize {
        list.partition_point(|&c| self.cols.soa.x(c) < x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 1000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("m", 30, 2));
        for i in 0..8 {
            let t = if i % 3 == 2 {
                CellTypeId(1)
            } else {
                CellTypeId(0)
            };
            d.add_cell(Cell::new(format!("c{i}"), t, Point::new(i as Dbu * 40, 0)));
        }
        d
    }

    #[test]
    fn place_and_remove_roundtrip() {
        let d = design();
        let mut s = PlacementState::new(&d);
        s.place(CellId(0), Point::new(0, 0)).unwrap();
        s.place(CellId(1), Point::new(20, 0)).unwrap();
        assert_eq!(s.pos(CellId(0)), Some(Point::new(0, 0)));
        assert_eq!(s.placed_count(), 2);
        s.remove(CellId(0));
        assert_eq!(s.pos(CellId(0)), None);
        assert_eq!(s.placed_count(), 1);
        // Slot is free again.
        s.place(CellId(3), Point::new(0, 0)).unwrap();
    }

    #[test]
    fn overlap_rejected() {
        let d = design();
        let mut s = PlacementState::new(&d);
        s.place(CellId(0), Point::new(0, 0)).unwrap();
        assert_eq!(
            s.place(CellId(1), Point::new(10, 0)),
            Err(PlaceError::Occupied { by: CellId(0) })
        );
        // Touching is fine.
        s.place(CellId(1), Point::new(20, 0)).unwrap();
    }

    #[test]
    fn multi_row_occupies_both_rows() {
        let d = design();
        let mut s = PlacementState::new(&d);
        s.place(CellId(2), Point::new(100, 0)).unwrap(); // 2-row cell
                                                         // Single-row cell colliding on row 1.
        assert!(matches!(
            s.place(CellId(0), Point::new(110, 90)),
            Err(PlaceError::Occupied { .. })
        ));
        // And on row 0.
        assert!(matches!(
            s.place(CellId(1), Point::new(110, 0)),
            Err(PlaceError::Occupied { .. })
        ));
    }

    #[test]
    fn parity_enforced_for_even_height() {
        let d = design();
        let mut s = PlacementState::new(&d);
        assert_eq!(
            s.place(CellId(2), Point::new(0, 90)),
            Err(PlaceError::BadParity)
        );
        s.place(CellId(2), Point::new(0, 180)).unwrap();
    }

    #[test]
    fn no_segment_outside_core() {
        let d = design();
        let mut s = PlacementState::new(&d);
        assert!(matches!(
            s.place(CellId(0), Point::new(990, 0)),
            Err(PlaceError::NoSegment { .. })
        ));
    }

    #[test]
    fn fence_respected() {
        let mut d = design();
        let f = d.add_fence(FenceRegion::new("g", vec![Rect::new(500, 0, 700, 180)]));
        d.cells[0].fence = f;
        let mut s = PlacementState::new(&d);
        // Outside its fence: no covering segment of that fence.
        assert!(matches!(
            s.place(CellId(0), Point::new(0, 0)),
            Err(PlaceError::NoSegment { .. })
        ));
        s.place(CellId(0), Point::new(500, 0)).unwrap();
        // Default-fence cell can't sit inside the fence.
        assert!(matches!(
            s.place(CellId(1), Point::new(600, 0)),
            Err(PlaceError::NoSegment { .. })
        ));
    }

    #[test]
    fn shift_x_moves_within_gap() {
        let d = design();
        let mut s = PlacementState::new(&d);
        s.place(CellId(0), Point::new(0, 0)).unwrap();
        s.place(CellId(1), Point::new(100, 0)).unwrap();
        s.shift_x(CellId(1), 50);
        assert_eq!(s.pos(CellId(1)).unwrap().x, 50);
        let m: Vec<(usize, usize)> = s.segment_memberships(CellId(1)).collect();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 1, "order preserved");
    }

    #[test]
    fn from_design_positions_adopts_legal_input() {
        let mut d = design();
        d.cells[0].pos = Some(Point::new(0, 0));
        d.cells[1].pos = Some(Point::new(40, 0));
        let s = PlacementState::from_design_positions(&d).unwrap();
        assert_eq!(s.placed_count(), 2);
        assert_eq!(
            s.cells_in_segment(s.segment_memberships(CellId(0)).next().unwrap().0)
                .len(),
            2
        );
    }

    #[test]
    fn occupants_overlapping_matches_linear_filter() {
        let d = design();
        let mut s = PlacementState::new(&d);
        // Cells 0/1/3/4 are 20 wide on row 0 at x = 0, 40, 120, 200.
        for (id, x) in [(0u32, 0), (1, 40), (3, 120), (4, 200)] {
            s.place(CellId(id), Point::new(x, 0)).unwrap();
        }
        let seg = s.segment_memberships(CellId(0)).next().unwrap().0;
        for (lo, hi) in [(0, 1000), (10, 130), (20, 40), (60, 120), (500, 900)] {
            let fast: Vec<CellId> = s.occupants_overlapping(seg, lo, hi).to_vec();
            let slow: Vec<CellId> = s
                .cells_in_segment(seg)
                .iter()
                .copied()
                .filter(|&c| s.soa().end_x(c) > lo && s.soa().x(c) < hi)
                .collect();
            assert_eq!(fast, slow, "window [{lo},{hi})");
        }
        // SoA static columns mirror the design.
        assert_eq!(s.soa().width(CellId(2)), 30);
        assert_eq!(s.soa().height_rows(CellId(2)), 2);
        assert_eq!(s.soa().fence(CellId(2)), FenceId::DEFAULT);
    }

    #[test]
    fn from_design_positions_rejects_overlap() {
        let mut d = design();
        d.cells[0].pos = Some(Point::new(0, 0));
        d.cells[1].pos = Some(Point::new(10, 0));
        assert!(PlacementState::from_design_positions(&d).is_err());
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// One random mutation: place an unplaced cell at a random aligned
    /// corner, or remove or shift a placed one; a move the state would
    /// reject is skipped.
    fn random_op(s: &mut PlacementState<'_>, rng: &mut u64) {
        let d = s.design();
        let (sw, rh) = (d.tech.site_width, d.tech.row_height);
        let cell = CellId((xorshift(rng) % d.cells.len() as u64) as u32);
        match s.pos(cell) {
            None => {
                let x = (xorshift(rng) % (d.core.width() / sw) as u64) as Dbu * sw;
                let y = (xorshift(rng) % d.num_rows as u64) as Dbu * rh;
                let _ = s.place(cell, Point::new(x, y));
            }
            Some(_) if xorshift(rng) % 3 == 0 => s.remove(cell),
            Some(p) => {
                let x = p.x + ((xorshift(rng) % 7) as Dbu - 3) * sw;
                if s.shift_is_order_preserving(cell, x) {
                    s.shift_x(cell, x);
                }
            }
        }
    }

    type Snapshot = (
        Vec<Option<Point>>,
        Vec<Vec<CellId>>,
        usize,
        Vec<(CellId, Option<Rect>)>,
        Vec<ReplayOp>,
    );

    fn snapshot(s: &PlacementState<'_>) -> Snapshot {
        let n = s.design().cells.len() as u32;
        (
            (0..n).map(|i| s.pos(CellId(i))).collect(),
            s.cols.seg_cells.clone(),
            s.placed_count(),
            s.dirty_cells(),
            s.cols.replay.ops().to_vec(),
        )
    }

    #[test]
    fn undo_to_a_mark_restores_the_state_cloned_at_it() {
        let mut d = Design::new("u", Technology::example(), Rect::new(0, 0, 400, 360));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("m", 30, 2));
        for i in 0..24 {
            let t = CellTypeId(u32::from(i % 4 == 3));
            d.add_cell(Cell::new(format!("c{i}"), t, Point::new(0, 0)));
        }
        for seed in 1..=200u64 {
            let mut rng = seed;
            let steps = |rng: &mut u64| 1 + xorshift(rng) % 40;
            let mut s = PlacementState::new(&d);
            for _ in 0..steps(&mut rng) {
                random_op(&mut s, &mut rng);
            }
            // An epoch opened before the mark, and a detach/attach round
            // trip between the mark and the undo.
            s.begin_epoch();
            for _ in 0..steps(&mut rng) {
                random_op(&mut s, &mut rng);
            }
            let mark = s.mark();
            let at_mark = s.clone();
            let mut s = PlacementState::attach(s.detach(), &d);
            for _ in 0..steps(&mut rng) {
                random_op(&mut s, &mut rng);
            }
            s.undo_to(mark);
            assert_eq!(snapshot(&s), snapshot(&at_mark), "seed {seed}");
            // All the way back: nothing placed, nothing dirty.
            s.undo_to(0);
            assert_eq!(snapshot(&s), snapshot(&PlacementState::new(&d)));
        }
    }

    #[test]
    fn dirty_cells_keep_the_corner_each_cell_held_at_the_epoch() {
        let mut d = design();
        for (i, x) in [(0usize, 0), (1, 40), (3, 120)] {
            d.cells[i].pos = Some(Point::new(x, 0));
        }
        let mut s = PlacementState::from_design_positions(&d).unwrap();
        s.shift_x(CellId(1), 60);
        s.remove(CellId(1));
        s.place(CellId(1), Point::new(300, 90)).unwrap();
        s.shift_x(CellId(3), 140);
        s.place(CellId(4), Point::new(0, 90)).unwrap();
        s.remove(CellId(0));
        let rect = |x, y| Some(Rect::new(x, y, x + 20, y + 90));
        assert_eq!(
            s.dirty_cells(),
            vec![
                (CellId(1), rect(40, 0)),
                (CellId(3), rect(120, 0)),
                (CellId(4), None),
                (CellId(0), rect(0, 0)),
            ]
        );
        assert_eq!(s.touched_since(s.mark()), vec![]);
    }

    #[test]
    fn write_back_sets_orientation() {
        let d = design();
        let mut s = PlacementState::new(&d);
        s.place(CellId(0), Point::new(0, 90)).unwrap(); // odd row
        let mut out = d.clone();
        s.write_back(&mut out);
        assert_eq!(out.cells[0].pos, Some(Point::new(0, 90)));
        assert_eq!(out.cells[0].orient, Orient::FS);
    }
}
