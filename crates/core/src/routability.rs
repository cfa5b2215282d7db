//! Routability oracle: pin access / pin short queries against the P/G grid
//! and IO pins (§3.4).
//!
//! MGL uses three separate mechanisms (as in the paper):
//!
//! 1. **Horizontal rails** depend only on the row the cell lands on (and its
//!    orientation there) — insertion points whose row causes a violation are
//!    rejected outright ([`RoutOracle::h_rails_ok`]).
//! 2. **Vertical stripes** depend on x — the chosen position is nudged left
//!    or right to the nearest clean x ([`RoutOracle::clear_x_right`] /
//!    [`RoutOracle::clear_x_left`]).
//! 3. **IO pins** incur a cost penalty per overlap
//!    ([`RoutOracle::io_overlaps`]).

use mcl_db::prelude::*;

/// Routability query object for one design.
#[derive(Debug)]
pub struct RoutOracle<'d> {
    design: &'d Design,
    /// IO pin rects per layer, sorted by xl.
    io_by_layer: Vec<Vec<Rect>>,
    io_max_w: Dbu,
    /// Horizontal-rail verdict per `(type, base_row % period)`, row-major
    /// by type: `h_ok[type * cols + residue]`.
    h_ok: Vec<bool>,
    /// Residues tabulated per type: the period, capped at the row count
    /// (a larger residue belongs to no row of the design).
    cols: usize,
    /// Row period after which rail geometry (and parity) repeats.
    period: usize,
}

impl<'d> RoutOracle<'d> {
    /// Builds the oracle.
    pub fn new(design: &'d Design) -> Self {
        let nl = design.tech.num_layers as usize + 2;
        let mut io_by_layer = vec![Vec::new(); nl];
        let mut io_max_w = 0;
        for p in &design.io_pins {
            if (p.layer as usize) < nl {
                io_by_layer[p.layer as usize].push(p.rect);
                io_max_w = io_max_w.max(p.rect.width());
            }
        }
        for v in &mut io_by_layer {
            v.sort_unstable_by_key(|r| r.xl);
        }
        let pitch = design.grid.h_pitch_rows.max(1) as usize;
        // Orientation repeats every 2 rows; rail offsets every `pitch` rows.
        let period = lcm(2, pitch);
        // Rails sit at multiples of the pitch from the core's bottom edge,
        // so a base row's verdict is its residue's, computed once here.
        let cols = period.min(design.num_rows.max(1));
        let h_ok = (0..design.cell_types.len())
            .flat_map(|t| (0..cols).map(move |r| h_rails_clear(design, t, r)))
            .collect();
        Self {
            design,
            io_by_layer,
            io_max_w,
            h_ok,
            cols,
            period,
        }
    }

    /// Whether placing `type_id` with its bottom on `base_row` keeps all its
    /// pins clear of horizontal P/G rails (both short and access layers).
    pub fn h_rails_ok(&self, type_id: CellTypeId, base_row: usize) -> bool {
        let residue = base_row % self.period;
        if residue < self.cols {
            self.h_ok[type_id.0 as usize * self.cols + residue]
        } else {
            h_rails_clear(self.design, type_id.0 as usize, base_row)
        }
    }

    /// Number of pins of `type_id` at `(x, base_row)` that overlap a
    /// vertical P/G stripe (short or access).
    pub fn v_violations(&self, type_id: CellTypeId, base_row: usize, x: Dbu) -> usize {
        let d = self.design;
        let ct = &d.cell_types[type_id.0 as usize];
        let orient = d.orient_for_row(type_id, base_row);
        let mut n = 0;
        for i in 0..ct.pins.len() {
            let local = ct.pin_rect_local(i, orient, d.tech.row_height);
            let xs = Interval::new(x + local.xl, x + local.xh);
            let layer = ct.pins[i].layer;
            if d.grid.v_stripe_overlaps(layer, xs) || d.grid.v_stripe_overlaps(layer + 1, xs) {
                n += 1;
            }
        }
        n
    }

    /// Smallest `x' >= x` such that no pin overlaps a vertical stripe, or
    /// `None` when none exists at or below `limit`.
    pub fn clear_x_right(
        &self,
        type_id: CellTypeId,
        base_row: usize,
        x: Dbu,
        limit: Dbu,
    ) -> Option<Dbu> {
        let d = self.design;
        let sw = d.tech.site_width;
        let mut cur = x;
        // Each pin clears after a bounded shift; iterate a few rounds since
        // clearing one pin may collide another.
        for _ in 0..8 {
            if cur > limit {
                return None;
            }
            let mut shift = 0;
            let ct = &d.cell_types[type_id.0 as usize];
            let orient = d.orient_for_row(type_id, base_row);
            for i in 0..ct.pins.len() {
                let local = ct.pin_rect_local(i, orient, d.tech.row_height);
                let xs = Interval::new(cur + local.xl, cur + local.xh);
                for layer in [ct.pins[i].layer, ct.pins[i].layer + 1] {
                    if let Some(dx) = d.grid.v_clear_shift_right(layer, xs) {
                        shift = shift.max(dx);
                    } else {
                        return None; // pin wider than the clear space
                    }
                }
            }
            if shift == 0 {
                return Some(cur);
            }
            // Snap the shift up to the site grid.
            cur += (shift + sw - 1) / sw * sw;
        }
        None
    }

    /// Mirror of [`Self::clear_x_right`]: largest `x' <= x` clean position,
    /// bounded below by `limit`.
    pub fn clear_x_left(
        &self,
        type_id: CellTypeId,
        base_row: usize,
        x: Dbu,
        limit: Dbu,
    ) -> Option<Dbu> {
        let d = self.design;
        let sw = d.tech.site_width;
        let mut cur = x;
        for _ in 0..8 {
            if cur < limit {
                return None;
            }
            let mut shift = 0;
            let ct = &d.cell_types[type_id.0 as usize];
            let orient = d.orient_for_row(type_id, base_row);
            for i in 0..ct.pins.len() {
                let local = ct.pin_rect_local(i, orient, d.tech.row_height);
                let xs = Interval::new(cur + local.xl, cur + local.xh);
                for layer in [ct.pins[i].layer, ct.pins[i].layer + 1] {
                    if let Some(dx) = d.grid.v_clear_shift_left(layer, xs) {
                        shift = shift.max(dx);
                    } else {
                        return None;
                    }
                }
            }
            if shift == 0 {
                return Some(cur);
            }
            cur -= (shift + sw - 1) / sw * sw;
        }
        None
    }

    /// Number of pins overlapping IO-pin shapes (own layer or one above) at
    /// `(x, base_row)`.
    pub fn io_overlaps(&self, type_id: CellTypeId, base_row: usize, x: Dbu) -> usize {
        if self.design.io_pins.is_empty() {
            return 0;
        }
        let d = self.design;
        let ct = &d.cell_types[type_id.0 as usize];
        let orient = d.orient_for_row(type_id, base_row);
        let y0 = d.row_y(base_row);
        let mut n = 0;
        for i in 0..ct.pins.len() {
            let local = ct.pin_rect_local(i, orient, d.tech.row_height);
            let abs = local.translate(x, y0);
            for layer in [ct.pins[i].layer, ct.pins[i].layer + 1] {
                if self.layer_io_overlap(layer, abs) {
                    n += 1;
                    break;
                }
            }
        }
        n
    }

    /// The x feasible interval around `x_now` on `base_row` within which
    /// `type_id` stays free of vertical-stripe violations. Returns the
    /// containing maximal clean interval clipped to `[lo, hi]`; when `x_now`
    /// itself is dirty, returns the degenerate `[x_now, x_now]`.
    pub fn clean_x_range(
        &self,
        type_id: CellTypeId,
        base_row: usize,
        x_now: Dbu,
        lo: Dbu,
        hi: Dbu,
    ) -> (Dbu, Dbu) {
        let d = self.design;
        if d.grid.v_pitch == 0 || d.grid.v_width == 0 {
            return (lo, hi);
        }
        if self.v_violations(type_id, base_row, x_now) > 0 {
            return (x_now, x_now);
        }
        // Expand outward in site steps until a dirty position or the bound.
        // Rail pitch bounds the scan.
        let sw = d.tech.site_width;
        let max_steps = (d.grid.v_pitch / sw + 2) as usize;
        let mut l = x_now;
        for _ in 0..max_steps {
            if l - sw < lo || self.v_violations(type_id, base_row, l - sw) > 0 {
                break;
            }
            l -= sw;
        }
        let mut r = x_now;
        for _ in 0..max_steps {
            if r + sw > hi || self.v_violations(type_id, base_row, r + sw) > 0 {
                break;
            }
            r += sw;
        }
        (l.max(lo), r.min(hi))
    }

    /// Independent recount of soft pin violations over every placed movable
    /// cell: `(pin_shorts, pin_access)` — pins overlapping a P/G shape or IO
    /// pin on their own layer, resp. one layer above. The class definitions
    /// match `mcl_db::legal::Checker`, but the totals are recomposed from
    /// the oracle's rail / stripe / IO primitives, giving a second
    /// accounting path for the report cross-check property test.
    pub fn recount_pin_violations(&self) -> (u64, u64) {
        let d = self.design;
        let mut shorts = 0u64;
        let mut access = 0u64;
        for (i, cell) in d.cells.iter().enumerate() {
            if cell.fixed {
                continue;
            }
            let Some(pos) = cell.pos else { continue };
            let id = CellId(i as u32);
            let ct = d.type_of(id);
            for pin in 0..ct.pins.len() {
                let layer = ct.pins[pin].layer;
                let pr = d.pin_rect_at(id, pin, pos, cell.orient);
                if self.pin_rect_blocked(layer, pr) {
                    shorts += 1;
                }
                if self.pin_rect_blocked(layer + 1, pr) {
                    access += 1;
                }
            }
        }
        (shorts, access)
    }

    /// Whether `pr` overlaps any P/G rail, P/G stripe, or IO pin on `layer`.
    fn pin_rect_blocked(&self, layer: u8, pr: Rect) -> bool {
        let d = self.design;
        d.grid
            .h_rail_overlaps(layer, pr.y_interval(), d.core.yl, d.tech.row_height)
            || d.grid.v_stripe_overlaps(layer, pr.x_interval())
            || self.layer_io_overlap(layer, pr)
    }

    fn layer_io_overlap(&self, layer: u8, q: Rect) -> bool {
        let Some(list) = self.io_by_layer.get(layer as usize) else {
            return false;
        };
        let start = list.partition_point(|r| r.xl < q.xl - self.io_max_w);
        list[start..]
            .iter()
            .take_while(|r| r.xl < q.xh)
            .any(|r| r.overlaps(q))
    }
}

/// Whether cell type `t` with its bottom on `base_row` keeps every pin off
/// the horizontal rails, on the pin's layer and the one above.
fn h_rails_clear(d: &Design, t: usize, base_row: usize) -> bool {
    let ct = &d.cell_types[t];
    let orient = d.orient_for_row(CellTypeId(t as u32), base_row);
    let y0 = d.row_y(base_row);
    (0..ct.pins.len()).all(|i| {
        let local = ct.pin_rect_local(i, orient, d.tech.row_height);
        let y = Interval::new(y0 + local.yl, y0 + local.yh);
        let layer = ct.pins[i].layer;
        [layer, layer + 1]
            .into_iter()
            .all(|l| !d.grid.h_rail_overlaps(l, y, d.core.yl, d.tech.row_height))
    })
}

fn lcm(a: usize, b: usize) -> usize {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    };
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 2000, 900));
        d.grid = PowerGrid {
            h_layer: 2,
            h_width: 10,
            h_pitch_rows: 2, // rails only on even row boundaries
            v_layer: 3,
            v_width: 8,
            v_pitch: 200,
            v_offset: 100,
        };
        // Type 0: M2 pin near the top -> violates rails above even rows only.
        let mut risky = CellType::new("risky", 20, 1);
        risky.pins.push(PinShape {
            name: "a".into(),
            layer: 2,
            rect: Rect::new(5, 86, 10, 90),
        });
        d.add_cell_type(risky);
        // Type 1: M2 pin in the middle -> h-clean everywhere; M2 pins check
        // against M3 stripes for access.
        let mut safe = CellType::new("safe", 20, 1);
        safe.pins.push(PinShape {
            name: "a".into(),
            layer: 2,
            rect: Rect::new(5, 40, 10, 50),
        });
        d.add_cell_type(safe);
        d
    }

    #[test]
    fn h_rail_depends_on_row() {
        let d = design();
        let o = RoutOracle::new(&d);
        // Rails at y = 0, 180, 360... Type 0's pin sits at [86, 90) above an
        // even row r: top boundary y=(r+1)*90 has a rail iff (r+1) even ->
        // violations on odd rows. But odd rows flip the cell (FS), moving the
        // pin to [0, 4) near the *bottom* boundary y=r*90, rail iff r even ->
        // clean on odd rows. Net: violation on... check both.
        let risky = CellTypeId(0);
        // Row 1 (odd): FS, pin near bottom at y=90..94; boundary 90 has no
        // rail (90/90=1 odd) -> clean.
        assert!(o.h_rails_ok(risky, 1));
        // Row 2 (even): N, pin near top y=266..270; boundary 270 = row 3
        // boundary -> 270/90 = 3, odd, no rail -> clean too. Row 3: FS, pin
        // at bottom y=270..274, no rail at 270 -> clean. Row 0: N, pin at
        // y=86..90, boundary 90 no rail -> clean. Hmm - rails at 0,180,360:
        // boundary index even. Pin top at boundary (r+1): violation iff
        // (r+1) % 2 == 0 and orientation N (r even) -> r odd... but r odd
        // flips. So this type is always clean; use a symmetric double pin to
        // force a violation.
        for r in 0..6 {
            assert!(o.h_rails_ok(risky, r), "row {r}");
        }
        // A type with pins at both top and bottom violates on rows where
        // either boundary carries a rail.
        let mut d2 = design();
        let mut both = CellType::new("both", 20, 1);
        both.pins.push(PinShape {
            name: "t".into(),
            layer: 2,
            rect: Rect::new(5, 86, 10, 90),
        });
        both.pins.push(PinShape {
            name: "b".into(),
            layer: 2,
            rect: Rect::new(5, 0, 10, 4),
        });
        let both_id = d2.add_cell_type(both);
        let o2 = RoutOracle::new(&d2);
        // Bottom boundary of row r has a rail iff r even; top iff r+1 even.
        // Either way one of the two pins hits a rail on every row.
        for r in 0..4 {
            assert!(!o2.h_rails_ok(both_id, r), "row {r}");
        }
    }

    #[test]
    fn v_violation_and_clearing() {
        let d = design();
        let o = RoutOracle::new(&d);
        let safe = CellTypeId(1);
        // Stripes (M3) centered at x=100, 300, ... width 8 -> [96,104).
        // Pin local x [5,10): at cell x=93 the pin covers [98,103) -> access
        // violation (M2 pin under M3 stripe).
        assert_eq!(o.v_violations(safe, 0, 93), 1);
        assert_eq!(o.v_violations(safe, 0, 120), 0);
        let right = o.clear_x_right(safe, 0, 93, 500).unwrap();
        assert!(right > 93 && o.v_violations(safe, 0, right) == 0);
        let left = o.clear_x_left(safe, 0, 93, 0).unwrap();
        assert!(left < 93 && o.v_violations(safe, 0, left) == 0);
        // Clearing is impossible within a tight limit.
        assert_eq!(o.clear_x_right(safe, 0, 93, 94), None);
    }

    #[test]
    fn clean_x_range_brackets_stripes() {
        let d = design();
        let o = RoutOracle::new(&d);
        let safe = CellTypeId(1);
        let (lo, hi) = o.clean_x_range(safe, 0, 120, 0, 2000);
        assert!(lo <= 120 && hi >= 120);
        // Every site position in range is clean; positions just outside are
        // dirty or out of bounds.
        assert_eq!(o.v_violations(safe, 0, lo), 0);
        assert_eq!(o.v_violations(safe, 0, hi), 0);
        if lo > 0 {
            assert!(o.v_violations(safe, 0, lo - 10) > 0);
        }
        assert!(o.v_violations(safe, 0, hi + 10) > 0);
        // Dirty current position degenerates.
        assert_eq!(o.clean_x_range(safe, 0, 93, 0, 2000), (93, 93));
    }

    #[test]
    fn io_overlap_counted() {
        let mut d = design();
        d.io_pins.push(IoPin {
            name: "io".into(),
            layer: 2,
            rect: Rect::new(500, 40, 520, 60),
        });
        let o = RoutOracle::new(&d);
        let safe = CellTypeId(1);
        // Pin local [5,10)x[40,50): at x=498, abs [503,508)x[40,50) overlaps.
        assert_eq!(o.io_overlaps(safe, 0, 498), 1);
        assert_eq!(o.io_overlaps(safe, 0, 600), 0);
    }

    #[test]
    fn rail_verdicts_repeat_with_the_row_period() {
        // The table holds one verdict per residue; on a generated design
        // with rails, every row must agree with a direct computation. The
        // generator's pins sit mid-row and its rails on every boundary, so
        // a rail pitch of 3 rows (period 6 with the flip) and a type pinned
        // at its top edge make some rows blocked.
        let mut cfg = mcl_gen::GeneratorConfig::small(3);
        cfg.num_cells = 300;
        let mut d = mcl_gen::generate(&cfg).expect("generation succeeds").design;
        assert!(d.grid.h_width > 0, "the generator lays horizontal rails");
        d.grid.h_pitch_rows = 3;
        let (rh, sw) = (d.tech.row_height, d.tech.site_width);
        let mut edge = CellType::new("edge", 2 * sw, 1);
        edge.pins.push(PinShape {
            name: "a".into(),
            layer: d.grid.h_layer,
            rect: Rect::new(0, rh - rh / 8, sw, rh),
        });
        d.add_cell_type(edge);
        let o = RoutOracle::new(&d);
        assert_eq!(o.period, 6);
        let (mut clear, mut blocked) = (0, 0);
        for t in 0..d.cell_types.len() {
            for r in 0..d.num_rows {
                let direct = h_rails_clear(&d, t, r);
                assert_eq!(
                    o.h_rails_ok(CellTypeId(t as u32), r),
                    direct,
                    "type {t} row {r}"
                );
                if direct {
                    clear += 1;
                } else {
                    blocked += 1;
                }
            }
        }
        assert!(clear > 0 && blocked > 0, "{clear} clear, {blocked} blocked");
    }

    #[test]
    fn no_grid_means_everything_clean() {
        let mut d = design();
        d.grid = PowerGrid::none();
        let o = RoutOracle::new(&d);
        assert!(o.h_rails_ok(CellTypeId(0), 0));
        assert_eq!(o.v_violations(CellTypeId(1), 0, 93), 0);
        assert_eq!(o.clean_x_range(CellTypeId(1), 0, 120, 0, 2000), (0, 2000));
    }
}
