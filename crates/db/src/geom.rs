//! Integer geometry primitives used throughout the placement database.
//!
//! All coordinates are in database units ([`Dbu`]). Rectangles and intervals
//! are half-open: a point `p` lies inside `[lo, hi)`.

use std::fmt;

/// A database unit. One site is [`crate::Technology::site_width`] of these;
/// one row is [`crate::Technology::row_height`].
pub type Dbu = i64;

/// Converts a float to [`Dbu`], truncating toward zero and saturating at the
/// `i64` range; `NaN` maps to zero.
///
/// This is the single sanctioned float→integer conversion point for
/// coordinates: everywhere else, bare `as` casts between float and integer
/// types are rejected by `cargo xtask analyze` so that silent truncation cannot
/// creep into displacement math.
///
/// ```
/// use mcl_db::geom::dbu_from_f64_saturating;
/// assert_eq!(dbu_from_f64_saturating(41.9), 41);
/// assert_eq!(dbu_from_f64_saturating(-41.9), -41);
/// assert_eq!(dbu_from_f64_saturating(f64::INFINITY), i64::MAX);
/// assert_eq!(dbu_from_f64_saturating(f64::NAN), 0);
/// ```
pub fn dbu_from_f64_saturating(v: f64) -> Dbu {
    // Rust's float-to-int `as` casts saturate and map NaN to zero; this
    // wrapper exists to give that behavior a name and a choke point.
    v as i64
}

/// Converts a [`Dbu`] to `f64` for ratio/penalty math. Exact up to ±2⁵³;
/// beyond that the nearest representable double is returned, which is
/// acceptable for cost curves but not for coordinates — never round-trip
/// positions through this.
pub fn dbu_to_f64(v: Dbu) -> f64 {
    v as f64
}

/// A point in database units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Dbu,
    /// Vertical coordinate.
    pub y: Dbu,
}

impl Point {
    /// Creates a point from its coordinates.
    pub const fn new(x: Dbu, y: Dbu) -> Self {
        Self { x, y }
    }

    /// Manhattan (L1) distance to another point.
    ///
    /// ```
    /// use mcl_db::geom::Point;
    /// assert_eq!(Point::new(0, 0).manhattan(Point::new(3, -4)), 7);
    /// ```
    pub fn manhattan(self, other: Point) -> Dbu {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(Dbu, Dbu)> for Point {
    fn from((x, y): (Dbu, Dbu)) -> Self {
        Self { x, y }
    }
}

/// A half-open interval `[lo, hi)` on one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: Dbu,
    /// Exclusive upper bound.
    pub hi: Dbu,
}

impl Interval {
    /// Creates an interval. An interval with `hi <= lo` is empty.
    pub const fn new(lo: Dbu, hi: Dbu) -> Self {
        Self { lo, hi }
    }

    /// Length of the interval; zero when empty.
    pub fn len(self) -> Dbu {
        (self.hi - self.lo).max(0)
    }

    /// Whether the interval contains no point.
    pub fn is_empty(self) -> bool {
        self.hi <= self.lo
    }

    /// Whether `x` lies inside `[lo, hi)`.
    pub fn contains(self, x: Dbu) -> bool {
        self.lo <= x && x < self.hi
    }

    /// Whether `other` lies fully inside `self` (using the closed sense for
    /// the upper bound so that `[0,10)` covers `[3,10)`).
    pub fn covers(self, other: Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Intersection of two intervals (possibly empty).
    pub fn intersect(self, other: Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Whether the two intervals overlap on a set of positive length
    /// (an empty interval overlaps nothing, even when it lies inside).
    pub fn overlaps(self, other: Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo < other.hi && other.lo < self.hi
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// An axis-aligned rectangle, half-open on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Left edge.
    pub xl: Dbu,
    /// Bottom edge.
    pub yl: Dbu,
    /// Right edge (exclusive).
    pub xh: Dbu,
    /// Top edge (exclusive).
    pub yh: Dbu,
}

impl Rect {
    /// Creates a rectangle from its edges.
    pub const fn new(xl: Dbu, yl: Dbu, xh: Dbu, yh: Dbu) -> Self {
        Self { xl, yl, xh, yh }
    }

    /// Creates a rectangle from a lower-left corner and a size.
    pub const fn with_size(origin: Point, w: Dbu, h: Dbu) -> Self {
        Self {
            xl: origin.x,
            yl: origin.y,
            xh: origin.x + w,
            yh: origin.y + h,
        }
    }

    /// Width (zero when degenerate).
    pub fn width(self) -> Dbu {
        (self.xh - self.xl).max(0)
    }

    /// Height (zero when degenerate).
    pub fn height(self) -> Dbu {
        (self.yh - self.yl).max(0)
    }

    /// Area.
    pub fn area(self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Whether the rectangle has zero area.
    pub fn is_empty(self) -> bool {
        self.xh <= self.xl || self.yh <= self.yl
    }

    /// The horizontal span `[xl, xh)`.
    pub fn x_interval(self) -> Interval {
        Interval::new(self.xl, self.xh)
    }

    /// The vertical span `[yl, yh)`.
    pub fn y_interval(self) -> Interval {
        Interval::new(self.yl, self.yh)
    }

    /// Lower-left corner.
    pub fn origin(self) -> Point {
        Point::new(self.xl, self.yl)
    }

    /// Center point, rounded toward the lower-left.
    pub fn center(self) -> Point {
        Point::new((self.xl + self.xh) / 2, (self.yl + self.yh) / 2)
    }

    /// Whether the two rectangles overlap on a region of positive area.
    pub fn overlaps(self, other: Rect) -> bool {
        self.x_interval().overlaps(other.x_interval())
            && self.y_interval().overlaps(other.y_interval())
    }

    /// Whether `other` lies fully inside `self`.
    pub fn covers(self, other: Rect) -> bool {
        other.is_empty()
            || (self.xl <= other.xl
                && other.xh <= self.xh
                && self.yl <= other.yl
                && other.yh <= self.yh)
    }

    /// Whether the point lies inside the half-open rectangle.
    pub fn contains(self, p: Point) -> bool {
        self.x_interval().contains(p.x) && self.y_interval().contains(p.y)
    }

    /// Intersection (possibly empty / degenerate).
    pub fn intersect(self, other: Rect) -> Rect {
        Rect::new(
            self.xl.max(other.xl),
            self.yl.max(other.yl),
            self.xh.min(other.xh),
            self.yh.min(other.yh),
        )
    }

    /// Smallest rectangle covering both.
    pub fn union(self, other: Rect) -> Rect {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Rect::new(
            self.xl.min(other.xl),
            self.yl.min(other.yl),
            self.xh.max(other.xh),
            self.yh.max(other.yh),
        )
    }

    /// Translates the rectangle by `(dx, dy)`.
    pub fn translate(self, dx: Dbu, dy: Dbu) -> Rect {
        Rect::new(self.xl + dx, self.yl + dy, self.xh + dx, self.yh + dy)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})-({}, {})", self.xl, self.yl, self.xh, self.yh)
    }
}

/// Cell orientation. Standard cells are flipped vertically (`FS`) to align
/// power rails on odd rows, and may be mirrored horizontally (`FN`) without
/// affecting rail alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orient {
    /// North: as drawn in the library.
    #[default]
    N,
    /// Flipped south: mirrored about the x axis (vertical flip).
    FS,
    /// Flipped north: mirrored about the y axis (horizontal flip).
    FN,
    /// South: rotated 180 degrees (both flips).
    S,
}

impl Orient {
    /// Whether the orientation mirrors the cell vertically.
    pub fn flips_y(self) -> bool {
        matches!(self, Orient::FS | Orient::S)
    }

    /// Whether the orientation mirrors the cell horizontally.
    pub fn flips_x(self) -> bool {
        matches!(self, Orient::FN | Orient::S)
    }

    /// Transforms a cell-local rectangle (within a `w`-by-`h` bounding box)
    /// into the rectangle it occupies under this orientation, still in
    /// cell-local coordinates.
    pub fn apply(self, r: Rect, w: Dbu, h: Dbu) -> Rect {
        let (xl, xh) = if self.flips_x() {
            (w - r.xh, w - r.xl)
        } else {
            (r.xl, r.xh)
        };
        let (yl, yh) = if self.flips_y() {
            (h - r.yh, h - r.yl)
        } else {
            (r.yl, r.yh)
        };
        Rect::new(xl, yl, xh, yh)
    }
}

impl fmt::Display for Orient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Orient::N => "N",
            Orient::FS => "FS",
            Orient::FN => "FN",
            Orient::S => "S",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_manhattan_symmetry() {
        let a = Point::new(5, 7);
        let b = Point::new(-2, 11);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(a), 0);
        assert_eq!(a.manhattan(b), 11);
    }

    #[test]
    fn interval_basics() {
        let i = Interval::new(10, 20);
        assert_eq!(i.len(), 10);
        assert!(!i.is_empty());
        assert!(i.contains(10));
        assert!(!i.contains(20));
        assert!(Interval::new(5, 5).is_empty());
        assert_eq!(Interval::new(7, 3).len(), 0);
    }

    #[test]
    fn interval_overlap_and_intersect() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        let c = Interval::new(10, 20);
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c), "touching intervals do not overlap");
        assert_eq!(a.intersect(b), Interval::new(5, 10));
        assert!(a.intersect(c).is_empty());
        // Empty intervals overlap nothing, even inside another interval.
        let empty = Interval::new(3, 3);
        assert!(!a.overlaps(empty));
        assert!(!empty.overlaps(a));
    }

    #[test]
    fn interval_covers() {
        let a = Interval::new(0, 10);
        assert!(a.covers(Interval::new(0, 10)));
        assert!(a.covers(Interval::new(3, 7)));
        assert!(!a.covers(Interval::new(-1, 5)));
        assert!(
            a.covers(Interval::new(8, 8)),
            "empty interval always covered"
        );
    }

    #[test]
    fn rect_basics() {
        let r = Rect::new(0, 0, 10, 20);
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 20);
        assert_eq!(r.area(), 200);
        assert!(r.contains(Point::new(0, 0)));
        assert!(!r.contains(Point::new(10, 0)));
        assert_eq!(r.center(), Point::new(5, 10));
    }

    #[test]
    fn rect_overlap_touching_is_not_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        assert!(!a.overlaps(b));
        let c = Rect::new(9, 9, 20, 20);
        assert!(a.overlaps(c));
    }

    #[test]
    fn rect_union_intersect() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 20, 8);
        assert_eq!(a.intersect(b), Rect::new(5, 5, 10, 8));
        assert_eq!(a.union(b), Rect::new(0, 0, 20, 10));
        let empty = Rect::new(0, 0, 0, 0);
        assert_eq!(empty.union(a), a);
    }

    #[test]
    fn rect_translate() {
        let r = Rect::new(1, 2, 3, 4).translate(10, -2);
        assert_eq!(r, Rect::new(11, 0, 13, 2));
    }

    #[test]
    fn orient_apply_identity() {
        let r = Rect::new(1, 2, 4, 5);
        assert_eq!(Orient::N.apply(r, 10, 20), r);
    }

    #[test]
    fn orient_apply_flips() {
        let r = Rect::new(1, 2, 4, 5);
        // FS mirrors vertically within a 10x20 box.
        assert_eq!(Orient::FS.apply(r, 10, 20), Rect::new(1, 15, 4, 18));
        // FN mirrors horizontally.
        assert_eq!(Orient::FN.apply(r, 10, 20), Rect::new(6, 2, 9, 5));
        // S does both.
        assert_eq!(Orient::S.apply(r, 10, 20), Rect::new(6, 15, 9, 18));
    }

    #[test]
    fn orient_apply_is_involution() {
        let r = Rect::new(3, 1, 7, 9);
        for o in [Orient::N, Orient::FS, Orient::FN, Orient::S] {
            let once = o.apply(r, 12, 10);
            let twice = o.apply(once, 12, 10);
            assert_eq!(twice, r, "{o} applied twice must be identity");
        }
    }
}
