//! Two-level hierarchical spatial index over axis-aligned rectangles.
//!
//! [`HierGrid`] deepens the flat row-band layout (one bucket list per row
//! of the core) with a second level of x-buckets inside every band. A
//! query therefore inspects only the rectangles whose band *and* x-bucket
//! ranges can possibly intersect the probe — at 1M cells a core holds
//! hundreds of rows with thousands of windows live per round, and the
//! flat per-band lists become the linear structure that stops scaling.
//!
//! It answers the two questions the legalizer asks. The MGL scheduler's
//! window selection (`scheduler::window_rounds`) asks whether a window
//! strictly overlaps one already selected this round
//! ([`HierGrid::overlaps_any`]); the bounded ECO closure
//! (`dirty::compute_from_seeds`) asks whether a window lies inside one it
//! has already scanned ([`HierGrid::covers_any`]).
//!
//! The grid is purely a pruning layer: every candidate is confirmed with
//! the exact predicate, so answers are identical to a naive scan over all
//! inserted rectangles (the property suite in
//! `crates/core/tests/spatial_props.rs` pins this). Degenerate (zero
//! width/height) rectangles are stored and indexable but never overlap or
//! cover anything. The scheduler reuses one grid across rounds via
//! [`HierGrid::clear`], which is O(touched buckets), not O(grid).

use mcl_db::prelude::*;

/// Number of x-buckets per band; windows are narrow relative to the core,
/// so a modest fan-out keeps bucket lists near-constant size without
/// blowing up the clear cost.
const X_BUCKETS: usize = 64;

/// Two-level (y-band × x-bucket) rectangle index.
#[derive(Debug)]
pub struct HierGrid {
    /// Origin of the band grid (core lower-left).
    x0: Dbu,
    y0: Dbu,
    /// Level 1: band height (typically the row height).
    band_h: Dbu,
    /// Level 2: x-bucket width within a band.
    bucket_w: Dbu,
    ny: usize,
    /// `ny × X_BUCKETS` bucket lists (row-major by band); a rectangle is
    /// listed in every bucket its extent touches.
    buckets: Vec<Vec<Rect>>,
    /// Buckets with at least one entry, for O(touched) clearing.
    touched: Vec<u32>,
}

impl HierGrid {
    /// An empty grid over `core` with `band_h`-tall bands.
    pub fn new(core: Rect, band_h: Dbu) -> Self {
        let band_h = band_h.max(1);
        let ny = ((core.yh - core.yl).max(1) as u64)
            .div_ceil(band_h as u64)
            .max(1) as usize;
        let bucket_w = ((core.xh - core.xl).max(1) as u64).div_ceil(X_BUCKETS as u64) as Dbu;
        Self {
            x0: core.xl,
            y0: core.yl,
            band_h,
            bucket_w,
            ny,
            buckets: vec![Vec::new(); X_BUCKETS * ny],
            touched: Vec::new(),
        }
    }

    /// The inclusive band range of a rect's y-extent (clamped; degenerate
    /// y-extents map to the band of `yl`).
    fn band_range(&self, r: Rect) -> (usize, usize) {
        let last = self.ny - 1;
        let lo = ((r.yl - self.y0).max(0) / self.band_h) as usize;
        let hi = ((r.yh.max(r.yl + 1) - 1 - self.y0).max(0) / self.band_h) as usize;
        (lo.min(last), hi.min(last).max(lo.min(last)))
    }

    /// The inclusive x-bucket range of a rect's x-extent (clamped).
    fn bucket_range(&self, r: Rect) -> (usize, usize) {
        let last = X_BUCKETS - 1;
        let lo = ((r.xl - self.x0).max(0) / self.bucket_w) as usize;
        let hi = ((r.xh.max(r.xl + 1) - 1 - self.x0).max(0) / self.bucket_w) as usize;
        (lo.min(last), hi.min(last).max(lo.min(last)))
    }

    /// Inserts a rectangle.
    pub fn insert(&mut self, rect: Rect) {
        let (blo, bhi) = self.band_range(rect);
        let (xlo, xhi) = self.bucket_range(rect);
        for b in blo..=bhi {
            for x in xlo..=xhi {
                let bucket = &mut self.buckets[b * X_BUCKETS + x];
                if bucket.is_empty() {
                    self.touched.push((b * X_BUCKETS + x) as u32);
                }
                bucket.push(rect);
            }
        }
    }

    /// Whether any inserted rectangle strictly overlaps `probe` (touching
    /// edges do not conflict; degenerate rects overlap nothing).
    pub fn overlaps_any(&self, probe: Rect) -> bool {
        let (blo, bhi) = self.band_range(probe);
        let (xlo, xhi) = self.bucket_range(probe);
        for b in blo..=bhi {
            for x in xlo..=xhi {
                if self.buckets[b * X_BUCKETS + x]
                    .iter()
                    .any(|r| r.overlaps(probe))
                {
                    return true;
                }
            }
        }
        false
    }

    /// Whether any inserted rectangle contains `probe` (a degenerate probe
    /// is covered by nothing). A rectangle that contains a non-empty probe
    /// touches the bucket of the probe's lower-left corner, so that one
    /// bucket is the only one scanned.
    pub fn covers_any(&self, probe: Rect) -> bool {
        if probe.is_empty() {
            return false;
        }
        let (b, _) = self.band_range(probe);
        let (x, _) = self.bucket_range(probe);
        self.buckets[b * X_BUCKETS + x]
            .iter()
            .any(|r| r.covers(probe))
    }

    /// Drops every rectangle, retaining bucket capacity.
    /// O(touched buckets), not O(grid).
    pub fn clear(&mut self) {
        for &b in &self.touched {
            self.buckets[b as usize].clear();
        }
        self.touched.clear();
    }
}
