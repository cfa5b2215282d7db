//! Fence regions (ISPD 2015 style).
//!
//! A fence region is a union of rectangles; cells assigned to the fence must
//! be placed entirely inside it, and cells assigned elsewhere must stay out.
//! Fence id 0 is the *default fence*: everything outside all named fences.

use crate::cell::FenceId;
use crate::geom::Rect;

/// A named fence region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenceRegion {
    /// Region name (e.g. `"g0"`), empty for the default fence.
    pub name: String,
    /// Union-of-rectangles footprint. Empty for the default fence, whose
    /// footprint is implicit (outside all others).
    pub rects: Vec<Rect>,
}

impl FenceRegion {
    /// Creates a named fence from rectangles.
    pub fn new(name: impl Into<String>, rects: Vec<Rect>) -> Self {
        Self {
            name: name.into(),
            rects,
        }
    }

    /// The placeholder record for the default fence.
    pub fn default_fence() -> Self {
        Self {
            name: String::new(),
            rects: Vec::new(),
        }
    }

    /// Bounding box of the region (degenerate when empty).
    pub fn bbox(&self) -> Rect {
        self.rects
            .iter()
            .copied()
            .fold(Rect::default(), |acc, r| acc.union(r))
    }
}

/// Resolves which fence owns a given rectangle among a list of fences
/// (`fences[0]` is the default). Returns the first named fence whose rects
/// cover the query completely, or [`FenceId::DEFAULT`] if the query touches
/// no named fence at all, or `None` if it straddles a boundary.
pub fn fence_of_rect(fences: &[FenceRegion], query: Rect) -> Option<FenceId> {
    for (i, fence) in fences.iter().enumerate().skip(1) {
        let covered = cover_area(&fence.rects, query) == query.area();
        let touches = fence.rects.iter().any(|r| r.overlaps(query));
        if covered {
            return Some(FenceId(i as u16));
        }
        if touches {
            return None; // partially inside a named fence
        }
    }
    Some(FenceId::DEFAULT)
}

/// Total area of `query` covered by the union of `rects`.
///
/// Uses coordinate compression; intended for small rect lists (fences have a
/// handful of rectangles each).
fn cover_area(rects: &[Rect], query: Rect) -> i128 {
    let clipped: Vec<Rect> = rects
        .iter()
        .map(|r| r.intersect(query))
        .filter(|r| !r.is_empty())
        .collect();
    if clipped.is_empty() {
        return 0;
    }
    let mut xs: Vec<i64> = clipped.iter().flat_map(|r| [r.xl, r.xh]).collect();
    let mut ys: Vec<i64> = clipped.iter().flat_map(|r| [r.yl, r.yh]).collect();
    xs.sort_unstable();
    xs.dedup();
    ys.sort_unstable();
    ys.dedup();
    let mut area: i128 = 0;
    for wx in xs.windows(2) {
        for wy in ys.windows(2) {
            let cell = Rect::new(wx[0], wy[0], wx[1], wy[1]);
            if clipped.iter().any(|r| r.covers(cell)) {
                area += cell.area();
            }
        }
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fences() -> Vec<FenceRegion> {
        vec![
            FenceRegion::default_fence(),
            FenceRegion::new("g0", vec![Rect::new(0, 0, 100, 100)]),
            FenceRegion::new(
                "g1",
                vec![Rect::new(200, 0, 300, 50), Rect::new(200, 50, 250, 100)],
            ),
        ]
    }

    #[test]
    fn fully_inside_named_fence() {
        assert_eq!(
            fence_of_rect(&fences(), Rect::new(10, 10, 20, 20)),
            Some(FenceId(1))
        );
    }

    #[test]
    fn inside_multi_rect_fence_spanning_rects() {
        // Spans both rects of g1 but is fully covered by their union.
        assert_eq!(
            fence_of_rect(&fences(), Rect::new(210, 40, 240, 60)),
            Some(FenceId(2))
        );
    }

    #[test]
    fn outside_all_is_default() {
        assert_eq!(
            fence_of_rect(&fences(), Rect::new(400, 400, 420, 420)),
            Some(FenceId::DEFAULT)
        );
    }

    #[test]
    fn straddling_is_none() {
        assert_eq!(fence_of_rect(&fences(), Rect::new(90, 0, 120, 20)), None);
        // Sticks out of g1's L shape.
        assert_eq!(fence_of_rect(&fences(), Rect::new(240, 40, 280, 80)), None);
    }

    #[test]
    fn cover_area_unions_overlaps_once() {
        let rects = [Rect::new(0, 0, 10, 10), Rect::new(5, 0, 15, 10)];
        assert_eq!(cover_area(&rects, Rect::new(0, 0, 15, 10)), 150);
    }

    #[test]
    fn bbox_of_multi_rect() {
        let f = FenceRegion::new("f", vec![Rect::new(0, 0, 10, 10), Rect::new(50, 5, 60, 30)]);
        assert_eq!(f.bbox(), Rect::new(0, 0, 60, 30));
    }
}
