//! Property suite for the two-level hierarchical spatial index.
//!
//! [`HierGrid`] is a pure pruning layer: both of its queries must answer
//! exactly what a naive O(n) scan over the inserted rectangles answers —
//! for random rect sets, band heights from 1 to 200, zero-area degenerate
//! rects and rects spanning every band. The naive model here is
//! deliberately dumb (a `Vec<Rect>`), so any divergence is a grid bug, not
//! a model bug.

use mcl_core::spatial::HierGrid;
use mcl_db::prelude::*;
use proptest::prelude::*;

const CORE: Rect = Rect {
    xl: 0,
    yl: 0,
    xh: 3000,
    yh: 1800,
};

/// Rect strategy mixing regular windows, multi-row-tall spans, and
/// zero-area degenerates (w and/or h drawn from `0..`): the degenerate
/// cases must index cleanly and overlap or cover nothing.
fn arb_rect() -> impl Strategy<Value = Rect> {
    (0i64..2900, 0i64..1700, 0i64..600, 0i64..900)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, (x + w).min(3000), (y + h).min(1800)))
}

/// Stored rects: mostly [`arb_rect`], plus full-height spans that cross
/// every band whatever the band height.
fn arb_entry() -> impl Strategy<Value = Rect> {
    (0u8..5, arb_rect()).prop_map(|(pick, r)| {
        if pick == 0 {
            Rect::new(r.xl, 0, r.xh, 1800)
        } else {
            r
        }
    })
}

/// Probes: random rects, plus sub-rects of a stored one so the coverage
/// test sees covered probes, not only uncovered ones.
fn probes_for(entries: &[Rect], picks: &[(usize, u64)], randoms: &[Rect]) -> Vec<Rect> {
    let mut probes = randoms.to_vec();
    for &(i, cut) in picks {
        let r = entries[i % entries.len()];
        let (w, h) = (r.xh - r.xl, r.yh - r.yl);
        let dx = (cut % 7) as Dbu * w / 16;
        let dy = ((cut >> 3) % 7) as Dbu * h / 16;
        probes.push(Rect::new(
            r.xl + dx,
            r.yl + dy,
            r.xh - dx / 2,
            r.yh - dy / 2,
        ));
        probes.push(r);
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `overlaps_any` and `covers_any` agree with the naive scan for every
    /// probe across band heights 1–200.
    #[test]
    fn queries_match_naive(
        entries in prop::collection::vec(arb_entry(), 1..120),
        picks in prop::collection::vec((0usize..120, 0u64..64), 0..20),
        randoms in prop::collection::vec(arb_rect(), 1..20),
        band_h in 1i64..=200,
    ) {
        let mut grid = HierGrid::new(CORE, band_h);
        for &r in &entries {
            grid.insert(r);
        }
        for probe in probes_for(&entries, &picks, &randoms) {
            prop_assert_eq!(
                grid.overlaps_any(probe),
                entries.iter().any(|r| r.overlaps(probe)),
                "overlaps_any at probe {:?}", probe
            );
            prop_assert_eq!(
                grid.covers_any(probe),
                !probe.is_empty() && entries.iter().any(|r| r.covers(probe)),
                "covers_any at probe {:?}", probe
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The scheduler's use: insert each probe that overlaps nothing so
    /// far, clearing now and then; answers track the naive model across
    /// clears.
    #[test]
    fn insert_clear_stream_matches_naive(
        stream in prop::collection::vec((arb_rect(), 0u8..16), 1..200),
        band_h in 1i64..=200,
    ) {
        let mut grid = HierGrid::new(CORE, band_h);
        let mut naive: Vec<Rect> = Vec::new();
        for &(probe, op) in &stream {
            if op == 0 {
                grid.clear();
                naive.clear();
            }
            let expect = naive.iter().any(|r| r.overlaps(probe));
            prop_assert_eq!(grid.overlaps_any(probe), expect, "probe {:?}", probe);
            if !expect {
                grid.insert(probe);
                naive.push(probe);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degenerate (zero-area) rects index cleanly and overlap or cover
    /// nothing, in either role (stored or probe).
    #[test]
    fn degenerate_rects_overlap_nothing(
        x in 0i64..3000, y in 0i64..1800,
        others in prop::collection::vec(arb_entry(), 1..40),
    ) {
        let mut grid = HierGrid::new(CORE, 90);
        for &r in &others {
            grid.insert(r);
        }
        // Zero width, zero height, and zero both.
        for probe in [
            Rect::new(x, y, x, y + 50),
            Rect::new(x, y, x + 50, y),
            Rect::new(x, y, x, y),
        ] {
            prop_assert!(!grid.overlaps_any(probe), "degenerate probe {:?}", probe);
            prop_assert!(!grid.covers_any(probe), "degenerate probe {:?}", probe);
        }
        // A degenerate entry alone answers no to everything.
        let mut lone = HierGrid::new(CORE, 90);
        lone.insert(Rect::new(x, y, x, y));
        prop_assert!(!lone.overlaps_any(CORE));
        prop_assert!(!lone.covers_any(Rect::new(x, y, x + 1, y + 1)));
    }
}

#[test]
fn touching_edges_do_not_overlap() {
    let mut grid = HierGrid::new(CORE, 90);
    grid.insert(Rect::new(100, 100, 200, 200));
    // Abutting on each side: strict overlap is false.
    assert!(!grid.overlaps_any(Rect::new(200, 100, 300, 200)));
    assert!(!grid.overlaps_any(Rect::new(0, 100, 100, 200)));
    assert!(!grid.overlaps_any(Rect::new(100, 200, 200, 300)));
    assert!(!grid.overlaps_any(Rect::new(100, 0, 200, 100)));
    // One unit of intrusion overlaps.
    assert!(grid.overlaps_any(Rect::new(199, 100, 300, 200)));
    // Containment is closed: a rect covers itself and its edge-flush
    // sub-rects, and nothing one unit past its edge.
    assert!(grid.covers_any(Rect::new(100, 100, 200, 200)));
    assert!(grid.covers_any(Rect::new(150, 100, 200, 150)));
    assert!(!grid.covers_any(Rect::new(150, 100, 201, 150)));
}

#[test]
fn full_core_rect_is_found_from_every_corner() {
    let mut grid = HierGrid::new(CORE, 90);
    grid.insert(CORE);
    for probe in [
        Rect::new(0, 0, 1, 1),
        Rect::new(2999, 1799, 3000, 1800),
        Rect::new(0, 1799, 1, 1800),
        Rect::new(2999, 0, 3000, 1),
    ] {
        assert!(grid.overlaps_any(probe), "{probe:?}");
        assert!(grid.covers_any(probe), "{probe:?}");
    }
    grid.clear();
    assert!(!grid.overlaps_any(CORE));
    assert!(!grid.covers_any(Rect::new(0, 0, 1, 1)));
}
