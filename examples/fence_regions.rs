//! Fence-aware legalization: build a design with two fence regions by hand,
//! legalize, and verify that every cell landed inside its own region (and
//! outside everyone else's). Also writes an SVG visualization.
//!
//! ```sh
//! cargo run --release --example fence_regions
//! ```

use mclegal::core::{Engine, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;
use mclegal::viz::{render_svg, SvgOptions};

fn main() {
    let mut design = Design::new(
        "fences",
        Technology::example(),
        Rect::new(0, 0, 6000, 3600), // 40 rows
    );
    let inv = design.add_cell_type(CellType::new("INV", 20, 1));
    let ff = design.add_cell_type(CellType::new("FF2", 40, 2));

    // Two fences: a block in the lower-left and an L-shape on the right.
    let f_block = design.add_fence(FenceRegion::new(
        "block",
        vec![Rect::new(500, 360, 2000, 1440)],
    ));
    let f_ell = design.add_fence(FenceRegion::new(
        "ell",
        vec![
            Rect::new(4000, 1800, 5500, 2700),
            Rect::new(4000, 2700, 4800, 3240),
        ],
    ));

    // 600 cells; a third in each fence, a third free. GPs are deliberately
    // scattered so fenced cells must travel into their regions.
    let mut k = 0u64;
    let mut rng = move || {
        k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (k >> 33) as i64
    };
    for i in 0..600 {
        let t = if i % 5 == 0 { ff } else { inv };
        let gp = Point::new(rng() % 5900, rng() % 3400);
        let mut c = Cell::new(format!("u{i}"), t, gp);
        c.fence = match i % 3 {
            0 => f_block,
            1 => f_ell,
            _ => FenceId::DEFAULT,
        };
        design.add_cell(c);
    }

    let out = Engine::new(LegalizerConfig::contest())
        .run_one(&design, &RunSpec::default())
        .expect("fault-free run");
    let (placed, stats) = (out.design, out.stats);
    println!(
        "placed {} cells ({} fallbacks)",
        stats.mgl.placed_in_window + stats.mgl.fallbacks,
        stats.mgl.fallbacks
    );

    let report = Checker::new(&placed).check();
    assert!(report.is_legal(), "{:?}", report.details);
    assert_eq!(report.fence_violations, 0);

    // Double-check fence containment by hand.
    for (i, c) in placed.cells.iter().enumerate() {
        let r = placed.rect_at(CellId(i as u32), c.pos.unwrap());
        let inside_block = placed.fences[f_block.0 as usize]
            .rects
            .iter()
            .any(|f| f.covers(r));
        match c.fence {
            f if f == f_block => assert!(inside_block, "{} must be in 'block'", c.name),
            f if f == f_ell => assert!(!inside_block, "{} must not be in 'block'", c.name),
            _ => {}
        }
    }
    let m = Metrics::measure(&placed);
    println!(
        "avg displacement {:.2} rows, max {:.1} rows — fences respected",
        m.avg_disp_rows, m.max_disp_rows
    );

    std::fs::create_dir_all("results").unwrap();
    std::fs::write(
        "results/fence_regions.svg",
        render_svg(&placed, &SvgOptions::default()),
    )
    .unwrap();
    println!("wrote results/fence_regions.svg");
}
