//! Quickstart: generate a small mixed-cell-height benchmark, legalize it
//! with the full three-stage flow, and print the quality metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mclegal::core::{Engine, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;
use mclegal::gen::{generate, GeneratorConfig};

fn main() {
    // A 2000-cell design at 70% density with fences, rails and IO pins.
    let config = GeneratorConfig {
        name: "quickstart".into(),
        num_cells: 2_000,
        density: 0.70,
        fences: 2,
        fence_cell_fraction: 0.15,
        io_pins: 40,
        nets: 1_000,
        ..GeneratorConfig::default()
    };
    let generated = generate(&config).expect("generation succeeds");
    let design = &generated.design;
    println!(
        "design: {} cells, {} rows, density {:.1}%",
        design.cells.len(),
        design.num_rows,
        100.0 * design.density()
    );

    // Legalize with the contest configuration (fences + routability +
    // average/maximum displacement objective).
    let out = Engine::new(LegalizerConfig::contest())
        .run_one(design, &RunSpec::default())
        .expect("fault-free run");
    let (placed, stats) = (out.design, out.stats);
    let secs = |name: &str| stats.stage_seconds_for(name).unwrap_or(0.0);
    println!(
        "stage 1 (MGL): {} in-window, {} fallbacks, {} expansions, {:.2}s",
        stats.mgl.placed_in_window,
        stats.mgl.fallbacks,
        stats.mgl.expansions,
        secs("mgl")
    );
    println!(
        "stage 2 (matching): {} groups, {} cells moved, {:.2}s",
        stats.max_disp.groups,
        stats.max_disp.cells_moved,
        secs("maxdisp")
    );
    println!(
        "stage 3 (dual MCF): {} cells, {} arcs, {} moved, {:.2}s",
        stats.fixed_order.cells,
        stats.fixed_order.neighbor_arcs,
        stats.fixed_order.cells_moved,
        secs("fixed_order")
    );

    // Verify and score.
    let report = Checker::new(&placed).check();
    assert!(
        report.is_legal(),
        "placement must be legal: {:?}",
        report.details
    );
    let metrics = Metrics::measure(&placed);
    println!();
    println!(
        "average displacement : {:.3} rows (Eq. 2)",
        metrics.avg_disp_rows
    );
    println!("maximum displacement : {:.1} rows", metrics.max_disp_rows);
    println!("HPWL increase        : {:.2}%", 100.0 * metrics.s_hpwl);
    println!(
        "routability          : {} pin shorts, {} pin access, {} edge spacing",
        report.pin_shorts, report.pin_access, report.edge_spacing
    );
    println!(
        "contest score S      : {:.4} (Eq. 10)",
        metrics.contest_score(&placed, &report)
    );
}
