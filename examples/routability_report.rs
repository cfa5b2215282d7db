//! Routability-driven legalization: the same design legalized with and
//! without pin-access/short handling, showing the violation difference
//! (the paper's Table 1 story in miniature).
//!
//! ```sh
//! cargo run --release --example routability_report
//! ```

use mclegal::core::{Engine, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;
use mclegal::gen::{generate, GeneratorConfig};

fn main() {
    let config = GeneratorConfig {
        name: "routability".into(),
        num_cells: 3_000,
        density: 0.65,
        rails: true,
        io_pins: 120,
        ..GeneratorConfig::default()
    };
    let generated = generate(&config).expect("generation succeeds");
    let design = &generated.design;
    println!(
        "P/G grid: horizontal rails on M{} (width {}), vertical stripes on M{} every {} dbu; {} IO pins",
        design.grid.h_layer, design.grid.h_width, design.grid.v_layer, design.grid.v_pitch,
        design.io_pins.len()
    );

    let mut blind = LegalizerConfig::contest();
    blind.routability = false;
    let legalize = |config: LegalizerConfig| {
        Engine::new(config)
            .run_one(design, RunSpec::default())
            .expect("fault-free run")
            .design
    };
    let placed_blind = legalize(blind);
    let rep_blind = Checker::new(&placed_blind).check();

    let placed_aware = legalize(LegalizerConfig::contest());
    let rep_aware = Checker::new(&placed_aware).check();

    assert!(rep_blind.is_legal() && rep_aware.is_legal());
    let m_blind = Metrics::measure(&placed_blind);
    let m_aware = Metrics::measure(&placed_aware);

    println!();
    println!("                      | blind  | routability-driven");
    println!(
        "pin shorts            | {:>6} | {:>6}",
        rep_blind.pin_shorts, rep_aware.pin_shorts
    );
    println!(
        "pin access violations | {:>6} | {:>6}",
        rep_blind.pin_access, rep_aware.pin_access
    );
    println!(
        "edge spacing          | {:>6} | {:>6}",
        rep_blind.edge_spacing, rep_aware.edge_spacing
    );
    println!(
        "avg displacement      | {:>6.3} | {:>6.3} rows",
        m_blind.avg_disp_rows, m_aware.avg_disp_rows
    );
    println!(
        "score S               | {:>6.3} | {:>6.3}",
        m_blind.contest_score(&placed_blind, &rep_blind),
        m_aware.contest_score(&placed_aware, &rep_aware)
    );

    let blind_pins = rep_blind.pin_shorts + rep_blind.pin_access;
    let aware_pins = rep_aware.pin_shorts + rep_aware.pin_access;
    assert!(
        aware_pins <= blind_pins,
        "routability handling must not increase pin violations ({aware_pins} vs {blind_pins})"
    );
    println!();
    println!(
        "pin violations reduced {blind_pins} -> {aware_pins} at {:+.2}% average displacement",
        100.0 * (m_aware.avg_disp_rows - m_blind.avg_disp_rows) / m_blind.avg_disp_rows.max(1e-9)
    );
}
