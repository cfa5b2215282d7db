//! Deterministic multi-threaded MGL (§3.5 of the paper): the same design
//! legalized with 1, 2, 4 or 8 threads produces bit-identical placements,
//! because the window scheduler fixes the evaluation inputs and the
//! application order independent of thread count (at 1 thread every round
//! runs inline).
//!
//! ```sh
//! cargo run --release --example parallel_mgl
//! ```

use mclegal::core::{Engine, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;
use mclegal::gen::{generate, GeneratorConfig};
use std::time::Instant;

fn main() {
    let config = GeneratorConfig {
        name: "parallel".into(),
        num_cells: 4_000,
        density: 0.72,
        ..GeneratorConfig::default()
    };
    let generated = generate(&config).expect("generation succeeds");
    let design = &generated.design;

    let mut reference: Option<Vec<Option<Point>>> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut cfg = LegalizerConfig::contest();
        cfg.threads = threads;
        // The engine spawns every helper even on machines with fewer
        // cores, so the bit-identical assertion below actually compares
        // different helper counts.
        let t = Instant::now();
        let out = Engine::new(cfg)
            .run_one(design, RunSpec::default())
            .expect("fault-free run");
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(out.stats.mgl.failed, 0);
        let m = Metrics::measure(&out.design);
        println!(
            "threads {threads}: {:.2}s, avg {:.3} rows, max {:.1} rows",
            secs, m.avg_disp_rows, m.max_disp_rows,
        );
        let positions: Vec<Option<Point>> = out.design.cells.iter().map(|c| c.pos).collect();
        match &reference {
            None => reference = Some(positions),
            Some(r) => assert_eq!(r, &positions, "results must be thread-count independent"),
        }
    }
    println!("every thread count produced bit-identical placements");
}
