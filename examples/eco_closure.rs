//! What one ECO delta costs, layer by layer: legalizes a generated
//! contest design (density 0.55, two fences, the `mclegal generate`
//! defaults otherwise), opens a resident session over it and pushes a
//! stream of synthetic 64-cell deltas, printing one line per delta (wall
//! time, stage and span split, closure size, cells moved per stage) and
//! the whole-design quality at the end. The spans are the delta's layers
//! outside the stages: `eco.adopt` applies the moves to the session's
//! resident state, `eco.closure` grows the dirty closure and `eco.commit`
//! writes back the dirty and moved cells and splices the certificate.
//!
//! ```sh
//! cargo run --release --example eco_closure -- [CELLS] [GEN_SEED] [DELTAS] [THREADS]
//! ```
//!
//! Defaults: 100,000 cells, generator seed 500 (the perfbench `eco-100k`
//! design), 30 deltas, 2 threads.

use mclegal::core::{EcoSession, Engine, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;
use mclegal::gen::{generate, GeneratorConfig};
use mclegal::obs::{CounterKind, SpanKind};
use std::time::Instant;

fn main() {
    let arg = |i: usize, default: u64| -> u64 {
        std::env::args()
            .nth(i)
            .map_or(default, |s| s.parse().expect("numeric argument"))
    };
    let (cells, gen_seed, deltas, threads) = (arg(1, 100_000), arg(2, 500), arg(3, 30), arg(4, 2));
    let gen = GeneratorConfig {
        num_cells: cells as usize,
        density: 0.55,
        fences: 2,
        fence_cell_fraction: 0.15,
        seed: gen_seed,
        ..GeneratorConfig::default()
    };
    let design = generate(&gen).expect("generation succeeds").design;
    let mut cfg = LegalizerConfig::contest();
    cfg.threads = threads as usize;
    let t = Instant::now();
    let placed = Engine::new(cfg.clone())
        .run_one(&design, RunSpec::Fresh)
        .expect("base legalizes")
        .design;
    println!(
        "base: {} cells legalized in {:.2}s",
        cells,
        t.elapsed().as_secs_f64()
    );
    let movable = placed.movable_cells().count() as u64;
    let mut session = EcoSession::open(placed, cfg).expect("legal base opens");

    println!(
        "delta wall_ms closure windows mgl_ms maxdisp_ms fixed_order_ms \
         maxdisp_moved fixed_order_moved maxdisp_pivots flow_pivots spans_ms"
    );
    for k in 1..=deltas {
        let moves = EcoSession::synthesize_delta(session.design(), 64, k);
        let t = Instant::now();
        let (stats, _) = session.apply_delta(&moves).expect("delta applies");
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let ms = |name: &str| stats.stage_seconds_for(name).unwrap_or(0.0) * 1e3;
        let reused = stats.obs.counter(CounterKind::EcoCellsReused);
        let spans: Vec<String> = SpanKind::ALL
            .iter()
            .filter(|k| k.name().starts_with("eco.") || **k == SpanKind::FlowSimplex)
            .map(|&k| {
                let s = stats.obs.span(k);
                format!("{}={:.2}", k.name(), s.total_nanos as f64 / 1e6)
            })
            .collect();
        println!(
            "{k} {wall_ms:.1} {} {} {:.1} {:.1} {:.1} {} {} {} {} {}",
            movable.saturating_sub(reused),
            stats.obs.counter(CounterKind::EcoWindowsDirty),
            ms("mgl"),
            ms("maxdisp"),
            ms("fixed_order"),
            stats.max_disp.cells_moved,
            stats.fixed_order.cells_moved,
            stats.obs.counter(CounterKind::MatchingSimplexPivots),
            stats.obs.counter(CounterKind::SimplexPivots),
            spans.join(" "),
        );
    }
    let m = Metrics::measure(session.design());
    println!(
        "after {deltas} deltas: avg_disp_rows {:.4} max_disp_rows {:.2} legal {}",
        m.avg_disp_rows,
        m.max_disp_rows,
        mclegal::audit::verify(session.design()).placement_violations() == 0
    );
}
