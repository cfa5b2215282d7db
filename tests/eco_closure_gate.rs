//! Work gates for a resident ECO delta on a dense design.
//!
//! The closure: a 64-cell delta may re-legalize at most 16 cells per moved
//! cell. Each seed's walk is clipped to the MGL base window around the
//! rects it vacated and took, so the closure stays local however far the
//! edge-spacing halo chains run; an unbounded (transitive) walk leaves
//! every output legal and every parity test green, and this ceiling is
//! what notices. Measured on this design: 423–756 closure cells per delta
//! with the bounded walk, 3,051–3,519 over the first five with the
//! unbounded one.
//!
//! The mutations: a delta's replay log may hold at most 2 ops per closure
//! cell. The session keeps its placement state resident, so a delta logs
//! its own mutations only (114–156 ops here); a delta that re-adopted the
//! design would log one `place` per placed cell first (19,936 here).

use mclegal::core::{EcoSession, Engine, LegalizerConfig, RunSpec};
use mclegal::gen::{generate, GeneratorConfig};
use mclegal::obs::CounterKind;

const DELTA_CELLS: usize = 64;
const MAX_CLOSURE_PER_MOVED_CELL: u64 = 16;
const MAX_LOG_OPS_PER_CLOSURE_CELL: u64 = 2;

#[test]
fn delta_closure_stays_local() {
    let gen = GeneratorConfig {
        num_cells: 20_000,
        density: 0.55,
        fences: 2,
        fence_cell_fraction: 0.15,
        seed: 500,
        ..GeneratorConfig::default()
    };
    let design = generate(&gen).expect("generation succeeds").design;
    let mut cfg = LegalizerConfig::contest();
    cfg.threads = 2;
    let placed = Engine::new(cfg.clone())
        .run_one(&design, RunSpec::Fresh)
        .expect("base legalizes")
        .design;
    let movable = placed.movable_cells().count() as u64;
    let mut session = EcoSession::open(placed, cfg).expect("legal base opens");
    let ceiling = MAX_CLOSURE_PER_MOVED_CELL * DELTA_CELLS as u64;
    for seed in 1..=8 {
        let moves = EcoSession::synthesize_delta(session.design(), DELTA_CELLS, seed);
        let (stats, log) = session.apply_delta(&moves).expect("delta applies");
        let closure = movable - stats.obs.counter(CounterKind::EcoCellsReused);
        let ops = log.len() as u64;
        println!("delta {seed}: {closure} closure cells, {ops} log ops");
        assert!(
            closure >= DELTA_CELLS as u64,
            "delta {seed}: {closure} closure cells cannot cover {DELTA_CELLS} moved cells"
        );
        assert!(
            closure <= ceiling,
            "delta {seed}: {closure} closure cells exceed {ceiling}: \
             is the dirty walk still clipped to its anchor boxes?"
        );
        assert!(
            ops <= MAX_LOG_OPS_PER_CLOSURE_CELL * closure,
            "delta {seed}: {ops} logged mutations for {closure} closure cells: \
             does the session adopt the design again for each delta?"
        );
    }
}
