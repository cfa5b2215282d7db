//! Parity of the pipeline's seeding and stage splits: fresh runs, ECO runs
//! and refinement are *the same flow* wearing different seeding, not three
//! re-implementations.
//!
//! - An ECO run ([`RunSpec::eco`]) on a fully-unplaced design is exactly a
//!   fresh run (bit-identical placements, equal stats, equal replay logs):
//!   adopting zero positions must not perturb anything downstream.
//! - Refinement ([`POST_PIPELINE`]) after a stage-1-only run reproduces the
//!   full run's placements: splitting the flow at the stage-1/stage-2
//!   boundary is lossless.
//!
//! Both are checked at 1, 2 and 4 threads (inline and pooled MGL), and the
//! outputs must also agree across those thread counts.

use mcl_core::pipeline::{MglStage, POST_PIPELINE};
use mcl_core::{Engine, LegalizerConfig, RunOutput, RunSpec};
use mcl_db::prelude::*;

fn messy_design(n: usize, seed: u64) -> Design {
    let mut d = Design::new("parity", Technology::example(), Rect::new(0, 0, 3000, 2700));
    d.add_cell_type(CellType::new("s", 20, 1));
    d.add_cell_type(CellType::new("d", 30, 2));
    d.add_cell_type(CellType::new("q", 40, 4));
    let mut s = seed | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in 0..n {
        let t = match rng() % 12 {
            0..=8 => CellTypeId(0),
            9..=10 => CellTypeId(1),
            _ => CellTypeId(2),
        };
        let x = (rng() % 2900) as Dbu;
        let y = (rng() % 2500) as Dbu;
        d.add_cell(Cell::new(format!("c{i}"), t, Point::new(x, y)));
    }
    d
}

fn config(threads: usize) -> LegalizerConfig {
    let mut c = LegalizerConfig::total_displacement();
    c.threads = threads;
    c
}

fn positions(d: &Design) -> Vec<Option<Point>> {
    d.cells.iter().map(|c| c.pos).collect()
}

fn run(config: LegalizerConfig, d: &Design, spec: &RunSpec) -> RunOutput {
    Engine::new(config)
        .run_one(d, spec)
        .expect("fault-free run")
}

/// Fresh vs ECO on a fully-unplaced design at 1/2/4 threads; the fresh
/// outputs must also agree across thread counts.
fn assert_eco_is_run(d: &Design, base: &LegalizerConfig) {
    let mut first: Option<RunOutput> = None;
    for threads in [1usize, 2, 4] {
        let mut c = base.clone();
        c.threads = threads;
        let fresh = run(c.clone(), d, &RunSpec::default());
        let eco = run(c, d, &RunSpec::eco());
        assert_eq!(
            positions(&fresh.design),
            positions(&eco.design),
            "placements diverged at {threads} threads"
        );
        assert_eq!(
            fresh.stats, eco.stats,
            "stats diverged at {threads} threads"
        );
        assert_eq!(
            fresh.replay, eco.replay,
            "replay logs diverged at {threads} threads"
        );
        match &first {
            None => first = Some(fresh),
            Some(one) => {
                assert_eq!(
                    positions(&one.design),
                    positions(&fresh.design),
                    "1 vs {threads} threads: placements"
                );
                assert_eq!(one.stats, fresh.stats, "1 vs {threads} threads: stats");
                assert_eq!(one.replay, fresh.replay, "1 vs {threads} threads: replay");
            }
        }
    }
}

#[test]
fn eco_on_fully_unplaced_design_is_run() {
    assert_eco_is_run(&messy_design(180, 2027), &config(1));
}

#[test]
fn eco_on_fully_unplaced_design_is_run_with_routability() {
    // Same parity through the oracle-enabled contest preset.
    let mut d = messy_design(140, 11);
    d.grid = PowerGrid {
        h_layer: 2,
        h_width: 6,
        h_pitch_rows: 1,
        v_layer: 3,
        v_width: 8,
        v_pitch: 500,
        v_offset: 250,
    };
    d.cell_types[0].pins.push(PinShape {
        name: "a".into(),
        layer: 1,
        rect: Rect::new(4, 30, 12, 50),
    });
    assert_eco_is_run(&d, &LegalizerConfig::contest());
}

#[test]
fn refine_after_stage1_run_reproduces_full_run() {
    let d = messy_design(180, 4242);
    let mut first: Option<Vec<Option<Point>>> = None;
    for threads in [1usize, 2, 4] {
        let full = run(config(threads), &d, &RunSpec::default());
        let stage1 = run(config(threads), &d, &RunSpec::stages(&[&MglStage]));
        assert_eq!(full.stats.mgl, stage1.stats.mgl, "{threads} threads");
        let refined = run(
            config(threads),
            &stage1.design,
            &RunSpec::stages(&POST_PIPELINE),
        );
        assert_eq!(
            positions(&full.design),
            positions(&refined.design),
            "run ≠ stage1+refine at {threads} threads"
        );
        assert_eq!(
            full.stats.max_disp, refined.stats.max_disp,
            "{threads} threads"
        );
        assert_eq!(
            full.stats.fixed_order, refined.stats.fixed_order,
            "{threads} threads"
        );
        match &first {
            None => first = Some(positions(&full.design)),
            Some(one) => assert_eq!(one, &positions(&full.design), "1 vs {threads} threads"),
        }
    }
}
