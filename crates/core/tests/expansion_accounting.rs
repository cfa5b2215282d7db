//! Expansion-counter accounting: on a crafted design where the number of
//! window expansions is known by construction, MGL must report that exact
//! count at every thread count (regression test: the scheduler used to add
//! `n` again on success after already counting each retry, so any cell
//! that expanded before placing was double-counted).

use mcl_core::mgl::MglStats;
use mcl_core::{Engine, LegalizerConfig, RunSpec, Stage, StageSet};
use mcl_db::prelude::*;

/// One row, three movable 20-wide cells, two fixed blockers sized so the
/// expansion count per cell is forced:
///
/// * `c0` (gp x=400): blocker `[240,580)` swallows windows n=0..=3
///   (half-extents 20/40/80/160 around centre 410); n=4 reaches free
///   space — exactly 4 expansions.
/// * `c1` (gp x=1100): blocker `[1090,1130)` equals the n=0 window;
///   n=1 (`[1070,1150)`) has a 20-dbu gap on the left — exactly 1.
/// * `c2` (gp x=1700): open space — 0 expansions.
fn crafted_design() -> Design {
    let mut d = Design::new("exp", Technology::example(), Rect::new(0, 0, 2000, 90));
    let s = d.add_cell_type(CellType::new("s", 20, 1));
    let b1 = d.add_cell_type(CellType::new("b1", 340, 1));
    let b2 = d.add_cell_type(CellType::new("b2", 40, 1));
    for (name, t, x) in [("blk0", b1, 240), ("blk1", b2, 1090)] {
        let mut c = Cell::new(name, t, Point::new(x, 0));
        c.pos = Some(Point::new(x, 0));
        c.fixed = true;
        d.add_cell(c);
    }
    for (name, x) in [("c0", 400), ("c1", 1100), ("c2", 1700)] {
        d.add_cell(Cell::new(name, s, Point::new(x, 0)));
    }
    d
}

/// Small initial window (half-extent 2 sites = 20 dbu, but floored at
/// width/2 + site = 20 dbu) doubling per expansion, so the crafted
/// blockers pin the counts above.
fn crafted_config() -> LegalizerConfig {
    let mut cfg = LegalizerConfig::contest();
    cfg.window_sites = 2;
    cfg.window_rows = 1;
    cfg.max_expansions = 12;
    cfg.routability = false;
    cfg
}

const EXPECTED_EXPANSIONS: usize = 4 + 1; // c0: 4, c1: 1, c2: 0

/// Stage 1 alone on the crafted design.
fn mgl_stats(mut cfg: LegalizerConfig) -> MglStats {
    cfg.stages = StageSet::of(&[Stage::Mgl]);
    Engine::new(cfg)
        .run_one(&crafted_design(), RunSpec::default())
        .expect("MGL run")
        .stats
        .mgl
}

#[test]
fn counts_each_performed_expansion_once_at_every_thread_count() {
    for threads in [1usize, 2, 4] {
        let mut cfg = crafted_config();
        cfg.threads = threads;
        let stats = mgl_stats(cfg);
        assert_eq!(stats.failed, 0, "threads={threads}: {stats:?}");
        assert_eq!(stats.placed_in_window, 3, "threads={threads}: {stats:?}");
        assert_eq!(stats.fallbacks, 0, "threads={threads}: {stats:?}");
        assert_eq!(
            stats.expansions, EXPECTED_EXPANSIONS,
            "threads={threads}: {stats:?}"
        );
    }
}

#[test]
fn expansion_counter_matches_obs_counter() {
    // The typed observability counter and the legacy stats field are two
    // views of the same events; they must never drift apart.
    let stats = mgl_stats(crafted_config());
    if mcl_obs::compiled() {
        assert_eq!(
            stats.obs.counter(mcl_obs::CounterKind::WindowsExpanded),
            stats.expansions as u64
        );
    }
}
