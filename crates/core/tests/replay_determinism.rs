//! Scheduler determinism audit: the legalizer must produce bit-identical
//! mutation sequences regardless of thread count, and every intermediate
//! state in that sequence must be legal under the independent replay
//! verifier (`mcl_audit::replay`).

use mcl_audit::ReplayLog;
use mcl_core::pipeline::FULL_PIPELINE;
use mcl_core::{Engine, LegalizerConfig, RunSpec, Stage, StageSet};
use mcl_db::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A messy multi-height design large enough to engage the parallel
/// scheduler's window pipeline and the matching stage.
fn messy_design(n: usize, seed: u64) -> Design {
    let mut s = seed | 1;
    let mut d = Design::new("det", Technology::example(), Rect::new(0, 0, 6000, 2700));
    d.add_cell_type(CellType::new("s", 20, 1));
    d.add_cell_type(CellType::new("d", 30, 2));
    d.add_cell_type(CellType::new("q", 40, 4));
    for i in 0..n {
        let t = (xorshift(&mut s) % 3) as u32;
        let gp = Point::new(
            (xorshift(&mut s) % 5900) as Dbu,
            (xorshift(&mut s) % 2600) as Dbu,
        );
        d.add_cell(Cell::new(format!("c{i}"), CellTypeId(t), gp));
    }
    d
}

fn run_with_threads(d: &Design, threads: usize, stages: StageSet) -> (Design, ReplayLog) {
    let mut cfg = LegalizerConfig::contest();
    cfg.threads = threads;
    cfg.stages = stages;
    let out = Engine::new(cfg)
        .run_one(d, RunSpec::default())
        .expect("fault-free run");
    assert_eq!(out.stats.mgl.failed, 0, "all cells must place");
    (out.design, out.replay)
}

/// Runs `stages` at 1, 2 and 4 threads and asserts identical mutation
/// sequences and outputs. This is stronger than comparing final positions:
/// two runs with equal logs are bit-identical step by step.
fn assert_log_invariant_across_thread_counts(d: &Design, stages: StageSet) {
    let (out1, log1) = run_with_threads(d, 1, stages);
    for threads in [2usize, 4] {
        let (out, log) = run_with_threads(d, threads, stages);
        // Digest is the cheap fleet check; op-for-op equality gives a
        // usable failure message.
        assert_eq!(log1.digest(), log.digest(), "{threads} threads");
        assert_eq!(log1.ops(), log.ops(), "{threads} threads");
        for (a, b) in out1.cells.iter().zip(&out.cells) {
            assert_eq!(a.pos, b.pos);
            assert_eq!(a.orient, b.orient);
        }
    }
}

#[test]
fn scheduler_mutation_sequence_invariant_across_thread_counts() {
    // MGL alone: windows evaluated inline (1 thread) or with helpers
    // (2, 4 threads) must commit the exact same mutation sequence.
    let d = messy_design(160, 0xC0FFEE);
    assert_log_invariant_across_thread_counts(&d, StageSet::of(&[Stage::Mgl]));
}

#[test]
fn full_pipeline_log_invariant_across_thread_counts() {
    // End-to-end: MGL + max-disp matching + fixed-order refinement.
    let d = messy_design(160, 0xC0FFEE);
    assert_log_invariant_across_thread_counts(&d, FULL_PIPELINE);
}

#[test]
fn single_thread_log_replays_cleanly() {
    let d = messy_design(100, 0xFACADE);
    let (out, log) = run_with_threads(&d, 1, FULL_PIPELINE);
    let final_pos = log.verify(&d).expect("1-thread run must replay legally");
    for (c, p) in out.cells.iter().zip(&final_pos) {
        if !c.fixed {
            assert_eq!(c.pos, *p);
        }
    }
}

#[test]
fn replay_verifier_accepts_the_real_run_and_matches_final_positions() {
    let d = messy_design(120, 0xBADC0DE);
    let (out, log) = run_with_threads(&d, 4, FULL_PIPELINE);
    assert!(!log.is_empty());
    // Independent replay: every op must be legal at the moment it applies.
    let final_pos = log.verify(&d).expect("replayed run must be legal");
    for (c, p) in out.cells.iter().zip(&final_pos) {
        if !c.fixed {
            assert_eq!(c.pos, *p, "replayed position differs for {}", c.name);
        }
    }
}

#[test]
fn tampered_log_is_rejected() {
    use mcl_audit::{ReplayErrorKind, ReplayOp};
    let d = messy_design(60, 0x5EED);
    let (_, log) = run_with_threads(&d, 1, FULL_PIPELINE);
    let Some(ReplayOp::Place { cell, .. }) = log.ops().first().copied() else {
        panic!("first op is a placement");
    };
    let end = log.verify(&d).expect("untampered log")[cell.0 as usize].expect("placed");
    let doctored = |tail: &[ReplayOp]| {
        let mut doctored = mcl_audit::ReplayLog::new();
        for &op in log.ops().iter().chain(tail) {
            match op {
                ReplayOp::Place { cell, x, y } => doctored.record_place(cell, x, y),
                ReplayOp::Remove { cell, x, y } => doctored.record_remove(cell, x, y),
                ReplayOp::ShiftX { cell, from, x } => doctored.record_shift_x(cell, from, x),
            }
        }
        doctored.verify(&d).expect_err("tampered log")
    };
    // Re-place the first placed cell at a misaligned x.
    let (x, y) = (end.x, end.y);
    let err = doctored(&[
        ReplayOp::Remove { cell, x, y },
        ReplayOp::Place { cell, x: x + 1, y },
    ]);
    assert_eq!((err.cell, err.kind), (cell, ReplayErrorKind::Misaligned));
    // Remove it from, or shift it away from, where it is not.
    let sw = d.tech.site_width;
    for op in [
        ReplayOp::Remove { cell, x: x + sw, y },
        ReplayOp::ShiftX {
            cell,
            from: x + sw,
            x,
        },
    ] {
        let err = doctored(&[op]);
        let at = log.len();
        assert_eq!((err.op_index, err.cell), (at, cell));
        assert_eq!(err.kind, ReplayErrorKind::WrongOrigin, "{op:?}");
    }
}
