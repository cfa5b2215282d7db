//! ECO-delta parity suite: the delta-first incremental path must be
//! invisible in results.
//!
//! The invariant pinned here: a resident [`EcoSession`] delta is
//! byte-identical — positions, stats rows, replay log, golden report JSON
//! and audit certificate — to a from-scratch ECO run on the same mutated
//! design under the same configuration, at 1, 2 and 4 threads (which must
//! also agree with each other). The session's spliced band certificate
//! must equal a full clean-room `mcl_audit::verify` after every delta.
//!
//! Deltas cover the hard cases: cells inside and straddling fence
//! boundaries, and multi-row cells whose windows span several row bands.

use mclegal::core::{build_run_report, EcoSession, Engine, LegalizerConfig, RunOutput, RunSpec};
use mclegal::db::prelude::*;

/// A dense-ish design with a fence region and a real multi-row population.
fn eco_design(seed: u64) -> Design {
    let mut d = Design::new("eco", Technology::example(), Rect::new(0, 0, 3200, 2700));
    d.add_cell_type(CellType::new("s", 20, 1));
    d.add_cell_type(CellType::new("d", 30, 2));
    d.add_cell_type(CellType::new("q", 40, 4));
    let f = d.add_fence(FenceRegion::new(
        "g0",
        vec![Rect::new(800, 450, 2200, 1530)],
    ));
    let mut s = seed | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in 0..400 {
        let t = match rng() % 12 {
            0..=8 => CellTypeId(0),
            9..=10 => CellTypeId(1),
            _ => CellTypeId(2),
        };
        let x = (rng() % 3100) as Dbu;
        let y = (rng() % 2550) as Dbu;
        let mut c = Cell::new(format!("c{i}"), t, Point::new(x, y));
        if rng() % 4 == 0 {
            c.fence = f;
        }
        d.add_cell(c);
    }
    d
}

fn cfg(threads: usize) -> LegalizerConfig {
    let mut c = LegalizerConfig::contest();
    c.threads = threads;
    c
}

fn positions(d: &Design) -> Vec<Option<Point>> {
    d.cells.iter().map(|c| c.pos).collect()
}

/// A delta that exercises fence-boundary and multi-row cells: the seeded
/// synthetic picks plus one fenced cell and one 4-row cell re-targeted
/// across the fence boundary.
fn hard_delta(base: &Design, n: usize, seed: u64) -> Vec<(CellId, Point)> {
    let mut moves = EcoSession::synthesize_delta(base, n, seed);
    let fenced = base
        .cells
        .iter()
        .position(|c| !c.fixed && c.fence.0 != 0)
        .expect("design has fenced cells");
    let tall = base
        .cells
        .iter()
        .position(|c| !c.fixed && base.cell_types[c.type_id.0 as usize].height_rows == 4)
        .expect("design has 4-row cells");
    moves.retain(|&(c, _)| c.0 as usize != fenced && c.0 as usize != tall);
    // Fenced cell re-targeted right at its fence's edge; the tall cell
    // re-targeted across it.
    moves.push((CellId(fenced as u32), Point::new(2190, 1500)));
    moves.push((CellId(tall as u32), Point::new(790, 440)));
    moves
}

/// The from-scratch reference: the same moves applied to the same base,
/// legalized by a fresh ECO run with the session's exact configuration.
fn scratch_reference(
    base: &Design,
    moves: &[(CellId, Point)],
    config: &LegalizerConfig,
) -> RunOutput {
    let mut candidate = base.clone();
    for &(cell, gp) in moves {
        let c = &mut candidate.cells[cell.0 as usize];
        c.gp = gp;
        c.pos = None;
    }
    Engine::new(config.clone())
        .run_one(&candidate, &RunSpec::eco())
        .expect("scratch ECO must succeed")
}

/// A fresh full-pipeline base placement.
fn legalize(d: &Design, config: LegalizerConfig) -> RunOutput {
    Engine::new(config)
        .run_one(d, &RunSpec::default())
        .expect("base legalization")
}

#[test]
fn session_delta_matches_scratch_run_eco_at_every_thread_count() {
    let d = eco_design(0xec0_5eed);
    let RunOutput {
        design: base,
        stats,
        ..
    } = legalize(&d, cfg(1));
    assert_eq!(stats.mgl.failed, 0);
    let moves = hard_delta(&base, 24, 7);

    let mut cross_thread: Vec<Vec<Option<Point>>> = Vec::new();
    for threads in [1, 2, 4] {
        let mut session =
            EcoSession::open(base.clone(), cfg(threads)).expect("base placement is legal");
        let (s_stats, s_log) = session.apply_delta(&moves).expect("session delta");
        let s_cfg = session.config().clone();

        let RunOutput {
            design: r_out,
            stats: r_stats,
            replay: r_log,
        } = scratch_reference(&base, &moves, &s_cfg);

        // Positions, stats rows, replay log: byte-identical.
        assert_eq!(
            positions(session.design()),
            positions(&r_out),
            "threads {threads}: positions diverge"
        );
        assert_eq!(s_stats, r_stats, "threads {threads}: stats diverge");
        assert_eq!(s_log, r_log, "threads {threads}: replay logs diverge");

        // Golden report subset: byte-identical.
        let s_rep = build_run_report(session.design(), &s_stats, &s_cfg).golden_json();
        let r_rep = build_run_report(&r_out, &r_stats, &s_cfg).golden_json();
        assert_eq!(s_rep, r_rep, "threads {threads}: golden reports diverge");

        // Audit certificate: the spliced band certificate equals a full
        // clean-room verify of both results.
        let spliced = session.certificate().report();
        assert_eq!(spliced, mclegal::audit::verify(session.design()));
        assert_eq!(spliced, mclegal::audit::verify(&r_out));
        assert_eq!(spliced.placement_violations(), 0);

        cross_thread.push(positions(session.design()));
    }
    assert_eq!(cross_thread[0], cross_thread[1], "1 vs 2 threads");
    assert_eq!(cross_thread[0], cross_thread[2], "1 vs 4 threads");
}

#[test]
fn chained_deltas_keep_certificate_and_base_in_lockstep() {
    let d = eco_design(0xbeef);
    let base = legalize(&d, cfg(1)).design;
    let mut session = EcoSession::open(base.clone(), cfg(2)).expect("base placement is legal");
    let mut rolling = base;
    for round in 0..4 {
        let moves = hard_delta(session.design(), 8, 100 + round);
        let (_, s_log) = session.apply_delta(&moves).expect("session delta");
        let r = scratch_reference(&rolling, &moves, session.config());
        assert_eq!(
            positions(session.design()),
            positions(&r.design),
            "round {round}: positions diverge"
        );
        assert_eq!(s_log, r.replay, "round {round}: replay logs diverge");
        assert_eq!(
            session.certificate().report(),
            mclegal::audit::verify(session.design()),
            "round {round}: certificate diverges from full verify"
        );
        rolling = r.design;
    }
}

#[test]
fn session_rejects_bad_moves_atomically() {
    let d = eco_design(3);
    let base = legalize(&d, cfg(1)).design;
    let fixed_like = base.cells.len() as u32; // out of range
    let mut session = EcoSession::open(base.clone(), cfg(1)).unwrap();
    let before = positions(session.design());
    let err = session
        .apply_delta(&[
            (CellId(0), Point::new(100, 90)),
            (CellId(fixed_like), Point::new(0, 0)),
        ])
        .unwrap_err();
    assert!(matches!(
        err,
        mclegal::core::LegalizeError::SeedRejected { .. }
    ));
    // The failed delta must not have touched the base.
    assert_eq!(positions(session.design()), before);
    assert_eq!(
        session.certificate().report(),
        mclegal::audit::verify(session.design())
    );
}
