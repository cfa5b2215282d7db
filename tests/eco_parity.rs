//! ECO-delta parity suite: the delta-first incremental path must be
//! invisible in results.
//!
//! The invariant pinned here: a resident [`EcoSession`] delta is
//! byte-identical — positions, stats rows, golden report JSON and audit
//! certificate — to a from-scratch ECO run on the same mutated design under
//! the same configuration, at 1, 2 and 4 threads (which must also agree
//! with each other). The session's replay log is the delta's own
//! mutations: the from-scratch log minus its adoption prefix, and the
//! adoption plus the session's log replays legally to the session's
//! positions. The session's spliced band certificate must equal a full
//! clean-room `mcl_audit::verify` after every delta.
//!
//! Deltas cover the hard cases: cells inside and straddling fence
//! boundaries, and multi-row cells whose windows span several row bands.

use mclegal::audit::{ReplayLog, ReplayOp};
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

/// The same moves applied to the same base: new GP homes, positions
/// vacated.
fn candidate(base: &Design, moves: &[(CellId, Point)]) -> Design {
    let mut candidate = base.clone();
    for &(cell, gp) in moves {
        let c = &mut candidate.cells[cell.0 as usize];
        c.gp = gp;
        c.pos = None;
    }
    candidate
}

/// The from-scratch reference: the candidate legalized by a fresh
/// [`RunSpec::EcoDelta`] run with the session's exact configuration.
fn scratch_reference(candidate: &Design, config: &LegalizerConfig) -> RunOutput {
    Engine::new(config.clone())
        .run_one(candidate, RunSpec::EcoDelta)
        .expect("scratch ECO must succeed")
}

/// What a from-scratch run logs before its first stage: adopting the
/// candidate, one `place` per placed movable cell in id order.
fn adoption_ops(candidate: &Design) -> ReplayLog {
    let mut log = ReplayLog::new();
    for id in candidate.movable_cells() {
        if let Some(p) = candidate.cells[id.0 as usize].pos {
            log.record_place(id, p.x, p.y);
        }
    }
    log
}

/// The session's delta log against the reference's: the reference log is
/// the adoption prefix followed by exactly the session's ops, and the
/// adoption plus the session's ops replay legally to the session's
/// positions.
fn assert_delta_log(
    candidate: &Design,
    session_log: &ReplayLog,
    reference_log: &ReplayLog,
    session: &Design,
    what: &str,
) {
    let mut log = adoption_ops(candidate);
    let (prefix, delta) = reference_log.ops().split_at(log.len());
    assert_eq!(prefix, log.ops(), "{what}: reference log opens otherwise");
    assert_eq!(session_log.ops(), delta, "{what}: replay logs diverge");
    for op in session_log.ops() {
        match *op {
            ReplayOp::Place { cell, x, y } => log.record_place(cell, x, y),
            ReplayOp::Remove { cell, x, y } => log.record_remove(cell, x, y),
            ReplayOp::ShiftX { cell, from, x } => log.record_shift_x(cell, from, x),
        }
    }
    let replayed = log
        .verify(candidate)
        .unwrap_or_else(|e| panic!("{what}: adoption + delta log replays illegally: {e}"));
    let movable: Vec<Option<Point>> = session
        .cells
        .iter()
        .map(|c| c.pos.filter(|_| !c.fixed))
        .collect();
    assert_eq!(replayed, movable, "{what}: replay ends elsewhere");
}

/// A fresh full-pipeline base placement.
fn legalize(d: &Design, config: LegalizerConfig) -> RunOutput {
    Engine::new(config)
        .run_one(d, RunSpec::default())
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

        let candidate = candidate(&base, &moves);
        let RunOutput {
            design: r_out,
            stats: r_stats,
            replay: r_log,
        } = scratch_reference(&candidate, &s_cfg);

        // Positions, stats rows: byte-identical; the replay log is the
        // reference's after its adoption prefix.
        assert_eq!(
            positions(session.design()),
            positions(&r_out),
            "threads {threads}: positions diverge"
        );
        assert_eq!(s_stats, r_stats, "threads {threads}: stats diverge");
        let what = format!("threads {threads}");
        assert_delta_log(&candidate, &s_log, &r_log, session.design(), &what);

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
        let candidate = candidate(&rolling, &moves);
        let r = scratch_reference(&candidate, session.config());
        assert_eq!(
            positions(session.design()),
            positions(&r.design),
            "round {round}: positions diverge"
        );
        let what = format!("round {round}");
        assert_delta_log(&candidate, &s_log, &r.replay, session.design(), &what);
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

/// Clean neighbours are walls: a delta's closure ends inside an
/// edge-spacing chain, so clean cells sit within the spacing halo of
/// members. The post stages must keep those cells where they are and the
/// spacing to them intact, even where the members' GPs pull into them.
#[test]
fn clean_cells_at_the_closure_edge_are_walls() {
    let mut d = Design::new("walls", Technology::example(), Rect::new(0, 0, 4000, 900));
    let mut spacing = EdgeSpacingTable::new(2);
    spacing.set(1, 1, 20);
    d.tech.edge_spacing = spacing;
    let free = d.add_cell_type(CellType::new("s", 20, 1));
    let mut ruled = CellType::new("r", 20, 1);
    ruled.edge_class = (1, 1);
    let ruled = d.add_cell_type(ruled);
    // Row 0: a halo-connected chain with a free slot at x = 400 for the
    // moved cell, whose box is then [160, 660). The spacing-ruled cells at
    // 150 and 650 are the last members (just outside MGL's window, so only
    // the post stages can move them) and pull outwards; the ruled cells at
    // 110 and 690 are the first clean ones, at exactly the spacing rule.
    let mut row: Vec<(Dbu, CellTypeId, Dbu)> = vec![(0, free, 0), (30, free, 30), (60, free, 60)];
    row.push((110, ruled, 110));
    row.push((150, ruled, 0));
    row.extend((0..7).map(|k| (180 + 30 * k, free, 180 + 30 * k)));
    row.extend((0..7).map(|k| (430 + 30 * k, free, 430 + 30 * k)));
    row.push((650, ruled, 1000));
    row.push((690, ruled, 690));
    row.extend((0..10).map(|k| (740 + 30 * k, free, 740 + 30 * k)));
    let (wall_l, wall_r) = (3usize, 20usize);
    for (i, &(x, t, gp_x)) in row.iter().enumerate() {
        let mut c = Cell::new(format!("c{i}"), t, Point::new(gp_x, 0));
        c.pos = Some(Point::new(x, 0));
        d.add_cell(c);
    }
    let mover = d.add_cell({
        let mut c = Cell::new("mover", free, Point::new(3000, 360));
        c.pos = Some(Point::new(3000, 360));
        c
    });
    assert_eq!(mclegal::audit::verify(&d).placement_violations(), 0);
    let mut session = EcoSession::open(d.clone(), cfg(2)).expect("base placement is legal");
    let (stats, _) = session
        .apply_delta(&[(mover, Point::new(400, 0))])
        .expect("delta applies");

    let out = session.design();
    assert_eq!(out.cells[mover.0 as usize].pos, Some(Point::new(400, 0)));
    // The closure is the moved cell and the 16 chain cells of its box.
    let reused = stats.obs.counter(mclegal::obs::CounterKind::EcoCellsReused);
    assert_eq!(reused, d.cells.len() as u64 - 17, "closure is not the box");
    assert!(stats.fixed_order.applied);
    assert_eq!(mclegal::audit::verify(out).placement_violations(), 0);
    let x = |i: usize| out.cells[i].pos.expect("placed").x;
    assert_eq!((x(wall_l), x(wall_r)), (110, 690), "a clean wall moved");
    assert!(
        x(wall_l + 1) - (x(wall_l) + 20) >= 20,
        "left wall spacing lost"
    );
    assert!(
        x(wall_r) - (x(wall_r - 1) + 20) >= 20,
        "right wall spacing lost"
    );
}
