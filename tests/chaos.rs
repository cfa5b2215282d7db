//! Chaos suite: deterministic fault injection against the containment
//! contract of DESIGN.md §11 (`make chaos`).
//!
//! The invariants pinned here, at 1/2/4 threads where thread count is part
//! of the contract:
//!
//! 1. **No partial mutation** — a stage that fails (panic, allocation
//!    failure, deadline) leaves the placement exactly as it found it; the
//!    degradation rung (inline MGL, skip) then runs from that state.
//! 2. **No lying reports** — an injected fault never produces a
//!    `RunReport` that claims full success; the matching failure /
//!    degradation rows are present.
//! 3. **Blast-radius isolation** — in a batch of four, faults injected
//!    into one job leave the other three jobs' golden reports
//!    byte-identical to a fault-free batch, and to the checked-in golden
//!    snapshots.
//! 4. **Degradation costs quality, never legality** — every degraded
//!    result passes the clean-room legality auditor.
//! 5. **The harness itself is inert** — with no plan armed, replay logs
//!    stay bit-identical across thread counts.
//! 6. **The `serial` rung is the fault-free algorithm** — MGL rerun inline,
//!    without helpers, reproduces the fault-free placement at the same
//!    thread count.
//! 7. **A failed ECO delta is atomic** — an exhausted MGL ladder or the
//!    session deadline leaves the session's base, certificate and resident
//!    state as they were: its next delta matches a fresh session's. A post
//!    stage failing inside a delta is undone alone and skipped.

use mclegal::audit;
use mclegal::core::pipeline;
use mclegal::core::state::PlacementState;
use mclegal::core::{
    build_run_report, EcoSession, Engine, FailureClass, FaultPlan, FaultSite, LegalizeError,
    LegalizeStats, LegalizerConfig, RunOutput, RunSpec, Stage, StageSet,
};
use mclegal::db::prelude::*;
use mclegal::gen::generate;
use mclegal::gen::presets::golden_corpus;
use std::fs;
use std::path::PathBuf;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A messy multi-height design, large enough to drive several parallel
/// scheduler rounds so mid-round faults hit half-committed state.
fn messy_design(n: usize, seed: u64) -> Design {
    let mut s = seed | 1;
    let mut d = Design::new("chaos", Technology::example(), Rect::new(0, 0, 6000, 2700));
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

fn cfg_threads(threads: usize) -> LegalizerConfig {
    let mut cfg = LegalizerConfig::contest();
    cfg.threads = threads;
    cfg
}

fn positions(d: &Design) -> Vec<Option<Point>> {
    d.cells.iter().map(|c| c.pos).collect()
}

/// One full-pipeline run of `d` on a fresh engine.
fn try_run(config: &LegalizerConfig, d: &Design) -> Result<(Design, LegalizeStats), LegalizeError> {
    let out = Engine::new(config.clone()).run_one(d, RunSpec::default())?;
    Ok((out.design, out.stats))
}

/// Every stage-boundary fault site for one stage.
fn stage_sites(stage: &'static str) -> Vec<FaultSite> {
    vec![
        FaultSite::StagePanic { stage },
        FaultSite::StageAlloc { stage },
        FaultSite::StageDeadline { stage },
    ]
}

/// Invariant 2: whatever single fault is injected, the run either fails
/// with a typed error or returns a result whose report admits the fault —
/// never a clean-looking success. Covers every site kind at every stage.
#[test]
fn injected_faults_never_claim_full_success() {
    let d = messy_design(140, 0xBADC0DE);
    let mut sites: Vec<FaultSite> = Vec::new();
    for stage in ["mgl", "maxdisp", "fixed_order"] {
        sites.extend(stage_sites(stage));
    }
    // Per-cell sites across the id range (including ids that the MGL order
    // visits early, middle and late).
    for cell in [0u32, 37, 71, 103, 139] {
        sites.push(FaultSite::MglEval { cell });
        sites.push(FaultSite::MglApply { cell });
    }
    for site in sites {
        let cfg = {
            let mut c = cfg_threads(2);
            c.faults = Some(FaultPlan::new().arm_once(site.clone()).shared());
            c
        };
        match try_run(&cfg, &d) {
            Ok((placed, stats)) => {
                assert!(
                    !stats.claims_full_success(),
                    "{site:?}: faulted run claims full success"
                );
                let rep = build_run_report(&placed, &stats, &cfg);
                assert!(
                    !rep.claims_full_success(),
                    "{site:?}: faulted report claims full success"
                );
                // Invariant 4: whatever rung was taken, the placed cells
                // are legal under the clean-room auditor.
                assert_eq!(
                    audit::verify(&placed).placement_violations(),
                    0,
                    "{site:?}: degraded result is not legal"
                );
            }
            Err(e) => {
                // Terminal failure is an admissible outcome — but it must
                // be typed, not a panic (the harness would have aborted).
                let _ = e.class();
            }
        }
    }
}

/// Invariant 1 (satellite: the no-partial-mutation property test). For any
/// injected fault site that makes a stage fail terminally, the post-stage
/// placement state is bit-identical to the pre-stage state: the MGL
/// attempt with a helper commits insertions before the fault fires, and
/// every one of them must be rolled back.
#[test]
fn failed_stage_leaves_no_partial_mutation() {
    let d = messy_design(120, 0x5EED);
    let cfg_base = cfg_threads(2);
    // A spread of per-cell apply faults plus whole-stage panics; persistent
    // arming defeats the inline retry rung too, so the run fails terminally.
    let mut sites: Vec<FaultSite> = vec![FaultSite::StagePanic { stage: "mgl" }];
    for cell in [11u32, 42, 87, 119] {
        sites.push(FaultSite::MglApply { cell });
    }
    for site in sites {
        let mut cfg = cfg_base.clone();
        cfg.faults = Some(FaultPlan::new().arm_persistent(site.clone()).shared());
        let prep = pipeline::Prep::new(&d, &cfg);
        let mut state = PlacementState::new(&d);
        let before: Vec<Option<Point>> = d.cells.iter().map(|_| None).collect();
        // The first attempt runs with one helper, the inline retry without.
        let r = pipeline::run_stages(&d, &mut state, &cfg, RunSpec::Fresh, &prep, 2);
        let err = r.expect_err("persistent fault must exhaust the ladder");
        assert!(
            matches!(err, LegalizeError::StagePanicked { stage: "mgl", .. }),
            "{site:?}: unexpected terminal error {err}"
        );
        let after: Vec<Option<Point>> = (0..d.cells.len())
            .map(|i| state.pos(CellId(i as u32)))
            .collect();
        assert_eq!(
            before, after,
            "{site:?}: partial mutation escaped the failed stage"
        );
    }
}

/// Invariant 1, Ok-degraded flavor: a persistently panicking maxdisp stage
/// takes the skip rung, and the result is bit-identical to a run that
/// never enabled maxdisp — proof that the rollback restored exactly the
/// pre-stage state before skipping. The emitted report carries the
/// matching failure and degradation rows (satellite: report contract).
#[test]
fn skip_rung_equals_stage_disabled_and_is_reported() {
    let d = messy_design(140, 0xD15EA5E);
    for threads in [1usize, 2, 4] {
        let mut faulted = cfg_threads(threads);
        faulted.faults = Some(
            FaultPlan::new()
                .arm_persistent(FaultSite::StagePanic { stage: "maxdisp" })
                .shared(),
        );
        let (placed_f, stats_f) = try_run(&faulted, &d).expect("skip rung absorbs the fault");
        let mut disabled = cfg_threads(threads);
        disabled.stages = StageSet::of(&[Stage::Mgl, Stage::FixedOrder]);
        let (placed_d, _) = try_run(&disabled, &d).expect("clean run");
        assert_eq!(
            positions(&placed_f),
            positions(&placed_d),
            "threads={threads}: skip rung diverged from a disabled stage"
        );
        assert_eq!(stats_f.degradations.len(), 1);
        assert_eq!(stats_f.degradations[0].stage, "maxdisp");
        assert_eq!(stats_f.degradations[0].rung, "skip");
        let rep = build_run_report(&placed_f, &stats_f, &faulted);
        assert!(rep
            .failures
            .iter()
            .any(|f| f.stage == "maxdisp" && f.class == "degradable"));
        assert!(rep
            .degradations
            .iter()
            .any(|x| x.stage == "maxdisp" && x.rung == "skip"));
        assert!(!rep.claims_full_success());
        assert_eq!(audit::verify(&placed_f).placement_violations(), 0);
    }
}

/// Invariant 6: every fault that takes the `serial` rung — a one-shot
/// stage panic, a one-shot panic while committing a cell's insertion in a
/// mid-round run with helpers, an expired MGL deadline — is absorbed by
/// rerunning MGL inline, and the result is byte-identical to the fault-free
/// run at the same thread count: the rung is the one MGL algorithm, not a
/// second one. (A helper's `MglEval` panic never reaches the rung: the
/// scheduler's repair pass retries it in place; see the quarantine test.)
#[test]
fn serial_rung_reproduces_the_fault_free_run() {
    let d = messy_design(140, 0xFEED);
    for threads in [1usize, 2, 4] {
        let clean = cfg_threads(threads);
        let (placed_c, stats_c) = try_run(&clean, &d).expect("fault-free run");
        let report_c = build_run_report(&placed_c, &stats_c, &clean).golden_json();
        for site in [
            FaultSite::StagePanic { stage: "mgl" },
            FaultSite::MglApply { cell: 71 },
            FaultSite::StageDeadline { stage: "mgl" },
        ] {
            let mut faulted = cfg_threads(threads);
            faulted.faults = Some(FaultPlan::new().arm_once(site.clone()).shared());
            let (placed_f, stats_f) =
                try_run(&faulted, &d).expect("the serial rung absorbs a one-shot fault");
            let tag = format!("{threads} threads, {site:?}");
            let rungs: Vec<_> = stats_f
                .degradations
                .iter()
                .map(|x| (x.stage, x.rung))
                .collect();
            assert_eq!(rungs, vec![("mgl", "serial")], "{tag}");
            assert_eq!(positions(&placed_f), positions(&placed_c), "{tag}");
            assert_eq!(stats_f.mgl, stats_c.mgl, "{tag}: MGL stats");
            assert_eq!(stats_f.max_disp, stats_c.max_disp, "{tag}");
            assert_eq!(stats_f.fixed_order, stats_c.fixed_order, "{tag}");
            // Beyond the failure and degradation rows, the report is the
            // fault-free one.
            let mut report_f = build_run_report(&placed_f, &stats_f, &faulted);
            assert!(!report_f.claims_full_success(), "{tag}");
            report_f.failures.clear();
            report_f.degradations.clear();
            assert_eq!(report_f.golden_json(), report_c, "{tag}: report");
        }
    }
}

/// Quarantine: a cell whose evaluation keeps failing past the retry budget
/// is left unplaced with a typed failure row, deterministically across
/// thread counts.
#[test]
fn quarantine_is_deterministic_and_reported() {
    let d = messy_design(120, 0xACE);
    let victim = 57u32;
    let run = |threads: usize| {
        let mut cfg = cfg_threads(threads);
        cfg.faults = Some(
            FaultPlan::new()
                .arm_persistent(FaultSite::MglEval { cell: victim })
                .shared(),
        );
        let (placed, stats) = try_run(&cfg, &d).expect("quarantine is contained");
        (placed, stats, cfg)
    };
    let (p2, s2, cfg2) = run(2);
    assert_eq!(s2.mgl.quarantined, 1);
    assert!(s2.mgl.retries >= 1);
    assert!(
        p2.cells[victim as usize].pos.is_none(),
        "victim not quarantined"
    );
    let rep = build_run_report(&p2, &s2, &cfg2);
    assert!(
        rep.failures.iter().any(|f| f.stage == "mgl"
            && f.class == FailureClass::Retryable.label()
            && f.message.contains(&format!("cell {victim}"))),
        "missing quarantine failure row: {:?}",
        rep.failures
    );
    assert!(!rep.claims_full_success());
    // Everything that did place is legal.
    assert_eq!(audit::verify(&p2).placement_violations(), 0);
    // Bit-identical containment at the other thread counts.
    for threads in [1usize, 4] {
        let (p, s, _) = run(threads);
        assert_eq!(positions(&p2), positions(&p), "{threads} threads");
        assert_eq!(s2.mgl, s.mgl, "{threads} threads");
    }
}

/// The deadline ladder: an exhausted budget at every boundary takes the
/// declared rung per stage — inline (`serial`) MGL, skip maxdisp, skip
/// refine — and still yields a certified-legal placement.
#[test]
fn exhausted_deadline_takes_declared_ladder() {
    let d = messy_design(120, 0x70FF);
    let mut cfg = cfg_threads(2);
    cfg.stage_budget_secs = Some(0.0);
    let (placed, stats) = try_run(&cfg, &d).expect("the ladder absorbs an exhausted budget");
    let rungs: Vec<(&str, &str)> = stats
        .degradations
        .iter()
        .map(|x| (x.stage, x.rung))
        .collect();
    assert_eq!(
        rungs,
        vec![
            ("mgl", "serial"),
            ("maxdisp", "skip"),
            ("fixed_order", "skip")
        ]
    );
    assert_eq!(stats.failures.len(), 3, "one deadline row per stage");
    let rep = build_run_report(&placed, &stats, &cfg);
    assert!(!rep.claims_full_success());
    assert_eq!(audit::verify(&placed).placement_violations(), 0);
    // The degraded result is exactly the fault-free MGL-only placement.
    let mut mgl_only = cfg_threads(2);
    mgl_only.stages = StageSet::of(&[Stage::Mgl]);
    let (placed_s, _) = try_run(&mgl_only, &d).expect("clean");
    assert_eq!(positions(&placed), positions(&placed_s));
}

/// Invariant 7: an ECO delta that fails inside the run (an MGL fault on a
/// moved cell, armed for both the first attempt and the inline retry) or
/// after it (the session's `eco_delta` deadline) rolls back completely.
/// Every cell keeps its position, GP home and orientation, the certificate
/// is untouched, and the session's next delta is byte-identical to the
/// same delta on a fresh session over the same base.
#[test]
fn failed_eco_delta_rolls_back_the_resident_state() {
    let d = messy_design(160, 0xEC0);
    let (base, _) = try_run(&cfg_threads(2), &d).expect("fault-free base");
    let failing = EcoSession::synthesize_delta(&base, 12, 3);
    let victim = failing[5].0;
    // Other cells re-targeted onto the spots the failing delta vacates,
    // where a resident state that kept any of it would place them
    // differently.
    let others = base
        .movable_cells()
        .filter(|&c| failing.iter().all(|&(f, _)| f != c));
    let next: Vec<(CellId, Point)> = failing
        .iter()
        .zip(others)
        .map(|(&(f, _), c)| (c, base.cells[f.0 as usize].pos.expect("placed")))
        .collect();
    let cells = |s: &EcoSession| -> Vec<_> {
        let cells = &s.design().cells;
        cells.iter().map(|c| (c.pos, c.gp, c.orient)).collect()
    };
    let cases = [
        (FaultSite::MglApply { cell: victim.0 }, 2, "mgl"),
        (
            FaultSite::StageDeadline { stage: "eco_delta" },
            1,
            "eco_delta",
        ),
    ];
    for (site, fires, stage) in cases {
        let mut cfg = cfg_threads(2);
        cfg.faults = Some(FaultPlan::new().arm(site.clone(), fires).shared());
        let mut session = EcoSession::open(base.clone(), cfg).expect("legal base");
        let before = cells(&session);
        let cert = session.certificate().report();
        let err = session
            .apply_delta(&failing)
            .expect_err("armed delta fails");
        assert_eq!(err.stage(), Some(stage), "{site:?}: {err}");
        assert_eq!(cells(&session), before, "{site:?}: base changed");
        assert_eq!(session.certificate().report(), cert, "{site:?}");

        let mut fresh = EcoSession::open(base.clone(), cfg_threads(2)).expect("legal base");
        let (f_stats, f_log) = fresh.apply_delta(&next).expect("fresh delta");
        let (s_stats, s_log) = session.apply_delta(&next).expect("delta after rollback");
        assert_eq!(cells(&session), cells(&fresh), "{site:?}: positions");
        assert_eq!(s_stats, f_stats, "{site:?}: stats");
        assert_eq!(s_log, f_log, "{site:?}: replay log");
        assert_eq!(
            session.certificate().report(),
            fresh.certificate().report(),
            "{site:?}: certificate"
        );
    }
}

/// Invariant 7, degradable flavor: a post stage that panics inside a
/// session delta takes the skip rung, undone from the log. With maxdisp
/// armed persistently the delta (and the next one) equals a session whose
/// stage set drops maxdisp: positions, stats, replay log and certificate.
/// Armed once, the session's next delta runs fault-free and matches a
/// fresh session over the same base byte for byte.
#[test]
fn failed_post_stage_in_a_delta_takes_the_skip_rung() {
    let d = messy_design(160, 0x5EC0);
    let (base, _) = try_run(&cfg_threads(2), &d).expect("fault-free base");
    let deltas = [
        EcoSession::synthesize_delta(&base, 12, 4),
        EcoSession::synthesize_delta(&base, 12, 9),
    ];
    let cells = |s: &EcoSession| -> Vec<_> {
        let cells = &s.design().cells;
        cells.iter().map(|c| (c.pos, c.gp, c.orient)).collect()
    };
    let site = FaultSite::StagePanic { stage: "maxdisp" };
    let mut dropped = cfg_threads(2);
    dropped.stages = StageSet::of(&[Stage::Mgl, Stage::FixedOrder]);
    let mut reference = EcoSession::open(base.clone(), dropped).expect("legal base");
    let mut persistent = cfg_threads(2);
    persistent.faults = Some(FaultPlan::new().arm_persistent(site.clone()).shared());
    let mut session = EcoSession::open(base.clone(), persistent).expect("legal base");
    for moves in &deltas {
        let (s_stats, s_log) = session.apply_delta(moves).expect("skip rung absorbs it");
        let (r_stats, r_log) = reference.apply_delta(moves).expect("clean delta");
        let rungs: Vec<_> = s_stats
            .degradations
            .iter()
            .map(|g| (g.stage, g.rung))
            .collect();
        assert_eq!(rungs, [("maxdisp", "skip")]);
        assert!(s_stats.failures.iter().any(|f| f.stage == "maxdisp"));
        assert_eq!(cells(&session), cells(&reference), "positions");
        assert_eq!(
            (&s_stats.mgl, &s_stats.max_disp, &s_stats.fixed_order),
            (&r_stats.mgl, &r_stats.max_disp, &r_stats.fixed_order),
            "stats"
        );
        assert_eq!(s_log, r_log, "replay log");
        assert_eq!(
            session.certificate().report(),
            reference.certificate().report()
        );
    }

    let mut once = cfg_threads(2);
    once.faults = Some(FaultPlan::new().arm_once(site).shared());
    let mut session = EcoSession::open(base.clone(), once).expect("legal base");
    let (stats, _) = session.apply_delta(&deltas[0]).expect("skip rung");
    assert_eq!(stats.degradations.len(), 1);
    let mut fresh = EcoSession::open(session.design().clone(), cfg_threads(2)).expect("legal");
    let (f_stats, f_log) = fresh.apply_delta(&deltas[1]).expect("fresh delta");
    let (s_stats, s_log) = session.apply_delta(&deltas[1]).expect("fault-free delta");
    assert!(s_stats.claims_full_success());
    assert_eq!(cells(&session), cells(&fresh), "positions");
    assert_eq!((s_stats, s_log), (f_stats, f_log));
    assert_eq!(session.certificate().report(), fresh.certificate().report());
}

/// Invariant 3 (the acceptance criterion): with faults injected into any
/// one job of a batch of four, the other three jobs' golden reports are
/// byte-identical to a fault-free batch at 1/2/4 threads — and, at the
/// snapshot thread counts (2/4, which share the parallel algorithm), to
/// the checked-in goldens.
#[test]
fn batch_survivors_are_byte_identical_to_goldens() {
    let presets = golden_corpus();
    let designs: Vec<Design> = presets
        .iter()
        .map(|c| {
            generate(c)
                .unwrap_or_else(|e| panic!("{}: {e}", c.name))
                .design
        })
        .collect();
    for threads in [1usize, 2, 4] {
        let cfg = cfg_threads(threads);
        // Fault-free baseline at this thread count.
        let mut engine = Engine::new(cfg.clone());
        let baseline: Vec<String> = engine
            .run(&designs, RunSpec::default())
            .into_iter()
            .map(|r| {
                let out = r.expect("fault-free baseline must succeed");
                build_run_report(&out.design, &out.stats, &cfg).golden_json()
            })
            .collect();
        // Every thread count is pinned by the checked-in snapshots, modulo
        // the threads field.
        for (d, json) in designs.iter().zip(&baseline) {
            let snap = fs::read_to_string(golden_path(&d.name))
                .unwrap_or_else(|e| panic!("{}: {e}", d.name));
            assert_eq!(
                snap.trim_end().replace("\"threads\":2", "\"threads\":0"),
                json.replace(&format!("\"threads\":{threads}"), "\"threads\":0"),
                "{threads} threads, {}: baseline drifted from checked-in golden",
                d.name
            );
        }
        // Poison each job in turn, two ways: terminally (persistent mgl
        // panic beats the serial rung too) and degradably (maxdisp skip).
        for victim in 0..designs.len() {
            for terminal in [true, false] {
                let mut faulted = cfg.clone();
                let stage = if terminal { "mgl" } else { "maxdisp" };
                faulted.faults = Some(
                    FaultPlan::new()
                        .for_design(&designs[victim].name)
                        .arm_persistent(FaultSite::StagePanic { stage })
                        .shared(),
                );
                let mut engine = Engine::new(faulted.clone());
                let results = engine.run(&designs, RunSpec::default());
                for (i, r) in results.iter().enumerate() {
                    if i == victim {
                        if terminal {
                            let e = r.as_ref().expect_err("victim must fail terminally");
                            assert!(matches!(
                                e,
                                LegalizeError::StagePanicked { stage: "mgl", .. }
                            ));
                        } else {
                            let out = r.as_ref().expect("degradable victim must survive");
                            assert!(!out.stats.claims_full_success());
                            assert_eq!(audit::verify(&out.design).placement_violations(), 0);
                        }
                        continue;
                    }
                    let out = r.as_ref().expect("survivor must succeed");
                    let json = build_run_report(&out.design, &out.stats, &faulted).golden_json();
                    assert_eq!(
                        json, baseline[i],
                        "threads={threads} victim={victim} terminal={terminal}: \
                         survivor {} diverged from the fault-free batch",
                        designs[i].name
                    );
                }
            }
        }
    }
}

/// Invariant 3 under throttled admission: threads 4 with two designs in
/// flight gives each runner one helper, and the runners' jobs interleave.
/// A fault injected into one design — including a terminal failure, which
/// unwinds the victim's MGL stage while its helper waits for the next
/// round — must leave every peer's output byte-identical to the fault-free
/// baseline: a job's helpers and placement are its own, so a dying run
/// takes nothing shared down with it.
#[test]
fn interleaved_batch_fault_leaves_peers_byte_identical() {
    let designs: Vec<Design> = (0..6)
        .map(|k| {
            let mut d = messy_design(110, 0xFACE + k as u64 * 7919);
            d.name = format!("ib{k}");
            d
        })
        .collect();
    let mut cfg = cfg_threads(4);
    cfg.max_inflight_designs = 2;
    let mut engine = Engine::new(cfg.clone());
    let baseline: Vec<(Vec<Option<Point>>, String)> = engine
        .run(&designs, RunSpec::default())
        .into_iter()
        .map(|r| {
            let out = r.expect("fault-free baseline must succeed");
            (
                positions(&out.design),
                build_run_report(&out.design, &out.stats, &cfg).golden_json(),
            )
        })
        .collect();
    assert_eq!(engine.diag().helpers, 2, "one helper per runner expected");
    for victim in [0usize, 2, 5] {
        for terminal in [true, false] {
            let mut faulted = cfg.clone();
            let stage = if terminal { "mgl" } else { "maxdisp" };
            faulted.faults = Some(
                FaultPlan::new()
                    .for_design(&designs[victim].name)
                    .arm_persistent(FaultSite::StagePanic { stage })
                    .shared(),
            );
            let mut engine = Engine::new(faulted.clone());
            let results = engine.run(&designs, RunSpec::default());
            for (i, r) in results.iter().enumerate() {
                if i == victim {
                    if terminal {
                        assert!(r.is_err(), "victim must fail terminally");
                    }
                    continue;
                }
                let out = r.as_ref().expect("peer must succeed");
                assert_eq!(
                    positions(&out.design),
                    baseline[i].0,
                    "victim={victim} terminal={terminal}: peer {} positions diverged",
                    designs[i].name
                );
                assert_eq!(
                    build_run_report(&out.design, &out.stats, &faulted).golden_json(),
                    baseline[i].1,
                    "victim={victim} terminal={terminal}: peer {} report diverged",
                    designs[i].name
                );
            }
        }
    }
}

/// Invariant 5: compiling the harness in (probes present, no plan armed)
/// must not perturb the run — replay logs and positions stay
/// bit-identical across thread counts.
#[test]
fn fault_free_replay_logs_invariant_across_threads() {
    let d = messy_design(160, 0xC0FFEE);
    let run = |threads: usize| -> RunOutput {
        Engine::new(cfg_threads(threads))
            .run_one(&d, RunSpec::default())
            .expect("fault-free run")
    };
    let one = run(1);
    for threads in [2usize, 4] {
        let other = run(threads);
        assert_eq!(
            one.replay, other.replay,
            "replay logs diverged at {threads} threads"
        );
        assert_eq!(positions(&one.design), positions(&other.design));
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}
