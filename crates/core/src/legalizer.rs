//! Results of the three-stage legalization flow (Fig. 2) and the resident
//! ECO session.
//!
//! The flow itself runs through [`crate::Engine::run`]; this module holds
//! what a run returns ([`LegalizeStats`]) and [`EcoSession`], which keeps a
//! legal base placement resident and re-legalizes small deltas of it.

use crate::config::LegalizerConfig;
use crate::engine::Engine;
use crate::error::{Degradation, FailureRecord, LegalizeError};
use crate::fixed_order::FixedOrderStats;
use crate::maxdisp::MaxDispStats;
use crate::mgl::{compute_weights, MglStats};
use crate::pipeline::{Prep, Stage, StageTiming};
use crate::state::{Columns, PlacementState};
use mcl_db::prelude::*;
use mcl_obs::{Meter, SpanKind};
use std::borrow::Cow;

/// Combined statistics of a full legalization run.
#[derive(Debug, Clone, Default)]
pub struct LegalizeStats {
    /// Stage 1 statistics (zeroed when the stage did not run).
    pub mgl: MglStats,
    /// Stage 2 statistics (zeroed when the stage did not run).
    pub max_disp: MaxDispStats,
    /// Stage 3 statistics (zeroed when the stage did not run).
    pub fixed_order: FixedOrderStats,
    /// Wall-clock seconds per stage that ran, in execution order, keyed by
    /// stage name (`"mgl"`, `"maxdisp"`, `"fixed_order"`). Stages outside
    /// the configuration's stage set emit no entry.
    pub stage_seconds: Vec<StageTiming>,
    /// Contained pipeline-level failures (stage panics, deadline misses,
    /// broken MGL helpers) recorded by the driver. Per-cell MGL failures live in
    /// [`MglStats::failures`]; [`Self::failure_rows`] chains both.
    pub failures: Vec<FailureRecord>,
    /// Degradation-ladder rungs taken by the driver, in order (DESIGN.md
    /// §11). Empty on a clean run.
    pub degradations: Vec<Degradation>,
    /// Merged observability meter across all stages: run/stage spans,
    /// algorithm counters, and per-stage displacement histograms.
    pub obs: Meter,
}

impl LegalizeStats {
    /// Wall-clock seconds of the named stage, or `None` when the stage did
    /// not run.
    #[must_use]
    pub fn stage_seconds_for(&self, name: &str) -> Option<f64> {
        self.stage_seconds
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.seconds)
    }

    /// Every failure row of the run: pipeline-level rows first, then the
    /// per-cell rows recorded inside the MGL stage.
    pub fn failure_rows(&self) -> impl Iterator<Item = &FailureRecord> {
        self.failures.iter().chain(self.mgl.failures.iter())
    }

    /// Whether this run may be reported as a full success: no failure rows,
    /// no degradation rungs, no unplaced/quarantined/retried cells.
    #[must_use]
    pub fn claims_full_success(&self) -> bool {
        self.failures.is_empty()
            && self.degradations.is_empty()
            && self.mgl.failures.is_empty()
            && self.mgl.failed == 0
            && self.mgl.quarantined == 0
            && self.mgl.retries == 0
    }
}

impl PartialEq for LegalizeStats {
    /// Compares algorithmic outcomes (including failure and degradation
    /// rows, which are deterministic) only. Timing (`stage_seconds`) and the
    /// meter vary run to run and are excluded.
    fn eq(&self, other: &Self) -> bool {
        self.mgl == other.mgl
            && self.max_disp == other.max_disp
            && self.fixed_order == other.fixed_order
            && self.failures == other.failures
            && self.degradations == other.degradations
    }
}

/// A resident incremental-legalization session: the interactive-service
/// counterpart of a one-shot ECO run ([`crate::RunSpec::Eco`]).
///
/// The session owns the evolving base placement and keeps its placement
/// state and displacement weights resident between deltas. Each
/// [`Self::apply_delta`] re-targets a handful of cells (new GP homes,
/// positions vacated) in the base and in the resident state, then
/// re-legalizes them as a [`crate::RunSpec::EcoDelta`] run over that state, so
/// MGL only inserts the delta cells and the post stages confine
/// themselves to the bounded dirty-window closure ([`crate::dirty`]).
/// Only the cells the delta touched are written back and re-certified,
/// so a delta's cost follows its closure, not the design.
///
/// Determinism contract: a delta's positions, stats rows, golden report
/// and audit certificate are byte-identical to a from-scratch
/// [`crate::RunSpec::EcoDelta`] run on the same mutated design under the same
/// configuration, at any thread count, and its replay log is that run's
/// log without the adoption prefix (one `place` per placed movable cell):
/// the delta's own mutations. Pinned by the `eco_parity` suite. Each
/// delta's end-to-end wall time lands in the `eco.delta_nanos` histogram
/// of the returned stats (observability stratum, never golden).
pub struct EcoSession {
    design: Design,
    /// Runs every delta.
    engine: Engine,
    cert: mcl_audit::BandCert,
    /// The base's placement state, detached from `design` between deltas;
    /// its replay log holds nothing, so its dirty set is empty.
    resident: Columns,
    /// The run's displacement weights: they depend on cell types and
    /// heights only, which a delta never changes.
    weights: Vec<i64>,
}

impl EcoSession {
    /// Opens a session over a legal base placement; every knob of `config`
    /// is honored as-is.
    ///
    /// # Errors
    ///
    /// [`LegalizeError::SeedRejected`] when the base positions are not
    /// adoptable (the base must be legal), or when `config.stages` skips
    /// MGL, which is what places a delta's moved cells.
    pub fn open(design: Design, config: LegalizerConfig) -> Result<Self, LegalizeError> {
        if !config.stages.contains(Stage::Mgl) {
            return Err(LegalizeError::SeedRejected {
                cell: None,
                message: "an ECO session needs the mgl stage to place its deltas".into(),
            });
        }
        let mut state = PlacementState::from_design_positions(&design).map_err(|(cell, e)| {
            LegalizeError::SeedRejected {
                cell: Some(cell.0),
                message: e.to_string(),
            }
        })?;
        // A delta's log holds its own mutations, never the adoption.
        state.take_replay_log();
        let resident = state.detach();
        let weights = compute_weights(&design, config.weights);
        let cert = mcl_audit::BandCert::build(&design);
        Ok(Self {
            design,
            engine: Engine::new(config),
            cert,
            resident,
            weights,
        })
    }

    /// The current base placement (updated after every successful delta).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Deterministic synthetic delta for demos, benches and parity tests:
    /// picks `n` distinct movable cells by a seeded xorshift walk and
    /// re-targets each a few sites/rows away from its GP home (clamped to
    /// the core). Same `(design, n, seed)` → same moves, everywhere.
    pub fn synthesize_delta(design: &Design, n: usize, seed: u64) -> Vec<(CellId, Point)> {
        let movable: Vec<CellId> = design.movable_cells().collect();
        if movable.is_empty() {
            return Vec::new();
        }
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let sw = design.tech.site_width.max(1);
        let rh = design.tech.row_height.max(1);
        let mut taken = vec![false; movable.len()];
        let mut moves = Vec::with_capacity(n.min(movable.len()));
        while moves.len() < n.min(movable.len()) {
            let i = (rng() % movable.len() as u64) as usize;
            if taken.get(i).copied().unwrap_or(true) {
                continue;
            }
            if let Some(t) = taken.get_mut(i) {
                *t = true;
            }
            let Some(&cell) = movable.get(i) else {
                continue;
            };
            let Some(gp) = design.cells.get(cell.0 as usize).map(|c| c.gp) else {
                continue;
            };
            let dx = ((rng() % 17) as Dbu - 8) * sw;
            let dy = ((rng() % 5) as Dbu - 2) * rh;
            let target = Point::new(
                (gp.x + dx).clamp(design.core.xl, design.core.xh),
                (gp.y + dy).clamp(design.core.yl, design.core.yh),
            );
            moves.push((cell, target));
        }
        moves
    }

    /// The session configuration.
    pub fn config(&self) -> &LegalizerConfig {
        self.engine.config()
    }

    /// The session's rolling legality certificate: re-certified band-wise
    /// after each delta (only the rows the delta touched are re-swept), and
    /// byte-identical to a from-scratch `mcl_audit::verify` of
    /// [`Self::design`] at all times.
    pub fn certificate(&self) -> &mcl_audit::BandCert {
        &self.cert
    }

    /// Applies one ECO delta: each `(cell, gp)` move re-targets the cell's
    /// global-placement home and vacates its current position, then the
    /// whole delta re-legalizes through the dirty-window pipeline. On
    /// success the result becomes the session's new base; on error (or an
    /// unwind) the base, the resident state and the certificate are left
    /// exactly as they were (the delta is atomic).
    ///
    /// # Errors
    ///
    /// [`LegalizeError::SeedRejected`] for a move naming an out-of-range
    /// or fixed cell, otherwise the classed error of the underlying ECO
    /// run.
    pub fn apply_delta(
        &mut self,
        moves: &[(CellId, Point)],
    ) -> Result<(LegalizeStats, mcl_audit::ReplayLog), LegalizeError> {
        let sw = mcl_obs::clock::Stopwatch::start();
        for &(cell, _) in moves {
            let bad = |message: String| LegalizeError::SeedRejected {
                cell: Some(cell.0),
                message,
            };
            match self.design.cells.get(cell.0 as usize) {
                None => return Err(bad(format!("delta names nonexistent cell {}", cell.0))),
                Some(c) if c.fixed => {
                    return Err(bad(format!("delta moves fixed cell `{}`", c.name)));
                }
                Some(_) => {}
            }
        }
        let t_adopt = mcl_obs::clock::Stopwatch::start();
        let Self {
            design,
            engine,
            cert,
            resident,
            weights,
        } = self;
        let mut base = MovedCells::apply(design, moves);
        let design: &Design = base.design;
        let mut run = Attached::start(resident, design, &base.undo);
        let prep = Prep::with_weights(design, engine.config(), Cow::Borrowed(weights));
        let adopt_nanos = t_adopt.elapsed_nanos();
        let mut stats = run.run(engine, &prep)?;
        drop(prep);
        // Per-delta deadline: the session budget (`stage_budget_secs`)
        // bounds the *whole* delta. Inside the run the same budget drives
        // the pipeline's degradation ladder; if even the degraded result
        // lands past the budget, the delta fails atomically with
        // `DeadlineExceeded`: the guards roll the resident state and the
        // base back, and nothing is spliced. The injected
        // `StageDeadline { stage: "eco_delta" }` site forces expiry
        // deterministically, mirroring the pipeline's stage-boundary probe.
        let config = engine.config();
        let budget = config.stage_budget_secs;
        let expired = budget.is_some_and(|b| sw.elapsed_seconds() > b)
            || crate::faultinject::fires(
                config.faults.as_ref(),
                &design.name,
                &crate::faultinject::FaultSite::StageDeadline { stage: "eco_delta" },
            );
        if expired {
            return Err(LegalizeError::DeadlineExceeded {
                stage: "eco_delta",
                budget_secs: budget.unwrap_or(0.0),
            });
        }
        let t_commit = mcl_obs::clock::Stopwatch::start();
        let (changed, replay) = run.commit();
        let design = base.commit();
        // Only the cells the delta touched changed: write them back and
        // re-certify the bands they touch (a moved cell that lands exactly
        // back home is re-checked all the same, which is audit-neutral).
        resident.write_back_cells(design, &changed);
        cert.splice(design, &changed);
        stats.obs.record_span(SpanKind::EcoAdopt, adopt_nanos, 0);
        stats
            .obs
            .record_span(SpanKind::EcoCommit, t_commit.elapsed_nanos(), 0);
        stats
            .obs
            .observe(mcl_obs::HistoKind::EcoDeltaNanos, sw.elapsed_nanos());
        Ok((stats, replay))
    }
}

/// A moved cell's base values, restored if its delta fails.
struct Undo {
    cell: CellId,
    pos: Option<Point>,
    gp: Point,
}

/// A delta's moves written into the session's design: each moved cell's
/// GP home re-targeted and its position vacated, as a one-shot
/// [`crate::RunSpec::EcoDelta`] run's input has them. Dropped before
/// [`Self::commit`], it restores both.
struct MovedCells<'s> {
    design: &'s mut Design,
    /// One entry per move, in move order.
    undo: Vec<Undo>,
    committed: bool,
}

impl<'s> MovedCells<'s> {
    fn apply(design: &'s mut Design, moves: &[(CellId, Point)]) -> Self {
        let mut undo = Vec::with_capacity(moves.len());
        for &(cell, gp) in moves {
            if let Some(c) = design.cells.get_mut(cell.0 as usize) {
                undo.push(Undo {
                    cell,
                    pos: c.pos,
                    gp: c.gp,
                });
                c.gp = gp;
                c.pos = None;
            }
        }
        Self {
            design,
            undo,
            committed: false,
        }
    }

    /// Keeps the moves and hands back the design, for the delta's
    /// positions to be written into.
    fn commit(&mut self) -> &mut Design {
        self.committed = true;
        self.design
    }
}

impl Drop for MovedCells<'_> {
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        // In reverse, so a cell moved twice ends at its first entry.
        for u in self.undo.iter().rev() {
            if let Some(c) = self.design.cells.get_mut(u.cell.0 as usize) {
                c.pos = u.pos;
                c.gp = u.gp;
            }
        }
    }
}

/// The session's resident state, attached to its design for one delta.
/// Its replay log is empty on attach, so log mark 0 is the base. Dropped
/// before [`Self::commit`] (an error return or an unwind), it undoes the
/// delta, the moved cells' removals included, back to that mark. Either
/// way the state goes back to the session with an empty log.
struct Attached<'s, 'd> {
    /// `None` once handed back.
    state: Option<PlacementState<'d>>,
    home: &'s mut Columns,
    /// Log mark after the moved cells' removals: the delta's epoch.
    epoch: usize,
}

impl<'s, 'd> Attached<'s, 'd> {
    /// Attaches the resident state and vacates the moved cells in it.
    fn start(home: &'s mut Columns, design: &'d Design, moved: &[Undo]) -> Self {
        let mut state = PlacementState::attach(std::mem::take(home), design);
        for u in moved {
            if state.pos(u.cell).is_some() {
                state.remove(u.cell);
            }
        }
        // The vacated cells seed the delta the way adoption seeds a
        // one-shot run: before its epoch and outside its log, so the dirty
        // seeds and every output are the reference's.
        let epoch = state.mark();
        state.begin_epoch();
        Self {
            state: Some(state),
            home,
            epoch,
        }
    }

    /// Runs the delta's stages over the attached state.
    fn run(
        &mut self,
        engine: &mut Engine,
        prep: &Prep<'d>,
    ) -> Result<LegalizeStats, LegalizeError> {
        let Some(state) = &mut self.state else {
            return Err(LegalizeError::PoolBroken {
                during: "resident state",
            });
        };
        engine.run_delta(state.design(), state, prep)
    }

    /// Keeps the delta and hands the state back. Returns the cells whose
    /// position may have changed (every cell the log touched since the
    /// base, the moved cells' removals included) and the delta's replay
    /// log (the ops after the removals).
    fn commit(mut self) -> (Vec<CellId>, mcl_audit::ReplayLog) {
        let Some(mut state) = self.state.take() else {
            return (Vec::new(), mcl_audit::ReplayLog::new());
        };
        let changed = state.touched_since(0).into_iter().map(|(c, _)| c).collect();
        let replay = state.take_replay_log().split_off(self.epoch);
        *self.home = state.detach();
        (changed, replay)
    }
}

impl Drop for Attached<'_, '_> {
    fn drop(&mut self) {
        let Some(mut state) = self.state.take() else {
            return;
        };
        state.undo_to(0);
        *self.home = state.detach();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunSpec;
    use crate::pipeline::{StageSet, POST_PIPELINE};
    use mcl_db::score::Metrics;

    fn run_with(
        config: LegalizerConfig,
        d: &Design,
        spec: RunSpec,
    ) -> Result<(Design, LegalizeStats), LegalizeError> {
        let out = Engine::new(config).run_one(d, spec)?;
        Ok((out.design, out.stats))
    }

    fn run(config: LegalizerConfig, d: &Design) -> (Design, LegalizeStats) {
        run_with(config, d, RunSpec::default()).expect("fault-free run")
    }

    fn messy_design(n: usize, seed: u64) -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 3000, 2700));
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

    #[test]
    fn full_flow_is_legal_and_better_than_stage1_alone() {
        let d = messy_design(250, 31);
        let full = LegalizerConfig::total_displacement();
        let mut cfg1 = LegalizerConfig::total_displacement();
        cfg1.stages = StageSet::of(&[Stage::Mgl]);

        let (out_full, s_full) = run(full, &d);
        let (out_1, s_1) = run(cfg1, &d);
        assert_eq!(s_full.mgl.failed, 0);
        assert_eq!(s_1.mgl.failed, 0);
        assert!(Checker::new(&out_full).check().is_legal());
        assert!(Checker::new(&out_1).check().is_legal());

        let m_full = Metrics::measure(&out_full);
        let m_1 = Metrics::measure(&out_1);
        assert!(
            m_full.total_disp_dbu <= m_1.total_disp_dbu,
            "post-processing must not hurt total displacement: {} vs {}",
            m_full.total_disp_dbu,
            m_1.total_disp_dbu
        );
        // With n0 = 0 stage 3 optimizes total displacement only, so the max
        // may drift a little; it must not explode.
        assert!(m_full.max_disp_rows <= 1.5 * m_1.max_disp_rows + 1.0);
    }

    #[test]
    fn stage_timings_are_named_and_follow_enablement() {
        let d = messy_design(120, 9);
        let (_, full) = run(LegalizerConfig::total_displacement(), &d);
        let names: Vec<_> = full.stage_seconds.iter().map(|t| t.name).collect();
        assert_eq!(names, ["mgl", "maxdisp", "fixed_order"]);
        assert!(full.stage_seconds_for("mgl").is_some());

        let mut cfg1 = LegalizerConfig::total_displacement();
        cfg1.stages = StageSet::of(&[Stage::Mgl]);
        let (_, only1) = run(cfg1, &d);
        let names: Vec<_> = only1.stage_seconds.iter().map(|t| t.name).collect();
        assert_eq!(names, ["mgl"], "disabled stages must emit no timing row");
        assert_eq!(only1.stage_seconds_for("maxdisp"), None);
    }

    #[test]
    fn refine_on_legal_input_improves_or_keeps() {
        let d = messy_design(150, 77);
        let cfg = LegalizerConfig::total_displacement();
        let mut stage1_cfg = cfg.clone();
        stage1_cfg.stages = StageSet::of(&[Stage::Mgl]);
        let (legal, _) = run(stage1_cfg, &d);
        let before = Metrics::measure(&legal);
        let mut post_cfg = cfg;
        post_cfg.stages = POST_PIPELINE;
        let (refined, stats) = run_with(post_cfg, &legal, RunSpec::default()).unwrap();
        assert!(stats.fixed_order.applied);
        let after = Metrics::measure(&refined);
        assert!(after.total_disp_dbu <= before.total_disp_dbu);
        assert!(Checker::new(&refined).check().is_legal());
    }

    #[test]
    fn eco_mode_keeps_placed_cells_near_home() {
        // Legalize once, then add a handful of new cells (unplaced) and run
        // ECO: pre-placed cells may shift (post-processing) but must stay
        // close; new cells get inserted; everything stays legal.
        let d = messy_design(150, 13);
        let stage1_only = {
            let mut c = LegalizerConfig::total_displacement();
            c.stages = StageSet::of(&[Stage::Mgl]);
            c
        };
        let (mut placed, _) = run(stage1_only, &d);
        let n_old = placed.cells.len();
        let baseline: Vec<Point> = placed.cells.iter().map(|c| c.pos.unwrap()).collect();
        for i in 0..10 {
            placed.add_cell(Cell::new(
                format!("eco{i}"),
                CellTypeId(0),
                Point::new(200 + i * 150, 400),
            ));
        }
        let (out, stats) =
            run_with(LegalizerConfig::total_displacement(), &placed, RunSpec::Eco).unwrap();
        assert_eq!(stats.mgl.failed, 0);
        assert!(Checker::new(&out).check().is_legal());
        // Old cells: placed, and the vast majority untouched by the ECO.
        let mut moved = 0;
        for (i, base) in baseline.iter().enumerate().take(n_old) {
            let now = out.cells[i].pos.unwrap();
            if now != *base {
                moved += 1;
            }
        }
        assert!(
            moved <= n_old / 3,
            "ECO should disturb few pre-placed cells, moved {moved}/{n_old}"
        );
        // New cells all placed.
        for c in &out.cells[n_old..] {
            assert!(c.pos.is_some());
        }
    }

    #[test]
    fn budget_exceeded_delta_rolls_back_atomically() {
        let d = messy_design(120, 9);
        let base_cfg = LegalizerConfig::total_displacement();
        let (placed, _) = run(base_cfg.clone(), &d);

        // A session whose budget is impossible to meet: every delta must
        // fail with `DeadlineExceeded{stage: "eco_delta"}` and leave the
        // resident base and certificate exactly as they were.
        let mut strict = base_cfg.clone();
        strict.stage_budget_secs = Some(0.0);
        let mut session = EcoSession::open(placed.clone(), strict).expect("legal base must open");
        let cells = |s: &EcoSession| -> Vec<_> {
            let cells = &s.design().cells;
            cells.iter().map(|c| (c.pos, c.gp, c.orient)).collect()
        };
        let before = cells(&session);
        let cert_before = session.certificate().report();
        let moves = EcoSession::synthesize_delta(session.design(), 8, 77);
        match session.apply_delta(&moves) {
            Err(LegalizeError::DeadlineExceeded { stage, budget_secs }) => {
                assert_eq!(stage, "eco_delta");
                assert_eq!(budget_secs, 0.0);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(
            before,
            cells(&session),
            "failed delta must not mutate the base"
        );
        assert_eq!(
            session.certificate().report(),
            cert_before,
            "failed delta must not touch the rolling certificate"
        );

        // The resident state is the base again, with nothing pending.
        let state = PlacementState::attach(session.resident.clone(), &session.design);
        for id in session.design.movable_cells() {
            assert_eq!(state.pos(id), session.design.cells[id.0 as usize].pos);
        }
        assert!(state.dirty_cells().is_empty());

        // The same delta through an unbudgeted session over the same base
        // succeeds — the rollback above was the budget, not the delta.
        let mut relaxed = EcoSession::open(placed.clone(), base_cfg.clone()).expect("legal base");
        relaxed
            .apply_delta(&moves)
            .expect("unbudgeted delta must succeed");

        // With the budget lifted in place, the failed session's next delta
        // matches a fresh session's byte for byte. It re-targets other
        // cells onto the spots the failed delta vacated, where a state that
        // kept any of the failed delta would place them differently.
        let others = placed
            .movable_cells()
            .filter(|&c| moves.iter().all(|&(m, _)| m != c));
        let next: Vec<(CellId, Point)> = moves
            .iter()
            .zip(others)
            .map(|(&(m, _), c)| (c, placed.cells[m.0 as usize].pos.expect("placed")))
            .collect();
        let mut fresh = EcoSession::open(placed, base_cfg.clone()).expect("legal base must open");
        session.engine = Engine::new(base_cfg);
        let (f_stats, f_log) = fresh.apply_delta(&next).expect("fresh delta");
        let (s_stats, s_log) = session.apply_delta(&next).expect("delta after rollback");
        assert_eq!(cells(&session), cells(&fresh));
        assert_eq!((s_stats, s_log), (f_stats, f_log));
        assert_eq!(session.certificate().report(), fresh.certificate().report());
    }

    #[test]
    fn session_needs_the_mgl_stage() {
        let (placed, _) = run(LegalizerConfig::total_displacement(), &messy_design(40, 3));
        let mut post_only = LegalizerConfig::total_displacement();
        post_only.stages = POST_PIPELINE;
        assert!(matches!(
            EcoSession::open(placed, post_only),
            Err(LegalizeError::SeedRejected { cell: None, .. })
        ));
    }

    #[test]
    fn eco_rejects_illegal_input() {
        let mut d = messy_design(10, 3);
        d.cells[0].pos = Some(Point::new(13, 7)); // misaligned
        assert!(run_with(LegalizerConfig::total_displacement(), &d, RunSpec::Eco).is_err());
    }

    #[test]
    fn fences_and_routability_end_to_end() {
        let mut d = messy_design(120, 5);
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
        let f = d.add_fence(FenceRegion::new(
            "g0",
            vec![Rect::new(600, 450, 1800, 1350)],
        ));
        // A quarter of the cells belong to the fence.
        let ids: Vec<u32> = (0..d.cells.len() as u32).filter(|i| i % 4 == 0).collect();
        for i in ids {
            d.cells[i as usize].fence = f;
        }
        let (out, stats) = run(LegalizerConfig::contest(), &d);
        assert_eq!(stats.mgl.failed, 0, "{stats:?}");
        let rep = Checker::new(&out).check();
        assert!(rep.is_legal(), "{:?}", rep.details);
        assert_eq!(rep.fence_violations, 0);
    }
}
