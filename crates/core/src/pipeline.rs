//! Declarative stage pipeline for the three-stage flow.
//!
//! The paper's flow is an ordered composition of stages (MGL insertion →
//! max-displacement matching → fixed-order refinement). This module is the
//! single place that composition lives: a [`Stage`] names one stage, the
//! configuration's [`StageSet`] says which of them run, the driver
//! [`run_stages`] walks that set in canonical order, and every stage is
//! wrapped uniformly by the same middleware — wall-clock timing into
//! [`StageTiming`], a stage span in the meter, the per-stage displacement
//! histogram, and the independent clean-room audit. A new stage therefore
//! cannot forget to be timed, metered or audited. The one public entry
//! point, [`crate::Engine::run`], differs per job only in how the initial
//! [`PlacementState`] is seeded ([`RunSpec`]).
//!
//! Middleware order per stage (fixed; meter merging is commutative, so
//! the aggregate is insensitive to it):
//!
//! 1. run the stage body and store its statistics in [`LegalizeStats`]
//!    (MGL also merges its helpers' meters),
//! 2. push the named [`StageTiming`],
//! 3. record the stage span,
//! 4. record the displacement histogram of the current placement,
//! 5. run the clean-room audit (`debug_assertions` / `audit` feature).

use crate::config::LegalizerConfig;
use crate::dirty::DirtyClosure;
use crate::engine::RunSpec;
use crate::error::{panic_message, Degradation, FailureClass, LegalizeError};
use crate::faultinject::FaultSite;
use crate::fixed_order::optimize_fixed_order_metered;
use crate::legalizer::LegalizeStats;
use crate::maxdisp::optimize_max_disp_metered;
use crate::mgl::compute_weights;
use crate::routability::RoutOracle;
use crate::scheduler::drive_rounds;
use crate::state::PlacementState;
use mcl_db::prelude::*;
use mcl_obs::{clock::Stopwatch, CounterKind, HistoKind, Meter, SpanKind};
use std::borrow::Cow;
use std::panic::AssertUnwindSafe;

/// Wall-clock seconds of one stage that ran, keyed by stage name. Stages
/// outside the run's [`StageSet`] emit no entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// The stage's [`Stage::name`].
    pub name: &'static str,
    /// Wall-clock seconds spent in the stage body.
    pub seconds: f64,
}

/// One stage of the flow, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Stage 1: MGL window insertion over the unplaced cells.
    Mgl,
    /// Stage 2: per (type × fence) min-cost bipartite matching minimizing
    /// the convex max-displacement objective.
    MaxDisp,
    /// Stage 3: fixed row-and-order refinement via the dual min-cost flow.
    FixedOrder,
}

impl Stage {
    /// Every stage, in canonical order.
    pub const ALL: [Stage; 3] = [Stage::Mgl, Stage::MaxDisp, Stage::FixedOrder];

    /// Stable stage name, used for [`StageTiming`], report rows and CLI
    /// `--stages` specs.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Mgl => "mgl",
            Stage::MaxDisp => "maxdisp",
            Stage::FixedOrder => "fixed_order",
        }
    }

    /// The span recorded around the stage body and the displacement
    /// histogram recorded after it.
    fn meters(self) -> (SpanKind, HistoKind) {
        match self {
            Stage::Mgl => (SpanKind::StageMgl, HistoKind::DispSitesMgl),
            Stage::MaxDisp => (SpanKind::StageMaxDisp, HistoKind::DispSitesMaxDisp),
            Stage::FixedOrder => (SpanKind::StageFixedOrder, HistoKind::DispSitesFixedOrder),
        }
    }
}

/// Which stages a run executes. A set, not a list: it always iterates in
/// canonical order, so a duplicated or reordered stage cannot be
/// expressed.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageSet(u8);

impl StageSet {
    /// The set of the given stages; order and repeats are irrelevant.
    pub const fn of(mut stages: &[Stage]) -> Self {
        let mut bits = 0;
        while let [stage, rest @ ..] = stages {
            bits |= 1 << *stage as u8;
            stages = rest;
        }
        Self(bits)
    }

    /// Whether `stage` runs.
    pub const fn contains(self, stage: Stage) -> bool {
        self.0 & (1 << stage as u8) != 0
    }

    /// The stages in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Stage> {
        Stage::ALL.into_iter().filter(move |&s| self.contains(s))
    }
}

impl std::fmt::Debug for StageSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The full three-stage flow (fresh and ECO runs).
pub const FULL_PIPELINE: StageSet = StageSet::of(&Stage::ALL);

/// The two post-processing stages only (refinement of a legal input,
/// Table 3 ablations).
pub const POST_PIPELINE: StageSet = StageSet::of(&[Stage::MaxDisp, Stage::FixedOrder]);

/// Resolves a CLI-style comma-separated stage spec (`mgl,maxdisp,fixed`)
/// into a stage set. Stage names are `mgl`, `maxdisp` and
/// `fixed`/`fixed_order`; the spec must be a non-empty subsequence of the
/// canonical order (stages can be dropped, not reordered).
///
/// # Errors
///
/// Returns a human-readable message for unknown names, duplicates, an empty
/// spec, or out-of-order stages.
pub fn parse_stages(spec: &str) -> Result<StageSet, String> {
    let mut stages = Vec::new();
    for (i, raw) in spec.split(',').enumerate() {
        let name = raw.trim();
        let stage = match name {
            "mgl" => Stage::Mgl,
            "maxdisp" => Stage::MaxDisp,
            "fixed" | "fixed_order" => Stage::FixedOrder,
            "" => return Err(format!("empty stage name at position {i} in `{spec}`")),
            other => {
                return Err(format!(
                    "unknown stage `{other}` (expected mgl, maxdisp, fixed)"
                ));
            }
        };
        match stages.last() {
            Some(&last) if last == stage => {
                return Err(format!("duplicate stage `{name}` in `{spec}`"));
            }
            Some(&last) if last > stage => {
                return Err(format!(
                    "stage `{name}` out of order in `{spec}` (canonical order: mgl,maxdisp,fixed)"
                ));
            }
            _ => stages.push(stage),
        }
    }
    Ok(StageSet::of(&stages))
}

/// Per-run prepared inputs shared by every stage: displacement weights and
/// the optional routability oracle. Building one of these (plus the initial
/// [`PlacementState`]) is all the engine does before handing off to
/// [`run_stages`]. The engine builds each job's `Prep` at claim time and
/// drops it when the job finishes; an [`crate::EcoSession`] computes the
/// weights once and lends them to every delta.
pub struct Prep<'d> {
    /// Per-cell displacement weights: a job's own `Vec` or a session's
    /// borrowed one, never an `Arc<[i64]>`: converting would copy the
    /// vector and free the original, and freeing a block that large raises
    /// glibc's dynamic mmap threshold, which slowed stage 3 by about a
    /// quarter at 100k cells.
    pub weights: Cow<'d, [i64]>,
    pub(crate) oracle: Option<RoutOracle<'d>>,
}

impl<'d> Prep<'d> {
    /// Computes weights and (when configured) the routability oracle.
    pub fn new(design: &'d Design, config: &LegalizerConfig) -> Self {
        Self::with_weights(
            design,
            config,
            Cow::Owned(compute_weights(design, config.weights)),
        )
    }

    /// A `Prep` over weights computed earlier for the same design and
    /// `config.weights` (they depend on neither positions nor GP homes);
    /// the oracle is rebuilt, which costs a table over cell types.
    pub(crate) fn with_weights(
        design: &'d Design,
        config: &LegalizerConfig,
        weights: Cow<'d, [i64]>,
    ) -> Self {
        Prep {
            weights,
            oracle: config.routability.then(|| RoutOracle::new(design)),
        }
    }

    /// The oracle, when routability mode is on.
    pub fn oracle(&self) -> Option<&RoutOracle<'d>> {
        self.oracle.as_ref()
    }
}

/// Records the per-cell displacement histogram of `cells` in the current
/// placement (Manhattan distance from the global-placement position, in
/// site widths) into `obs` under `kind`. Fixed and unplaced cells are
/// skipped, matching `Metrics::measure`.
fn record_disp_histogram(
    obs: &mut Meter,
    state: &PlacementState<'_>,
    design: &Design,
    kind: HistoKind,
    cells: impl IntoIterator<Item = CellId>,
) {
    if !mcl_obs::recording() {
        return;
    }
    let sw = design.tech.site_width.max(1);
    for id in cells {
        let (Some(cell), Some(p)) = (design.cells.get(id.0 as usize), state.pos(id)) else {
            continue;
        };
        if !cell.fixed {
            let d = (p.x - cell.gp.x).abs() + (p.y - cell.gp.y).abs();
            obs.observe(kind, (d / sw) as u64);
        }
    }
}

/// Runs the independent auditor (`mcl_audit`) over the state after a stage
/// and panics on any hard violation among the *placed* cells. Stages may
/// leave overflow cells unplaced (reported through their stats); everything
/// they did place must satisfy every §2 constraint.
///
/// Active under `debug_assertions` and in `--features audit` builds; CI runs
/// the latter so every stage of every test design is independently checked.
#[cfg(any(debug_assertions, feature = "audit"))]
fn audit_stage(state: &PlacementState<'_>, design: &Design, stage: &str) {
    let mut snapshot = design.clone();
    state.write_back(&mut snapshot);
    let rep = mcl_audit::verify(&snapshot);
    assert_eq!(
        rep.placement_violations(),
        0,
        "independent audit failed after stage `{stage}` of `{}`: {:?}",
        design.name,
        rep.notes
    );
}

#[cfg(not(any(debug_assertions, feature = "audit")))]
fn audit_stage(_state: &PlacementState<'_>, _design: &Design, _stage: &str) {}

/// One guarded stage attempt: fault probes at the boundary (injected
/// allocation failure, injected stage panic), then the stage body under
/// `catch_unwind` so a panic anywhere inside is contained and classified
/// instead of tearing the process down. Only a completed body stores its
/// statistics in `stats`.
#[allow(clippy::too_many_arguments)]
fn run_stage_guarded<'d>(
    stage: Stage,
    design: &'d Design,
    state: &mut PlacementState<'d>,
    config: &LegalizerConfig,
    prep: &Prep<'d>,
    stats: &mut LegalizeStats,
    threads: usize,
    delta: Option<&DirtyClosure>,
) -> Result<(), LegalizeError> {
    let name = stage.name();
    let alloc_site = FaultSite::StageAlloc { stage: name };
    if crate::faultinject::fires(config.faults.as_ref(), &design.name, &alloc_site) {
        return Err(LegalizeError::ResourceExhausted {
            stage: name,
            what: "memory (injected allocation failure)",
        });
    }
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let panic_site = FaultSite::StagePanic { stage: name };
        if crate::faultinject::fires(config.faults.as_ref(), &design.name, &panic_site) {
            crate::faultinject::injected_panic(&panic_site);
        }
        let obs = &mut stats.obs;
        match stage {
            Stage::Mgl => {
                stats.mgl = drive_rounds(state, config, prep, threads)?;
                stats.obs.merge(&stats.mgl.obs);
            }
            Stage::MaxDisp => {
                stats.max_disp = optimize_max_disp_metered(state, config, threads, obs, delta);
            }
            Stage::FixedOrder => {
                let (weights, oracle) = (&prep.weights, prep.oracle());
                stats.fixed_order =
                    optimize_fixed_order_metered(state, config, weights, oracle, obs, delta);
            }
        }
        Ok(())
    }));
    match caught {
        Ok(r) => r,
        Err(p) => Err(LegalizeError::StagePanicked {
            stage: name,
            message: panic_message(&*p),
        }),
    }
}

/// Clean-room certification of a degraded result. Unlike [`audit_stage`]
/// this is *not* gated behind `debug_assertions`/`audit`: when a rung of the
/// degradation ladder was taken, the normal per-stage invariant chain was
/// interrupted, so the result must independently prove legality or the job
/// errors out. Degradation may cost quality, never legality.
fn certify_degraded(state: &PlacementState<'_>, design: &Design) -> Result<(), LegalizeError> {
    let mut snapshot = design.clone();
    state.write_back(&mut snapshot);
    let rep = mcl_audit::verify(&snapshot);
    let violations = rep.placement_violations();
    if violations != 0 {
        return Err(LegalizeError::AuditFailed {
            stage: "pipeline",
            violations,
        });
    }
    Ok(())
}

/// The single pipeline driver behind [`crate::Engine::run`]. Walks
/// `config.stages` in canonical order, applying the module-doc middleware
/// around each, and finishes with the run-level span. Under
/// [`RunSpec::EcoDelta`] the post stages restrict themselves to the dirty
/// closure of the adopted `state`; any other `spec` has them walk every
/// cell (seeding the state is the caller's job).
///
/// `threads` is the job's thread share: MGL spawns a helper per thread past
/// the first, each thread building its own insertion scratch for the
/// stage, and stage 2 solves its matchings on that many threads. One
/// thread runs everything on the calling thread — same results.
///
/// # Fault containment (DESIGN.md §11)
///
/// Every stage starts at a mark in the placement's replay log. A stage
/// that returns a typed [`LegalizeError`] or panics is undone back to
/// that mark from the log (`PlacementState::undo_to`; no copy of the
/// placement is kept), so no partial mutation ever escapes a failed
/// stage, and the declared degradation ladder decides what happens next:
///
/// - `mgl`: retry once inline, without helpers (rung `"serial"`). MGL
///   output does not depend on the thread count, so the rung reproduces
///   the fault-free placement; if the retry also fails the job fails.
/// - `maxdisp` / `fixed_order`: skip the stage (rung `"skip"`), keeping the
///   pre-stage assignment.
///
/// A per-stage wall-clock budget ([`LegalizerConfig::stage_budget_secs`]) is
/// checked at stage boundaries and takes the same rungs. Every rung is
/// recorded in [`LegalizeStats::degradations`] alongside a failure row, and
/// a degraded run must pass the clean-room auditor before it is reported as
/// a success.
///
/// # Errors
///
/// A [`LegalizeError`] when the ladder is exhausted (the placement is the
/// caller's seeded state for `mgl` failures) or when a degraded result fails
/// certification.
pub fn run_stages<'d>(
    design: &'d Design,
    state: &mut PlacementState<'d>,
    config: &LegalizerConfig,
    spec: RunSpec,
    prep: &Prep<'d>,
    threads: usize,
) -> Result<LegalizeStats, LegalizeError> {
    let mut stats = LegalizeStats::default();
    let run_sw = Stopwatch::start();
    // Delta-first ECO: the bounded closure of everything mutated since
    // adoption (computed lazily before the first post stage, after MGL has
    // placed the delta cells). Neither post stage moves a clean cell, so
    // the walls the closure leaves stay put and one computation serves
    // both.
    let mut delta: Option<DirtyClosure> = None;
    for stage in config.stages.iter() {
        let name = stage.name();
        let post = stage != Stage::Mgl;
        if post && spec == RunSpec::EcoDelta && delta.is_none() {
            let t_closure = Stopwatch::start();
            let dc = crate::dirty::compute(state, config);
            stats
                .obs
                .add(CounterKind::EcoWindowsDirty, dc.windows().len() as u64);
            let placed = state.placed_count();
            let in_closure_placed = dc
                .cells()
                .iter()
                .filter(|&&c| state.pos(c).is_some())
                .count();
            stats.obs.add(
                CounterKind::EcoCellsReused,
                placed.saturating_sub(in_closure_placed) as u64,
            );
            stats
                .obs
                .record_span(SpanKind::EcoClosure, t_closure.elapsed_nanos(), 0);
            delta = Some(dc);
        }
        // Deadline at the stage boundary: wall-clock budget already spent by
        // earlier stages, or an injected deadline expiry.
        let deadline_site = FaultSite::StageDeadline { stage: name };
        let budget = config.stage_budget_secs;
        let deadline_hit = budget.is_some_and(|b| run_sw.elapsed_seconds() > b)
            || crate::faultinject::fires(config.faults.as_ref(), &design.name, &deadline_site);
        if deadline_hit {
            let err = LegalizeError::DeadlineExceeded {
                stage: name,
                budget_secs: budget.unwrap_or(0.0),
            };
            stats.failures.push(err.to_record());
            // MGL still inserts (inline, without helpers); later stages
            // are skipped, keeping the current assignment.
            stats.degradations.push(Degradation {
                stage: name,
                rung: if post { "skip" } else { "serial" },
                reason: err.to_string(),
            });
            if post {
                continue;
            }
        }
        let share = if deadline_hit { 1 } else { threads };
        let t = Stopwatch::start();
        // A failed stage is undone to here: no partial mutation escapes.
        let mark = state.mark();
        let first = run_stage_guarded(
            stage,
            design,
            state,
            config,
            prep,
            &mut stats,
            share,
            delta.as_ref(),
        );
        if let Err(e) = first {
            state.undo_to(mark);
            if e.class() == FailureClass::Fatal {
                return Err(e);
            }
            stats.failures.push(e.to_record());
            let reason = e.to_string();
            if post {
                // Rung: skip. The placement is back to the pre-stage
                // state; like a stage outside the set, no timing row
                // is pushed.
                stats.degradations.push(Degradation {
                    stage: name,
                    rung: "skip",
                    reason,
                });
                continue;
            }
            if deadline_hit {
                // Already at the bottom rung.
                return Err(e);
            }
            // Rung: rerun inline from the restored pre-stage state.
            match run_stage_guarded(
                stage,
                design,
                state,
                config,
                prep,
                &mut stats,
                1,
                delta.as_ref(),
            ) {
                Ok(()) => stats.degradations.push(Degradation {
                    stage: name,
                    rung: "serial",
                    reason,
                }),
                Err(e2) => {
                    // Ladder exhausted: restore and fail the job.
                    state.undo_to(mark);
                    return Err(e2);
                }
            }
        }
        stats.stage_seconds.push(StageTiming {
            name,
            seconds: t.elapsed_seconds(),
        });
        let (span, histo) = stage.meters();
        stats.obs.record_span(span, t.elapsed_nanos(), 0);
        // A delta's histograms cover the cells it may have moved so far,
        // so they cost what the delta does: the closure once it exists,
        // before that the cells MGL touched (the epoch's dirty set).
        let obs = &mut stats.obs;
        match &delta {
            Some(dc) => {
                let members = dc.cells().iter().copied();
                record_disp_histogram(obs, state, design, histo, members);
            }
            None if spec == RunSpec::EcoDelta => {
                let dirty = state.dirty_cells().into_iter().map(|(c, _)| c);
                record_disp_histogram(obs, state, design, histo, dirty);
            }
            None => record_disp_histogram(obs, state, design, histo, design.movable_cells()),
        }
        audit_stage(state, design, name);
    }
    // Certification: a run that took any rung must still prove legality.
    if !stats.degradations.is_empty() {
        certify_degraded(state, design)?;
    }
    stats
        .obs
        .record_span(SpanKind::Run, run_sw.elapsed_nanos(), 0);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_lists_cover_the_flow_in_order() {
        let names: Vec<_> = FULL_PIPELINE.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["mgl", "maxdisp", "fixed_order"]);
        let post: Vec<_> = POST_PIPELINE.iter().map(|s| s.name()).collect();
        assert_eq!(post, ["maxdisp", "fixed_order"]);
        assert!(FULL_PIPELINE.contains(Stage::Mgl));
        assert!(!POST_PIPELINE.contains(Stage::Mgl));
        // A set iterates in canonical order however it was built.
        let set = StageSet::of(&[Stage::FixedOrder, Stage::Mgl, Stage::FixedOrder]);
        let names: Vec<_> = set.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["mgl", "fixed_order"]);
    }

    #[test]
    fn parse_stages_accepts_subsequences() {
        for (spec, want) in [
            ("mgl,maxdisp,fixed", vec!["mgl", "maxdisp", "fixed_order"]),
            (
                "mgl,maxdisp,fixed_order",
                vec!["mgl", "maxdisp", "fixed_order"],
            ),
            ("mgl", vec!["mgl"]),
            ("maxdisp,fixed", vec!["maxdisp", "fixed_order"]),
            (" mgl , fixed ", vec!["mgl", "fixed_order"]),
        ] {
            let got: Vec<_> = parse_stages(spec)
                .unwrap_or_else(|e| panic!("{spec}: {e}"))
                .iter()
                .map(|s| s.name())
                .collect();
            assert_eq!(got, want, "{spec}");
        }
    }

    #[test]
    fn parse_stages_rejects_bad_specs() {
        for spec in [
            "",
            "mgl,",
            "bogus",
            "mgl,mgl",
            "maxdisp,mgl",
            "fixed,maxdisp",
        ] {
            assert!(parse_stages(spec).is_err(), "{spec:?} should be rejected");
        }
    }

    #[test]
    fn stage_enablement_follows_config() {
        let mut cfg = LegalizerConfig::contest();
        cfg.stages = StageSet::of(&[Stage::Mgl, Stage::FixedOrder]);
        assert!(cfg.stages.contains(Stage::Mgl));
        assert!(!cfg.stages.contains(Stage::MaxDisp));
        assert!(cfg.stages.contains(Stage::FixedOrder));
    }
}
