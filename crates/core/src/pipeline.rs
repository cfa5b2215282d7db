//! Declarative stage pipeline for the three-stage flow.
//!
//! The paper's flow is an ordered composition of stages (MGL insertion →
//! max-displacement matching → fixed-order refinement). This module is the
//! single place that composition lives: each stage is a [`Stage`] trait
//! object, the driver [`run_stages`] walks a stage list, and every stage is
//! wrapped uniformly by the same middleware — wall-clock timing into
//! [`StageTiming`], a stage span in the meter, the per-stage displacement
//! histogram, and the independent clean-room audit. A new stage therefore
//! cannot forget to be timed, metered or audited. The one public entry
//! point, [`crate::Engine::run`], differs per job only in how the initial
//! [`PlacementState`] is built and which stage list it passes.
//!
//! Middleware order per enabled stage (fixed; meter merging is commutative
//! so the aggregate is insensitive to it, but the order is kept identical to
//! the pre-pipeline drivers so full reports diff cleanly):
//!
//! 1. run the stage body,
//! 2. push the named [`StageTiming`],
//! 3. record the stage span,
//! 4. fold the stage's [`StageStats`] into [`LegalizeStats`] (MGL also
//!    merges its helpers' meters),
//! 5. record the displacement histogram of the current placement,
//! 6. run the clean-room audit (`debug_assertions` / `audit` feature).

use crate::config::LegalizerConfig;
use crate::dirty::DirtyClosure;
use crate::error::{panic_message, Degradation, FailureClass, LegalizeError};
use crate::faultinject::FaultSite;
use crate::fixed_order::optimize_fixed_order_metered;
use crate::insertion::InsertionScratch;
use crate::legalizer::LegalizeStats;
use crate::maxdisp::optimize_max_disp_metered;
use crate::mgl::compute_weights;
use crate::routability::RoutOracle;
use crate::scheduler::drive_rounds;
use crate::state::PlacementState;
use mcl_db::prelude::*;
use mcl_obs::{clock::Stopwatch, CounterKind, HistoKind, Meter, SpanKind};
use std::panic::AssertUnwindSafe;

/// Statistics returned by one stage, folded into [`LegalizeStats`] by the
/// driver.
#[derive(Debug, Clone)]
pub enum StageStats {
    /// Stage 1 (MGL insertion).
    Mgl(crate::mgl::MglStats),
    /// Stage 2 (max-displacement matching).
    MaxDisp(crate::maxdisp::MaxDispStats),
    /// Stage 3 (fixed row-and-order refinement).
    FixedOrder(crate::fixed_order::FixedOrderStats),
}

/// Wall-clock seconds of one enabled stage, keyed by stage name. Disabled
/// stages emit no entry (they used to report a misleading `0.0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// The stage's [`Stage::name`].
    pub name: &'static str,
    /// Wall-clock seconds spent in the stage body.
    pub seconds: f64,
}

/// Everything a stage body may read or mutate. `'d` is the design's
/// lifetime.
pub struct PipelineCtx<'run, 'd> {
    /// The design being legalized.
    pub design: &'d Design,
    /// The working placement.
    pub state: &'run mut PlacementState<'d>,
    /// The run's configuration.
    pub config: &'run LegalizerConfig,
    /// Per-cell displacement weights and the routability oracle.
    pub prep: &'run Prep<'d>,
    /// The run's meter; stage bodies may record directly into it.
    pub obs: &'run mut Meter,
    /// The job's thread share, one caller-owned insertion scratch per
    /// thread: the runner's own first, then one per helper. MGL spawns a
    /// helper per extra scratch and stage 2 solves its matchings on that
    /// many threads; one scratch runs everything on the calling thread —
    /// same results. The engine reuses the scratches across runs.
    pub scratches: &'run mut [InsertionScratch],
    /// ECO delta closure, computed once by the driver before the first
    /// post stage when `config.eco_delta` is on and the state tracks a
    /// dirty epoch. Post stages restrict themselves to its members.
    pub delta: Option<&'run DirtyClosure>,
}

/// One stage of the flow. Implementations are stateless unit structs; all
/// run state flows through [`PipelineCtx`].
pub trait Stage: Sync {
    /// Stable stage name, used for [`StageTiming`], report rows and CLI
    /// `--stages` specs.
    fn name(&self) -> &'static str;
    /// Whether the configuration enables this stage.
    fn enabled(&self, config: &LegalizerConfig) -> bool;
    /// The span recorded around the stage body.
    fn span(&self) -> SpanKind;
    /// The displacement histogram recorded after the stage body.
    fn histo(&self) -> HistoKind;
    /// The stage body.
    ///
    /// # Errors
    ///
    /// A typed [`LegalizeError`] when the stage cannot complete; the driver
    /// rolls the placement back to the pre-stage checkpoint and consults
    /// the degradation ladder. Panics out of a stage body are contained by
    /// the driver and classified the same way.
    fn run(&self, ctx: &mut PipelineCtx<'_, '_>) -> Result<StageStats, LegalizeError>;
}

/// Stage 1: MGL window insertion over the unplaced cells.
pub struct MglStage;

impl Stage for MglStage {
    fn name(&self) -> &'static str {
        "mgl"
    }
    fn enabled(&self, _config: &LegalizerConfig) -> bool {
        true
    }
    fn span(&self) -> SpanKind {
        SpanKind::StageMgl
    }
    fn histo(&self) -> HistoKind {
        HistoKind::DispSitesMgl
    }
    fn run(&self, ctx: &mut PipelineCtx<'_, '_>) -> Result<StageStats, LegalizeError> {
        let stats = drive_rounds(ctx.state, ctx.config, ctx.prep, ctx.scratches)?;
        Ok(StageStats::Mgl(stats))
    }
}

/// Stage 2: per (type × fence) min-cost bipartite matching minimizing the
/// convex max-displacement objective.
pub struct MaxDispStage;

impl Stage for MaxDispStage {
    fn name(&self) -> &'static str {
        "maxdisp"
    }
    fn enabled(&self, config: &LegalizerConfig) -> bool {
        config.max_disp_matching
    }
    fn span(&self) -> SpanKind {
        SpanKind::StageMaxDisp
    }
    fn histo(&self) -> HistoKind {
        HistoKind::DispSitesMaxDisp
    }
    fn run(&self, ctx: &mut PipelineCtx<'_, '_>) -> Result<StageStats, LegalizeError> {
        Ok(StageStats::MaxDisp(optimize_max_disp_metered(
            ctx.state,
            ctx.config,
            ctx.scratches.len(),
            ctx.obs,
            ctx.delta,
        )))
    }
}

/// Stage 3: fixed row-and-order refinement via the dual min-cost flow.
pub struct FixedOrderStage;

impl Stage for FixedOrderStage {
    fn name(&self) -> &'static str {
        "fixed_order"
    }
    fn enabled(&self, config: &LegalizerConfig) -> bool {
        config.fixed_order_refine
    }
    fn span(&self) -> SpanKind {
        SpanKind::StageFixedOrder
    }
    fn histo(&self) -> HistoKind {
        HistoKind::DispSitesFixedOrder
    }
    fn run(&self, ctx: &mut PipelineCtx<'_, '_>) -> Result<StageStats, LegalizeError> {
        Ok(StageStats::FixedOrder(optimize_fixed_order_metered(
            ctx.state,
            ctx.config,
            &ctx.prep.weights,
            ctx.prep.oracle(),
            ctx.obs,
            ctx.delta,
        )))
    }
}

/// The full three-stage flow (fresh and ECO runs).
pub static FULL_PIPELINE: [&dyn Stage; 3] = [&MglStage, &MaxDispStage, &FixedOrderStage];

/// The two post-processing stages only (refinement of a legal input,
/// Table 3 ablations).
pub static POST_PIPELINE: [&dyn Stage; 2] = [&MaxDispStage, &FixedOrderStage];

/// Resolves a CLI-style comma-separated stage spec (`mgl,maxdisp,fixed`)
/// into a stage list. Stage names are `mgl`, `maxdisp` and
/// `fixed`/`fixed_order`; the spec must be a non-empty subsequence of the
/// canonical order (stages can be dropped, not reordered).
///
/// # Errors
///
/// Returns a human-readable message for unknown names, duplicates, an empty
/// spec, or out-of-order stages.
pub fn parse_stages(spec: &str) -> Result<Vec<&'static dyn Stage>, String> {
    let mut stages: Vec<&'static dyn Stage> = Vec::new();
    let mut last = 0usize;
    for (i, raw) in spec.split(',').enumerate() {
        let name = raw.trim();
        let (rank, stage): (usize, &'static dyn Stage) = match name {
            "mgl" => (1, &MglStage),
            "maxdisp" => (2, &MaxDispStage),
            "fixed" | "fixed_order" => (3, &FixedOrderStage),
            "" => {
                return Err(format!("empty stage name at position {i} in `{spec}`"));
            }
            other => {
                return Err(format!(
                    "unknown stage `{other}` (expected mgl, maxdisp, fixed)"
                ));
            }
        };
        if rank == last {
            return Err(format!("duplicate stage `{name}` in `{spec}`"));
        }
        if rank < last {
            return Err(format!(
                "stage `{name}` out of order in `{spec}` (canonical order: mgl,maxdisp,fixed)"
            ));
        }
        last = rank;
        stages.push(stage);
    }
    if stages.is_empty() {
        return Err("empty stage list".into());
    }
    Ok(stages)
}

/// Whether a parsed stage list starts with MGL insertion (stage lists
/// without it run in refine semantics: existing positions are adopted).
pub fn includes_mgl(stages: &[&dyn Stage]) -> bool {
    stages.iter().any(|s| s.name() == "mgl")
}

/// Per-run prepared inputs shared by every stage: displacement weights and
/// the optional routability oracle. Building one of these (plus the initial
/// [`PlacementState`]) is all the engine does before handing off to
/// [`run_stages`]. The engine builds each job's `Prep` at claim time and
/// drops it when the job finishes.
pub struct Prep<'d> {
    /// Per-cell displacement weights. A plain `Vec`, never an `Arc<[i64]>`:
    /// converting would copy the vector and free the original, and freeing
    /// a block that large raises glibc's dynamic mmap threshold, which
    /// slowed stage 3 by about a quarter at 100k cells.
    pub weights: Vec<i64>,
    pub(crate) oracle: Option<RoutOracle<'d>>,
}

impl<'d> Prep<'d> {
    /// Computes weights and (when configured) the routability oracle.
    pub fn new(design: &'d Design, config: &LegalizerConfig) -> Self {
        Prep {
            weights: compute_weights(design, config.weights),
            oracle: config.routability.then(|| RoutOracle::new(design)),
        }
    }

    /// The oracle, when routability mode is on.
    pub fn oracle(&self) -> Option<&RoutOracle<'d>> {
        self.oracle.as_ref()
    }
}

/// Records the per-cell displacement histogram of the current placement
/// (Manhattan distance from the global-placement position, in site widths)
/// into `obs` under `kind`. Fixed and unplaced cells are skipped, matching
/// `Metrics::measure`.
fn record_disp_histogram(
    obs: &mut Meter,
    state: &PlacementState<'_>,
    design: &Design,
    kind: HistoKind,
) {
    if !(mcl_obs::compiled() && mcl_obs::recording()) {
        return;
    }
    let sw = design.tech.site_width.max(1);
    for (i, cell) in design.cells.iter().enumerate() {
        if cell.fixed {
            continue;
        }
        let Some(p) = state.pos(CellId(i as u32)) else {
            continue;
        };
        let d = (p.x - cell.gp.x).abs() + (p.y - cell.gp.y).abs();
        obs.observe(kind, (d / sw) as u64);
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
/// instead of tearing the process down.
#[allow(clippy::too_many_arguments)]
fn run_stage_guarded<'d>(
    stage: &dyn Stage,
    design: &'d Design,
    state: &mut PlacementState<'d>,
    config: &LegalizerConfig,
    prep: &Prep<'d>,
    obs: &mut Meter,
    scratches: &mut [InsertionScratch],
    delta: Option<&DirtyClosure>,
) -> Result<StageStats, LegalizeError> {
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
        let mut ctx = PipelineCtx {
            design,
            state: &mut *state,
            config,
            prep,
            obs,
            scratches: &mut *scratches,
            delta,
        };
        stage.run(&mut ctx)
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
/// `stages`, skipping disabled ones, applying the module-doc middleware
/// around each, and finishes with the run-level span. `scratches` is the
/// job's thread share ([`PipelineCtx::scratches`]).
///
/// # Fault containment (DESIGN.md §11)
///
/// Every enabled stage runs against a checkpoint of the placement. A stage
/// that returns a typed [`LegalizeError`] or panics is rolled back — no
/// partial mutation ever escapes a failed stage — and the declared
/// degradation ladder decides what happens next:
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
    stages: &[&dyn Stage],
    prep: &Prep<'d>,
    scratches: &mut [InsertionScratch],
) -> Result<LegalizeStats, LegalizeError> {
    let mut stats = LegalizeStats::default();
    let run_sw = Stopwatch::start();
    // Delta-first ECO: frozen transitive closure of everything mutated
    // since adoption (computed lazily before the first post stage, after
    // MGL has placed the delta cells). Stage 2 only permutes closure
    // members among their own positions, so the closure stays a fixed
    // point across both post stages and one computation serves both.
    let mut delta: Option<DirtyClosure> = None;
    for stage in stages {
        if !stage.enabled(config) {
            continue;
        }
        let name = stage.name();
        if name != "mgl" && config.eco_delta && state.dirty_tracking() && delta.is_none() {
            let dc = crate::dirty::compute(state);
            stats
                .obs
                .add(CounterKind::EcoWindowsDirty, dc.windows().len() as u64);
            let placed = design
                .movable_cells()
                .filter(|&c| state.pos(c).is_some())
                .count();
            let in_closure_placed = dc
                .cells()
                .iter()
                .filter(|&&c| state.pos(c).is_some())
                .count();
            stats.obs.add(
                CounterKind::EcoCellsReused,
                placed.saturating_sub(in_closure_placed) as u64,
            );
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
                rung: if name == "mgl" { "serial" } else { "skip" },
                reason: err.to_string(),
            });
            if name != "mgl" {
                continue;
            }
        }
        let inline = scratches.len().min(1);
        let share = if deadline_hit {
            inline
        } else {
            scratches.len()
        };
        let t = Stopwatch::start();
        // Checkpoint so a failed stage can never leak partial mutation.
        let checkpoint = state.clone();
        let first = run_stage_guarded(
            *stage,
            design,
            state,
            config,
            prep,
            &mut stats.obs,
            &mut scratches[..share],
            delta.as_ref(),
        );
        let folded = match first {
            Ok(s) => s,
            Err(e) => {
                *state = checkpoint.clone();
                if e.class() == FailureClass::Fatal {
                    return Err(e);
                }
                stats.failures.push(e.to_record());
                let reason = e.to_string();
                if name != "mgl" {
                    // Rung: skip. The placement is back to the pre-stage
                    // state; like a disabled stage, no timing row is pushed.
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
                // Rung: rerun inline from the restored checkpoint.
                match run_stage_guarded(
                    *stage,
                    design,
                    state,
                    config,
                    prep,
                    &mut stats.obs,
                    &mut scratches[..inline],
                    delta.as_ref(),
                ) {
                    Ok(s) => {
                        stats.degradations.push(Degradation {
                            stage: name,
                            rung: "serial",
                            reason,
                        });
                        s
                    }
                    Err(e2) => {
                        // Ladder exhausted: restore and fail the job.
                        *state = checkpoint;
                        return Err(e2);
                    }
                }
            }
        };
        stats.stage_seconds.push(StageTiming {
            name,
            seconds: t.elapsed_seconds(),
        });
        stats.obs.record_span(stage.span(), t.elapsed_nanos(), 0);
        match folded {
            StageStats::Mgl(s) => {
                stats.mgl = s;
                stats.obs.merge(&stats.mgl.obs);
            }
            StageStats::MaxDisp(s) => stats.max_disp = s,
            StageStats::FixedOrder(s) => stats.fixed_order = s,
        }
        record_disp_histogram(&mut stats.obs, state, design, stage.histo());
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
        assert!(includes_mgl(&FULL_PIPELINE));
        assert!(!includes_mgl(&POST_PIPELINE));
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
        cfg.max_disp_matching = false;
        cfg.fixed_order_refine = true;
        assert!(MglStage.enabled(&cfg));
        assert!(!MaxDispStage.enabled(&cfg));
        assert!(FixedOrderStage.enabled(&cfg));
    }
}
