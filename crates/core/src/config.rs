//! Legalization configuration.

use crate::faultinject::FaultPlan;
use crate::pipeline::{Stage, StageSet, FULL_PIPELINE};
use mcl_db::geom::Dbu;
use std::sync::Arc;

/// Which reference the displacement curves measure against.
///
/// The paper's key improvement over MLL (Chow et al., DAC'16) is measuring
/// displacement from the *global placement* positions rather than the cells'
/// current positions; MLL is recovered with [`DisplacementReference::Current`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DisplacementReference {
    /// Minimize displacement from the GP input (MGL, this paper).
    #[default]
    Gp,
    /// Minimize displacement from current positions (MLL baseline).
    Current,
}

/// Order in which MGL legalizes cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellOrder {
    /// Taller cells first, then wider, then by GP position. Multi-row cells
    /// are hardest to insert late; best when the multi-height fraction is
    /// large.
    HeightThenWidth,
    /// Sweep by GP x (Abacus-style ordering).
    GpX,
    /// By cell id (input order).
    Id,
    /// Taller cells first, then a deterministic pseudo-random shuffle
    /// within each height. Interleaving insertion sites avoids the
    /// systematic pressure fronts of sorted sweeps and measures best on
    /// dense designs.
    HeightThenShuffled,
    /// Pick by design density: [`CellOrder::GpX`] below 82% utilization,
    /// [`CellOrder::HeightThenShuffled`] above (the GP-x sweep wins on
    /// quality and speed up to very high densities, where interleaved
    /// insertion takes over; measured crossover ≈ 0.82).
    #[default]
    Auto,
}

/// How cost weights are assigned per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightMode {
    /// All cells weigh 1: optimizes plain total displacement (Table 2 mode).
    #[default]
    Uniform,
    /// Cells weigh ∝ 1/|C_h| per Eq. 2, so the average-displacement metric
    /// of the contest is what the flow optimizes (Table 1 mode).
    ContestAverage,
}

/// Full legalizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalizerConfig {
    /// Displacement reference for stage 1.
    pub reference: DisplacementReference,
    /// Cell processing order.
    pub order: CellOrder,
    /// Cost weighting mode.
    pub weights: WeightMode,
    /// Initial window half-width in sites.
    pub window_sites: usize,
    /// Initial window half-height in rows.
    pub window_rows: usize,
    /// Maximum number of window expansions before falling back to a global
    /// scan.
    pub max_expansions: usize,
    /// Enable routability handling (edge spacing always honored; this gates
    /// pin-access/short avoidance).
    pub routability: bool,
    /// Normalize local-cell displacement curves to Δ-displacement (their
    /// untouched plateau sits at zero). Disabling reverts to the raw
    /// absolute curves for ablation studies; see DESIGN.md §5.
    pub normalize_curves: bool,
    /// Cost penalty per IO-pin overlap (in dbu of displacement-equivalent).
    pub io_penalty: i64,
    /// Cost penalty per unavoidable vertical-rail violation.
    pub rail_penalty: i64,
    /// The stages a run executes, always in canonical order (default: all
    /// three). A set without [`Stage::Mgl`] refines existing positions, so
    /// the engine adopts them.
    pub stages: StageSet,
    /// `δ₀` of Eq. 3: tolerable max displacement, in rows.
    pub delta0_rows: f64,
    /// `n₀`: weight of the max-displacement terms in stage 3, relative to a
    /// unit cell weight (0 disables the extension).
    pub n0_factor: i64,
    /// Thread budget of an `Engine` call: design runners plus their
    /// helpers, which evaluate MGL windows and solve stage-2 matchings
    /// alongside their runner (1 = everything runs on the calling thread).
    /// Results are identical for any value. The engine honors it exactly,
    /// whatever the host's core count (0 counts as 1).
    pub threads: usize,
    /// Admission bound for `Engine` calls: how many jobs may be in flight
    /// at once (0 = auto, meaning `threads`). Each in-flight job gets a
    /// runner thread out of the `threads` budget; leftover threads are split
    /// statically among the runners as helpers. A job's working state is
    /// built when a runner claims it, so
    /// memory scales with the in-flight count, never with the batch size
    /// or stream length, and per-design results are identical for any
    /// value.
    pub max_inflight_designs: usize,
    /// Capacity of the concurrent-window list `L_p` (§3.5). Determinism is
    /// per capacity value; small capacities track the cell-by-cell
    /// sequential schedule closely, large ones admit more parallelism at
    /// some displacement cost. Capacity 1 is still not that schedule
    /// whenever a cell falls back: the scheduler runs every fallback scan
    /// after the last round, not at the cell's turn.
    pub window_list_capacity: usize,
    /// Wall-clock budget for the whole pipeline, checked at stage
    /// boundaries only (never mid-stage, so fault-free results stay
    /// deterministic). Once exceeded, remaining stages take their
    /// degradation rung: MGL runs inline without helpers (same placement),
    /// maxdisp and refine are skipped. `None` disables the budget.
    pub stage_budget_secs: Option<f64>,
    /// Armed fault-injection plan (chaos testing; see [`crate::faultinject`]).
    /// `None` in production — every probe is then a single branch.
    pub faults: Option<Arc<FaultPlan>>,
}

impl LegalizerConfig {
    /// Contest-style configuration: fences + routability + average-weighted
    /// displacement (Table 1). Multi-row cells dominate the height-averaged
    /// metric (weight ∝ 1/|C_h|), so they are processed first.
    pub fn contest() -> Self {
        Self {
            order: CellOrder::HeightThenWidth,
            ..Self::default()
        }
    }

    /// Plain total-displacement configuration: routability off, uniform
    /// weights (Table 2, comparison with prior displacement-driven work).
    pub fn total_displacement() -> Self {
        Self {
            weights: WeightMode::Uniform,
            routability: false,
            n0_factor: 0,
            ..Self::default()
        }
    }

    /// MLL baseline: stage 1 only, current-position reference, one window
    /// per round. MLL (Chow et al., DAC 2016) inserts cells one at a time;
    /// the concurrent window list is this paper's §3.5 addition, so the
    /// baseline runs with a list capacity of 1.
    pub fn mll_baseline() -> Self {
        Self {
            reference: DisplacementReference::Current,
            window_list_capacity: 1,
            weights: WeightMode::Uniform,
            routability: false,
            stages: StageSet::of(&[Stage::Mgl]),
            ..Self::default()
        }
    }

    /// The window half-extent after `n` expansions, in sites.
    pub fn window_sites_after(&self, n: usize) -> usize {
        grown(self.window_sites, n)
    }

    /// The window half-extent after `n` expansions, in rows.
    pub fn window_rows_after(&self, n: usize) -> usize {
        grown(self.window_rows, n)
    }

    /// `δ₀` in database units for a given row height.
    pub fn delta0_dbu(&self, row_height: Dbu) -> Dbu {
        mcl_db::geom::dbu_from_f64_saturating(
            (self.delta0_rows * mcl_db::geom::dbu_to_f64(row_height)).round(),
        )
    }
}

/// A window half-extent of `w` (at least 1) after `n` failed insertions,
/// each of which doubles it.
fn grown(w: usize, n: usize) -> usize {
    (0..n).fold(w.max(1), |w, _| w * 2)
}

impl Default for LegalizerConfig {
    fn default() -> Self {
        Self {
            reference: DisplacementReference::Gp,
            order: CellOrder::Auto,
            weights: WeightMode::ContestAverage,
            window_sites: 24,
            window_rows: 3,
            max_expansions: 12,
            routability: true,
            normalize_curves: true,
            io_penalty: 2_000,
            rail_penalty: 1_000,
            stages: FULL_PIPELINE,
            delta0_rows: 10.0,
            n0_factor: 4,
            threads: 1,
            max_inflight_designs: 0,
            window_list_capacity: 8,
            stage_budget_secs: None,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_growth_monotone() {
        let c = LegalizerConfig::default();
        let mut prev = 0;
        for n in 0..8 {
            let w = c.window_sites_after(n);
            assert!(w > prev);
            prev = w;
        }
    }

    #[test]
    fn presets_differ_sensibly() {
        assert!(LegalizerConfig::contest().routability);
        assert!(!LegalizerConfig::total_displacement().routability);
        let mll = LegalizerConfig::mll_baseline();
        assert_eq!(mll.reference, DisplacementReference::Current);
        assert!(!mll.stages.contains(Stage::FixedOrder));
    }

    #[test]
    fn delta0_conversion() {
        let c = LegalizerConfig::default();
        assert_eq!(c.delta0_dbu(90), 900);
    }
}
