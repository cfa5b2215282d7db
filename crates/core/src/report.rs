//! Builds a [`RunReport`] from a finished legalization run.
//!
//! The golden strata (quality metrics, outcome counts) come from
//! `mcl_db`'s deterministic measurements — [`Metrics::measure`] and
//! [`Checker::check`] — plus the legalizer's outcome counters, so the
//! golden subset is byte-stable across thread counts and feature sets.
//! The observability strata (stage seconds, spans, counters, histograms)
//! are harvested from the run's merged [`Meter`](mcl_obs::Meter).

use crate::config::LegalizerConfig;
use crate::legalizer::LegalizeStats;
use mcl_db::prelude::*;
use mcl_db::score::Metrics;
use mcl_obs::report::RunReport;

/// Assembles the structured report for one legalization run.
///
/// `placed` is the legalized output design (its `pos` fields are read for
/// quality metrics); `stats` and `config` are the run's statistics and
/// configuration.
///
/// ```
/// use mcl_core::{build_run_report, Engine, LegalizerConfig, RunSpec};
/// use mcl_db::prelude::*;
///
/// let mut d = Design::new("demo", Technology::example(), Rect::new(0, 0, 1000, 900));
/// let inv = d.add_cell_type(CellType::new("INV", 20, 1));
/// d.add_cell(Cell::new("u1", inv, Point::new(33, 47)));
/// let config = LegalizerConfig::contest();
/// let out = Engine::new(config.clone()).run_one(&d, RunSpec::default()).unwrap();
/// let report = build_run_report(&out.design, &out.stats, &config);
/// assert_eq!(report.design, "demo");
/// assert!(report.golden_json().contains("\"quality\""));
/// ```
#[must_use]
pub fn build_run_report(
    placed: &Design,
    stats: &LegalizeStats,
    config: &LegalizerConfig,
) -> RunReport {
    let legality = Checker::new(placed).check();
    run_report_measured(placed, stats, config, &Metrics::measure(placed), &legality)
}

/// [`build_run_report`] over quality numbers the caller has already taken:
/// `m` and `legality` must be [`Metrics::measure`] and [`Checker::check`]
/// of `placed`. Lets a caller that prints them too measure only once.
#[must_use]
pub fn run_report_measured(
    placed: &Design,
    stats: &LegalizeStats,
    config: &LegalizerConfig,
    m: &Metrics,
    legality: &LegalityReport,
) -> RunReport {
    let mut rep = RunReport::new(&placed.name);
    rep.threads = config.threads as u64;
    rep.cells = placed.cells.iter().filter(|c| !c.fixed).count() as u64;
    rep.fences = placed.fences.len() as u64;

    rep.quality_f64("avg_disp_rows", m.avg_disp_rows);
    rep.quality_f64("max_disp_rows", m.max_disp_rows);
    rep.quality_f64("total_disp_sites", m.total_disp_sites);
    rep.quality_u64("total_disp_dbu", m.total_disp_dbu.unsigned_abs());
    rep.quality_u64("hpwl", m.hpwl.unsigned_abs());

    rep.quality_u64("hard_violations", legality.hard_violations() as u64);
    rep.quality_u64("edge_spacing_violations", legality.edge_spacing as u64);
    rep.quality_u64("pin_shorts", legality.pin_shorts as u64);
    rep.quality_u64("pin_access_violations", legality.pin_access as u64);

    rep.outcome("placed_in_window", stats.mgl.placed_in_window as u64);
    rep.outcome("expansions", stats.mgl.expansions as u64);
    rep.outcome("fallbacks", stats.mgl.fallbacks as u64);
    rep.outcome("failed", stats.mgl.failed as u64);
    rep.outcome("retries", stats.mgl.retries);
    rep.outcome("quarantined", stats.mgl.quarantined as u64);
    rep.outcome("matching_groups", stats.max_disp.groups as u64);
    rep.outcome(
        "matching_groups_changed",
        stats.max_disp.groups_changed as u64,
    );
    rep.outcome("matching_cells_moved", stats.max_disp.cells_moved as u64);
    rep.outcome("refine_cells_moved", stats.fixed_order.cells_moved as u64);
    rep.outcome("refine_applied", u64::from(stats.fixed_order.applied));

    for f in stats.failure_rows() {
        rep.failure(f.stage, f.class.label(), &f.message);
    }
    for d in &stats.degradations {
        rep.degradation(d.stage, d.rung, &d.reason);
    }

    for t in &stats.stage_seconds {
        rep.stage(t.name, t.seconds);
    }
    rep.attach_meter(&stats.obs);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunSpec};

    fn run(config: &LegalizerConfig, d: &Design) -> (Design, LegalizeStats) {
        let out = Engine::new(config.clone())
            .run_one(d, RunSpec::default())
            .expect("fault-free run");
        (out.design, out.stats)
    }

    fn design() -> Design {
        let mut d = Design::new("rep", Technology::example(), Rect::new(0, 0, 2000, 1800));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("d", 30, 2));
        let mut s = 41u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for i in 0..120 {
            let t = CellTypeId(u32::from(rng() % 4 == 0));
            let x = (rng() % 1900) as Dbu;
            let y = (rng() % 1600) as Dbu;
            d.add_cell(Cell::new(format!("c{i}"), t, Point::new(x, y)));
        }
        d
    }

    #[test]
    fn golden_subset_is_thread_invariant() {
        let d = design();
        let mut c1 = LegalizerConfig::total_displacement();
        c1.threads = 1;
        let mut c2 = c1.clone();
        c2.threads = 2;
        let (p1, s1) = run(&c1, &d);
        let (p2, s2) = run(&c2, &d);
        let mut g1 = build_run_report(&p1, &s1, &c1);
        let mut g2 = build_run_report(&p2, &s2, &c2);
        // Thread count is an input descriptor, not a result; normalize it
        // so the rest of the golden subset must match bit-for-bit.
        g1.threads = 0;
        g2.threads = 0;
        assert_eq!(g1.golden_json(), g2.golden_json());
    }

    #[test]
    fn report_carries_quality_outcome_and_stages() {
        let d = design();
        let config = LegalizerConfig::total_displacement();
        let (placed, stats) = run(&config, &d);
        let rep = build_run_report(&placed, &stats, &config);
        assert_eq!(rep.cells, 120);
        let quality: Vec<&str> = rep.quality.iter().map(|(n, _)| n.as_str()).collect();
        assert!(quality.contains(&"total_disp_sites"));
        assert!(quality.contains(&"pin_shorts"));
        assert!(quality.contains(&"edge_spacing_violations"));
        let outcome: Vec<&str> = rep.outcome.iter().map(|(n, _)| n.as_str()).collect();
        assert!(outcome.contains(&"placed_in_window"));
        assert_eq!(rep.stage_seconds.len(), 3);
        assert!(
            rep.spans.iter().any(|s| s.name == "stage.mgl"),
            "stage span missing: {:?}",
            rep.spans
        );
        assert!(
            rep.histograms
                .iter()
                .any(|h| h.name == "mgl.cell_disp_sites"),
            "displacement histogram missing: {:?}",
            rep.histograms
        );
        // The full JSON parses as one object and keeps the golden prefix.
        let full = rep.to_json();
        assert!(full.starts_with(&rep.golden_json()[..rep.golden_json().len() - 1]));
    }
}
