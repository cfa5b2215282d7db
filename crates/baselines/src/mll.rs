//! MLL baseline (Chow et al., DAC 2016 — "\[12\]-Imp" in Table 2).
//!
//! MLL is the ancestor of MGL: the same window-based insertion, but the
//! displacement curves measure from the cells' *current* positions, so
//! displacement w.r.t. GP accumulates over iterations (Fig. 3 of the
//! paper). It is reproduced by running the core stage 1 with
//! [`DisplacementReference::Current`] and no post-processing.

use mcl_core::config::{DisplacementReference, LegalizerConfig};
use mcl_core::mgl::MglStats;
use mcl_core::{Engine, RunSpec};
use mcl_db::prelude::*;

/// Runs the MLL baseline. A run that fails as a whole (reachable only under
/// injected faults) returns the design unplaced, every movable cell counted
/// as failed.
pub fn legalize_mll(design: &Design) -> (Design, MglStats) {
    let cfg = LegalizerConfig::mll_baseline();
    debug_assert_eq!(cfg.reference, DisplacementReference::Current);
    match Engine::new(cfg).run_one(design, &RunSpec::default()) {
        Ok(out) => (out.design, out.stats.mgl),
        Err(_) => {
            let mut out = design.clone();
            for c in out.cells.iter_mut().filter(|c| !c.fixed) {
                c.pos = None;
            }
            let stats = MglStats {
                failed: design.movable_cells().count(),
                ..MglStats::default()
            };
            (out, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_db::legal::Checker;
    use mcl_db::score::Metrics;

    fn design(n: usize, seed: u64, density_x: Dbu) -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, density_x, 1800));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("d", 30, 2));
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for i in 0..n {
            let t = if rng() % 5 == 0 {
                CellTypeId(1)
            } else {
                CellTypeId(0)
            };
            d.add_cell(Cell::new(
                format!("c{i}"),
                t,
                Point::new((rng() as Dbu) % (density_x - 100), (rng() % 1700) as Dbu),
            ));
        }
        d
    }

    #[test]
    fn produces_legal_placement() {
        let d = design(150, 11, 2000);
        let (out, stats) = legalize_mll(&d);
        assert_eq!(stats.failed, 0);
        assert!(Checker::new(&out).check().is_legal());
    }

    /// Packed rows + perturbation: the realistic overfull GP shape where
    /// MLL's displacement accumulation shows.
    fn packed_design(seed: u64) -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 3000, 1800));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("d", 30, 2));
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let sigma = 220i64;
        let mut i = 0;
        for row in 0..19i64 {
            let mut x = 0i64;
            loop {
                let double = row % 2 == 0 && rng() % 6 == 0;
                let (w, t) = if double {
                    (30, CellTypeId(1))
                } else {
                    (20, CellTypeId(0))
                };
                if x + w > 3000 {
                    break;
                }
                if rng() % 1000 < 970 {
                    let nx = (rng() % (2 * sigma as u64 + 1)) as i64 - sigma;
                    let ny = (rng() % (2 * sigma as u64 + 1)) as i64 - sigma;
                    let gx = (x + nx).clamp(0, 3000 - w);
                    let gy = (row * 90 + ny).clamp(0, 1800 - 180);
                    d.add_cell(Cell::new(format!("c{i}"), t, Point::new(gx, gy)));
                    i += 1;
                }
                x += w + if rng() % 10 == 0 { 20 } else { 0 };
            }
        }
        d
    }

    #[test]
    fn mgl_beats_mll_on_dense_design() {
        // The paper's headline: measuring from GP (MGL + post-processing)
        // gives lower displacement than MLL on dense designs.
        let d = packed_design(123); // ~95% density, locally overfull GP
        let (mll_out, s1) = legalize_mll(&d);
        assert_eq!(s1.failed, 0);
        let mgl = Engine::new(LegalizerConfig::total_displacement())
            .run_one(&d, &RunSpec::default())
            .unwrap();
        let (mgl_out, s2) = (mgl.design, mgl.stats);
        assert_eq!(s2.mgl.failed, 0);
        let mll_m = Metrics::measure(&mll_out);
        let mgl_m = Metrics::measure(&mgl_out);
        // Both share the insertion machinery (including the interleaved
        // processing order, which helps MLL too), so the gap here is a few
        // percent; it is the GP-reference accounting that must win.
        assert!(
            (mgl_m.total_disp_dbu as f64) < 0.95 * mll_m.total_disp_dbu as f64,
            "MGL {} should beat MLL {}",
            mgl_m.total_disp_dbu,
            mll_m.total_disp_dbu
        );
    }
}
