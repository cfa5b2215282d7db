//! LCP-based legalizer, the stand-in for Chen et al. \[9\] in Table 2.
//!
//! Chen et al. formulate legalization as a quadratic program (quadratic
//! displacement objective, pairwise non-overlap under an initial row/order
//! assignment), transform it into a linear complementarity problem through
//! the KKT conditions, and solve it iteratively. We reproduce that pipeline:
//!
//! 1. seed rows and orders with the greedy scan ([`crate::tetris`]);
//! 2. build the pairwise constraint graph (including multi-row coupling);
//! 3. solve the LCP with projected Gauss–Seidel on the multipliers;
//! 4. snap to sites with a legality-restoring sweep.

use mcl_core::state::PlacementState;
use mcl_db::prelude::*;
use std::collections::HashSet;

/// Statistics of an LCP run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LcpStats {
    /// Cells optimized.
    pub cells: usize,
    /// Constraint pairs.
    pub pairs: usize,
    /// Gauss–Seidel sweeps executed.
    pub iterations: usize,
    /// Maximum constraint violation at exit (dbu).
    pub residual: f64,
    /// Cells the greedy seeding failed to place.
    pub seed_failed: usize,
}

/// Runs the LCP legalizer.
pub fn legalize_lcp(design: &Design) -> (Design, LcpStats) {
    legalize_lcp_with(design, 400, 1e-3)
}

/// Runs the LCP legalizer with explicit iteration budget and tolerance.
pub fn legalize_lcp_with(design: &Design, max_iters: usize, tol: f64) -> (Design, LcpStats) {
    let mut stats = LcpStats::default();

    // 1. Seed with the greedy scan.
    let mut state = PlacementState::new(design);
    let seed_stats = crate::tetris::run(&mut state);
    stats.seed_failed = seed_stats.failed;

    // 2. Constraint graph over placed movable cells.
    let cells: Vec<CellId> = design
        .movable_cells()
        .filter(|&c| state.pos(c).is_some())
        .collect();
    let k = cells.len();
    stats.cells = k;
    let mut index = vec![usize::MAX; design.cells.len()];
    for (i, &c) in cells.iter().enumerate() {
        index[c.0 as usize] = i;
    }
    // x variables in dbu (f64 during the solve).
    let mut x: Vec<f64> = cells
        .iter()
        .map(|&c| state.pos(c).unwrap().x as f64)
        .collect();
    let desired: Vec<f64> = cells
        .iter()
        .map(|&c| design.cells[c.0 as usize].gp.x as f64)
        .collect();
    let mut lo = vec![f64::NEG_INFINITY; k];
    let mut hi = vec![f64::INFINITY; k];
    for (i, &c) in cells.iter().enumerate() {
        let w = design.type_of(c).width;
        for seg_idx in state.segments_of(c) {
            let seg = &state.segments().segments()[seg_idx];
            lo[i] = lo[i].max(seg.x.lo as f64);
            hi[i] = hi[i].min((seg.x.hi - w) as f64);
        }
    }
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    for seg in 0..state.segments().len() {
        let occ = state.cells_in_segment(seg);
        for w2 in occ.windows(2) {
            let (a, b) = (w2[0], w2[1]);
            if seen.insert((a.0, b.0)) {
                let sep = design.type_of(a).width as f64;
                pairs.push((index[a.0 as usize], index[b.0 as usize], sep));
            }
        }
    }
    stats.pairs = pairs.len();

    // 3. Projected Gauss–Seidel on the KKT multipliers. For the QP
    //    min Σ (x_i − x'_i)² s.t. x_j − x_i ≥ sep, the stationarity reads
    //    x_i = x'_i + (Σ_in λ − Σ_out λ)/2; PGS adjusts one λ at a time to
    //    close its constraint gap, projecting λ ≥ 0.
    let mut lambda = vec![0.0f64; pairs.len()];
    // Start from the unconstrained optimum.
    for i in 0..k {
        x[i] = desired[i].clamp(lo[i], hi[i]);
    }
    let mut residual = f64::INFINITY;
    let mut iters = 0;
    while iters < max_iters {
        iters += 1;
        residual = 0.0f64;
        for (pi, &(a, b, sep)) in pairs.iter().enumerate() {
            let gap = sep - (x[b] - x[a]); // > 0 means violated
                                           // Each unit of λ moves a left 0.5 and b right 0.5.
            let delta = gap; // (1/2 + 1/2) divisor = 1
            let new_lambda = (lambda[pi] + delta).max(0.0);
            let applied = new_lambda - lambda[pi];
            if applied != 0.0 {
                lambda[pi] = new_lambda;
                x[a] -= applied / 2.0;
                x[b] += applied / 2.0;
            }
            residual = residual.max(gap.max(0.0));
        }
        // Bound projection (boundary KKT handled by clamping).
        for i in 0..k {
            x[i] = x[i].clamp(lo[i], hi[i]);
        }
        if residual < tol {
            break;
        }
    }
    stats.iterations = iters;
    stats.residual = residual;

    // 4. Snap and restore legality with a per-segment left-to-right sweep.
    let sw = design.tech.site_width;
    let mut out = design.clone();
    let snap = |v: f64| -> Dbu {
        let raw = v.round() as Dbu;
        design.core.xl + (raw - design.core.xl + sw / 2).div_euclid(sw) * sw
    };
    let mut new_x: Vec<Dbu> = (0..k)
        .map(|i| snap(x[i]).clamp(lo[i] as Dbu, hi[i] as Dbu))
        .collect();
    // Forward sweep per segment: enforce order & separation rightward.
    for seg in 0..state.segments().len() {
        let occ: Vec<CellId> = state.cells_in_segment(seg).to_vec();
        let mut min_x = state.segments().segments()[seg].x.lo;
        for &c in &occ {
            let i = index[c.0 as usize];
            if new_x[i] < min_x {
                new_x[i] = min_x;
            }
            min_x = new_x[i] + design.type_of(c).width;
        }
        // Backward sweep: pull back inside the segment if the forward pass
        // overran the right edge.
        let mut max_x = state.segments().segments()[seg].x.hi;
        for &c in occ.iter().rev() {
            let i = index[c.0 as usize];
            let w = design.type_of(c).width;
            if new_x[i] + w > max_x {
                new_x[i] = max_x - w;
            }
            max_x = new_x[i];
        }
    }
    for (i, &c) in cells.iter().enumerate() {
        let p = state.pos(c).unwrap();
        let row = design.row_of_y(p.y).unwrap();
        out.cells[c.0 as usize].pos = Some(Point::new(new_x[i], p.y));
        out.cells[c.0 as usize].orient =
            design.orient_for_row(design.cells[c.0 as usize].type_id, row);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_db::legal::Checker;
    use mcl_db::score::Metrics;

    fn design(n: usize, seed: u64) -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 2000, 1800));
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
                Point::new((rng() % 1900) as Dbu, (rng() % 1700) as Dbu),
            ));
        }
        d
    }

    #[test]
    fn produces_legal_placement() {
        let d = design(150, 41);
        let (out, stats) = legalize_lcp(&d);
        assert_eq!(stats.seed_failed, 0);
        let rep = Checker::new(&out).check();
        assert!(rep.is_legal(), "{:?}", rep.details);
    }

    #[test]
    fn improves_on_the_seed() {
        let d = design(300, 99);
        let (seed_out, _) = crate::tetris::legalize_tetris(&d);
        let (lcp_out, stats) = legalize_lcp(&d);
        assert!(stats.residual < 1.0, "{stats:?}");
        let seed_m = Metrics::measure(&seed_out);
        let lcp_m = Metrics::measure(&lcp_out);
        assert!(
            lcp_m.total_disp_dbu <= seed_m.total_disp_dbu,
            "LCP {} vs seed {}",
            lcp_m.total_disp_dbu,
            seed_m.total_disp_dbu
        );
        assert!(Checker::new(&lcp_out).check().is_legal());
    }

    #[test]
    fn converges_on_chain() {
        // Five cells all wanting the same x on one row: QP optimum spreads
        // them around the common target.
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 2000, 90));
        d.add_cell_type(CellType::new("s", 20, 1));
        for i in 0..5 {
            d.add_cell(Cell::new(
                format!("c{i}"),
                CellTypeId(0),
                Point::new(600, 0),
            ));
        }
        let (out, stats) = legalize_lcp(&d);
        assert!(stats.residual < 1.0);
        let mut xs: Vec<Dbu> = out.cells.iter().map(|c| c.pos.unwrap().x).collect();
        xs.sort_unstable();
        // Quadratic optimum centers the pack on 600: cells at 550..650.
        assert_eq!(xs[4] - xs[0], 80, "{xs:?}");
        assert!((xs[2] - 590).abs() <= 20, "{xs:?}");
        assert!(Checker::new(&out).check().is_legal());
    }
}
