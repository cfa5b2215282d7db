//! Maximum-displacement optimization — stage 2 (§3.2).
//!
//! For every (cell type × fence region) group, cells of the group may freely
//! permute over the multiset of positions they currently occupy: the
//! footprint is identical, so no overlap, edge-spacing, P/G or pin violation
//! can appear. A min-cost perfect matching under the convex cost
//! `φ(δ) = δ for δ ≤ δ₀, δ⁵/δ₀⁴ otherwise` (Eq. 3) simultaneously preserves
//! the average displacement (linear region) and squeezes outliers (the
//! steep region).
//!
//! Groups are independent (their position multisets are disjoint), so they
//! are solved concurrently on the job's thread share, and the results
//! applied in deterministic key order.

use crate::config::LegalizerConfig;
use crate::state::PlacementState;
use mcl_db::geom::{dbu_from_f64_saturating, dbu_to_f64};
use mcl_db::prelude::*;
use mcl_obs::{clock::Stopwatch, CounterKind, HistoKind, Meter, SpanKind};
use std::collections::{BTreeMap, HashMap};

/// Statistics of one stage-2 run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaxDispStats {
    /// Groups considered (≥ 2 cells).
    pub groups: usize,
    /// Groups where the matching changed at least one assignment.
    pub groups_changed: usize,
    /// Cells that moved to a different position.
    pub cells_moved: usize,
}

/// The matching cost `φ(δ)` of Eq. 3, computed in saturating integer space.
pub fn phi(delta: Dbu, delta0: Dbu) -> i64 {
    debug_assert!(delta >= 0);
    if delta <= delta0 {
        return delta;
    }
    let d = dbu_to_f64(delta);
    let d0 = dbu_to_f64(delta0.max(1));
    let v = d * (d / d0).powi(4);
    if v >= 1e15 {
        1_000_000_000_000_000
    } else {
        dbu_from_f64_saturating(v)
    }
}

/// Largest group stage 2 matches densely (every cell against every
/// position); bigger groups use a sparse K-nearest-positions graph.
const DENSE_LIMIT: usize = 192;

/// One group's matching job (immutable snapshot).
struct GroupJob {
    cells: Vec<CellId>,
    positions: Vec<Point>,
    gps: Vec<Point>,
}

/// Runs the matching-based maximum-displacement optimization in place, on
/// up to [`LegalizerConfig::threads`] threads.
pub fn optimize_max_disp(state: &mut PlacementState<'_>, config: &LegalizerConfig) -> MaxDispStats {
    let mut obs = Meter::new();
    optimize_max_disp_metered(state, config, config.threads, &mut obs, None)
}

/// [`optimize_max_disp`] on up to `threads` threads (an engine job's
/// share) that records group spans, matching counters and the group-size
/// histogram into `obs`.
///
/// With `delta` set (ECO delta mode), grouping is restricted to closure
/// members: clean groups are never visited and clean cells of a dirty
/// group keep their positions — the matching permutes dirty-closure cells
/// only, so everything outside the closure is untouched by construction.
pub fn optimize_max_disp_metered(
    state: &mut PlacementState<'_>,
    config: &LegalizerConfig,
    threads: usize,
    obs: &mut Meter,
    delta: Option<&crate::dirty::DirtyClosure>,
) -> MaxDispStats {
    let d = state.design();
    let delta0 = config.delta0_dbu(d.tech.row_height);
    let mut stats = MaxDispStats::default();

    // Group placed movable cells by (type, fence). A BTreeMap so that the
    // group visit order below is the sorted key order by construction —
    // deterministic without a separate key sort (and without tripping the
    // analyzer's hash-iter rule: this fn seeds its determinism scope).
    let mut groups: BTreeMap<(u32, u16), Vec<CellId>> = BTreeMap::new();
    match delta {
        // Delta mode: only dirty-closure members participate (the closure
        // is in ascending id order, same as `movable_cells`).
        Some(dc) => {
            for &id in dc.cells() {
                if state.pos(id).is_some() {
                    let c = &d.cells[id.0 as usize];
                    groups.entry((c.type_id.0, c.fence.0)).or_default().push(id);
                }
            }
        }
        None => {
            for id in d.movable_cells() {
                if state.pos(id).is_some() {
                    let c = &d.cells[id.0 as usize];
                    groups.entry((c.type_id.0, c.fence.0)).or_default().push(id);
                }
            }
        }
    }

    // Snapshot jobs worth solving.
    let mut jobs: Vec<GroupJob> = Vec::new();
    for (_key, cells) in groups {
        if cells.len() < 2 {
            continue;
        }
        stats.groups += 1;
        let positions: Vec<Point> = cells.iter().map(|&c| state.pos(c).unwrap()).collect();
        let gps: Vec<Point> = cells.iter().map(|&c| d.cells[c.0 as usize].gp).collect();
        // Groups already within tolerance keep the identity assignment.
        let worst = positions
            .iter()
            .zip(&gps)
            .map(|(p, g)| p.manhattan(*g))
            .max()
            .unwrap();
        if worst <= delta0 {
            continue;
        }
        // Shrink the matching to the displaced *tail* plus a 2-hop
        // neighborhood closure: only cells beyond δ₀ need re-matching, and
        // their swap chains run through the owners of the positions nearest
        // their GPs. Everything else keeps the identity assignment, which is
        // what the matching would choose anyway in φ's linear region.
        let subset = tail_closure(&positions, &gps, delta0);
        if subset.len() < 2 {
            continue;
        }
        jobs.push(GroupJob {
            cells: subset.iter().map(|&i| cells[i]).collect(),
            positions: subset.iter().map(|&i| positions[i]).collect(),
            gps: subset.iter().map(|&i| gps[i]).collect(),
        });
    }

    // Solve (possibly in parallel; groups are disjoint so any schedule gives
    // the same per-group answers).
    let threads = threads.max(1).min(jobs.len().max(1));
    let results: Vec<Vec<(usize, usize)>> = if threads <= 1 {
        jobs.iter()
            .map(|j| solve_group(j, delta0, obs, 0))
            .collect()
    } else {
        let jobs_ref = &jobs;
        let mut out = Vec::with_capacity(jobs.len());
        std::thread::scope(|scope| {
            let chunk = jobs_ref.len().div_ceil(threads);
            let mut handles = Vec::new();
            for t in 0..threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(jobs_ref.len());
                if lo >= hi {
                    break;
                }
                handles.push(scope.spawn(move || {
                    let mut local = Meter::new();
                    let results = jobs_ref[lo..hi]
                        .iter()
                        .map(|j| solve_group(j, delta0, &mut local, t))
                        .collect::<Vec<_>>();
                    (results, local)
                }));
            }
            // Joined in spawn order, so the meter fold is deterministic.
            for h in handles {
                let (results, local) = h.join().expect("matching worker panicked");
                out.extend(results);
                obs.merge(&local);
            }
        });
        out
    };

    // Apply in deterministic order.
    for (job, moved) in jobs.iter().zip(results) {
        if moved.is_empty() {
            continue;
        }
        stats.groups_changed += 1;
        for &(i, _) in &moved {
            state.remove(job.cells[i]);
        }
        for &(i, j) in &moved {
            state
                .place(job.cells[i], job.positions[j])
                .expect("permuted position must be placeable");
            stats.cells_moved += 1;
        }
    }
    obs.add(CounterKind::MatchingGroups, stats.groups as u64);
    obs.add(CounterKind::MatchingCellsMoved, stats.cells_moved as u64);
    stats
}

/// Indices of cells displaced beyond `delta0` plus (two hops of) the owners
/// of positions near their GPs — the only cells a beneficial swap chain can
/// involve at meaningful gain.
fn tail_closure(positions: &[Point], gps: &[Point], delta0: Dbu) -> Vec<usize> {
    const HOPS: usize = 2;
    const NEAR: usize = 8;
    let n = positions.len();
    let mut include = vec![false; n];
    let mut frontier: Vec<usize> = (0..n)
        .filter(|&i| positions[i].manhattan(gps[i]) > delta0)
        .collect();
    for &i in &frontier {
        include[i] = true;
    }
    let bucket = delta0.max(1);
    let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for (j, &p) in positions.iter().enumerate() {
        grid.entry((p.x / bucket, p.y / bucket))
            .or_default()
            .push(j);
    }
    for _ in 0..HOPS {
        let mut next = Vec::new();
        for &i in &frontier {
            let gp = gps[i];
            let (bx, by) = (gp.x / bucket, gp.y / bucket);
            let mut cand: Vec<usize> = Vec::new();
            let mut ring = 0i64;
            let mut misses = 0;
            while cand.len() < NEAR && misses < 3 && ring <= 1_000 {
                let mut found = false;
                for dx in -ring..=ring {
                    for dy in -ring..=ring {
                        if dx.abs() != ring && dy.abs() != ring {
                            continue;
                        }
                        if let Some(v) = grid.get(&(bx + dx, by + dy)) {
                            cand.extend_from_slice(v);
                            found = true;
                        }
                    }
                }
                ring += 1;
                if !found && !cand.is_empty() {
                    misses += 1;
                }
            }
            cand.sort_unstable_by_key(|&j| positions[j].manhattan(gp));
            cand.truncate(NEAR);
            for j in cand {
                if !include[j] {
                    include[j] = true;
                    next.push(j);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    (0..n).filter(|&i| include[i]).collect()
}

/// Solves one group; returns the non-identity part of the assignment.
/// Records a `maxdisp.group` span (attributed to `thread`), the group-size
/// histogram and the matching's simplex pivots into `obs`.
fn solve_group(job: &GroupJob, delta0: Dbu, obs: &mut Meter, thread: usize) -> Vec<(usize, usize)> {
    let t_group = Stopwatch::start();
    let out = solve_group_inner(job, delta0, DENSE_LIMIT, obs);
    obs.record_span(SpanKind::MatchingGroup, t_group.elapsed_nanos(), thread);
    obs.observe(HistoKind::MatchingGroupCells, job.cells.len() as u64);
    out
}

fn solve_group_inner(
    job: &GroupJob,
    delta0: Dbu,
    dense_limit: usize,
    obs: &mut Meter,
) -> Vec<(usize, usize)> {
    let n = job.cells.len();
    let edges = if n <= dense_limit {
        let mut edges = Vec::with_capacity(n * n);
        for (i, gp) in job.gps.iter().enumerate() {
            for (j, &p) in job.positions.iter().enumerate() {
                edges.push((i, j, phi(p.manhattan(*gp), delta0)));
            }
        }
        edges
    } else {
        // Sparse: each cell connects to its own slot (feasibility) plus its
        // K nearest positions by GP distance, found via a spatial grid.
        // Chains of swaps compose through the intermediate cells' own
        // neighborhoods, so K can stay small.
        const K: usize = 32;
        let bucket = delta0.max(1);
        let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (j, &p) in job.positions.iter().enumerate() {
            grid.entry((p.x / bucket, p.y / bucket))
                .or_default()
                .push(j);
        }
        let mut edges = Vec::new();
        for (i, gp) in job.gps.iter().enumerate() {
            let (bx, by) = (gp.x / bucket, gp.y / bucket);
            let mut cand: Vec<usize> = Vec::with_capacity(2 * K);
            let mut ring = 0i64;
            let mut misses = 0;
            while cand.len() < K && misses < 3 && ring <= 1_000 {
                let mut found_any = false;
                for dx in -ring..=ring {
                    for dy in -ring..=ring {
                        if dx.abs() != ring && dy.abs() != ring {
                            continue;
                        }
                        if let Some(v) = grid.get(&(bx + dx, by + dy)) {
                            cand.extend_from_slice(v);
                            found_any = true;
                        }
                    }
                }
                ring += 1;
                if !found_any && !cand.is_empty() {
                    misses += 1;
                }
            }
            cand.sort_unstable_by_key(|&j| job.positions[j].manhattan(*gp));
            cand.truncate(K);
            if !cand.contains(&i) {
                cand.push(i);
            }
            for j in cand {
                edges.push((i, j, phi(job.positions[j].manhattan(*gp), delta0)));
            }
        }
        edges
    };

    // Lower-bound short-circuit: when keeping every cell where it is already
    // matches each cell's cheapest available slot, identity is optimal.
    {
        let mut min_cost = vec![i64::MAX; n];
        let mut identity = vec![i64::MAX; n];
        for &(i, j, c) in &edges {
            min_cost[i] = min_cost[i].min(c);
            if i == j {
                identity[i] = c;
            }
        }
        if min_cost == identity {
            return Vec::new();
        }
    }

    match mcl_flow::min_cost_matching(n, job.positions.len(), &edges) {
        Some((m, _witness, pivots)) => {
            obs.add(CounterKind::MatchingSimplexPivots, pivots);
            // Every matching applied to the placement carries an optimality
            // certificate: the independent auditor re-derives feasibility and
            // complementary slackness from the witness's dual potentials.
            #[cfg(any(debug_assertions, feature = "audit"))]
            {
                let cert = mcl_audit::certify(&_witness.graph, &_witness.solution)
                    .expect("max-disp matching failed its optimality certificate");
                debug_assert_eq!(cert.cost, m.cost, "certified cost must match matching cost");
            }
            m.assignment
                .iter()
                .enumerate()
                .filter(|&(i, &j)| i != j)
                .map(|(i, &j)| (i, j))
                .collect()
        }
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_db::score::Metrics;

    #[test]
    fn phi_linear_then_steep() {
        assert_eq!(phi(5, 10), 5);
        assert_eq!(phi(10, 10), 10);
        assert_eq!(phi(20, 10), 320); // 20^5 / 10^4
        assert!(phi(1000, 10) > phi(999, 10));
        assert_eq!(phi(100_000_000, 10), 1_000_000_000_000_000, "saturates");
    }

    fn design_with_crossed_cells() -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 4000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        // Cell a: GP at left, placed far right. Cell b: GP right where a
        // is placed, placed at a's GP. Swapping fixes both.
        let mut a = Cell::new("a", CellTypeId(0), Point::new(0, 0));
        a.pos = Some(Point::new(3000, 0));
        d.add_cell(a);
        let mut b = Cell::new("b", CellTypeId(0), Point::new(3000, 0));
        b.pos = Some(Point::new(0, 0));
        d.add_cell(b);
        d
    }

    #[test]
    fn swap_eliminates_max_displacement() {
        let d = design_with_crossed_cells();
        let mut state = PlacementState::from_design_positions(&d).unwrap();
        let before = Metrics::measure(&d);
        assert!(before.max_disp_rows > 30.0);
        let stats = optimize_max_disp(&mut state, &LegalizerConfig::contest());
        assert_eq!(stats.cells_moved, 2);
        let mut out = d.clone();
        state.write_back(&mut out);
        let after = Metrics::measure(&out);
        assert_eq!(after.max_disp_rows, 0.0);
        assert!(Checker::new(&out).check().is_legal());
    }

    #[test]
    fn different_types_never_swap() {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 4000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("w", 40, 1));
        let mut a = Cell::new("a", CellTypeId(0), Point::new(0, 0));
        a.pos = Some(Point::new(3000, 0));
        d.add_cell(a);
        let mut b = Cell::new("b", CellTypeId(1), Point::new(3000, 0));
        b.pos = Some(Point::new(0, 0));
        d.add_cell(b);
        let mut state = PlacementState::from_design_positions(&d).unwrap();
        let stats = optimize_max_disp(&mut state, &LegalizerConfig::contest());
        assert_eq!(stats.cells_moved, 0);
    }

    #[test]
    fn different_fences_never_swap() {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 4000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        let f = d.add_fence(FenceRegion::new("g", vec![Rect::new(0, 0, 4000, 90)]));
        // Both in the same column, but logically one is fenced (row 0 is the
        // fence; row 1 is default space).
        let mut a = Cell::new("a", CellTypeId(0), Point::new(0, 90));
        a.pos = Some(Point::new(3000, 90));
        d.add_cell(a);
        let mut b = Cell::new("b", CellTypeId(0), Point::new(3000, 0));
        b.pos = Some(Point::new(0, 0));
        b.fence = f;
        d.add_cell(b);
        let mut state = PlacementState::from_design_positions(&d).unwrap();
        let stats = optimize_max_disp(&mut state, &LegalizerConfig::contest());
        assert_eq!(stats.cells_moved, 0);
    }

    #[test]
    fn average_preserved_in_linear_region() {
        // Three cells whose displacements are all below δ0: stage 2 must be
        // a no-op.
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 4000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        for i in 0..3 {
            let x = i as Dbu * 100;
            let mut c = Cell::new(format!("c{i}"), CellTypeId(0), Point::new(x, 0));
            c.pos = Some(Point::new(x + 200, 0)); // ~2.2 rows < δ0 = 10 rows
            d.add_cell(c);
        }
        let mut state = PlacementState::from_design_positions(&d).unwrap();
        let stats = optimize_max_disp(&mut state, &LegalizerConfig::contest());
        assert_eq!(stats.cells_moved, 0);
    }

    #[test]
    fn sparse_path_matches_dense_result() {
        // A larger chain of shifted cells. Everyone's GP is at slot i, but
        // placements are rotated by one: cell i sits at slot (i+1) % n.
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 40000, 900));
        d.add_cell_type(CellType::new("s", 20, 1));
        let n = 40;
        for i in 0..n {
            let gp = Point::new(i as Dbu * 900, 0);
            let slot = ((i + 1) % n) as Dbu * 900;
            let mut c = Cell::new(format!("c{i}"), CellTypeId(0), gp);
            c.pos = Some(Point::new(slot, 0));
            d.add_cell(c);
        }
        // The whole chain as one group, solved on the sparse graph (a dense
        // limit of 8) and on the dense one. δ0 of 5 rows is below the
        // 10-row per-cell displacement, so every cell is in the tail.
        let job = GroupJob {
            cells: d.movable_cells().collect(),
            positions: d.cells.iter().map(|c| c.pos.unwrap()).collect(),
            gps: d.cells.iter().map(|c| c.gp).collect(),
        };
        let delta0 = 5 * d.tech.row_height;
        let mut obs = Meter::new();
        let sparse = solve_group_inner(&job, delta0, 8, &mut obs);
        assert_eq!(sparse, solve_group_inner(&job, delta0, n, &mut obs));
        // Rotation undone: everyone home. Cell n-1 was 35100 dbu away.
        assert_eq!(sparse.len(), n);
        for &(i, j) in &sparse {
            assert_eq!(job.positions[j], job.gps[i], "cell {i}");
        }

        // With the default δ0 = 10 rows only the wrap-around outlier is in
        // the tail. A global rotation is the worst case for the tail
        // closure (full unwinding needs every cell), but the φ-optimal
        // local fix still cuts the outlier substantially.
        let before = Metrics::measure(&d).max_disp_rows;
        let mut state = PlacementState::from_design_positions(&d).unwrap();
        optimize_max_disp(&mut state, &LegalizerConfig::contest());
        let mut out = d.clone();
        state.write_back(&mut out);
        let after = Metrics::measure(&out);
        assert!(
            after.max_disp_rows <= 0.75 * before,
            "outlier reduced: {} -> {}",
            before,
            after.max_disp_rows
        );
        assert!(Checker::new(&out).check().is_legal());
    }

    #[test]
    fn parallel_solve_matches_serial() {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 40000, 1800));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("w", 40, 1));
        // Two independent rotated groups on different rows.
        for (t, row) in [(0u32, 0usize), (1u32, 1usize)] {
            for i in 0..20 {
                let gp = Point::new(i as Dbu * 900, d.tech.row_height * row as Dbu);
                let slot = ((i + 7) % 20) as Dbu * 900;
                let mut c = Cell::new(format!("t{t}_c{i}"), CellTypeId(t), gp);
                c.pos = Some(Point::new(slot, gp.y));
                d.add_cell(c);
            }
        }
        let run = |threads: usize| {
            let cfg = LegalizerConfig::contest();
            let mut state = PlacementState::from_design_positions(&d).unwrap();
            let mut obs = Meter::new();
            optimize_max_disp_metered(&mut state, &cfg, threads, &mut obs, None);
            let mut out = d.clone();
            state.write_back(&mut out);
            let positions = out.cells.iter().map(|c| c.pos).collect::<Vec<_>>();
            (positions, obs)
        };
        let ((serial, obs), (parallel, obs4)) = (run(1), run(4));
        assert_eq!(serial, parallel);
        let pivots = obs.counter(CounterKind::MatchingSimplexPivots);
        assert!(pivots > 0);
        assert_eq!(obs4.counter(CounterKind::MatchingSimplexPivots), pivots);
        // Stage 3's simplex counter and span stay untouched.
        assert_eq!(obs.counter(CounterKind::SimplexPivots), 0);
        assert_eq!(obs.span(SpanKind::FlowSimplex).count, 0);
    }
}
