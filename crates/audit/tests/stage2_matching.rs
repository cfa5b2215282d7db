//! Stage-2-shaped matchings: the production matching (network simplex) must
//! reach the successive-shortest-paths optimum, return a perfect matching,
//! and carry a witness the independent certifier accepts.
//!
//! Instances mirror `maxdisp.rs`: cells of one group sit on distinct slots
//! of a row grid, their GPs sit near the slots of a few swapped or rotated
//! partners, and each cell connects to its K = 32 nearest slots by GP
//! distance plus its own slot, at the convex cost φ of Eq. 3.
//!
//! The group above 2,300 cells, where the simplex's big-M clamps at
//! `i64::MAX / 4`, takes about half a minute in release and is ignored by
//! default; run it with
//! `cargo test --release -p mcl-audit --test stage2_matching -- --ignored`.

#[path = "../../flow/tests/support/ssp.rs"]
mod ssp;

use mcl_audit::certify;
use mcl_db::geom::{dbu_from_f64_saturating, dbu_to_f64};
use mcl_flow::{min_cost_matching, Matching};

const K: usize = 32;
const SITE: i64 = 10;
const ROW: i64 = 90;
const COLS: i64 = 64;
/// φ saturates here, as in `maxdisp::phi`.
const PHI_CAP: i64 = 1_000_000_000_000_000;

/// `φ(δ) = δ` up to `δ₀`, `δ⁵/δ₀⁴` beyond, capped at 10¹⁵.
fn phi(delta: i64, delta0: i64) -> i64 {
    if delta <= delta0 {
        return delta;
    }
    let d = dbu_to_f64(delta);
    let v = d * (d / dbu_to_f64(delta0.max(1))).powi(4);
    if v >= 1e15 {
        PHI_CAP
    } else {
        dbu_from_f64_saturating(v)
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn below(s: &mut u64, n: usize) -> usize {
    (xorshift(s) % n as u64) as usize
}

fn manhattan(a: (i64, i64), b: (i64, i64)) -> i64 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// The GPs of a group of `n_left` cells over `n_right` slots; cell `i`
/// occupies slot `i`. A GP sits within a site of the slot of a partner:
/// itself for most cells, a random other cell for one in `swap_every`.
/// With `far`, one cell in three instead has its GP 80 to 120 rows below
/// every slot, as for a cell whose group has no slot near its GP.
fn group(
    n_left: usize,
    n_right: usize,
    swap_every: usize,
    far: bool,
    seed: u64,
) -> Vec<(i64, i64)> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let slots = slots(n_right);
    (0..n_left)
        .map(|i| {
            let jitter = below(&mut s, SITE as usize) as i64;
            if far && below(&mut s, 3) == 0 {
                let x = below(&mut s, (COLS * SITE) as usize) as i64;
                return (x, -ROW * (80 + below(&mut s, 41) as i64));
            }
            let partner = if below(&mut s, swap_every) == 0 {
                below(&mut s, n_right)
            } else {
                i
            };
            (slots[partner].0 + jitter, slots[partner].1)
        })
        .collect()
}

fn slots(n_right: usize) -> Vec<(i64, i64)> {
    (0..n_right as i64)
        .map(|j| ((j % COLS) * SITE, (j / COLS) * ROW))
        .collect()
}

/// `maxdisp.rs`'s sparse graph: each cell's K nearest slots by GP distance
/// plus its own slot (when it has one).
fn sparse_edges(gps: &[(i64, i64)], n_right: usize, delta0: i64) -> Vec<(usize, usize, i64)> {
    let slots = slots(n_right);
    let mut edges = Vec::new();
    for (i, &gp) in gps.iter().enumerate() {
        let mut near: Vec<usize> = (0..n_right).collect();
        near.sort_by_key(|&j| (manhattan(slots[j], gp), j));
        near.truncate(K);
        if i < n_right && !near.contains(&i) {
            near.push(i);
        }
        edges.extend(
            near.into_iter()
                .map(|j| (i, j, phi(manhattan(slots[j], gp), delta0))),
        );
    }
    edges
}

fn dense_edges(gps: &[(i64, i64)], n_right: usize, delta0: i64) -> Vec<(usize, usize, i64)> {
    let slots = slots(n_right);
    let mut edges = Vec::new();
    for (i, &gp) in gps.iter().enumerate() {
        for (j, &p) in slots.iter().enumerate() {
            edges.push((i, j, phi(manhattan(p, gp), delta0)));
        }
    }
    edges
}

/// Solves, then checks the three claims against the SSP oracle and the
/// certifier. Returns the matching for case-specific checks.
fn check(n_left: usize, n_right: usize, edges: &[(usize, usize, i64)], tag: &str) -> Matching {
    let (m, w, _) = min_cost_matching(n_left, n_right, edges)
        .unwrap_or_else(|| panic!("{tag}: a perfect matching exists"));

    // A perfect matching over the given edges, at the reported cost.
    assert_eq!(m.assignment.len(), n_left, "{tag}");
    let mut taken = vec![false; n_right];
    let mut cost = 0i128;
    for (l, &r) in m.assignment.iter().enumerate() {
        assert!(r < n_right && !taken[r], "{tag}: right {r} matched twice");
        taken[r] = true;
        let c = edges
            .iter()
            .find(|&&(el, er, _)| (el, er) == (l, r))
            .unwrap_or_else(|| panic!("{tag}: {l} -> {r} is not an edge"))
            .2;
        cost += i128::from(c);
    }
    assert_eq!(cost, m.cost, "{tag}: assignment cost");

    let oracle = ssp::solve(&w.graph).unwrap_or_else(|e| panic!("{tag}: SSP failed: {e:?}"));
    assert_eq!(m.cost, oracle.cost, "{tag}: simplex and SSP optima differ");
    let cert = certify(&w.graph, &w.solution)
        .unwrap_or_else(|v| panic!("{tag}: certificate rejected: {v:?}"));
    assert_eq!(cert.cost, m.cost, "{tag}: certified cost");
    m
}

#[test]
fn sparse_square_groups_match_ssp_and_certify() {
    let delta0 = 2 * ROW;
    for (k, n) in [2usize, 3, 5, 17, 64, 200, 511, 1000]
        .into_iter()
        .enumerate()
    {
        for seed in 0..2u64 {
            let gps = group(n, n, 8, false, 17 * k as u64 + seed);
            let edges = sparse_edges(&gps, n, delta0);
            check(n, n, &edges, &format!("sparse n={n} seed={seed}"));
        }
    }
}

#[test]
fn dense_group_matches_ssp_and_certifies() {
    let n = 48;
    let gps = group(n, n, 3, false, 7);
    let m = check(n, n, &dense_edges(&gps, n, ROW), "dense");
    assert!(
        m.assignment.iter().enumerate().any(|(l, &r)| l != r),
        "the swaps make identity suboptimal"
    );
}

#[test]
fn rectangular_group_covers_every_left() {
    let (n_left, n_right) = (150, 230);
    let gps = group(n_left, n_right, 4, false, 11);
    check(
        n_left,
        n_right,
        &sparse_edges(&gps, n_right, ROW),
        "rectangular sparse",
    );
    check(
        40,
        70,
        &dense_edges(&group(40, 70, 4, false, 12), 70, ROW),
        "rectangular dense",
    );
}

#[test]
fn infeasible_group_is_none() {
    // Ten cells whose only edges lead to five slots: no perfect matching.
    let n = 60;
    let gps = group(n, n, 8, false, 5);
    let mut edges = sparse_edges(&gps, n, ROW);
    edges.retain(|&(l, r, _)| l >= 10 || r < 5);
    for l in 0..10 {
        for r in 0..5 {
            if !edges.iter().any(|&(el, er, _)| (el, er) == (l, r)) {
                edges.push((l, r, 1));
            }
        }
    }
    assert!(min_cost_matching(n, n, &edges).is_none());
    assert!(min_cost_matching(3, 2, &[(0, 0, 1), (1, 1, 1), (2, 1, 1)]).is_none());
}

/// A third of the cells tens of rows from every slot, at `δ₀` of one
/// site: all their edges cost the 10¹⁵ cap, so ties and huge reduced costs
/// are everywhere.
fn saturated(n: usize, seed: u64) {
    let delta0 = SITE;
    let gps = group(n, n, 8, true, seed);
    let edges = sparse_edges(&gps, n, delta0);
    let capped = edges.iter().filter(|e| e.2 == PHI_CAP).count();
    assert!(
        capped * 4 > edges.len(),
        "{capped} of {} capped",
        edges.len()
    );
    check(n, n, &edges, &format!("saturated n={n}"));
}

#[test]
fn phi_saturated_group_matches_ssp_and_certifies() {
    saturated(400, 3);
}

#[test]
#[ignore = "about half a minute in release; run from the CI audit-suite job"]
fn phi_saturated_group_past_big_m_clamp() {
    // Big-M is 1 + (nodes + 1)·(max cost + 1), clamped at i64::MAX / 4:
    // at a 10¹⁵ cost it clamps from about 2,300 cells on.
    let n = 4000;
    assert!((2 * n as i128 + 3) * i128::from(PHI_CAP + 1) > i128::from(i64::MAX / 4));
    saturated(n, 4);
}
