//! Batch-parity suite: the cross-design batch scheduler must be invisible
//! in results (DESIGN.md §12).
//!
//! For every batch composition — shuffled member order, 1/2/4 threads,
//! full-width and throttled admission (`max_inflight_designs` 0 and 2) —
//! each design's output positions, replay log, stats and golden report
//! must be byte-identical to its solo run (a one-design engine). Throttled admission
//! at 4 threads splits the leftover threads among the in-flight designs as
//! MGL helpers, so these runs exercise runners and helpers side by side,
//! not just runner parallelism.

use mclegal::core::{build_run_report, Engine, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;

fn parity_designs(n: usize) -> Vec<Design> {
    (0..n)
        .map(|k| {
            let mut d = Design::new(
                format!("p{k}"),
                Technology::example(),
                Rect::new(0, 0, 2600, 1800),
            );
            d.add_cell_type(CellType::new("s", 20, 1));
            d.add_cell_type(CellType::new("d", 30, 2));
            let mut s = 0x2545_f491_4f6c_dd1du64.wrapping_mul(k as u64 + 1) | 1;
            let mut rng = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for i in 0..150 {
                let t = CellTypeId(u32::from(rng() % 5 == 0));
                let x = (rng() % 2500) as Dbu;
                let y = (rng() % 1700) as Dbu;
                d.add_cell(Cell::new(format!("c{i}"), t, Point::new(x, y)));
            }
            d
        })
        .collect()
}

fn cfg(threads: usize, max_inflight: usize) -> LegalizerConfig {
    let mut c = LegalizerConfig::contest();
    c.threads = threads;
    c.max_inflight_designs = max_inflight;
    c
}

fn positions(d: &Design) -> Vec<Option<Point>> {
    d.cells.iter().map(|c| c.pos).collect()
}

/// One solo reference per design: positions, stats, replay log, golden
/// report JSON.
struct SoloRef {
    positions: Vec<Option<Point>>,
    stats: mclegal::core::LegalizeStats,
    log: mclegal::audit::ReplayLog,
    golden: String,
}

fn solo_refs(designs: &[Design], threads: usize) -> Vec<SoloRef> {
    designs
        .iter()
        .map(|d| {
            let c = cfg(threads, 0);
            let out = Engine::new(c.clone())
                .run_one(d, RunSpec::default())
                .unwrap();
            let golden = build_run_report(&out.design, &out.stats, &c).golden_json();
            SoloRef {
                positions: positions(&out.design),
                stats: out.stats,
                log: out.replay,
                golden,
            }
        })
        .collect()
}

/// Deterministic member-order permutations: identity, reversed, and an
/// even/odd interleave.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let identity: Vec<usize> = (0..n).collect();
    let reversed: Vec<usize> = (0..n).rev().collect();
    let interleaved: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
    vec![identity, reversed, interleaved]
}

#[test]
fn shuffled_batches_match_solo_bit_identically() {
    let designs = parity_designs(8);
    for threads in [1usize, 2, 4] {
        let solo = solo_refs(&designs, threads);
        for max_inflight in [0usize, 2] {
            for perm in permutations(designs.len()) {
                let batch: Vec<Design> = perm.iter().map(|&i| designs[i].clone()).collect();
                let mut engine = Engine::new(cfg(threads, max_inflight));
                let results = engine.run(&batch, RunSpec::default());
                for (slot, &i) in perm.iter().enumerate() {
                    let tag = format!(
                        "design p{i} at slot {slot}, {threads} threads, \
                         max_inflight {max_inflight}"
                    );
                    let out = results[slot]
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    assert_eq!(
                        positions(&out.design),
                        solo[i].positions,
                        "{tag}: positions"
                    );
                    assert_eq!(out.stats, solo[i].stats, "{tag}: stats");
                    assert_eq!(out.replay, solo[i].log, "{tag}: replay log");
                    let golden =
                        build_run_report(&out.design, &out.stats, engine.config()).golden_json();
                    assert_eq!(golden, solo[i].golden, "{tag}: golden report");
                }
            }
        }
    }
}

/// Duplicate members must each reproduce the solo run: every job runs on
/// its own seed state, never keyed by design name.
#[test]
fn duplicate_members_are_independent() {
    let designs = parity_designs(2);
    let batch: Vec<Design> = vec![
        designs[0].clone(),
        designs[1].clone(),
        designs[0].clone(),
        designs[1].clone(),
    ];
    let mut c = cfg(4, 2);
    c.max_inflight_designs = 2;
    let mut engine = Engine::new(c);
    let results = engine.run(&batch, RunSpec::default());
    let solo = solo_refs(&designs, 4);
    for (slot, want) in [0usize, 1, 0, 1].iter().enumerate() {
        let out = results[slot].as_ref().unwrap();
        assert_eq!(positions(&out.design), solo[*want].positions, "slot {slot}");
        assert_eq!(out.replay, solo[*want].log, "slot {slot}");
    }
}
