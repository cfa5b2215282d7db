//! Scale-parity suite: the SoA hot-state layout and hierarchical spatial
//! index must be invisible in results at scale (DESIGN.md §14).
//!
//! Two invariants, at 10k and 100k cells on `mcl-gen` designs:
//!
//! 1. **Scheduler invariance at 1/2/4 threads.** The MGL stage alone
//!    commits the exact same mutation sequence whether windows are
//!    evaluated inline (1 thread) or with helpers (2/4). Checked on
//!    the replay log, op for op, plus a checked-in digest so any change to
//!    the decision sequence — not just a cross-thread divergence — is
//!    caught at review time.
//! 2. **Full-pipeline parity at 1/2/4 threads.** mgl/maxdisp/fixed_order
//!    end to end: positions, stats, replay logs, golden run reports and
//!    audit certificates byte-identical, plus a checked-in digest of the
//!    pipeline's replay log.
//!
//! Replay logs are recorded only with the default `replay-log` feature;
//! without it the digest checks are skipped and the rest still runs.
//!
//! A third check, also at 10k cells, samples the allocation-free
//! `best_insertion_in` against the seed-faithful `insertion_reference`.
//!
//! The 100k cases and the sampled insertion diff are `#[ignore]`d: they
//! want an optimized build and run in the CI `perf-smoke` job via
//! `cargo test --release --test scale_parity -- --include-ignored`.

use mclegal::core::pipeline::FULL_PIPELINE;
use mclegal::core::{
    build_run_report, Engine, LegalizerConfig, RunOutput, RunSpec, Stage, StageSet,
};
use mclegal::db::prelude::*;
use mclegal::gen::{generate, GeneratorConfig};

/// Checked-in replay digests for the designs below. Re-bless (the tests
/// print the actual value on mismatch) whenever an intentional algorithm
/// change alters the decision sequence.
const SCHED_DIGEST_10K: u64 = 0x1c0e_b70a_10c9_4377;
const SCHED_DIGEST_100K: u64 = 0xbc34_a8d1_d904_16c5;
const PIPELINE_DIGEST_10K: u64 = 0x7998_c5e3_5628_c76b;
const PIPELINE_DIGEST_100K: u64 = 0xb0ea_1a04_e473_c62e;

/// The scale regime of the perf bench (`mcl_bench::bench_design`) — 80/20
/// one/two-row mix at 45% density — plus fence regions, which the bench
/// omits but a parity suite for a fence-aware legalizer must exercise.
fn scale_design(n: usize) -> mclegal::gen::Generated {
    let cfg = GeneratorConfig {
        name: format!("scale_parity_{n}"),
        seed: 42,
        num_cells: n,
        density: 0.45,
        sigma_rows: 2.0,
        height_mix: [0.80, 0.20, 0.0, 0.0],
        hotspots: 0,
        fences: 3,
        fence_cell_fraction: 0.10,
        ..GeneratorConfig::default()
    };
    generate(&cfg).expect("scale-parity benchmark must pack")
}

/// Mirrors the perf bench's legalizer settings (`mcl_bench::bench_config`:
/// bounded expansion ladder, design-proportional round capacity) so the
/// suite covers the same code paths the throughput numbers come from.
fn cfg(n: usize, threads: usize) -> LegalizerConfig {
    let mut c = LegalizerConfig::total_displacement();
    c.threads = threads;
    c.max_expansions = 3;
    c.window_list_capacity = (n / 32).max(64);
    c
}

/// Checks a replay log against its checked-in digest. Without the
/// `replay-log` feature every log is empty, so there is nothing to check;
/// the position, stats and report parity checks still run.
fn check_digest(log: &mclegal::audit::ReplayLog, expected: u64, tag: &str) {
    if !cfg!(feature = "replay-log") {
        return;
    }
    assert_eq!(
        log.digest(),
        expected,
        "{tag}: replay digest changed, got {:#018x} — re-bless the \
         checked-in constant if the algorithm change is intentional",
        log.digest()
    );
}

fn run(d: &Design, n: usize, threads: usize, stages: StageSet) -> RunOutput {
    let mut c = cfg(n, threads);
    c.stages = stages;
    Engine::new(c)
        .run_one(d, RunSpec::default())
        .unwrap_or_else(|e| panic!("n={n}, {threads} threads: {e}"))
}

/// Invariant 1: the MGL stage's mutation sequence is identical with inline
/// evaluation (1 thread) and with helpers (2/4 threads).
fn check_scheduler_parity(n: usize, expected_digest: u64) {
    let g = scale_design(n);
    let run = |threads: usize| {
        let out = run(&g.design, n, threads, StageSet::of(&[Stage::Mgl]));
        assert_eq!(
            out.stats.mgl.failed, 0,
            "n={n}, {threads} threads: cells failed"
        );
        out.replay
    };
    let log1 = run(1);
    check_digest(&log1, expected_digest, &format!("scheduler n={n}"));
    for threads in [2usize, 4] {
        let log = run(threads);
        assert_eq!(
            log.digest(),
            log1.digest(),
            "n={n}: {threads}-thread digest diverges from inline"
        );
        assert_eq!(log.ops(), log1.ops(), "n={n}, {threads} threads: ops");
    }
}

/// Everything a full-pipeline run must reproduce bit-for-bit: output
/// positions, stats, replay log, timing-free golden report, and the
/// independent audit certificate (Debug-formatted, so the comparison
/// covers every field).
struct RunOut {
    positions: Vec<Option<Point>>,
    stats: mclegal::core::LegalizeStats,
    log: mclegal::audit::ReplayLog,
    golden: String,
    certificate: String,
}

fn run_pipeline(d: &Design, n: usize, threads: usize) -> RunOut {
    let RunOutput {
        design: out,
        stats,
        replay: log,
    } = run(d, n, threads, FULL_PIPELINE);
    // The report echoes the configured thread count; zero it so the golden
    // compares the *result*, not the knob under test.
    let mut report = build_run_report(&out, &stats, &cfg(n, threads));
    report.threads = 0;
    let golden = report.golden_json();
    let report = mclegal::audit::verify(&out);
    assert!(
        report.is_clean(),
        "audit found violations at n={n}, {threads} threads: {report:?}"
    );
    RunOut {
        positions: out.cells.iter().map(|c| c.pos).collect(),
        stats,
        log,
        golden,
        certificate: format!("{report:?}"),
    }
}

/// Invariant 2: mgl/maxdisp/fixed_order end-to-end parity at 1/2/4
/// threads.
fn check_pipeline_parity(n: usize, expected_digest: u64) {
    let g = scale_design(n);
    let solo = run_pipeline(&g.design, n, 2);
    check_digest(&solo.log, expected_digest, &format!("pipeline n={n}"));
    for threads in [1usize, 4] {
        let got = run_pipeline(&g.design, n, threads);
        let tag = format!("n={n}, {threads} threads vs 2 threads");
        assert_eq!(got.positions, solo.positions, "{tag}: positions");
        assert_eq!(got.stats, solo.stats, "{tag}: stats");
        assert_eq!(got.log, solo.log, "{tag}: replay log");
        assert_eq!(got.golden, solo.golden, "{tag}: golden report");
        assert_eq!(
            got.certificate, solo.certificate,
            "{tag}: audit certificate"
        );
    }
}

#[test]
fn scheduler_parity_10k_across_threads() {
    check_scheduler_parity(10_000, SCHED_DIGEST_10K);
}

#[test]
fn pipeline_parity_10k_across_threads() {
    check_pipeline_parity(10_000, PIPELINE_DIGEST_10K);
}

#[test]
#[ignore = "large input; run with --release -- --ignored (CI perf-smoke)"]
fn scheduler_parity_100k_across_threads() {
    check_scheduler_parity(100_000, SCHED_DIGEST_100K);
}

#[test]
#[ignore = "large input; run with --release -- --ignored (CI perf-smoke)"]
fn pipeline_parity_100k_across_threads() {
    check_pipeline_parity(100_000, PIPELINE_DIGEST_100K);
}

/// Sampled differential check at 10k cells: the allocation-free
/// `best_insertion_in` must agree bit-for-bit with the seed-faithful
/// reference on realistic windows over a dense partial placement.
#[test]
#[ignore = "sampled diff; run with --release -- --ignored (CI perf-smoke)"]
fn insertion_matches_reference_sampled_10k() {
    use mclegal::core::insertion::{best_insertion_in, CostModel, InsertionScratch};
    use mclegal::core::insertion_reference::best_insertion_reference;
    use mclegal::core::PlacementState;

    let g = scale_design(10_000);
    let d = &g.design;
    let n = d.cells.len();
    // Two thirds placed at their legal packed positions; targets sampled
    // from the remaining third at a fixed stride.
    let split = n * 2 / 3;
    let mut state = PlacementState::new(d);
    for i in 0..split {
        state
            .place(CellId(i as u32), g.golden[i])
            .expect("golden positions are legal");
    }
    let weights: Vec<i64> = (0..n as i64).map(|i| 1 + i % 3).collect();
    let model = CostModel {
        reference: mclegal::core::config::DisplacementReference::Gp,
        normalize: true,
        weights: &weights,
        oracle: None,
        io_penalty: 10,
        rail_penalty: 100,
    };
    let mut scratch = InsertionScratch::new();
    let mut found = 0usize;
    for i in (split..n).step_by(13) {
        let t = CellId(i as u32);
        let gp = d.cells[i].gp;
        for (wx, wy) in [(300, 200), (1200, 600)] {
            let win = Rect::new(gp.x - wx, gp.y - wy, gp.x + wx, gp.y + wy);
            let fast = best_insertion_in(&state, t, win, &model, &mut scratch);
            let slow = best_insertion_reference(&state, t, win, &model);
            assert_eq!(fast, slow, "cell {i} window {win:?}");
            found += usize::from(fast.is_some());
        }
    }
    assert!(found > 100, "too few feasible insertions sampled: {found}");
}
