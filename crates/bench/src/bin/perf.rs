//! The perf bench: one binary that writes the whole of `BENCH_mgl.json`.
//!
//! Its sections run in a fixed order, in one process:
//!
//! 1. **mgl** — the seed parallel MGL scheduler (per-round
//!    `std::thread::scope` with static slice chunking,
//!    O(|pending| × |selected|) window selection and the allocating
//!    reference insertion evaluator, replicated below) against the current
//!    MGL stage run through `Engine::run`, on a dense synthetic design at
//!    1/2/4/8 threads (`results`). Then the full pipeline's per-stage wall
//!    time at 4 threads (`stage_breakdown`), and 16 small sparse designs
//!    through one shared engine against one fresh engine per design
//!    (`batch`), plus one throttled-admission run that gives each runner a
//!    helper. Both columns build each MGL stage's scratches and spawn its
//!    helpers per design, and every pair is asserted bit-identical, so
//!    every ratio is pure scheduling: designs side by side on runners
//!    against one after the other.
//! 2. **scale** — MGL throughput and peak RSS per size on
//!    [`mcl_bench::bench_design`]. Sizes run in ascending order, so the
//!    process-lifetime `VmHWM` read after each row approximates that
//!    size's peak.
//! 3. **eco** — same-sized deltas through a resident [`EcoSession`] on the
//!    100k-cell design that `scale` generated, against a from-scratch ECO
//!    run (`RunSpec::Eco`) of one such delta.
//! 4. **serve** — closed-loop clients at concurrency 1/4/16 against an
//!    in-process daemon with its report dir and write-ahead journal on, so
//!    the measured path includes the fsync the real daemon pays.
//!
//! The document is written once, after the last section; then every gate
//! of [`gate_violations`] is checked and the binary exits non-zero on any
//! violation. Two modes, and no other knobs:
//!
//! | | `--smoke` (CI) | default (`make bench`) |
//! |---|---|---|
//! | mgl: cells / reps | 800 / 1 | 4,000 / 3 |
//! | scale: sizes / threads | 100k / 2 | 10k, 100k, 1M / 4 |
//! | eco: 64-cell deltas | 8 | 12 |
//! | serve | skipped | run |

use mcl_bench::{bench_config, bench_design, legalize, peak_rss_kb, BENCH_DENSITY, BENCH_SEED};
use mcl_core::config::LegalizerConfig;
use mcl_core::insertion::{CostModel, Insertion};
use mcl_core::insertion_reference::best_insertion_reference;
use mcl_core::mgl::{apply_insertion, cell_order, compute_weights, fallback_scan, window_for};
use mcl_core::pipeline::StageTiming;
use mcl_core::{EcoSession, Engine, PlacementState, RunSpec, Stage, StageSet};
use mcl_db::prelude::*;
use mcl_obs::clock::Stopwatch;
use mcl_obs::{count_to_float, CounterKind, Meter, SpanKind};
use mcl_serve::json::parse;
use mcl_serve::{Client, ServeConfig, Server};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The values the two modes differ in.
struct Mode {
    serve: bool,
    mgl_cells: usize,
    reps: usize,
    scale_sizes: &'static [usize],
    scale_threads: usize,
    eco_deltas: usize,
}

const SMOKE: Mode = Mode {
    serve: false,
    mgl_cells: 800,
    reps: 1,
    scale_sizes: &[100_000],
    scale_threads: 2,
    eco_deltas: 8,
};

const FULL: Mode = Mode {
    serve: true,
    mgl_cells: 4_000,
    reps: 3,
    scale_sizes: &[10_000, 100_000, 1_000_000],
    scale_threads: 4,
    eco_deltas: 12,
};

/// Thread counts of the `mgl` and `batch` sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// The `mgl` section's design: its own generator (the scheduler tests'
/// cell mix) at this seed and density, and a small round capacity.
const MGL_SEED: u64 = 1234;
const MGL_DENSITY: f64 = 0.45;
const MGL_CAPACITY: usize = 64;
/// The `batch` workload: many small, sparse designs — the regime batch
/// scheduling exists for, where a run's fixed costs (helper spawns, round
/// hand-offs, scratch construction) are a large share of it, and running
/// designs side by side on runners hides them.
const BATCH_DESIGNS: usize = 16;
const BATCH_CELLS: usize = 40;
const BATCH_DENSITY: f64 = 0.25;
/// The `eco` section: deltas of this many cells on this design size.
const ECO_CELLS: usize = 100_000;
const ECO_DELTA_CELLS: usize = 64;
const ECO_THREADS: usize = 4;
/// The `serve` section: jobs per concurrency level on this design size.
/// The queue is small on purpose, so the 16-client level exercises
/// admission backpressure.
const SERVE_CELLS: usize = 10_000;
const SERVE_JOBS: usize = 24;
const SERVE_THREADS: usize = 4;
const SERVE_QUEUE_CAP: usize = 8;
const SERVE_LEVELS: [usize; 3] = [1, 4, 16];

/// The gates, checked in both modes (the serve gate whenever `serve`
/// ran). `scale`'s two gates read the `GATE_CELLS` row.
const GATE_CELLS: usize = 100_000;
/// MGL cells per second on the `GATE_CELLS` row.
const MIN_CELLS_PER_SEC: f64 = 8_000.0;
/// `VmHWM` read right after the `GATE_CELLS` row.
const MAX_PEAK_RSS_KB: u64 = 131_072;
/// Delta p99 of the resident ECO session.
const MAX_ECO_P99_MS: f64 = 2_000.0;
/// The from-scratch ECO run's wall time over the session's delta p99.
const MIN_ECO_SPEEDUP: f64 = 10.0;
/// A slower stage 2 slows only the full ECO reference, which raises
/// `speedup_vs_full`, so the speedup floor cannot catch it; the ratio of
/// two stages of one run does not depend on machine speed. About 60 when
/// stage 2 ran successive shortest paths, about 1 on the network simplex.
const MAX_MAXDISP_OVER_FIXED_ORDER: f64 = 4.0;
/// Single-client serve p99: twice the largest of five default-mode runs
/// on a 2-vCPU container (461.7–508.6 ms).
const MAX_SERVE_P99_MS: f64 = 1_017.2;

struct MglRow {
    threads: usize,
    seed_s: f64,
    new_s: f64,
}

struct BatchRow {
    threads: usize,
    solo_s: f64,
    engine_s: f64,
}

struct ScaleRow {
    cells: usize,
    gen_s: f64,
    mgl_s: f64,
    peak_rss_kb: Option<u64>,
    rounds: u64,
}

impl ScaleRow {
    fn cells_per_sec(&self) -> f64 {
        count_to_float(self.cells as u64) / self.mgl_s
    }
}

struct EcoResult {
    deltas: usize,
    p50_ms: f64,
    p99_ms: f64,
    /// Of the last delta.
    windows_dirty: u64,
    /// Of the last delta.
    cells_reused: u64,
    full_ms: f64,
    /// The full reference's stage 2 and stage 3 wall time.
    maxdisp_s: f64,
    fixed_order_s: f64,
}

impl EcoResult {
    fn speedup_vs_full(&self) -> f64 {
        self.full_ms / self.p99_ms
    }
}

struct ServeLevel {
    clients: usize,
    p50_ms: f64,
    p99_ms: f64,
    jobs_per_sec: f64,
    rejected: u64,
}

/// Everything one run measured: the input of [`document`] and
/// [`gate_violations`].
struct Results {
    mgl_cells: usize,
    reps: usize,
    mgl: Vec<MglRow>,
    stage_breakdown: Vec<StageTiming>,
    batch: Vec<BatchRow>,
    interleaved_s: f64,
    scale_threads: usize,
    scale: Vec<ScaleRow>,
    eco: EcoResult,
    /// `None` in smoke mode.
    serve: Option<Vec<ServeLevel>>,
}

/// Whether `value <= bound`; NaN never is, so an unmeasured value trips
/// its gate.
fn within(value: f64, bound: f64) -> bool {
    value <= bound
}

/// Every gate `r` violates, as one line each; empty when all pass.
fn gate_violations(r: &Results) -> Vec<String> {
    let mut out = Vec::new();
    match r.scale.iter().find(|row| row.cells == GATE_CELLS) {
        None => out.push(format!("scale: no {GATE_CELLS}-cell row")),
        Some(row) => {
            let cps = row.cells_per_sec();
            if !within(MIN_CELLS_PER_SEC, cps) {
                out.push(format!(
                    "scale: {cps:.0} cells/s < {MIN_CELLS_PER_SEC} at {GATE_CELLS} cells"
                ));
            }
            match row.peak_rss_kb {
                Some(kb) if kb <= MAX_PEAK_RSS_KB => {}
                Some(kb) => out.push(format!(
                    "scale: peak RSS {kb} kB > {MAX_PEAK_RSS_KB} kB after {GATE_CELLS} cells"
                )),
                None => out.push("scale: peak RSS unreadable (needs procfs)".into()),
            }
        }
    }
    let eco = &r.eco;
    if !within(eco.p99_ms, MAX_ECO_P99_MS) {
        out.push(format!(
            "eco: delta p99 {:.2} ms > {MAX_ECO_P99_MS} ms",
            eco.p99_ms
        ));
    }
    let speedup = eco.speedup_vs_full();
    if !within(MIN_ECO_SPEEDUP, speedup) {
        out.push(format!(
            "eco: speedup_vs_full {speedup:.1}x < {MIN_ECO_SPEEDUP}x"
        ));
    }
    if !within(
        eco.maxdisp_s,
        MAX_MAXDISP_OVER_FIXED_ORDER * eco.fixed_order_s,
    ) {
        out.push(format!(
            "eco: full reference maxdisp {:.2}s > {MAX_MAXDISP_OVER_FIXED_ORDER}x fixed_order \
             {:.2}s",
            eco.maxdisp_s, eco.fixed_order_s
        ));
    }
    if let Some(solo) = r.serve.as_ref().and_then(|levels| levels.first()) {
        if !within(solo.p99_ms, MAX_SERVE_P99_MS) {
            out.push(format!(
                "serve: single-client p99 {:.2} ms > {MAX_SERVE_P99_MS} ms",
                solo.p99_ms
            ));
        }
    }
    out
}

/// The whole `BENCH_mgl.json` document for `r`: one top-level entry per
/// line group, `serve` only when it ran.
fn document(r: &Results) -> String {
    let n = count_to_float(r.mgl_cells as u64);
    let at = |threads: usize| r.mgl.iter().find(|row| row.threads == threads);
    let (seed1, single) = at(1).map_or((f64::NAN, f64::NAN), |row| {
        (row.seed_s, row.seed_s / row.new_s)
    });
    let (new4, agg4) = at(4).map_or((f64::NAN, f64::NAN), |row| {
        (row.new_s, row.seed_s / row.new_s)
    });
    let rows: Vec<String> = r
        .mgl
        .iter()
        .map(|row| {
            format!(
                "    {{\"threads\": {}, \"seed_seconds\": {:.6}, \"new_seconds\": {:.6}, \
                 \"seed_cells_per_sec\": {:.1}, \"new_cells_per_sec\": {:.1}, \
                 \"speedup_vs_seed\": {:.3}}}",
                row.threads,
                row.seed_s,
                row.new_s,
                n / row.seed_s,
                n / row.new_s,
                row.seed_s / row.new_s
            )
        })
        .collect();
    let breakdown: Vec<String> = r
        .stage_breakdown
        .iter()
        .map(|s| format!("\"{}\": {:.6}", s.name, s.seconds))
        .collect();
    let designs = count_to_float(BATCH_DESIGNS as u64);
    let batch_speedup4 = r
        .batch
        .iter()
        .find(|row| row.threads == 4)
        .map_or(f64::NAN, |row| row.solo_s / row.engine_s);
    let batch_rows: Vec<String> = r
        .batch
        .iter()
        .map(|row| {
            format!(
                "      {{\"threads\": {}, \"solo_seconds\": {:.6}, \"engine_seconds\": {:.6}, \
                 \"designs_per_sec\": {:.1}, \"engine_speedup\": {:.3}}}",
                row.threads,
                row.solo_s,
                row.engine_s,
                designs / row.engine_s,
                row.solo_s / row.engine_s
            )
        })
        .collect();
    let scale_rows: Vec<String> = r
        .scale
        .iter()
        .map(|row| {
            format!(
                "      {{\"cells\": {}, \"gen_seconds\": {:.3}, \"mgl_seconds\": {:.6}, \
                 \"cells_per_sec\": {:.1}, \"peak_rss_kb\": {}, \"rounds\": {}}}",
                row.cells,
                row.gen_s,
                row.mgl_s,
                row.cells_per_sec(),
                row.peak_rss_kb
                    .map_or_else(|| "null".into(), |kb| kb.to_string()),
                row.rounds
            )
        })
        .collect();
    let e = &r.eco;
    let mut entries = vec![
        "  \"bench\": \"mgl_speedup\"".to_string(),
        format!("  \"cells\": {}", r.mgl_cells),
        format!("  \"density\": {MGL_DENSITY}"),
        format!("  \"seed\": {MGL_SEED}"),
        format!("  \"window_list_capacity\": {MGL_CAPACITY}"),
        format!("  \"reps\": {}", r.reps),
        format!("  \"results\": [\n{}\n  ]", rows.join(",\n")),
        format!("  \"single_thread_speedup\": {single:.3}"),
        format!("  \"aggregate_speedup_at_4_threads\": {agg4:.3}"),
        format!("  \"new_at_4_vs_seed_at_1\": {:.3}", seed1 / new4),
        format!("  \"stage_breakdown\": {{{}}}", breakdown.join(", ")),
        format!(
            "  \"batch\": {{\"designs\": {BATCH_DESIGNS}, \"cells_per_design\": {BATCH_CELLS}, \
             \"density\": {BATCH_DENSITY}, \"engine_speedup_at_4_threads\": \
             {batch_speedup4:.3}, \"interleaved_seconds\": {:.6},\n    \"results\": [\n{}\n    \
             ]}}",
            r.interleaved_s,
            batch_rows.join(",\n")
        ),
        format!(
            "  \"scale\": {{\"threads\": {}, \"density\": {BENCH_DENSITY}, \"seed\": \
             {BENCH_SEED},\n    \
             \"results\": [\n{}\n    ]}}",
            r.scale_threads,
            scale_rows.join(",\n")
        ),
        format!(
            "  \"eco\": {{\"preset_cells\": {ECO_CELLS}, \"delta_cells\": {ECO_DELTA_CELLS}, \
             \"deltas\": {}, \"threads\": {ECO_THREADS},\n    \"p50_delta_ms\": {:.3}, \
             \"p99_delta_ms\": {:.3}, \"windows_dirty\": {}, \"cells_reused\": {},\n    \
             \"full_eco_ms\": {:.3}, \"speedup_vs_full\": {:.2}}}",
            e.deltas,
            e.p50_ms,
            e.p99_ms,
            e.windows_dirty,
            e.cells_reused,
            e.full_ms,
            e.speedup_vs_full()
        ),
    ];
    if let Some(levels) = &r.serve {
        let list =
            |f: &dyn Fn(&ServeLevel) -> String| levels.iter().map(f).collect::<Vec<_>>().join(", ");
        entries.push(format!(
            "  \"serve\": {{\"preset_cells\": {SERVE_CELLS}, \"jobs_per_level\": {SERVE_JOBS}, \
             \"threads\": {SERVE_THREADS}, \"queue_cap\": {SERVE_QUEUE_CAP},\n    \
             \"concurrency\": [{}], \"p50_ms\": [{}], \"p99_ms\": [{}],\n    \
             \"jobs_per_sec\": [{}], \"rejected\": [{}]}}",
            list(&|l| l.clients.to_string()),
            list(&|l| format!("{:.3}", l.p50_ms)),
            list(&|l| format!("{:.3}", l.p99_ms)),
            list(&|l| format!("{:.2}", l.jobs_per_sec)),
            list(&|l| l.rejected.to_string()),
        ));
    }
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// Nearest-rank quantile of a sorted, non-empty sample; `pct` in 1..=100.
fn quantile(sorted: &[u64], pct: usize) -> u64 {
    let n = sorted.len();
    let rank = (n * pct).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

fn millis(nanos: u64) -> f64 {
    count_to_float(nanos) / 1e6
}

/// Prints the MGL phase split of one run from its meter: rounds (one
/// `mgl.select` span each), windows evaluated, the stage's parallelism
/// (CPU time of the runner and its helpers over the stage's wall time),
/// each phase's share of that wall time and the insertion scratch counters.
fn print_phase_split(obs: &Meter) {
    let total = count_to_float(obs.span(SpanKind::StageMgl).total_nanos.max(1));
    let pct = |k: SpanKind| 100.0 * count_to_float(obs.span(k).total_nanos) / total;
    // From each thread's own CPU clock: the parallelism the host really
    // delivered, never above its core count.
    let cpu = obs.counter(CounterKind::MglCpuNanos);
    let par = if cpu > 0 {
        format!("x{:.2} cpu/wall", count_to_float(cpu) / total)
    } else {
        "cpu/wall n/a".to_string()
    };
    let anchors = obs.counter(CounterKind::InsertionAnchors);
    println!(
        "    rounds {}, windows {}, {par}, eval {:.0}%, select {:.1}%, apply {:.1}%, \
         fallback {:.1}%, dedup hit {:.0}%",
        obs.span(SpanKind::SchedSelect).count,
        obs.counter(CounterKind::WindowsEvaluated),
        pct(SpanKind::SchedEval),
        pct(SpanKind::SchedSelect),
        pct(SpanKind::SchedApply),
        pct(SpanKind::FallbackScan),
        100.0 * count_to_float(obs.counter(CounterKind::DedupHits))
            / count_to_float(anchors.max(1)),
    );
    println!(
        "    regions {}, anchors {anchors}, curve mins {}, expansions {}, fallback scans {}",
        obs.counter(CounterKind::AlignedRegions),
        obs.counter(CounterKind::CurveMinimizations),
        obs.counter(CounterKind::WindowsExpanded),
        obs.counter(CounterKind::FallbackScans),
    );
}

/// A dense synthetic design (the scheduler determinism tests' cell mix at a
/// bench-grade density): the core is sized so movable area / core area hits
/// `density`, which keeps windows full of neighbours — the regime where
/// insertion evaluation dominates and the hot path matters.
fn dense_design(n_cells: usize, density: f64, seed: u64) -> Design {
    // Cell mix: 80% of (20 × 1 row), 20% of (30 × 2 rows); row height 90.
    let avg_area = 0.8 * (20.0 * 90.0) + 0.2 * (30.0 * 180.0);
    let area = n_cells as f64 * avg_area / density;
    // Aspect 5:3, snapped up to whole rows / sites.
    let height = (((area * 3.0 / 5.0).sqrt() / 90.0).ceil() as Dbu) * 90;
    let width = ((area / height as f64 / 10.0).ceil() as Dbu) * 10;
    let mut d = Design::new(
        "bench",
        Technology::example(),
        Rect::new(0, 0, width, height),
    );
    d.add_cell_type(CellType::new("s", 20, 1));
    d.add_cell_type(CellType::new("d", 30, 2));
    let mut s = seed | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in 0..n_cells {
        let t = if rng() % 5 == 0 {
            CellTypeId(1)
        } else {
            CellTypeId(0)
        };
        let x = (rng() % (width as u64 - 100)) as Dbu;
        let y = (rng() % (height as u64 - 100)) as Dbu;
        d.add_cell(Cell::new(format!("c{i}"), t, Point::new(x, y)));
    }
    d
}

/// Faithful replica of the seed parallel MGL scheduler (commit f6f06c3), with the
/// seed-faithful allocating evaluator. Kept here, out of the library, so the
/// optimized crate keeps no dead baseline code.
fn seed_scheduler(
    state: &mut PlacementState<'_>,
    config: &LegalizerConfig,
    weights: &[i64],
) -> usize {
    let design = state.design();
    let threads = config.threads.max(1);
    let capacity = config.window_list_capacity.max(1);
    let mut failed = 0usize;

    let mut pending: VecDeque<(CellId, usize)> = cell_order(design, config.order)
        .into_iter()
        .filter(|&c| state.pos(c).is_none())
        .map(|c| (c, 0usize))
        .collect();
    let mut fallback_queue: Vec<CellId> = Vec::new();

    while !pending.is_empty() {
        let mut selected: Vec<(CellId, usize, Rect)> = Vec::new();
        let mut deferred: VecDeque<(CellId, usize)> = VecDeque::new();
        while let Some((cell, n)) = pending.pop_front() {
            if selected.len() >= capacity {
                deferred.push_back((cell, n));
                continue;
            }
            let win = window_for(design, cell, config, n);
            if selected.iter().any(|(_, _, w)| w.overlaps(win)) {
                deferred.push_back((cell, n));
            } else {
                selected.push((cell, n, win));
            }
        }

        let model = CostModel {
            reference: config.reference,
            normalize: config.normalize_curves,
            weights,
            oracle: None,
            io_penalty: config.io_penalty,
            rail_penalty: config.rail_penalty,
        };
        let results: Vec<Option<Insertion>> = if threads == 1 || selected.len() == 1 {
            selected
                .iter()
                .map(|&(cell, _, win)| best_insertion_reference(state, cell, win, &model))
                .collect()
        } else {
            let state_ref: &PlacementState<'_> = state;
            let model_ref = &model;
            let jobs = &selected;
            let mut out: Vec<Option<Insertion>> = Vec::new();
            std::thread::scope(|scope| {
                let chunk = jobs.len().div_ceil(threads);
                let mut handles = Vec::new();
                for t in 0..threads {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(jobs.len());
                    if lo >= hi {
                        break;
                    }
                    handles.push(scope.spawn(move || {
                        jobs[lo..hi]
                            .iter()
                            .map(|&(cell, _, win)| {
                                best_insertion_reference(state_ref, cell, win, model_ref)
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                for h in handles {
                    out.extend(h.join().expect("worker thread panicked"));
                }
            });
            out
        };

        for ((cell, n, _win), result) in selected.into_iter().zip(results) {
            match result {
                Some(ins) => apply_insertion(state, cell, &ins),
                None if n < config.max_expansions => deferred.push_front((cell, n + 1)),
                None => fallback_queue.push(cell),
            }
        }
        pending = deferred;
    }

    for cell in fallback_queue {
        match fallback_scan(state, cell, None) {
            Some(p) => state
                .place(cell, p)
                .expect("fallback position must be free"),
            None => failed += 1,
        }
    }
    failed
}

/// Every cell position of every design of one engine batch, in order.
fn batch_positions(engine: &mut Engine, designs: &[Design]) -> Vec<Option<Point>> {
    engine
        .run(designs, RunSpec::default())
        .into_iter()
        .zip(designs)
        .flat_map(|(r, d)| match r {
            Ok(out) => out.design.cells.iter().map(|c| c.pos).collect::<Vec<_>>(),
            Err(e) => {
                eprintln!("batch job `{}` failed: {e}", d.name);
                std::process::exit(1);
            }
        })
        .collect()
}

/// Every cell position of each design legalized on its own.
fn solo_positions(cfg: &LegalizerConfig, designs: &[Design]) -> Vec<Option<Point>> {
    designs
        .iter()
        .flat_map(|d| {
            let (placed, stats) = legalize(cfg, d, RunSpec::default());
            assert_eq!(stats.mgl.failed, 0, "solo run failed cells");
            placed.cells.iter().map(|c| c.pos).collect::<Vec<_>>()
        })
        .collect()
}

/// Best-of-`reps` wall-clock seconds of `f` (each rep on a fresh state).
fn time_best<F: FnMut() -> Vec<Option<Point>>>(reps: usize, mut f: F) -> (f64, Vec<Option<Point>>) {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..reps.max(1) {
        let t = Stopwatch::start();
        let p = f();
        best = best.min(t.elapsed_seconds());
        out = p;
    }
    (best, out)
}

/// The seed scheduler against the current one at each thread count, then
/// the full pipeline's stage breakdown at 4 threads.
fn mgl_section(mode: &Mode) -> (Vec<MglRow>, Vec<StageTiming>) {
    let d = dense_design(mode.mgl_cells, MGL_DENSITY, MGL_SEED);
    let mut cfg = LegalizerConfig::total_displacement();
    cfg.window_list_capacity = MGL_CAPACITY;
    let weights = compute_weights(&d, cfg.weights);
    let n = count_to_float(mode.mgl_cells as u64);

    println!(
        "# mgl — {} cells, density {:.0}%, core {}x{}, capacity {MGL_CAPACITY}, best of {}",
        mode.mgl_cells,
        100.0 * MGL_DENSITY,
        d.core.xh - d.core.xl,
        d.core.yh - d.core.yl,
        mode.reps
    );
    println!(
        "| {:>7} | {:>10} {:>12} | {:>10} {:>12} | {:>7} |",
        "threads", "seed s", "seed cell/s", "new s", "new cell/s", "speedup"
    );
    let mut rows = Vec::new();
    for threads in THREADS {
        let mut c = cfg.clone();
        c.threads = threads;
        c.stages = StageSet::of(&[Stage::Mgl]);
        let (seed_s, seed_pos) = time_best(mode.reps, || {
            let mut state = PlacementState::new(&d);
            let failed = seed_scheduler(&mut state, &c, &weights);
            assert_eq!(failed, 0, "seed scheduler failed cells");
            d.movable_cells().map(|c| state.pos(c)).collect()
        });
        let mut obs = Meter::new();
        let (new_s, new_pos) = time_best(mode.reps, || {
            let (placed, stats) = legalize(&c, &d, RunSpec::default());
            assert_eq!(stats.mgl.failed, 0, "new scheduler failed cells");
            obs = stats.obs;
            placed
                .cells
                .iter()
                .filter(|c| !c.fixed)
                .map(|c| c.pos)
                .collect()
        });
        assert_eq!(
            seed_pos, new_pos,
            "schedulers must produce bit-identical placements at {threads} threads"
        );
        println!(
            "| {threads:>7} | {seed_s:>10.3} {:>12.0} | {new_s:>10.3} {:>12.0} | {:>6.2}x |",
            n / seed_s,
            n / new_s,
            seed_s / new_s
        );
        print_phase_split(&obs);
        rows.push(MglRow {
            threads,
            seed_s,
            new_s,
        });
    }

    let mut pcfg = cfg;
    pcfg.threads = 4;
    let (_, pstats) = legalize(&pcfg, &d, RunSpec::default());
    assert_eq!(pstats.mgl.failed, 0, "pipeline failed cells");
    (rows, pstats.stage_seconds)
}

/// One shared engine against one fresh engine per design at each thread
/// count, MGL only (stages 2/3 are serial and identical in both columns,
/// so they would only dilute the ratio), then one throttled-admission run
/// (4 threads, 2 designs in flight: one helper per runner). Returns the
/// rows and the throttled run's seconds.
fn batch_section(reps: usize) -> (Vec<BatchRow>, f64) {
    let variants: Vec<Design> = (0..BATCH_DESIGNS)
        .map(|i| dense_design(BATCH_CELLS, BATCH_DENSITY, MGL_SEED + 1 + i as u64))
        .collect();
    let at = |threads: usize| {
        let mut c = LegalizerConfig::total_displacement();
        c.threads = threads;
        c.stages = StageSet::of(&[Stage::Mgl]);
        c
    };
    let designs = count_to_float(BATCH_DESIGNS as u64);
    println!(
        "\n# batch — {BATCH_DESIGNS} designs x {BATCH_CELLS} cells, engine vs sequential solo"
    );
    println!(
        "| {:>7} | {:>10} | {:>10} {:>12} | {:>7} |",
        "threads", "solo s", "engine s", "designs/sec", "speedup"
    );
    let mut rows = Vec::new();
    for threads in THREADS {
        let bc = at(threads);
        let (solo_s, solo_pos) = time_best(reps, || solo_positions(&bc, &variants));
        let (engine_s, batch_pos) = time_best(reps, || {
            batch_positions(&mut Engine::new(bc.clone()), &variants)
        });
        assert_eq!(
            solo_pos, batch_pos,
            "engine batch must match per-design runs bit-identically at {threads} threads"
        );
        println!(
            "| {threads:>7} | {solo_s:>10.3} | {engine_s:>10.3} {:>12.1} | {:>6.2}x |",
            designs / engine_s,
            solo_s / engine_s
        );
        rows.push(BatchRow {
            threads,
            solo_s,
            engine_s,
        });
    }

    let mut icfg = at(4);
    icfg.max_inflight_designs = 2;
    let (inter_s, inter_pos) = time_best(reps, || {
        batch_positions(&mut Engine::new(icfg.clone()), &variants)
    });
    assert_eq!(
        solo_positions(&at(4), &variants),
        inter_pos,
        "interleaved batch must match per-design runs bit-identically"
    );
    println!(
        "batch interleaved (4 threads, max-inflight 2): {inter_s:.3}s, {:.1} designs/sec",
        designs / inter_s
    );
    (rows, inter_s)
}

/// The MGL stage alone at each size, ascending. Returns the rows and the
/// `ECO_CELLS` design, generated here once for the `eco` section.
fn scale_section(mode: &Mode) -> (Vec<ScaleRow>, Option<Design>) {
    let threads = mode.scale_threads;
    println!(
        "\n# scale — {threads} threads, density {:.0}%",
        100.0 * BENCH_DENSITY
    );
    println!(
        "| {:>9} | {:>8} | {:>9} | {:>12} | {:>11} | {:>6} |",
        "cells", "gen s", "mgl s", "cells/sec", "peak rss kb", "rounds"
    );
    let mut rows = Vec::new();
    let mut eco_design = None;
    for &n in mode.scale_sizes {
        let t = Stopwatch::start();
        let d = bench_design(n);
        let gen_s = t.elapsed_seconds();
        let mut mgl_only = bench_config(n, threads);
        mgl_only.stages = StageSet::of(&[Stage::Mgl]);
        let (placed, run) = legalize(&mgl_only, &d, RunSpec::default());
        assert_eq!(run.mgl.failed, 0, "scale run failed cells at n={n}");
        assert!(
            placed.cells.iter().all(|c| c.pos.is_some()),
            "scale run left cells unplaced at n={n}"
        );
        // The MGL stage's own wall time: setup (weights, state) and output
        // write-back are excluded, as in a pipeline report.
        let row = ScaleRow {
            cells: n,
            gen_s,
            mgl_s: run.stage_seconds_for("mgl").unwrap_or(f64::NAN),
            peak_rss_kb: peak_rss_kb(),
            rounds: run.obs.span(SpanKind::SchedSelect).count,
        };
        print_phase_split(&run.obs);
        println!(
            "| {n:>9} | {gen_s:>8.2} | {:>9.3} | {:>12.0} | {:>11} | {:>6} |",
            row.mgl_s,
            row.cells_per_sec(),
            row.peak_rss_kb
                .map_or_else(|| "n/a".into(), |k| k.to_string()),
            row.rounds
        );
        rows.push(row);
        if n == ECO_CELLS {
            eco_design = Some(d);
        }
    }
    (rows, eco_design)
}

/// Resident-session deltas against a from-scratch ECO run on `design`.
fn eco_section(design: &Design, deltas: usize) -> EcoResult {
    println!("\n# eco — {ECO_CELLS} cells, {ECO_DELTA_CELLS}-cell deltas, {ECO_THREADS} threads");
    let cfg = bench_config(ECO_CELLS, ECO_THREADS);
    let t = Stopwatch::start();
    let (base, base_stats) = legalize(&cfg, design, RunSpec::default());
    assert_eq!(base_stats.mgl.failed, 0, "base legalization failed cells");
    println!("base legalize: {:.2}s", t.elapsed_seconds());

    // Full-run reference: one delta absorbed by a from-scratch ECO run
    // (`RunSpec::Eco`), whose post stages walk every cell.
    let moves = EcoSession::synthesize_delta(&base, ECO_DELTA_CELLS, BENCH_SEED ^ 0xf011);
    let mut candidate = base.clone();
    for &(cell, gp) in &moves {
        let c = &mut candidate.cells[cell.0 as usize];
        c.gp = gp;
        c.pos = None;
    }
    let t = Stopwatch::start();
    let (_, full_stats) = legalize(&cfg, &candidate, RunSpec::Eco);
    let full_ms = t.elapsed_seconds() * 1e3;
    assert_eq!(full_stats.mgl.failed, 0, "full ECO run failed cells");
    let stages: Vec<String> = full_stats
        .stage_seconds
        .iter()
        .map(|t| format!("{} {:.2}s", t.name, t.seconds))
        .collect();
    println!("full ECO reference: {full_ms:.2}ms ({})", stages.join(", "));

    // Resident session: same-sized deltas through the dirty-window
    // pipeline, certificate splicing included.
    let mut session = EcoSession::open(base, cfg).expect("base placement must open a session");
    let mut nanos = Vec::with_capacity(deltas);
    let (mut windows_dirty, mut cells_reused) = (0, 0);
    for round in 0..deltas {
        let moves = EcoSession::synthesize_delta(
            session.design(),
            ECO_DELTA_CELLS,
            BENCH_SEED + 1 + round as u64,
        );
        let t = Stopwatch::start();
        let (stats, _log) = session
            .apply_delta(&moves)
            .expect("session delta must succeed");
        nanos.push(t.elapsed_nanos());
        windows_dirty = stats.obs.counter(CounterKind::EcoWindowsDirty);
        cells_reused = stats.obs.counter(CounterKind::EcoCellsReused);
        println!(
            "delta {round:>2}: {:>8.2}ms  (windows dirty {windows_dirty}, cells reused \
             {cells_reused})",
            millis(nanos[round])
        );
    }
    nanos.sort_unstable();
    let stage = |name| full_stats.stage_seconds_for(name).unwrap_or(f64::NAN);
    let eco = EcoResult {
        deltas,
        p50_ms: millis(quantile(&nanos, 50)),
        p99_ms: millis(quantile(&nanos, 99)),
        windows_dirty,
        cells_reused,
        full_ms,
        maxdisp_s: stage("maxdisp"),
        fixed_order_s: stage("fixed_order"),
    };
    println!(
        "p50 {:.2}ms, p99 {:.2}ms, full {full_ms:.2}ms -> speedup_vs_full {:.1}x",
        eco.p50_ms,
        eco.p99_ms,
        eco.speedup_vs_full()
    );
    eco
}

/// One closed-loop level: `clients` threads each submit a job, wait for
/// its final line and submit the next, until `SERVE_JOBS` are spent;
/// `RETRY_AFTER` replies are honoured (sleep, retry) and counted. Returns
/// (sorted per-job nanos, send to final line; jobs/sec; rejected count).
fn run_level(addr: std::net::SocketAddr, bundle: &Path, clients: usize) -> (Vec<u64>, f64, u64) {
    let budget = AtomicUsize::new(SERVE_JOBS);
    let rejected = AtomicU64::new(0);
    let req = format!(r#"{{"op":"legalize","dir":"{}"}}"#, bundle.display());
    let claim = || {
        budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_ok()
    };

    let wall = Stopwatch::start();
    let mut nanos: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut local = Vec::new();
                    while claim() {
                        let sw = Stopwatch::start();
                        loop {
                            let ack = client
                                .request(&req)
                                .expect("send")
                                .expect("ack line before EOF");
                            let doc = parse(&ack).expect("parsable ack");
                            match doc.str_field("status") {
                                Some("OK") => break,
                                Some("RETRY_AFTER") => {
                                    rejected.fetch_add(1, Ordering::Relaxed);
                                    let ms = doc.u64_field("retry_after_ms").unwrap_or(50);
                                    std::thread::sleep(std::time::Duration::from_millis(ms));
                                }
                                other => panic!("unexpected admission status {other:?}: {ack}"),
                            }
                        }
                        let done = client.recv().expect("recv").expect("final line before EOF");
                        assert!(done.contains(r#""status":"OK""#), "job failed: {done}");
                        local.push(sw.elapsed_nanos());
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall_s = wall.elapsed_seconds();
    nanos.sort_unstable();
    let jps = count_to_float(nanos.len() as u64) / wall_s;
    (nanos, jps, rejected.load(Ordering::Relaxed))
}

/// Closed-loop clients at each concurrency level against a fresh
/// in-process daemon per level.
fn serve_section() -> Vec<ServeLevel> {
    println!(
        "\n# serve — {SERVE_CELLS} cells, {SERVE_JOBS} jobs/level, {SERVE_THREADS} engine \
         threads, queue cap {SERVE_QUEUE_CAP}"
    );
    let design = bench_design(SERVE_CELLS);
    let root = std::env::temp_dir().join(format!("mclegal_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench temp dir");
    let bundle = root.join("bundle");
    mcl_parsers::write_bookshelf_dir(&design, &bundle, &design.name).expect("write bench bundle");

    let mut levels = Vec::new();
    for clients in SERVE_LEVELS {
        let mut cfg = ServeConfig::new(bench_config(SERVE_CELLS, SERVE_THREADS));
        cfg.queue_cap = SERVE_QUEUE_CAP;
        cfg.report_dir = Some(root.join(format!("reports_{clients}")));
        cfg.journal_path = Some(root.join(format!("jobs_{clients}.journal")));
        let server = Server::start(cfg).expect("server start");
        let addr = server.local_addr();

        let (nanos, jobs_per_sec, rejected) = run_level(addr, &bundle, clients);
        let mut c = Client::connect(addr).expect("drain connect");
        c.request(r#"{"op":"drain"}"#).expect("drain send");
        server.join();

        assert_eq!(nanos.len(), SERVE_JOBS, "every job must complete");
        let level = ServeLevel {
            clients,
            p50_ms: millis(quantile(&nanos, 50)),
            p99_ms: millis(quantile(&nanos, 99)),
            jobs_per_sec,
            rejected,
        };
        println!(
            "conc {clients:>2}: p50 {:>8.2}ms  p99 {:>8.2}ms  {jobs_per_sec:>6.2} jobs/s  \
             rejected {rejected}",
            level.p50_ms, level.p99_ms
        );
        levels.push(level);
    }
    let _ = std::fs::remove_dir_all(&root);
    levels
}

fn main() {
    let mode = match std::env::args().nth(1).as_deref() {
        None => &FULL,
        Some("--smoke") => &SMOKE,
        Some(other) => {
            eprintln!("usage: perf [--smoke]  (unknown argument `{other}`)");
            std::process::exit(2);
        }
    };
    let (mgl, stage_breakdown) = mgl_section(mode);
    let (batch, interleaved_s) = batch_section(mode.reps);
    let (scale, eco_design) = scale_section(mode);
    let eco = eco_section(
        &eco_design.unwrap_or_else(|| bench_design(ECO_CELLS)),
        mode.eco_deltas,
    );
    let serve = mode.serve.then(serve_section);
    let results = Results {
        mgl_cells: mode.mgl_cells,
        reps: mode.reps,
        mgl,
        stage_breakdown,
        batch,
        interleaved_s,
        scale_threads: mode.scale_threads,
        scale,
        eco,
        serve,
    };
    std::fs::write("BENCH_mgl.json", document(&results)).expect("write BENCH_mgl.json");
    println!("\n[wrote BENCH_mgl.json]");

    let violations = gate_violations(&results);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("gate violated: {v}");
        }
        std::process::exit(1);
    }
    println!("all gates ok");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_serve::json::Json;

    /// A result that passes every gate with room to spare.
    fn passing(serve: bool) -> Results {
        Results {
            mgl_cells: 800,
            reps: 1,
            mgl: THREADS
                .iter()
                .map(|&threads| MglRow {
                    threads,
                    seed_s: 0.2,
                    new_s: 0.1,
                })
                .collect(),
            stage_breakdown: vec![
                StageTiming {
                    name: "mgl",
                    seconds: 0.1,
                },
                StageTiming {
                    name: "maxdisp",
                    seconds: 0.001,
                },
            ],
            batch: THREADS
                .iter()
                .map(|&threads| BatchRow {
                    threads,
                    solo_s: 0.02,
                    engine_s: 0.01,
                })
                .collect(),
            interleaved_s: 0.01,
            scale_threads: 2,
            scale: vec![ScaleRow {
                cells: GATE_CELLS,
                gen_s: 0.3,
                mgl_s: 2.0,
                peak_rss_kb: Some(60_000),
                rounds: 622,
            }],
            eco: EcoResult {
                deltas: 8,
                p50_ms: 100.0,
                p99_ms: 150.0,
                windows_dirty: 703,
                cells_reused: 99_315,
                full_ms: 40_000.0,
                maxdisp_s: 2.0,
                fixed_order_s: 1.5,
            },
            serve: serve.then(|| {
                SERVE_LEVELS
                    .iter()
                    .map(|&clients| ServeLevel {
                        clients,
                        p50_ms: 400.0,
                        p99_ms: 500.0,
                        jobs_per_sec: 1.2,
                        rejected: 0,
                    })
                    .collect()
            }),
        }
    }

    /// The gates a default-mode result violates after `edit`.
    fn violations_after(edit: impl FnOnce(&mut Results)) -> Vec<String> {
        let mut r = passing(true);
        edit(&mut r);
        gate_violations(&r)
    }

    /// Asserts that the gate `edit(bound ± step)` moves across trips just
    /// past the bound (`past`) and passes just inside it (`inside`).
    fn assert_gate(past: impl FnOnce(&mut Results), inside: impl FnOnce(&mut Results)) {
        let tripped = violations_after(past);
        assert_eq!(tripped.len(), 1, "{tripped:?}");
        let passed = violations_after(inside);
        assert!(passed.is_empty(), "{passed:?}");
    }

    fn top_level_keys(doc: &str) -> Vec<String> {
        match parse(doc).expect("the document is valid JSON") {
            Json::Obj(members) => members.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    const SECTIONS: [&str; 6] = [
        "results",
        "stage_breakdown",
        "batch",
        "scale",
        "eco",
        "serve",
    ];

    #[test]
    fn default_document_has_every_section() {
        let keys = top_level_keys(&document(&passing(true)));
        for key in SECTIONS {
            assert!(keys.iter().any(|k| k == key), "missing `{key}` in {keys:?}");
        }
    }

    #[test]
    fn smoke_document_has_every_section_but_serve() {
        let keys = top_level_keys(&document(&passing(false)));
        for key in &SECTIONS[..5] {
            assert!(keys.iter().any(|k| k == key), "missing `{key}` in {keys:?}");
        }
        assert!(!keys.iter().any(|k| k == "serve"), "{keys:?}");
    }

    #[test]
    fn passing_results_pass_in_both_modes() {
        assert!(gate_violations(&passing(true)).is_empty());
        assert!(gate_violations(&passing(false)).is_empty());
    }

    #[test]
    fn scale_throughput_floor() {
        let cells = count_to_float(GATE_CELLS as u64);
        assert_gate(
            |r| r.scale[0].mgl_s = cells / (MIN_CELLS_PER_SEC - 1.0),
            |r| r.scale[0].mgl_s = cells / (MIN_CELLS_PER_SEC + 1.0),
        );
    }

    #[test]
    fn scale_peak_rss_ceiling() {
        assert_gate(
            |r| r.scale[0].peak_rss_kb = Some(MAX_PEAK_RSS_KB + 1),
            |r| r.scale[0].peak_rss_kb = Some(MAX_PEAK_RSS_KB),
        );
        assert_eq!(violations_after(|r| r.scale[0].peak_rss_kb = None).len(), 1);
    }

    #[test]
    fn scale_gates_need_the_gate_row() {
        assert_eq!(violations_after(|r| r.scale[0].cells = 10_000).len(), 1);
    }

    #[test]
    fn eco_p99_ceiling() {
        assert_gate(
            |r| r.eco.p99_ms = MAX_ECO_P99_MS + 1.0,
            |r| r.eco.p99_ms = MAX_ECO_P99_MS,
        );
    }

    #[test]
    fn eco_speedup_floor() {
        assert_gate(
            |r| r.eco.full_ms = r.eco.p99_ms * MIN_ECO_SPEEDUP - 1.0,
            |r| r.eco.full_ms = r.eco.p99_ms * MIN_ECO_SPEEDUP + 1.0,
        );
    }

    #[test]
    fn eco_stage_two_ceiling() {
        assert_gate(
            |r| r.eco.maxdisp_s = MAX_MAXDISP_OVER_FIXED_ORDER * r.eco.fixed_order_s + 0.01,
            |r| r.eco.maxdisp_s = MAX_MAXDISP_OVER_FIXED_ORDER * r.eco.fixed_order_s,
        );
        assert_eq!(violations_after(|r| r.eco.maxdisp_s = f64::NAN).len(), 1);
    }

    #[test]
    fn serve_p99_ceiling() {
        let solo = |r: &mut Results, ms| {
            if let Some(levels) = r.serve.as_mut() {
                levels[0].p99_ms = ms;
            }
        };
        assert_gate(
            |r| solo(r, MAX_SERVE_P99_MS + 1.0),
            |r| solo(r, MAX_SERVE_P99_MS),
        );
        // Smoke mode runs no serve section, so it has no serve gate.
        assert!(gate_violations(&passing(false)).is_empty());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = [10, 20, 30, 40];
        assert_eq!(quantile(&s, 50), 20);
        assert_eq!(quantile(&s, 99), 40);
        assert_eq!(quantile(&[75], 99), 75);
        // Twelve samples: p99 is the largest, p50 the sixth.
        let twelve: Vec<u64> = (1..=12).collect();
        assert_eq!(quantile(&twelve, 99), 12);
        assert_eq!(quantile(&twelve, 50), 6);
    }
}
