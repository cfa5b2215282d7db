//! MGL throughput benchmark — seed scheduler vs the current one.
//!
//! Replays the *seed* parallel scheduler (per-round `std::thread::scope`
//! with static slice chunking, O(|pending| × |selected|) window selection,
//! and the allocating reference insertion evaluator) against the current
//! MGL stage run through `Engine::run` (per-stage helper threads, row-band
//! window index, scratch-arena evaluator) on a dense synthetic design, at
//! 1/2/4/8
//! threads, and writes the cells-per-second numbers to `BENCH_mgl.json`
//! in the current directory so the perf trajectory is tracked per PR.
//!
//! Both schedulers are bit-identical in output (asserted below), so the
//! comparison is pure throughput. Knobs: `MCL_BENCH_CELLS` (default 3000),
//! `MCL_BENCH_REPS` (default 2, best-of), `MCL_BENCH_SEED`.
//!
//! Pass `--report` to additionally run the full three-stage pipeline on
//! the bench design and print the structured run-report summary
//! (DESIGN.md §9); the per-stage wall-time breakdown of that run is
//! always written to `BENCH_mgl.json` under `stage_breakdown`.
//!
//! A batch-throughput comparison (`MCL_BENCH_BATCH` small sparse design
//! variants, default 16 × `MCL_BENCH_BATCH_CELLS` (40) cells at
//! `MCL_BENCH_BATCH_DENSITY_PCT` (25), through one shared `Engine`'s
//! batch scheduler vs one fresh single-design engine per design,
//! at 1/2/4/8 threads) is written under `batch`, with `designs_per_sec`
//! and `engine_speedup` per thread count plus one throttled-admission run
//! that gives each runner a helper. Outputs are asserted
//! bit-identical per thread count, so every ratio is pure scheduling.

use mcl_bench::legalize;
use mcl_core::config::LegalizerConfig;
use mcl_core::insertion::{CostModel, Insertion};
use mcl_core::insertion_reference::best_insertion_reference;
use mcl_core::mgl::{apply_insertion, cell_order, compute_weights, fallback_scan, window_for};
use mcl_core::pipeline::MglStage;
use mcl_core::{build_run_report, Engine, PlacementState, RunSpec};
use mcl_db::prelude::*;
use mcl_obs::clock::Stopwatch;
use std::collections::VecDeque;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
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

fn positions(d: &Design, state: &PlacementState<'_>) -> Vec<Option<Point>> {
    d.movable_cells().map(|c| state.pos(c)).collect()
}

/// Every cell position of every design of one engine batch, in order.
fn batch_positions(engine: &mut Engine, designs: &[Design], spec: &RunSpec) -> Vec<Option<Point>> {
    engine
        .run(designs, spec)
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

/// Best-of-`reps` wall-clock seconds of `f` (each rep on a fresh state).
fn time_best<F: FnMut() -> Vec<Option<Point>>>(reps: usize, mut f: F) -> (f64, Vec<Option<Point>>) {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..reps.max(1) {
        let t = Stopwatch::start();
        let p = f();
        let s = t.elapsed_seconds();
        if s < best {
            best = s;
        }
        out = p;
    }
    (best, out)
}

fn main() {
    let want_report = std::env::args().any(|a| a == "--report");
    let n_cells = env_usize("MCL_BENCH_CELLS", 4000);
    let reps = env_usize("MCL_BENCH_REPS", 3);
    let seed = env_usize("MCL_BENCH_SEED", 1234) as u64;
    let density = env_usize("MCL_BENCH_DENSITY_PCT", 45) as f64 / 100.0;
    let d = dense_design(n_cells, density, seed);
    let mut cfg = LegalizerConfig::total_displacement();
    cfg.window_list_capacity = 64;
    let weights = compute_weights(&d, cfg.weights);
    let mgl_only = RunSpec::stages(&[&MglStage]);

    println!(
        "# MGL speedup bench — {} cells, density {:.0}%, core {}x{}, capacity {}, best of {}",
        n_cells,
        100.0 * density,
        d.core.xh - d.core.xl,
        d.core.yh - d.core.yl,
        cfg.window_list_capacity,
        reps
    );
    println!(
        "| {:>7} | {:>10} {:>12} | {:>10} {:>12} | {:>7} |",
        "threads", "seed s", "seed cell/s", "new s", "new cell/s", "speedup"
    );

    let mut rows = String::new();
    let mut seed1 = f64::NAN;
    let mut single_speedup = f64::NAN;
    let mut agg4 = f64::NAN;
    let mut new4 = f64::NAN;
    for &threads in &[1usize, 2, 4, 8] {
        let mut c = cfg.clone();
        c.threads = threads;

        let (seed_s, seed_pos) = time_best(reps, || {
            let mut state = PlacementState::new(&d);
            let failed = seed_scheduler(&mut state, &c, &weights);
            assert_eq!(failed, 0, "seed scheduler failed cells");
            positions(&d, &state)
        });
        let mut perf = mcl_core::perf::PerfStats::default();
        let (new_s, new_pos) = time_best(reps, || {
            let (placed, stats) = legalize(&c, &d, &mgl_only);
            assert_eq!(stats.mgl.failed, 0, "new scheduler failed cells");
            perf = stats.mgl.perf;
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

        let speedup = seed_s / new_s;
        if threads == 1 {
            seed1 = seed_s;
            single_speedup = speedup;
        }
        if threads == 4 {
            agg4 = speedup;
            new4 = new_s;
        }
        println!(
            "| {:>7} | {:>10.3} {:>12.0} | {:>10.3} {:>12.0} | {:>6.2}x |",
            threads,
            seed_s,
            n_cells as f64 / seed_s,
            new_s,
            n_cells as f64 / new_s,
            speedup
        );
        let pct = |n: u64| 100.0 * n as f64 / perf.total_nanos.max(1) as f64;
        println!(
            "          rounds {}, windows {}, eval {:.0}% (x{:.2} par), select {:.1}%, \
             apply {:.1}%, fallback {:.1}%, dedup hit {:.0}%",
            perf.rounds,
            perf.windows_evaluated,
            pct(perf.eval_nanos),
            perf.eval_parallelism(),
            pct(perf.select_nanos),
            pct(perf.apply_nanos),
            pct(perf.fallback_nanos),
            100.0 * perf.dedup_hit_rate(),
        );
        rows.push_str(&format!(
            "    {{\"threads\": {}, \"seed_seconds\": {:.6}, \"new_seconds\": {:.6}, \
             \"seed_cells_per_sec\": {:.1}, \"new_cells_per_sec\": {:.1}, \
             \"speedup_vs_seed\": {:.3}}},\n",
            threads,
            seed_s,
            new_s,
            n_cells as f64 / seed_s,
            n_cells as f64 / new_s,
            speedup
        ));
    }
    let rows = rows.trim_end_matches(",\n").to_string();

    println!(
        "\nsingle-thread speedup {single_speedup:.2}x, aggregate speedup at 4 threads \
         (seed@4 / new@4) {agg4:.2}x, new@4 vs seed@1 {:.2}x",
        seed1 / new4
    );

    // Full three-stage pipeline at 4 threads on the same design: the
    // per-stage wall-time breakdown feeds `stage_breakdown` below, and
    // `--report` prints the whole structured run report.
    let mut pcfg = cfg.clone();
    pcfg.threads = 4;
    pcfg.clamp_threads_to_hardware = false;
    let (placed, pstats) = legalize(&pcfg, &d, &RunSpec::default());
    assert_eq!(pstats.mgl.failed, 0, "pipeline failed cells");
    let report = build_run_report(&placed, &pstats, &pcfg);
    if want_report {
        println!("\n{}", report.summary());
    }
    let breakdown: String = report
        .stage_seconds
        .iter()
        .map(|s| format!("\"{}\": {:.6}", s.name, s.seconds))
        .collect::<Vec<_>>()
        .join(", ");

    // Batch throughput: `MCL_BENCH_BATCH` design variants through one
    // shared Engine (batch scheduler, DESIGN.md §12) vs one fresh
    // single-design engine per design, at each thread count.
    // Bit-identity between the two is asserted per thread count, so the
    // ratio is pure scheduling: the batch runs designs side by side on
    // runner threads instead of one at a time on a runner and its helpers.
    // The batch workload is many small, sparse designs — the regime batch
    // scheduling exists for: per-design runtime is short, so the solo
    // column's fixed costs (helper spawns, round hand-offs, scratch
    // construction) are a large fraction of each run. Density is a separate knob from the main
    // sweep's because the two sections measure different things.
    let batch_n = env_usize("MCL_BENCH_BATCH", 16);
    let batch_cells = env_usize("MCL_BENCH_BATCH_CELLS", 40);
    let batch_density_pct = env_usize("MCL_BENCH_BATCH_DENSITY_PCT", 25) as Dbu;
    let batch_density = mcl_db::geom::dbu_to_f64(batch_density_pct) / 100.0;
    let variants: Vec<Design> = (0..batch_n)
        .map(|i| dense_design(batch_cells, batch_density, seed.wrapping_add(1 + i as u64)))
        .collect();
    // MGL-only (`mgl_only`), production window-list capacity: the batch
    // scheduler moves MGL rounds between threads; stages 2/3 are serial and
    // identical in both columns, so including them would only dilute the
    // measured ratio (the main sweep above is MGL-only for the same reason).
    let batch_cfg = {
        let mut c = LegalizerConfig::total_displacement();
        c.clamp_threads_to_hardware = false;
        c
    };
    println!("\n# batch — {batch_n} designs x {batch_cells} cells, engine vs sequential solo");
    println!(
        "| {:>7} | {:>10} | {:>10} {:>12} | {:>7} |",
        "threads", "solo s", "engine s", "designs/sec", "speedup"
    );
    let mut batch_rows = String::new();
    let mut batch_speedup4 = f64::NAN;
    for &threads in &[1usize, 2, 4, 8] {
        let mut bc = batch_cfg.clone();
        bc.threads = threads;
        let (solo_s, solo_pos) = time_best(reps, || {
            variants
                .iter()
                .flat_map(|d| {
                    let (placed, stats) = legalize(&bc, d, &mgl_only);
                    assert_eq!(stats.mgl.failed, 0, "solo run failed cells");
                    placed.cells.iter().map(|c| c.pos).collect::<Vec<_>>()
                })
                .collect()
        });
        let (batch_s, batch_pos) = time_best(reps, || {
            let mut engine = Engine::new(bc.clone());
            batch_positions(&mut engine, &variants, &mgl_only)
        });
        assert_eq!(
            solo_pos, batch_pos,
            "engine batch must match per-design runs bit-identically at {threads} threads"
        );
        let n_dbu = batch_n as Dbu;
        let designs_per_sec = mcl_db::geom::dbu_to_f64(n_dbu) / batch_s;
        let batch_speedup = solo_s / batch_s;
        if threads == 4 {
            batch_speedup4 = batch_speedup;
        }
        println!(
            "| {threads:>7} | {solo_s:>10.3} | {batch_s:>10.3} {designs_per_sec:>12.1} | {batch_speedup:>6.2}x |"
        );
        batch_rows.push_str(&format!(
            "      {{\"threads\": {threads}, \"solo_seconds\": {solo_s:.6}, \
             \"engine_seconds\": {batch_s:.6}, \"designs_per_sec\": {designs_per_sec:.1}, \
             \"engine_speedup\": {batch_speedup:.3}}},\n"
        ));
    }
    let batch_rows = batch_rows.trim_end_matches(",\n").to_string();

    // Throttled admission (4 threads, 2 designs in flight): each runner
    // gets one helper. Still bit-identical.
    let mut icfg = batch_cfg.clone();
    icfg.threads = 4;
    icfg.max_inflight_designs = 2;
    let (inter_s, inter_pos) = time_best(reps, || {
        let mut engine = Engine::new(icfg.clone());
        batch_positions(&mut engine, &variants, &mgl_only)
    });
    {
        let mut bc = batch_cfg.clone();
        bc.threads = 4;
        let solo_pos: Vec<Option<Point>> = variants
            .iter()
            .flat_map(|d| {
                legalize(&bc, d, &mgl_only)
                    .0
                    .cells
                    .iter()
                    .map(|c| c.pos)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(
            solo_pos, inter_pos,
            "interleaved batch must match per-design runs bit-identically"
        );
    }
    let inter_n = batch_n as Dbu;
    let inter_rate = mcl_db::geom::dbu_to_f64(inter_n) / inter_s;
    println!(
        "batch interleaved (4 threads, max-inflight 2): {inter_s:.3}s, \
         {inter_rate:.1} designs/sec"
    );

    let json =
        format!
    (
        "{{\n  \"bench\": \"mgl_speedup\",\n  \"cells\": {n_cells},\n  \"density\": {density},\n  \
         \"seed\": {seed},\n  \
         \"window_list_capacity\": {cap},\n  \"reps\": {reps},\n  \"results\": [\n{rows}\n  ],\n  \
         \"single_thread_speedup\": {single_speedup:.3},\n  \
         \"aggregate_speedup_at_4_threads\": {agg4:.3},\n  \
         \"new_at_4_vs_seed_at_1\": {cross:.3},\n  \
         \"stage_breakdown\": {{{breakdown}}},\n  \
         \"batch\": {{\"designs\": {batch_n}, \"cells_per_design\": {batch_cells}, \
         \"density\": {batch_density}, \
         \"engine_speedup_at_4_threads\": {batch_speedup4:.3}, \
         \"interleaved_seconds\": {inter_s:.6},\n    \
         \"results\": [\n{batch_rows}\n    ]}}\n}}\n",
        cross = seed1 / new4,
        cap = cfg.window_list_capacity,
    );
    std::fs::write("BENCH_mgl.json", &json).expect("write BENCH_mgl.json");
    println!("[wrote BENCH_mgl.json]");
}
