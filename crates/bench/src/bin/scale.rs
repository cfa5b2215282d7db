//! MGL scale sweep — throughput and peak memory at 10k/100k/1M cells.
//!
//! Generates mcl-gen benchmarks at each requested size (ascending, so the
//! process-lifetime `VmHWM` high-water mark approximates a per-size peak),
//! runs the MGL stage alone through `Engine::run`, and
//! splices a `scale` entry — `cells_per_sec` and `peak_rss_kb` per size —
//! into `BENCH_mgl.json` next to the speedup bench's sections, so the
//! scaling trajectory is tracked per PR alongside the 4k-cell numbers.
//!
//! Knobs: `MCL_SCALE_SIZES` (comma-separated cell counts, default
//! `10000,100000,1000000`), `MCL_SCALE_THREADS` (default 4),
//! `MCL_SCALE_SEED`, `MCL_SCALE_DENSITY_PCT` (default 45).
//!
//! CI gates: `MCL_SCALE_FLOOR_CPS` (minimum cells/sec, checked on the
//! largest size) and `MCL_SCALE_MAX_RSS_KB` (ceiling on the final peak
//! RSS) make the binary exit non-zero on regression, so the `scale-smoke`
//! job needs no JSON post-processing.

use mcl_bench::{legalize, parse_vm_hwm_kb, peak_rss_kb, splice_entry};
use mcl_core::config::LegalizerConfig;
use mcl_core::pipeline::MglStage;
use mcl_core::RunSpec;
use mcl_gen::{generate, GeneratorConfig};
use mcl_obs::clock::Stopwatch;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

/// The sweep's generator configuration at `n` cells: the same 80/20
/// single/double-row mix and 45% density as the 4k-cell speedup bench, so
/// `cells_per_sec` across sizes is an apples-to-apples scaling curve
/// against the 4k reference rate. `MCL_SCALE_MIX` opts into heavier
/// multi-row mixes (e.g. `0.82,0.10,0.05,0.03`) for stress runs.
fn scale_config(n: usize, seed: u64, density: f64) -> GeneratorConfig {
    let sigma_rows = std::env::var("MCL_SCALE_SIGMA")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    let height_mix = std::env::var("MCL_SCALE_MIX")
        .ok()
        .and_then(|s| {
            let v: Vec<f64> = s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
            <[f64; 4]>::try_from(v).ok()
        })
        .unwrap_or([0.80, 0.20, 0.0, 0.0]);
    let defaults = GeneratorConfig::default();
    GeneratorConfig {
        name: format!("scale_{n}"),
        seed,
        num_cells: n,
        density,
        sigma_rows,
        height_mix,
        hotspots: 0,
        fences: 0,
        fence_cell_fraction: 0.0,
        edge_classes: env_usize("MCL_SCALE_EDGE_CLASSES", defaults.edge_classes),
        rails: env_usize("MCL_SCALE_RAILS", 1) != 0,
        ..defaults
    }
}

fn main() {
    let sizes: Vec<usize> = std::env::var("MCL_SCALE_SIZES")
        .unwrap_or_else(|_| "10000,100000,1000000".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    assert!(!sizes.is_empty(), "MCL_SCALE_SIZES parsed to no sizes");
    let threads = env_usize("MCL_SCALE_THREADS", 4);
    let seed = env_usize("MCL_SCALE_SEED", 42) as u64;
    let density = env_usize("MCL_SCALE_DENSITY_PCT", 45) as f64 / 100.0;
    let floor_cps = env_u64("MCL_SCALE_FLOOR_CPS");
    let max_rss = env_u64("MCL_SCALE_MAX_RSS_KB");

    println!(
        "# MGL scale sweep — {threads} threads, density {:.0}%",
        100.0 * density
    );
    println!(
        "| {:>9} | {:>8} | {:>9} | {:>12} | {:>11} | {:>6} |",
        "cells", "gen s", "mgl s", "cells/sec", "peak rss kb", "rounds"
    );

    let mut rows = String::new();
    let mut last_cps = 0.0f64;
    for &n in &sizes {
        let tg = Stopwatch::start();
        let gen = generate(&scale_config(n, seed, density)).expect("scale benchmark must pack");
        let gen_s = tg.elapsed_seconds();
        let d = &gen.design;

        let mut cfg = LegalizerConfig::total_displacement();
        cfg.threads = threads;
        cfg.clamp_threads_to_hardware = false;
        // Bounded local search: at million-cell scale an unbounded geometric
        // expansion lets a handful of infeasible multi-row cells grow their
        // windows to the full core and pay O(n) per re-evaluation; capping
        // the expansion ladder hands them to the global fallback scan after
        // a city-block-sized neighborhood instead.
        cfg.max_expansions = env_usize("MCL_SCALE_MAX_EXPANSIONS", 3);
        // Round capacity scales with the design: a fixed small L_p would
        // make round count — not throughput — the variable under test.
        cfg.window_list_capacity = (n / 32).max(64);

        let (placed, run) = legalize(&cfg, d, &RunSpec::stages(&[&MglStage]));
        // The MGL stage's own wall time: setup (weights, state, pool spawn)
        // and output write-back are excluded, as in a pipeline report.
        let mgl_s = run.stage_seconds_for("mgl").unwrap_or(f64::NAN);
        let stats = run.mgl;
        assert_eq!(
            stats.failed, 0,
            "scale run failed {} cells at n={n}",
            stats.failed
        );
        assert!(
            placed.cells.iter().all(|c| c.pos.is_some()),
            "scale run left cells unplaced at n={n}"
        );

        let cps = n as f64 / mgl_s;
        last_cps = cps;
        let rss = peak_rss_kb();
        let perf = &stats.perf;
        let pct = |nn: u64| 100.0 * nn as f64 / perf.total_nanos.max(1) as f64;
        println!(
            "    windows {}, eval {:.0}% (x{:.2} par), select {:.1}%, apply {:.1}%, \
             fallback {:.1}%, dedup hit {:.0}%",
            perf.windows_evaluated,
            pct(perf.eval_nanos),
            perf.eval_parallelism(),
            pct(perf.select_nanos),
            pct(perf.apply_nanos),
            pct(perf.fallback_nanos),
            100.0 * perf.dedup_hit_rate(),
        );
        println!(
            "    regions {}, anchors {}, curve mins {}, expansions {}, fallbacks {}",
            perf.scratch.regions,
            perf.scratch.anchors,
            perf.scratch.curve_mins,
            stats.expansions,
            stats.fallbacks
        );
        println!(
            "| {:>9} | {:>8.2} | {:>9.3} | {:>12.0} | {:>11} | {:>6} |",
            n,
            gen_s,
            mgl_s,
            cps,
            rss.map_or_else(|| "n/a".into(), |k| k.to_string()),
            stats.perf.rounds
        );
        rows.push_str(&format!(
            "      {{\"cells\": {n}, \"gen_seconds\": {gen_s:.3}, \"mgl_seconds\": {mgl_s:.6}, \
             \"cells_per_sec\": {cps:.1}, \"peak_rss_kb\": {rss}, \"rounds\": {rounds}}},\n",
            rss = rss.map_or_else(|| "null".into(), |k| k.to_string()),
            rounds = stats.perf.rounds,
        ));
    }
    let rows = rows.trim_end_matches(",\n").to_string();

    let scale_json = format!(
        "{{\"threads\": {threads}, \"density\": {density}, \"seed\": {seed},\n    \"results\": [\n{rows}\n    ]}}"
    );
    let doc = splice_entry(
        std::fs::read_to_string("BENCH_mgl.json").ok(),
        "scale",
        &scale_json,
    );
    std::fs::write("BENCH_mgl.json", doc).expect("write BENCH_mgl.json");
    println!("[wrote BENCH_mgl.json scale entry]");

    if let Some(floor) = floor_cps {
        assert!(
            last_cps >= floor as f64,
            "throughput floor violated: {last_cps:.0} cells/sec < {floor} on the largest size"
        );
        println!("floor ok: {last_cps:.0} >= {floor} cells/sec");
    }
    if let Some(ceiling) = max_rss {
        let rss = peak_rss_kb().expect("RSS ceiling requires procfs");
        assert!(
            rss <= ceiling,
            "peak RSS ceiling violated: {rss} kB > {ceiling} kB"
        );
        println!("rss ok: {rss} <= {ceiling} kB");
    }
    // Keep the parser honest even when /proc is absent.
    let _ = parse_vm_hwm_kb("VmHWM: 1 kB");
}
