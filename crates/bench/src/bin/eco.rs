//! ECO delta-latency bench — resident-session deltas vs a full ECO run.
//!
//! Generates a 100k-cell mcl-gen benchmark, legalizes a base placement with
//! the full pipeline, then measures two ways of absorbing a small delta
//! (default 64 re-targeted cells):
//!
//! - **full**: a from-scratch ECO run (`RunSpec::eco`) on the mutated
//!   candidate with `eco_delta` off — every post stage walks the whole
//!   design;
//! - **delta**: a resident [`EcoSession`] pushing the same-sized deltas
//!   through the dirty-window pipeline, including certificate splicing.
//!
//! Per-delta wall times are reduced to p50/p99 and an `eco` entry —
//! `p50_delta_ms`, `p99_delta_ms`, `windows_dirty`, `speedup_vs_full` — is
//! spliced into `BENCH_mgl.json` next to the speedup/scale sections, so the
//! interactive-latency trajectory is tracked per PR.
//!
//! Knobs: `MCL_ECO_CELLS` (default 100000), `MCL_ECO_DELTA` (cells per
//! delta, default 64), `MCL_ECO_DELTAS` (deltas pushed through the session,
//! default 12), `MCL_ECO_THREADS` (default 4), `MCL_ECO_SEED`,
//! `MCL_ECO_DENSITY_PCT` (default 45).
//!
//! CI gates: `MCL_ECO_MAX_P99_MS` (ceiling on the delta p99) and
//! `MCL_ECO_MIN_SPEEDUP` (floor on `speedup_vs_full`) make the binary exit
//! non-zero on regression, so the `eco-smoke` job needs no JSON
//! post-processing. One gate is always on: the full reference's `maxdisp`
//! stage may take at most [`MAX_MAXDISP_OVER_FIXED_ORDER`] times its
//! `fixed_order` stage.

use mcl_bench::{legalize, splice_entry};
use mcl_core::config::LegalizerConfig;
use mcl_core::{EcoSession, RunSpec};
use mcl_gen::{generate, GeneratorConfig};
use mcl_obs::clock::Stopwatch;
use mcl_obs::CounterKind;

/// A slower stage 2 slows only the full reference, which raises
/// `speedup_vs_full`, so the speedup floor cannot catch it; the ratio of
/// two stages of one run does not depend on machine speed. About 60 when
/// stage 2 ran successive shortest paths, about 1 on the network simplex.
const MAX_MAXDISP_OVER_FIXED_ORDER: f64 = 4.0;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

/// The bench's legalizer configuration: the scale sweep's bounded local
/// search on top of the total-displacement pipeline, so the full-run
/// reference is the same configuration a production 100k run would use.
fn eco_config(n: usize, threads: usize) -> LegalizerConfig {
    let mut cfg = LegalizerConfig::total_displacement();
    cfg.threads = threads;
    cfg.clamp_threads_to_hardware = false;
    cfg.max_expansions = env_usize("MCL_ECO_MAX_EXPANSIONS", 3);
    cfg.window_list_capacity = (n / 32).max(64);
    cfg
}

/// Index of the `q`-quantile in a sorted sample of `n` (nearest-rank).
fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let n = env_usize("MCL_ECO_CELLS", 100_000);
    let delta_cells = env_usize("MCL_ECO_DELTA", 64);
    let deltas = env_usize("MCL_ECO_DELTAS", 12);
    let threads = env_usize("MCL_ECO_THREADS", 4);
    let seed = env_usize("MCL_ECO_SEED", 42) as u64;
    let density = env_usize("MCL_ECO_DENSITY_PCT", 45) as f64 / 100.0;
    let max_p99 = env_f64("MCL_ECO_MAX_P99_MS");
    let min_speedup = env_f64("MCL_ECO_MIN_SPEEDUP");

    println!(
        "# ECO delta bench — {n} cells, {delta_cells}-cell deltas, {threads} threads, \
         density {:.0}%",
        100.0 * density
    );

    let defaults = GeneratorConfig::default();
    let gen = generate(&GeneratorConfig {
        name: format!("eco_{n}"),
        seed,
        num_cells: n,
        density,
        sigma_rows: 2.0,
        height_mix: [0.80, 0.20, 0.0, 0.0],
        hotspots: 0,
        fences: 0,
        fence_cell_fraction: 0.0,
        ..defaults
    })
    .expect("eco benchmark must pack");

    let cfg = eco_config(n, threads);
    let t = Stopwatch::start();
    let (base, base_stats) = legalize(&cfg, &gen.design, &RunSpec::default());
    assert_eq!(base_stats.mgl.failed, 0, "base legalization failed cells");
    println!("base legalize: {:.2}s", t.elapsed_seconds());

    // Full-run reference: the same delta absorbed by a from-scratch
    // ECO run (eco_delta off) — post stages walk all `n` cells.
    let moves = EcoSession::synthesize_delta(&base, delta_cells, seed ^ 0xf011);
    let mut candidate = base.clone();
    for &(cell, gp) in &moves {
        let c = &mut candidate.cells[cell.0 as usize];
        c.gp = gp;
        c.pos = None;
    }
    let t = Stopwatch::start();
    let (_full_out, full_stats) = legalize(&cfg, &candidate, &RunSpec::eco());
    let full_ms = t.elapsed_seconds() * 1e3;
    assert_eq!(full_stats.mgl.failed, 0, "full ECO run failed cells");
    let stages: Vec<String> = full_stats
        .stage_seconds
        .iter()
        .map(|t| format!("{} {:.2}s", t.name, t.seconds))
        .collect();
    println!("full ECO reference: {full_ms:.2}ms ({})", stages.join(", "));

    // Resident session: the same-sized deltas through the dirty-window
    // pipeline, certificate splicing included.
    let mut session = EcoSession::open(base, cfg).expect("base placement must open a session");
    let mut delta_ms = Vec::with_capacity(deltas);
    let mut windows_dirty = 0u64;
    let mut cells_reused = 0u64;
    for round in 0..deltas {
        let moves =
            EcoSession::synthesize_delta(session.design(), delta_cells, seed + 1 + round as u64);
        let t = Stopwatch::start();
        let (stats, _log) = session
            .apply_delta(&moves)
            .expect("session delta must succeed");
        let ms = t.elapsed_seconds() * 1e3;
        windows_dirty = stats.obs.counter(CounterKind::EcoWindowsDirty);
        cells_reused = stats.obs.counter(CounterKind::EcoCellsReused);
        println!(
            "delta {round:>2}: {ms:>8.2}ms  (windows dirty {windows_dirty}, cells reused \
             {cells_reused})"
        );
        delta_ms.push(ms);
    }
    delta_ms.sort_by(|a, b| a.total_cmp(b));
    let p50 = quantile_ms(&delta_ms, 0.50);
    let p99 = quantile_ms(&delta_ms, 0.99);
    let speedup = full_ms / p99;
    println!(
        "p50 {p50:.2}ms, p99 {p99:.2}ms, full {full_ms:.2}ms -> speedup_vs_full {speedup:.1}x"
    );

    let eco_json = format!(
        "{{\"preset_cells\": {n}, \"delta_cells\": {delta_cells}, \"deltas\": {deltas}, \
         \"threads\": {threads},\n    \"p50_delta_ms\": {p50:.3}, \"p99_delta_ms\": {p99:.3}, \
         \"windows_dirty\": {windows_dirty}, \"cells_reused\": {cells_reused},\n    \
         \"full_eco_ms\": {full_ms:.3}, \"speedup_vs_full\": {speedup:.2}}}"
    );
    let doc = splice_entry(
        std::fs::read_to_string("BENCH_mgl.json").ok(),
        "eco",
        &eco_json,
    );
    std::fs::write("BENCH_mgl.json", doc).expect("write BENCH_mgl.json");
    println!("[wrote BENCH_mgl.json eco entry]");

    let stage = |name| full_stats.stage_seconds_for(name).unwrap_or(f64::NAN);
    let (maxdisp_s, fixed_order_s) = (stage("maxdisp"), stage("fixed_order"));
    assert!(
        maxdisp_s <= MAX_MAXDISP_OVER_FIXED_ORDER * fixed_order_s,
        "stage-2 gate violated: full reference maxdisp {maxdisp_s:.2}s > \
         {MAX_MAXDISP_OVER_FIXED_ORDER}x fixed_order {fixed_order_s:.2}s"
    );
    println!(
        "stage-2 ok: maxdisp {maxdisp_s:.2}s <= {MAX_MAXDISP_OVER_FIXED_ORDER}x fixed_order \
         {fixed_order_s:.2}s"
    );
    if let Some(ceiling) = max_p99 {
        assert!(
            p99 <= ceiling,
            "delta-latency ceiling violated: p99 {p99:.2}ms > {ceiling}ms"
        );
        println!("p99 ok: {p99:.2} <= {ceiling}ms");
    }
    if let Some(floor) = min_speedup {
        assert!(
            speedup >= floor,
            "speedup floor violated: {speedup:.1}x < {floor}x vs full ECO run"
        );
        println!("speedup ok: {speedup:.1} >= {floor}x");
    }
}

#[cfg(test)]
mod tests {
    use super::quantile_ms;

    #[test]
    fn nearest_rank_quantiles() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_ms(&s, 0.50), 2.0);
        assert_eq!(quantile_ms(&s, 0.99), 4.0);
        assert_eq!(quantile_ms(&[7.5], 0.99), 7.5);
    }
}
