//! # mcl-bench — experiment harness
//!
//! Shared plumbing for the table/figure reproduction binaries:
//!
//! - `table1`: ours vs the greedy champion stand-in on the 16 IC/CAD 2017
//!   presets (avg/max displacement, HPWL, pin + edge violations, score S).
//! - `table2`: ours vs MLL/Abacus/LCP on the 20 ISPD 2015 presets (total
//!   displacement, runtime).
//! - `table3`: post-processing ablation (before/after stages 2+3).
//! - `fig3`, `fig4`, `fig6`: the paper's illustrative figures.
//! - `perf`: the perf bench that writes `BENCH_mgl.json` (MGL speedup,
//!   batch, scale, ECO and serve sections; `--smoke` for the CI sizes).
//!
//! The paper bins' scale is controlled with the `MCL_SCALE` environment
//! variable (default 0.05 = 5% of the published cell counts); artifacts go
//! to `MCL_OUT` (default `results/`).

#![forbid(unsafe_code)]

use mcl_core::{Engine, LegalizeStats, LegalizerConfig, RunSpec};
use mcl_db::prelude::*;
use mcl_gen::{generate, GeneratorConfig};
use mcl_obs::clock::Stopwatch;

/// Reads the benchmark scale factor from `MCL_SCALE` (default 0.05).
pub fn scale_from_env() -> f64 {
    std::env::var("MCL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05)
}

/// Worker threads for the legalizer (`MCL_THREADS`, default: available
/// parallelism).
pub fn threads_from_env() -> usize {
    std::env::var("MCL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Output directory for artifacts (`MCL_OUT`, default `results/`); created
/// on first use.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::env::var("MCL_OUT").unwrap_or_else(|_| "results".into());
    let p = std::path::PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Runs `spec` on one design through a fresh [`Engine`], as a one-shot CLI
/// run does. Bench configurations arm no faults, so a failed run is a
/// defect: the binary reports the classed error and exits non-zero.
pub fn legalize(
    config: &LegalizerConfig,
    design: &Design,
    spec: &RunSpec,
) -> (Design, LegalizeStats) {
    match Engine::new(config.clone()).run_one(design, spec) {
        Ok(out) => (out.design, out.stats),
        Err(e) => {
            eprintln!("legalization of `{}` failed: {e}", design.name);
            std::process::exit(1);
        }
    }
}

/// Seed of [`bench_design`].
pub const BENCH_SEED: u64 = 42;
/// Movable-area density of [`bench_design`].
pub const BENCH_DENSITY: f64 = 0.45;

/// The perf bench's synthetic design at `n` cells: an 80/20 one/two-row
/// mix at 45% density, GP scatter σ = 2 rows, seed 42, no hotspots and no
/// fences. The scale, ECO and serve sections all legalize this design, so
/// their numbers line up across sections and across sizes.
pub fn bench_design(n: usize) -> Design {
    let gen = generate(&GeneratorConfig {
        name: format!("bench_{n}"),
        seed: BENCH_SEED,
        num_cells: n,
        density: BENCH_DENSITY,
        sigma_rows: 2.0,
        height_mix: [0.80, 0.20, 0.0, 0.0],
        hotspots: 0,
        fences: 0,
        fence_cell_fraction: 0.0,
        ..GeneratorConfig::default()
    });
    match gen {
        Ok(g) => g.design,
        Err(e) => {
            eprintln!("bench design at {n} cells does not pack: {e}");
            std::process::exit(1);
        }
    }
}

/// The perf bench's legalizer configuration for an `n`-cell design: the
/// total-displacement pipeline with bounded local search and a round
/// capacity that grows with the design.
///
/// - `max_expansions` 3: at million-cell scale an unbounded expansion
///   ladder lets a few infeasible multi-row cells grow their windows to
///   the whole core and pay O(n) per re-evaluation; the cap hands them to
///   the fallback scan after a city-block-sized neighbourhood instead.
/// - capacity `n / 32` (at least 64): a fixed small round capacity would
///   make the round count, not throughput, the variable under test.
///
/// The engine honors `threads` exactly, so helpers run even on a small
/// machine.
pub fn bench_config(n: usize, threads: usize) -> LegalizerConfig {
    let mut cfg = LegalizerConfig::total_displacement();
    cfg.threads = threads;
    cfg.max_expansions = 3;
    cfg.window_list_capacity = (n / 32).max(64);
    cfg
}

/// One legalizer evaluation on one benchmark.
#[derive(Debug, Clone)]
pub struct Eval {
    /// Displacement metrics.
    pub metrics: Metrics,
    /// Violation report.
    pub report: LegalityReport,
    /// Contest score (Eq. 10).
    pub score: f64,
    /// Wall-clock seconds of the legalization call.
    pub seconds: f64,
    /// The legalized design.
    pub design: Design,
}

/// Runs `f` on a design and gathers every metric the tables need.
pub fn evaluate<F>(design: &Design, f: F) -> Eval
where
    F: FnOnce(&Design) -> Design,
{
    let t = Stopwatch::start();
    let placed = f(design);
    let seconds = t.elapsed_seconds();
    let metrics = Metrics::measure(&placed);
    let report = Checker::new(&placed).check();
    let score = metrics.contest_score(&placed, &report);
    Eval {
        metrics,
        report,
        score,
        seconds,
        design: placed,
    }
}

/// Peak resident-set size of this process in kilobytes, read from the
/// `VmHWM` line of Linux `/proc/self/status`. `None` on platforms without
/// procfs (the perf bench then writes `null` and its RSS gate fails).
///
/// `VmHWM` is a process-lifetime high-water mark: within one sweep it only
/// ever grows, so run sizes in ascending order if per-size readings should
/// approximate per-size peaks.
pub fn peak_rss_kb() -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parses the `VmHWM` field (in kB) out of `/proc/<pid>/status` content.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Mean of `base[i] / ours[i]` — the "Norm. Avg." rows of the paper: the
/// `ours` column normalizes to 1.00 and a losing baseline reads above 1.
pub fn norm_avg(base: &[f64], ours: &[f64]) -> f64 {
    assert_eq!(base.len(), ours.len());
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&b, &o) in base.iter().zip(ours) {
        if o.abs() > f64::EPSILON {
            sum += b / o;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Formats a float with `p` decimals.
pub fn fnum(v: f64, p: usize) -> String {
    format!("{v:.p$}")
}

/// Writes `content` to `<out_dir>/<name>` and echoes the path.
pub fn save_artifact(name: &str, content: &str) -> std::path::PathBuf {
    let path = out_dir().join(name);
    std::fs::write(&path, content).expect("write artifact");
    println!("  [wrote {}]", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_avg_of_equal_is_one() {
        assert!((norm_avg(&[2.0, 4.0], &[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_avg_baseline_worse_is_above_one() {
        let v = norm_avg(&[3.0, 3.0], &[2.0, 2.0]);
        assert!((v - 1.5).abs() < 1e-12);
    }

    #[test]
    fn scale_default_positive() {
        assert!(scale_from_env() > 0.0);
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn vm_hwm_parses_procfs_format() {
        let sample =
            "Name:\tmclegal\nVmPeak:\t  123456 kB\nVmHWM:\t   98304 kB\nVmRSS:\t   65536 kB\n";
        assert_eq!(parse_vm_hwm_kb(sample), Some(98304));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_positive_on_linux() {
        let kb = peak_rss_kb().expect("procfs VmHWM available on Linux");
        assert!(kb > 0);
    }
}
