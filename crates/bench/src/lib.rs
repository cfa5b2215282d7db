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
//!
//! Scale is controlled with the `MCL_SCALE` environment variable
//! (default 0.05 = 5% of the published cell counts); artifacts go to
//! `MCL_OUT` (default `results/`).

#![forbid(unsafe_code)]

use mcl_core::{Engine, LegalizeStats, LegalizerConfig, RunSpec};
use mcl_db::prelude::*;
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
/// procfs (the scale sweep then omits the RSS column rather than failing).
///
/// `VmHWM` is a process-lifetime high-water mark: within one sweep it only
/// ever grows, so run sizes in ascending order if per-size readings should
/// approximate per-size peaks.
pub fn peak_rss_kb() -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parses the `VmHWM` field (in kB) out of `/proc/<pid>/status` content.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Replaces the value of the top-level `key` of a `BENCH_mgl.json`
/// document with `json`, or appends `"key": json` as its last entry when
/// the key is absent. Every other entry keeps its bytes, so the bins that
/// share the file (`scale`, `eco`, `serve`) can refresh their own entries
/// in any order. The writers share one layout: `{`, one entry per
/// top-level key starting on a line that opens with two spaces and a quote
/// (continuation lines are indented deeper), then `}`. Without a document,
/// starts one.
pub fn splice_entry(doc: Option<String>, key: &str, json: &str) -> String {
    let mut entries: Vec<String> = Vec::new();
    for line in doc.as_deref().unwrap_or("").lines() {
        match entries.last_mut() {
            _ if line.starts_with("  \"") => entries.push(line.to_owned()),
            Some(entry) if line != "}" => {
                entry.push('\n');
                entry.push_str(line);
            }
            _ => {}
        }
    }
    if entries.is_empty() {
        entries.push("  \"bench\": \"mgl_speedup\"".into());
    }
    for entry in &mut entries {
        entry.truncate(entry.trim_end().trim_end_matches(',').len());
    }
    let head = format!("  \"{key}\":");
    let spliced = format!("{head} {json}");
    match entries.iter_mut().find(|e| e.starts_with(&head)) {
        Some(entry) => *entry = spliced,
        None => entries.push(spliced),
    }
    format!("{{\n{}\n}}\n", entries.join(",\n"))
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

    const DOC: &str = "{\n  \"bench\": \"mgl_speedup\",\n  \"results\": [\n    {\"eco\": 1, \"s\": \"},\\\"eco\\\": \"}\n  ],\n  \"scale\": {\"threads\": 4,\n    \"results\": [{\"cells\": 10}]},\n  \"eco\": {\"deltas\": 12},\n  \"serve\": {\"queue_cap\": 8}\n}\n";

    #[test]
    fn splice_replaces_only_the_named_entry() {
        let out = splice_entry(Some(DOC.into()), "eco", "{\"deltas\": 8}");
        assert_eq!(out, DOC.replace("{\"deltas\": 12}", "{\"deltas\": 8}"));
        // The entry after `eco` survives.
        assert!(
            out.contains(",\n  \"serve\": {\"queue_cap\": 8}\n}\n"),
            "{out}"
        );
        let out = splice_entry(Some(DOC.into()), "scale", "{}");
        assert_eq!(
            out,
            DOC.replace(
                "{\"threads\": 4,\n    \"results\": [{\"cells\": 10}]}",
                "{}"
            )
        );
        let out = splice_entry(Some(DOC.into()), "serve", "7");
        assert!(
            out.ends_with("\"eco\": {\"deltas\": 12},\n  \"serve\": 7\n}\n"),
            "{out}"
        );
    }

    #[test]
    fn splice_appends_when_absent() {
        let doc = "{\n  \"bench\": \"mgl_speedup\",\n  \"cells\": 4000\n}\n".to_string();
        let out = splice_entry(Some(doc), "eco", "{\"deltas\": 12}");
        assert_eq!(
            out,
            "{\n  \"bench\": \"mgl_speedup\",\n  \"cells\": 4000,\n  \"eco\": {\"deltas\": 12}\n}\n"
        );
        // A key nested deeper in another entry is not the top-level one.
        let out = splice_entry(
            Some(DOC.replace(",\n  \"eco\": {\"deltas\": 12}", "")),
            "eco",
            "2",
        );
        assert!(out.contains("{\"eco\": 1, "), "{out}");
        assert!(
            out.ends_with("\"serve\": {\"queue_cap\": 8},\n  \"eco\": 2\n}\n"),
            "{out}"
        );
    }

    #[test]
    fn splice_creates_document_when_missing() {
        for doc in [None, Some(String::new()), Some("{}".into())] {
            let out = splice_entry(doc, "serve", "{}");
            assert_eq!(
                out,
                "{\n  \"bench\": \"mgl_speedup\",\n  \"serve\": {}\n}\n"
            );
        }
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
