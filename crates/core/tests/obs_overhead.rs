//! Observability overhead guard (`#[ignore]` by default — run in the CI
//! audit-suite job or locally with `cargo test -q -p mcl-core --test
//! obs_overhead -- --ignored`).
//!
//! Legalizes a medium generated design with recording toggled off and on
//! (same binary, so the comparison isolates the runtime cost of the
//! recording calls, not the compile-time gate) and requires the recorded
//! run to stay within the 2% budget promised by DESIGN.md §9.

use mcl_core::{Engine, LegalizerConfig, RunSpec};
use mcl_gen::generate;
use mcl_gen::presets::{iccad17_config, ICCAD17};
use mcl_obs::clock::Stopwatch;

fn medium_design() -> mcl_db::prelude::Design {
    // A mid-size contest profile scaled down to a few thousand cells:
    // large enough that per-insertion span recording dominates fixed
    // costs, small enough to run twice in a CI job.
    let mut cfg = iccad17_config(&ICCAD17[4], 0.05);
    cfg.name = "obs_overhead".into();
    cfg.seed = 7;
    generate(&cfg).expect("preset generates").design
}

fn run_once(design: &mcl_db::prelude::Design) -> f64 {
    let mut lc = LegalizerConfig::contest();
    lc.threads = 4;
    let sw = Stopwatch::start();
    let out = Engine::new(lc)
        .run_one(design, RunSpec::default())
        .expect("fault-free run");
    let secs = sw.elapsed_seconds();
    assert_eq!(out.stats.mgl.failed, 0);
    secs
}

#[test]
#[ignore = "timing-sensitive; run in the audit-suite CI job"]
fn recording_overhead_within_two_percent() {
    if !mcl_obs::compiled() {
        eprintln!("obs feature off; overhead guard is vacuous");
        return;
    }
    let design = medium_design();
    // Warm up caches and the helper path once.
    run_once(&design);

    // Interleave off/on pairs and keep the per-mode minimum: minima are
    // far more robust to scheduler noise than means on shared CI runners.
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..5 {
        mcl_obs::set_recording(false);
        best_off = best_off.min(run_once(&design));
        mcl_obs::set_recording(true);
        best_on = best_on.min(run_once(&design));
    }
    mcl_obs::set_recording(true);

    let overhead = best_on / best_off - 1.0;
    eprintln!(
        "obs overhead: off={best_off:.4}s on={best_on:.4}s ({:+.2}%)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.02,
        "recording overhead {:.2}% exceeds the 2% budget \
         (off={best_off:.4}s on={best_on:.4}s)",
        overhead * 100.0
    );
}
