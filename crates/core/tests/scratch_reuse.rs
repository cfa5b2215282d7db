//! Pins the allocation-free steady state of the parallel MGL scheduler:
//! one scratch per thread per stage — the runner's plus one per helper —
//! regardless of how many rounds, expansions, fallbacks or applies the
//! stage performs, for a whole-design run and for every ECO session delta.
//!
//! This guards against the regression class where a hot path quietly
//! constructs a throwaway [`InsertionScratch`] per window or per applied
//! cell (the apply loop once did exactly that before being routed through
//! `apply_insertion_with` with the stage's scratch). `ScratchStats::created`
//! counts constructions: a fresh scratch starts at 1, so any per-round or
//! per-cell construction whose stats merge into the run inflates the total
//! past the thread count.
//!
//! [`InsertionScratch`]: mcl_core::insertion::InsertionScratch

use mcl_core::config::LegalizerConfig;
use mcl_core::{EcoSession, Engine, RunSpec, Stage, StageSet};
use mcl_db::prelude::Design;
use mcl_gen::{generate, GeneratorConfig};
use mcl_obs::SpanKind;

fn busy_design() -> Design {
    let cfg = GeneratorConfig {
        name: "scratch_reuse".into(),
        seed: 7,
        num_cells: 2_000,
        density: 0.55,
        sigma_rows: 2.0,
        height_mix: [0.80, 0.20, 0.0, 0.0],
        hotspots: 0,
        ..GeneratorConfig::default()
    };
    generate(&cfg).expect("benchmark must pack").design
}

fn busy_config(threads: usize) -> LegalizerConfig {
    let mut c = LegalizerConfig::total_displacement();
    c.threads = threads;
    // A small round capacity forces many rounds; a short expansion ladder
    // forces fallback scans — both paths must reuse the stage's buffers.
    c.window_list_capacity = 64;
    c.max_expansions = 3;
    c.stages = StageSet::of(&[Stage::Mgl]);
    c
}

fn busy_run(threads: usize) -> mcl_core::mgl::MglStats {
    let stats = Engine::new(busy_config(threads))
        .run_one(&busy_design(), RunSpec::default())
        .expect("MGL run")
        .stats
        .mgl;
    assert_eq!(stats.failed, 0, "all cells must place");
    stats
}

#[test]
fn steady_state_constructs_one_scratch_per_thread() {
    for threads in [1usize, 2, 4] {
        let stats = busy_run(threads);
        // The run must actually be busy for the pin to mean anything:
        // thousands of applies over many rounds, with both the expansion
        // ladder and the global fallback exercised.
        let rounds = stats.obs.span(SpanKind::SchedSelect).count;
        assert!(rounds > 10, "rounds: {rounds}");
        assert!(stats.expansions > 0, "no expansions exercised");
        assert!(
            stats.placed_in_window + stats.fallbacks >= 2_000,
            "placed {} + {}",
            stats.placed_in_window,
            stats.fallbacks
        );
        // Runner + one per helper. A per-round, per-window or
        // per-apply construction shows up here as O(rounds) or O(cells).
        assert_eq!(
            stats.scratch.created, threads as u64,
            "scratch constructions at {threads} threads"
        );
    }
}

#[test]
fn every_session_delta_constructs_one_scratch_per_thread() {
    let base = Engine::new(busy_config(2))
        .run_one(&busy_design(), RunSpec::default())
        .expect("base run")
        .design;
    for threads in [1usize, 2, 4] {
        let mut c = busy_config(threads);
        // A handful of windows per round, so each delta runs several.
        c.window_list_capacity = 4;
        let mut session = EcoSession::open(base.clone(), c).expect("legal base must open");
        for seed in [11u64, 12, 13] {
            let moves = EcoSession::synthesize_delta(session.design(), 32, seed);
            let (stats, _) = session.apply_delta(&moves).expect("delta");
            let mgl = &stats.mgl;
            let rounds = mgl.obs.span(SpanKind::SchedSelect).count;
            assert!(rounds >= 2, "delta {seed} ran {rounds} rounds");
            // The delta's one MGL stage: the runner's scratch and one per
            // helper, built for this delta and no other.
            assert_eq!(
                mgl.scratch.created, threads as u64,
                "scratch constructions of delta {seed} at {threads} threads"
            );
        }
    }
}
