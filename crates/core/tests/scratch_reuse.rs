//! Pins the allocation-free steady state of the parallel MGL scheduler:
//! one runner scratch plus one per helper, ever, regardless of how many
//! rounds, expansions, fallbacks or applies a run performs.
//!
//! This guards against the regression class where a hot path quietly
//! constructs a throwaway [`InsertionScratch`] per window or per applied
//! cell (the apply loop once did exactly that before being routed through
//! `apply_insertion_with` with pooled scratches). `ScratchStats::created` counts constructions charged
//! to the run: a fresh scratch starts at 1 and taking the stats resets it,
//! so any per-round or per-cell construction whose stats merge into the
//! run inflates the total past the thread count.

use mcl_core::config::LegalizerConfig;
use mcl_core::{Engine, RunSpec, Stage, StageSet};
use mcl_gen::{generate, GeneratorConfig};
use mcl_obs::SpanKind;

fn busy_run(threads: usize) -> mcl_core::mgl::MglStats {
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
    let g = generate(&cfg).expect("benchmark must pack");
    let mut c = LegalizerConfig::total_displacement();
    c.threads = threads;
    // A small round capacity forces many rounds; a short expansion ladder
    // forces fallback scans — both paths must reuse pooled buffers.
    c.window_list_capacity = 64;
    c.max_expansions = 3;
    c.stages = StageSet::of(&[Stage::Mgl]);
    let stats = Engine::new(c)
        .run_one(&g.design, RunSpec::default())
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
