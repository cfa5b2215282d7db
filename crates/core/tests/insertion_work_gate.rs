//! Work gate for the insertion kernel's exact pruning: on a fixed generated
//! design, stage 1 may run at most a fixed number of curve minimizations
//! and inspect at most a fixed number of candidate anchors per evaluated
//! window. The bounds skip candidates that provably cannot beat the
//! incumbent without changing any placement, so turning them off changes
//! no output and no other test; these ceilings are what notice.
//!
//! Measured on this design (the counts are deterministic): 2.42
//! minimizations per window with pruning and 12.93 without it; 11.43
//! anchors per window with the feasible-x region bound, 15.04 with only its
//! empty-range exit and 18.52 without either. Each ceiling leaves about 25%
//! headroom over the pruned figure.

use mcl_core::{Engine, LegalizerConfig, RunSpec, Stage, StageSet};
use mcl_gen::{generate, GeneratorConfig};
use mcl_obs::CounterKind;

const MAX_CURVE_MINS_PER_WINDOW: f64 = 3.0;
const MAX_ANCHORS_PER_WINDOW: f64 = 14.25;

#[test]
fn insertion_work_per_window_stays_pruned() {
    let mut gen = GeneratorConfig::small(1000);
    gen.num_cells = 2_000;
    gen.density = 0.55;
    gen.fences = 2;
    gen.fence_cell_fraction = 0.15;
    let design = generate(&gen).expect("generation succeeds").design;
    let mut cfg = LegalizerConfig::contest();
    cfg.threads = 1;
    cfg.stages = StageSet::of(&[Stage::Mgl]);
    let stats = Engine::new(cfg)
        .run_one(&design, RunSpec::default())
        .expect("MGL run")
        .stats
        .mgl;
    let windows = stats.obs.counter(CounterKind::WindowsEvaluated);
    let mins = stats.scratch.curve_mins;
    let anchors = stats.scratch.anchors;
    assert!(windows >= 2_000, "{windows} windows for 2,000 cells");
    let per_window = mins as f64 / windows as f64;
    println!("{mins} curve minimizations over {windows} windows = {per_window:.2} per window");
    assert!(
        per_window <= MAX_CURVE_MINS_PER_WINDOW,
        "{per_window:.2} curve minimizations per window exceeds {MAX_CURVE_MINS_PER_WINDOW}: \
         has the insertion kernel's pruning been disabled?"
    );
    let per_window = anchors as f64 / windows as f64;
    println!("{anchors} anchors over {windows} windows = {per_window:.2} per window");
    assert!(
        per_window <= MAX_ANCHORS_PER_WINDOW,
        "{per_window:.2} anchors per window exceeds {MAX_ANCHORS_PER_WINDOW}: \
         has the feasible-x region bound been disabled?"
    );
}
