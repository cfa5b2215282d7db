//! Figure 6 — before/after the maximum-displacement optimization.
//!
//! Runs stage 1 on a fenced IC/CAD preset, renders the displacement vectors
//! of the worst cell-type group (red cells, red lines to GP), applies the
//! stage-2 matching and renders the same group again — the paper's Fig. 6.

use mcl_bench::{legalize, scale_from_env, threads_from_env};
use mcl_core::pipeline::POST_PIPELINE;
use mcl_core::{LegalizerConfig, RunSpec};
use mcl_db::prelude::*;
use mcl_gen::generate::generate;
use mcl_gen::presets::{iccad17_config, ICCAD17};
use mcl_viz::{render_svg, SvgOptions};

fn main() {
    println!("# Figure 6 — max displacement optimization, before/after\n");
    let stats = ICCAD17.iter().find(|s| s.name == "fft_2_md2").unwrap();
    let cfg = iccad17_config(stats, scale_from_env().max(0.05));
    let g = generate(&cfg).expect("preset generates");

    let mut stage1 = LegalizerConfig::contest();
    stage1.threads = threads_from_env();
    stage1.max_disp_matching = false;
    stage1.fixed_order_refine = false;
    let (before, s) = legalize(&stage1, &g.design, &RunSpec::default());
    assert_eq!(s.mgl.failed, 0);

    // Worst group by max displacement.
    let mut worst: Option<(CellTypeId, i64)> = None;
    for id in before.movable_cells() {
        let c = &before.cells[id.0 as usize];
        let disp = c.displacement();
        if worst.map(|(_, w)| disp > w).unwrap_or(true) {
            worst = Some((c.type_id, disp));
        }
    }
    let (wtype, wdisp) = worst.unwrap();
    let before_max = Metrics::measure(&before).max_disp_rows;
    println!(
        "worst group: type {} (displacement {wdisp} dbu, design max {:.1} rows)",
        before.cell_types[wtype.0 as usize].name, before_max
    );

    let mut post = LegalizerConfig::contest();
    post.threads = threads_from_env();
    post.fixed_order_refine = false; // isolate stage 2, as in the figure
    let (after, _) = legalize(&post, &before, &RunSpec::stages(&POST_PIPELINE));
    let after_max = Metrics::measure(&after).max_disp_rows;
    println!("max displacement: before {before_max:.2} rows -> after {after_max:.2} rows");
    assert!(after_max <= before_max + 1e-9);

    let opts = SvgOptions {
        highlight_type: Some(wtype),
        min_disp: before.tech.row_height,
        ..SvgOptions::default()
    };
    let dir = mcl_bench::out_dir();
    std::fs::write(dir.join("fig6_before.svg"), render_svg(&before, &opts)).unwrap();
    std::fs::write(dir.join("fig6_after.svg"), render_svg(&after, &opts)).unwrap();
    std::fs::write(
        dir.join("fig6_hist_before.svg"),
        mcl_viz::render_disp_histogram(&before, 40),
    )
    .unwrap();
    std::fs::write(
        dir.join("fig6_hist_after.svg"),
        mcl_viz::render_disp_histogram(&after, 40),
    )
    .unwrap();
    println!(
        "[wrote {}/fig6_before.svg, fig6_after.svg + displacement histograms]",
        dir.display()
    );
}
