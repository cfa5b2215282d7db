//! Table 3 — effectiveness of the two post-processing stages.
//!
//! For each IC/CAD 2017 preset: average and maximum displacement before
//! (MGL only) and after (MGL + matching + fixed row & order MCF).

use mcl_bench::{
    evaluate, fnum, legalize, norm_avg, save_artifact, scale_from_env, threads_from_env,
};
use mcl_core::pipeline::POST_PIPELINE;
use mcl_core::{LegalizerConfig, RunSpec, Stage, StageSet};
use mcl_gen::generate::generate;
use mcl_gen::presets::{iccad17_config, ICCAD17};

fn main() {
    let scale = scale_from_env();
    println!("# Table 3 — post-processing ablation (scale {scale})\n");
    println!(
        "| {:<20} | {:>10} {:>10} | {:>10} {:>10} |",
        "Benchmark", "AvgD.Bef", "AvgD.Aft", "MaxD.Bef", "MaxD.Aft"
    );

    let mut avg_b = Vec::new();
    let mut avg_a = Vec::new();
    let mut max_b = Vec::new();
    let mut max_a = Vec::new();
    let mut table = String::new();
    for stats in &ICCAD17 {
        let cfg = iccad17_config(stats, scale);
        let g = match generate(&cfg) {
            Ok(g) => g,
            Err(e) => {
                println!("| {:<20} | generation failed: {e} |", stats.name);
                continue;
            }
        };
        let d = &g.design;

        let mut stage1_cfg = LegalizerConfig::contest();
        stage1_cfg.threads = threads_from_env();
        stage1_cfg.stages = StageSet::of(&[Stage::Mgl]);
        let before = evaluate(d, |d| legalize(&stage1_cfg, d, RunSpec::default()).0);

        // Run the post-processing on the stage-1 output (the paper's
        // "before/after" is exactly this refinement).
        let mut post_cfg = LegalizerConfig::contest();
        post_cfg.threads = threads_from_env();
        post_cfg.stages = POST_PIPELINE;
        let after = evaluate(&before.design, |d| {
            legalize(&post_cfg, d, RunSpec::default()).0
        });
        assert!(after.report.is_legal());

        let line = format!(
            "| {:<20} | {:>10} {:>10} | {:>10} {:>10} |",
            stats.name,
            fnum(before.metrics.avg_disp_rows, 3),
            fnum(after.metrics.avg_disp_rows, 3),
            fnum(before.metrics.max_disp_rows, 1),
            fnum(after.metrics.max_disp_rows, 1),
        );
        println!("{line}");
        table.push_str(&line);
        table.push('\n');
        avg_b.push(before.metrics.avg_disp_rows);
        avg_a.push(after.metrics.avg_disp_rows);
        max_b.push(before.metrics.max_disp_rows);
        max_a.push(after.metrics.max_disp_rows);
    }

    println!();
    println!(
        "Norm. avg (before / after): avg disp {:.3}, max disp {:.3}",
        norm_avg(&avg_b, &avg_a),
        norm_avg(&max_b, &max_a),
    );
    save_artifact("table3.txt", &table);
}
