//! Ablation study over the design choices DESIGN.md calls out.
//!
//! One mid-size fenced benchmark, one row per configuration variant:
//! stages toggled, curve normalization, displacement reference, `n₀`,
//! `δ₀`, window size and processing order.

use mcl_bench::{evaluate, fnum, legalize, save_artifact, scale_from_env, threads_from_env};
use mcl_core::{CellOrder, DisplacementReference, LegalizerConfig, RunSpec};
use mcl_gen::generate::generate;
use mcl_gen::presets::{iccad17_config, ICCAD17};

fn main() {
    let stats = ICCAD17.iter().find(|s| s.name == "des_perf_b_md2").unwrap();
    let cfg = iccad17_config(stats, scale_from_env());
    let g = generate(&cfg).expect("preset generates");
    let d = &g.design;
    println!(
        "# Ablation on {} ({} cells, density {:.2})\n",
        d.name,
        d.cells.len(),
        d.density()
    );
    println!(
        "| {:<28} | {:>8} | {:>8} | {:>5} | {:>5} | {:>8} | {:>6} |",
        "variant", "AvgD", "MaxD", "Pins", "Edge", "Score", "sec"
    );

    let base = || {
        let mut c = LegalizerConfig::contest();
        c.threads = threads_from_env();
        c
    };
    let variants: Vec<(&str, LegalizerConfig)> = vec![
        ("full flow (default)", base()),
        ("no stage 2 (matching)", {
            let mut c = base();
            c.max_disp_matching = false;
            c
        }),
        ("no stage 3 (dual MCF)", {
            let mut c = base();
            c.fixed_order_refine = false;
            c
        }),
        ("stage 1 only", {
            let mut c = base();
            c.max_disp_matching = false;
            c.fixed_order_refine = false;
            c
        }),
        ("no curve normalization", {
            let mut c = base();
            c.normalize_curves = false;
            c
        }),
        ("MLL curves (reference=cur)", {
            let mut c = base();
            c.reference = DisplacementReference::Current;
            c
        }),
        ("no routability handling", {
            let mut c = base();
            c.routability = false;
            c
        }),
        ("n0 = 0 (no max-disp ext)", {
            let mut c = base();
            c.n0_factor = 0;
            c
        }),
        ("n0 = 16", {
            let mut c = base();
            c.n0_factor = 16;
            c
        }),
        ("delta0 = 5 rows", {
            let mut c = base();
            c.delta0_rows = 5.0;
            c
        }),
        ("delta0 = 20 rows", {
            let mut c = base();
            c.delta0_rows = 20.0;
            c
        }),
        ("window 12 sites", {
            let mut c = base();
            c.window_sites = 12;
            c
        }),
        ("window 48 sites", {
            let mut c = base();
            c.window_sites = 48;
            c
        }),
        ("order = gp-x", {
            let mut c = base();
            c.order = CellOrder::GpX;
            c
        }),
        ("order = shuffled", {
            let mut c = base();
            c.order = CellOrder::HeightThenShuffled;
            c
        }),
        ("order = height-then-width", {
            let mut c = base();
            c.order = CellOrder::HeightThenWidth;
            c
        }),
    ];

    let mut table = String::new();
    for (name, cfg) in variants {
        let e = evaluate(d, |d| legalize(&cfg, d, &RunSpec::default()).0);
        assert!(e.report.is_legal(), "{name} must stay legal");
        let line = format!(
            "| {:<28} | {:>8} | {:>8} | {:>5} | {:>5} | {:>8} | {:>6} |",
            name,
            fnum(e.metrics.avg_disp_rows, 4),
            fnum(e.metrics.max_disp_rows, 1),
            e.report.pin_shorts + e.report.pin_access,
            e.report.edge_spacing,
            fnum(e.score, 4),
            fnum(e.seconds, 2),
        );
        println!("{line}");
        table.push_str(&line);
        table.push('\n');
    }
    save_artifact("ablation.txt", &table);
}
