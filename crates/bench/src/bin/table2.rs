//! Table 2 — comparison with state-of-the-art displacement-driven
//! legalizers on the 20 ISPD-2015-derived presets (10% of cells converted
//! to double height, half width).
//!
//! Columns follow the paper: total displacement in *sites* and runtime for
//! MLL ("\[12\]-Imp"), Abacus-style ("\[7\]"), LCP ("\[9\]") and ours. Fences and
//! routability constraints are disabled, objective = total displacement.

use mcl_baselines::{legalize_abacus, legalize_lcp, legalize_mll};
use mcl_bench::{
    evaluate, fnum, legalize, norm_avg, save_artifact, scale_from_env, threads_from_env,
};
use mcl_core::{LegalizerConfig, RunSpec};
use mcl_gen::generate::generate;
use mcl_gen::presets::{ispd15_config, ISPD15};

fn main() {
    let scale = scale_from_env();
    println!("# Table 2 — total displacement vs prior work (scale {scale})\n");
    println!(
        "| {:<16} | {:>7} | {:>5} | {:>10} {:>10} {:>10} {:>10} | {:>6} {:>6} {:>6} {:>6} |",
        "Benchmark",
        "#Cells",
        "Dens",
        "MLL[12]",
        "Abacus[7]",
        "LCP[9]",
        "Ours",
        "s.12",
        "s.7",
        "s.9",
        "s.our"
    );

    let mut disp: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut time: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut table = String::new();
    for stats in &ISPD15 {
        let cfg = ispd15_config(stats, scale);
        let g = match generate(&cfg) {
            Ok(g) => g,
            Err(e) => {
                println!("| {:<16} | generation failed: {e} |", stats.name);
                continue;
            }
        };
        let d = &g.design;

        let mll = evaluate(d, |d| legalize_mll(d).0);
        let aba = evaluate(d, |d| legalize_abacus(d).0);
        let lcp = evaluate(d, |d| legalize_lcp(d).0);
        let mut lcfg = LegalizerConfig::total_displacement();
        lcfg.threads = threads_from_env();
        let ours = evaluate(d, |d| legalize(&lcfg, d, &RunSpec::default()).0);
        assert!(ours.report.is_legal(), "{}: ours must be legal", stats.name);

        let line = format!(
            "| {:<16} | {:>7} | {:>5.2} | {:>10} {:>10} {:>10} {:>10} | {:>6} {:>6} {:>6} {:>6} |",
            stats.name,
            d.cells.len(),
            d.density(),
            fnum(mll.metrics.total_disp_sites, 0),
            fnum(aba.metrics.total_disp_sites, 0),
            fnum(lcp.metrics.total_disp_sites, 0),
            fnum(ours.metrics.total_disp_sites, 0),
            fnum(mll.seconds, 2),
            fnum(aba.seconds, 2),
            fnum(lcp.seconds, 2),
            fnum(ours.seconds, 2),
        );
        println!("{line}");
        table.push_str(&line);
        table.push('\n');
        for (k, e) in [&mll, &aba, &lcp, &ours].iter().enumerate() {
            disp[k].push(e.metrics.total_disp_sites);
            time[k].push(e.seconds);
        }
    }

    println!();
    println!(
        "Norm. avg total displacement (x / ours): MLL {:.2}, Abacus {:.2}, LCP {:.2}, Ours 1.00",
        norm_avg(&disp[0], &disp[3]),
        norm_avg(&disp[1], &disp[3]),
        norm_avg(&disp[2], &disp[3]),
    );
    println!(
        "Total runtime: MLL {:.1}s, Abacus {:.1}s, LCP {:.1}s, Ours {:.1}s",
        time[0].iter().sum::<f64>(),
        time[1].iter().sum::<f64>(),
        time[2].iter().sum::<f64>(),
        time[3].iter().sum::<f64>()
    );
    save_artifact("table2.txt", &table);
}
