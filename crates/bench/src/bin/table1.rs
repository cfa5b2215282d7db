//! Table 1 — comparison with the IC/CAD 2017 contest champion (stand-in).
//!
//! For each of the 16 contest presets: average/maximum displacement (rows),
//! HPWL increase, pin access/short and edge-spacing violations, contest
//! score S (Eq. 10) and runtime — for the greedy champion stand-in ("1st")
//! and the full three-stage legalizer ("Ours").

use mcl_baselines::legalize_tetris;
use mcl_bench::{
    evaluate, fnum, legalize, norm_avg, save_artifact, scale_from_env, threads_from_env,
};
use mcl_core::{LegalizerConfig, RunSpec};
use mcl_gen::generate::generate;
use mcl_gen::presets::{iccad17_config, ICCAD17};

fn main() {
    let scale = scale_from_env();
    println!("# Table 1 — ours vs contest champion stand-in (scale {scale})\n");
    println!(
        "| {:<20} | {:>6} | {:>5} | {:>9} {:>9} | {:>8} {:>8} | {:>7} {:>7} | {:>6} {:>6} | {:>6} {:>6} | {:>7} {:>7} | {:>6} {:>6} |",
        "Benchmark", "#Cells", "Dens",
        "AvgD.1st", "AvgD.Our", "MaxD.1st", "MaxD.Our",
        "HP%.1st", "HP%.Our", "Pin.1st", "Pin.Our",
        "Edge.1st", "Edge.Our", "S.1st", "S.Our", "s.1st", "s.Our"
    );

    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 10];
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

        let champ = evaluate(d, |d| legalize_tetris(d).0);
        let mut lcfg = LegalizerConfig::contest();
        lcfg.threads = threads_from_env();
        let ours = evaluate(d, |d| legalize(&lcfg, d, &RunSpec::default()).0);

        assert!(ours.report.is_legal(), "{}: ours must be legal", stats.name);
        assert!(
            champ.report.is_legal(),
            "{}: champ must be legal",
            stats.name
        );

        let line = format!(
            "| {:<20} | {:>6} | {:>5.2} | {:>9} {:>9} | {:>8} {:>8} | {:>7} {:>7} | {:>6} {:>6} | {:>6} {:>6} | {:>7} {:>7} | {:>6} {:>6} |",
            stats.name,
            d.cells.len(),
            d.density(),
            fnum(champ.metrics.avg_disp_rows, 3),
            fnum(ours.metrics.avg_disp_rows, 3),
            fnum(champ.metrics.max_disp_rows, 1),
            fnum(ours.metrics.max_disp_rows, 1),
            fnum(100.0 * champ.metrics.s_hpwl, 2),
            fnum(100.0 * ours.metrics.s_hpwl, 2),
            champ.report.pin_shorts + champ.report.pin_access,
            ours.report.pin_shorts + ours.report.pin_access,
            champ.report.edge_spacing,
            ours.report.edge_spacing,
            fnum(champ.score, 3),
            fnum(ours.score, 3),
            fnum(champ.seconds, 2),
            fnum(ours.seconds, 2),
        );
        println!("{line}");
        table.push_str(&line);
        table.push('\n');

        let push = |cols: &mut Vec<Vec<f64>>, idx: usize, v: f64| cols[idx].push(v);
        push(&mut cols, 0, champ.metrics.avg_disp_rows);
        push(&mut cols, 1, ours.metrics.avg_disp_rows);
        push(&mut cols, 2, champ.metrics.max_disp_rows);
        push(&mut cols, 3, ours.metrics.max_disp_rows);
        push(
            &mut cols,
            4,
            (champ.report.pin_shorts + champ.report.pin_access) as f64,
        );
        push(
            &mut cols,
            5,
            (ours.report.pin_shorts + ours.report.pin_access) as f64,
        );
        push(&mut cols, 6, champ.score);
        push(&mut cols, 7, ours.score);
        push(&mut cols, 8, champ.seconds);
        push(&mut cols, 9, ours.seconds);
    }

    println!();
    println!(
        "Norm. avg (champion / ours): avg disp {:.2}, max disp {:.2}, score {:.2}",
        norm_avg(&cols[0], &cols[1]),
        norm_avg(&cols[2], &cols[3]),
        norm_avg(&cols[6], &cols[7]),
    );
    println!(
        "Total pin violations: champion {}, ours {}",
        cols[4].iter().sum::<f64>(),
        cols[5].iter().sum::<f64>()
    );
    println!(
        "Total runtime: champion {:.1}s, ours {:.1}s",
        cols[8].iter().sum::<f64>(),
        cols[9].iter().sum::<f64>()
    );
    save_artifact("table1.txt", &table);
}
