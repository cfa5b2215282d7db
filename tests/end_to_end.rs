//! End-to-end integration tests across the whole workspace: generated
//! benchmarks, every legalizer, legality, quality orderings, determinism.

use mclegal::baselines::{legalize_abacus, legalize_lcp, legalize_mll, legalize_tetris};
use mclegal::core::pipeline::POST_PIPELINE;
use mclegal::core::{Engine, LegalizeStats, LegalizerConfig, RunSpec, Stage, StageSet};
use mclegal::db::prelude::*;
use mclegal::gen::presets::{iccad17_config, ispd15_config, ICCAD17, ISPD15};
use mclegal::gen::{generate, GeneratorConfig};

fn legalize(config: LegalizerConfig, d: &Design) -> (Design, LegalizeStats) {
    let out = Engine::new(config)
        .run_one(d, RunSpec::default())
        .expect("fault-free run");
    (out.design, out.stats)
}

fn tiny_iccad(name: &str) -> Design {
    let stats = ICCAD17.iter().find(|s| s.name == name).unwrap();
    generate(&iccad17_config(stats, 0.01)).unwrap().design
}

#[test]
fn full_flow_on_fenced_routability_benchmark() {
    let d = tiny_iccad("des_perf_b_md2");
    let (placed, stats) = legalize(LegalizerConfig::contest(), &d);
    assert_eq!(stats.mgl.failed, 0);
    let rep = Checker::new(&placed).check();
    assert!(rep.is_legal(), "{:?}", rep.details);
    assert_eq!(rep.fence_violations, 0);
    assert_eq!(
        rep.edge_spacing, 0,
        "ours must satisfy edge spacing: {:?}",
        rep.details
    );
}

#[test]
fn all_legalizers_produce_legal_placements() {
    let stats = &ISPD15[5]; // fft_2
    let d = generate(&ispd15_config(stats, 0.01)).unwrap().design;
    let runs: Vec<(&str, Design)> = vec![
        ("tetris", legalize_tetris(&d).0),
        ("abacus", legalize_abacus(&d).0),
        ("mll", legalize_mll(&d).0),
        ("lcp", legalize_lcp(&d).0),
        (
            "ours",
            legalize(LegalizerConfig::total_displacement(), &d).0,
        ),
    ];
    for (name, placed) in runs {
        let rep = Checker::new(&placed).check();
        assert!(rep.is_legal(), "{name}: {:?}", rep.details);
        let unplaced = placed
            .movable_cells()
            .filter(|&c| placed.cells[c.0 as usize].pos.is_none())
            .count();
        assert_eq!(unplaced, 0, "{name} left cells unplaced");
    }
}

#[test]
fn ours_beats_every_baseline_on_dense_total_displacement() {
    let stats = &ISPD15[0]; // des_perf_1, the dense one
    let d = generate(&ispd15_config(stats, 0.01)).unwrap().design;
    let ours =
        Metrics::measure(&legalize(LegalizerConfig::total_displacement(), &d).0).total_disp_dbu;
    for (name, placed) in [
        ("tetris", legalize_tetris(&d).0),
        ("abacus", legalize_abacus(&d).0),
        ("mll", legalize_mll(&d).0),
        ("lcp", legalize_lcp(&d).0),
    ] {
        let base = Metrics::measure(&placed).total_disp_dbu;
        assert!(
            ours as f64 <= 1.02 * base as f64,
            "{name}: ours {ours} should be within 2% of or beat {base}"
        );
    }
}

#[test]
fn routability_flow_reduces_pin_violations() {
    let d = tiny_iccad("fft_a_md2");
    let mut blind = LegalizerConfig::contest();
    blind.routability = false;
    let (pb, _) = legalize(blind, &d);
    let (pa, _) = legalize(LegalizerConfig::contest(), &d);
    let vb = Checker::new(&pb).check();
    let va = Checker::new(&pa).check();
    assert!(
        va.pin_shorts + va.pin_access <= vb.pin_shorts + vb.pin_access,
        "aware {} vs blind {}",
        va.pin_shorts + va.pin_access,
        vb.pin_shorts + vb.pin_access
    );
}

#[test]
fn legalization_is_deterministic_end_to_end() {
    let d = tiny_iccad("pci_bridge32_a_md2");
    let (a, _) = legalize(LegalizerConfig::contest(), &d);
    let (b, _) = legalize(LegalizerConfig::contest(), &d);
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.pos, cb.pos);
        assert_eq!(ca.orient, cb.orient);
    }
}

#[test]
fn post_processing_improves_or_preserves_quality() {
    let d = tiny_iccad("edit_dist_a_md2");
    let mut stage1 = LegalizerConfig::contest();
    stage1.stages = StageSet::of(&[Stage::Mgl]);
    let (before, _) = legalize(stage1, &d);
    let mut post = LegalizerConfig::contest();
    post.stages = POST_PIPELINE;
    let (after, stats) = Engine::new(post)
        .run_one(&before, RunSpec::default())
        .map(|o| (o.design, o.stats))
        .unwrap();
    assert!(stats.fixed_order.applied);
    let mb = Metrics::measure(&before);
    let ma = Metrics::measure(&after);
    assert!(
        ma.max_disp_rows <= mb.max_disp_rows + 1e-9,
        "stage 2 target"
    );
    assert!(Checker::new(&after).check().is_legal());
}

#[test]
fn golden_packing_of_presets_is_legal() {
    let stats = &ICCAD17[4]; // des_perf_b_md2: fences + all heights
    let g = generate(&iccad17_config(stats, 0.01)).unwrap();
    let mut d = g.design.clone();
    for (i, &p) in g.golden.iter().enumerate() {
        d.cells[i].pos = Some(p);
        let row = d.row_of_y(p.y).unwrap();
        d.cells[i].orient = d.orient_for_row(d.cells[i].type_id, row);
    }
    let rep = Checker::new(&d).check();
    assert!(rep.is_legal(), "{:?}", rep.details);
    assert_eq!(rep.edge_spacing, 0);
}

#[test]
fn generator_is_deterministic() {
    let cfg = GeneratorConfig::small(77);
    let a = generate(&cfg).unwrap();
    let b = generate(&cfg).unwrap();
    assert_eq!(a.golden, b.golden);
    for (ca, cb) in a.design.cells.iter().zip(&b.design.cells) {
        assert_eq!(ca.gp, cb.gp);
    }
}
