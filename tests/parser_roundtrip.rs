//! Integration tests: generated designs survive Bookshelf and LEF/DEF round
//! trips, and the parsed designs legalize identically to the originals.

use mclegal::core::{Engine, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;
use mclegal::gen::{generate, GeneratorConfig};
use mclegal::parsers;

/// The legalized design of a fault-free full-pipeline run.
fn legalize(config: LegalizerConfig, d: &Design) -> Design {
    Engine::new(config)
        .run_one(d, &RunSpec::default())
        .expect("fault-free run")
        .design
}

fn sample() -> Design {
    let cfg = GeneratorConfig {
        name: "roundtrip".into(),
        num_cells: 400,
        density: 0.6,
        fences: 2,
        fence_cell_fraction: 0.2,
        io_pins: 12,
        nets: 150,
        ..GeneratorConfig::small(13)
    };
    generate(&cfg).unwrap().design
}

#[test]
fn bookshelf_roundtrip_preserves_design() {
    let d = sample();
    let bundle = parsers::write_bookshelf(&d);
    let p = parsers::read_bookshelf(&bundle).unwrap();
    assert_eq!(p.cells.len(), d.cells.len());
    assert_eq!(p.num_rows, d.num_rows);
    assert_eq!(p.core, d.core);
    assert_eq!(p.nets.len(), d.nets.len());
    assert_eq!(p.fences.len(), d.fences.len());
    assert_eq!(p.grid, d.grid);
    for (a, b) in d.cells.iter().zip(&p.cells) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.gp, b.gp);
        assert_eq!(a.fence, b.fence);
        // Dimensions survive even though type ids may be renumbered.
        let (ta, tb) = (
            &d.cell_types[a.type_id.0 as usize],
            &p.cell_types[b.type_id.0 as usize],
        );
        assert_eq!(ta.width, tb.width);
        assert_eq!(ta.height_rows, tb.height_rows);
    }
}

#[test]
fn lefdef_roundtrip_preserves_design() {
    let d = sample();
    let lef = parsers::write_lef(&d);
    let def = parsers::write_def(&d);
    let lib = parsers::read_lef(&lef).unwrap();
    let p = parsers::read_def(&def, &lib).unwrap();
    assert_eq!(p.cells.len(), d.cells.len());
    assert_eq!(p.core, d.core);
    assert_eq!(p.io_pins.len(), d.io_pins.len());
    for (a, b) in d.cells.iter().zip(&p.cells) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.gp, b.gp);
        assert_eq!(a.fence.0, b.fence.0);
    }
    // Pin geometry survives (edge classes + shapes drive routability).
    for (ta, tb) in d.cell_types.iter().zip(&lib.macros) {
        assert_eq!(ta.name, tb.name);
        assert_eq!(ta.edge_class, tb.edge_class);
        assert_eq!(ta.pins.len(), tb.pins.len());
        for (pa, pb) in ta.pins.iter().zip(&tb.pins) {
            assert_eq!(pa.layer, pb.layer);
            assert_eq!(pa.rect, pb.rect);
        }
    }
}

#[test]
fn parsed_design_legalizes_like_the_original() {
    let d = sample();
    let bundle = parsers::write_bookshelf(&d);
    let p = parsers::read_bookshelf(&bundle).unwrap();

    // Bookshelf does not carry pin shapes or edge classes, so quality can
    // differ slightly; both must be legal, with displacement in the same
    // ballpark.
    let mut cfg = LegalizerConfig::contest();
    cfg.routability = false;
    let orig = legalize(cfg.clone(), &d);
    let parsed = legalize(cfg, &p);
    assert!(Checker::new(&orig).check().is_legal());
    assert!(Checker::new(&parsed).check().is_legal());
    let mo = Metrics::measure(&orig).total_disp_dbu as f64;
    let mp = Metrics::measure(&parsed).total_disp_dbu as f64;
    assert!(
        (mo - mp).abs() <= 0.25 * mo.max(mp),
        "orig {mo} vs parsed {mp}"
    );
}

#[test]
fn def_roundtrip_of_placed_design_is_exact() {
    let d = sample();
    let placed = legalize(LegalizerConfig::contest(), &d);
    let lef = parsers::write_lef(&placed);
    let def = parsers::write_def(&placed);
    let lib = parsers::read_lef(&lef).unwrap();
    let p = parsers::read_def(&def, &lib).unwrap();
    // DEF read treats PLACED coordinates as GP; they must equal the written
    // legal positions exactly.
    for (a, b) in placed.cells.iter().zip(&p.cells) {
        assert_eq!(a.pos.unwrap(), b.gp, "{}", a.name);
    }
}
