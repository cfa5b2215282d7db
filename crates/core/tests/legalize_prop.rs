//! Property test: the legalizer produces legal placements on arbitrary
//! (feasible) random designs.

use mcl_core::{Engine, LegalizeStats, LegalizerConfig, RunSpec};
use mcl_db::prelude::*;
use proptest::prelude::*;

fn build_design(
    cells: &[(u8, i64, i64)], // (kind, gp_x raw, gp_y raw)
    width: i64,
    rows: i64,
) -> Design {
    let mut d = Design::new(
        "prop",
        Technology::example(),
        Rect::new(0, 0, width, rows * 90),
    );
    d.add_cell_type(CellType::new("s", 20, 1));
    d.add_cell_type(CellType::new("m", 30, 2));
    d.add_cell_type(CellType::new("t", 40, 3));
    for (i, &(kind, gx, gy)) in cells.iter().enumerate() {
        let t = CellTypeId((kind % 3) as u32);
        let gp = Point::new(gx.rem_euclid(width - 50), gy.rem_euclid((rows - 3) * 90));
        d.add_cell(Cell::new(format!("c{i}"), t, gp));
    }
    d
}

fn legalize(config: LegalizerConfig, d: &Design) -> (Design, LegalizeStats) {
    let out = Engine::new(config)
        .run_one(d, RunSpec::default())
        .expect("fault-free run");
    (out.design, out.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn legalizer_output_is_always_legal(
        cells in prop::collection::vec((0u8..3, 0i64..100_000, 0i64..100_000), 1..60),
        rows in 8i64..16,
    ) {
        // Sized so the density stays feasible.
        let width = (cells.len() as i64 * 40).max(800);
        let d = build_design(&cells, width, rows);
        let (placed, stats) = legalize(LegalizerConfig::total_displacement(), &d);
        prop_assert_eq!(stats.mgl.failed, 0);
        let rep = Checker::new(&placed).check();
        prop_assert!(rep.is_legal(), "{:?}", rep.details);
        // Every movable cell placed.
        for c in &placed.cells {
            prop_assert!(c.pos.is_some());
        }
    }

    #[test]
    fn contest_flow_is_always_legal_with_rails(
        cells in prop::collection::vec((0u8..3, 0i64..100_000, 0i64..100_000), 1..40),
    ) {
        let width = (cells.len() as i64 * 50).max(800);
        let mut d = build_design(&cells, width, 12);
        d.grid = PowerGrid {
            h_layer: 2,
            h_width: 6,
            h_pitch_rows: 1,
            v_layer: 3,
            v_width: 10,
            v_pitch: 400,
            v_offset: 200,
        };
        d.cell_types[0].pins.push(PinShape {
            name: "a".into(),
            layer: 2,
            rect: Rect::new(4, 40, 12, 50),
        });
        let (placed, stats) = legalize(LegalizerConfig::contest(), &d);
        prop_assert_eq!(stats.mgl.failed, 0);
        let rep = Checker::new(&placed).check();
        prop_assert!(rep.is_legal(), "{:?}", rep.details);
    }
}
