//! Accounting property test: the run report's pin-short / pin-access /
//! edge-spacing quality totals (computed through `mcl_db::legal::Checker`)
//! must agree with independent recounts — the routability oracle's
//! per-pin recomposition (`RoutOracle::recount_pin_violations`) and a
//! naive per-row edge-spacing sweep written here from the rule definition.

use mcl_core::report::build_run_report;
use mcl_core::routability::RoutOracle;
use mcl_core::{Engine, LegalizerConfig, RunSpec};
use mcl_db::prelude::*;
use mcl_obs::report::Value;
use proptest::prelude::*;

/// Naive edge-spacing recount from the rule definition: for every row, take
/// the cells covering it sorted by x; each adjacent non-overlapping pair
/// closer than the class table's requirement counts once per row.
fn recount_edge_spacing(d: &Design) -> u64 {
    let rh = d.tech.row_height;
    let mut total = 0u64;
    for row in 0..d.num_rows {
        let y_lo = d.core.yl + row as Dbu * rh;
        let y_hi = y_lo + rh;
        let mut spans: Vec<(Dbu, Dbu, u8, u8)> = Vec::new();
        for (i, cell) in d.cells.iter().enumerate() {
            let Some(pos) = cell.pos else { continue };
            let ct = d.type_of(CellId(i as u32));
            let cell_y_hi = pos.y + ct.height_rows as Dbu * rh;
            if pos.y < y_hi && cell_y_hi > y_lo {
                spans.push((pos.x, pos.x + ct.width, ct.edge_class.0, ct.edge_class.1));
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            let (_, xh_a, _, right_class_a) = w[0];
            let (xl_b, _, left_class_b, _) = w[1];
            let gap = xl_b - xh_a;
            if gap < 0 {
                continue; // overlapping pair: a hard violation, not spacing
            }
            if gap < d.tech.edge_spacing.spacing(right_class_a, left_class_b) {
                total += 1;
            }
        }
    }
    total
}

fn quality_u64(rep: &mcl_obs::report::RunReport, name: &str) -> u64 {
    match rep
        .quality
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing quality field {name}"))
    {
        (_, Value::U64(v)) => *v,
        (_, Value::F64(v)) => panic!("{name} is F64({v}), expected U64"),
    }
}

fn build_design(cells: &[(u8, i64, i64)], width: i64, rows: i64) -> Design {
    let mut d = Design::new(
        "acct",
        Technology::example(),
        Rect::new(0, 0, width, rows * 90),
    );
    d.grid = PowerGrid {
        h_layer: 2,
        h_width: 6,
        h_pitch_rows: 2,
        v_layer: 3,
        v_width: 8,
        v_pitch: 300,
        v_offset: 150,
    };
    let mut table = EdgeSpacingTable::new(2);
    table.set(1, 1, 20);
    d.tech.edge_spacing = table;
    let mut s = CellType::new("s", 20, 1);
    s.edge_class = (1, 1);
    s.pins.push(PinShape {
        name: "a".into(),
        layer: 2,
        rect: Rect::new(4, 30, 12, 50),
    });
    d.add_cell_type(s);
    let mut m = CellType::new("m", 30, 2);
    m.pins.push(PinShape {
        name: "a".into(),
        layer: 1,
        rect: Rect::new(6, 60, 14, 80),
    });
    d.add_cell_type(m);
    for (i, &(kind, gx, gy)) in cells.iter().enumerate() {
        let t = CellTypeId((kind % 2) as u32);
        let gp = Point::new(gx.rem_euclid(width - 50), gy.rem_euclid((rows - 2) * 90));
        d.add_cell(Cell::new(format!("c{i}"), t, gp));
    }
    // A few IO pins so the IO-overlap legs of both accountings engage.
    for k in 0..4 {
        d.io_pins.push(IoPin {
            name: format!("io{k}"),
            layer: 2,
            rect: Rect::new(100 + k * 150, 35, 120 + k * 150, 55),
        });
    }
    d
}

/// Deterministic non-vacuous case: hand-placed cells sitting on stripes,
/// rails, IO pins and too close together, so every violation class is
/// exercised with known nonzero counts.
#[test]
fn recounts_agree_on_known_violations() {
    let mut d = build_design(&[], 2000, 12);
    // Type 0's M2 pin (local x [4,12)) under the M3 stripe [446,454)
    // (stripes at 150+300k, width 8): x = 440 puts the pin at [444,452),
    // a pin-access violation (blocked one layer up).
    let mut on_stripe = Cell::new("v_access", CellTypeId(0), Point::new(440, 0));
    on_stripe.pos = Some(Point::new(440, 0));
    d.add_cell(on_stripe);
    // Two class-1 cells abutted: gap 0 < required 20.
    let mut a = Cell::new("near_a", CellTypeId(0), Point::new(700, 90));
    a.pos = Some(Point::new(700, 90));
    d.add_cell(a);
    let mut b = Cell::new("near_b", CellTypeId(0), Point::new(720, 90));
    b.pos = Some(Point::new(720, 90));
    d.add_cell(b);
    // A cell whose M2 pin overlaps IO pin io0 ([100,120)x[35,55) on M2):
    // pin abs [104,112)x[30,50) — a same-layer pin short.
    let mut on_io = Cell::new("io_short", CellTypeId(0), Point::new(100, 0));
    on_io.pos = Some(Point::new(100, 0));
    d.add_cell(on_io);

    let legality = Checker::new(&d).check();
    let oracle = RoutOracle::new(&d);
    let (shorts, access) = oracle.recount_pin_violations();
    assert!(shorts > 0, "crafted design must have pin shorts");
    assert!(access > 0, "crafted design must have pin-access violations");
    assert_eq!(legality.pin_shorts as u64, shorts);
    assert_eq!(legality.pin_access as u64, access);
    let edge = recount_edge_spacing(&d);
    assert!(
        edge > 0,
        "crafted design must have an edge-spacing violation"
    );
    assert_eq!(legality.edge_spacing as u64, edge);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn report_totals_match_independent_recounts(
        cells in prop::collection::vec((0u8..2, 0i64..100_000, 0i64..100_000), 1..50),
        rout_flag in 0u8..2,
    ) {
        let routability = rout_flag == 1;
        let width = (cells.len() as i64 * 45).max(900);
        let d = build_design(&cells, width, 12);
        let mut config = LegalizerConfig::contest();
        config.routability = routability;
        let out = Engine::new(config.clone())
            .run_one(&d, &RunSpec::default())
            .expect("fault-free run");
        let (placed, stats) = (out.design, out.stats);
        prop_assert_eq!(stats.mgl.failed, 0);

        let rep = build_run_report(&placed, &stats, &config);
        let oracle = RoutOracle::new(&placed);
        let (shorts, access) = oracle.recount_pin_violations();
        prop_assert_eq!(
            quality_u64(&rep, "pin_shorts"), shorts,
            "pin-short totals diverge: checker vs oracle recount"
        );
        prop_assert_eq!(
            quality_u64(&rep, "pin_access_violations"), access,
            "pin-access totals diverge: checker vs oracle recount"
        );
        prop_assert_eq!(
            quality_u64(&rep, "edge_spacing_violations"),
            recount_edge_spacing(&placed),
            "edge-spacing totals diverge: checker vs naive sweep"
        );
    }
}
