//! Stage 3 by independent components (`mcl_core::fixed_order`'s module
//! doc) against the one-graph solve it replaces, kept as the oracle in
//! `support/stage3_oracle.rs`.
//!
//! - On generated designs (three seeds; contest and total-displacement
//!   configurations; `n₀` factors 0 and 4) the component solve reaches the
//!   oracle's weighted objective with every cell at the oracle's x, and is
//!   byte-identical at 1, 2 and 4 threads, counters included.
//! - Two hand-made rows pin the repair paths: one where the Eq. 8–9
//!   extension binds, and one where a pair dropped by the relaxation is
//!   violated after the first pass.
//! - A work gate on a 20k-cell contest design: the largest component
//!   holds at most a quarter of the cells, within at most four repair
//!   rounds.
//! - The closed-form routability clean range equals the site-by-site walk
//!   it replaced, on random pin sets and stripe grids.

#[path = "support/stage3_oracle.rs"]
mod stage3_oracle;

use mcl_core::fixed_order::{optimize_fixed_order_metered, FixedOrderStats};
use mcl_core::pipeline::Prep;
use mcl_core::routability::RoutOracle;
use mcl_core::{Engine, LegalizerConfig, PlacementState, RunSpec, Stage, StageSet};
use mcl_db::prelude::*;
use mcl_gen::{generate, GeneratorConfig};
use mcl_obs::{CounterKind, Meter};
use proptest::prelude::*;
use stage3_oracle::solve_monolithic;

/// The stage-3 counters, in report order.
const COUNTERS: [CounterKind; 5] = [
    CounterKind::FixedOrderComponents,
    CounterKind::FixedOrderLargestComponent,
    CounterKind::FixedOrderRepairRounds,
    CounterKind::FixedOrderExtCells,
    CounterKind::SimplexPivots,
];

/// What one stage-3 run produced: every placed movable cell's x (id
/// order), its statistics and its counters.
#[derive(Debug, PartialEq)]
struct Outcome {
    xs: Vec<(CellId, Dbu)>,
    stats: FixedOrderStats,
    counters: Vec<u64>,
}

/// Runs the library's stage 3 on `placed` at `threads` threads.
fn run_stage3(placed: &Design, cfg: &LegalizerConfig, weights: &[i64], threads: usize) -> Outcome {
    let prep = Prep::new(placed, cfg);
    let mut state = PlacementState::from_design_positions(placed).expect("legal input");
    let mut obs = Meter::new();
    let stats = optimize_fixed_order_metered(
        &mut state,
        cfg,
        weights,
        prep.oracle(),
        &mut obs,
        None,
        threads,
    );
    assert!(stats.applied, "{stats:?}");
    let xs = placed
        .movable_cells()
        .filter_map(|c| state.pos(c).map(|p| (c, p.x)))
        .collect();
    Outcome {
        xs,
        stats,
        counters: COUNTERS.iter().map(|&k| obs.counter(k)).collect(),
    }
}

/// Checks the component solve against the oracle on `placed` and across
/// thread counts; returns the single-thread outcome.
///
/// Without the extension every cell must sit at the oracle's x. With it,
/// the LP can have a plateau of optima (two cells trading sites at equal
/// weight while the extension terms stay put), and the one-graph simplex
/// and a component's may stop at different ends of it: there the LP
/// objective and the weighted displacement must be the oracle's, and the
/// cells on another optimum are only counted.
fn check_against_oracle(
    placed: &Design,
    cfg: &LegalizerConfig,
    weights: &[i64],
    tag: &str,
) -> Outcome {
    let oracle = RoutOracle::new(placed);
    let state = PlacementState::from_design_positions(placed).expect("legal input");
    let want = solve_monolithic(&state, cfg, weights, cfg.routability.then_some(&oracle));
    let one = run_stage3(placed, cfg, weights, 1);
    assert_eq!(
        one.stats.weighted_after, want.weighted,
        "{tag}: weighted displacement"
    );
    assert_eq!(
        want.objective(&one.xs),
        want.objective(&want.xs),
        "{tag}: LP objective"
    );
    let off: Vec<_> = one
        .xs
        .iter()
        .zip(&want.xs)
        .filter(|(a, b)| a != b)
        .collect();
    if cfg.n0_factor == 0 {
        assert!(
            off.is_empty(),
            "{tag}: {} cells off the oracle, e.g. {:?}",
            off.len(),
            off[0]
        );
    } else {
        println!("{tag}: {} cells on another optimum {off:?}", off.len());
    }
    for threads in [2, 4] {
        assert_eq!(
            run_stage3(placed, cfg, weights, threads),
            one,
            "{tag} at {threads} threads"
        );
    }
    one
}

/// A generated design legalized by stages 1 and 2 under `cfg`.
fn placed_design(seed: u64, cells: usize, fences: usize, cfg: &LegalizerConfig) -> Design {
    let mut gen = GeneratorConfig::small(seed);
    gen.num_cells = cells;
    gen.density = 0.7;
    gen.fences = fences;
    gen.fence_cell_fraction = if fences > 0 { 0.15 } else { 0.0 };
    let design = generate(&gen).expect("generation succeeds").design;
    let mut cfg = cfg.clone();
    cfg.stages = StageSet::of(&[Stage::Mgl, Stage::MaxDisp]);
    Engine::new(cfg)
        .run_one(&design, RunSpec::Fresh)
        .expect("stages 1 and 2 legalize")
        .design
}

#[test]
fn components_reach_the_one_graph_optimum() {
    let mut repaired = 0;
    for seed in [21, 22, 23] {
        for (name, base, fences) in [
            ("contest", LegalizerConfig::contest(), 2),
            ("total", LegalizerConfig::total_displacement(), 0),
        ] {
            let placed = placed_design(seed, 1_500, fences, &base);
            let weights = Prep::new(&placed, &base).weights.into_owned();
            for n0 in [0, 4] {
                let mut cfg = base.clone();
                cfg.n0_factor = n0;
                let tag = format!("seed {seed} {name} n0 {n0}");
                let out = check_against_oracle(&placed, &cfg, &weights, &tag);
                assert!(out.counters[0] > 1, "{tag}: one component only");
                repaired += usize::from(out.counters[2] > 0);
            }
        }
    }
    assert!(repaired > 0, "no generated design needed a repair round");
}

/// Single-row cells of width 20 (two sites) on row 0: `(gp_x, placed_x)`.
fn row_design(cells_at: &[(Dbu, Dbu)]) -> Design {
    let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 2000, 900));
    d.add_cell_type(CellType::new("s", 20, 1));
    for (i, &(gx, px)) in cells_at.iter().enumerate() {
        let mut c = Cell::new(format!("c{i}"), CellTypeId(0), Point::new(gx, 0));
        c.pos = Some(Point::new(px, 0));
        d.add_cell(c);
    }
    d
}

#[test]
fn extension_joins_the_cells_it_binds() {
    // `fixed_order`'s trade shape: c0 sits 72 sites left of its GP behind
    // a chain at its GPs, and c4's fixed 45-site y displacement pins the
    // max-disp bounds, so the extension pays the chain to shift right
    // until c0 is 45 sites out.
    let mut d = row_design(&[(900, 100), (200, 200), (300, 300), (400, 400)]);
    let mut c4 = Cell::new("c4", CellTypeId(0), Point::new(1500, 450));
    c4.pos = Some(Point::new(1500, 0));
    d.add_cell(c4);
    let mut cfg = LegalizerConfig::total_displacement();
    cfg.n0_factor = 50;
    let weights = vec![1; d.cells.len()];
    let out = check_against_oracle(&d, &cfg, &weights, "trade");
    assert_eq!(out.xs[0].1, 450, "c0 ends 45 sites from its GP");
    let ext_cells = out.counters[3];
    assert!(
        ext_cells >= 4,
        "the chain carries the extension: {ext_cells}"
    );
    assert!(
        out.counters[2] > 0,
        "the extension is repaired in, not built in"
    );

    // Without the extension nothing prices it.
    cfg.n0_factor = 0;
    let plain = check_against_oracle(&d, &cfg, &weights, "plain");
    assert_eq!(plain.counters[3], 0);
}

#[test]
fn violated_dropped_pair_merges_and_resolves() {
    // C (weight 3) wants 20 sites right and pushes A along; A–B's slack
    // of 5 sites exceeds their summed distance from GP (0), so the pair is
    // dropped, and the first pass leaves A at 22 sites, past B at 10. The
    // merged component puts C at its GP with A and B abutted behind it.
    let d = row_design(&[(200, 0), (30, 30), (100, 100)]);
    let cfg = LegalizerConfig::total_displacement();
    let out = check_against_oracle(&d, &cfg, &[3, 1, 1], "drop");
    let xs: Vec<Dbu> = out.xs.iter().map(|&(_, x)| x).collect();
    assert_eq!(xs, [200, 220, 240]);
    assert_eq!(
        out.counters[..3],
        [1, 3, 1],
        "components, largest, repair rounds"
    );
    assert_eq!(out.stats.weighted_after, 33);
}

#[test]
fn largest_component_stays_local_at_20k() {
    // The `mclegal generate` design family at 20k cells.
    let gen = GeneratorConfig {
        num_cells: 20_000,
        density: 0.55,
        fences: 2,
        fence_cell_fraction: 0.15,
        seed: 1000,
        ..GeneratorConfig::default()
    };
    let design = generate(&gen).expect("generation succeeds").design;
    let mut cfg = LegalizerConfig::contest();
    cfg.threads = 2;
    let stats = Engine::new(cfg)
        .run_one(&design, RunSpec::Fresh)
        .expect("legalized")
        .stats;
    let cells = stats.fixed_order.cells as u64;
    let largest = stats.obs.counter(CounterKind::FixedOrderLargestComponent);
    let rounds = stats.obs.counter(CounterKind::FixedOrderRepairRounds);
    let components = stats.obs.counter(CounterKind::FixedOrderComponents);
    println!("{components} components, largest {largest} of {cells} cells, {rounds} repair rounds");
    assert!(cells >= 19_000, "{cells} cells in stage 3");
    assert!(
        4 * largest <= cells,
        "largest component {largest} of {cells} cells: does the relaxation still drop slack pairs?"
    );
    assert!(rounds <= 4, "{rounds} repair rounds");
}

/// The clean range as a site-by-site walk from `x_now`, stopped after
/// `v_pitch / site_width + 2` sites each way: the definition the closed
/// form must reproduce.
fn clean_range_by_steps(
    o: &RoutOracle<'_>,
    d: &Design,
    t: CellTypeId,
    row: usize,
    x_now: Dbu,
    lo: Dbu,
    hi: Dbu,
) -> (Dbu, Dbu) {
    if d.grid.v_pitch == 0 || d.grid.v_width == 0 {
        return (lo, hi);
    }
    if o.v_violations(t, row, x_now) > 0 {
        return (x_now, x_now);
    }
    let sw = d.tech.site_width;
    let max_steps = (d.grid.v_pitch / sw + 2) as usize;
    let mut l = x_now;
    for _ in 0..max_steps {
        if l - sw < lo || o.v_violations(t, row, l - sw) > 0 {
            break;
        }
        l -= sw;
    }
    let mut r = x_now;
    for _ in 0..max_steps {
        if r + sw > hi || o.v_violations(t, row, r + sw) > 0 {
            break;
        }
        r += sw;
    }
    (l.max(lo), r.min(hi))
}

/// A pin: layer (1–3, so both the stripe layer and the one below it
/// occur) and local x extent `[a, a + len)`.
fn arb_pin() -> impl Strategy<Value = (u8, Dbu, Dbu)> {
    (1u8..4, 0i64..60, 0i64..30)
}

proptest! {
    // A case is a few hundred oracle calls; exact stripe-edge hits need
    // many cases.
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn closed_form_clean_range_equals_the_walk(
        pins in prop::collection::vec(arb_pin(), 1..4),
        pitch in 1i64..420,
        width in 0i64..40,
        offset in -300i64..300,
        site in 0i64..200,
        row in 0usize..2,
        lo_sites in 0i64..60,
        hi_sites in 0i64..60,
        edge in 0u8..3,
        edge_sites in -12i64..12,
    ) {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 4000, 180));
        let sw = d.tech.site_width;
        let mut ct = CellType::new("p", 60, 1);
        for (i, &(layer, a, len)) in pins.iter().enumerate() {
            ct.pins.push(PinShape {
                name: format!("p{i}"),
                layer,
                rect: Rect::new(a, 40, a + len, 50),
            });
        }
        d.add_cell_type(ct);
        let x_now = 1000 + site * sw;
        // On request, put an end of the first pin's dirty interval
        // `(c − b − ⌊w/2⌋, c − a + ⌈w/2⌉)` for the stripe at `c = offset`
        // exactly on a site `edge_sites` from `x_now`: the open left end
        // (edge 1) or the open right end (edge 2).
        let (a, b) = (pins[0].1, pins[0].1 + pins[0].2);
        let at = x_now + edge_sites * sw;
        let offset = match edge {
            1 => at + b + width / 2,
            2 => at + a - width / 2 - (width & 1),
            _ => offset,
        };
        d.grid = PowerGrid {
            h_layer: 2,
            h_width: 0,
            h_pitch_rows: 1,
            v_layer: 3,
            v_width: width,
            v_pitch: pitch,
            v_offset: offset,
        };
        let o = RoutOracle::new(&d);
        let t = CellTypeId(0);
        let (lo, hi) = (x_now - lo_sites * sw, x_now + hi_sites * sw);
        prop_assert_eq!(
            o.clean_x_range(t, row, x_now, lo, hi),
            clean_range_by_steps(&o, &d, t, row, x_now, lo, hi)
        );
    }
}
