//! Differential test: the allocation-free insertion evaluation must return
//! bit-identical results to the seed-faithful reference implementation on
//! randomized designs, across cost-model variants and windows.
//!
//! The fast kernel prunes candidates with lower bounds that depend on the
//! weights, the penalties, the curve normalization and the oracle, and it
//! visits base rows in a different order than the reference; the cases
//! below vary each of those, including saturated windows where most
//! anchors are infeasible, multi-row targets among multi-row walls and
//! fence edges (where the feasible-x range empties or bounds a region), and
//! negative weights and penalties (where the cost bounds must stay off).

use mcl_core::config::DisplacementReference;
use mcl_core::insertion::{best_insertion_in, CostModel, InsertionScratch, ScratchStats};
use mcl_core::insertion_reference::best_insertion_reference;
use mcl_core::routability::RoutOracle;
use mcl_core::state::PlacementState;
use mcl_db::prelude::*;
use mcl_gen::{generate, GeneratorConfig};

/// One differential run: the design, the placed share and the cost model.
struct Case {
    seed: u64,
    reference: DisplacementReference,
    normalize: bool,
    use_oracle: bool,
    /// Cell `i` weighs `1 + i % max_weight`, negated when `i` is a multiple
    /// of `negate_every` (0: never).
    max_weight: i64,
    negate_every: usize,
    io_penalty: i64,
    rail_penalty: i64,
    density: f64,
    /// Generator share of cells 1..=4 rows tall.
    height_mix: [f64; 4],
    /// Only cells at least this many rows tall are insertion targets.
    min_rows: u32,
    /// Share of the cells placed at their golden positions before the rest
    /// are inserted, as `(numerator, denominator)`.
    placed: (usize, usize),
    /// Window half-extents `(x, y)` around each target's GP.
    windows: &'static [(Dbu, Dbu)],
}

impl Case {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            reference: DisplacementReference::Gp,
            normalize: true,
            use_oracle: false,
            max_weight: 3,
            negate_every: 0,
            io_penalty: 10,
            rail_penalty: 100,
            density: 0.6,
            height_mix: GeneratorConfig::default().height_mix,
            min_rows: 1,
            placed: (2, 3),
            windows: &[(240, 180), (900, 450)],
        }
    }
}

/// Runs `case` and returns `(feasible, infeasible)` query counts and the
/// fast kernel's work counters.
fn check(case: &Case) -> (usize, usize, ScratchStats) {
    let mut cfg = GeneratorConfig::small(case.seed);
    cfg.num_cells = 250;
    cfg.density = case.density;
    cfg.height_mix = case.height_mix;
    cfg.fences = 2;
    cfg.fence_cell_fraction = 0.15;
    cfg.io_pins = 20;
    let g = generate(&cfg).expect("generation succeeds");
    let d = &g.design;
    let n = d.cells.len();
    // Place a share of the cells at their legal golden positions; the
    // rest are insertion targets into a realistically crowded placement.
    let split = n * case.placed.0 / case.placed.1;
    let mut state = PlacementState::new(d);
    for i in 0..split {
        state
            .place(CellId(i as u32), g.golden[i])
            .expect("golden positions are legal");
    }
    let weights: Vec<i64> = (0..n)
        .map(|i| {
            let w = 1 + i as i64 % case.max_weight;
            if case.negate_every > 0 && i % case.negate_every == 0 {
                -w
            } else {
                w
            }
        })
        .collect();
    let oracle = RoutOracle::new(d);
    let model = CostModel {
        reference: case.reference,
        normalize: case.normalize,
        weights: &weights,
        oracle: case.use_oracle.then_some(&oracle),
        io_penalty: case.io_penalty,
        rail_penalty: case.rail_penalty,
    };
    let mut scratch = InsertionScratch::new();
    let (mut found, mut missed) = (0usize, 0usize);
    for i in split..n {
        let t = CellId(i as u32);
        if d.type_of(t).height_rows < case.min_rows {
            continue;
        }
        let gp = d.cells[i].gp;
        for &(wx, wy) in case.windows {
            let win = Rect::new(gp.x - wx, gp.y - wy, gp.x + wx, gp.y + wy);
            let fast = best_insertion_in(&state, t, win, &model, &mut scratch);
            let slow = best_insertion_reference(&state, t, win, &model);
            assert_eq!(fast, slow, "seed {} cell {i} window {win:?}", case.seed);
            if fast.is_some() {
                found += 1;
            } else {
                missed += 1;
            }
        }
    }
    assert!(
        found > 0,
        "test exercised no feasible insertions (seed {})",
        case.seed
    );
    (found, missed, scratch.stats)
}

#[test]
fn matches_reference_gp_mode() {
    check(&Case::new(11));
}

#[test]
fn matches_reference_current_mode() {
    check(&Case {
        reference: DisplacementReference::Current,
        ..Case::new(12)
    });
}

#[test]
fn matches_reference_unnormalized() {
    check(&Case {
        normalize: false,
        ..Case::new(13)
    });
}

#[test]
fn matches_reference_with_oracle() {
    for (seed, reference) in [
        (14, DisplacementReference::Gp),
        (15, DisplacementReference::Current),
    ] {
        check(&Case {
            reference,
            use_oracle: true,
            ..Case::new(seed)
        });
    }
}

#[test]
fn matches_reference_unnormalized_with_oracle() {
    check(&Case {
        normalize: false,
        use_oracle: true,
        ..Case::new(16)
    });
}

/// Heavy local cells make pushing costly and the region bound loose; a
/// heavy target makes `y_cost` dominate the row choice.
#[test]
fn matches_reference_with_weights_up_to_50() {
    for (seed, normalize, use_oracle) in [(17, true, false), (18, true, true), (19, false, true)] {
        check(&Case {
            normalize,
            use_oracle,
            max_weight: 50,
            ..Case::new(seed)
        });
    }
}

/// Zero penalties leave the curve minimum as the whole cost; large ones
/// make the routability alternates and the post-minimum bound decide.
#[test]
fn matches_reference_with_zero_and_large_penalties() {
    for (seed, io, rail) in [(20, 0, 0), (21, 1_000_000, 5_000_000), (22, 0, 1_000_000)] {
        check(&Case {
            use_oracle: true,
            io_penalty: io,
            rail_penalty: rail,
            max_weight: 7,
            ..Case::new(seed)
        });
    }
}

/// Dense designs with almost every cell placed and tight windows: most
/// anchors are infeasible and some windows have no insertion at all.
#[test]
fn matches_reference_in_saturated_windows() {
    let mut missed = 0;
    for (seed, use_oracle) in [(23, false), (24, true)] {
        missed += check(&Case {
            use_oracle,
            density: 0.9,
            placed: (19, 20),
            windows: &[(40, 90), (120, 180), (400, 270)],
            ..Case::new(seed)
        })
        .1;
    }
    assert!(missed > 0, "no window was saturated");
}

/// Multi-row targets (2-4 rows) in saturated, expanded windows, with many
/// multi-row cells as walls and two fences: the feasible-x range of a
/// region is the intersection over several rows, so it empties where each
/// row alone still has room, and it bounds regions whose room lies far
/// from the GP. Both exits must fire here, and change no result.
#[test]
fn matches_reference_for_multi_row_targets_in_saturated_windows() {
    let mut stats = ScratchStats::default();
    let mut missed = 0;
    for (seed, use_oracle, reference) in [
        (25, false, DisplacementReference::Gp),
        (26, true, DisplacementReference::Gp),
        (27, false, DisplacementReference::Current),
    ] {
        let (_, m, s) = check(&Case {
            reference,
            use_oracle,
            density: 0.9,
            height_mix: [0.4, 0.25, 0.2, 0.15],
            min_rows: 2,
            placed: (9, 10),
            windows: &[(120, 180), (400, 360), (900, 720)],
            ..Case::new(seed)
        });
        missed += m;
        stats.merge(&s);
    }
    assert!(missed > 0, "no multi-row window was saturated");
    assert!(stats.empty_ranges > 0, "{stats:?}");
    assert!(stats.range_prunes > 0, "{stats:?}");
}

/// Negative weights (on targets and local cells alike) void the cost
/// bounds, so every candidate must still be weighed; the feasible-x range
/// still rules out whole regions.
#[test]
fn matches_reference_with_negative_weights() {
    for (seed, normalize, use_oracle) in [(28, true, false), (29, false, true), (30, true, true)] {
        check(&Case {
            normalize,
            use_oracle,
            negate_every: 3,
            max_weight: 5,
            height_mix: [0.6, 0.2, 0.1, 0.1],
            ..Case::new(seed)
        });
    }
}

/// A negative penalty turns every cost bound off: no region may be pruned
/// by its bound, whatever the weights.
#[test]
fn matches_reference_with_negative_penalties() {
    for (seed, io, rail) in [
        (31, -50, 100),
        (32, 10, -1_000),
        (33, -7, -7),
        (34, -100_000, -100_000),
    ] {
        let (_, _, stats) = check(&Case {
            use_oracle: true,
            io_penalty: io,
            rail_penalty: rail,
            height_mix: [0.6, 0.2, 0.1, 0.1],
            density: 0.8,
            ..Case::new(seed)
        });
        assert_eq!(stats.range_prunes, 0, "seed {seed}: {stats:?}");
    }
}
