//! Named presets mirroring the published statistics of the paper's
//! benchmark suites (cell counts, multi-height mix, density).
//!
//! `scale` multiplies the cell counts (1.0 = published size); the default
//! harnesses run at 0.1 so a full table regenerates on a laptop in minutes.
//! Densities and height mixes are preserved exactly, which is what governs
//! legalization difficulty.

use crate::config::GeneratorConfig;

/// Statistics of one IC/CAD 2017 contest benchmark (Table 1).
#[derive(Debug, Clone, Copy)]
pub struct Iccad17Stats {
    /// Benchmark name.
    pub name: &'static str,
    /// Total number of cells.
    pub cells: usize,
    /// Cells of height 2, 3, 4 rows.
    pub multi: [usize; 3],
    /// Published design density.
    pub density: f64,
}

/// The 16 Table-1 benchmarks (statistics transcribed from the paper).
pub const ICCAD17: [Iccad17Stats; 16] = [
    Iccad17Stats {
        name: "des_perf_1",
        cells: 112_644,
        multi: [0, 0, 0],
        density: 0.906,
    },
    Iccad17Stats {
        name: "des_perf_a_md1",
        cells: 103_589,
        multi: [11_313, 1_815, 0],
        density: 0.551,
    },
    Iccad17Stats {
        name: "des_perf_a_md2",
        cells: 105_030,
        multi: [1_086, 1_086, 1_086],
        density: 0.559,
    },
    Iccad17Stats {
        name: "des_perf_b_md1",
        cells: 106_782,
        multi: [5_862, 0, 0],
        density: 0.550,
    },
    Iccad17Stats {
        name: "des_perf_b_md2",
        cells: 101_908,
        multi: [6_781, 2_260, 1_695],
        density: 0.647,
    },
    Iccad17Stats {
        name: "edit_dist_1_md1",
        cells: 118_005,
        multi: [7_994, 2_664, 1_998],
        density: 0.674,
    },
    Iccad17Stats {
        name: "edit_dist_a_md2",
        cells: 115_066,
        multi: [7_799, 2_599, 1_949],
        density: 0.594,
    },
    Iccad17Stats {
        name: "edit_dist_a_md3",
        cells: 119_616,
        multi: [2_599, 2_599, 2_599],
        density: 0.572,
    },
    Iccad17Stats {
        name: "fft_2_md2",
        cells: 28_930,
        multi: [2_117, 705, 529],
        density: 0.827,
    },
    Iccad17Stats {
        name: "fft_a_md2",
        cells: 27_431,
        multi: [2_018, 672, 504],
        density: 0.323,
    },
    Iccad17Stats {
        name: "fft_a_md3",
        cells: 28_609,
        multi: [672, 672, 672],
        density: 0.312,
    },
    Iccad17Stats {
        name: "pci_bridge32_a_md1",
        cells: 26_680,
        multi: [1_792, 597, 448],
        density: 0.495,
    },
    Iccad17Stats {
        name: "pci_bridge32_a_md2",
        cells: 25_239,
        multi: [2_090, 1_194, 994],
        density: 0.577,
    },
    Iccad17Stats {
        name: "pci_bridge32_b_md1",
        cells: 26_134,
        multi: [585, 439, 292],
        density: 0.266,
    },
    Iccad17Stats {
        name: "pci_bridge32_b_md2",
        cells: 28_038,
        multi: [292, 292, 292],
        density: 0.183,
    },
    Iccad17Stats {
        name: "pci_bridge32_b_md3",
        cells: 27_452,
        multi: [292, 585, 585],
        density: 0.222,
    },
];

/// Statistics of one ISPD-2015-derived benchmark of \[12\] (Table 2): 10% of
/// the cells are double-height, half-width.
#[derive(Debug, Clone, Copy)]
pub struct Ispd15Stats {
    /// Benchmark name.
    pub name: &'static str,
    /// Total number of cells.
    pub cells: usize,
    /// Published design density.
    pub density: f64,
}

/// The 20 Table-2 benchmarks.
pub const ISPD15: [Ispd15Stats; 20] = [
    Ispd15Stats {
        name: "des_perf_1",
        cells: 112_644,
        density: 0.9058,
    },
    Ispd15Stats {
        name: "des_perf_a",
        cells: 108_292,
        density: 0.4290,
    },
    Ispd15Stats {
        name: "des_perf_b",
        cells: 112_644,
        density: 0.4971,
    },
    Ispd15Stats {
        name: "edit_dist_a",
        cells: 127_419,
        density: 0.4554,
    },
    Ispd15Stats {
        name: "fft_1",
        cells: 32_281,
        density: 0.8355,
    },
    Ispd15Stats {
        name: "fft_2",
        cells: 32_281,
        density: 0.4997,
    },
    Ispd15Stats {
        name: "fft_a",
        cells: 30_631,
        density: 0.2509,
    },
    Ispd15Stats {
        name: "fft_b",
        cells: 30_631,
        density: 0.2819,
    },
    Ispd15Stats {
        name: "matrix_mult_1",
        cells: 155_325,
        density: 0.8024,
    },
    Ispd15Stats {
        name: "matrix_mult_2",
        cells: 155_325,
        density: 0.7903,
    },
    Ispd15Stats {
        name: "matrix_mult_a",
        cells: 149_655,
        density: 0.4195,
    },
    Ispd15Stats {
        name: "matrix_mult_b",
        cells: 146_442,
        density: 0.3090,
    },
    Ispd15Stats {
        name: "matrix_mult_c",
        cells: 146_442,
        density: 0.3083,
    },
    Ispd15Stats {
        name: "pci_bridge32_a",
        cells: 29_521,
        density: 0.3839,
    },
    Ispd15Stats {
        name: "pci_bridge32_b",
        cells: 28_920,
        density: 0.1430,
    },
    Ispd15Stats {
        name: "superblue11_a",
        cells: 927_074,
        density: 0.4292,
    },
    Ispd15Stats {
        name: "superblue12",
        cells: 1_287_037,
        density: 0.4472,
    },
    Ispd15Stats {
        name: "superblue14",
        cells: 612_583,
        density: 0.5578,
    },
    Ispd15Stats {
        name: "superblue16_a",
        cells: 680_869,
        density: 0.4785,
    },
    Ispd15Stats {
        name: "superblue19",
        cells: 506_383,
        density: 0.5233,
    },
];

/// Generator configuration for one Table-1 benchmark at `scale`.
pub fn iccad17_config(stats: &Iccad17Stats, scale: f64) -> GeneratorConfig {
    let cells = scaled(stats.cells, scale);
    let multi: Vec<f64> = stats
        .multi
        .iter()
        .map(|&m| m as f64 / stats.cells as f64)
        .collect();
    let single = 1.0 - multi.iter().sum::<f64>();
    GeneratorConfig {
        name: stats.name.to_string(),
        seed: hash_name(stats.name),
        num_cells: cells,
        height_mix: [single, multi[0], multi[1], multi[2]],
        // Cap extreme densities: the packer needs a little slack to absorb
        // multi-row fragmentation at small scales.
        density: stats.density.min(0.88),
        sigma_rows: 2.0,
        hotspots: 4,
        hotspot_strength: 0.75,
        hotspot_radius: 0.10,
        fences: 4,
        fence_cell_fraction: 0.15,
        edge_classes: 3,
        edge_spacing_sites: 2,
        rails: true,
        io_pins: (cells / 100).max(8),
        nets: cells / 2,
        net_degree: (2, 5),
        aspect: 1.2,
    }
}

/// Generator configuration for one Table-2 benchmark at `scale`:
/// 10% double-height cells, no fences, no routability features (the paper
/// disables them for this comparison).
pub fn ispd15_config(stats: &Ispd15Stats, scale: f64) -> GeneratorConfig {
    let cells = scaled(stats.cells, scale);
    GeneratorConfig {
        name: stats.name.to_string(),
        seed: hash_name(stats.name) ^ 0x15bd,
        num_cells: cells,
        height_mix: [0.90, 0.10, 0.0, 0.0],
        density: stats.density.min(0.88),
        sigma_rows: 2.0,
        hotspots: 2,
        hotspot_strength: 0.5,
        hotspot_radius: 0.08,
        fences: 0,
        fence_cell_fraction: 0.0,
        edge_classes: 1,
        edge_spacing_sites: 0,
        rails: false,
        io_pins: 0,
        nets: 0,
        net_degree: (2, 5),
        aspect: 1.2,
    }
}

/// The golden end-to-end corpus: four small fully deterministic designs
/// exercising distinct stress axes. The golden-corpus test legalizes each
/// one and diffs the run report's golden subset against a checked-in
/// snapshot, so these configurations must never change silently — treat
/// every field as part of the snapshot contract.
pub fn golden_corpus() -> Vec<GeneratorConfig> {
    let base = GeneratorConfig {
        seed: 0,
        num_cells: 500,
        height_mix: [0.82, 0.10, 0.05, 0.03],
        density: 0.6,
        sigma_rows: 2.5,
        hotspots: 0,
        hotspot_strength: 0.0,
        hotspot_radius: 0.0,
        fences: 0,
        fence_cell_fraction: 0.0,
        edge_classes: 3,
        edge_spacing_sites: 2,
        rails: true,
        io_pins: 12,
        nets: 200,
        net_degree: (2, 5),
        aspect: 1.3,
        name: String::new(),
    };
    vec![
        // Plain mixed-height design: the baseline of the corpus.
        GeneratorConfig {
            name: "golden_uniform".into(),
            seed: hash_name("golden_uniform"),
            ..base.clone()
        },
        // Fence-heavy: many regions, nearly half the cells fenced, so both
        // MGL fence filtering and the fence-aware matching stage are hot.
        GeneratorConfig {
            name: "golden_fence_heavy".into(),
            seed: hash_name("golden_fence_heavy"),
            num_cells: 600,
            fences: 6,
            fence_cell_fraction: 0.45,
            ..base.clone()
        },
        // Parity-stressing: mostly even-height cells, whose legal rows are
        // constrained by rail parity, plus rails on.
        GeneratorConfig {
            name: "golden_parity".into(),
            seed: hash_name("golden_parity"),
            num_cells: 400,
            height_mix: [0.30, 0.40, 0.10, 0.20],
            density: 0.5,
            ..base.clone()
        },
        // Dense with GP hotspots: windows overflow and expand, exercising
        // the expansion/fallback paths.
        GeneratorConfig {
            name: "golden_hotspot_dense".into(),
            seed: hash_name("golden_hotspot_dense"),
            num_cells: 700,
            density: 0.78,
            hotspots: 4,
            hotspot_strength: 0.8,
            hotspot_radius: 0.12,
            sigma_rows: 3.0,
            ..base
        },
    ]
}

fn scaled(cells: usize, scale: f64) -> usize {
    ((cells as f64 * scale).round() as usize).max(200)
}

/// Stable name hash for per-benchmark seeds.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use mcl_db::prelude::FenceId;

    #[test]
    fn suites_have_published_sizes() {
        assert_eq!(ICCAD17.len(), 16);
        assert_eq!(ISPD15.len(), 20);
        let c = iccad17_config(&ICCAD17[0], 1.0);
        assert_eq!(c.num_cells, 112_644);
        let c = iccad17_config(&ICCAD17[0], 0.1);
        assert_eq!(c.num_cells, 11_264);
    }

    #[test]
    fn every_iccad17_preset_generates_at_small_scale() {
        for stats in &ICCAD17 {
            let cfg = iccad17_config(stats, 0.02);
            let g = generate(&cfg).unwrap_or_else(|e| panic!("{}: {e}", stats.name));
            assert!(g.design.cells.len() >= 200, "{}", stats.name);
        }
    }

    #[test]
    fn every_ispd15_preset_generates_at_small_scale() {
        for stats in &ISPD15 {
            let cfg = ispd15_config(stats, 0.01);
            let g = generate(&cfg).unwrap_or_else(|e| panic!("{}: {e}", stats.name));
            // 10% double height.
            let doubles = g
                .design
                .movable_cells()
                .filter(|&c| g.design.type_of(c).height_rows == 2)
                .count();
            let frac = doubles as f64 / g.design.cells.len() as f64;
            assert!((frac - 0.10).abs() < 0.04, "{}: {frac}", stats.name);
        }
    }

    #[test]
    fn seeds_differ_per_benchmark() {
        assert_ne!(hash_name("fft_1"), hash_name("fft_2"));
    }

    #[test]
    fn golden_corpus_generates_with_requested_stresses() {
        let corpus = golden_corpus();
        assert_eq!(corpus.len(), 4);
        for cfg in &corpus {
            let g = generate(cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            assert_eq!(g.design.cells.len(), cfg.num_cells, "{}", cfg.name);
            assert_eq!(g.design.fences.len() - 1, cfg.fences, "{}", cfg.name);
        }
        // Generation is deterministic: same config, same design.
        let a = generate(&corpus[0]).unwrap();
        let b = generate(&corpus[0]).unwrap();
        assert_eq!(a.design.cells.len(), b.design.cells.len());
        for (ca, cb) in a.design.cells.iter().zip(&b.design.cells) {
            assert_eq!(ca.gp, cb.gp, "{}", ca.name);
        }
        let fenced = |g: &crate::Generated| {
            g.design
                .cells
                .iter()
                .filter(|c| c.fence != FenceId::DEFAULT)
                .count()
        };
        let heavy = generate(&corpus[1]).unwrap();
        assert!(
            fenced(&heavy) >= corpus[1].num_cells / 3,
            "fence-heavy corpus entry must actually fence cells: {}",
            fenced(&heavy)
        );
        let parity = generate(&corpus[2]).unwrap();
        let even = parity
            .design
            .movable_cells()
            .filter(|&c| parity.design.type_of(c).height_rows % 2 == 0)
            .count();
        assert!(
            even * 2 >= parity.design.cells.len(),
            "parity corpus entry must be majority even-height: {even}"
        );
    }
}
