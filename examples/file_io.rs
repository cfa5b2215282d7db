//! File I/O round trip: generate a benchmark, export it as Bookshelf and
//! LEF/DEF, read both back, legalize the parsed design and export the
//! placed DEF.
//!
//! ```sh
//! cargo run --release --example file_io
//! ```

use mclegal::core::{Engine, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;
use mclegal::gen::{generate, GeneratorConfig};
use mclegal::parsers;

fn main() {
    let config = GeneratorConfig {
        name: "file_io".into(),
        num_cells: 800,
        density: 0.6,
        fences: 1,
        fence_cell_fraction: 0.2,
        io_pins: 20,
        nets: 300,
        ..GeneratorConfig::default()
    };
    let generated = generate(&config).expect("generation succeeds");
    let design = &generated.design;

    let dir = std::path::Path::new("results/file_io");
    std::fs::create_dir_all(dir).unwrap();

    // --- Bookshelf round trip -------------------------------------------
    let bundle = parsers::write_bookshelf(design);
    for (name, text) in [
        ("design.nodes", &bundle.nodes),
        ("design.pl", &bundle.pl),
        ("design.scl", &bundle.scl),
        ("design.nets", &bundle.nets),
        ("design.fence", &bundle.fence),
        ("design.rails", &bundle.rails),
    ] {
        std::fs::write(dir.join(name), text).unwrap();
    }
    let parsed = parsers::read_bookshelf(&bundle).expect("bookshelf parses");
    assert_eq!(parsed.cells.len(), design.cells.len());
    println!(
        "bookshelf round trip: {} cells, {} nets, {} fences",
        parsed.cells.len(),
        parsed.nets.len(),
        parsed.fences.len() - 1
    );

    // --- LEF/DEF round trip ----------------------------------------------
    let lef = parsers::write_lef(design);
    let def = parsers::write_def(design);
    std::fs::write(dir.join("design.lef"), &lef).unwrap();
    std::fs::write(dir.join("design.def"), &def).unwrap();
    let lib = parsers::read_lef(&lef).expect("LEF parses");
    let parsed_def = parsers::read_def(&def, &lib).expect("DEF parses");
    assert_eq!(parsed_def.cells.len(), design.cells.len());
    println!(
        "LEF/DEF round trip: {} macros, {} components",
        lib.macros.len(),
        parsed_def.cells.len()
    );

    // --- Legalize the parsed design and export the result ----------------
    let placed = Engine::new(LegalizerConfig::contest())
        .run_one(&parsed_def, &RunSpec::default())
        .expect("fault-free run")
        .design;
    let report = Checker::new(&placed).check();
    assert!(report.is_legal(), "{:?}", report.details);
    let out = parsers::write_def(&placed);
    std::fs::write(dir.join("design_placed.def"), out).unwrap();
    let m = Metrics::measure(&placed);
    println!(
        "legalized parsed design: avg {:.3} rows, max {:.1} rows -> results/file_io/design_placed.def",
        m.avg_disp_rows, m.max_disp_rows
    );
}
