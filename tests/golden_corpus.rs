//! Golden end-to-end corpus: legalize the four deterministic corpus
//! designs (`mcl_gen::presets::golden_corpus`) through the full contest
//! pipeline and diff each run report's golden subset against the
//! checked-in snapshot in `tests/goldens/`.
//!
//! To bless new snapshots after an intentional behavior or schema change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_corpus
//! ```

use mclegal::core::{
    build_run_report, Engine, LegalizerConfig, RunOutput, RunSpec, Stage, StageSet,
};
use mclegal::db::prelude::*;
use mclegal::gen::generate;
use mclegal::gen::presets::golden_corpus;
use std::fs;
use std::path::PathBuf;

/// Diffs (or, under `UPDATE_GOLDENS=1`, blesses) one golden-subset JSON
/// against its snapshot, appending to `mismatches`.
fn check_snapshot(name: &str, json: &str, mismatches: &mut Vec<String>) {
    let bless = std::env::var_os("UPDATE_GOLDENS").is_some();
    let path = golden_path(name);
    if bless {
        fs::write(&path, format!("{json}\n")).unwrap();
        return;
    }
    match fs::read_to_string(&path) {
        Ok(want) if want.trim_end() == json => {}
        Ok(want) => mismatches.push(format!(
            "{name}:\n  snapshot: {}\n  actual:   {json}",
            want.trim_end()
        )),
        Err(e) => mismatches.push(format!(
            "{name}: cannot read {}: {e} (bless with UPDATE_GOLDENS=1)",
            path.display()
        )),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}

/// The pinned corpus configuration: the snapshots are taken at two threads
/// (honored exactly, so CI core counts don't matter), which the scheduler
/// guarantees is bit-identical to any other thread count.
///
/// The `threads` field of a report records this knob, so snapshots only
/// match runs at two threads; [`golden_subset_is_identical_across_thread_counts`]
/// pins every other field at 1, 2 and 4.
fn corpus_config() -> LegalizerConfig {
    let mut lc = LegalizerConfig::contest();
    lc.threads = 2;
    lc
}

/// A fault-free solo run of `design`.
fn solo_run(config: &LegalizerConfig, design: &Design, spec: RunSpec) -> RunOutput {
    Engine::new(config.clone())
        .run_one(design, spec)
        .unwrap_or_else(|e| panic!("{}: {e}", design.name))
}

#[test]
fn golden_corpus_reports_match_snapshots() {
    let bless = std::env::var_os("UPDATE_GOLDENS").is_some();
    let lc = corpus_config();
    let mut mismatches = Vec::new();
    for gen_cfg in golden_corpus() {
        let g = generate(&gen_cfg).unwrap_or_else(|e| panic!("{}: {e}", gen_cfg.name));
        let RunOutput {
            design: placed,
            stats,
            ..
        } = solo_run(&lc, &g.design, RunSpec::default());
        // The corpus must stay fully solvable: snapshots of broken runs
        // would freeze the breakage in.
        assert_eq!(stats.mgl.failed, 0, "{} failed cells", gen_cfg.name);
        let rep = Checker::new(&placed).check();
        assert!(rep.is_legal(), "{}: {:?}", gen_cfg.name, rep.details);

        let json = build_run_report(&placed, &stats, &lc).golden_json();
        let path = golden_path(&gen_cfg.name);
        if bless {
            fs::write(&path, format!("{json}\n")).unwrap();
            continue;
        }
        match fs::read_to_string(&path) {
            Ok(want) if want.trim_end() == json => {}
            Ok(want) => mismatches.push(format!(
                "{}:\n  snapshot: {}\n  actual:   {json}",
                gen_cfg.name,
                want.trim_end()
            )),
            Err(e) => mismatches.push(format!(
                "{}: cannot read {}: {e} (bless with UPDATE_GOLDENS=1)",
                gen_cfg.name,
                path.display()
            )),
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden corpus drifted — if intentional, re-bless with \
         UPDATE_GOLDENS=1 cargo test --test golden_corpus\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn engine_batch_matches_individual_goldens() {
    // A batched Engine run over the whole corpus must hit the *same*
    // snapshots as the per-design runs above: running designs side by
    // side on runners is pure scheduling, never visible in results.
    let lc = corpus_config();
    let designs: Vec<Design> = golden_corpus()
        .iter()
        .map(|c| {
            generate(c)
                .unwrap_or_else(|e| panic!("{}: {e}", c.name))
                .design
        })
        .collect();
    let mut engine = Engine::new(lc.clone());
    let results = engine.run(&designs, RunSpec::default());
    assert_eq!(
        engine.diag().helpers,
        0,
        "a batch at least as wide as the thread budget runs all-runner, no helpers"
    );
    let mut mismatches = Vec::new();
    for (cfg, result) in golden_corpus().iter().zip(&results) {
        let out = result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        assert_eq!(out.stats.mgl.failed, 0, "{} failed cells", cfg.name);
        let json = build_run_report(&out.design, &out.stats, &lc).golden_json();
        check_snapshot(&cfg.name, &json, &mut mismatches);
    }
    assert!(
        mismatches.is_empty(),
        "engine batch drifted from the per-design goldens\n{}",
        mismatches.join("\n")
    );
}

/// The ECO golden scenario: stage-1-legalize `golden_uniform`, insert a
/// deterministic dozen of new unplaced cells, and ECO-legalize through the
/// engine. Returns the design ready for an ECO run ([`RunSpec::Eco`]).
fn eco_scenario() -> Design {
    let gen_cfg = golden_corpus()
        .into_iter()
        .find(|c| c.name == "golden_uniform")
        .unwrap();
    let g = generate(&gen_cfg).unwrap_or_else(|e| panic!("{e}"));
    let mut stage1 = corpus_config();
    stage1.stages = StageSet::of(&[Stage::Mgl]);
    let base = solo_run(&stage1, &g.design, RunSpec::default());
    assert_eq!(base.stats.mgl.failed, 0, "eco base must be fully placed");
    let mut placed = base.design;
    placed.name = "golden_eco".into();
    // Deterministic ECO insertions: a dozen single-height cells on a fixed
    // xorshift stream, scattered over the core.
    let mut s = 0x00c0_ffeeu64 | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let core = placed.core;
    for i in 0..12 {
        let x = core.xl + (rng() % (core.xh - core.xl).unsigned_abs()) as Dbu;
        let y = core.yl + (rng() % (core.yh - core.yl).unsigned_abs()) as Dbu;
        placed.add_cell(Cell::new(
            format!("eco{i}"),
            CellTypeId(0),
            Point::new(x, y),
        ));
    }
    placed
}

#[test]
fn golden_eco_report_matches_snapshot() {
    let lc = corpus_config();
    let design = eco_scenario();
    let RunOutput {
        design: placed,
        stats,
        ..
    } = solo_run(&lc, &design, RunSpec::Eco);
    assert_eq!(stats.mgl.failed, 0, "eco insertions must all place");
    let rep = Checker::new(&placed).check();
    assert!(rep.is_legal(), "{:?}", rep.details);

    let json = build_run_report(&placed, &stats, &lc).golden_json();
    let mut mismatches = Vec::new();
    check_snapshot("golden_eco", &json, &mut mismatches);
    assert!(
        mismatches.is_empty(),
        "ECO golden drifted — if intentional, re-bless with \
         UPDATE_GOLDENS=1 cargo test --test golden_corpus\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_subset_is_identical_across_thread_counts() {
    // One MGL algorithm at every thread count: 1 (inline rounds), 2 and 4
    // (pooled rounds) must reproduce the snapshot, positions and replay log
    // included.
    let gen_cfg = golden_corpus()
        .into_iter()
        .find(|c| c.name == "golden_fence_heavy")
        .unwrap();
    let design = generate(&gen_cfg).unwrap().design;
    let snapshot = fs::read_to_string(golden_path(&gen_cfg.name)).unwrap();
    let mut reference: Option<RunOutput> = None;
    for threads in [1usize, 2, 4] {
        let mut lc = corpus_config();
        lc.threads = threads;
        let out = solo_run(&lc, &design, RunSpec::default());
        // The threads field describes the run configuration; everything
        // else must be bit-identical.
        let mut report = build_run_report(&out.design, &out.stats, &lc);
        report.threads = 2;
        assert_eq!(
            snapshot.trim_end(),
            report.golden_json(),
            "{threads} threads: report drifted from the snapshot"
        );
        if let Some(r) = &reference {
            let positions = |d: &Design| d.cells.iter().map(|c| c.pos).collect::<Vec<_>>();
            assert_eq!(
                positions(&r.design),
                positions(&out.design),
                "{threads} threads"
            );
            assert_eq!(r.stats, out.stats, "{threads} threads: stats");
            assert_eq!(r.replay, out.replay, "{threads} threads: replay log");
        } else {
            reference = Some(out);
        }
    }
}

#[test]
fn snapshots_carry_current_schema_version() {
    // A schema bump without a re-bless must fail loudly (CI also guards
    // this); the marker below is the first field of every golden file.
    let marker = format!(
        "{{\"schema_version\":{}",
        mclegal::obs::report::SCHEMA_VERSION
    );
    for gen_cfg in golden_corpus() {
        let path = golden_path(&gen_cfg.name);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing snapshot {} ({e}); bless with UPDATE_GOLDENS=1",
                path.display()
            )
        });
        assert!(
            text.starts_with(&marker),
            "{}: schema version drifted; re-bless the goldens",
            gen_cfg.name
        );
    }
}
