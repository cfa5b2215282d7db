//! Golden tests for the CLI's typed exit codes and the batch
//! fault-containment contract.
//!
//! The `mclegal` binary promises one exit code per failure class (usage=2,
//! parse=3, infeasible=4, internal=5; see README) and that `legalize
//! --batch` records a per-job failure row for a corrupt bundle instead of
//! aborting the whole batch. Both are externally observable behavior, so
//! they are pinned here by driving the real binary.

use mclegal::db::prelude::*;
use mclegal::db::score::Metrics;
use mclegal::parsers;
use mclegal::serve::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn mclegal() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mclegal"))
}

fn exit_code(out: &std::process::Output) -> i32 {
    out.status.code().expect("CLI must exit, not die by signal")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mclegal_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small messy design that legalizes quickly.
fn small_design(name: &str, seed: u64) -> Design {
    let mut d = Design::new(name, Technology::example(), Rect::new(0, 0, 2000, 1800));
    d.add_cell_type(CellType::new("s", 20, 1));
    d.add_cell_type(CellType::new("d", 30, 2));
    let mut s = seed | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in 0..80 {
        let t = CellTypeId(u32::from(rng() % 5 == 0));
        let x = (rng() % 1900) as Dbu;
        let y = (rng() % 1600) as Dbu;
        d.add_cell(Cell::new(format!("c{i}"), t, Point::new(x, y)));
    }
    d
}

fn write_bundle(root: &Path, name: &str, seed: u64) -> PathBuf {
    let dir = root.join(name);
    let d = small_design(name, seed);
    parsers::write_bookshelf_dir(&d, &dir, name).unwrap();
    dir
}

#[test]
fn usage_errors_exit_2() {
    // No command at all.
    let out = mclegal().output().unwrap();
    assert_eq!(exit_code(&out), 2);
    // Unknown command.
    let out = mclegal().arg("frobnicate").output().unwrap();
    assert_eq!(exit_code(&out), 2);
    // legalize without an input.
    let out = mclegal().arg("legalize").output().unwrap();
    assert_eq!(exit_code(&out), 2);
    // Unknown mode, malformed stage spec, bad order, and flags the command
    // does not read (a typo must not fall back to the default).
    let dir = tmp_dir("usage");
    let bundle = write_bundle(&dir, "u0", 11);
    for extra in [
        ["--mode", "bogus"],
        ["--stages", "fixed,mgl"],
        ["--order", "nope"],
        ["--thread", "2"],
        ["--bogus-flag", "7"],
    ] {
        let out = mclegal()
            .args(["legalize", "--bookshelf", bundle.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(exit_code(&out), 2, "{extra:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parse_errors_exit_3() {
    // Nonexistent bundle directory.
    let out = mclegal()
        .args(["legalize", "--bookshelf", "/definitely/not/here"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 3);

    // A bundle with a corrupted .nodes file.
    let dir = tmp_dir("parse");
    let bundle = write_bundle(&dir, "p0", 13);
    let nodes = bundle.join("p0.nodes");
    let text = std::fs::read_to_string(&nodes).unwrap();
    std::fs::write(&nodes, mclegal::core::faultinject::corrupt_text(&text)).unwrap();
    let out = mclegal()
        .args(["legalize", "--bookshelf", bundle.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 3);

    // A zero-width node record is a parse error, not a panic (exit 101).
    let bundle = write_bundle(&dir, "p1", 13);
    let nodes = bundle.join("p1.nodes");
    let text = std::fs::read_to_string(&nodes).unwrap();
    let record = text.lines().find(|l| l.starts_with("c0 ")).unwrap();
    let height = record.split_whitespace().nth(2).unwrap();
    std::fs::write(&nodes, text.replacen(record, &format!("c0 0 {height}"), 1)).unwrap();
    let out = mclegal()
        .args(["legalize", "--bookshelf", bundle.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&out),
        3,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn infeasible_results_exit_4() {
    // `check` on an unplaced design: hard violations -> infeasible.
    let dir = tmp_dir("infeasible");
    let bundle = write_bundle(&dir, "i0", 17);
    let out = mclegal()
        .args(["check", "--bookshelf", bundle.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 4);

    // ECO adoption of a misaligned pre-placement is an infeasible seed.
    // The bundle's own .pl only seeds `gp` for movable cells, so the
    // pre-placement is overlaid explicitly with `--pl`.
    let mut d = small_design("i1", 19);
    for (i, c) in d.cells.iter_mut().enumerate() {
        c.pos = Some(Point::new(13 + i as Dbu, 7)); // misaligned, overlapping
    }
    let eco = dir.join("i1");
    parsers::write_bookshelf_dir(&d, &eco, "i1").unwrap();
    let pl = eco.join("i1.pl");
    let out = mclegal()
        .args(["legalize", "--bookshelf", eco.to_str().unwrap()])
        .args(["--pl", pl.to_str().unwrap()])
        .args(["--eco", "true", "--threads", "2"])
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&out),
        4,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `mclegal` with the whitespace-separated `args` (temp-dir paths
/// have no spaces) and asserts it exits 0.
fn run_ok(args: &str) {
    let out = mclegal().args(args.split_whitespace()).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 0, "{args} stderr: {stderr}");
}

#[test]
fn success_exits_0() {
    let dir = tmp_dir("ok");
    let bundle = write_bundle(&dir, "s0", 23);
    run_ok(&format!(
        "legalize --bookshelf {} --threads 2",
        bundle.display()
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--mode mll` is the MGL stage alone: its report times only `mgl`.
#[test]
fn mll_mode_reports_only_the_mgl_stage() {
    let dir = tmp_dir("mll");
    let (bundle, report) = (write_bundle(&dir, "m0", 29), dir.join("m0.json"));
    run_ok(&format!(
        "legalize --bookshelf {} --mode mll --report-json {}",
        bundle.display(),
        report.display()
    ));
    let json = parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let Some(Json::Obj(stages)) = json.get("stage_seconds") else {
        panic!("no stage_seconds object in {json:?}");
    };
    let names: Vec<&str> = stages.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["mgl"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A stage subset without `mgl` adopts the input placement and refines it:
/// the result is legal and no more displaced than its input.
#[test]
fn post_stages_refine_an_adopted_placement() {
    let dir = tmp_dir("post");
    let bundle = write_bundle(&dir, "p0", 31);
    let (placed, refined) = (dir.join("placed.pl"), dir.join("refined.pl"));
    let b = bundle.display();
    let (placed_pl, refined_pl) = (placed.display(), refined.display());
    run_ok(&format!(
        "legalize --bookshelf {b} --stages mgl --out-pl {placed_pl}"
    ));
    run_ok(&format!(
        "legalize --bookshelf {b} --pl {placed_pl} --stages maxdisp,fixed --out-pl {refined_pl}"
    ));
    run_ok(&format!("check --bookshelf {b} --pl {refined_pl}"));
    let total_disp = |pl: &Path| {
        let mut d = parsers::read_bookshelf_dir(&bundle).unwrap();
        parsers::bookshelf::apply_pl(&mut d, &std::fs::read_to_string(pl).unwrap()).unwrap();
        assert!(d.cells.iter().all(|c| c.pos.is_some()), "unplaced cells");
        Metrics::measure(&d).total_disp_dbu
    };
    assert!(total_disp(&refined) <= total_disp(&placed));
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a corrupt bundle among four must not abort the batch. The
/// three healthy jobs run, report, and write goldens; the corrupt one gets
/// a failure row (printed and persisted) and the command exits with the
/// infeasible code.
#[test]
fn batch_continues_past_corrupt_bundle() {
    let dir = tmp_dir("batch");
    let batch = dir.join("bundles");
    std::fs::create_dir_all(&batch).unwrap();
    for (k, name) in ["b0", "b1", "b2", "b3"].iter().enumerate() {
        write_bundle(&batch, name, 29 + k as u64);
    }
    // Corrupt b1's .nodes file.
    let nodes = batch.join("b1").join("b1.nodes");
    let text = std::fs::read_to_string(&nodes).unwrap();
    std::fs::write(&nodes, mclegal::core::faultinject::corrupt_text(&text)).unwrap();

    // `--threads 3 --max-inflight 2` pins the throttled regime: two
    // runner threads, the first with one MGL helper, so containment is
    // exercised with designs in flight side by side.
    let reports = dir.join("reports");
    let out = mclegal()
        .args(["legalize", "--batch", batch.to_str().unwrap()])
        .args(["--threads", "3", "--max-inflight", "2"])
        .args(["--report-dir", reports.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 4, "stdout: {stdout}");
    assert!(stdout.contains("designs/sec"), "stdout: {stdout}");
    // The three healthy jobs completed and reported.
    for name in ["b0", "b2", "b3"] {
        assert!(stdout.contains(name), "missing row for {name}: {stdout}");
        assert!(
            reports.join(format!("{name}.golden.json")).is_file(),
            "missing golden report for {name}"
        );
    }
    assert!(stdout.contains("FAILED (parse)"), "stdout: {stdout}");
    assert!(stdout.contains("3/4 designs"), "stdout: {stdout}");
    // The corrupt job left a failure record, not a report.
    let failure = std::fs::read_to_string(reports.join("b1.failure.json")).unwrap();
    assert!(failure.contains("\"class\":\"parse\""), "{failure}");
    assert!(!reports.join("b1.golden.json").exists());

    // The healthy jobs' reports are byte-identical to a batch without the
    // corrupt member: fault containment must not perturb survivors.
    let clean_batch = dir.join("clean");
    std::fs::create_dir_all(&clean_batch).unwrap();
    for (k, name) in ["b0", "b2", "b3"].iter().enumerate() {
        let seed = 29 + [0usize, 2, 3][k] as u64;
        write_bundle(&clean_batch, name, seed);
    }
    let clean_reports = dir.join("clean_reports");
    let out = mclegal()
        .args(["legalize", "--batch", clean_batch.to_str().unwrap()])
        .args(["--threads", "3", "--max-inflight", "2"])
        .args(["--report-dir", clean_reports.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0);
    for name in ["b0", "b2", "b3"] {
        let poisoned =
            std::fs::read_to_string(reports.join(format!("{name}.golden.json"))).unwrap();
        let clean =
            std::fs::read_to_string(clean_reports.join(format!("{name}.golden.json"))).unwrap();
        assert_eq!(poisoned, clean, "survivor {name} diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch run publishes reports tmp-then-rename, so a killed run leaves
/// `<file>.<n>.tmp` behind; the next `--report-dir` run sweeps them before
/// it writes, as the daemon's journal recovery does.
#[test]
fn batch_sweeps_stale_tmp_reports() {
    let dir = tmp_dir("sweep");
    let batch = dir.join("bundles");
    std::fs::create_dir_all(&batch).unwrap();
    write_bundle(&batch, "s0", 41);
    let reports = dir.join("reports");
    std::fs::create_dir_all(&reports).unwrap();
    let stale = reports.join("s0.golden.json.7.tmp");
    std::fs::write(&stale, "{\"torn\":").unwrap();
    let keep = reports.join("notes.txt");
    std::fs::write(&keep, "not a partial report").unwrap();

    let out = mclegal()
        .args(["legalize", "--batch", batch.to_str().unwrap()])
        .args(["--report-dir", reports.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&out),
        0,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stale.exists(), "stale partial report survived the batch");
    assert!(keep.is_file(), "the sweep removed a file that is not *.tmp");
    assert!(reports.join("s0.golden.json").is_file());
    std::fs::remove_dir_all(&dir).ok();
}
