//! `mclegal` — command-line interface to the legalizer.
//!
//! ```text
//! mclegal generate --preset iccad17:des_perf_1 --scale 0.05 --out bench/
//! mclegal generate --cells 5000 --density 0.7 --fences 2 --out bench/
//! mclegal legalize --bookshelf bench/ --mode contest --out-pl placed.pl --svg placed.svg
//! mclegal legalize --lef d.lef --def d.def --out-def placed.def
//! mclegal check   --bookshelf bench/
//! mclegal score   --bookshelf placed/
//! mclegal convert --bookshelf bench/ --out-def d.def --out-lef d.lef
//! ```
//!
//! Run `mclegal help` for the full flag list.
//!
//! # Exit codes
//!
//! Every failure class maps to a distinct process exit code (documented in
//! README, asserted by `tests/cli_exit_codes.rs`) so scripts and CI can
//! react without scraping stderr:
//!
//! | code | class      | meaning                                          |
//! |------|------------|--------------------------------------------------|
//! | 0    | success    | command completed                                |
//! | 2    | usage      | bad flags, unknown command/mode/stage spec       |
//! | 3    | parse      | unreadable or corrupt input                      |
//! | 4    | infeasible | result unacceptable: illegal placement, seed not |
//! |      |            | adoptable, or any batch job failed               |
//! | 5    | internal   | unexpected internal/environment failure          |

use mclegal::baselines;
use mclegal::core::pipeline;
use mclegal::core::{
    CellOrder, DisplacementReference, EcoSession, Engine, LegalizeError, LegalizerConfig, RunSpec,
};
use mclegal::db::prelude::*;
use mclegal::gen::{self, presets};
use mclegal::parsers;
use mclegal::serve::server::{write_failure_file, write_report_files};
use mclegal::viz;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A typed CLI failure; each class maps to a distinct exit code (see the
/// module docs).
#[derive(Debug)]
enum CliError {
    /// Bad flags or an unknown command/mode/stage spec — exit 2.
    Usage(String),
    /// Unreadable or corrupt input — exit 3.
    Parse(String),
    /// The run finished but the result is unacceptable — exit 4.
    Infeasible(String),
    /// Unexpected internal or environment failure — exit 5.
    Internal(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Parse(_) => 3,
            CliError::Infeasible(_) => 4,
            CliError::Internal(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Parse(m)
            | CliError::Infeasible(m)
            | CliError::Internal(m) => m,
        }
    }
}

/// Maps a terminal pipeline error to its CLI class: a rejected seed is an
/// input problem (infeasible), everything else is the tool's fault.
fn legalize_error(e: &LegalizeError) -> CliError {
    match e {
        LegalizeError::SeedRejected { .. } => CliError::Infeasible(e.to_string()),
        _ => CliError::Internal(e.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match Flags::parse(rest, command_flags(cmd).as_deref()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `rpc` maps the daemon's response statuses (a superset of the CLI
    // error classes: RETRY_AFTER=6, INTERRUPTED=7) straight to exit codes.
    if cmd == "rpc" {
        return cmd_rpc(&flags);
    }
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "legalize" => cmd_legalize(&flags),
        "serve" => cmd_serve(&flags),
        "check" => cmd_check(&flags),
        "score" => cmd_score(&flags),
        "convert" => cmd_convert(&flags),
        "presets" => cmd_presets(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "mclegal — mixed-cell-height legalization (DAC 2018 reproduction)

USAGE: mclegal <command> [flags]

COMMANDS
  generate   synthesize a benchmark
             --preset iccad17:<name> | ispd15:<name> | golden:<name>
                                use a paper preset or a golden-corpus design
             --scale <f>        preset scale factor (default 0.05; ignored
                                for golden: presets, which are pinned)
             --cells <n> --density <f> --fences <n> --seed <n>
             --out <dir>        write a Bookshelf bundle there (required)
  legalize   legalize a design
             --bookshelf <dir> | --lef <file> --def <file>   input (required)
             --batch <dir>      legalize every Bookshelf bundle subdirectory
                                of <dir> through one shared engine instead
                                (a corrupt or failing bundle is reported and
                                skipped; the rest of the batch still runs)
             --mode contest|total|mll    configuration (default contest)
             --threads <n>      thread budget (default 1): design runners
                                plus their helpers, which serve both MGL and
                                stage 2. Honored exactly; above the core
                                count helpers mostly wait and slow the run
             --max-inflight <n> batch: designs in flight at once (default:
                                --threads; fewer splits the leftover threads
                                among the in-flight designs as helpers —
                                results are identical either way)
             --stage-budget-secs <f>   per-run wall-clock budget; a stage
                                starting past it takes its degradation rung
                                (serial MGL / skip) instead of running
             --stages mgl,maxdisp,fixed   run this stage subset instead of
                                the mode's stages (skipping mgl adopts the
                                input placement)
             --order auto|gpx|height|shuffled|id   MGL cell order instead
                                of the mode's (contest: height, else auto)
             --baseline tetris|abacus|lcp   run a baseline instead
             --pl <file>        overlay a result .pl as the input placement
             --eco true|false      incremental: keep pre-placed cells
                                (default false; 1|0 also accepted)
             --eco-delta N[:SEED]  after legalizing, open a resident ECO
                                session over the result and push one
                                synthetic N-cell delta through the
                                dirty-window pipeline, printing the delta
                                latency and reuse telemetry
             --report true|false   print the structured run-report
                                summary (default false; 1|0 also accepted)
             --report-json <file>   write the full run report as JSON
             --report-dir <dir>   batch: write per-design run reports there
                                (<name>.json full, <name>.golden.json subset,
                                <name>.failure.json for failed jobs)
             --heatmap <file>   write the per-stage displacement/latency heatmap SVG
             --out-pl <file>    write placed .pl
             --out-def <file> --out-lef <file>   write placed DEF / LEF
             --svg <file>       write an SVG rendering
  serve      run the legalization daemon (newline-delimited JSON over TCP;
             see DESIGN.md §16 for the wire protocol)
             --addr <ip:port>   bind address (default 127.0.0.1:0; the
                                picked port is printed as `LISTENING <addr>`)
             --mode/--threads/--stage-budget-secs/--max-inflight/--order
                                engine config, as for `legalize`
             --queue-cap <n>    bounded admission queue (default 64); past
                                it jobs get RETRY_AFTER, never buffered
             --deadline-secs <f>   default per-job wall-clock budget
             --report-dir <dir> persist per-job reports (same files as
                                `legalize --batch --report-dir`)
             --journal <file>   write-ahead job journal; on restart,
                                accepted-but-unfinished jobs are reported
                                as INTERRUPTED failure records
             --idle-evict-secs <n>  evict idle ECO sessions (default 300)
             --retry-after-ms <n>   backpressure backoff hint (default 100)
             --admit-hold-secs <f>  test hook: delay handing out each job
             SIGTERM (or an `{\"op\":\"drain\"}` request) drains gracefully:
             stop admitting, finish in-flight jobs, flush, exit 0
  rpc        send one request line to a running daemon and print the
             response lines; exits with the final status mapped to the
             exit-code table below (+ RETRY_AFTER=6, INTERRUPTED=7)
             --addr <ip:port>   daemon address (required)
             --json '<line>'    the request object (required)
  check      run the legality/routability checker on a placed design
             --bookshelf <dir> | --lef <file> --def <file>
             --pl <file>        overlay a result .pl as the placement
  score      print metrics + contest score of a placed design
             --bookshelf <dir> | --lef <file> --def <file>
             --pl <file>        overlay a result .pl as the placement
  convert    convert between formats
             --bookshelf <dir> | --lef <file> --def <file>   input
             --out <dir> | --out-def <file> --out-lef <file>  output
             --out-pl <file> --svg <file>   also write a .pl / SVG
  presets    list the available paper presets

A flag may be given once per command.

EXIT CODES
  0 success | 2 usage | 3 parse/input | 4 infeasible result | 5 internal";

/// The flags `cmd` reads, or `None` for an unknown command. Any other flag
/// is a usage error, so a typo cannot silently fall back to a default.
fn command_flags(cmd: &str) -> Option<Vec<&'static str>> {
    const INPUT: &[&str] = &["bookshelf", "lef", "def", "pl"];
    const OUTPUT: &[&str] = &["out-pl", "out-def", "out-lef", "svg"];
    const ENGINE: &[&str] = &[
        "mode",
        "threads",
        "stage-budget-secs",
        "max-inflight",
        "order",
    ];
    let groups: &[&[&str]] = match cmd {
        "generate" => &[&[
            "preset", "scale", "cells", "density", "fences", "seed", "out",
        ]],
        "legalize" => &[
            INPUT,
            OUTPUT,
            ENGINE,
            &["batch", "stages", "baseline", "eco", "eco-delta"],
            &["report", "report-json", "report-dir", "heatmap"],
        ],
        "serve" => &[
            ENGINE,
            &[
                "addr",
                "queue-cap",
                "deadline-secs",
                "report-dir",
                "journal",
            ],
            &["idle-evict-secs", "retry-after-ms", "admit-hold-secs"],
        ],
        "rpc" => &[&["addr", "json"]],
        "check" | "score" => &[INPUT],
        "convert" => &[INPUT, OUTPUT, &["out"]],
        "presets" | "help" | "--help" | "-h" => &[],
        _ => return None,
    };
    Some(groups.concat())
}

#[derive(Default)]
struct Flags(HashMap<String, String>);

impl Flags {
    /// Parses `--key value` pairs; with `known`, a key outside it is an
    /// error, and so is a key given twice (a script that appends a flag it
    /// already passed must not change the run silently).
    fn parse(args: &[String], known: Option<&[&str]>) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            if known.is_some_and(|k| !k.contains(&key)) {
                return Err(format!("unknown flag --{key}"));
            }
            let val = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            if map.insert(key.to_string(), val.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Self(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// A boolean flag: absent is `false`; `true`/`1` and `false`/`0` are
    /// the only values.
    fn switch(&self, key: &str) -> Result<bool, CliError> {
        match self.get(key) {
            None | Some("false" | "0") => Ok(false),
            Some("true" | "1") => Ok(true),
            Some(v) => Err(CliError::Usage(format!(
                "--{key}: expected true|false|1|0, got {v:?}"
            ))),
        }
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("--{key}: cannot parse {v:?}"))),
        }
    }
}

fn load_design(flags: &Flags) -> Result<Design, CliError> {
    let mut design = if let Some(dir) = flags.get("bookshelf") {
        parsers::read_bookshelf_dir(Path::new(dir)).map_err(|e| CliError::Parse(e.to_string()))?
    } else if let (Some(lef), Some(def)) = (flags.get("lef"), flags.get("def")) {
        parsers::read_lefdef_files(Path::new(lef), Path::new(def))
            .map_err(|e| CliError::Parse(e.to_string()))?
    } else {
        return Err(CliError::Usage(
            "provide --bookshelf <dir> or --lef <file> --def <file>".into(),
        ));
    };
    // Optional placement overlay: original GP from the bundle, placements
    // from a result .pl file.
    if let Some(pl) = flags.get("pl") {
        let text =
            std::fs::read_to_string(pl).map_err(|e| CliError::Parse(format!("{pl}: {e}")))?;
        parsers::bookshelf::apply_pl(&mut design, &text)
            .map_err(|e| CliError::Parse(e.to_string()))?;
    }
    Ok(design)
}

fn cmd_generate(flags: &Flags) -> Result<(), CliError> {
    let out: PathBuf = flags
        .get("out")
        .ok_or_else(|| CliError::Usage("generate needs --out <dir>".into()))?
        .into();
    let config = if let Some(spec) = flags.get("preset") {
        let scale: f64 = flags.num("scale")?.unwrap_or(0.05);
        preset_config(spec, scale)?
    } else {
        let mut c = gen::GeneratorConfig::default();
        if let Some(n) = flags.num("cells")? {
            c.num_cells = n;
        }
        if let Some(d) = flags.num("density")? {
            c.density = d;
        }
        if let Some(f) = flags.num("fences")? {
            c.fences = f;
            c.fence_cell_fraction = if f > 0 { 0.15 } else { 0.0 };
        }
        if let Some(s) = flags.num("seed")? {
            c.seed = s;
        }
        c
    };
    let generated = gen::generate(&config).map_err(|e| CliError::Usage(e.to_string()))?;
    let d = &generated.design;
    parsers::write_bookshelf_dir(d, &out, &d.name)
        .map_err(|e| CliError::Internal(e.to_string()))?;
    println!(
        "generated {}: {} cells, {} rows, density {:.1}% -> {}",
        d.name,
        d.cells.len(),
        d.num_rows,
        100.0 * d.density(),
        out.display()
    );
    Ok(())
}

fn preset_config(spec: &str, scale: f64) -> Result<gen::GeneratorConfig, CliError> {
    let (suite, name) = spec.split_once(':').ok_or_else(|| {
        CliError::Usage("preset spec must be suite:name, e.g. iccad17:des_perf_1".into())
    })?;
    match suite {
        "iccad17" => presets::ICCAD17
            .iter()
            .find(|s| s.name == name)
            .map(|s| presets::iccad17_config(s, scale))
            .ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown iccad17 preset {name:?} (see `mclegal presets`)"
                ))
            }),
        "ispd15" => presets::ISPD15
            .iter()
            .find(|s| s.name == name)
            .map(|s| presets::ispd15_config(s, scale))
            .ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown ispd15 preset {name:?} (see `mclegal presets`)"
                ))
            }),
        // The golden corpus ignores --scale: its configurations are pinned
        // by the snapshot contract.
        "golden" => presets::golden_corpus()
            .into_iter()
            .find(|c| c.name == name)
            .ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown golden preset {name:?} (see `mclegal presets`)"
                ))
            }),
        other => Err(CliError::Usage(format!(
            "unknown suite {other:?} (iccad17, ispd15 or golden)"
        ))),
    }
}

/// Builds the legalizer configuration from `--mode`, `--threads`,
/// `--stage-budget-secs`, `--max-inflight` and `--order` (shared by
/// `legalize` and `serve`).
fn build_config(flags: &Flags) -> Result<LegalizerConfig, CliError> {
    let mut cfg = match flags.get("mode").unwrap_or("contest") {
        "contest" => LegalizerConfig::contest(),
        "total" => LegalizerConfig::total_displacement(),
        "mll" => LegalizerConfig::mll_baseline(),
        other => return Err(CliError::Usage(format!("unknown mode {other:?}"))),
    };
    if let Some(t) = flags.num("threads")? {
        // An explicit thread count is honored exactly (results are
        // thread-count invariant, so snapshots taken at --threads 2
        // reproduce at any thread count on any machine).
        cfg.threads = t;
    }
    if let Some(b) = flags.num("stage-budget-secs")? {
        cfg.stage_budget_secs = Some(b);
    }
    if let Some(m) = flags.num("max-inflight")? {
        cfg.max_inflight_designs = m;
    }
    if let Some(order) = flags.get("order") {
        cfg.order = match order {
            "auto" => CellOrder::Auto,
            "gpx" => CellOrder::GpX,
            "height" => CellOrder::HeightThenWidth,
            "shuffled" => CellOrder::HeightThenShuffled,
            "id" => CellOrder::Id,
            other => return Err(CliError::Usage(format!("unknown order {other:?}"))),
        };
    }
    debug_assert_eq!(
        LegalizerConfig::contest().reference,
        DisplacementReference::Gp
    );
    Ok(cfg)
}

/// What `legalize` runs per design: the mode's configuration with its
/// stage set replaced by `--stages`, seeded from the input positions under
/// `--eco true`.
fn legalize_run(flags: &Flags) -> Result<(LegalizerConfig, RunSpec), CliError> {
    let mut cfg = build_config(flags)?;
    if let Some(spec) = flags.get("stages") {
        cfg.stages =
            pipeline::parse_stages(spec).map_err(|e| CliError::Usage(format!("--stages: {e}")))?;
    }
    let eco = flags.switch("eco")?;
    Ok((cfg, if eco { RunSpec::Eco } else { RunSpec::Fresh }))
}

/// `--eco-delta N[:SEED]`: opens a resident [`EcoSession`] over the fresh
/// result and pushes one synthetic N-cell delta through the dirty-window
/// pipeline, printing the delta latency and reuse telemetry.
fn run_eco_delta(placed: &Design, cfg: LegalizerConfig, spec: &str) -> Result<(), CliError> {
    let (n_str, seed_str) = match spec.split_once(':') {
        Some((a, b)) => (a, Some(b)),
        None => (spec, None),
    };
    let n: usize = n_str
        .parse()
        .map_err(|_| CliError::Usage(format!("--eco-delta: cannot parse delta size {n_str:?}")))?;
    let seed: u64 = match seed_str {
        None => 1,
        Some(s) => s
            .parse()
            .map_err(|_| CliError::Usage(format!("--eco-delta: cannot parse seed {s:?}")))?,
    };
    let moves = EcoSession::synthesize_delta(placed, n, seed);
    let mut session = EcoSession::open(placed.clone(), cfg).map_err(|e| legalize_error(&e))?;
    let t = mclegal::obs::clock::Stopwatch::start();
    let (stats, _log) = session
        .apply_delta(&moves)
        .map_err(|e| legalize_error(&e))?;
    println!(
        "eco-delta: {} cells re-legalized in {:.2}ms (windows dirty {}, cells reused {})",
        moves.len(),
        t.elapsed_seconds() * 1e3,
        stats
            .obs
            .counter(mclegal::obs::CounterKind::EcoWindowsDirty),
        stats.obs.counter(mclegal::obs::CounterKind::EcoCellsReused),
    );
    Ok(())
}

fn cmd_legalize(flags: &Flags) -> Result<(), CliError> {
    let want_report = flags.switch("report")?;
    if flags.get("batch").is_some() {
        return cmd_legalize_batch(flags);
    }
    let design = load_design(flags)?;
    let t = mclegal::obs::clock::Stopwatch::start();
    let mut run_info: Option<(mclegal::core::LegalizeStats, LegalizerConfig)> = None;
    let placed = if let Some(b) = flags.get("baseline") {
        match b {
            "tetris" => baselines::legalize_tetris(&design).0,
            "abacus" => baselines::legalize_abacus(&design).0,
            "lcp" => baselines::legalize_lcp(&design).0,
            "mll" => baselines::legalize_mll(&design).0,
            other => return Err(CliError::Usage(format!("unknown baseline {other:?}"))),
        }
    } else {
        let (cfg, spec) = legalize_run(flags)?;
        let out = Engine::new(cfg.clone())
            .run_one(&design, spec)
            .map_err(|e| legalize_error(&e))?;
        run_info = Some((out.stats, cfg));
        out.design
    };
    let secs = t.elapsed_seconds();
    // Measured once for the printed lines and the run report alike.
    let (metrics, legality) = (Metrics::measure(&placed), Checker::new(&placed).check());
    print_report(&placed, &metrics, &legality);
    println!("runtime: {secs:.2}s");
    if let Some((stats, cfg)) = &run_info {
        if want_report || flags.get("report-json").is_some() || flags.get("heatmap").is_some() {
            let rep = mclegal::core::run_report_measured(&placed, stats, cfg, &metrics, &legality);
            if want_report {
                print!("{}", rep.summary());
            }
            if let Some(path) = flags.get("report-json") {
                std::fs::write(path, rep.to_json())
                    .map_err(|e| CliError::Internal(format!("{path}: {e}")))?;
                println!("[wrote {path}]");
            }
            if let Some(path) = flags.get("heatmap") {
                std::fs::write(path, viz::render_report_heatmap(&rep))
                    .map_err(|e| CliError::Internal(format!("{path}: {e}")))?;
                println!("[wrote {path}]");
            }
        }
    } else if flags.get("report").is_some()
        || flags.get("report-json").is_some()
        || flags.get("heatmap").is_some()
    {
        return Err(CliError::Usage(
            "--report/--report-json/--heatmap require the main legalizer (no --baseline)".into(),
        ));
    }
    if let Some(spec) = flags.get("eco-delta") {
        if run_info.is_none() {
            return Err(CliError::Usage(
                "--eco-delta requires the main legalizer (no --baseline)".into(),
            ));
        }
        // The session runs the mode's stages: `--stages` shapes the run
        // above, not the deltas.
        run_eco_delta(&placed, build_config(flags)?, spec)?;
    }
    write_outputs(flags, &placed)?;
    Ok(())
}

/// One failed batch job, for the summary row and the optional
/// `<name>.failure.json` record.
struct JobFailure {
    name: String,
    class: &'static str,
    message: String,
}

/// `legalize --batch <dir>`: legalize every Bookshelf bundle found in the
/// immediate subdirectories of `<dir>` (sorted by name) through one shared
/// [`Engine`], whose runners claim the bundles and split the thread
/// budget between them.
///
/// Fault containment: a bundle that fails to parse, fails to seed, or
/// exhausts its degradation ladder is recorded as a per-job failure row —
/// printed, and persisted as `<name>.failure.json` under `--report-dir` —
/// while every other job still runs and reports normally. The command exits
/// with the `infeasible` code when any job failed.
fn cmd_legalize_batch(flags: &Flags) -> Result<(), CliError> {
    let dir = PathBuf::from(
        flags
            .get("batch")
            .ok_or_else(|| CliError::Usage("missing --batch".into()))?,
    );
    if flags.get("baseline").is_some() {
        return Err(CliError::Usage(
            "--batch runs the main legalizer; drop --baseline".into(),
        ));
    }
    let mut bundles: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| CliError::Parse(format!("--batch {}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    bundles.sort();
    if bundles.is_empty() {
        return Err(CliError::Parse(format!(
            "--batch {}: no bundle subdirectories found",
            dir.display()
        )));
    }

    // Read every bundle; a corrupt one becomes a failure row instead of
    // sinking the whole batch.
    let mut designs: Vec<Design> = Vec::with_capacity(bundles.len());
    let mut failures: Vec<JobFailure> = Vec::new();
    for p in &bundles {
        let name = p
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.display().to_string());
        match parsers::read_bookshelf_dir(p) {
            Ok(d) => designs.push(d),
            Err(e) => {
                println!("{name:<24} FAILED (parse): {e}");
                failures.push(JobFailure {
                    name,
                    class: "parse",
                    message: format!("{}: {e}", p.display()),
                });
            }
        }
    }

    let (cfg, spec) = legalize_run(flags)?;
    let t = mclegal::obs::clock::Stopwatch::start();
    let mut engine = Engine::new(cfg.clone());
    let results = engine.run(&designs, spec);
    let secs = t.elapsed_seconds();

    let report_dir = flags.get("report-dir").map(PathBuf::from);
    if let Some(rd) = &report_dir {
        std::fs::create_dir_all(rd)
            .and_then(|()| mclegal::serve::journal::sweep_partials(rd))
            .map_err(|e| CliError::Internal(format!("--report-dir: {e}")))?;
    }
    let mut succeeded = 0usize;
    for (d, result) in designs.iter().zip(&results) {
        match result {
            Ok(out) => {
                let (placed, stats) = (&out.design, &out.stats);
                succeeded += 1;
                let check = Checker::new(placed).check();
                let metrics = Metrics::measure(placed);
                println!(
                    "{:<24} {:>7} cells | {} failed | {} hard violations | score {:.4}",
                    placed.name,
                    placed.cells.len(),
                    stats.mgl.failed,
                    check.hard_violations(),
                    metrics.contest_score(placed, &check)
                );
                if let Some(rd) = &report_dir {
                    let rep =
                        mclegal::core::run_report_measured(placed, stats, &cfg, &metrics, &check);
                    // The golden subset (quality + outcome, no timing) is the
                    // stable file: CI diffs it against `tests/goldens/`.
                    write_report_files(rd, &placed.name, &rep.to_json(), &rep.golden_json())
                        .map_err(|e| CliError::Internal(e.to_string()))?;
                }
            }
            Err(e) => {
                println!("{:<24} FAILED ({}): {e}", d.name, e.class().label());
                failures.push(JobFailure {
                    name: d.name.clone(),
                    class: e.class().label(),
                    message: e.to_string(),
                });
            }
        }
    }
    if let Some(rd) = &report_dir {
        for f in &failures {
            write_failure_file(rd, &f.name, f.class, &f.message)
                .map_err(|e| CliError::Internal(e.to_string()))?;
        }
    }
    let jobs = results.len() as Dbu;
    println!(
        "batch: {succeeded}/{} designs in {secs:.2}s ({:.1} designs/sec, {} in flight)",
        bundles.len(),
        mclegal::db::geom::dbu_to_f64(jobs) / secs.max(1e-9),
        engine.batch_runners(designs.len()),
    );
    if !failures.is_empty() {
        return Err(CliError::Infeasible(format!(
            "{} of {} batch jobs failed",
            failures.len(),
            bundles.len()
        )));
    }
    Ok(())
}

/// `serve`: run the legalization daemon until SIGTERM/SIGINT or a wire
/// `drain` request, then drain gracefully and exit 0.
fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let engine = build_config(flags)?;
    let mut cfg = mclegal::serve::ServeConfig::new(engine);
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(n) = flags.num("queue-cap")? {
        cfg.queue_cap = n;
    }
    if let Some(d) = flags.num("deadline-secs")? {
        cfg.default_deadline_secs = Some(d);
    }
    cfg.report_dir = flags.get("report-dir").map(PathBuf::from);
    cfg.journal_path = flags.get("journal").map(PathBuf::from);
    if let Some(n) = flags.num("idle-evict-secs")? {
        cfg.idle_evict_secs = n;
    }
    if let Some(n) = flags.num("retry-after-ms")? {
        cfg.retry_after_ms = n;
    }
    if let Some(h) = flags.num("admit-hold-secs")? {
        cfg.admit_hold_secs = h;
    }
    mclegal::serve::signal::install();
    let server = mclegal::serve::Server::start(cfg).map_err(CliError::Internal)?;
    for job in server.recovered() {
        println!(
            "RECOVERED job {} ({}) reported INTERRUPTED",
            job.id, job.design
        );
    }
    // The LISTENING line is the startup handshake scripts poll for; flush
    // so it is visible before the first request arrives.
    println!("LISTENING {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run();
    Ok(())
}

/// `rpc`: one request to a running daemon; prints every response line and
/// exits with the final line's status code.
fn cmd_rpc(flags: &Flags) -> ExitCode {
    match run_rpc(flags) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

fn run_rpc(flags: &Flags) -> Result<u8, CliError> {
    let addr = flags
        .get("addr")
        .ok_or_else(|| CliError::Usage("rpc needs --addr <ip:port>".into()))?;
    let json = flags
        .get("json")
        .ok_or_else(|| CliError::Usage("rpc needs --json '<line>'".into()))?;
    let mut client = mclegal::serve::Client::connect(addr)
        .map_err(|e| CliError::Internal(format!("{addr}: {e}")))?;
    client
        .send(json)
        .map_err(|e| CliError::Internal(e.to_string()))?;
    let mut accepted = false;
    loop {
        match client
            .recv()
            .map_err(|e| CliError::Internal(e.to_string()))?
        {
            None if accepted => {
                return Err(CliError::Internal(
                    "connection closed before the final response".into(),
                ));
            }
            None => return Err(CliError::Internal("daemon closed the connection".into())),
            Some(line) => {
                println!("{line}");
                let parsed = mclegal::serve::json::parse(&line)
                    .map_err(|e| CliError::Internal(format!("bad response line: {e}")))?;
                let status = parsed
                    .str_field("status")
                    .and_then(mclegal::serve::Status::from_name)
                    .ok_or_else(|| CliError::Internal("response without a status".into()))?;
                // The legalize acknowledgement is an intermediate line;
                // keep reading for the job's final status.
                if status == mclegal::serve::Status::Ok
                    && parsed.str_field("phase") == Some("ACCEPTED")
                {
                    accepted = true;
                    continue;
                }
                return Ok(status.code());
            }
        }
    }
}

fn cmd_check(flags: &Flags) -> Result<(), CliError> {
    let design = load_design(flags)?;
    let rep = Checker::new(&design).check();
    println!("hard violations : {}", rep.hard_violations());
    println!(
        "  unplaced {} | out-of-core {} | misaligned {} | parity {} | overlaps {} | fence {}",
        rep.unplaced,
        rep.out_of_core,
        rep.misaligned,
        rep.bad_parity,
        rep.overlaps,
        rep.fence_violations
    );
    println!("soft violations : {}", rep.soft_violations());
    println!(
        "  edge spacing {} | pin shorts {} | pin access {}",
        rep.edge_spacing, rep.pin_shorts, rep.pin_access
    );
    for d in &rep.details {
        println!("    {d}");
    }
    if rep.is_legal() {
        println!("LEGAL");
        Ok(())
    } else {
        Err(CliError::Infeasible("placement is not legal".into()))
    }
}

fn cmd_score(flags: &Flags) -> Result<(), CliError> {
    let design = load_design(flags)?;
    let (metrics, legality) = (Metrics::measure(&design), Checker::new(&design).check());
    print_report(&design, &metrics, &legality);
    Ok(())
}

fn cmd_convert(flags: &Flags) -> Result<(), CliError> {
    let design = load_design(flags)?;
    write_outputs(flags, &design)?;
    if let Some(dir) = flags.get("out") {
        parsers::write_bookshelf_dir(&design, Path::new(dir), &design.name)
            .map_err(|e| CliError::Internal(e.to_string()))?;
        println!("wrote Bookshelf bundle to {dir}");
    }
    Ok(())
}

fn cmd_presets() -> Result<(), CliError> {
    println!("iccad17 (Table 1):");
    for s in &presets::ICCAD17 {
        println!(
            "  {:<22} {:>8} cells, density {:.1}%, multi {:?}",
            s.name,
            s.cells,
            100.0 * s.density,
            s.multi
        );
    }
    println!("ispd15 (Table 2):");
    for s in &presets::ISPD15 {
        println!(
            "  {:<22} {:>8} cells, density {:.1}%",
            s.name,
            s.cells,
            100.0 * s.density
        );
    }
    println!("golden (snapshot corpus; --scale ignored):");
    for c in presets::golden_corpus() {
        println!(
            "  {:<22} {:>8} cells, density {:.1}%, fences {}",
            c.name,
            c.num_cells,
            100.0 * c.density,
            c.fences
        );
    }
    Ok(())
}

fn print_report(design: &Design, m: &Metrics, rep: &LegalityReport) {
    println!("cells            : {}", m.num_cells);
    println!("avg displacement : {:.4} rows", m.avg_disp_rows);
    println!("max displacement : {:.2} rows", m.max_disp_rows);
    println!("total disp       : {:.0} sites", m.total_disp_sites);
    println!("HPWL increase    : {:.2}%", 100.0 * m.s_hpwl);
    println!(
        "violations       : {} hard, {} soft (edge {}, short {}, access {})",
        rep.hard_violations(),
        rep.soft_violations(),
        rep.edge_spacing,
        rep.pin_shorts,
        rep.pin_access
    );
    println!("contest score S  : {:.4}", m.contest_score(design, rep));
}

fn write_outputs(flags: &Flags, design: &Design) -> Result<(), CliError> {
    if let Some(p) = flags.get("out-pl") {
        std::fs::write(p, parsers::write_pl(design))
            .map_err(|e| CliError::Internal(format!("{p}: {e}")))?;
        println!("wrote {p}");
    }
    if let Some(p) = flags.get("out-def") {
        std::fs::write(p, parsers::write_def(design))
            .map_err(|e| CliError::Internal(format!("{p}: {e}")))?;
        println!("wrote {p}");
    }
    if let Some(p) = flags.get("out-lef") {
        std::fs::write(p, parsers::write_lef(design))
            .map_err(|e| CliError::Internal(format!("{p}: {e}")))?;
        println!("wrote {p}");
    }
    if let Some(p) = flags.get("svg") {
        std::fs::write(p, viz::render_svg(design, &viz::SvgOptions::default()))
            .map_err(|e| CliError::Internal(format!("{p}: {e}")))?;
        println!("wrote {p}");
    }
    Ok(())
}
