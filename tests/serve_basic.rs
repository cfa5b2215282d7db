//! `mclegal serve` wire-protocol suite: admission, deadlines, resident
//! ECO sessions, graceful drain, and kill-recovery through the journal.
//!
//! Everything here runs without fault injection (the injected-fault
//! counterparts live in `tests/chaos_serve.rs`): these are the daemon's
//! steady-state promises — a served job reports byte-identically to a
//! solo run, backpressure is explicit, a drained daemon leaves an empty
//! journal, and a SIGKILLed daemon's successor reports the lost job as
//! `INTERRUPTED`.

use mclegal::core::{Engine, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;
use mclegal::parsers;
use mclegal::serve::json::parse;
use mclegal::serve::{Client, ServeConfig, Server};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mclegal_serve_{tag}_{}", std::process::id()));
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

/// Snapshot-grade engine config: 2 explicit threads (thread-count
/// invariant, reproduces anywhere).
fn engine_config() -> LegalizerConfig {
    let mut c = LegalizerConfig::contest();
    c.threads = 2;
    c
}

/// A solo (unserved) run of `design` under [`engine_config`].
fn solo_run(design: &Design) -> mclegal::core::RunOutput {
    Engine::new(engine_config())
        .run_one(design, RunSpec::default())
        .unwrap()
}

fn status_of(line: &str) -> String {
    parse(line)
        .unwrap_or_else(|e| panic!("unparsable response {line:?}: {e}"))
        .str_field("status")
        .unwrap_or_else(|| panic!("no status in {line:?}"))
        .to_string()
}

fn field_u64(line: &str, key: &str) -> u64 {
    parse(line)
        .unwrap()
        .u64_field(key)
        .unwrap_or_else(|| panic!("no u64 `{key}` in {line:?}"))
}

/// Submits a legalize job and returns (acknowledgement, final line).
fn run_job(client: &mut Client, dir: &Path, extra: &str) -> (String, String) {
    let req = format!(r#"{{"op":"legalize","dir":"{}"{extra}}}"#, dir.display());
    let ack = client.request(&req).unwrap().expect("ack line");
    if status_of(&ack) != "OK" {
        return (ack.clone(), ack);
    }
    let done = client.recv().unwrap().expect("final line");
    (ack, done)
}

#[test]
fn ping_stats_and_usage_errors() {
    let server = Server::start(ServeConfig::new(engine_config())).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    let pong = c.request(r#"{"op":"ping"}"#).unwrap().unwrap();
    assert_eq!(status_of(&pong), "OK");
    assert!(pong.contains(r#""pong":true"#));

    let stats = c.request(r#"{"op":"stats"}"#).unwrap().unwrap();
    assert_eq!(status_of(&stats), "OK");
    assert_eq!(field_u64(&stats, "admitted"), 0);
    assert_eq!(field_u64(&stats, "queue_depth"), 0);

    // Malformed and unknown requests answer USAGE on the same connection
    // (a bad request never kills the session).
    for bad in [
        "not json at all",
        r#"{"no":"op"}"#,
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"legalize"}"#,
        r#"{"op":"eco_delta","session":999,"cells":2}"#,
        r#"{"op":"eco_close","session":999}"#,
    ] {
        let resp = c.request(bad).unwrap().unwrap();
        assert_eq!(status_of(&resp), "USAGE", "{bad}");
    }
    // Still alive afterwards.
    assert_eq!(
        status_of(&c.request(r#"{"op":"ping"}"#).unwrap().unwrap()),
        "OK"
    );

    let drained = c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    assert_eq!(status_of(&drained), "OK");
    server.join();
}

#[test]
fn served_job_reports_byte_identical_to_solo_run() {
    let root = tmp_dir("solo_parity");
    let reports = root.join("reports");
    let journal = root.join("jobs.journal");
    // More concurrent clients than the daemon's two runners, so jobs are
    // admitted and claimed while others are still running. Two designs
    // are submitted twice, so same-named jobs publish their reports
    // concurrently.
    let names: Vec<String> = (0..5).map(|k| format!("parity{k}")).collect();
    let bundles: Vec<PathBuf> = names
        .iter()
        .zip(41..)
        .map(|(name, seed)| write_bundle(&root, name, seed))
        .collect();

    // The references: solo runs of the identical bundle bytes under the
    // identical config.
    let solo_golden: Vec<String> = bundles
        .iter()
        .map(|b| {
            let solo = solo_run(&parsers::read_bookshelf_dir(b).unwrap());
            format!(
                "{}\n",
                mclegal::core::build_run_report(&solo.design, &solo.stats, &engine_config())
                    .golden_json()
            )
        })
        .collect();

    let mut cfg = ServeConfig::new(engine_config());
    cfg.report_dir = Some(reports.clone());
    cfg.journal_path = Some(journal.clone());
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    let clients: Vec<_> = bundles
        .iter()
        .chain(&bundles[..2])
        .cloned()
        .map(|b| std::thread::spawn(move || run_job(&mut Client::connect(addr).unwrap(), &b, "")))
        .collect();
    for h in clients {
        let (ack, done) = h.join().unwrap();
        assert_eq!(status_of(&ack), "OK");
        assert!(ack.contains(r#""phase":"ACCEPTED""#), "{ack}");
        assert_eq!(status_of(&done), "OK");
        assert!(done.contains(r#""report":{"#), "{done}");
    }

    // Parse/corrupt input is refused before admission: PARSE, nothing
    // admitted, nothing journaled for it.
    let mut c = Client::connect(addr).unwrap();
    let missing = root.join("no_such_bundle");
    let (parse_resp, _) = run_job(&mut c, &missing, "");
    assert_eq!(status_of(&parse_resp), "PARSE");

    let stats_line = c.request(r#"{"op":"stats"}"#).unwrap().unwrap();
    assert_eq!(field_u64(&stats_line, "admitted"), 7);
    assert_eq!(field_u64(&stats_line, "completed"), 7);

    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();

    // Every persisted golden report is byte-identical to its solo run's.
    for (name, solo) in names.iter().zip(&solo_golden) {
        let served = std::fs::read_to_string(reports.join(format!("{name}.golden.json"))).unwrap();
        assert_eq!(&served, solo, "{name}: served golden != solo golden");
        assert!(reports.join(format!("{name}.json")).exists());
    }
    // Clean drain leaves an empty journal.
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), "");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn bundles_that_used_to_panic_the_parser_get_a_parse_reply() {
    // A zero-width `.nodes` record once tripped a `CellType` assertion on
    // the connection thread, which dropped the connection with no reply.
    let root = tmp_dir("parse_panic");
    let dir = write_bundle(&root, "z0", 41);
    let nodes = dir.join("z0.nodes");
    let text = std::fs::read_to_string(&nodes).unwrap();
    let record = text.lines().find(|l| l.starts_with("c0 ")).unwrap();
    let height = record.split_whitespace().nth(2).unwrap();
    std::fs::write(&nodes, text.replacen(record, &format!("c0 0 {height}"), 1)).unwrap();

    let server = Server::start(ServeConfig::new(engine_config())).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let (resp, _) = run_job(&mut c, &dir, "");
    assert_eq!(status_of(&resp), "PARSE", "{resp}");
    let open = format!(r#"{{"op":"eco_open","dir":"{}"}}"#, dir.display());
    let resp = c.request(&open).unwrap().expect("eco_open reply");
    assert_eq!(status_of(&resp), "PARSE", "{resp}");
    // The connection survives both refusals.
    let pong = c.request(r#"{"op":"ping"}"#).unwrap().unwrap();
    assert_eq!(status_of(&pong), "OK");

    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn admission_backpressure_is_explicit() {
    let root = tmp_dir("backpressure");
    let bundle = write_bundle(&root, "bp0", 43);

    // Capacity zero: every admission answers RETRY_AFTER with the
    // configured backoff hint — never an unbounded buffer, never a hang.
    let mut cfg = ServeConfig::new(engine_config());
    cfg.queue_cap = 0;
    cfg.retry_after_ms = 77;
    let server = Server::start(cfg).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let (resp, _) = run_job(&mut c, &bundle, "");
    assert_eq!(status_of(&resp), "RETRY_AFTER");
    assert_eq!(field_u64(&resp, "retry_after_ms"), 77);
    let stats = c.request(r#"{"op":"stats"}"#).unwrap().unwrap();
    assert_eq!(field_u64(&stats, "rejected"), 1);
    assert_eq!(field_u64(&stats, "admitted"), 0);
    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn deadline_budget_degrades_instead_of_failing() {
    let root = tmp_dir("deadline");
    let bundle = write_bundle(&root, "dl0", 47);
    let server = Server::start(ServeConfig::new(engine_config())).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    // An already-expired budget rides the degradation ladder (serial MGL,
    // skipped refinement) and still completes — deadlines degrade
    // service, they do not kill jobs.
    let (ack, done) = run_job(&mut c, &bundle, r#","deadline_secs":0.0"#);
    assert_eq!(status_of(&ack), "OK");
    assert_eq!(status_of(&done), "OK", "{done}");

    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn eco_session_lifecycle_over_the_wire() {
    let root = tmp_dir("eco");
    // A resident session needs a legal base: legalize first, persist the
    // placed design as the session bundle.
    let placed_dir = root.join("placed");
    let placed = solo_run(&small_design("eco0", 53)).design;
    parsers::write_bookshelf_dir(&placed, &placed_dir, "eco0").unwrap();

    let server = Server::start(ServeConfig::new(engine_config())).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    let opened = c
        .request(&format!(
            r#"{{"op":"eco_open","dir":"{}"}}"#,
            placed_dir.display()
        ))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&opened), "OK", "{opened}");
    let session = field_u64(&opened, "session");

    // A synthetic delta through the resident dirty-window pipeline.
    let delta = c
        .request(&format!(
            r#"{{"op":"eco_delta","session":{session},"cells":4,"seed":7}}"#
        ))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&delta), "OK", "{delta}");
    assert_eq!(field_u64(&delta, "moved"), 4);
    // Reuse telemetry, the stage split and the flow work of the delta (on
    // 80 cells its closure may take every cell, so none need be reused).
    // Counters read 0 when observability is compiled out.
    let counted = u64::from(mclegal::obs::compiled());
    let movable_count = placed.movable_cells().count() as u64;
    assert!(field_u64(&delta, "windows_dirty") >= counted, "{delta}");
    assert!(field_u64(&delta, "cells_reused") < movable_count, "{delta}");
    let reply = parse(&delta).unwrap();
    let (stages, counters) = (&reply.get("stage_seconds"), &reply.get("counters"));
    for stage in ["mgl", "maxdisp", "fixed_order"] {
        assert!(stages.and_then(|s| s.num_field(stage)).is_some(), "{delta}");
    }
    let pivots = |name| counters.and_then(|c| c.u64_field(name));
    assert!(pivots("maxdisp.simplex_pivots").is_some(), "{delta}");
    assert!(pivots("flow.simplex_pivots") >= Some(counted), "{delta}");

    // Explicit-move form: move one known movable cell to its own position
    // (a legal no-op-ish delta).
    let v = parse(&opened).unwrap();
    assert!(v.u64_field("cells").unwrap() > 0);
    let movable = placed.movable_cells().next().unwrap();
    let p = placed.cells[movable.0 as usize].gp;
    let delta2 = c
        .request(&format!(
            r#"{{"op":"eco_delta","session":{session},"moves":[[{},{},{}]]}}"#,
            movable.0, p.x, p.y
        ))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&delta2), "OK", "{delta2}");
    // One moved cell dirties a small closure; every other cell is reused.
    assert!(field_u64(&delta2, "windows_dirty") >= counted, "{delta2}");
    let reused = field_u64(&delta2, "cells_reused");
    assert!(reused >= counted && reused < movable_count, "{delta2}");

    // Commit persists a loadable bundle.
    let out = root.join("committed");
    let committed = c
        .request(&format!(
            r#"{{"op":"eco_commit","session":{session},"out":"{}"}}"#,
            out.display()
        ))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&committed), "OK", "{committed}");
    let reread = parsers::read_bookshelf_dir(&out).unwrap();
    assert_eq!(reread.cells.len(), placed.cells.len());

    let closed = c
        .request(&format!(r#"{{"op":"eco_close","session":{session}}}"#))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&closed), "OK");
    let gone = c
        .request(&format!(
            r#"{{"op":"eco_delta","session":{session},"cells":2}}"#
        ))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&gone), "USAGE");

    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn idle_sessions_are_evicted_without_any_job_traffic() {
    let root = tmp_dir("evict");
    let placed_dir = root.join("placed");
    let placed = solo_run(&small_design("evict0", 59)).design;
    parsers::write_bookshelf_dir(&placed, &placed_dir, "evict0").unwrap();

    let mut cfg = ServeConfig::new(engine_config());
    cfg.idle_evict_secs = 1;
    let server = Server::start(cfg).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let opened = c
        .request(&format!(
            r#"{{"op":"eco_open","dir":"{}"}}"#,
            placed_dir.display()
        ))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&opened), "OK", "{opened}");

    // No legalize job is ever sent: eviction must not depend on one.
    let start = std::time::Instant::now();
    loop {
        let stats = c.request(r#"{"op":"stats"}"#).unwrap().unwrap();
        if field_u64(&stats, "evicted") == 1 && field_u64(&stats, "sessions") == 0 {
            break;
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "idle session not evicted within 5 s: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }

    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn eco_delta_deadline_rolls_back_atomically_over_the_wire() {
    let root = tmp_dir("eco_deadline");
    let placed_dir = root.join("placed");
    let placed = solo_run(&small_design("ecodl", 59)).design;
    parsers::write_bookshelf_dir(&placed, &placed_dir, "ecodl").unwrap();

    let server = Server::start(ServeConfig::new(engine_config())).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Session opened with an already-expired per-delta budget: a delta
    // must fail classed and atomically (the base is untouched).
    let opened = c
        .request(&format!(
            r#"{{"op":"eco_open","dir":"{}","deadline_secs":0.0}}"#,
            placed_dir.display()
        ))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&opened), "OK");
    let session = field_u64(&opened, "session");

    let failed = c
        .request(&format!(
            r#"{{"op":"eco_delta","session":{session},"cells":4,"seed":7}}"#
        ))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&failed), "INTERNAL", "{failed}");
    assert!(failed.contains(r#""rolled_back":true"#), "{failed}");
    assert!(failed.contains("missed its 0s budget"), "{failed}");

    // The session survives its failed delta and still commits the
    // ORIGINAL base (rollback was atomic).
    let out = root.join("after_rollback");
    let committed = c
        .request(&format!(
            r#"{{"op":"eco_commit","session":{session},"out":"{}"}}"#,
            out.display()
        ))
        .unwrap()
        .unwrap();
    assert_eq!(status_of(&committed), "OK");
    let reread = parsers::read_bookshelf_dir(&out).unwrap();
    for (a, b) in placed.cells.iter().zip(reread.cells.iter()) {
        // The writer persists `pos.unwrap_or(gp)`; the reader restores it
        // into `gp` (pos is reserved for fixed cells). Compare effective
        // positions.
        assert_eq!(
            a.pos.unwrap_or(a.gp),
            b.pos.unwrap_or(b.gp),
            "rollback must leave the base untouched"
        );
    }

    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Kill-recovery: the acceptance journal survives SIGKILL.
// ---------------------------------------------------------------------------

fn mclegal() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_mclegal"))
}

/// Reads child stdout lines until one starts with `prefix`.
fn wait_for_line(
    reader: &mut std::io::BufReader<std::process::ChildStdout>,
    prefix: &str,
) -> String {
    use std::io::BufRead;
    let mut line = String::new();
    loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "daemon exited before printing {prefix:?}"
        );
        if let Some(rest) = line.trim_end().strip_prefix(prefix) {
            return rest.trim().to_string();
        }
    }
}

#[test]
fn sigkill_mid_job_recovers_as_interrupted() {
    let root = tmp_dir("kill9");
    let bundle = write_bundle(&root, "lostjob", 61);
    let reports = root.join("reports");
    let journal = root.join("jobs.journal");

    // First incarnation: --admit-hold-secs parks the scheduler between
    // acceptance and execution, so the SIGKILL lands deterministically
    // after ACCEPT hit the journal and before any DONE.
    let mut child = mclegal()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .args(["--report-dir", reports.to_str().unwrap()])
        .args(["--journal", journal.to_str().unwrap()])
        .args(["--admit-hold-secs", "30"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut out = std::io::BufReader::new(child.stdout.take().unwrap());
    let addr = wait_for_line(&mut out, "LISTENING");

    let mut c = Client::connect(&addr).unwrap();
    let (ack, _pending) = {
        let req = format!(r#"{{"op":"legalize","dir":"{}"}}"#, bundle.display());
        let ack = c.request(&req).unwrap().unwrap();
        (ack, ())
    };
    assert_eq!(status_of(&ack), "OK");
    assert!(ack.contains(r#""phase":"ACCEPTED""#));
    // Acceptance is journaled before the client sees it: kill now.
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(
        std::fs::read_to_string(&journal)
            .unwrap()
            .contains("ACCEPT"),
        "acceptance must be durable before the ack"
    );

    // Second incarnation over the same journal and report dir.
    let mut child2 = mclegal()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .args(["--report-dir", reports.to_str().unwrap()])
        .args(["--journal", journal.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut out2 = std::io::BufReader::new(child2.stdout.take().unwrap());
    let addr2 = wait_for_line(&mut out2, "LISTENING");

    // The lost job is reported INTERRUPTED, no partial reports survive.
    let failure = std::fs::read_to_string(reports.join("lostjob.failure.json")).unwrap();
    assert!(failure.contains(r#""class":"interrupted""#), "{failure}");
    assert!(!reports
        .read_dir()
        .unwrap()
        .flatten()
        .any(|e| e.path().extension().is_some_and(|x| x == "tmp")));
    let mut c2 = Client::connect(&addr2).unwrap();
    let stats = c2.request(r#"{"op":"stats"}"#).unwrap().unwrap();
    assert_eq!(field_u64(&stats, "interrupted"), 1);

    // The recovered daemon is fully serviceable and drains to exit 0
    // with an empty journal.
    let (ack2, done2) = run_job(&mut c2, &bundle, "");
    assert_eq!(status_of(&ack2), "OK");
    assert_eq!(status_of(&done2), "OK");
    c2.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    let status = child2.wait().unwrap();
    assert_eq!(status.code(), Some(0), "clean drain must exit 0");
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), "");
    std::fs::remove_dir_all(&root).ok();
}
