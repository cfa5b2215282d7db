//! Server-layer chaos suite (run with `--features faultinject`): the
//! daemon's containment contract under injected faults.
//!
//! Invariants pinned here:
//!
//! 1. **Wire-level blast-radius isolation** — of three concurrent jobs,
//!    the one with an armed engine fault answers a classed failure while
//!    the other two answer OK with reports byte-identical to solo runs.
//! 2. **Admission race** — a lost capacity race is indistinguishable from
//!    a full queue: `RETRY_AFTER`, and a plain retry succeeds.
//! 3. **Journal fail-closed** — if the acceptance cannot be journaled,
//!    the job is refused (no enqueue, no report, no ghost work), and the
//!    daemon keeps serving.
//! 4. **Drain under fault** — a drain issued while a faulted job is in
//!    flight still finishes every admitted job, persists the survivors'
//!    reports and the victim's failure record, and leaves an empty
//!    journal.
//! 5. **Client disconnect** — a connection lost after acceptance never
//!    decides a job's fate: the report lands, the journal says DONE, and
//!    the daemon stays healthy.

#![cfg(feature = "faultinject")]

use mclegal::core::{Engine, FaultPlan, FaultSite, LegalizerConfig, RunSpec};
use mclegal::db::prelude::*;
use mclegal::parsers;
use mclegal::serve::json::parse;
use mclegal::serve::{Client, ServeConfig, Server};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mclegal_chaos_serve_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn engine_config() -> LegalizerConfig {
    let mut c = LegalizerConfig::contest();
    c.threads = 2;
    c
}

fn status_of(line: &str) -> String {
    parse(line)
        .unwrap_or_else(|e| panic!("unparsable response {line:?}: {e}"))
        .str_field("status")
        .unwrap_or_else(|| panic!("no status in {line:?}"))
        .to_string()
}

fn field_u64(line: &str, key: &str) -> u64 {
    parse(line).unwrap().u64_field(key).unwrap()
}

/// Submits a legalize job and returns (acknowledgement, final line, EOF
/// flag): `final` is `None` when the server hung up before answering.
fn run_job(addr: std::net::SocketAddr, dir: &Path) -> (String, Option<String>) {
    let mut c = Client::connect(addr).unwrap();
    let req = format!(r#"{{"op":"legalize","dir":"{}"}}"#, dir.display());
    let ack = c.request(&req).unwrap().expect("ack line");
    if status_of(&ack) != "OK" {
        return (ack, None);
    }
    let done = c.recv().unwrap();
    (ack, done)
}

/// The acceptance-grade containment test: three concurrent jobs, one with
/// an armed engine fault. The victim answers a classed failure on the
/// wire; the peers' persisted golden reports are byte-identical to solo
/// fault-free runs; a follow-up drain exits cleanly with an empty
/// journal.
#[test]
fn faulted_job_is_contained_at_the_wire() {
    let root = tmp_dir("contain");
    let reports = root.join("reports");
    let journal = root.join("jobs.journal");
    let bundles = [
        write_bundle(&root, "peer_a", 71),
        write_bundle(&root, "victim", 73),
        write_bundle(&root, "peer_b", 79),
    ];

    // Solo fault-free references for the peers.
    let solo_golden: Vec<String> = ["peer_a", "peer_b"]
        .iter()
        .map(|name| {
            let d = parsers::read_bookshelf_dir(&root.join(name)).unwrap();
            let solo = Engine::new(engine_config())
                .run_one(&d, RunSpec::default())
                .unwrap();
            format!(
                "{}\n",
                mclegal::core::build_run_report(&solo.design, &solo.stats, &engine_config())
                    .golden_json()
            )
        })
        .collect();

    // The engine fault plan: every run of `victim` panics at MGL entry.
    let mut engine = engine_config();
    engine.faults = Some(
        FaultPlan::new()
            .for_design("victim")
            .arm_persistent(FaultSite::StagePanic { stage: "mgl" })
            .shared(),
    );
    let mut cfg = ServeConfig::new(engine);
    cfg.report_dir = Some(reports.clone());
    cfg.journal_path = Some(journal.clone());
    // Hold each job briefly before it is handed to a runner, so all three
    // are admitted before the first one starts.
    cfg.admit_hold_secs = 0.4;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = bundles
        .iter()
        .map(|b| {
            let b = b.clone();
            std::thread::spawn(move || run_job(addr, &b))
        })
        .collect();
    let results: Vec<(String, Option<String>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (i, (ack, done)) in results.iter().enumerate() {
        assert_eq!(status_of(ack), "OK", "job {i} must be admitted: {ack}");
        let done = done.as_ref().expect("final line");
        let name = parse(ack).unwrap().str_field("design").unwrap().to_string();
        if name == "victim" {
            assert_eq!(status_of(done), "INTERNAL", "{done}");
            assert!(done.contains(r#""class":"retryable""#) || done.contains(r#""class":"#));
            assert!(done.contains("injected"), "{done}");
        } else {
            assert_eq!(status_of(done), "OK", "peer {name} must survive: {done}");
        }
    }

    let mut c = Client::connect(addr).unwrap();
    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();

    // Peers' persisted goldens are byte-identical to solo runs.
    for (name, solo) in ["peer_a", "peer_b"].iter().zip(&solo_golden) {
        let served = std::fs::read_to_string(reports.join(format!("{name}.golden.json"))).unwrap();
        assert_eq!(&served, solo, "{name}: served golden != solo golden");
    }
    // The victim left a classed failure record, no success report.
    let failure = std::fs::read_to_string(reports.join("victim.failure.json")).unwrap();
    assert!(failure.contains(r#""design":"victim""#), "{failure}");
    assert!(!reports.join("victim.golden.json").exists());
    // Clean drain: empty journal.
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), "");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn admission_race_rejects_with_retry_after_then_succeeds() {
    let root = tmp_dir("admission");
    let bundle = write_bundle(&root, "racer", 83);

    let mut cfg = ServeConfig::new(engine_config());
    // Server-layer plan: exactly one lost admission race.
    cfg.faults = Some(
        FaultPlan::new()
            .arm_once(FaultSite::ServeAdmission)
            .shared(),
    );
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    let (first, _) = run_job(addr, &bundle);
    assert_eq!(status_of(&first), "RETRY_AFTER", "{first}");
    assert!(field_u64(&first, "retry_after_ms") > 0);

    // The client does what the response says: retries. No residue.
    let (ack, done) = run_job(addr, &bundle);
    assert_eq!(status_of(&ack), "OK");
    assert_eq!(status_of(done.as_ref().unwrap()), "OK");

    let mut c = Client::connect(addr).unwrap();
    let stats = c.request(r#"{"op":"stats"}"#).unwrap().unwrap();
    assert_eq!(field_u64(&stats, "rejected"), 1);
    assert_eq!(field_u64(&stats, "admitted"), 1);
    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn journal_write_fault_fails_closed() {
    let root = tmp_dir("journal_fault");
    let bundle = write_bundle(&root, "jwf", 89);
    let reports = root.join("reports");
    let journal = root.join("jobs.journal");

    let mut cfg = ServeConfig::new(engine_config());
    cfg.report_dir = Some(reports.clone());
    cfg.journal_path = Some(journal.clone());
    cfg.faults = Some(FaultPlan::new().arm_once(FaultSite::ServeJournal).shared());
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    // The un-journalable job is refused outright: a classed INTERNAL
    // response, nothing enqueued, nothing run, nothing reported.
    let (resp, none) = run_job(addr, &bundle);
    assert_eq!(status_of(&resp), "INTERNAL", "{resp}");
    assert!(resp.contains("job not admitted"), "{resp}");
    assert!(none.is_none());
    assert_eq!(
        std::fs::read_to_string(&journal).unwrap(),
        "",
        "a refused job must leave no ACCEPT record"
    );
    assert!(!reports.join("jwf.json").exists());

    let mut c = Client::connect(addr).unwrap();
    let stats = c.request(r#"{"op":"stats"}"#).unwrap().unwrap();
    assert_eq!(field_u64(&stats, "admitted"), 0);
    assert_eq!(field_u64(&stats, "completed"), 0);

    // The very next job sails through.
    let (ack, done) = run_job(addr, &bundle);
    assert_eq!(status_of(&ack), "OK");
    assert_eq!(status_of(done.as_ref().unwrap()), "OK");
    assert!(reports.join("jwf.golden.json").exists());

    c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn drain_under_fault_finishes_admitted_work() {
    let root = tmp_dir("drain_fault");
    let reports = root.join("reports");
    let journal = root.join("jobs.journal");
    let victim = write_bundle(&root, "victim", 97);
    let survivor = write_bundle(&root, "survivor", 101);

    let mut engine = engine_config();
    engine.faults = Some(
        FaultPlan::new()
            .for_design("victim")
            .arm_persistent(FaultSite::StagePanic { stage: "mgl" })
            .shared(),
    );
    let mut cfg = ServeConfig::new(engine);
    cfg.report_dir = Some(reports.clone());
    cfg.journal_path = Some(journal.clone());
    // Hold each job long enough before it is handed to a runner to issue
    // the drain while both jobs are admitted-but-unfinished.
    cfg.admit_hold_secs = 0.6;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    let jobs: Vec<_> = [victim, survivor]
        .into_iter()
        .map(|b| std::thread::spawn(move || run_job(addr, &b)))
        .collect();
    // Give both admissions a moment to land, then drain mid-flight.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut c = Client::connect(addr).unwrap();
    let drained = c.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    assert_eq!(status_of(&drained), "OK");

    // Both admitted jobs still get their final lines: drain finishes
    // in-flight work, it never abandons it.
    let results: Vec<_> = jobs.into_iter().map(|h| h.join().unwrap()).collect();
    for (ack, done) in &results {
        assert_eq!(status_of(ack), "OK", "{ack}");
        let done = done.as_ref().expect("drain must not orphan admitted jobs");
        let name = parse(ack).unwrap().str_field("design").unwrap().to_string();
        if name == "victim" {
            assert_eq!(status_of(done), "INTERNAL");
        } else {
            assert_eq!(status_of(done), "OK");
        }
    }
    server.join();

    assert!(reports.join("survivor.golden.json").exists());
    assert!(reports.join("victim.failure.json").exists());
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), "");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn client_disconnect_never_decides_a_jobs_fate() {
    let root = tmp_dir("disconnect");
    let bundle = write_bundle(&root, "dropped", 103);
    let reports = root.join("reports");
    let journal = root.join("jobs.journal");

    let mut cfg = ServeConfig::new(engine_config());
    cfg.report_dir = Some(reports.clone());
    cfg.journal_path = Some(journal.clone());
    cfg.faults = Some(
        FaultPlan::new()
            .arm_once(FaultSite::ServeDisconnect)
            .shared(),
    );
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    // The client is "disconnected" after acceptance: it sees EOF instead
    // of a final line.
    let mut c = Client::connect(addr).unwrap();
    let req = format!(r#"{{"op":"legalize","dir":"{}"}}"#, bundle.display());
    let ack = c.request(&req).unwrap().unwrap();
    assert_eq!(status_of(&ack), "OK");
    assert!(ack.contains(r#""phase":"ACCEPTED""#));
    assert!(c.recv().unwrap().is_none(), "client must see EOF");

    // ... but the job's fate never depended on the connection: report
    // persisted, journal DONE, daemon healthy.
    let mut c2 = Client::connect(addr).unwrap();
    for _ in 0..100 {
        if field_u64(
            &c2.request(r#"{"op":"stats"}"#).unwrap().unwrap(),
            "completed",
        ) == 1
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(reports.join("dropped.golden.json").exists());
    let jtext = std::fs::read_to_string(&journal).unwrap();
    assert!(jtext.contains("ACCEPT 1 dropped"), "{jtext}");
    assert!(jtext.contains("DONE 1 OK"), "{jtext}");
    assert_eq!(
        status_of(&c2.request(r#"{"op":"ping"}"#).unwrap().unwrap()),
        "OK"
    );

    c2.request(r#"{"op":"drain"}"#).unwrap().unwrap();
    server.join();
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), "");
    std::fs::remove_dir_all(&root).ok();
}
