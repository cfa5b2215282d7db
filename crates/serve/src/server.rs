//! The daemon: admission control, the job source feeding the engine,
//! resident ECO sessions, graceful drain, and the wire client.
//!
//! # Threading model
//!
//! One **accept thread** polls the listener, spawns a short-lived thread
//! per connection and, on each idle poll tick, evicts idle ECO sessions.
//! Connection threads do all parsing (a corrupt bundle is refused *before*
//! admission, so it never consumes queue or journal space) and own the
//! resident ECO sessions. One **engine thread** makes a single
//! [`Engine::run_jobs`] call for the daemon's whole life, with the
//! admission queue as its job source: each of the engine's runners claims
//! the next queued job as soon as it is free and publishes that job's
//! outcome (reports, journal `DONE`, reply) the moment it finishes. Per-job
//! outputs stay byte-identical to solo runs (the engine's batch-invariance
//! contract, DESIGN.md §12).
//!
//! # Fault containment
//!
//! A job that panics, exhausts its degradation ladder, or rejects its
//! seed produces one classed failure response; every other job in flight
//! completes and reports normally. Admission is fail-closed:
//! if the write-ahead journal cannot record the acceptance, the job is
//! refused — the daemon never holds work it could forget.

use crate::journal::{self, InterruptedJob, Journal};
use crate::signal;
use crate::wire::{self, DeltaSpec, Request, Status};
use mcl_core::{
    build_run_report, EcoSession, Engine, FaultPlan, FaultSite, Job, LegalizeError,
    LegalizerConfig, RunOutput, RunSpec,
};
use mcl_db::prelude::Design;
use mcl_obs::clock::Stopwatch;
use mcl_obs::{count_to_float, CounterKind, HistoKind, JsonWriter, Meter};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

/// Daemon configuration.
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// The engine configuration every job runs under.
    pub engine: LegalizerConfig,
    /// Bound on jobs waiting for a runner; admission past it answers
    /// `RETRY_AFTER` instead of buffering (explicit backpressure, never
    /// unbounded). Jobs being legalized are not counted: at most the
    /// engine's runner count of them are in flight on top.
    pub queue_cap: usize,
    /// Default per-job wall-clock budget when the request names none.
    pub default_deadline_secs: Option<f64>,
    /// Where job reports land (`<name>.json`, `<name>.golden.json`,
    /// `<name>.failure.json`), written tmp-then-rename.
    pub report_dir: Option<PathBuf>,
    /// Write-ahead journal path; `None` disables crash recovery.
    pub journal_path: Option<PathBuf>,
    /// Backoff hint carried in `RETRY_AFTER` responses.
    pub retry_after_ms: u64,
    /// Evict ECO sessions idle longer than this; 0 disables eviction.
    pub idle_evict_secs: u64,
    /// Test hook: the engine's job source sleeps this long before handing
    /// out each job, so a kill-recovery test can deterministically die
    /// between acceptance and completion. 0 in production.
    pub admit_hold_secs: f64,
    /// Server-layer fault plan (admission race, client disconnect,
    /// journal failure); the engine's own plan lives in
    /// [`ServeConfig::engine`].
    pub faults: Option<Arc<FaultPlan>>,
}

impl ServeConfig {
    /// Defaults around the given engine configuration.
    pub fn new(engine: LegalizerConfig) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            engine,
            queue_cap: 64,
            default_deadline_secs: None,
            report_dir: None,
            journal_path: None,
            retry_after_ms: 100,
            idle_evict_secs: 300,
            admit_hold_secs: 0.0,
            faults: None,
        }
    }
}

/// What publishing a job's outcome needs: the ticket of its engine job.
struct JobMeta {
    id: u64,
    name: String,
    /// Started at admission: the latency histogram covers queue + run.
    sw: Stopwatch,
    reply: mpsc::Sender<String>,
}

struct SessionSlot {
    /// Locked for the length of each request on the session.
    session: Mutex<EcoSession>,
    /// Last-touched instant, in nanos of [`Shared::clock`].
    last_used_nanos: AtomicU64,
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    interrupted: AtomicU64,
    evicted: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Job<'static, JobMeta>>>,
    wake: Condvar,
    draining: AtomicBool,
    stopped: AtomicBool,
    next_job: AtomicU64,
    next_session: AtomicU64,
    journal: Mutex<Option<Journal>>,
    sessions: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    counters: Counters,
    meter: Mutex<Meter>,
    /// Monotonic reference for session idle-eviction.
    clock: Stopwatch,
}

/// Poison-transparent lock: a panicking holder already produced its
/// classed failure elsewhere; the daemon keeps serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fault(shared: &Shared, design: &str, site: &FaultSite) -> bool {
    shared
        .cfg
        .faults
        .as_ref()
        .is_some_and(|p| p.fires(design, site))
}

/// A running daemon.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
    recovered: Vec<InterruptedJob>,
}

impl Server {
    /// Recovers the journal, binds the listener, and starts the accept
    /// and engine threads.
    ///
    /// # Errors
    ///
    /// A message for any bind/journal/report-dir I/O failure.
    pub fn start(cfg: ServeConfig) -> Result<Self, String> {
        if let Some(rd) = &cfg.report_dir {
            std::fs::create_dir_all(rd).map_err(|e| format!("report dir {}: {e}", rd.display()))?;
        }
        let recovered = match &cfg.journal_path {
            Some(jp) => journal::recover(jp, cfg.report_dir.as_deref())
                .map_err(|e| format!("journal recovery {}: {e}", jp.display()))?,
            None => Vec::new(),
        };
        let journal = match &cfg.journal_path {
            Some(jp) => {
                Some(Journal::open(jp).map_err(|e| format!("journal {}: {e}", jp.display()))?)
            }
            None => None,
        };
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("listener: {e}"))?;

        let engine_cfg = cfg.engine.clone();
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            next_session: AtomicU64::new(1),
            journal: Mutex::new(journal),
            sessions: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            meter: Mutex::new(Meter::new()),
            clock: Stopwatch::start(),
        });
        shared
            .counters
            .interrupted
            .store(recovered.len() as u64, Ordering::SeqCst);
        lock(&shared.meter).add(CounterKind::ServeJobsInterrupted, recovered.len() as u64);

        let engine_shared = Arc::clone(&shared);
        let accept_shared = Arc::clone(&shared);
        let threads = vec![
            std::thread::spawn(move || serve_jobs(&engine_shared, Engine::new(engine_cfg))),
            std::thread::spawn(move || accept_loop(&accept_shared, &listener)),
        ];
        Ok(Self {
            shared,
            addr,
            threads,
            recovered,
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs the previous incarnation accepted and lost to a crash,
    /// already reported as `INTERRUPTED` failure records on disk.
    pub fn recovered(&self) -> &[InterruptedJob] {
        &self.recovered
    }

    /// Begins a graceful drain: stop admitting, finish in-flight jobs,
    /// flush reports, truncate the journal, stop.
    pub fn drain(&self) {
        begin_drain(&self.shared);
    }

    /// Whether the drain has completed and all service threads stopped.
    pub fn finished(&self) -> bool {
        self.shared.stopped.load(Ordering::SeqCst)
    }

    /// Blocks until the daemon has fully shut down.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Serves until a termination signal (see [`signal::install`]) or a
    /// wire `drain` request, then completes the drain and returns.
    pub fn run(self) {
        while !self.finished() {
            if signal::requested() {
                self.drain();
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join();
    }
}

fn begin_drain(shared: &Shared) {
    shared.draining.store(true, Ordering::SeqCst);
    shared.wake.notify_all();
}

// ---------------------------------------------------------------------------
// The engine call: the admission queue as its job source.
// ---------------------------------------------------------------------------

fn serve_jobs(shared: &Shared, mut engine: Engine) {
    engine.run_jobs(
        std::iter::from_fn(|| next_admitted(shared)),
        RunSpec::default(),
        |meta, result| finalize(shared, meta, &result),
    );
    finish_shutdown(shared);
}

/// Pops the next admitted job, blocking while the queue is empty; `None`
/// once the daemon is draining and the queue is empty.
fn next_admitted(shared: &Shared) -> Option<Job<'static, JobMeta>> {
    let mut q = lock(&shared.queue);
    let job = loop {
        if let Some(job) = q.pop_front() {
            break job;
        }
        // Empty queue + draining, decided under the queue lock (admission
        // refuses under the same lock once draining is set): nothing can
        // slip in after this check.
        if shared.draining.load(Ordering::SeqCst) {
            return None;
        }
        q = shared
            .wake
            .wait_timeout(q, Duration::from_millis(50))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    };
    drop(q);
    if shared.cfg.admit_hold_secs > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(shared.cfg.admit_hold_secs));
    }
    Some(job)
}

/// Publishes one job's outcome: report files (tmp-then-rename), journal
/// `DONE`, latency histogram, and the final response line.
fn finalize(shared: &Shared, meta: JobMeta, result: &Result<RunOutput, LegalizeError>) {
    let (status, line) = match result {
        Ok(RunOutput {
            design: placed,
            stats,
            ..
        }) => {
            let rep = build_run_report(placed, stats, &shared.cfg.engine);
            let persisted = match &shared.cfg.report_dir {
                Some(rd) => {
                    write_report_files(rd, &placed.name, &rep.to_json(), &rep.golden_json())
                }
                None => Ok(()),
            };
            match persisted {
                Ok(()) => {
                    shared.counters.completed.fetch_add(1, Ordering::SeqCst);
                    (
                        Status::Ok,
                        wire::job_ok_line(meta.id, &placed.name, &rep.to_json()),
                    )
                }
                Err(e) => {
                    shared.counters.failed.fetch_add(1, Ordering::SeqCst);
                    (
                        Status::Internal,
                        wire::error_line(
                            Status::Internal,
                            &format!("job {}: report write failed: {e}", meta.id),
                        ),
                    )
                }
            }
        }
        Err(e) => {
            shared.counters.failed.fetch_add(1, Ordering::SeqCst);
            if let Some(rd) = &shared.cfg.report_dir {
                let _ = write_failure_file(rd, &meta.name, e.class().label(), &e.to_string());
            }
            (
                Status::from_error(e),
                wire::job_failed_line(meta.id, &meta.name, e),
            )
        }
    };
    if let Some(j) = lock(&shared.journal).as_mut() {
        let _ = j.done(meta.id, status.name());
    }
    lock(&shared.meter).observe(HistoKind::ServeJobNanos, meta.sw.elapsed_nanos());
    // Injected client disconnect: drop the reply channel without sending.
    // The connection thread sees a closed channel and hangs up (the client
    // gets EOF after its acceptance) — but the report is on disk and the
    // journal says DONE: the job's fate never depended on the client.
    if fault(shared, &meta.name, &FaultSite::ServeDisconnect) {
        return;
    }
    let _ = meta.reply.send(line);
}

fn write_report_files(rd: &Path, name: &str, full: &str, golden: &str) -> std::io::Result<()> {
    write_atomically(&rd.join(format!("{name}.json")), full)?;
    write_atomically(
        &rd.join(format!("{name}.golden.json")),
        &format!("{golden}\n"),
    )
}

fn write_failure_file(rd: &Path, name: &str, class: &str, error: &str) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("design", name);
    w.field_str("class", class);
    w.field_str("error", error);
    w.end_object();
    write_atomically(
        &rd.join(format!("{name}.failure.json")),
        &format!("{}\n", w.finish()),
    )
}

/// Tmp-then-rename publish: a crash mid-write leaves `<file>.<n>.tmp`
/// (swept by recovery), never a torn report. Runners publish concurrently
/// and two jobs may share a design name, so every write gets its own `n`.
fn write_atomically(path: &Path, content: &str) -> std::io::Result<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".{}.tmp", NEXT_TMP.fetch_add(1, Ordering::Relaxed)));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

fn finish_shutdown(shared: &Shared) {
    // Clean drain: every accepted job is finalized, so the journal's
    // outstanding set is empty — make the file say so.
    if let Some(j) = lock(&shared.journal).as_mut() {
        let _ = j.truncate();
    }
    shared.stopped.store(true, Ordering::SeqCst);
}

fn evict_idle_sessions(shared: &Shared) {
    let secs = shared.cfg.idle_evict_secs;
    if secs == 0 {
        return;
    }
    let now = shared.clock.elapsed_nanos();
    let limit = secs.saturating_mul(1_000_000_000);
    let mut sessions = lock(&shared.sessions);
    let before = sessions.len();
    sessions.retain(|_, slot| {
        let idle = now.saturating_sub(slot.last_used_nanos.load(Ordering::SeqCst)) > limit;
        // A session locked by a running request is busy, not idle; never
        // wait for it.
        let busy = matches!(slot.session.try_lock(), Err(TryLockError::WouldBlock));
        !idle || busy
    });
    let evicted = (before - sessions.len()) as u64;
    if evicted > 0 {
        shared.counters.evicted.fetch_add(evicted, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Accept loop and per-connection protocol handling.
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.stopped.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(shared);
                std::thread::spawn(move || connection(&conn_shared, stream));
            }
            // Nothing to accept (or a transient error): the poll tick.
            Err(_) => {
                evict_idle_sessions(shared);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn connection(shared: &Shared, stream: TcpStream) {
    // A finite read timeout lets idle connections notice shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut stream = stream;
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if !handle_request(shared, &mut stream, trimmed) {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stopped.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn send_line(stream: &mut TcpStream, line: &str) -> bool {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    stream.write_all(buf.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// Handles one request; returns `false` when the connection should close.
fn handle_request(shared: &Shared, stream: &mut TcpStream, line: &str) -> bool {
    let request = match wire::decode_request(line) {
        Ok(r) => r,
        Err(msg) => return send_line(stream, &wire::error_line(Status::Usage, &msg)),
    };
    match request {
        Request::Ping => send_line(stream, &wire::pong_line()),
        Request::Stats => send_line(stream, &stats_line(shared)),
        Request::Drain => {
            begin_drain(shared);
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_str("status", Status::Ok.name());
            w.field_bool("draining", true);
            w.end_object();
            send_line(stream, &w.finish())
        }
        Request::Legalize { dir, deadline_secs } => {
            handle_legalize(shared, stream, &dir, deadline_secs)
        }
        Request::EcoOpen { dir, deadline_secs } => {
            send_line(stream, &eco_open(shared, &dir, deadline_secs))
        }
        Request::EcoDelta { session, delta } => {
            send_line(stream, &eco_delta(shared, session, &delta))
        }
        Request::EcoCommit { session, out } => {
            send_line(stream, &eco_commit(shared, session, &out))
        }
        Request::EcoClose { session } => send_line(stream, &eco_close(shared, session)),
    }
}

/// The two-phase legalize flow: parse → admit (acceptance is durable
/// before the client sees it) → block for the job's final line.
fn handle_legalize(
    shared: &Shared,
    stream: &mut TcpStream,
    dir: &str,
    deadline_secs: Option<f64>,
) -> bool {
    let depth = lock(&shared.queue).len() as u64;
    if shared.draining.load(Ordering::SeqCst) {
        return send_line(
            stream,
            &wire::retry_after_line(shared.cfg.retry_after_ms, depth, true),
        );
    }
    // A full queue is refused before paying for the parse; admission
    // re-checks under the queue lock.
    if depth >= shared.cfg.queue_cap as u64 {
        return send_line(stream, &reject_full(shared, depth));
    }
    // Parse on the connection thread: a corrupt bundle is refused here
    // and never consumes queue capacity or journal space.
    let design = match mcl_parsers::read_bookshelf_dir(Path::new(dir)) {
        Ok(d) => d,
        Err(e) => {
            return send_line(
                stream,
                &wire::error_line(Status::Parse, &format!("{dir}: {e}")),
            );
        }
    };
    let deadline = deadline_secs.or(shared.cfg.default_deadline_secs);
    let (accepted, receiver) = admit(shared, design, deadline);
    let Some(receiver) = receiver else {
        return send_line(stream, &accepted);
    };
    if !send_line(stream, &accepted) {
        // Client went away right after admission; the job still runs to
        // completion below us — its report and journal record do not
        // depend on this connection.
        return false;
    }
    match receiver.recv() {
        Ok(final_line) => send_line(stream, &final_line),
        // Sender dropped without a line: the injected-disconnect path.
        Err(_) => false,
    }
}

/// Admission under the queue lock: capacity check, durable journal
/// acceptance, enqueue. Returns the first response line, plus the
/// receiver for the final line when the job was admitted.
fn admit(
    shared: &Shared,
    design: Design,
    deadline: Option<f64>,
) -> (String, Option<mpsc::Receiver<String>>) {
    let name = design.name.clone();
    let mut q = lock(&shared.queue);
    if shared.draining.load(Ordering::SeqCst) {
        let line = wire::retry_after_line(shared.cfg.retry_after_ms, q.len() as u64, true);
        return (line, None);
    }
    let depth = q.len() as u64;
    {
        let mut meter = lock(&shared.meter);
        meter.observe(HistoKind::ServeQueueDepth, depth);
    }
    // The injected admission race models losing a capacity check to a
    // concurrent admitter: the correct answer is the same backpressure
    // response a genuinely full queue earns.
    if q.len() >= shared.cfg.queue_cap || fault(shared, &name, &FaultSite::ServeAdmission) {
        return (reject_full(shared, depth), None);
    }
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    // Fail closed: if the acceptance cannot be made durable, the job is
    // not accepted. An admission the journal never saw could be silently
    // forgotten by a crash — refusing is the honest answer.
    let journal_ok = if fault(shared, &name, &FaultSite::ServeJournal) {
        Err(std::io::Error::other("injected journal failure"))
    } else {
        match lock(&shared.journal).as_mut() {
            Some(j) => j.accept(id, &name),
            None => Ok(()),
        }
    };
    if let Err(e) = journal_ok {
        shared.counters.rejected.fetch_add(1, Ordering::SeqCst);
        lock(&shared.meter).add(CounterKind::ServeJobsRejected, 1);
        let line = wire::error_line(
            Status::Internal,
            &format!("journal write failed; job not admitted: {e}"),
        );
        return (line, None);
    }
    let (tx, rx) = mpsc::channel();
    q.push_back(Job {
        design: Cow::Owned(design),
        budget: deadline,
        ticket: JobMeta {
            id,
            name: name.clone(),
            sw: Stopwatch::start(),
            reply: tx,
        },
    });
    drop(q);
    shared.wake.notify_all();
    shared.counters.admitted.fetch_add(1, Ordering::SeqCst);
    lock(&shared.meter).add(CounterKind::ServeJobsAdmitted, 1);
    (wire::accepted_line(id, &name), Some(rx))
}

/// Counts a capacity refusal and returns its `RETRY_AFTER` line.
fn reject_full(shared: &Shared, depth: u64) -> String {
    shared.counters.rejected.fetch_add(1, Ordering::SeqCst);
    lock(&shared.meter).add(CounterKind::ServeJobsRejected, 1);
    wire::retry_after_line(shared.cfg.retry_after_ms, depth, false)
}

fn stats_line(shared: &Shared) -> String {
    let meter = lock(&shared.meter);
    let h = meter.histogram(HistoKind::ServeJobNanos);
    let p50_ms = count_to_float(h.approx_quantile(0.5)) / 1e6;
    let p99_ms = count_to_float(h.approx_quantile(0.99)) / 1e6;
    drop(meter);
    let c = &shared.counters;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("status", Status::Ok.name());
    w.field_u64("queue_depth", lock(&shared.queue).len() as u64);
    w.field_u64("admitted", c.admitted.load(Ordering::SeqCst));
    w.field_u64("rejected", c.rejected.load(Ordering::SeqCst));
    w.field_u64("completed", c.completed.load(Ordering::SeqCst));
    w.field_u64("failed", c.failed.load(Ordering::SeqCst));
    w.field_u64("interrupted", c.interrupted.load(Ordering::SeqCst));
    w.field_u64("evicted", c.evicted.load(Ordering::SeqCst));
    w.field_u64("sessions", lock(&shared.sessions).len() as u64);
    w.field_bool("draining", shared.draining.load(Ordering::SeqCst));
    w.field_f64("job_ms_p50", p50_ms, 3);
    w.field_f64("job_ms_p99", p99_ms, 3);
    w.end_object();
    w.finish()
}

// ---------------------------------------------------------------------------
// Resident ECO sessions.
// ---------------------------------------------------------------------------

fn eco_open(shared: &Shared, dir: &str, deadline_secs: Option<f64>) -> String {
    if shared.draining.load(Ordering::SeqCst) {
        return wire::retry_after_line(shared.cfg.retry_after_ms, 0, true);
    }
    let design = match mcl_parsers::read_bookshelf_dir(Path::new(dir)) {
        Ok(d) => d,
        Err(e) => return wire::error_line(Status::Parse, &format!("{dir}: {e}")),
    };
    let mut cfg = shared.cfg.engine.clone();
    if let Some(d) = deadline_secs {
        // A session deadline tightens (never loosens) the engine budget.
        cfg.stage_budget_secs = Some(match cfg.stage_budget_secs {
            Some(b) => b.min(d),
            None => d,
        });
    }
    let session = match EcoSession::open(design, cfg) {
        Ok(s) => s,
        Err(e) => return wire::error_line(Status::from_error(&e), &e.to_string()),
    };
    let id = shared.next_session.fetch_add(1, Ordering::SeqCst);
    let name = session.design().name.clone();
    let cells = session.design().cells.len() as u64;
    lock(&shared.sessions).insert(
        id,
        Arc::new(SessionSlot {
            session: Mutex::new(session),
            last_used_nanos: AtomicU64::new(shared.clock.elapsed_nanos()),
        }),
    );
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("status", Status::Ok.name());
    w.field_u64("session", id);
    w.field_str("design", &name);
    w.field_u64("cells", cells);
    w.end_object();
    w.finish()
}

/// Fetches a session slot, bumping its idle clock.
fn session_slot(shared: &Shared, id: u64) -> Option<Arc<SessionSlot>> {
    let slot = lock(&shared.sessions).get(&id).map(Arc::clone)?;
    slot.last_used_nanos
        .store(shared.clock.elapsed_nanos(), Ordering::SeqCst);
    Some(slot)
}

fn eco_delta(shared: &Shared, id: u64, delta: &DeltaSpec) -> String {
    if shared.draining.load(Ordering::SeqCst) {
        return wire::retry_after_line(shared.cfg.retry_after_ms, 0, true);
    }
    let Some(slot) = session_slot(shared, id) else {
        return wire::error_line(Status::Usage, &format!("unknown session {id}"));
    };
    // The session lock serializes deltas on one session (they mutate its
    // base) while other sessions and the job queue proceed in parallel.
    let mut session = lock(&slot.session);
    let moves = match delta {
        DeltaSpec::Moves(m) => m.clone(),
        DeltaSpec::Synth { cells, seed } => {
            EcoSession::synthesize_delta(session.design(), *cells, *seed)
        }
    };
    let sw = Stopwatch::start();
    match session.apply_delta(&moves) {
        Ok((stats, _log)) => {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_str("status", Status::Ok.name());
            w.field_u64("session", id);
            w.field_u64("moved", moves.len() as u64);
            w.field_f64("delta_ms", count_to_float(sw.elapsed_nanos()) / 1e6, 3);
            w.field_u64(
                "windows_dirty",
                stats.obs.counter(CounterKind::EcoWindowsDirty),
            );
            w.field_u64(
                "cells_reused",
                stats.obs.counter(CounterKind::EcoCellsReused),
            );
            // The stage split and flow work, under the run report's names.
            w.key("stage_seconds");
            w.begin_object();
            for t in &stats.stage_seconds {
                w.field_f64(t.name, t.seconds, 6);
            }
            w.end_object();
            w.key("counters");
            w.begin_object();
            for kind in [
                CounterKind::MatchingSimplexPivots,
                CounterKind::SimplexPivots,
            ] {
                w.field_u64(kind.name(), stats.obs.counter(kind));
            }
            w.end_object();
            w.end_object();
            w.finish()
        }
        Err(e) => {
            // The delta is atomic: on any classed failure (including a
            // blown deadline budget) the session base is unchanged.
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_str("status", Status::from_error(&e).name());
            w.field_u64("session", id);
            w.key("failure");
            w.begin_object();
            w.field_str("class", e.class().label());
            w.field_str("error", &e.to_string());
            w.field_bool("rolled_back", true);
            w.end_object();
            w.end_object();
            w.finish()
        }
    }
}

fn eco_commit(shared: &Shared, id: u64, out: &str) -> String {
    let Some(slot) = session_slot(shared, id) else {
        return wire::error_line(Status::Usage, &format!("unknown session {id}"));
    };
    let session = lock(&slot.session);
    let design = session.design();
    match mcl_parsers::write_bookshelf_dir(design, Path::new(out), &design.name) {
        Ok(()) => {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_str("status", Status::Ok.name());
            w.field_u64("session", id);
            w.field_str("out", out);
            w.end_object();
            w.finish()
        }
        Err(e) => wire::error_line(Status::Internal, &format!("{out}: {e}")),
    }
}

fn eco_close(shared: &Shared, id: u64) -> String {
    if lock(&shared.sessions).remove(&id).is_none() {
        return wire::error_line(Status::Usage, &format!("unknown session {id}"));
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("status", Status::Ok.name());
    w.field_u64("session", id);
    w.field_bool("closed", true);
    w.end_object();
    w.finish()
}

// ---------------------------------------------------------------------------
// Wire client (shared by the CLI `rpc` subcommand, tests and benches).
// ---------------------------------------------------------------------------

/// A blocking newline-delimited JSON client.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Any connect error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Any write error.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }

    /// Receives one response line; `None` on EOF (server hung up).
    ///
    /// # Errors
    ///
    /// Any read error.
    pub fn recv(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// One request, one response.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn request(&mut self, line: &str) -> std::io::Result<Option<String>> {
        self.send(line)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_publishes_of_one_report_all_succeed() {
        // Same-named jobs finishing on different runners publish the same
        // report path at once; no rename may lose its tmp file to another.
        let dir = std::env::temp_dir().join(format!("mcl_serve_publish_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("same.json");
        std::thread::scope(|s| {
            for t in 0..4 {
                let path = &path;
                s.spawn(move || {
                    for i in 0..200 {
                        write_atomically(path, &format!("{t}:{i}")).unwrap();
                    }
                });
            }
        });
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "only the published report remains");
        std::fs::remove_dir_all(&dir).ok();
    }
}
