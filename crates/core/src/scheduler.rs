//! Deterministic multi-threaded MGL (§3.5) — the one MGL algorithm.
//!
//! The scheduler runs in rounds. Each round selects, in the fixed cell
//! order, up to `window_list_capacity` cells whose search windows do not
//! overlap each other (`L_p` in the paper); their insertions are evaluated
//! concurrently against the round-start state and applied sequentially in
//! selection order. Cells whose windows overlap a selected window wait for a
//! later round (`L_w`), and failed windows re-enter expanded. Because the
//! selected set, the evaluation inputs and the application order are all
//! independent of thread count, results are bit-identical for any number of
//! threads (given a fixed list capacity), including one thread, where every
//! round runs inline on the calling thread.
//!
//! ## Execution model
//!
//! Workers live in an [`EvalPool`]: OS threads spawned once and shared by
//! **any number of concurrent runs** — every message is tagged with a run
//! id, so eval jobs from multiple in-flight designs interleave on the same
//! workers (the [`crate::engine::Engine`] drives a whole batch of designs
//! through one pool, and a single design is a batch of one). Each run
//! starts with a `Begin` message carrying a full replica of the placement
//! state, which the worker keeps in lockstep by
//! replaying the applied insertions broadcast after every round — so
//! evaluation needs no locks at all. Jobs are pulled from a per-round
//! atomic cursor (work stealing), which keeps all workers busy even when
//! one window is much more expensive than the rest; the run's coordinator
//! steals jobs too, and a worker that drains one design's round
//! immediately serves whichever design publishes next (work conservation —
//! no worker idles while any in-flight design has runnable jobs). Results
//! travel on per-run reply channels keyed by job index, making each
//! design's apply order independent of which worker produced each result
//! and of what the other designs are doing. An `End` message closes a run:
//! the worker drops that replica, reports its counters, and keeps serving
//! the other runs.
//!
//! Determinism is per design: the selected sets, the evaluation inputs and
//! the application order are all decided by the design's own coordinator
//! from its own state, so a design's output is bit-identical to its solo
//! run for any thread count and any batch composition.
//!
//! Window-overlap selection uses a [`WindowIndex`] (row-band interval
//! index) instead of scanning the selected list per pending cell, keeping
//! each round's selection near-linear in the pending count.

use crate::config::LegalizerConfig;
use crate::error::{panic_message, LegalizeError};
use crate::faultinject::{FaultPlan, FaultSite};
use crate::insertion::{best_insertion_in, CostModel, Insertion, InsertionScratch};
use crate::mgl::{
    apply_insertion_with, cell_order, fallback_scan, record_fallback_reject, window_for, MglStats,
};
use crate::pipeline::Prep;
use crate::routability::RoutOracle;
use crate::state::PlacementState;
use crate::winindex::WindowIndex;
use mcl_db::prelude::*;
use mcl_obs::{clock::Stopwatch, CounterKind, HistoKind, Meter, SpanKind};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// One evaluation job: target cell, expansion level, search window.
type Job = (CellId, usize, Rect);

/// How long the coordinator waits on a pool channel before declaring the
/// pool broken. Only reachable on error paths — the happy path never
/// blocks this long because workers answer every message.
const POOL_WAIT: Duration = Duration::from_mins(1);

/// Deterministic retries of a failed per-cell insertion evaluation before
/// the cell is quarantined (DESIGN.md §11). Retries run on the coordinator
/// in cell order, so the outcome is independent of thread count.
const FAULT_RETRY_BUDGET: u32 = 1;

/// One evaluation outcome: the best insertion (or none), or the message of
/// a panic the worker contained at its job boundary.
type EvalResult = Result<Option<Insertion>, String>;

/// Evaluates one window with panic containment: an injected [`FaultSite::
/// MglEval`] fault or a real panic inside the evaluator surfaces as
/// `Err(message)` instead of unwinding into the caller. Shared by workers,
/// the coordinator's steal loop and the deterministic retry pass, so every
/// path contains failures identically.
pub(crate) fn eval_job(
    state: &PlacementState<'_>,
    cell: CellId,
    win: Rect,
    model: &CostModel<'_>,
    scratch: &mut InsertionScratch,
    faults: Option<&Arc<FaultPlan>>,
) -> EvalResult {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        let site = FaultSite::MglEval { cell: cell.0 };
        if crate::faultinject::fires(faults, &state.design().name, &site) {
            crate::faultinject::injected_panic(&site);
        }
        best_insertion_in(state, cell, win, model, scratch)
    }))
    .map_err(|p| panic_message(&*p))
}

/// Everything a worker needs to evaluate windows for one run: its private
/// state replica, the run's cost-model inputs, and the run's private reply
/// channels. Sent once per run via [`Msg::Begin`]; the replica is kept in
/// lockstep via [`Msg::Apply`]. Reply channels are per run so results from
/// interleaved designs can never mix: a result lands in its own design's
/// coordinator or (if the run was abandoned) in a closed channel.
struct RunSetup<'a> {
    replica: PlacementState<'a>,
    weights: Arc<Vec<i64>>,
    oracle: Option<Arc<RoutOracle<'a>>>,
    reference: crate::config::DisplacementReference,
    normalize: bool,
    io_penalty: i64,
    rail_penalty: i64,
    faults: Option<Arc<FaultPlan>>,
    results_tx: mpsc::Sender<(usize, EvalResult)>,
    report_tx: mpsc::Sender<WorkerReport>,
}

impl<'a> RunSetup<'a> {
    fn model(&self) -> CostModel<'_> {
        CostModel {
            reference: self.reference,
            normalize: self.normalize,
            weights: &self.weights,
            oracle: self.oracle.as_deref(),
            io_penalty: self.io_penalty,
            rail_penalty: self.rail_penalty,
        }
    }
}

/// Messages broadcast from a run's coordinator to every pool worker. Every
/// message carries its run id, so messages from concurrently-driven runs
/// interleave freely on the same worker channels.
enum Msg<'a> {
    /// Start run `run`: adopt its replica and cost model.
    Begin { run: usize, spec: Box<RunSetup<'a>> },
    /// Evaluate `run`'s jobs pulled from the shared cursor against that
    /// run's replica.
    Round {
        run: usize,
        jobs: Arc<Vec<Job>>,
        cursor: Arc<AtomicUsize>,
    },
    /// Replay `run`'s applied insertions to keep its replica in sync.
    Apply {
        run: usize,
        ops: Arc<Vec<(CellId, Insertion)>>,
    },
    /// End run `run`: report its per-run counters on its report channel,
    /// drop its replica, keep serving the other runs.
    End { run: usize },
}

/// End-of-run report from one worker.
struct WorkerReport {
    /// Scratch counters accumulated since the worker's last report. The
    /// worker's scratch arena is shared by every run it serves, so under
    /// interleaving these charge to whichever run ends first; sums over a
    /// batch are exact.
    scratch: crate::insertion::ScratchStats,
    eval_nanos: u64,
    /// Thread-local spans/histograms. Which worker evaluated which window
    /// depends on the work-stealing race, so per-thread attribution is
    /// best-effort; the merged aggregate is well-defined regardless because
    /// meter merging is commutative.
    obs: Meter,
}

/// One run's live state inside a worker.
struct WorkerRun<'a> {
    spec: Box<RunSetup<'a>>,
    /// Set when a panic escaped an `Apply` replay or the run's coordinator
    /// went away: the replica may be half-mutated (or orphaned), so the
    /// worker sits this run out. Safe — each round's shared cursor lets
    /// the coordinator and healthy workers drain it regardless of who
    /// participates.
    poisoned: bool,
    eval_nanos: u64,
    obs: Meter,
}

/// A persistent pool of evaluation workers shared by any number of
/// concurrent runs; each worker keeps one replica per active run and
/// serves whichever run publishes a round next. Workers own their
/// [`InsertionScratch`] for the pool's whole lifetime, so scratch arenas
/// warmed by one design are reused by the next.
pub struct EvalPool<'a> {
    senders: Vec<mpsc::Sender<Msg<'a>>>,
    workers: usize,
    steals: Arc<AtomicU64>,
}

impl<'a> EvalPool<'a> {
    /// Spawns `workers` evaluation threads onto `scope`. The pool lives
    /// until dropped (closing the channels exits the threads once every
    /// [`PoolClient`] clone is gone too); the scope must outlive it.
    pub fn spawn<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        workers: usize,
    ) -> EvalPool<'a>
    where
        'a: 'scope,
    {
        let steals = Arc::new(AtomicU64::new(0));
        let mut senders: Vec<mpsc::Sender<Msg<'a>>> = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel::<Msg<'a>>();
            senders.push(tx);
            let steals = Arc::clone(&steals);
            scope.spawn(move || {
                let mut scratch = InsertionScratch::new();
                let mut runs: Vec<(usize, WorkerRun<'a>)> = Vec::new();
                // The run this worker last evaluated a job for; claiming a
                // job from a different run is a cross-design steal.
                let mut last_run: Option<usize> = None;
                // Worker thread ids start at 1; 0 is the coordinator.
                let thread_id = w + 1;
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Begin { run, spec } => {
                            runs.retain(|(id, _)| *id != run);
                            runs.push((
                                run,
                                WorkerRun {
                                    spec,
                                    poisoned: false,
                                    eval_nanos: 0,
                                    obs: Meter::new(),
                                },
                            ));
                        }
                        Msg::Round { run, jobs, cursor } => {
                            let Some((_, wr)) = runs.iter_mut().find(|(id, _)| *id == run) else {
                                continue;
                            };
                            if wr.poisoned {
                                continue;
                            }
                            let WorkerRun {
                                spec,
                                poisoned,
                                eval_nanos,
                                obs,
                            } = wr;
                            let model = spec.model();
                            let mut claimed = false;
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= jobs.len() {
                                    break;
                                }
                                if !claimed {
                                    claimed = true;
                                    if last_run.is_some_and(|p| p != run) {
                                        steals.fetch_add(1, Ordering::Relaxed);
                                        // Attributed to the run being served
                                        // (the stealing beneficiary); lands
                                        // in its report via `WorkerReport`.
                                        obs.add(CounterKind::CrossDesignSteals, 1);
                                    }
                                    last_run = Some(run);
                                }
                                let (cell, _, win) = jobs[i];
                                let t = Stopwatch::start();
                                // Panic-safe boundary: a panicking job
                                // becomes an `Err` result and the worker
                                // lives on to serve the next job.
                                let r = eval_job(
                                    &spec.replica,
                                    cell,
                                    win,
                                    &model,
                                    &mut scratch,
                                    spec.faults.as_ref(),
                                );
                                let dt = t.elapsed_nanos();
                                *eval_nanos += dt;
                                obs.record_span(SpanKind::InsertionEval, dt, thread_id);
                                obs.observe(HistoKind::InsertionEvalNanos, dt);
                                if spec.results_tx.send((i, r)).is_err() {
                                    // This run's coordinator abandoned it;
                                    // stop serving the run but keep the
                                    // worker alive for the other runs.
                                    *poisoned = true;
                                    break;
                                }
                            }
                        }
                        Msg::Apply { run, ops } => {
                            let Some((_, wr)) = runs.iter_mut().find(|(id, _)| *id == run) else {
                                continue;
                            };
                            if wr.poisoned {
                                continue;
                            }
                            let replayed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                for (cell, ins) in ops.iter() {
                                    // Reuse the worker's scratch for the
                                    // apply-ordering buffers: replaying a
                                    // round's ops must not allocate one
                                    // throwaway scratch per op.
                                    apply_insertion_with(
                                        &mut wr.spec.replica,
                                        *cell,
                                        ins,
                                        &mut scratch,
                                    );
                                }
                            }));
                            if replayed.is_err() {
                                wr.poisoned = true;
                            }
                        }
                        Msg::End { run } => {
                            let Some(pos) = runs.iter().position(|(id, _)| *id == run) else {
                                continue;
                            };
                            let (_, wr) = runs.swap_remove(pos);
                            let report = WorkerReport {
                                scratch: std::mem::take(&mut scratch.stats),
                                eval_nanos: wr.eval_nanos,
                                obs: wr.obs,
                            };
                            // A closed report channel means the run was
                            // cancelled rather than finished; its counters
                            // are forfeit but the worker lives on.
                            let _ = wr.spec.report_tx.send(report);
                        }
                    }
                }
            });
        }
        EvalPool {
            senders,
            workers,
            steals,
        }
    }

    /// Number of worker threads (run coordinators are not counted).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// An owned connection to this pool. Clients are cheap sender clones,
    /// so each runner thread of a batch can own one and mint run handles
    /// without borrowing the pool across threads.
    pub fn client(&self) -> PoolClient<'a> {
        PoolClient {
            senders: self.senders.clone(),
            workers: self.workers,
        }
    }

    /// Shared counter of cross-design steals: rounds in which a worker
    /// switched to a different run than it last served. Read it after the
    /// pool's scope to fold into engine diagnostics.
    pub fn steal_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.steals)
    }
}

/// An owned, cloneable connection to an [`EvalPool`]: the worker message
/// senders. Run coordinators use it to mint per-run handles; dropping
/// every client plus the pool closes the worker channels.
#[derive(Clone)]
pub struct PoolClient<'a> {
    senders: Vec<mpsc::Sender<Msg<'a>>>,
    workers: usize,
}

impl<'a> PoolClient<'a> {
    /// Number of worker threads (run coordinators are not counted).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Creates the reply channels for run `run`. The handle is the run's
    /// private mailbox: results and end-of-run reports from interleaved
    /// runs can never land here because workers answer on the channels
    /// carried by each run's own [`RunSetup`].
    fn run_handle(&self, run: usize) -> RunHandle<'_, 'a> {
        let (results_tx, results_rx) = mpsc::channel::<(usize, EvalResult)>();
        let (report_tx, report_rx) = mpsc::channel::<WorkerReport>();
        RunHandle {
            run,
            client: self,
            results_tx,
            results_rx,
            report_tx,
            report_rx,
        }
    }

    /// Tells every worker run `run` is over after its coordinator
    /// abandoned it mid-protocol (a contained stage panic or a pool
    /// error): workers drop that run's replica and keep serving the other
    /// runs; the abandoned run's stale results and reports go to its
    /// dropped reply channels. Returns `false` when a worker is
    /// unreachable, in which case the pool must not be reused.
    pub(crate) fn cancel_run(&self, run: usize) -> bool {
        let mut ok = true;
        for tx in &self.senders {
            ok &= tx.send(Msg::End { run }).is_ok();
        }
        ok
    }
}

/// One run's connection to the pool: the broadcast senders plus the run's
/// private reply channels.
struct RunHandle<'c, 'a> {
    run: usize,
    client: &'c PoolClient<'a>,
    results_tx: mpsc::Sender<(usize, EvalResult)>,
    results_rx: mpsc::Receiver<(usize, EvalResult)>,
    report_tx: mpsc::Sender<WorkerReport>,
    report_rx: mpsc::Receiver<WorkerReport>,
}

impl<'a> RunHandle<'_, 'a> {
    fn begin(
        &self,
        state: &PlacementState<'a>,
        config: &LegalizerConfig,
        prep: &Prep<'a>,
    ) -> Result<(), LegalizeError> {
        for tx in &self.client.senders {
            let spec = Box::new(RunSetup {
                replica: state.clone(),
                weights: Arc::clone(&prep.weights),
                oracle: prep.oracle.clone(),
                reference: config.reference,
                normalize: config.normalize_curves,
                io_penalty: config.io_penalty,
                rail_penalty: config.rail_penalty,
                faults: config.faults.clone(),
                results_tx: self.results_tx.clone(),
                report_tx: self.report_tx.clone(),
            });
            if tx
                .send(Msg::Begin {
                    run: self.run,
                    spec,
                })
                .is_err()
            {
                return Err(LegalizeError::PoolBroken { during: "begin" });
            }
        }
        Ok(())
    }

    fn round(&self, jobs: &Arc<Vec<Job>>, cursor: &Arc<AtomicUsize>) -> Result<(), LegalizeError> {
        for tx in &self.client.senders {
            let msg = Msg::Round {
                run: self.run,
                jobs: Arc::clone(jobs),
                cursor: Arc::clone(cursor),
            };
            if tx.send(msg).is_err() {
                return Err(LegalizeError::PoolBroken { during: "round" });
            }
        }
        Ok(())
    }

    fn apply(&self, ops: Vec<(CellId, Insertion)>) -> Result<(), LegalizeError> {
        let ops = Arc::new(ops);
        for tx in &self.client.senders {
            let msg = Msg::Apply {
                run: self.run,
                ops: Arc::clone(&ops),
            };
            if tx.send(msg).is_err() {
                return Err(LegalizeError::PoolBroken { during: "apply" });
            }
        }
        Ok(())
    }

    /// Ends the run: every worker reports this run's counters, which are
    /// folded into `stats`. Reports arrive in worker-finish order, which
    /// is nondeterministic; scratch and meter merging are commutative, so
    /// the fold is order-independent.
    fn finish(&self, stats: &mut MglStats) -> Result<(), LegalizeError> {
        for tx in &self.client.senders {
            if tx.send(Msg::End { run: self.run }).is_err() {
                return Err(LegalizeError::PoolBroken { during: "finish" });
            }
        }
        for _ in 0..self.client.workers {
            let report = self
                .report_rx
                .recv_timeout(POOL_WAIT)
                .map_err(|_| LegalizeError::PoolBroken { during: "finish" })?;
            stats.perf.scratch.merge(&report.scratch);
            stats.perf.eval_cpu_nanos += report.eval_nanos;
            stats.obs.merge(&report.obs);
        }
        Ok(())
    }
}

/// The deterministic round loop: select non-overlapping windows, evaluate
/// them on the pool behind `pool`'s client (coordinator steals too), apply
/// in selection order, broadcast the applied ops. This is the single MGL
/// driver behind every engine run; `pool` carries the run id that tags
/// this design's messages on the shared workers, and `None` (or a
/// workerless pool) runs every round inline on the calling thread — same
/// rounds, same results. The caller owns the pool and the coordinator
/// scratch, so both survive across runs.
pub(crate) fn drive_rounds<'d: 'p, 'p>(
    state: &mut PlacementState<'d>,
    config: &LegalizerConfig,
    prep: &Prep<'d>,
    pool: Option<(&PoolClient<'p>, usize)>,
    main_scratch: &mut InsertionScratch,
) -> Result<MglStats, LegalizeError> {
    let t_total = Stopwatch::start();
    let (weights, oracle) = (&prep.weights[..], prep.oracle());
    let design = state.design();
    let capacity = config.window_list_capacity.max(1);
    let mut stats = MglStats::default();

    // (cell, expansion level) in processing order, split in two: `carry`
    // holds cells deferred by the previous round (expanded retries first,
    // then overlap-deferred), `backlog` the never-yet-considered tail in
    // original order. A round pops carry-then-backlog, which is exactly
    // the order a single queue would yield — but on a capacity break the
    // untouched backlog tail stays where it is instead of being drained
    // into the deferred queue, turning the total selection work from
    // quadratic in the cell count (ruinous at 1M cells) into linear.
    let mut backlog: VecDeque<(CellId, usize)> = cell_order(design, config.order)
        .into_iter()
        .filter(|&c| state.pos(c).is_none())
        .map(|c| (c, 0usize))
        .collect();
    let mut carry: VecDeque<(CellId, usize)> = VecDeque::new();
    let mut fallback_queue: Vec<CellId> = Vec::new();
    let mut windex = WindowIndex::new(design.core, design.tech.row_height);
    // A run with 0 or 1 pending cells never fans out; skip the replica
    // clones entirely.
    let handle = match pool {
        Some((client, run)) if client.workers() > 0 && backlog.len() > 1 => {
            let h = client.run_handle(run);
            let replica_src: &PlacementState<'p> = &*state;
            h.begin(replica_src, config, prep)?;
            Some(h)
        }
        _ => None,
    };

    let model = CostModel {
        reference: config.reference,
        normalize: config.normalize_curves,
        weights,
        oracle,
        io_penalty: config.io_penalty,
        rail_penalty: config.rail_penalty,
    };
    // Reused per round; results are slotted by job index. A slot left at
    // `None` after the repair pass marks a quarantined cell.
    let mut results: Vec<Option<EvalResult>> = Vec::new();

    while !(carry.is_empty() && backlog.is_empty()) {
        stats.perf.rounds += 1;
        // Select non-overlapping windows, preserving order for the rest.
        let t_select = Stopwatch::start();
        let mut selected: Vec<Job> = Vec::new();
        let mut deferred: VecDeque<(CellId, usize)> = VecDeque::new();
        windex.clear();
        while let Some((cell, n)) = carry.pop_front().or_else(|| backlog.pop_front()) {
            let win = window_for(design, cell, config, n);
            if windex.overlaps_any(win) {
                deferred.push_back((cell, n));
            } else {
                windex.insert(win);
                selected.push((cell, n, win));
                if selected.len() >= capacity {
                    // Capacity reached: everything not yet popped simply
                    // stays in carry/backlog for the next round, order
                    // preserved at zero cost.
                    break;
                }
            }
        }
        let select_nanos = t_select.elapsed_nanos();
        stats.perf.select_nanos += select_nanos;
        stats
            .obs
            .record_span(SpanKind::SchedSelect, select_nanos, 0);

        // Evaluate concurrently against the immutable round-start state:
        // broadcast the job list, then steal from the shared cursor
        // alongside the workers until it runs dry, then collect.
        let t_eval = Stopwatch::start();
        stats.perf.windows_evaluated += selected.len() as u64;
        stats
            .obs
            .add(CounterKind::WindowsEvaluated, selected.len() as u64);
        results.clear();
        results.resize(selected.len(), None);
        let mut outstanding = 0usize;
        if let Some(h) = handle.as_ref().filter(|_| selected.len() > 1) {
            let jobs = Arc::new(selected.clone());
            let cursor = Arc::new(AtomicUsize::new(0));
            h.round(&jobs, &cursor)?;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let t = Stopwatch::start();
                let r = eval_job(
                    state,
                    jobs[i].0,
                    jobs[i].2,
                    &model,
                    main_scratch,
                    config.faults.as_ref(),
                );
                let dt = t.elapsed_nanos();
                stats.perf.eval_cpu_nanos += dt;
                stats.obs.record_span(SpanKind::InsertionEval, dt, 0);
                stats.obs.observe(HistoKind::InsertionEvalNanos, dt);
                results[i] = Some(r);
                outstanding += 1;
            }
            // Queue-wait: time this coordinator blocks on results its jobs
            // spent queued or running on the shared workers. One
            // observation per pooled round, so interleaved batches expose
            // per-design queue pressure in the report histograms.
            let t_wait = Stopwatch::start();
            while outstanding < selected.len() {
                let (i, r) = h
                    .results_rx
                    .recv_timeout(POOL_WAIT)
                    .map_err(|_| LegalizeError::PoolBroken { during: "collect" })?;
                results[i] = Some(r);
                outstanding += 1;
            }
            stats
                .obs
                .observe(HistoKind::SchedQueueWaitNanos, t_wait.elapsed_nanos());
        } else {
            for (i, &(cell, _, win)) in selected.iter().enumerate() {
                let t = Stopwatch::start();
                let r = eval_job(
                    state,
                    cell,
                    win,
                    &model,
                    main_scratch,
                    config.faults.as_ref(),
                );
                let dt = t.elapsed_nanos();
                stats.perf.eval_cpu_nanos += dt;
                stats.obs.record_span(SpanKind::InsertionEval, dt, 0);
                stats.obs.observe(HistoKind::InsertionEvalNanos, dt);
                results[i] = Some(r);
            }
        }
        let eval_nanos = t_eval.elapsed_nanos();
        stats.perf.eval_nanos += eval_nanos;
        stats.obs.record_span(SpanKind::SchedEval, eval_nanos, 0);

        // Deterministic repair pass: a job whose evaluation panicked (on
        // any thread) is retried on the coordinator, in job-index order,
        // against the same round-start state — so the outcome never
        // depends on which thread hit the panic or on the thread count.
        // A job that keeps failing past the retry budget quarantines its
        // cell: the slot reverts to `None` and the cell is left unplaced.
        for (i, &(cell, _, win)) in selected.iter().enumerate() {
            let mut last = match &results[i] {
                Some(Err(m)) => m.clone(),
                _ => continue,
            };
            let mut attempts = 0u32;
            loop {
                if attempts >= FAULT_RETRY_BUDGET {
                    stats.quarantined += 1;
                    stats.failures.push(
                        LegalizeError::CellQuarantined {
                            stage: "mgl",
                            cell: cell.0,
                            retries: attempts,
                            message: last,
                        }
                        .to_record(),
                    );
                    results[i] = None;
                    break;
                }
                attempts += 1;
                stats.retries += 1;
                match eval_job(
                    state,
                    cell,
                    win,
                    &model,
                    main_scratch,
                    config.faults.as_ref(),
                ) {
                    Ok(r) => {
                        results[i] = Some(Ok(r));
                        break;
                    }
                    Err(m) => last = m,
                }
            }
        }

        // Apply sequentially in selection order; broadcast the applied
        // ops so replicas stay in lockstep.
        let t_apply = Stopwatch::start();
        let mut ops: Vec<(CellId, Insertion)> = Vec::new();
        for (i, (cell, n, win)) in selected.into_iter().enumerate() {
            match results[i].take() {
                // Quarantined by the repair pass: the cell stays unplaced
                // and takes no further part in the run.
                None => {}
                // Unreachable (the repair pass resolves every `Err`), but
                // degrading to quarantine beats asserting here.
                Some(Err(_)) => {}
                Some(Ok(Some(ins))) => {
                    let site = FaultSite::MglApply { cell: cell.0 };
                    if crate::faultinject::fires(config.faults.as_ref(), &design.name, &site) {
                        crate::faultinject::injected_panic(&site);
                    }
                    // Pooled apply buffers: the throwaway-scratch variant
                    // would construct (and count) one scratch per applied
                    // cell — at 1M cells that is 1M needless allocations on
                    // the coordinator's sequential apply path.
                    apply_insertion_with(state, cell, &ins, main_scratch);
                    stats.placed_in_window += 1;
                    // Expansions were already counted one-by-one when
                    // each failed window re-entered expanded (the
                    // previous `+= n` here double-counted every retry).
                    ops.push((cell, ins));
                }
                Some(Ok(None)) => {
                    // Stop expanding once the window already covers the
                    // whole core: a bigger window finds nothing new.
                    let full_core = win == design.core && n > 0;
                    if n < config.max_expansions && !full_core {
                        stats.expansions += 1;
                        stats.obs.add(CounterKind::WindowsExpanded, 1);
                        // Retry the expanded window first thing next
                        // round — otherwise neighbours fill the cell's
                        // space while it waits.
                        deferred.push_front((cell, n + 1));
                    } else {
                        fallback_queue.push(cell);
                    }
                }
            }
        }
        if let Some(h) = handle.as_ref().filter(|_| !ops.is_empty()) {
            h.apply(ops)?;
        }
        let apply_nanos = t_apply.elapsed_nanos();
        stats.perf.apply_nanos += apply_nanos;
        stats.obs.record_span(SpanKind::SchedApply, apply_nanos, 0);
        // Next round processes this round's deferred cells first, then
        // whatever was left unpopped. `append` drains `carry` (bounded by
        // cells actually examined this round, not by the design size).
        deferred.append(&mut carry);
        carry = deferred;
    }

    // Close the run and fold worker counters into the run stats. The
    // workers stay alive for the pool's other (possibly concurrent) runs.
    if let Some(h) = &handle {
        h.finish(&mut stats)?;
    }
    stats
        .perf
        .scratch
        .merge(&std::mem::take(&mut main_scratch.stats));
    crate::mgl::record_scratch_counters(&mut stats.obs, &stats.perf.scratch);

    let t_fb = Stopwatch::start();
    for cell in fallback_queue {
        stats.obs.add(CounterKind::FallbackScans, 1);
        let p = match fallback_scan(state, cell, oracle) {
            Some(p) => Some(p),
            None => {
                stats.obs.add(CounterKind::FallbackScans, 1);
                fallback_scan(state, cell, None)
            }
        };
        match p {
            Some(p) => match state.place(cell, p) {
                Ok(()) => stats.fallbacks += 1,
                Err(e) => record_fallback_reject(&mut stats, cell, p, &e),
            },
            None => stats.failed += 1,
        }
    }
    let fb_nanos = t_fb.elapsed_nanos();
    stats.perf.fallback_nanos += fb_nanos;
    if fb_nanos > 0 && stats.fallbacks + stats.failed > 0 {
        stats.obs.record_span(SpanKind::FallbackScan, fb_nanos, 0);
    }
    stats.perf.total_nanos = t_total.elapsed_nanos();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellOrder;
    use mcl_db::legal::Checker;

    /// One MGL run on a private pool of `threads - 1` workers (none at one
    /// thread: every round runs inline).
    fn run_mgl(state: &mut PlacementState<'_>, config: &LegalizerConfig) -> MglStats {
        let prep = Prep::new(state.design(), config);
        let mut scratch = InsertionScratch::new();
        std::thread::scope(|scope| {
            let pool = EvalPool::spawn(scope, config.threads.saturating_sub(1));
            let client = pool.client();
            drive_rounds(state, config, &prep, Some((&client, 0)), &mut scratch).expect("pool run")
        })
    }

    fn dense_design(n_cells: usize, seed: u64) -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 3000, 1800));
        d.add_cell_type(CellType::new("s", 20, 1));
        d.add_cell_type(CellType::new("d", 30, 2));
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for i in 0..n_cells {
            let t = if rng() % 5 == 0 {
                CellTypeId(1)
            } else {
                CellTypeId(0)
            };
            let x = (rng() % 2900) as Dbu;
            let y = (rng() % 1700) as Dbu;
            d.add_cell(Cell::new(format!("c{i}"), t, Point::new(x, y)));
        }
        d
    }

    fn run_with_threads(d: &Design, threads: usize) -> Vec<Option<Point>> {
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.threads = threads;
        cfg.clamp_threads_to_hardware = false;
        cfg.window_list_capacity = 8;
        let mut state = PlacementState::new(d);
        let stats = run_mgl(&mut state, &cfg);
        assert_eq!(stats.failed, 0);
        d.movable_cells().map(|c| state.pos(c)).collect()
    }

    #[test]
    fn parallel_results_independent_of_thread_count() {
        let d = dense_design(150, 1234);
        let p1 = run_with_threads(&d, 1);
        let p2 = run_with_threads(&d, 2);
        let p4 = run_with_threads(&d, 4);
        assert_eq!(p1, p2);
        assert_eq!(p2, p4);
    }

    #[test]
    fn thread_count_invariance_with_oracle() {
        // The routability oracle feeds penalties and alternate candidate
        // positions into the evaluation; they must be identical whether a
        // window was evaluated by the coordinator or any worker replica.
        let mut d = dense_design(140, 4321);
        d.grid = PowerGrid {
            h_layer: 2,
            h_width: 6,
            h_pitch_rows: 1,
            v_layer: 3,
            v_width: 8,
            v_pitch: 400,
            v_offset: 200,
        };
        d.cell_types[0].pins.push(PinShape {
            name: "a".into(),
            layer: 2,
            rect: Rect::new(4, 30, 12, 50),
        });
        let mut cfg = LegalizerConfig::contest();
        cfg.window_list_capacity = 8;
        let run = |threads: usize| {
            let mut c = cfg.clone();
            c.threads = threads;
            c.clamp_threads_to_hardware = false;
            let mut state = PlacementState::new(&d);
            let stats = run_mgl(&mut state, &c);
            assert_eq!(stats.failed, 0, "{stats:?}");
            d.movable_cells()
                .map(|cl| state.pos(cl))
                .collect::<Vec<_>>()
        };
        let p1 = run(1);
        let p2 = run(2);
        let p4 = run(4);
        assert_eq!(p1, p2);
        assert_eq!(p2, p4);
    }

    #[test]
    fn thread_count_invariance_with_shuffled_order() {
        // HeightThenShuffled changes the pending order (and thus the
        // selected sets); determinism across thread counts must hold for it
        // too.
        let d = dense_design(150, 777);
        let run = |threads: usize| {
            let mut cfg = LegalizerConfig::total_displacement();
            cfg.threads = threads;
            cfg.window_list_capacity = 8;
            cfg.order = CellOrder::HeightThenShuffled;
            let mut state = PlacementState::new(&d);
            let stats = run_mgl(&mut state, &cfg);
            assert_eq!(stats.failed, 0);
            d.movable_cells().map(|c| state.pos(c)).collect::<Vec<_>>()
        };
        let p1 = run(1);
        let p2 = run(2);
        let p4 = run(4);
        assert_eq!(p1, p2);
        assert_eq!(p2, p4);
    }

    #[test]
    fn capacity_one_matches_any_capacity_for_legality() {
        // Different list capacities may give different (all legal)
        // placements; each capacity must be internally deterministic.
        let d = dense_design(120, 99);
        let run_cap = |cap: usize| {
            let mut cfg = LegalizerConfig::total_displacement();
            cfg.threads = 2;
            cfg.clamp_threads_to_hardware = false;
            cfg.window_list_capacity = cap;
            let mut state = PlacementState::new(&d);
            let stats = run_mgl(&mut state, &cfg);
            assert_eq!(stats.failed, 0);
            let mut out = d.clone();
            state.write_back(&mut out);
            assert!(Checker::new(&out).check().is_legal());
            out.cells.iter().map(|c| c.pos).collect::<Vec<_>>()
        };
        for cap in [1usize, 4, 64] {
            assert_eq!(run_cap(cap), run_cap(cap), "capacity {cap} deterministic");
        }
    }

    #[test]
    fn parallel_output_is_legal() {
        let d = dense_design(200, 555);
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.threads = 4;
        cfg.clamp_threads_to_hardware = false;
        let mut state = PlacementState::new(&d);
        let stats = run_mgl(&mut state, &cfg);
        assert_eq!(stats.failed, 0, "{stats:?}");
        let mut out = d.clone();
        state.write_back(&mut out);
        let rep = Checker::new(&out).check();
        assert!(rep.is_legal(), "{:?}", rep.details);
    }

    #[test]
    fn full_core_windows_stop_expanding() {
        // An overfull design forces window failures; once a cell's window
        // covers the whole core, the scheduler must send it to the fallback
        // queue instead of burning the remaining expansions on identical
        // full-core searches (regression test: the seed scheduler kept
        // expanding to max_expansions).
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 200, 180));
        let wide = d.add_cell_type(CellType::new("wide", 180, 1));
        for i in 0..4 {
            d.add_cell(Cell::new(format!("w{i}"), wide, Point::new(0, 0)));
        }
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.threads = 2;
        cfg.clamp_threads_to_hardware = false;
        cfg.max_expansions = 40;
        let mut state = PlacementState::new(&d);
        let stats = run_mgl(&mut state, &cfg);
        // Core holds two rows of one wide cell each: 2 placed, 2 impossible.
        assert_eq!(stats.placed_in_window + stats.fallbacks, 2, "{stats:?}");
        assert_eq!(stats.failed, 2, "{stats:?}");
        // The window growth (2 sites, 1 row per expansion) covers the
        // 20×2-row core within a few expansions; without the early stop the
        // two impossible cells alone would burn 2 × 40 expansions.
        assert!(
            stats.expansions < 40,
            "full-core early stop must bound expansions, got {}",
            stats.expansions
        );
    }

    #[test]
    fn perf_counters_populated() {
        let d = dense_design(100, 2024);
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.threads = 2;
        cfg.clamp_threads_to_hardware = false;
        let mut state = PlacementState::new(&d);
        let stats = run_mgl(&mut state, &cfg);
        assert!(stats.perf.rounds > 0);
        assert!(stats.perf.windows_evaluated >= stats.placed_in_window as u64);
        assert!(stats.perf.total_nanos > 0);
        assert!(stats.perf.scratch.regions > 0);
        assert!(stats.perf.scratch.anchors > 0);
        // Exactly one coordinator scratch and one worker scratch were
        // constructed for this standalone run.
        assert_eq!(stats.perf.scratch.created, 2);
    }

    #[test]
    fn pool_reuse_across_runs_is_bit_identical() {
        // One pool serving two consecutive runs must produce exactly what
        // two private pools produce, and the second run must not allocate
        // new scratches.
        let d1 = dense_design(120, 42);
        let d2 = dense_design(130, 43);
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.threads = 3;
        cfg.clamp_threads_to_hardware = false;
        let w1 = Prep::new(&d1, &cfg);
        let w2 = Prep::new(&d2, &cfg);

        let solo = |d: &Design| {
            let mut state = PlacementState::new(d);
            let stats = run_mgl(&mut state, &cfg);
            assert_eq!(stats.failed, 0);
            d.movable_cells().map(|c| state.pos(c)).collect::<Vec<_>>()
        };
        let (solo1, solo2) = (solo(&d1), solo(&d2));

        let mut scratch = InsertionScratch::new();
        let mut created = Vec::new();
        let (pool1, pool2) = std::thread::scope(|scope| {
            let pool = EvalPool::spawn(scope, 2);
            let client = pool.client();
            let mut state1 = PlacementState::new(&d1);
            let s1 =
                drive_rounds(&mut state1, &cfg, &w1, Some((&client, 0)), &mut scratch).unwrap();
            assert_eq!(s1.failed, 0);
            created.push(s1.perf.scratch.created);
            let p1: Vec<_> = d1.movable_cells().map(|c| state1.pos(c)).collect();
            let mut state2 = PlacementState::new(&d2);
            let s2 =
                drive_rounds(&mut state2, &cfg, &w2, Some((&client, 1)), &mut scratch).unwrap();
            assert_eq!(s2.failed, 0);
            created.push(s2.perf.scratch.created);
            let p2: Vec<_> = d2.movable_cells().map(|c| state2.pos(c)).collect();
            (p1, p2)
        });
        assert_eq!(solo1, pool1);
        assert_eq!(solo2, pool2);
        // First run sees the coordinator + 2 worker scratch constructions;
        // the second run reuses all three.
        assert_eq!(created, vec![3, 0]);
    }

    #[test]
    fn concurrent_runs_interleave_without_perturbing_each_other() {
        // Two coordinator threads drive two designs through ONE shared
        // pool at the same time: eval jobs interleave on the same workers,
        // yet each design's result must be byte-identical to its solo run.
        let d1 = dense_design(150, 2025);
        let d2 = dense_design(160, 4050);
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.threads = 3;
        cfg.clamp_threads_to_hardware = false;
        let w1 = Prep::new(&d1, &cfg);
        let w2 = Prep::new(&d2, &cfg);

        let solo = |d: &Design| {
            let mut state = PlacementState::new(d);
            let stats = run_mgl(&mut state, &cfg);
            assert_eq!(stats.failed, 0);
            d.movable_cells().map(|c| state.pos(c)).collect::<Vec<_>>()
        };
        let (solo1, solo2) = (solo(&d1), solo(&d2));

        for _ in 0..4 {
            let (pool1, pool2) = std::thread::scope(|scope| {
                let pool = EvalPool::spawn(scope, 2);
                let c1 = pool.client();
                let c2 = pool.client();
                // Shadow with references so the `move` closure captures
                // borrows of the outer data plus ownership of its client.
                let (d2, w2, cfg2) = (&d2, &w2, &cfg);
                let runner2 = scope.spawn(move || {
                    let mut scratch = InsertionScratch::new();
                    let mut state = PlacementState::new(d2);
                    let s =
                        drive_rounds(&mut state, cfg2, w2, Some((&c2, 1)), &mut scratch).unwrap();
                    assert_eq!(s.failed, 0);
                    d2.movable_cells().map(|c| state.pos(c)).collect::<Vec<_>>()
                });
                let mut scratch = InsertionScratch::new();
                let mut state = PlacementState::new(&d1);
                let s = drive_rounds(&mut state, &cfg, &w1, Some((&c1, 0)), &mut scratch).unwrap();
                assert_eq!(s.failed, 0);
                let p1: Vec<_> = d1.movable_cells().map(|c| state.pos(c)).collect();
                (p1, runner2.join().unwrap())
            });
            assert_eq!(solo1, pool1);
            assert_eq!(solo2, pool2);
        }
    }

    #[test]
    fn inline_rounds_match_pooled_rounds() {
        // `drive_rounds` with no pool must reproduce the pooled scheduler
        // bit-for-bit (it runs the same rounds inline) — this is what lets
        // batch runners skip the pool when every thread is a runner.
        let d = dense_design(140, 909);
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.threads = 4;
        cfg.clamp_threads_to_hardware = false;
        let w = Prep::new(&d, &cfg);
        let pooled = run_with_threads(&d, 4);
        let mut scratch = InsertionScratch::new();
        let mut state = PlacementState::new(&d);
        let stats = drive_rounds(&mut state, &cfg, &w, None, &mut scratch).unwrap();
        assert_eq!(stats.failed, 0);
        let inline: Vec<_> = d.movable_cells().map(|c| state.pos(c)).collect();
        assert_eq!(pooled, inline);
    }
}
