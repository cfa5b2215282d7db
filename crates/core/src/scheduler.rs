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
//! A run's parallelism is its own. `drive_rounds` gets its job's thread
//! share (DESIGN.md §12) and, for the whole stage, spawns one helper thread
//! per thread past the first inside a `std::thread::scope`; the runner and
//! each helper build their own insertion scratch for the stage. Each round
//! the runner publishes the selected jobs; the runner and its helpers
//! claim them from one atomic cursor (work stealing, so one expensive
//! window does not stall the rest) and evaluate them against the one
//! `PlacementState`, which sits behind an `RwLock`: shared while a round
//! is evaluated, exclusive to the runner while it applies the results in
//! selection order. Results travel back keyed by job index, so the apply
//! order never depends on which thread evaluated what.
//!
//! The hand-off does not sleep while rounds follow each other closely. A
//! helper between rounds watches an atomic tick, yielding its core between
//! looks, for up to `POLL_NANOS`, and only then blocks on the condvar; the
//! runner notifies only when a helper is blocked, so a busy stage pays no
//! futex wake per round. The runner waits for helper results the same way:
//! it polls the channel, yielding, before it blocks on it. Yielding rather
//! than spinning keeps a helper polite to whoever shares its core, such as
//! the job runners of a busy `serve`.
//!
//! The stage cannot hang on a failure. The runner closes the hand-off when
//! it leaves the round loop, on unwind too, so helpers blocked on the next
//! round exit before the scope joins them; a helper that stops answering
//! costs the runner at most `HELPER_WAIT` (one minute) before
//! [`LegalizeError::PoolBroken`].
//!
//! Window-overlap selection asks a [`HierGrid`] (row bands × x-buckets)
//! instead of scanning the selected list per pending cell, keeping each
//! round's selection near-linear in the pending count.

use crate::config::LegalizerConfig;
use crate::error::{panic_message, LegalizeError};
use crate::faultinject::{FaultPlan, FaultSite};
use crate::insertion::{best_insertion_in, CostModel, Insertion, InsertionScratch, ScratchStats};
use crate::mgl::{
    apply_insertion_with, fallback_scan, order_cells, record_fallback_reject, window_for, MglStats,
};
use crate::pipeline::Prep;
use crate::spatial::HierGrid;
use crate::state::PlacementState;
use mcl_db::prelude::*;
use mcl_obs::clock::{thread_cpu_nanos, Stopwatch};
use mcl_obs::{CounterKind, HistoKind, Meter, SpanKind};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// One evaluation job: target cell, expansion level, search window.
type Job = (CellId, usize, Rect);

/// How long the runner waits for a helper's result before declaring the
/// stage broken. Only reachable on error paths: a helper answers every job
/// it claims.
const HELPER_WAIT: Duration = Duration::from_mins(1);

/// How long a thread waiting on the hand-off polls, yielding its core
/// between looks, before it blocks: about the gap between the rounds of a
/// busy stage, so the common hand-off costs no futex sleep and wake.
const POLL_NANOS: u64 = 50_000;

/// Deterministic retries of a failed per-cell insertion evaluation before
/// the cell is quarantined (DESIGN.md §11). Retries run on the runner in
/// cell order, so the outcome is independent of thread count.
const FAULT_RETRY_BUDGET: u32 = 1;

/// One evaluation outcome: the best insertion (or none), or the message of
/// a panic contained at the job boundary.
type EvalResult = Result<Option<Insertion>, String>;

/// Evaluates one window with panic containment: an injected [`FaultSite::
/// MglEval`] fault or a real panic inside the evaluator surfaces as
/// `Err(message)` instead of unwinding into the caller. Shared by the
/// runner, its helpers and the deterministic retry pass, so every path
/// contains failures identically.
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

/// One round's selected jobs and the cursor every thread claims them from.
struct Round {
    jobs: Vec<Job>,
    next: AtomicUsize,
}

impl Round {
    fn claim(&self) -> Option<(usize, Job)> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.jobs.get(i).map(|&job| (i, job))
    }
}

/// The round hand-off: the newest published round, or the stage's end.
#[derive(Default)]
struct Slot {
    /// Rounds published so far; a helper joins each one at most once.
    published: u64,
    round: Option<Arc<Round>>,
    closed: bool,
    /// Helpers blocked on the condvar: the runner notifies only if any.
    parked: usize,
}

/// What a runner shares with its helpers for one MGL stage: the placement
/// and the round hand-off. Lock poison is recovered everywhere: the runner
/// is the only writer of either, and a panic there ends the stage before
/// any helper can claim another job.
struct Hub<'s, 'd> {
    design: &'d Design,
    state: RwLock<&'s mut PlacementState<'d>>,
    slot: Mutex<Slot>,
    wake: Condvar,
    /// Slot changes so far: every publish, then the close. Bumped under the
    /// slot lock, so while the stage runs it equals `Slot::published`; a
    /// polling helper watches it instead of taking the lock. It carries no
    /// data: a helper that sees it move (the `Release` bump pairs with its
    /// `Acquire` load) reads the round under the lock.
    ticks: AtomicU64,
}

impl<'s, 'd> Hub<'s, 'd> {
    fn new(state: &'s mut PlacementState<'d>) -> Self {
        Hub {
            design: state.design(),
            state: RwLock::new(state),
            slot: Mutex::default(),
            wake: Condvar::new(),
            ticks: AtomicU64::new(0),
        }
    }

    fn update(&self, f: impl FnOnce(&mut Slot)) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut slot);
        self.ticks.fetch_add(1, Ordering::Release);
        // A helper raises `parked` under this lock before it waits, so
        // either it sees this change before waiting or it is counted here.
        let parked = slot.parked > 0;
        drop(slot);
        if parked {
            self.wake.notify_all();
        }
    }

    fn publish(&self, round: &Arc<Round>) {
        self.update(|s| {
            s.published += 1;
            s.round = Some(Arc::clone(round));
        });
    }

    fn close(&self) {
        self.update(|s| s.closed = true);
    }

    /// The next round this helper has not joined yet, or `None` once the
    /// stage is over: polled for up to [`POLL_NANOS`], then waited for on
    /// the condvar, which adds one to `parks`.
    fn next_round(&self, joined: &mut u64, parks: &mut u64) -> Option<Arc<Round>> {
        let poll = Stopwatch::start();
        while self.ticks.load(Ordering::Acquire) == *joined && poll.elapsed_nanos() < POLL_NANOS {
            std::thread::yield_now();
        }
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if !slot.closed && slot.published == *joined {
            slot.parked += 1;
            *parks += 1;
            slot = self
                .wake
                .wait_while(slot, |s| !s.closed && s.published == *joined)
                .unwrap_or_else(PoisonError::into_inner);
            slot.parked -= 1;
        }
        *joined = slot.published;
        if slot.closed {
            None
        } else {
            slot.round.clone()
        }
    }

    /// A helper's loop: join each published round, claim its jobs until the
    /// cursor runs dry, and hand the results to the runner. Returns the
    /// helper's meter (with its window and park counts) and the counters of
    /// the scratch it built.
    fn help(
        &self,
        model: &CostModel<'_>,
        faults: Option<&Arc<FaultPlan>>,
        results: &mpsc::Sender<(usize, EvalResult)>,
        thread: usize,
    ) -> (Meter, ScratchStats) {
        let mut obs = Meter::new();
        let mut scratch = InsertionScratch::new();
        let cpu = cpu_reading();
        let (mut joined, mut parks) = (0u64, 0u64);
        let mut done = Vec::new();
        'rounds: while let Some(round) = self.next_round(&mut joined, &mut parks) {
            {
                let state = self.state.read().unwrap_or_else(PoisonError::into_inner);
                while let Some((i, (cell, _, win))) = round.claim() {
                    let t = Stopwatch::start();
                    done.push((i, eval_job(&state, cell, win, model, &mut scratch, faults)));
                    let dt = t.elapsed_nanos();
                    obs.record_span(SpanKind::InsertionEval, dt, thread);
                    obs.observe(HistoKind::InsertionEvalNanos, dt);
                }
            }
            // Sent once the read guard is gone. The runner needs every
            // result of the round before it moves on, so batching costs it
            // nothing.
            obs.add(CounterKind::HelperWindows, done.len() as u64);
            for r in done.drain(..) {
                if results.send(r).is_err() {
                    break 'rounds;
                }
            }
        }
        obs.add(CounterKind::HelperParks, parks);
        book_cpu(&mut obs, cpu);
        (obs, scratch.stats)
    }
}

/// The next helper result: polled for up to [`POLL_NANOS`], yielding the
/// core between looks, then waited for up to [`HELPER_WAIT`].
fn collect_one(
    rx: &mpsc::Receiver<(usize, EvalResult)>,
) -> Result<(usize, EvalResult), LegalizeError> {
    let broken = LegalizeError::PoolBroken { during: "collect" };
    let poll = Stopwatch::start();
    loop {
        match rx.try_recv() {
            Ok(r) => return Ok(r),
            Err(mpsc::TryRecvError::Empty) if poll.elapsed_nanos() < POLL_NANOS => {
                std::thread::yield_now();
            }
            Err(mpsc::TryRecvError::Empty) => {
                return rx.recv_timeout(HELPER_WAIT).map_err(|_| broken)
            }
            Err(mpsc::TryRecvError::Disconnected) => return Err(broken),
        }
    }
}

/// The calling thread's CPU clock, read only while metrics are recorded.
fn cpu_reading() -> Option<u64> {
    mcl_obs::recording().then(thread_cpu_nanos).flatten()
}

/// Adds the calling thread's CPU time since `start` (a [`cpu_reading`])
/// to `mgl.cpu_nanos`.
fn book_cpu(obs: &mut Meter, start: Option<u64>) {
    if let (Some(a), Some(b)) = (start, cpu_reading()) {
        obs.add(CounterKind::MglCpuNanos, b.saturating_sub(a));
    }
}

/// Closes the hub when dropped, on unwind too, so no helper stays blocked
/// on the next round while the scope waits to join it.
struct CloseOnDrop<'h, 's, 'd>(&'h Hub<'s, 'd>);

impl Drop for CloseOnDrop<'_, '_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The single MGL driver behind every engine run: the deterministic round
/// loop, then the fallback scan for cells no window could take. `threads`
/// is the job's share: the runner spawns a helper for each thread past the
/// first, once for the whole stage, and every thread builds one insertion
/// scratch for it. One thread (or a run with at most one pending cell)
/// runs every round inline: same rounds, same results.
pub(crate) fn drive_rounds(
    state: &mut PlacementState<'_>,
    config: &LegalizerConfig,
    prep: &Prep<'_>,
    threads: usize,
) -> Result<MglStats, LegalizeError> {
    let oracle = prep.oracle();
    let mut stats = MglStats::default();
    let design = state.design();
    let pending = design.movable_cells().filter(|&c| state.pos(c).is_none());
    let backlog: VecDeque<(CellId, usize)> = order_cells(design, config.order, pending.collect())
        .into_iter()
        .map(|c| (c, 0usize))
        .collect();
    let model = CostModel {
        reference: config.reference,
        normalize: config.normalize_curves,
        weights: &prep.weights,
        oracle,
        io_penalty: config.io_penalty,
        rail_penalty: config.rail_penalty,
    };
    // The runner's own scratch; each helper builds its own.
    let main = &mut InsertionScratch::new();
    let hub = Hub::new(&mut *state);
    let cpu = cpu_reading();
    let fallback_queue = if threads <= 1 || backlog.len() <= 1 {
        let queue = window_rounds(&hub, config, &model, backlog, main, None, &mut stats);
        book_cpu(&mut stats.obs, cpu);
        queue?
    } else {
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            // Helper thread ids start at 1; 0 is the runner.
            let handles: Vec<_> = (1..threads)
                .map(|k| {
                    let (hub, model, tx) = (&hub, &model, tx.clone());
                    scope.spawn(move || hub.help(model, config.faults.as_ref(), &tx, k))
                })
                .collect();
            drop(tx);
            let close = CloseOnDrop(&hub);
            let queue = window_rounds(&hub, config, &model, backlog, main, Some(&rx), &mut stats);
            book_cpu(&mut stats.obs, cpu);
            drop(close);
            for h in handles {
                let (obs, helper) = h
                    .join()
                    .map_err(|_| LegalizeError::PoolBroken { during: "join" })?;
                stats.obs.merge(&obs);
                stats.scratch.merge(&helper);
            }
            queue
        })?
    };
    drop(hub);
    stats.scratch.merge(&main.stats);
    crate::mgl::record_scratch_counters(&mut stats.obs, &stats.scratch);

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
    if fb_nanos > 0 && stats.fallbacks + stats.failed > 0 {
        stats.obs.record_span(SpanKind::FallbackScan, fb_nanos, 0);
    }
    Ok(stats)
}

/// The deterministic round loop: select non-overlapping windows, evaluate
/// them (on the helpers behind `results` too, when there are any), apply
/// in selection order. Returns the cells left for the fallback scan.
fn window_rounds(
    hub: &Hub<'_, '_>,
    config: &LegalizerConfig,
    model: &CostModel<'_>,
    mut backlog: VecDeque<(CellId, usize)>,
    scratch: &mut InsertionScratch,
    results_rx: Option<&mpsc::Receiver<(usize, EvalResult)>>,
    stats: &mut MglStats,
) -> Result<Vec<CellId>, LegalizeError> {
    let design = hub.design;
    let capacity = config.window_list_capacity.max(1);
    let faults = config.faults.as_ref();

    // (cell, expansion level) in processing order, split in two: `carry`
    // holds cells deferred by the previous round (expanded retries first,
    // then overlap-deferred), `backlog` the never-yet-considered tail in
    // original order. A round pops carry-then-backlog, which is exactly
    // the order a single queue would yield — but on a capacity break the
    // untouched backlog tail stays where it is instead of being drained
    // into the deferred queue, turning the total selection work from
    // quadratic in the cell count (ruinous at 1M cells) into linear.
    let mut carry: VecDeque<(CellId, usize)> = VecDeque::new();
    let mut fallback_queue: Vec<CellId> = Vec::new();
    let mut selected_windows = HierGrid::new(design.core, design.tech.row_height);
    // Reused per round; results are slotted by job index. A slot left at
    // `None` after the repair pass marks a quarantined cell.
    let mut results: Vec<Option<EvalResult>> = Vec::new();

    while !(carry.is_empty() && backlog.is_empty()) {
        // Select non-overlapping windows, preserving order for the rest.
        let t_select = Stopwatch::start();
        let mut selected: Vec<Job> = Vec::new();
        let mut deferred: VecDeque<(CellId, usize)> = VecDeque::new();
        selected_windows.clear();
        while let Some((cell, n)) = carry.pop_front().or_else(|| backlog.pop_front()) {
            let win = window_for(design, cell, config, n);
            if selected_windows.overlaps_any(win) {
                deferred.push_back((cell, n));
            } else {
                selected_windows.insert(win);
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
        stats
            .obs
            .record_span(SpanKind::SchedSelect, select_nanos, 0);

        // Evaluate against the round-start state: publish the round to the
        // helpers, claim from the shared cursor alongside them until it
        // runs dry, then collect their results.
        let t_eval = Stopwatch::start();
        let n_jobs = selected.len();
        stats.obs.add(CounterKind::WindowsEvaluated, n_jobs as u64);
        results.clear();
        results.resize(n_jobs, None);
        let round = Arc::new(Round {
            jobs: selected,
            next: AtomicUsize::new(0),
        });
        let helpers_rx = results_rx.filter(|_| n_jobs > 1);
        let state = hub.state.read().unwrap_or_else(PoisonError::into_inner);
        if helpers_rx.is_some() {
            hub.publish(&round);
        }
        let mut outstanding = n_jobs;
        while let Some((i, (cell, _, win))) = round.claim() {
            let t = Stopwatch::start();
            results[i] = Some(eval_job(&state, cell, win, model, scratch, faults));
            let dt = t.elapsed_nanos();
            stats.obs.record_span(SpanKind::InsertionEval, dt, 0);
            stats.obs.observe(HistoKind::InsertionEvalNanos, dt);
            outstanding -= 1;
        }
        if let Some(rx) = helpers_rx {
            // Queue-wait: time the runner blocks on results its helpers are
            // still computing. One observation per fanned-out round.
            let t_wait = Stopwatch::start();
            while outstanding > 0 {
                let (i, r) = collect_one(rx)?;
                results[i] = Some(r);
                outstanding -= 1;
            }
            stats
                .obs
                .observe(HistoKind::SchedQueueWaitNanos, t_wait.elapsed_nanos());
        }
        let eval_nanos = t_eval.elapsed_nanos();
        stats.obs.record_span(SpanKind::SchedEval, eval_nanos, 0);

        // Deterministic repair pass: a job whose evaluation panicked (on
        // any thread) is retried on the runner, in job-index order, against
        // the same round-start state — so the outcome never depends on
        // which thread hit the panic or on the thread count. A job that
        // keeps failing past the retry budget quarantines its cell: the
        // slot reverts to `None` and the cell is left unplaced.
        for (i, &(cell, _, win)) in round.jobs.iter().enumerate() {
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
                match eval_job(&state, cell, win, model, scratch, faults) {
                    Ok(r) => {
                        results[i] = Some(Ok(r));
                        break;
                    }
                    Err(m) => last = m,
                }
            }
        }
        drop(state);

        // Apply sequentially in selection order, with the placement
        // exclusive to the runner.
        let t_apply = Stopwatch::start();
        let mut state = hub.state.write().unwrap_or_else(PoisonError::into_inner);
        for (i, &(cell, n, win)) in round.jobs.iter().enumerate() {
            match results[i].take() {
                // Quarantined by the repair pass: the cell stays unplaced
                // and takes no further part in the run.
                None => {}
                // Unreachable (the repair pass resolves every `Err`), but
                // degrading to quarantine beats asserting here.
                Some(Err(_)) => {}
                Some(Ok(Some(ins))) => {
                    let site = FaultSite::MglApply { cell: cell.0 };
                    if crate::faultinject::fires(faults, &design.name, &site) {
                        crate::faultinject::injected_panic(&site);
                    }
                    // Pooled apply buffers: the throwaway-scratch variant
                    // would construct (and count) one scratch per applied
                    // cell — at 1M cells that is 1M needless allocations on
                    // the runner's sequential apply path.
                    apply_insertion_with(&mut state, cell, &ins, scratch);
                    stats.placed_in_window += 1;
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
        drop(state);
        let apply_nanos = t_apply.elapsed_nanos();
        stats.obs.record_span(SpanKind::SchedApply, apply_nanos, 0);
        // Next round processes this round's deferred cells first, then
        // whatever was left unpopped. `append` drains `carry` (bounded by
        // cells actually examined this round, not by the design size).
        deferred.append(&mut carry);
        carry = deferred;
    }
    Ok(fallback_queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellOrder;
    use mcl_db::legal::Checker;

    /// One MGL run with `threads - 1` helpers (none at one thread: every
    /// round runs inline).
    fn run_mgl(state: &mut PlacementState<'_>, config: &LegalizerConfig) -> MglStats {
        let prep = Prep::new(state.design(), config);
        drive_rounds(state, config, &prep, config.threads).expect("mgl run")
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

    /// A dense design with vertical stripes and a pin on the single-row
    /// type, so the routability oracle has penalties to charge.
    fn oracle_design() -> Design {
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
        d
    }

    #[test]
    fn thread_count_invariance_with_oracle() {
        // The routability oracle feeds penalties and alternate candidate
        // positions into the evaluation; they must be identical whether a
        // window was evaluated by the runner or any of its helpers.
        let d = oracle_design();
        let mut cfg = LegalizerConfig::contest();
        cfg.window_list_capacity = 8;
        let run = |threads: usize| {
            let mut c = cfg.clone();
            c.threads = threads;
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
    fn polling_hand_off_stays_thread_count_invariant_over_many_runs() {
        // Which thread evaluates which window, and whether a helper polls or
        // parks between rounds, depends on timing alone; none of it may
        // reach a placement. The thread-parity designs above, 50 times each
        // at 2 and 4 threads against one inline run.
        let mut shuffled = LegalizerConfig::total_displacement();
        shuffled.order = CellOrder::HeightThenShuffled;
        let cases = [
            (
                dense_design(150, 1234),
                LegalizerConfig::total_displacement(),
            ),
            (oracle_design(), LegalizerConfig::contest()),
            (dense_design(150, 777), shuffled),
        ];
        let mut helper_windows = 0;
        for (d, cfg) in &cases {
            let mut run = |threads: usize| {
                let mut c = cfg.clone();
                c.threads = threads;
                c.window_list_capacity = 8;
                let mut state = PlacementState::new(d);
                let stats = run_mgl(&mut state, &c);
                let windows = stats.obs.counter(CounterKind::WindowsEvaluated);
                let helped = stats.obs.counter(CounterKind::HelperWindows);
                assert!(helped <= windows, "{helped} of {windows} windows");
                helper_windows += helped;
                d.movable_cells().map(|c| state.pos(c)).collect::<Vec<_>>()
            };
            let inline = run(1);
            for _ in 0..50 {
                assert_eq!(run(2), inline);
                assert_eq!(run(4), inline);
            }
        }
        assert!(helper_windows > 0, "no window was evaluated off the runner");
    }

    #[test]
    fn capacity_one_matches_any_capacity_for_legality() {
        // Different list capacities may give different (all legal)
        // placements; each capacity must be internally deterministic.
        let d = dense_design(120, 99);
        let run_cap = |cap: usize| {
            let mut cfg = LegalizerConfig::total_displacement();
            cfg.threads = 2;
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
        let mut state = PlacementState::new(&d);
        let stats = run_mgl(&mut state, &cfg);
        assert!(stats.scratch.regions > 0);
        assert!(stats.scratch.anchors > 0);
        // Exactly the runner's scratch and one helper's were constructed
        // for this standalone run.
        assert_eq!(stats.scratch.created, 2);
        // The meter is the run's one accounting of rounds, windows and
        // phase times.
        let obs = &stats.obs;
        assert!(obs.span(SpanKind::SchedSelect).count > 0);
        let windows = obs.counter(CounterKind::WindowsEvaluated);
        assert!(windows >= stats.placed_in_window as u64);
        assert_eq!(obs.span(SpanKind::InsertionEval).count, windows);
        assert!(obs.span(SpanKind::SchedEval).total_nanos > 0);
        assert_eq!(
            obs.counter(CounterKind::AlignedRegions),
            stats.scratch.regions
        );
    }

    #[test]
    fn inline_rounds_match_helper_rounds() {
        // `drive_rounds` on one thread must reproduce the rounds it runs
        // with helpers bit-for-bit: this is what lets a runner without
        // helpers skip the hand-off entirely.
        let d = dense_design(140, 909);
        let mut cfg = LegalizerConfig::total_displacement();
        cfg.threads = 4;
        let w = Prep::new(&d, &cfg);
        let helped = run_with_threads(&d, 4);
        let mut state = PlacementState::new(&d);
        let stats = drive_rounds(&mut state, &cfg, &w, 1).unwrap();
        assert_eq!(stats.failed, 0);
        let inline: Vec<_> = d.movable_cells().map(|c| state.pos(c)).collect();
        assert_eq!(helped, inline);
    }
}
