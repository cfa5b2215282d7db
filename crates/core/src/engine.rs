//! The legalization engine: the one way to run the pipeline.
//!
//! [`Engine::run_jobs`] pulls [`Job`]s from a source — a slice, or a queue
//! that blocks until more work arrives — seeds each as its [`RunSpec`]
//! says, runs the configuration's stage set over it and hands each job's
//! fallible [`RunOutput`] to a callback the moment that job finishes.
//! [`Engine::run`] (a batch, results in batch order) and [`Engine::run_one`]
//! (a batch of one) are adaptors over it. The engine holds the
//! configuration and its scheduling counters, nothing else, and runs each
//! job through the same [`crate::pipeline`] driver.
//!
//! ## Job scheduling
//!
//! A call splits `config.threads` into **runners** and **helpers**
//! (DESIGN.md §12). Runners claim jobs off the shared source one at a
//! time and drive each to completion. Admission is bounded: at most
//! [`Engine::batch_runners`] jobs are in flight, and a job's seed state and
//! [`Prep`] are built only when a runner claims it and dropped when it
//! finishes, so memory scales with in-flight work, never with the length of
//! the source. The `W = threads − R` leftover threads are split statically:
//! runner `i` gets `W / R` helpers, plus one for the first `W mod R`
//! runners. A runner hands its job its share as a thread count; the job's
//! MGL stage spawns one helper per thread past the runner's own for the
//! stage's duration, each thread building one insertion scratch for it,
//! and stage 2 solves its matchings on that many threads. Helpers read the
//! runner's own placement, so a design borrowed for the call and one the
//! job owns fan out alike.
//!
//! Determinism is per design: selection, retry and apply order are decided
//! by each design's own runner, so outputs, replay logs and reports are
//! bit-identical at any thread count (1 included), any admission bound and
//! any batch composition (pinned by `tests/batch_parity.rs`).

use crate::config::LegalizerConfig;
use crate::error::LegalizeError;
use crate::legalizer::LegalizeStats;
use crate::pipeline::{self, Prep, Stage};
use crate::state::PlacementState;
use mcl_db::prelude::*;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Setup-cost and scheduling counters for asserting the engine's thread
/// split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineDiag {
    /// Pipeline runs driven by this engine (one per seeded job).
    pub runs: u64,
    /// Runner threads spawned. The calling thread doubles as runner 0 and
    /// is not counted, so a call with `R` runners adds `R − 1`.
    pub runner_spawns: u64,
    /// Helper threads handed to runners: each call adds its
    /// `threads − runners` leftover threads. A job's MGL stage spawns its
    /// runner's helpers once per stage.
    pub helpers: u64,
}

/// How an [`Engine`] call seeds each job's placement. Which stages then
/// run is the configuration's [`LegalizerConfig::stages`].
///
/// An adopting seeding fails a job whose positions are not adoptable with
/// [`LegalizeError::SeedRejected`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RunSpec {
    /// From scratch: input positions are ignored. A stage set without MGL
    /// refines a placed input, so it adopts the positions all the same.
    #[default]
    Fresh,
    /// ECO: adopt each design's existing positions. Cells that already
    /// have a legal position keep it as their starting point, only
    /// unplaced cells go through MGL insertion, and the post stages walk
    /// every cell.
    Eco,
    /// ECO delta: adopt as [`Self::Eco`], then restrict the post stages to
    /// the bounded dirty-window closure of the cells MGL placed
    /// ([`crate::dirty`]). Stage 2 re-matches only groups with a dirty
    /// member, restricted to closure members; stage 3 solves the flow over
    /// closure members with their nearest clean neighbors as fixed walls.
    /// [`crate::EcoSession`] runs every delta this way.
    EcoDelta,
}

/// One job of an [`Engine::run_jobs`] source.
pub struct Job<'d, T> {
    /// The design, borrowed for the call or owned by the job; an owned
    /// design is dropped when the job finishes.
    pub design: Cow<'d, Design>,
    /// Deadline budget in seconds. It tightens the engine's
    /// `stage_budget_secs` (the smaller wins) and never changes a
    /// fault-free result. This is how `mclegal serve` maps a client's
    /// deadline onto the degradation ladder.
    pub budget: Option<f64>,
    /// The caller's tag, handed back with the job's result.
    pub ticket: T,
}

/// One job's successful output.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The input design with the legalized positions written back.
    pub design: Design,
    /// The run's statistics.
    pub stats: LegalizeStats,
    /// Every committed placement mutation, for the determinism auditor
    /// (`mcl_audit::replay`): two runs are bit-identical iff their logs are
    /// equal.
    pub replay: mcl_audit::ReplayLog,
}

/// A reusable legalization engine: configuration plus scheduling counters.
///
/// ```
/// use mcl_core::{Engine, LegalizerConfig, RunSpec};
/// use mcl_db::prelude::*;
///
/// let mut designs = Vec::new();
/// for k in 0..3 {
///     let mut d = Design::new(format!("d{k}"), Technology::example(), Rect::new(0, 0, 1000, 900));
///     let inv = d.add_cell_type(CellType::new("INV", 20, 1));
///     d.add_cell(Cell::new("u1", inv, Point::new(33 + k * 7, 47)));
///     d.add_cell(Cell::new("u2", inv, Point::new(41, 52 + k * 11)));
///     designs.push(d);
/// }
/// let mut engine = Engine::new(LegalizerConfig::contest());
/// let results = engine.run(&designs, RunSpec::default());
/// assert_eq!(results.len(), 3);
/// for r in &results {
///     let out = r.as_ref().expect("legalized");
///     assert_eq!(out.stats.mgl.failed, 0);
///     assert!(Checker::new(&out.design).check().is_legal());
/// }
/// ```
#[derive(Debug)]
pub struct Engine {
    config: LegalizerConfig,
    diag: EngineDiag,
}

impl Engine {
    /// Creates an engine with `config.threads` threads (at least one).
    pub fn new(mut config: LegalizerConfig) -> Self {
        config.threads = config.threads.max(1);
        Self {
            config,
            diag: EngineDiag::default(),
        }
    }

    /// The configuration, with `threads` at least one.
    pub fn config(&self) -> &LegalizerConfig {
        &self.config
    }

    /// Setup-cost counters since construction.
    pub fn diag(&self) -> EngineDiag {
        self.diag
    }

    /// How many runner threads a source of at most `n` jobs gets
    /// (`usize::MAX` when its length is unknown): the admission bound
    /// (`config.max_inflight_designs`, 0 = auto meaning `threads`), clamped
    /// to the thread budget and to `n`. The remaining `threads − runners`
    /// threads are split among the runners as helpers.
    pub fn batch_runners(&self, n: usize) -> usize {
        let limit = match self.config.max_inflight_designs {
            0 => self.config.threads,
            m => m,
        };
        limit.min(self.config.threads).min(n.max(1)).max(1)
    }

    /// Runs one [`RunSpec::EcoDelta`] job over a state the caller seeded
    /// and keeps, on every thread of the engine (a lone job's share, as in
    /// [`Self::run_one`]). This is how [`crate::EcoSession`] runs its
    /// deltas without adopting the design again.
    pub(crate) fn run_delta<'d>(
        &mut self,
        design: &'d Design,
        state: &mut PlacementState<'d>,
        prep: &Prep<'d>,
    ) -> Result<LegalizeStats, LegalizeError> {
        self.diag.runs += 1;
        self.diag.helpers += self.config.threads as u64 - 1;
        let (config, spec) = (&self.config, RunSpec::EcoDelta);
        pipeline::run_stages(design, state, config, spec, prep, config.threads)
    }

    /// Runs one design: exactly [`Self::run`] on a one-element batch.
    ///
    /// # Errors
    ///
    /// The job's terminal [`LegalizeError`] (see [`Self::run_jobs`]).
    pub fn run_one(&mut self, design: &Design, spec: RunSpec) -> Result<RunOutput, LegalizeError> {
        self.run(std::slice::from_ref(design), spec)
            .pop()
            .unwrap_or(Err(LegalizeError::PoolBroken {
                during: "batch slot",
            }))
    }

    /// Runs `spec` over every design and returns the results in batch
    /// order: [`Self::run_jobs`] over the slice, each design borrowed for
    /// the call and tagged with its index.
    pub fn run(
        &mut self,
        designs: &[Design],
        spec: RunSpec,
    ) -> Vec<Result<RunOutput, LegalizeError>> {
        let slots = Mutex::new(designs.iter().map(|_| None).collect::<Vec<_>>());
        let jobs = designs.iter().enumerate().map(|(i, d)| Job {
            design: Cow::Borrowed(d),
            budget: None,
            ticket: i,
        });
        self.run_jobs(jobs, spec, |i, out| {
            if let Some(slot) = slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_mut(i)
            {
                *slot = Some(out);
            }
        });
        slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            // Unreachable: every claimed job reports; degrade to a typed
            // error rather than assert.
            .map(|r| {
                r.unwrap_or(Err(LegalizeError::PoolBroken {
                    during: "batch slot",
                }))
            })
            .collect()
    }

    /// Runs `spec` over every job `jobs` yields, on up to
    /// [`Self::batch_runners`] runners (the source's `size_hint` upper bound
    /// is its length), and calls `done` with each job's ticket and result on
    /// the runner thread as soon as that job finishes. Returns once the
    /// source is exhausted and every claimed job is done. A source may
    /// block in `next` to wait for work; the other runners keep running
    /// their jobs meanwhile.
    ///
    /// Every job gets its own result: one job failing to seed or exhausting
    /// its degradation ladder does not affect the others, whose outputs are
    /// bit-identical to fault-free solo runs (pinned by the chaos suite).
    ///
    /// Runner 0 is the calling thread. Which runner claims which job is
    /// free to race; each job's result is not.
    pub fn run_jobs<'d, T: Send>(
        &mut self,
        jobs: impl Iterator<Item = Job<'d, T>> + Send,
        spec: RunSpec,
        done: impl Fn(T, Result<RunOutput, LegalizeError>) + Sync,
    ) {
        let runners = self.batch_runners(jobs.size_hint().1.unwrap_or(usize::MAX));
        let helpers = self.config.threads - runners;
        let share = |i: usize| 1 + helpers / runners + usize::from(i < helpers % runners);
        let call = Call {
            source: Mutex::new(jobs.fuse()),
            config: &self.config,
            spec,
            runs: AtomicU64::new(0),
            done,
        };
        std::thread::scope(|scope| {
            for i in 1..runners {
                self.diag.runner_spawns += 1;
                let call = &call;
                scope.spawn(move || call.runner(share(i)));
            }
            call.runner(share(0));
            // The scope joins the extra runners before returning.
        });
        self.diag.runs += call.runs.load(Ordering::Relaxed);
        self.diag.helpers += helpers as u64;
    }
}

/// Everything the runners of one [`Engine::run_jobs`] call share.
struct Call<'a, I, F> {
    /// The job source. Runners claim under this lock, so a source that
    /// blocks for work holds back only other claims.
    source: Mutex<I>,
    config: &'a LegalizerConfig,
    spec: RunSpec,
    runs: AtomicU64,
    done: F,
}

impl<'a, 'd, T, I, F> Call<'a, I, F>
where
    I: Iterator<Item = Job<'d, T>>,
    F: Fn(T, Result<RunOutput, LegalizeError>),
{
    /// One runner's admission loop: claim the next job, run it on the
    /// runner's `threads` (its own plus its helpers), report it, repeat
    /// until the source runs dry.
    fn runner(&self, threads: usize) {
        loop {
            // The guard drops at the end of this statement, so no other
            // claim waits on a running job.
            let claimed = self
                .source
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .next();
            let Some(job) = claimed else {
                break;
            };
            let mut config = Cow::Borrowed(self.config);
            if let Some(b) = job.budget {
                let engine_b = config.stage_budget_secs;
                config.to_mut().stage_budget_secs = Some(engine_b.map_or(b, |e| e.min(b)));
            }
            let out = self.run_job(&job.design, &config, threads);
            // The seed state and prep died with `run_job`; an owned design
            // goes too, before the result is published, so residency
            // follows the in-flight count.
            drop(job.design);
            (self.done)(job.ticket, out);
        }
    }

    /// Seeds one claimed job and runs it through the pipeline on `threads`.
    fn run_job(
        &self,
        design: &Design,
        config: &LegalizerConfig,
        threads: usize,
    ) -> Result<RunOutput, LegalizeError> {
        // The one place adoption is decided: every seeding but a fresh one
        // adopts, and so does a stage set that skips MGL, since
        // post-processing needs a placed input.
        let adopt = self.spec != RunSpec::Fresh || !config.stages.contains(Stage::Mgl);
        let mut state = if adopt {
            PlacementState::from_design_positions(design).map_err(|(cell, e)| {
                LegalizeError::SeedRejected {
                    cell: Some(cell.0),
                    message: e.to_string(),
                }
            })?
        } else {
            PlacementState::new(design)
        };
        self.runs.fetch_add(1, Ordering::Relaxed);
        let prep = Prep::new(design, config);
        let stats = pipeline::run_stages(design, &mut state, config, self.spec, &prep, threads)?;
        let mut out = design.clone();
        state.write_back(&mut out);
        Ok(RunOutput {
            design: out,
            stats,
            replay: state.take_replay_log(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StageSet;
    use mcl_obs::SpanKind;
    use std::sync::Condvar;
    use std::time::Duration;

    fn batch_designs(n: usize) -> Vec<Design> {
        sized_designs(n, 140)
    }

    fn sized_designs(n: usize, cells: usize) -> Vec<Design> {
        (0..n)
            .map(|k| {
                let mut d = Design::new(
                    format!("b{k}"),
                    Technology::example(),
                    Rect::new(0, 0, 2400, 1800),
                );
                d.add_cell_type(CellType::new("s", 20, 1));
                d.add_cell_type(CellType::new("d", 30, 2));
                let mut s = 0x9e37_79b9u64.wrapping_mul(k as u64 + 1) | 1;
                let mut rng = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                };
                for i in 0..cells {
                    let t = CellTypeId(u32::from(rng() % 5 == 0));
                    let x = (rng() % 2300) as Dbu;
                    let y = (rng() % 1700) as Dbu;
                    d.add_cell(Cell::new(format!("c{i}"), t, Point::new(x, y)));
                }
                d
            })
            .collect()
    }

    fn cfg(threads: usize) -> LegalizerConfig {
        let mut c = LegalizerConfig::total_displacement();
        c.threads = threads;
        c
    }

    fn solo(threads: usize, d: &Design) -> RunOutput {
        Engine::new(cfg(threads))
            .run_one(d, RunSpec::default())
            .expect("solo run")
    }

    fn positions(d: &Design) -> Vec<Option<Point>> {
        d.cells.iter().map(|c| c.pos).collect()
    }

    fn batch(engine: &mut Engine, designs: &[Design]) -> Vec<RunOutput> {
        engine
            .run(designs, RunSpec::default())
            .into_iter()
            .map(|r| r.expect("batch job"))
            .collect()
    }

    #[test]
    fn thread_count_is_honored_on_any_host() {
        // However many cores the host has: one job at 8 threads is one
        // runner and 7 helpers.
        let mut engine = Engine::new(cfg(8));
        assert_eq!(engine.config().threads, 8);
        engine
            .run_one(&batch_designs(1)[0], RunSpec::default())
            .expect("solo run");
        assert_eq!(engine.diag().helpers, 7);
    }

    #[test]
    fn batch_matches_individual_runs_bit_identically() {
        let designs = batch_designs(4);
        for threads in [1usize, 3] {
            let mut engine = Engine::new(cfg(threads));
            let batch = batch(&mut engine, &designs);
            for (d, out) in designs.iter().zip(&batch) {
                let solo = solo(threads, d);
                assert_eq!(
                    positions(&solo.design),
                    positions(&out.design),
                    "engine batch diverged from a solo run at {threads} threads"
                );
                assert_eq!(solo.stats, out.stats);
                assert_eq!(solo.replay, out.replay);
            }
        }
    }

    #[test]
    fn interleaved_batch_matches_solo_bit_identically() {
        // Throttled admission: 4 threads but only 2 in flight gives each
        // of the 2 runners one helper.
        let designs = batch_designs(6);
        let mut c = cfg(4);
        c.max_inflight_designs = 2;
        let mut engine = Engine::new(c);
        assert_eq!(engine.batch_runners(designs.len()), 2);
        let batch = batch(&mut engine, &designs);
        assert_eq!(engine.diag().helpers, 2);
        for (d, out) in designs.iter().zip(&batch) {
            let solo = solo(4, d);
            assert_eq!(
                positions(&solo.design),
                positions(&out.design),
                "interleaved batch diverged from solo for `{}`",
                d.name
            );
            assert_eq!(solo.stats, out.stats, "stats diverged for `{}`", d.name);
        }
    }

    #[test]
    fn batch_splits_threads_into_runners_and_helpers() {
        let designs = batch_designs(4);
        // Default admission: every thread is a runner, so no helpers.
        let mut engine = Engine::new(cfg(3));
        batch(&mut engine, &designs);
        let diag = engine.diag();
        assert_eq!(diag.runs, 4);
        assert_eq!(diag.helpers, 0, "full-width admission leaves no helpers");
        assert_eq!(diag.runner_spawns, 2, "3 runners = main + 2 spawned");

        // One in-flight design: sequential schedule, the one runner gets
        // both helpers.
        let mut c = cfg(3);
        c.max_inflight_designs = 1;
        let mut engine = Engine::new(c);
        batch(&mut engine, &designs);
        let diag = engine.diag();
        assert_eq!(diag.runs, 4);
        assert_eq!(
            diag.helpers, 2,
            "the single runner gets both leftover threads"
        );
        assert_eq!(diag.runner_spawns, 0);
    }

    #[test]
    fn stage_two_runs_on_the_job_share() {
        // Stage 2 on, with δ₀ small enough that both cell-type groups of
        // every design need a matching.
        let matching = |threads: usize| {
            let mut c = cfg(threads);
            c.delta0_rows = 0.5;
            c
        };
        // Two designs at 2 threads: two runners and no helpers, so each
        // job solves its matchings on its runner alone — not on every
        // thread of the engine.
        let designs = batch_designs(2);
        let mut engine = Engine::new(matching(2));
        for out in batch(&mut engine, &designs) {
            let groups = out.stats.obs.span(SpanKind::MatchingGroup);
            assert!(groups.count > 1, "{groups:?}");
            assert_eq!(groups.threads & !1, 0, "{groups:?}");
        }
        // A lone job at 4 threads gets the three leftover threads as
        // helpers, and its matchings spread over them.
        let mut engine = Engine::new(matching(4));
        let out = engine
            .run_one(&designs[0], RunSpec::default())
            .expect("lone job");
        assert_eq!(engine.diag().helpers, 3);
        let groups = out.stats.obs.span(SpanKind::MatchingGroup);
        assert!(groups.threads < 1 << 4, "{groups:?}");
        assert!(groups.threads & !1 != 0, "{groups:?}");
    }

    /// Positions and stats of every streamed result, by ticket.
    type Streamed = Mutex<Vec<Option<(Vec<Option<Point>>, LegalizeStats)>>>;

    fn record(results: &Streamed, k: usize, out: Result<RunOutput, LegalizeError>) {
        let out = out.expect("streamed job");
        results.lock().unwrap()[k] = Some((positions(&out.design), out.stats));
    }

    fn assert_matches_solo(threads: usize, designs: &[Design], results: Streamed) {
        for (d, r) in designs.iter().zip(results.into_inner().unwrap()) {
            let (pos, stats) = r.expect("every job reported");
            let solo = solo(threads, d);
            assert_eq!(positions(&solo.design), pos, "`{}` diverged", d.name);
            assert_eq!(solo.stats, stats, "`{}` stats diverged", d.name);
        }
    }

    #[test]
    fn streamed_jobs_are_admitted_while_others_run() {
        // Job k+2 only becomes available once job k has reported: a wave or
        // batch barrier that waits for the whole source before reporting
        // would deadlock here (the timeout turns that into a failure).
        let designs = batch_designs(6);
        let finished = (Mutex::new(vec![false; designs.len()]), Condvar::new());
        let results: Streamed = Mutex::new(vec![None; designs.len()]);
        let mut next = 0;
        let jobs = std::iter::from_fn(|| {
            let k = next;
            let d = designs.get(k)?;
            next += 1;
            if k >= 2 {
                let (done, cv) = &finished;
                let (guard, wait) = cv
                    .wait_timeout_while(done.lock().unwrap(), Duration::from_secs(30), |f| {
                        !f[k - 2]
                    })
                    .unwrap();
                drop(guard);
                assert!(!wait.timed_out(), "job {k} waited on job {} forever", k - 2);
            }
            Some(Job {
                design: Cow::Borrowed(d),
                budget: None,
                ticket: k,
            })
        });
        let mut engine = Engine::new(cfg(3));
        engine.run_jobs(jobs, RunSpec::default(), |k, out| {
            record(&results, k, out);
            finished.0.lock().unwrap()[k] = true;
            finished.1.notify_all();
        });
        assert_eq!(engine.diag().runs, 6);
        assert_matches_solo(3, &designs, results);
    }

    #[test]
    fn stream_admission_is_bounded_by_the_runner_count() {
        // A source of unknown length gets min(max_inflight, threads)
        // runners and the rest of the threads as their helpers; at no pull
        // are more than that many jobs claimed and unreported. The jobs own
        // their designs, which fan out onto the helpers all the same. The
        // designs run enough rounds that a helper gets to claim a window
        // even when a busy machine wakes it late.
        let designs = sized_designs(5, 800);
        for inflight in [1usize, 2] {
            let mut c = cfg(3);
            c.max_inflight_designs = inflight;
            let mut engine = Engine::new(c);
            let completed = AtomicU64::new(0);
            let results: Streamed = Mutex::new(vec![None; designs.len()]);
            let mut pulled = 0u64;
            let mut owned = designs.iter().cloned().enumerate();
            let jobs = std::iter::from_fn(|| {
                let (k, d) = owned.next()?;
                pulled += 1;
                let in_flight = pulled - completed.load(Ordering::SeqCst);
                assert!(in_flight <= inflight as u64, "{in_flight} jobs in flight");
                Some(Job {
                    design: Cow::Owned(d),
                    budget: None,
                    ticket: k,
                })
            });
            engine.run_jobs(jobs, RunSpec::default(), |k, out| {
                record(&results, k, out);
                completed.fetch_add(1, Ordering::SeqCst);
            });
            let diag = engine.diag();
            assert_eq!(diag.runner_spawns, inflight as u64 - 1);
            assert_eq!(diag.helpers, 3 - inflight as u64);
            assert_eq!(diag.runs, 5);
            if inflight == 1 {
                // Owned designs fan out too: the lone runner's two helpers
                // (thread ids 1 and 2) evaluated windows.
                let threads = results
                    .lock()
                    .unwrap()
                    .iter()
                    .flatten()
                    .fold(0u64, |m, (_, s)| {
                        m | s.obs.span(SpanKind::InsertionEval).threads
                    });
                assert!(threads & !1 != 0, "no helper evaluated a window");
            }
            assert_matches_solo(3, &designs, results);
        }
    }

    #[test]
    fn adopting_runs_report_seed_errors_per_job() {
        let designs = batch_designs(2);
        let mut stage1 = cfg(2);
        stage1.stages = StageSet::of(&[Stage::Mgl]);
        let mut engine = Engine::new(cfg(2));
        // Legal inputs: stage-1 legalize, then batch-ECO adopts cleanly.
        let placed: Vec<Design> = Engine::new(stage1)
            .run(&designs, RunSpec::Fresh)
            .into_iter()
            .map(|r| r.expect("stage 1").design)
            .collect();
        assert!(engine.run(&placed, RunSpec::Eco).iter().all(Result::is_ok));

        // An illegal position in design 1 fails that job only.
        let mut bad = placed.clone();
        bad[1].cells[0].pos = Some(Point::new(13, 7));
        let out = engine.run(&bad, RunSpec::Eco);
        assert!(out[0].is_ok());
        match &out[1] {
            Err(LegalizeError::SeedRejected { cell, .. }) => assert_eq!(*cell, Some(0)),
            other => panic!("misaligned seed position must be rejected, got {other:?}"),
        }
    }
}
