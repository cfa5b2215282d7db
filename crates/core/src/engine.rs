//! The legalization engine: the one way to run the pipeline.
//!
//! [`Engine::run`] takes a batch of designs and a [`RunSpec`] (stage list,
//! whether to adopt existing positions, optional per-job budgets) and
//! returns one fallible [`RunOutput`] per design. A single design is a
//! batch of one ([`Engine::run_one`]). The engine owns the setup state that
//! is worth keeping across calls — a small pool of [`InsertionScratch`]
//! arenas — and, for the whole of one call, one shared [`EvalPool`] of
//! worker threads; it runs each design through the same
//! [`crate::pipeline`] driver.
//!
//! ## Batch scheduling
//!
//! A call splits `config.threads` into **runners** and **workers**
//! (DESIGN.md §12). Runners pull whole designs off a shared cursor —
//! bounded admission: at most `max_inflight_designs` designs are in flight,
//! so memory scales with in-flight work, never batch size — and each drives
//! its design's rounds to completion. Leftover threads become shared
//! [`EvalPool`] workers serving *all* in-flight designs at once: eval jobs
//! from different designs interleave freely (work conservation — no worker
//! idles while any design has runnable jobs). When the batch is at least as
//! wide as the thread budget, every thread is a runner and designs run
//! inline with zero cross-thread round traffic. A stage list without MGL
//! has no rounds to fan out, so it spawns no pool at all.
//!
//! Determinism is per design: selection, retry and apply order are decided
//! by each design's own runner, so outputs, replay logs and reports are
//! bit-identical at any thread count (1 included), any admission bound and
//! any batch composition (pinned by `tests/batch_parity.rs`).
//!
//! Buffer-reuse contract (asserted by tests via [`EngineDiag`] and the
//! scratch `created` counter): within one [`Engine::run`] call at most one
//! pool is spawned, and every scratch — one per runner plus one per worker
//! — is constructed at most once for the engine's lifetime.

use crate::config::LegalizerConfig;
use crate::error::LegalizeError;
use crate::insertion::InsertionScratch;
use crate::legalizer::LegalizeStats;
use crate::pipeline::{self, includes_mgl, Prep, Stage, FULL_PIPELINE};
use crate::scheduler::{EvalPool, PoolClient};
use crate::state::PlacementState;
use mcl_db::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Setup-cost and scheduling counters for asserting the engine's reuse
/// contract and observing cross-design work conservation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineDiag {
    /// Pipeline runs driven by this engine (one per design).
    pub runs: u64,
    /// Shared worker pools spawned. A call spawns **at most one** pool for
    /// its whole lifetime — and only when its stage list includes MGL and
    /// threads are left over after admission (`threads` exceeds the runner
    /// count); a call whose every thread is a design runner spawns none.
    pub pool_spawns: u64,
    /// Total shared eval worker threads spawned across all pools.
    pub worker_spawns: u64,
    /// Runner threads spawned. The calling thread doubles as runner 0 and
    /// is not counted, so a call at `R` in-flight designs adds `R − 1`.
    pub runner_spawns: u64,
    /// Rounds in which a shared pool worker switched designs: incremented
    /// when a worker claims at least one eval job from a different design
    /// than the one it last served. Nonzero means cross-design work
    /// conservation actually happened.
    pub cross_design_steals: u64,
}

/// What an [`Engine::run`] call does to each design.
#[derive(Clone)]
pub struct RunSpec {
    /// The stages to run, in canonical order ([`FULL_PIPELINE`],
    /// [`pipeline::POST_PIPELINE`] or a [`pipeline::parse_stages`] list).
    pub stages: Vec<&'static dyn Stage>,
    /// Adopt each design's existing positions before the first stage
    /// (ECO). Always on when `stages` skips MGL: post-processing needs a
    /// placed input. An unadoptable position fails that job with
    /// [`LegalizeError::SeedRejected`].
    pub adopt_positions: bool,
    /// Per-job deadline budgets in seconds: job `i` runs under
    /// `budgets[i]` (when set) instead of the engine's `stage_budget_secs`;
    /// when both are set the tighter one wins. Shorter than the batch
    /// leaves the tail on the engine config. This is how `mclegal serve`
    /// maps a client's deadline onto the degradation ladder; it never
    /// changes a fault-free result.
    pub budgets: Vec<Option<f64>>,
}

impl RunSpec {
    /// An explicit stage list; positions are adopted only when it skips
    /// MGL.
    pub fn stages(stages: &[&'static dyn Stage]) -> Self {
        Self {
            stages: stages.to_vec(),
            adopt_positions: false,
            budgets: Vec::new(),
        }
    }

    /// The full pipeline over adopted positions: cells that already have a
    /// legal position keep it as their starting point and only unplaced
    /// cells go through MGL insertion.
    pub fn eco() -> Self {
        Self {
            adopt_positions: true,
            ..Self::default()
        }
    }
}

impl Default for RunSpec {
    /// The full pipeline from scratch (input positions are ignored).
    fn default() -> Self {
        Self::stages(&FULL_PIPELINE)
    }
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
    /// equal. Empty unless the `replay-log` feature (default) is enabled.
    pub replay: mcl_audit::ReplayLog,
}

/// One design's seed-in / result-out cell. Each slot is claimed by exactly
/// one runner (via the shared admission cursor), so the lock is always
/// uncontended; it exists to let runners write results without aliasing.
struct Slot<'d> {
    seed: Option<PlacementState<'d>>,
    out: Option<Result<RunOutput, LegalizeError>>,
}

/// A reusable legalization engine: configuration plus long-lived scratch.
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
/// let results = engine.run(&designs, &RunSpec::default());
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
    /// Runner scratch arenas, grown lazily to the runner count and reused
    /// across calls.
    scratches: Vec<InsertionScratch>,
    diag: EngineDiag,
}

impl Engine {
    /// Creates an engine. The hardware thread clamp is resolved here, once,
    /// instead of on every run.
    pub fn new(mut config: LegalizerConfig) -> Self {
        if config.clamp_threads_to_hardware {
            let hw = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            config.threads = config.threads.max(1).min(hw);
            config.clamp_threads_to_hardware = false;
        } else {
            config.threads = config.threads.max(1);
        }
        Self {
            config,
            scratches: vec![InsertionScratch::new()],
            diag: EngineDiag::default(),
        }
    }

    /// The (clamp-resolved) configuration.
    pub fn config(&self) -> &LegalizerConfig {
        &self.config
    }

    /// Setup-cost counters since construction.
    pub fn diag(&self) -> EngineDiag {
        self.diag
    }

    /// How many runner threads a batch of `n` designs gets: the admission
    /// bound (`config.max_inflight_designs`, 0 = auto meaning `threads`),
    /// clamped to the thread budget and the batch size. The remaining
    /// `threads − runners` threads become shared eval workers.
    pub fn batch_runners(&self, n: usize) -> usize {
        let limit = match self.config.max_inflight_designs {
            0 => self.config.threads,
            m => m,
        };
        limit.min(self.config.threads).min(n.max(1)).max(1)
    }

    /// Opens a resident incremental-legalization session over `design`
    /// with this engine's configuration (see [`crate::EcoSession`]).
    ///
    /// # Errors
    ///
    /// [`LegalizeError::SeedRejected`] when the base positions are not
    /// adoptable (the base must be legal).
    pub fn eco_session(&self, design: Design) -> Result<crate::EcoSession, LegalizeError> {
        crate::EcoSession::open(design, self.config.clone())
    }

    /// Runs one design: exactly [`Self::run`] on a one-element batch.
    ///
    /// # Errors
    ///
    /// The job's terminal [`LegalizeError`] (see [`Self::run`]).
    pub fn run_one(&mut self, design: &Design, spec: &RunSpec) -> Result<RunOutput, LegalizeError> {
        self.run(std::slice::from_ref(design), spec)
            .pop()
            .unwrap_or(Err(LegalizeError::PoolBroken {
                during: "batch slot",
            }))
    }

    /// Runs `spec` over every design, interleaving up to
    /// [`Self::batch_runners`] designs on the thread budget. Every design
    /// gets its own result: one job failing to seed or exhausting its
    /// degradation ladder does not abort the batch, and the other jobs'
    /// outputs are bit-identical to fault-free solo runs (pinned by the
    /// chaos suite, including under cross-design interleaving).
    ///
    /// Runner 0 is the calling thread; each runner claims the next
    /// unprocessed design off a shared cursor and drives it start to
    /// finish, so results land in deterministic slots while the *schedule*
    /// (which runner gets which design, how rounds interleave) is free to
    /// race.
    pub fn run(
        &mut self,
        designs: &[Design],
        spec: &RunSpec,
    ) -> Vec<Result<RunOutput, LegalizeError>> {
        let stages = spec.stages.as_slice();
        let adopt = spec.adopt_positions || !includes_mgl(stages);
        // Per-job configs exist only when some job carries its own budget;
        // everything schedule-relevant is identical across jobs.
        let overrides: Option<Vec<LegalizerConfig>> =
            spec.budgets.iter().any(Option::is_some).then(|| {
                (0..designs.len())
                    .map(|i| {
                        let mut c = self.config.clone();
                        if let Some(b) = spec.budgets.get(i).copied().flatten() {
                            c.stage_budget_secs =
                                Some(c.stage_budget_secs.map_or(b, |engine_b| engine_b.min(b)));
                        }
                        c
                    })
                    .collect()
            });
        let preps: Vec<Prep<'_>> = designs.iter().map(|d| Prep::new(d, &self.config)).collect();
        let runners = self.batch_runners(designs.len());
        // Only MGL fans out onto the pool; post stages would leave every
        // worker idle.
        let workers = if includes_mgl(stages) {
            self.config.threads.saturating_sub(runners)
        } else {
            0
        };
        while self.scratches.len() < runners {
            self.scratches.push(InsertionScratch::new());
        }
        let Self {
            config,
            scratches,
            diag,
        } = self;
        let slots: Vec<Mutex<Slot<'_>>> = designs
            .iter()
            .map(|d| {
                let seed = if adopt {
                    PlacementState::from_design_positions(d).map_err(|(cell, e)| {
                        LegalizeError::SeedRejected {
                            cell: Some(cell.0),
                            message: e.to_string(),
                        }
                    })
                } else {
                    Ok(PlacementState::new(d))
                };
                Mutex::new(match seed {
                    Ok(state) => Slot {
                        seed: Some(state),
                        out: None,
                    },
                    Err(e) => Slot {
                        seed: None,
                        out: Some(Err(e)),
                    },
                })
            })
            .collect();
        let next = AtomicUsize::new(0);
        let runs = AtomicU64::new(0);
        let mut steal_counter = None;
        // The scratch pool is pre-grown to `runners >= 1` above; degrade to
        // typed errors rather than assert if that invariant ever breaks.
        let Some((main_scratch, rest_scratches)) = scratches.split_first_mut() else {
            return (0..designs.len())
                .map(|_| {
                    Err(LegalizeError::ResourceExhausted {
                        stage: "mgl",
                        what: "runner scratch pool",
                    })
                })
                .collect();
        };
        let job = Job {
            designs,
            preps: &preps,
            slots: &slots,
            next: &next,
            runs: &runs,
            config,
            overrides: overrides.as_deref(),
            stages,
        };
        std::thread::scope(|scope| {
            let pool = (workers > 0).then(|| EvalPool::spawn(scope, workers));
            if let Some(p) = &pool {
                diag.pool_spawns += 1;
                diag.worker_spawns += workers as u64;
                steal_counter = Some(p.steal_counter());
            }
            for scratch in rest_scratches.iter_mut().take(runners - 1) {
                diag.runner_spawns += 1;
                let client = pool.as_ref().map(EvalPool::client);
                scope.spawn(move || job.runner(scratch, client.as_ref()));
            }
            let client = pool.as_ref().map(EvalPool::client);
            job.runner(main_scratch, client.as_ref());
            // The scope joins the extra runners (and, once every client is
            // dropped, the pool workers) before returning.
        });
        diag.runs += runs.load(Ordering::Relaxed);
        if let Some(c) = steal_counter {
            diag.cross_design_steals += c.load(Ordering::Relaxed);
        }
        slots
            .into_iter()
            .map(|m| {
                let slot = m.into_inner().unwrap_or_else(PoisonError::into_inner);
                match slot.out {
                    Some(r) => r,
                    // Unreachable: every claimed slot stores a result and
                    // every seed error is stored up front; degrade to a
                    // typed error rather than assert.
                    None => Err(LegalizeError::PoolBroken {
                        during: "batch slot",
                    }),
                }
            })
            .collect()
    }
}

/// Everything the runners of one [`Engine::run`] call share.
#[derive(Clone, Copy)]
struct Job<'a, 'd> {
    designs: &'d [Design],
    preps: &'a [Prep<'d>],
    slots: &'a [Mutex<Slot<'d>>],
    next: &'a AtomicUsize,
    runs: &'a AtomicU64,
    config: &'a LegalizerConfig,
    overrides: Option<&'a [LegalizerConfig]>,
    stages: &'a [&'static dyn Stage],
}

impl<'a, 'd> Job<'a, 'd> {
    /// One runner's admission loop: claim the next unprocessed design, run
    /// it start to finish, repeat until the batch cursor runs dry.
    fn runner(self, scratch: &mut InsertionScratch, client: Option<&PoolClient<'a>>) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let (Some(design), Some(prep), Some(slot)) =
                (self.designs.get(i), self.preps.get(i), self.slots.get(i))
            else {
                break; // cursor ran past the batch: done
            };
            // The guard is scoped to the seed takeout: the run below sends
            // on the pool channels, and no lock guard may be live across a
            // send (`cargo xtask analyze`, rule pool-lock-across-send). The
            // slot is claimed by exactly one runner, so re-locking to store
            // the result races with nobody; a panic escaping the run leaves
            // `out` empty, which the collector degrades to a typed
            // PoolBroken error.
            let seed = slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .seed
                .take();
            let Some(mut state) = seed else {
                continue; // seed error, result already recorded
            };
            self.runs.fetch_add(1, Ordering::Relaxed);
            let config = self.overrides.and_then(|c| c.get(i)).unwrap_or(self.config);
            // `i` is the design's batch index: it tags this design's
            // messages on the shared pool.
            let out = pipeline::run_stages(
                design,
                &mut state,
                config,
                self.stages,
                prep,
                client.map(|c| (c, i)),
                scratch,
            )
            .map(|stats| {
                let mut out = design.clone();
                state.write_back(&mut out);
                RunOutput {
                    design: out,
                    stats,
                    replay: state.take_replay_log(),
                }
            });
            slot.lock().unwrap_or_else(PoisonError::into_inner).out = Some(out);
            // `state` drops here: a finished design's working memory is
            // released immediately, keeping residency proportional to the
            // in-flight count.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MglStage, POST_PIPELINE};

    fn batch_designs(n: usize) -> Vec<Design> {
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
                for i in 0..140 {
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
        c.clamp_threads_to_hardware = false;
        c
    }

    fn solo(threads: usize, d: &Design) -> RunOutput {
        Engine::new(cfg(threads))
            .run_one(d, &RunSpec::default())
            .expect("solo run")
    }

    fn positions(d: &Design) -> Vec<Option<Point>> {
        d.cells.iter().map(|c| c.pos).collect()
    }

    fn batch(engine: &mut Engine, designs: &[Design]) -> Vec<RunOutput> {
        engine
            .run(designs, &RunSpec::default())
            .into_iter()
            .map(|r| r.expect("batch job"))
            .collect()
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
        // Force the shared-worker regime: 4 threads but only 2 in flight
        // leaves 2 pool workers serving both runners' rounds interleaved.
        let designs = batch_designs(6);
        let mut c = cfg(4);
        c.max_inflight_designs = 2;
        let mut engine = Engine::new(c);
        assert_eq!(engine.batch_runners(designs.len()), 2);
        let batch = batch(&mut engine, &designs);
        assert_eq!(engine.diag().pool_spawns, 1);
        assert_eq!(engine.diag().worker_spawns, 2);
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
    fn batch_reuses_pool_and_scratch() {
        let designs = batch_designs(4);
        // Default admission: every thread is a runner, so no pool at all.
        let mut engine = Engine::new(cfg(3));
        let batch1 = batch(&mut engine, &designs);
        let diag = engine.diag();
        assert_eq!(diag.runs, 4);
        assert_eq!(
            diag.pool_spawns, 0,
            "full-width admission needs no shared pool"
        );
        assert_eq!(diag.runner_spawns, 2, "3 runners = main + 2 spawned");
        // Which runner ran which design races (a runner that arrives after
        // the cursor drains reports nothing), but the lifetime bound is
        // exact: at most one construction per runner scratch, ever. Without
        // reuse each of the 8 runs below would construct its own.
        let created =
            |b: &[RunOutput]| -> u64 { b.iter().map(|o| o.stats.mgl.perf.scratch.created).sum() };
        let created1 = created(&batch1);
        assert!((1..=3).contains(&created1), "saw {created1} constructions");
        let created2 = created(&batch(&mut engine, &designs));
        assert!(
            created1 + created2 <= 3,
            "second batch call must reuse runner scratches (saw {created1} then {created2})"
        );

        // One in-flight design: sequential schedule, one pool, deterministic
        // per-design scratch charging.
        let mut c = cfg(3);
        c.max_inflight_designs = 1;
        let mut engine = Engine::new(c);
        let batch1 = batch(&mut engine, &designs);
        let diag = engine.diag();
        assert_eq!(diag.runs, 4);
        assert_eq!(diag.pool_spawns, 1, "single-runner batch shares one pool");
        assert_eq!(diag.worker_spawns, 2);
        assert_eq!(diag.runner_spawns, 0);
        let per_design: Vec<u64> = batch1
            .iter()
            .map(|o| o.stats.mgl.perf.scratch.created)
            .collect();
        assert_eq!(per_design, vec![3, 0, 0, 0]);

        // Per-design engines pay the pool (and scratches) once per design.
        let mut spawns = 0u64;
        for d in &designs {
            let mut solo = Engine::new(cfg(3));
            solo.run_one(d, &RunSpec::default()).expect("solo run");
            spawns += solo.diag().pool_spawns;
        }
        assert_eq!(spawns, 4);
    }

    #[test]
    fn mgl_less_stage_lists_spawn_no_pool() {
        let designs = batch_designs(2);
        let mut s1 = cfg(4);
        s1.max_disp_matching = false;
        s1.fixed_order_refine = false;
        let placed: Vec<Design> = Engine::new(s1)
            .run(&designs, &RunSpec::default())
            .into_iter()
            .map(|r| r.expect("stage 1").design)
            .collect();
        let mut engine = Engine::new(cfg(4));
        engine
            .run_one(&placed[0], &RunSpec::stages(&POST_PIPELINE))
            .expect("refine");
        let mut c = cfg(4);
        c.max_inflight_designs = 1;
        let mut throttled = Engine::new(c);
        for r in throttled.run(&placed, &RunSpec::stages(&POST_PIPELINE)) {
            r.expect("refine");
        }
        for e in [&engine, &throttled] {
            assert_eq!(e.diag().pool_spawns, 0, "post-only run spawned a pool");
            assert_eq!(e.diag().worker_spawns, 0);
        }
        // An MGL stage list at the same width does spawn one.
        engine
            .run_one(&designs[0], &RunSpec::stages(&[&MglStage]))
            .expect("mgl");
        assert_eq!(engine.diag().pool_spawns, 1);
    }

    #[test]
    fn adopting_runs_report_seed_errors_per_job() {
        let designs = batch_designs(2);
        let mut engine = Engine::new(cfg(2));
        // Legal inputs: stage-1 legalize, then batch-ECO adopts cleanly.
        let placed: Vec<Design> = engine
            .run(&designs, &RunSpec::stages(&[&MglStage]))
            .into_iter()
            .map(|r| r.expect("stage 1").design)
            .collect();
        assert!(engine
            .run(&placed, &RunSpec::eco())
            .iter()
            .all(Result::is_ok));

        // An illegal position in design 1 fails that job only.
        let mut bad = placed.clone();
        bad[1].cells[0].pos = Some(Point::new(13, 7));
        let out = engine.run(&bad, &RunSpec::eco());
        assert!(out[0].is_ok());
        match &out[1] {
            Err(LegalizeError::SeedRejected { cell, .. }) => assert_eq!(*cell, Some(0)),
            other => panic!("misaligned seed position must be rejected, got {other:?}"),
        }
    }
}
