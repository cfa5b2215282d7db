//! Typed metric aggregation: spans, counters, log₂ histograms.
//!
//! All kinds are closed enums so a [`Meter`] is a few fixed-size arrays —
//! recording is an index + add, merging is element-wise, and nothing
//! allocates after the first record. Meters are thread-local by
//! construction: each worker records into its own meter and the owners
//! merge them in a deterministic order, which keeps recording entirely off
//! the synchronization paths (and therefore incapable of perturbing replay
//! determinism).

use std::sync::atomic::{AtomicBool, Ordering};

/// The one switch for recording. Defaults to on; the overhead guard test
/// flips it to compare instrumented vs uninstrumented wall time within one
/// binary.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Enables or disables recording at runtime, process-wide. Off, every
/// [`Meter`] call returns before touching storage.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether recording is currently on.
#[must_use]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Span kinds of the pipeline hierarchy: run → stage → phase →
/// insertion-eval, plus the flow-solver leaves. Names follow the
/// `<scope>.<quantity>` convention of DESIGN.md §9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// Whole legalization run.
    Run,
    /// Stage 1: MGL window insertion.
    StageMgl,
    /// Stage 2: max-displacement matching.
    StageMaxDisp,
    /// Stage 3: fixed row & order refinement.
    StageFixedOrder,
    /// Scheduler: non-overlapping window selection (per round).
    SchedSelect,
    /// Scheduler: concurrent evaluation phase (per round, wall time).
    SchedEval,
    /// Scheduler: sequential apply phase (per round).
    SchedApply,
    /// One `best_insertion_in` call (thread-attributed).
    InsertionEval,
    /// One whole-design fallback scan.
    FallbackScan,
    /// One (type × fence) matching group solve.
    MatchingGroup,
    /// One stage-3 network-simplex flow solve.
    FlowSimplex,
    /// ECO delta: applying the moves to the session's resident state
    /// (re-targeting and vacating the moved cells, re-attaching the state,
    /// the run's `Prep` over the resident weights).
    EcoAdopt,
    /// ECO delta: computing the bounded dirty closure.
    EcoClosure,
    /// ECO delta: committing the result (writing back the dirty and moved
    /// cells and splicing the certificate over them).
    EcoCommit,
}

impl SpanKind {
    /// Every kind, in report order.
    pub const ALL: [SpanKind; 14] = [
        SpanKind::Run,
        SpanKind::StageMgl,
        SpanKind::StageMaxDisp,
        SpanKind::StageFixedOrder,
        SpanKind::SchedSelect,
        SpanKind::SchedEval,
        SpanKind::SchedApply,
        SpanKind::InsertionEval,
        SpanKind::FallbackScan,
        SpanKind::MatchingGroup,
        SpanKind::FlowSimplex,
        SpanKind::EcoAdopt,
        SpanKind::EcoClosure,
        SpanKind::EcoCommit,
    ];
    /// Number of kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable report name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::StageMgl => "stage.mgl",
            SpanKind::StageMaxDisp => "stage.maxdisp",
            SpanKind::StageFixedOrder => "stage.fixed_order",
            SpanKind::SchedSelect => "mgl.select",
            SpanKind::SchedEval => "mgl.eval",
            SpanKind::SchedApply => "mgl.apply",
            SpanKind::InsertionEval => "mgl.insertion_eval",
            SpanKind::FallbackScan => "mgl.fallback_scan",
            SpanKind::MatchingGroup => "maxdisp.group",
            SpanKind::FlowSimplex => "flow.simplex",
            SpanKind::EcoAdopt => "eco.adopt",
            SpanKind::EcoClosure => "eco.closure",
            SpanKind::EcoCommit => "eco.commit",
        }
    }
}

/// Typed event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterKind {
    /// Windows evaluated (`best_insertion_in` calls).
    WindowsEvaluated,
    /// Window expansions performed (failed window retried larger).
    WindowsExpanded,
    /// Whole-design fallback scans run.
    FallbackScans,
    /// Displacement-curve minimizations evaluated.
    CurveMinimizations,
    /// Candidate insertion anchors inspected.
    InsertionAnchors,
    /// Aligned regions enumerated.
    AlignedRegions,
    /// Slot tuples skipped by the dedup set.
    DedupHits,
    /// CPU nanoseconds the MGL runner and its helpers spent in their round
    /// loops, from each thread's own CPU clock (not recorded on hosts
    /// without one). Over the stage's wall time: its true parallelism.
    MglCpuNanos,
    /// Matching groups solved in stage 2.
    MatchingGroups,
    /// Cells moved by stage-2 matchings.
    MatchingCellsMoved,
    /// Network-simplex pivots of the stage-2 matchings.
    MatchingSimplexPivots,
    /// Network-simplex pivots of the stage-3 dual flow.
    SimplexPivots,
    /// Independent components stage 3 solved its flow in (final
    /// partition).
    FixedOrderComponents,
    /// Cells in stage 3's largest component.
    FixedOrderLargestComponent,
    /// Stage-3 rounds that merged components and solved them again.
    FixedOrderRepairRounds,
    /// Cells in the stage-3 component carrying the Eq. 8–9 extension
    /// nodes (0 when no extension arc needed flow).
    FixedOrderExtCells,
    /// Dirty windows scanned by the ECO delta closure.
    EcoWindowsDirty,
    /// Placed movable cells outside the dirty closure, whose placement
    /// (and cached displacement curves) the delta run reused untouched.
    EcoCellsReused,
}

impl CounterKind {
    /// Every kind, in report order.
    pub const ALL: [CounterKind; 18] = [
        CounterKind::WindowsEvaluated,
        CounterKind::WindowsExpanded,
        CounterKind::FallbackScans,
        CounterKind::CurveMinimizations,
        CounterKind::InsertionAnchors,
        CounterKind::AlignedRegions,
        CounterKind::DedupHits,
        CounterKind::MglCpuNanos,
        CounterKind::MatchingGroups,
        CounterKind::MatchingCellsMoved,
        CounterKind::MatchingSimplexPivots,
        CounterKind::SimplexPivots,
        CounterKind::FixedOrderComponents,
        CounterKind::FixedOrderLargestComponent,
        CounterKind::FixedOrderRepairRounds,
        CounterKind::FixedOrderExtCells,
        CounterKind::EcoWindowsDirty,
        CounterKind::EcoCellsReused,
    ];
    /// Number of kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable report name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CounterKind::WindowsEvaluated => "mgl.windows_evaluated",
            CounterKind::WindowsExpanded => "mgl.windows_expanded",
            CounterKind::FallbackScans => "mgl.fallback_scans",
            CounterKind::CurveMinimizations => "mgl.curve_minimizations",
            CounterKind::InsertionAnchors => "mgl.insertion_anchors",
            CounterKind::AlignedRegions => "mgl.aligned_regions",
            CounterKind::DedupHits => "mgl.dedup_hits",
            CounterKind::MglCpuNanos => "mgl.cpu_nanos",
            CounterKind::MatchingGroups => "maxdisp.groups",
            CounterKind::MatchingCellsMoved => "maxdisp.cells_moved",
            CounterKind::MatchingSimplexPivots => "maxdisp.simplex_pivots",
            CounterKind::SimplexPivots => "flow.simplex_pivots",
            CounterKind::FixedOrderComponents => "fixed_order.components",
            CounterKind::FixedOrderLargestComponent => "fixed_order.largest_component",
            CounterKind::FixedOrderRepairRounds => "fixed_order.repair_rounds",
            CounterKind::FixedOrderExtCells => "fixed_order.ext_cells",
            CounterKind::EcoWindowsDirty => "eco.windows_dirty",
            CounterKind::EcoCellsReused => "eco.cells_reused",
        }
    }
}

/// Typed histograms (log₂-bucketed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistoKind {
    /// Per-cell displacement in sites after stage 1.
    DispSitesMgl,
    /// Per-cell displacement in sites after stage 2.
    DispSitesMaxDisp,
    /// Per-cell displacement in sites after stage 3.
    DispSitesFixedOrder,
    /// Latency of one insertion evaluation, nanoseconds.
    InsertionEvalNanos,
    /// Stage-2 matching group sizes, cells.
    MatchingGroupCells,
    /// Per-round wall time an MGL runner spent waiting for results its
    /// helpers were still computing, nanoseconds. One observation per
    /// round that fanned out to helpers.
    SchedQueueWaitNanos,
    /// End-to-end latency of one ECO delta (`EcoSession::apply_delta`),
    /// nanoseconds. Wall time: observability, never golden.
    EcoDeltaNanos,
    /// End-to-end latency of one serve job (admission to final response),
    /// nanoseconds — queue wait included. Wall time: observability, never
    /// golden.
    ServeJobNanos,
}

impl HistoKind {
    /// Every kind, in report order.
    pub const ALL: [HistoKind; 8] = [
        HistoKind::DispSitesMgl,
        HistoKind::DispSitesMaxDisp,
        HistoKind::DispSitesFixedOrder,
        HistoKind::InsertionEvalNanos,
        HistoKind::MatchingGroupCells,
        HistoKind::SchedQueueWaitNanos,
        HistoKind::EcoDeltaNanos,
        HistoKind::ServeJobNanos,
    ];
    /// Number of kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable report name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            HistoKind::DispSitesMgl => "mgl.cell_disp_sites",
            HistoKind::DispSitesMaxDisp => "maxdisp.cell_disp_sites",
            HistoKind::DispSitesFixedOrder => "fixed_order.cell_disp_sites",
            HistoKind::InsertionEvalNanos => "mgl.insertion_eval_nanos",
            HistoKind::MatchingGroupCells => "maxdisp.group_cells",
            HistoKind::SchedQueueWaitNanos => "mgl.queue_wait_nanos",
            HistoKind::EcoDeltaNanos => "eco.delta_nanos",
            HistoKind::ServeJobNanos => "serve.job_nanos",
        }
    }
}

/// Aggregated observations of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Number of spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds (saturating).
    pub total_nanos: u64,
    /// Shortest span, nanoseconds (0 when `count == 0`).
    pub min_nanos: u64,
    /// Longest span, nanoseconds.
    pub max_nanos: u64,
    /// Bitmask of thread ids that recorded this span (bit `min(id, 63)`).
    pub threads: u64,
}

impl SpanAgg {
    fn record(&mut self, nanos: u64, thread: usize) {
        if self.count == 0 {
            self.min_nanos = nanos;
            self.max_nanos = nanos;
        } else {
            self.min_nanos = self.min_nanos.min(nanos);
            self.max_nanos = self.max_nanos.max(nanos);
        }
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.threads |= 1u64 << thread.min(63);
    }

    fn merge(&mut self, o: &SpanAgg) {
        if o.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *o;
            return;
        }
        self.min_nanos = self.min_nanos.min(o.min_nanos);
        self.max_nanos = self.max_nanos.max(o.max_nanos);
        self.count += o.count;
        self.total_nanos = self.total_nanos.saturating_add(o.total_nanos);
        self.threads |= o.threads;
    }

    /// Mean duration in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }

    /// The thread ids present in the attribution mask, ascending.
    #[must_use]
    pub fn thread_ids(&self) -> Vec<u32> {
        (0..64u32).filter(|&b| self.threads >> b & 1 == 1).collect()
    }
}

/// A log₂-bucketed histogram of `u64` observations. Bucket 0 holds the
/// value 0; bucket `i ≥ 1` holds values in `[2^(i−1), 2^i − 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: [0; 64] }
    }
}

impl Histogram {
    /// The bucket index for a value (clamped: bucket 63 also absorbs
    /// values ≥ 2^63).
    #[must_use]
    pub const fn bucket_of(v: u64) -> usize {
        let b = (u64::BITS - v.leading_zeros()) as usize;
        if b > 63 {
            63
        } else {
            b
        }
    }

    /// Inclusive upper bound of bucket `i`.
    #[must_use]
    pub const fn bucket_limit(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Element-wise merge.
    pub fn merge(&mut self, o: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&o.buckets) {
            *a += b;
        }
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Non-empty buckets as `(bucket index, count)`, ascending.
    #[must_use]
    pub fn nonzero(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Upper bound of the bucket where the cumulative count first reaches
    /// `q` (0..=1) of the total; 0 when empty. A coarse quantile good
    /// enough for human summaries.
    #[must_use]
    pub fn approx_quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * count_to_float(total)).ceil();
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if count_to_float(cum) >= target {
                return Self::bucket_limit(i);
            }
        }
        Self::bucket_limit(63)
    }
}

/// The workspace's sanctioned count→f64 conversion (counts are far below
/// 2^53, so precision loss is impossible in practice and harmless in a
/// summary quantile or a rendered chart).
#[must_use]
pub fn count_to_float(v: u64) -> f64 {
    v as f64
}

/// The metric sink: fixed arrays of span/counter/histogram aggregates.
///
/// Storage is lazily boxed on first record, so an idle meter costs one
/// pointer; reads of a never-recorded meter return zeros.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    inner: Option<Box<Inner>>,
}

#[derive(Debug, Clone)]
struct Inner {
    spans: [SpanAgg; SpanKind::COUNT],
    counters: [u64; CounterKind::COUNT],
    histos: [Histogram; HistoKind::COUNT],
}

impl Default for Inner {
    fn default() -> Self {
        Self {
            spans: [SpanAgg::default(); SpanKind::COUNT],
            counters: [0; CounterKind::COUNT],
            histos: [Histogram::default(); HistoKind::COUNT],
        }
    }
}

impl Meter {
    /// An empty meter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn inner_mut(&mut self) -> &mut Inner {
        self.inner.get_or_insert_with(Box::default)
    }

    /// Records one span of `nanos` duration attributed to `thread`.
    #[inline]
    pub fn record_span(&mut self, kind: SpanKind, nanos: u64, thread: usize) {
        if recording() {
            self.inner_mut().spans[kind as usize].record(nanos, thread);
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, kind: CounterKind, n: u64) {
        if recording() && n > 0 {
            self.inner_mut().counters[kind as usize] += n;
        }
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, kind: HistoKind, value: u64) {
        if recording() {
            self.inner_mut().histos[kind as usize].observe(value);
        }
    }

    /// Merges another meter into this one (deterministic, element-wise).
    pub fn merge(&mut self, other: &Meter) {
        if let Some(o) = &other.inner {
            let inner = self.inner_mut();
            for (a, b) in inner.spans.iter_mut().zip(&o.spans) {
                a.merge(b);
            }
            for (a, b) in inner.counters.iter_mut().zip(&o.counters) {
                *a += b;
            }
            for (a, b) in inner.histos.iter_mut().zip(&o.histos) {
                a.merge(b);
            }
        }
    }

    /// The aggregate for one span kind (zeros when never recorded).
    #[must_use]
    pub fn span(&self, kind: SpanKind) -> SpanAgg {
        self.inner
            .as_ref()
            .and_then(|i| i.spans.get(kind as usize).copied())
            .unwrap_or_default()
    }

    /// A counter's value (0 when never recorded).
    #[must_use]
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.counters.get(kind as usize).copied())
            .unwrap_or_default()
    }

    /// A histogram's aggregate (empty when never recorded).
    #[must_use]
    pub fn histogram(&self, kind: HistoKind) -> Histogram {
        self.inner
            .as_ref()
            .and_then(|i| i.histos.get(kind as usize).copied())
            .unwrap_or_default()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tables_are_consistent() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        for (i, k) in CounterKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        for (i, k) in HistoKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        // Names are unique.
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.extend(CounterKind::ALL.iter().map(|k| k.name()));
        names.extend(HistoKind::ALL.iter().map(|k| k.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.nonzero(), vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
        assert_eq!(Histogram::bucket_limit(2), 3);
        assert!(h.approx_quantile(1.0) >= 1024);
        assert_eq!(h.approx_quantile(0.0), 0);
    }

    #[test]
    fn record_and_merge() {
        let mut a = Meter::new();
        assert!(a.is_empty());
        a.record_span(SpanKind::InsertionEval, 100, 0);
        a.record_span(SpanKind::InsertionEval, 50, 1);
        a.add(CounterKind::WindowsEvaluated, 3);
        a.observe(HistoKind::DispSitesMgl, 7);
        let mut b = Meter::new();
        b.record_span(SpanKind::InsertionEval, 200, 2);
        b.add(CounterKind::WindowsEvaluated, 2);
        a.merge(&b);
        let s = a.span(SpanKind::InsertionEval);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_nanos, 350);
        assert_eq!(s.min_nanos, 50);
        assert_eq!(s.max_nanos, 200);
        assert_eq!(s.thread_ids(), vec![0, 1, 2]);
        assert_eq!(a.counter(CounterKind::WindowsEvaluated), 5);
        assert_eq!(a.histogram(HistoKind::DispSitesMgl).count(), 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn span_agg_merge_identities() {
        let mut a = SpanAgg::default();
        let mut b = SpanAgg::default();
        b.record(10, 0);
        a.merge(&b);
        assert_eq!(a, b);
        a.merge(&SpanAgg::default());
        assert_eq!(a, b);
        assert_eq!(a.mean_nanos(), 10);
    }
}
