//! The `RunReport` sink: one structured record per legalization run.
//!
//! A report has two strata:
//!
//! - **Golden fields** — design identity, outcome counts and quality
//!   metrics. These are independent of the recording switch and of wall
//!   time, so they are byte-stable across runs, thread counts and builds;
//!   the golden end-to-end corpus snapshots exactly this subset
//!   ([`RunReport::golden_json`]).
//! - **Observability fields** — stage timings, span aggregates, counters
//!   and histograms harvested from a [`Meter`]. Timing varies run to run,
//!   so these appear only in the full [`RunReport::to_json`] output.
//!
//! Field order in the emitted JSON is fixed by construction (insertion
//! order within each section, sections in schema order). Bump
//! [`SCHEMA_VERSION`] whenever the shape of the golden subset changes; the
//! CI guard fails if the version changes without a golden re-bless.

use crate::json::JsonWriter;
use crate::meter::{CounterKind, HistoKind, Meter, SpanKind};

/// Version of the report schema (golden subset shape included).
///
/// v2: added the golden `failures` and `degradations` arrays (fault
/// containment, DESIGN.md §11) and the `retries`/`quarantined` outcome
/// counters.
pub const SCHEMA_VERSION: u32 = 2;

/// A named scalar in the golden strata.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer metric.
    U64(u64),
    /// Real-valued metric (printed with 4 decimals).
    F64(f64),
}

/// Wall time of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTime {
    /// Stage name (`mgl`, `maxdisp`, `fixed_order`).
    pub name: String,
    /// Wall seconds.
    pub seconds: f64,
}

/// Flattened span aggregate for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    /// Span name (see [`SpanKind::name`]).
    pub name: String,
    /// Spans recorded.
    pub count: u64,
    /// Summed nanoseconds.
    pub total_nanos: u64,
    /// Shortest span.
    pub min_nanos: u64,
    /// Longest span.
    pub max_nanos: u64,
    /// Mean span.
    pub mean_nanos: u64,
    /// Thread ids that recorded this span.
    pub threads: Vec<u32>,
}

/// Flattened histogram for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoReport {
    /// Histogram name (see [`HistoKind::name`]).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Approximate median (upper bound of the p50 bucket).
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate maximum.
    pub p100: u64,
    /// Non-empty `(log₂ bucket, count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// One contained failure, flattened for the report (golden; schema v2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRow {
    /// Stage the failure is attributed to (`"seed"` for pre-pipeline).
    pub stage: String,
    /// Containment class label (`retryable` / `degradable` / `fatal`).
    pub class: String,
    /// Human-readable description.
    pub message: String,
}

/// One degradation-ladder rung taken by the run (golden; schema v2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationRow {
    /// Stage the rung applies to.
    pub stage: String,
    /// The rung taken (`serial` / `skip`).
    pub rung: String,
    /// Why the rung was taken.
    pub reason: String,
}

/// One run's structured report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Design name/identifier.
    pub design: String,
    /// Thread count the run was configured with.
    pub threads: u64,
    /// Movable cell count.
    pub cells: u64,
    /// Fence region count.
    pub fences: u64,
    /// Golden quality metrics, in insertion order.
    pub quality: Vec<(String, Value)>,
    /// Golden outcome counts (placed-in-window, fallbacks, …).
    pub outcome: Vec<(String, u64)>,
    /// Contained failures, in the order they were recorded (golden).
    pub failures: Vec<FailureRow>,
    /// Degradation-ladder rungs taken, in order (golden).
    pub degradations: Vec<DegradationRow>,
    /// Per-stage wall seconds (not golden).
    pub stage_seconds: Vec<StageTime>,
    /// Span aggregates (not golden).
    pub spans: Vec<SpanReport>,
    /// Counters (not golden; excluded from the golden subset because they
    /// read zero with recording switched off).
    pub counters: Vec<(String, u64)>,
    /// Histograms (not golden).
    pub histograms: Vec<HistoReport>,
}

impl RunReport {
    /// A report for `design`.
    #[must_use]
    pub fn new(design: &str) -> Self {
        Self {
            design: design.to_string(),
            ..Self::default()
        }
    }

    /// Appends a real-valued golden quality metric.
    pub fn quality_f64(&mut self, name: &str, v: f64) {
        self.quality.push((name.to_string(), Value::F64(v)));
    }

    /// Appends an integer golden quality metric.
    pub fn quality_u64(&mut self, name: &str, v: u64) {
        self.quality.push((name.to_string(), Value::U64(v)));
    }

    /// Appends a golden outcome count.
    pub fn outcome(&mut self, name: &str, v: u64) {
        self.outcome.push((name.to_string(), v));
    }

    /// Appends a contained-failure row.
    pub fn failure(&mut self, stage: &str, class: &str, message: &str) {
        self.failures.push(FailureRow {
            stage: stage.to_string(),
            class: class.to_string(),
            message: message.to_string(),
        });
    }

    /// Appends a degradation-ladder row.
    pub fn degradation(&mut self, stage: &str, rung: &str, reason: &str) {
        self.degradations.push(DegradationRow {
            stage: stage.to_string(),
            rung: rung.to_string(),
            reason: reason.to_string(),
        });
    }

    /// Whether the report claims an unqualified success: no failure rows,
    /// no degradation rungs, and every fault-related outcome counter
    /// (`failed`, `retries`, `quarantined`) at zero. Any contained fault or
    /// rung makes this `false` — a faulted run can never masquerade as a
    /// clean one.
    #[must_use]
    pub fn claims_full_success(&self) -> bool {
        self.failures.is_empty()
            && self.degradations.is_empty()
            && self
                .outcome
                .iter()
                .filter(|(name, _)| matches!(name.as_str(), "failed" | "retries" | "quarantined"))
                .all(|(_, v)| *v == 0)
    }

    /// Appends a stage wall-time entry.
    pub fn stage(&mut self, name: &str, seconds: f64) {
        self.stage_seconds.push(StageTime {
            name: name.to_string(),
            seconds,
        });
    }

    /// Harvests every non-empty span, counter and histogram from a meter.
    pub fn attach_meter(&mut self, m: &Meter) {
        for kind in SpanKind::ALL {
            let s = m.span(kind);
            if s.count == 0 {
                continue;
            }
            self.spans.push(SpanReport {
                name: kind.name().to_string(),
                count: s.count,
                total_nanos: s.total_nanos,
                min_nanos: s.min_nanos,
                max_nanos: s.max_nanos,
                mean_nanos: s.mean_nanos(),
                threads: s.thread_ids(),
            });
        }
        for kind in CounterKind::ALL {
            let v = m.counter(kind);
            if v > 0 {
                self.counters.push((kind.name().to_string(), v));
            }
        }
        for kind in HistoKind::ALL {
            let h = m.histogram(kind);
            if h.count() == 0 {
                continue;
            }
            self.histograms.push(HistoReport {
                name: kind.name().to_string(),
                count: h.count(),
                p50: h.approx_quantile(0.50),
                p95: h.approx_quantile(0.95),
                p100: h.approx_quantile(1.0),
                buckets: h.nonzero(),
            });
        }
    }

    fn write_golden_fields(&self, w: &mut JsonWriter) {
        w.field_u64("schema_version", u64::from(SCHEMA_VERSION));
        w.field_str("design", &self.design);
        w.field_u64("threads", self.threads);
        w.field_u64("cells", self.cells);
        w.field_u64("fences", self.fences);
        w.key("quality");
        w.begin_object();
        for (name, v) in &self.quality {
            match v {
                Value::U64(x) => w.field_u64(name, *x),
                Value::F64(x) => w.field_f64(name, *x, 4),
            }
        }
        w.end_object();
        w.key("outcome");
        w.begin_object();
        for (name, v) in &self.outcome {
            w.field_u64(name, *v);
        }
        w.end_object();
        w.key("failures");
        w.begin_array();
        for row in &self.failures {
            w.begin_object();
            w.field_str("stage", &row.stage);
            w.field_str("class", &row.class);
            w.field_str("message", &row.message);
            w.end_object();
        }
        w.end_array();
        w.key("degradations");
        w.begin_array();
        for row in &self.degradations {
            w.begin_object();
            w.field_str("stage", &row.stage);
            w.field_str("rung", &row.rung);
            w.field_str("reason", &row.reason);
            w.end_object();
        }
        w.end_array();
    }

    /// The golden subset: schema version, design identity, quality and
    /// outcome — everything deterministic across runs, thread counts and
    /// feature sets. This is what the golden corpus snapshots.
    #[must_use]
    pub fn golden_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_golden_fields(&mut w);
        w.end_object();
        w.finish()
    }

    /// The full report: golden subset plus stage timings, spans, counters
    /// and histograms.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_golden_fields(&mut w);
        w.key("stage_seconds");
        w.begin_object();
        for s in &self.stage_seconds {
            w.field_f64(&s.name, s.seconds, 6);
        }
        w.end_object();
        w.key("spans");
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.field_str("name", &s.name);
            w.field_u64("count", s.count);
            w.field_u64("total_nanos", s.total_nanos);
            w.field_u64("min_nanos", s.min_nanos);
            w.field_u64("max_nanos", s.max_nanos);
            w.field_u64("mean_nanos", s.mean_nanos);
            w.key("threads");
            w.begin_array();
            for t in &s.threads {
                w.value_u64(u64::from(*t));
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("counters");
        w.begin_object();
        for (name, v) in &self.counters {
            w.field_u64(name, *v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_array();
        for h in &self.histograms {
            w.begin_object();
            w.field_str("name", &h.name);
            w.field_u64("count", h.count);
            w.field_u64("p50", h.p50);
            w.field_u64("p95", h.p95);
            w.field_u64("p100", h.p100);
            w.key("buckets");
            w.begin_array();
            for (b, c) in &h.buckets {
                w.begin_array();
                w.value_u64(u64::from(*b));
                w.value_u64(*c);
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// A human-readable multi-line summary (`mclegal legalize --report true`).
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run report (schema v{SCHEMA_VERSION}): {} — {} cells, {} fences, {} threads",
            self.design, self.cells, self.fences, self.threads
        );
        if !self.quality.is_empty() {
            let _ = writeln!(out, "  quality:");
            for (name, v) in &self.quality {
                match v {
                    Value::U64(x) => {
                        let _ = writeln!(out, "    {name:<32} {x}");
                    }
                    Value::F64(x) => {
                        let _ = writeln!(out, "    {name:<32} {x:.4}");
                    }
                }
            }
        }
        if !self.outcome.is_empty() {
            let _ = writeln!(out, "  outcome:");
            for (name, v) in &self.outcome {
                let _ = writeln!(out, "    {name:<32} {v}");
            }
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "  failures:");
            for row in &self.failures {
                let _ = writeln!(out, "    [{}] {}: {}", row.class, row.stage, row.message);
            }
        }
        if !self.degradations.is_empty() {
            let _ = writeln!(out, "  degradations:");
            for row in &self.degradations {
                let _ = writeln!(out, "    {} -> {}: {}", row.stage, row.rung, row.reason);
            }
        }
        if !self.stage_seconds.is_empty() {
            let _ = writeln!(out, "  stage seconds:");
            for s in &self.stage_seconds {
                let _ = writeln!(out, "    {:<32} {:.6}", s.name, s.seconds);
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "  spans (count / total ms / mean µs / threads):");
            for s in &self.spans {
                let total_ms = s.total_nanos / 1_000_000;
                let mean_us = s.mean_nanos / 1_000;
                let _ = writeln!(
                    out,
                    "    {:<24} {:>10} {:>9} {:>9}   {:?}",
                    s.name, s.count, total_ms, mean_us, s.threads
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "    {name:<32} {v}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "  histograms (count / ~p50 / ~p95 / ~max):");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {:<24} {:>10} {:>9} {:>9} {:>9}",
                    h.name, h.count, h.p50, h.p95, h.p100
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("demo");
        r.threads = 2;
        r.cells = 10;
        r.fences = 1;
        r.quality_u64("total_disp_sites", 42);
        r.quality_f64("weighted_cost", 1.25);
        r.outcome("placed_in_window", 9);
        r.outcome("fallbacks", 1);
        r.stage("mgl", 0.001_234_5);
        r
    }

    #[test]
    fn golden_json_is_stable_and_timing_free() {
        let r = sample();
        let j = r.golden_json();
        assert_eq!(
            j,
            "{\"schema_version\":2,\"design\":\"demo\",\"threads\":2,\
             \"cells\":10,\"fences\":1,\"quality\":{\"total_disp_sites\":42,\
             \"weighted_cost\":1.2500},\"outcome\":{\"placed_in_window\":9,\
             \"fallbacks\":1},\"failures\":[],\"degradations\":[]}"
        );
        assert!(!j.contains("nanos"));
        assert!(!j.contains("seconds"));
    }

    #[test]
    fn failures_and_degradations_are_golden_and_block_success_claims() {
        let mut r = sample();
        assert!(r.claims_full_success());
        r.failure("mgl", "degradable", "stage mgl panicked: boom");
        r.degradation("mgl", "serial", "stage mgl panicked: boom");
        assert!(!r.claims_full_success());
        let j = r.golden_json();
        assert!(j.contains(
            "\"failures\":[{\"stage\":\"mgl\",\"class\":\"degradable\",\
             \"message\":\"stage mgl panicked: boom\"}]"
        ));
        assert!(j.contains("\"degradations\":[{\"stage\":\"mgl\",\"rung\":\"serial\""));
        let s = r.summary();
        assert!(s.contains("degradations:"));
        assert!(s.contains("mgl -> serial"));

        // A nonzero fault-related outcome counter also blocks the claim.
        let mut r2 = sample();
        r2.outcome("quarantined", 1);
        assert!(!r2.claims_full_success());
    }

    #[test]
    fn full_json_contains_sections_in_order() {
        let mut r = sample();
        let mut m = Meter::new();
        m.record_span(crate::SpanKind::StageMgl, 1_000, 0);
        m.add(crate::CounterKind::WindowsEvaluated, 7);
        m.observe(crate::HistoKind::DispSitesMgl, 3);
        r.attach_meter(&m);
        let j = r.to_json();
        let order = [
            "schema_version",
            "quality",
            "outcome",
            "failures",
            "degradations",
            "stage_seconds",
            "spans",
            "counters",
            "histograms",
        ];
        let mut last = 0;
        for key in order {
            let pos = j.find(&format!("\"{key}\"")).unwrap_or(usize::MAX);
            assert!(pos != usize::MAX, "missing {key} in {j}");
            assert!(pos >= last, "{key} out of order in {j}");
            last = pos;
        }
        assert!(j.contains("\"stage.mgl\""));
        assert!(j.contains("\"mgl.windows_evaluated\":7"));
        let s = r.summary();
        assert!(s.contains("demo"));
        assert!(s.contains("placed_in_window"));
    }
}
