//! Lightweight performance instrumentation for MGL runs.
//!
//! All fields are integers (nanoseconds or event counts) so the containing
//! [`crate::mgl::MglStats`] can stay `Eq`-comparable; note that `MglStats`
//! equality deliberately ignores these timings (two runs with identical
//! placements but different wall-clock are equal).

use crate::insertion::ScratchStats;

/// Per-stage wall-clock and throughput counters of one MGL run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfStats {
    /// Scheduler rounds executed: one per select/evaluate/apply cycle.
    pub rounds: u64,
    /// Windows evaluated (`best_insertion` calls, including re-evaluations
    /// of expanded windows).
    pub windows_evaluated: u64,
    /// Wall-clock nanoseconds spent selecting non-overlapping windows.
    pub select_nanos: u64,
    /// Wall-clock nanoseconds of the evaluate phase (as seen by the
    /// runner, i.e. elapsed time, not CPU time).
    pub eval_nanos: u64,
    /// CPU nanoseconds spent inside insertion evaluation, summed over the
    /// runner and its helpers (≥ `eval_nanos` when parallelism is
    /// effective).
    pub eval_cpu_nanos: u64,
    /// Wall-clock nanoseconds applying winning insertions.
    pub apply_nanos: u64,
    /// Wall-clock nanoseconds in the whole-design fallback scan.
    pub fallback_nanos: u64,
    /// Wall-clock nanoseconds of the full MGL run.
    pub total_nanos: u64,
    /// Merged hot-path counters from every worker's insertion scratch.
    pub scratch: ScratchStats,
}

impl PerfStats {
    /// Windows evaluated per second of total wall-clock (0 when untimed).
    pub fn windows_per_sec(&self) -> f64 {
        if self.total_nanos == 0 {
            return 0.0;
        }
        self.windows_evaluated as f64 / (self.total_nanos as f64 / 1e9)
    }

    /// Effective evaluation parallelism: CPU time / wall time of the
    /// evaluate phase (≈ thread count when scaling is perfect).
    pub fn eval_parallelism(&self) -> f64 {
        if self.eval_nanos == 0 {
            return 0.0;
        }
        self.eval_cpu_nanos as f64 / self.eval_nanos as f64
    }

    /// Share of candidate slot tuples skipped by the dedup set.
    pub fn dedup_hit_rate(&self) -> f64 {
        let total = self.scratch.anchors;
        if total == 0 {
            return 0.0;
        }
        self.scratch.dedup_hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let mut p = PerfStats {
            windows_evaluated: 500,
            total_nanos: 2_000_000_000,
            eval_nanos: 1_000_000_000,
            eval_cpu_nanos: 3_500_000_000,
            ..Default::default()
        };
        p.scratch.anchors = 100;
        p.scratch.dedup_hits = 25;
        assert!((p.windows_per_sec() - 250.0).abs() < 1e-9);
        assert!((p.eval_parallelism() - 3.5).abs() < 1e-9);
        assert!((p.dedup_hit_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_safe() {
        let p = PerfStats::default();
        assert_eq!(p.windows_per_sec(), 0.0);
        assert_eq!(p.eval_parallelism(), 0.0);
        assert_eq!(p.dedup_hit_rate(), 0.0);
    }
}
