//! Monotonic timing. This module is the one place in the workspace allowed
//! to call `std::time::Instant::now()` (enforced by the `instant-now` rule
//! of `cargo xtask analyze`); everything else times through [`Stopwatch`].
//!
//! The clock ignores [`crate::set_recording`]: always-on wall times (e.g.
//! `mcl-core`'s per-stage `stage_seconds`) need real readings even with
//! recording switched off.

use std::time::Instant;

/// A started monotonic stopwatch.
///
/// ```
/// let t = mcl_obs::clock::Stopwatch::start();
/// let nanos = t.elapsed_nanos();
/// assert!(t.elapsed_seconds() >= 0.0);
/// let _ = nanos;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current monotonic instant.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds since start, saturating at `u64::MAX` (≈584
    /// years — effectively never).
    #[must_use]
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed seconds since start.
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// CPU time the calling thread has consumed so far, in nanoseconds: the
/// first field of `/proc/thread-self/schedstat`. `None` where that file
/// does not exist (a host without Linux procfs). It reads a file, so call
/// it at phase boundaries, never per item of work.
#[must_use]
pub fn thread_cpu_nanos() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_never_outruns_wall_time() {
        let Some(cpu0) = thread_cpu_nanos() else {
            return; // no per-thread CPU clock on this host
        };
        let t = Stopwatch::start();
        let mut x = 0u64;
        while t.elapsed_nanos() < 20_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let cpu = thread_cpu_nanos().expect("the clock read once") - cpu0;
        let wall = t.elapsed_nanos();
        assert!(cpu > 0, "a busy thread accrues CPU time");
        // The clock ticks at scheduler granularity: allow one tick of slack.
        assert!(cpu <= wall + 10_000_000, "cpu {cpu} ns over wall {wall} ns");
    }

    #[test]
    fn monotone_nonnegative() {
        let t = Stopwatch::start();
        let a = t.elapsed_nanos();
        let b = t.elapsed_nanos();
        assert!(b >= a);
        assert!(t.elapsed_seconds() >= 0.0);
    }
}
