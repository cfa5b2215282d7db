//! Monotonic timing. This module is the one place in the workspace allowed
//! to call `std::time::Instant::now()` (enforced by the `instant-now` rule
//! of `cargo xtask analyze`); everything else times through [`Stopwatch`].
//!
//! The clock is *not* feature-gated: always-on wall times (e.g.
//! `mcl-core`'s per-stage `stage_seconds`) need real readings even in
//! builds with metrics compiled out.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_nonnegative() {
        let t = Stopwatch::start();
        let a = t.elapsed_nanos();
        let b = t.elapsed_nanos();
        assert!(b >= a);
        assert!(t.elapsed_seconds() >= 0.0);
    }
}
