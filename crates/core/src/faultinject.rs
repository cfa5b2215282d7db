//! Deterministic fault-injection harness.
//!
//! A [`FaultPlan`] is a set of armed [`FaultSite`]s with per-site fire
//! budgets. Sites are keyed by *semantic identity* (cell id, stage name),
//! never by invocation order, thread id, wall clock or RNG state, so a
//! plan fires at exactly the same algorithmic points regardless of thread
//! count — the property the chaos suite leans on to assert bit-identical
//! containment behavior at 1/2/4 threads.
//!
//! The harness is always compiled in. Production configs carry no plan
//! (`LegalizerConfig::faults` is `None`), so every probe is a `None`-check.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Fire budget meaning "every time" (never decremented to zero).
pub const PERSISTENT: u32 = u32::MAX;

/// A semantic point in the pipeline where a fault can be injected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSite {
    /// Panic inside the insertion evaluation of one cell (runner or
    /// helper, whichever evaluates it — the outcome is identical).
    MglEval {
        /// Cell id whose evaluation panics.
        cell: u32,
    },
    /// Panic while committing one cell's accepted insertion, after some
    /// sibling moves may already be staged — the nastiest partial-mutation
    /// spot in the pipeline.
    MglApply {
        /// Cell id whose commit panics.
        cell: u32,
    },
    /// Panic at the entry of a whole stage.
    StagePanic {
        /// Stage name (`"mgl"`, `"maxdisp"`, `"fixed_order"`).
        stage: &'static str,
    },
    /// Force the stage-boundary deadline check to report expiry without
    /// waiting for wall-clock time to pass.
    StageDeadline {
        /// Stage name.
        stage: &'static str,
    },
    /// Simulate an allocation failure at stage entry (surfaces as
    /// `LegalizeError::ResourceExhausted`).
    StageAlloc {
        /// Stage name.
        stage: &'static str,
    },
    /// Server layer (`mcl-serve`): force the admission decision to lose a
    /// capacity race — the job is rejected with `RETRY_AFTER` even though
    /// the queue had room when the client observed it.
    ServeAdmission,
    /// Server layer: the client connection drops after the job is accepted
    /// but before the final response line is written. The job must still
    /// complete, journal `DONE` and persist its report.
    ServeDisconnect,
    /// Server layer: the write-ahead journal append fails at admission.
    /// The daemon must fail the job closed (classed response, no enqueue)
    /// rather than run work it could not record.
    ServeJournal,
}

struct Arm {
    site: FaultSite,
    remaining: AtomicU32,
}

/// A deterministic set of armed fault sites, shared by every thread of a
/// run via `Arc` so fire budgets are decremented exactly once per fire no
/// matter which thread hits the site.
#[derive(Default)]
pub struct FaultPlan {
    /// When set, the plan only fires for the design with this name —
    /// the lever batch chaos tests use to poison one job out of four.
    design: Option<String>,
    arms: Vec<Arm>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("design", &self.design)
            .field("arms", &self.arms.len())
            .finish()
    }
}

/// Plans are compared by identity: two configs are "equal" only when they
/// share the same plan instance (fire budgets are mutable state, so value
/// equality would be meaningless).
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl FaultPlan {
    /// An empty plan (fires nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Restrict the plan to one design by name; probes from any other
    /// design never fire. Returns `self` for chaining.
    #[must_use]
    pub fn for_design(mut self, name: &str) -> Self {
        self.design = Some(name.to_string());
        self
    }

    /// Arm `site` to fire `times` times ([`PERSISTENT`] = every probe).
    #[must_use]
    pub fn arm(mut self, site: FaultSite, times: u32) -> Self {
        self.arms.push(Arm {
            site,
            remaining: AtomicU32::new(times),
        });
        self
    }

    /// Arm `site` to fire exactly once.
    #[must_use]
    pub fn arm_once(self, site: FaultSite) -> Self {
        self.arm(site, 1)
    }

    /// Arm `site` to fire on every probe.
    #[must_use]
    pub fn arm_persistent(self, site: FaultSite) -> Self {
        self.arm(site, PERSISTENT)
    }

    /// Wraps the plan for [`crate::LegalizerConfig::faults`].
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }
}

impl FaultPlan {
    /// Probes the plan: returns `true` (consuming one unit of the site's
    /// budget, unless persistent) when `site` is armed for `design`.
    pub fn fires(&self, design: &str, site: &FaultSite) -> bool {
        if let Some(d) = &self.design {
            if d != design {
                return false;
            }
        }
        for arm in &self.arms {
            if arm.site == *site {
                let fired = arm
                    .remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| match v {
                        0 => None,
                        PERSISTENT => Some(PERSISTENT),
                        n => Some(n - 1),
                    })
                    .is_ok();
                if fired {
                    return true;
                }
            }
        }
        false
    }
}

/// Probes an optional shared plan; the `None` fast path is one branch.
pub(crate) fn fires(plan: Option<&Arc<FaultPlan>>, design: &str, site: &FaultSite) -> bool {
    match plan {
        Some(p) => p.fires(design, site),
        None => false,
    }
}

/// Panics with the canonical deterministic message for an injected fault.
/// Kept as one function so chaos assertions can match the prefix.
pub(crate) fn injected_panic(site: &FaultSite) -> ! {
    panic!("injected fault at {site:?}")
}

/// Deterministically corrupts a Bookshelf (or any line-oriented) text
/// bundle for parser-fault tests: the middle line is replaced by
/// unparsable garbage. No RNG — same input, same corruption.
pub fn corrupt_text(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return "%%corrupted%%".to_string();
    }
    let mid = lines.len() / 2;
    let mut out = String::with_capacity(text.len() + 16);
    for (i, line) in lines.iter().enumerate() {
        if i == mid {
            out.push_str("%%corrupted line : : :%%");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_budget_is_consumed() {
        let p = FaultPlan::new().arm_once(FaultSite::MglEval { cell: 3 });
        let site = FaultSite::MglEval { cell: 3 };
        assert!(p.fires("d", &site));
        assert!(!p.fires("d", &site));
        assert!(!p.fires("d", &FaultSite::MglEval { cell: 4 }));
    }

    #[test]
    fn persistent_never_exhausts() {
        let p = FaultPlan::new().arm_persistent(FaultSite::StagePanic { stage: "mgl" });
        let site = FaultSite::StagePanic { stage: "mgl" };
        for _ in 0..100 {
            assert!(p.fires("d", &site));
        }
    }

    #[test]
    fn design_filter_gates_fires() {
        let p = FaultPlan::new()
            .for_design("victim")
            .arm_persistent(FaultSite::StagePanic { stage: "mgl" });
        let site = FaultSite::StagePanic { stage: "mgl" };
        assert!(!p.fires("bystander", &site));
        assert!(p.fires("victim", &site));
    }

    #[test]
    fn corruption_is_deterministic_and_corrupting() {
        let text = "a 1\nb 2\nc 3\n";
        let c1 = corrupt_text(text);
        let c2 = corrupt_text(text);
        assert_eq!(c1, c2);
        assert_ne!(c1, text);
        assert!(c1.contains("%%corrupted"));
    }
}
