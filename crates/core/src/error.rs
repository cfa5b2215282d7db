//! Typed failure taxonomy for the legalization pipeline.
//!
//! Every containable failure in the pipeline is described by a
//! [`LegalizeError`] carrying stage/window/cell provenance and a
//! [`FailureClass`] that tells the driver how to react:
//!
//! * [`FailureClass::Retryable`] — a transient per-cell failure (e.g. a
//!   panicked insertion evaluation). The scheduler retries it a bounded,
//!   deterministic number of times and quarantines the cell if it keeps
//!   failing.
//! * [`FailureClass::Degradable`] — the stage as a whole cannot complete,
//!   but a declared fallback rung exists (pooled MGL → inline MGL,
//!   maxdisp → skip with identity assignment, refine → skip). The driver
//!   undoes the placement back to the stage's replay-log mark and takes
//!   the rung; the rung taken is recorded as a [`Degradation`].
//! * [`FailureClass::Fatal`] — no rung is left (or a degraded result
//!   failed the clean-room audit); the job errors out as a whole. In a
//!   batch this stays per-job: other jobs are unaffected.
//!
//! See DESIGN.md §11 for the full failure model.

use std::fmt;

/// How the pipeline driver reacts to a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// Transient; retried deterministically, then quarantined.
    Retryable,
    /// Stage-level; a degradation-ladder rung absorbs it.
    Degradable,
    /// Unrecoverable for this job; surfaces as a per-job error.
    Fatal,
}

impl FailureClass {
    /// Stable lowercase label used in reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::Retryable => "retryable",
            FailureClass::Degradable => "degradable",
            FailureClass::Fatal => "fatal",
        }
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed pipeline failure with provenance.
///
/// `#[non_exhaustive]`: downstream matches must carry a wildcard arm so new
/// failure modes can be added without a breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LegalizeError {
    /// A stage body (or an injected fault standing in for one) panicked.
    /// The placement has been undone back to its pre-stage state.
    StagePanicked {
        /// Stage name (`"mgl"`, `"maxdisp"`, `"fixed_order"`).
        stage: &'static str,
        /// Redacted panic payload (message only).
        message: String,
    },
    /// A stage exceeded its wall-clock budget (or an injected deadline
    /// fault fired) before it started; the ladder decides what to skip.
    DeadlineExceeded {
        /// Stage name that was denied its slot.
        stage: &'static str,
        /// Budget that was exhausted, in seconds.
        budget_secs: f64,
    },
    /// A stage could not obtain the memory it needed (only reachable via
    /// the fault-injection harness today; a real allocator hook would land
    /// here too).
    ResourceExhausted {
        /// Stage name.
        stage: &'static str,
        /// What ran out.
        what: &'static str,
    },
    /// A cell's insertion evaluation kept failing after the deterministic
    /// retry budget and the cell was quarantined (left unplaced).
    CellQuarantined {
        /// Stage name (always `"mgl"` today).
        stage: &'static str,
        /// The quarantined cell.
        cell: u32,
        /// Number of retry attempts that were burned before giving up.
        retries: u32,
        /// Message of the last failure.
        message: String,
    },
    /// An MGL helper stopped answering (or died) mid-stage; the round loop
    /// cannot continue and the inline (`"serial"`) rung takes over.
    PoolBroken {
        /// What the runner was doing when the helper went away.
        during: &'static str,
    },
    /// A degraded (or repaired) result failed the clean-room legality
    /// audit: the pipeline must report an error, never claim success over
    /// an uncertified placement.
    AuditFailed {
        /// Stage name after which certification ran.
        stage: &'static str,
        /// Number of violations the auditor reported.
        violations: usize,
    },
    /// A batch job could not be seeded from its input design (ECO adoption
    /// of an illegal placement, etc.).
    SeedRejected {
        /// The offending cell, when known.
        cell: Option<u32>,
        /// Human-readable reason.
        message: String,
    },
}

impl LegalizeError {
    /// The [`FailureClass`] driving the containment reaction.
    pub fn class(&self) -> FailureClass {
        match self {
            LegalizeError::StagePanicked { .. }
            | LegalizeError::DeadlineExceeded { .. }
            | LegalizeError::ResourceExhausted { .. }
            | LegalizeError::PoolBroken { .. } => FailureClass::Degradable,
            LegalizeError::CellQuarantined { .. } => FailureClass::Retryable,
            LegalizeError::AuditFailed { .. } | LegalizeError::SeedRejected { .. } => {
                FailureClass::Fatal
            }
        }
    }

    /// The stage the failure is attributed to, when one applies.
    pub fn stage(&self) -> Option<&'static str> {
        match self {
            LegalizeError::StagePanicked { stage, .. }
            | LegalizeError::DeadlineExceeded { stage, .. }
            | LegalizeError::ResourceExhausted { stage, .. }
            | LegalizeError::CellQuarantined { stage, .. }
            | LegalizeError::AuditFailed { stage, .. } => Some(stage),
            LegalizeError::PoolBroken { .. } => Some("mgl"),
            LegalizeError::SeedRejected { .. } => None,
        }
    }

    /// Converts to the flat [`FailureRecord`] embedded in stats/reports.
    pub fn to_record(&self) -> FailureRecord {
        FailureRecord {
            stage: self.stage().unwrap_or("seed"),
            class: self.class(),
            message: self.to_string(),
        }
    }
}

impl fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalizeError::StagePanicked { stage, message } => {
                write!(f, "stage {stage} panicked: {message}")
            }
            LegalizeError::DeadlineExceeded { stage, budget_secs } => {
                write!(f, "stage {stage} missed its {budget_secs}s budget")
            }
            LegalizeError::ResourceExhausted { stage, what } => {
                write!(f, "stage {stage} exhausted {what}")
            }
            LegalizeError::CellQuarantined {
                stage,
                cell,
                retries,
                message,
            } => write!(
                f,
                "cell {cell} quarantined in {stage} after {retries} retries: {message}"
            ),
            LegalizeError::PoolBroken { during } => {
                write!(f, "MGL helpers broke during {during}")
            }
            LegalizeError::AuditFailed { stage, violations } => write!(
                f,
                "clean-room audit after {stage} found {violations} violations"
            ),
            LegalizeError::SeedRejected { cell, message } => match cell {
                Some(c) => write!(f, "seed rejected at cell {c}: {message}"),
                None => write!(f, "seed rejected: {message}"),
            },
        }
    }
}

impl std::error::Error for LegalizeError {}

/// Flat failure row carried in [`crate::LegalizeStats`] and serialized into
/// the RunReport `failures` array (schema v2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Stage name (`"seed"` for pre-pipeline failures).
    pub stage: &'static str,
    /// Containment class at the time the failure was recorded.
    pub class: FailureClass,
    /// Human-readable description (the `Display` of the source error).
    pub message: String,
}

/// One degradation-ladder rung taken by the driver, carried in
/// [`crate::LegalizeStats`] and the RunReport `degradations` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Stage the rung applies to.
    pub stage: &'static str,
    /// The rung taken: `"serial"` (MGL reran inline, without helpers;
    /// its output equals the fault-free run's) or `"skip"` (the stage was
    /// skipped; for maxdisp this is the identity assignment).
    pub rung: &'static str,
    /// Why the rung was taken (deadline, panic message, ...).
    pub reason: String,
}

/// Extracts a printable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_stable() {
        let e = LegalizeError::StagePanicked {
            stage: "mgl",
            message: "boom".into(),
        };
        assert_eq!(e.class(), FailureClass::Degradable);
        assert_eq!(e.stage(), Some("mgl"));
        let q = LegalizeError::CellQuarantined {
            stage: "mgl",
            cell: 7,
            retries: 1,
            message: "boom".into(),
        };
        assert_eq!(q.class(), FailureClass::Retryable);
        let a = LegalizeError::AuditFailed {
            stage: "maxdisp",
            violations: 3,
        };
        assert_eq!(a.class(), FailureClass::Fatal);
    }

    #[test]
    fn record_round_trip() {
        let e = LegalizeError::DeadlineExceeded {
            stage: "fixed_order",
            budget_secs: 0.5,
        };
        let r = e.to_record();
        assert_eq!(r.stage, "fixed_order");
        assert_eq!(r.class, FailureClass::Degradable);
        assert!(r.message.contains("budget"));
    }

    #[test]
    fn display_is_informative() {
        let e = LegalizeError::PoolBroken { during: "round" };
        assert_eq!(e.to_string(), "MGL helpers broke during round");
        assert_eq!(FailureClass::Fatal.label(), "fatal");
    }
}
