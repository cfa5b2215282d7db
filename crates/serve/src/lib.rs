//! `mclegal serve`: a fault-contained legalization daemon.
//!
//! A persistent service over a local TCP socket speaking newline-delimited
//! JSON (one request object per line, one-or-two response objects per
//! request; no HTTP, no dependencies). The daemon owns one
//! [`mcl_core::Engine`] whose runners pull admitted jobs straight off the
//! queue, each as soon as it is free, and answer each job the moment it
//! finishes; batch-mode invariants carry over: each job's outputs are
//! byte-identical to a solo run of the same design.
//!
//! The robustness contract (DESIGN.md §16):
//!
//! - **Admission control.** The queue of jobs waiting for a runner is
//!   bounded; past capacity the daemon answers `RETRY_AFTER` with a
//!   backoff hint instead of buffering without bound.
//! - **Deadline budgets.** A per-job `deadline_secs` tightens the
//!   engine's stage budget, riding the same degradation ladder as the
//!   CLI's `--stage-budget-secs` (degrade before failing).
//! - **Fault containment.** A job that panics, blows its ladder, or
//!   rejects its seed gets one classed failure response; the jobs running
//!   beside it complete and report byte-identically to solo runs.
//! - **Crash recovery.** Acceptances are journaled (write-ahead, fsynced)
//!   before the client sees them; a restart reports
//!   accepted-but-unfinished jobs as `INTERRUPTED` and sweeps partial
//!   report files.
//! - **Graceful drain.** SIGTERM or a `drain` request stops admission,
//!   finishes in-flight jobs, flushes reports, truncates the journal.
//!
//! Response statuses mirror the CLI exit codes — see [`wire`] for the
//! table and the full request vocabulary.

#![deny(unsafe_code)] // `forbid` would block the signal module's FFI opt-in.

pub mod journal;
pub mod json;
pub mod server;
pub mod signal;
pub mod wire;

pub use server::{Client, ServeConfig, Server};
pub use wire::Status;
