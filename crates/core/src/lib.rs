//! # mcl-core — the three-stage mixed-cell-height legalizer
//!
//! Reproduction of Li et al., "Routability-Driven and Fence-Aware
//! Legalization for Mixed-Cell-Height Circuits" (DAC 2018):
//!
//! 1. **MGL** ([`mgl`], [`scheduler`]): window-based sequential insertion
//!    minimizing displacement from *global placement* positions via
//!    piecewise-linear displacement curves ([`curve`]).
//! 2. **Max-displacement matching** ([`maxdisp`]): per (type × fence)
//!    min-cost bipartite matching under the convex `φ` of Eq. 3.
//! 3. **Fixed row & order refinement** ([`fixed_order`]): the LP of Eq. 4/8
//!    solved through its dual min-cost flow with positions recovered from
//!    network-simplex potentials.
//!
//! Entry point: [`Engine::run_jobs`], which runs a [`RunSpec`] over a
//! stream of [`Job`]s and reports each as it finishes; [`Engine::run`] (a
//! batch of designs) and [`Engine::run_one`] (a batch of one) adapt it.

#![forbid(unsafe_code)]

pub mod config;
pub mod curve;
pub mod dirty;
pub mod engine;
pub mod error;
pub mod faultinject;
pub mod fixed_order;
pub mod insertion;
pub mod insertion_reference;
pub mod legalizer;
pub mod maxdisp;
pub mod mgl;
pub mod pipeline;
pub mod report;
pub mod routability;
pub mod scheduler;
pub mod spatial;
pub mod state;

pub use config::{CellOrder, DisplacementReference, LegalizerConfig, WeightMode};
pub use dirty::DirtyClosure;
pub use engine::{Engine, EngineDiag, Job, RunOutput, RunSpec};
pub use error::{Degradation, FailureClass, FailureRecord, LegalizeError};
pub use faultinject::{FaultPlan, FaultSite};
pub use legalizer::{EcoSession, LegalizeStats};
pub use pipeline::{Stage, StageSet, StageTiming};
pub use report::{build_run_report, run_report_measured};
pub use spatial::HierGrid;
pub use state::{CellSoA, PlaceError, PlacementState};
