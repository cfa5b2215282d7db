//! # mcl-obs — pipeline observability
//!
//! Zero-dependency structured tracing and metrics for the legalization
//! pipeline (DESIGN.md §9). Three layers:
//!
//! - [`clock`]: the workspace's **single sanctioned wall-clock site**
//!   ([`clock::Stopwatch`] wraps `std::time::Instant`). The `cargo xtask
//!   analyze` rule `instant-now` forbids `Instant` anywhere else in the
//!   workspace, the rest of this crate included, so all timing flows through
//!   here.
//! - [`Meter`]: typed span/counter/histogram aggregation. Hierarchical
//!   spans (run → stage → window → insertion-eval) carry monotonic nanos
//!   and a thread-attribution bitmask; counters and log₂ histograms cover
//!   the hot-path quantities (windows expanded, curve minimizations,
//!   matching pivots, per-cell displacement). Meters are plain values:
//!   workers record into local meters which are [`Meter::merge`]d
//!   deterministically at stage end — no atomics or locks touch the hot
//!   path, and recording never influences placement decisions, so replay
//!   logs stay bit-identical with spans on.
//! - [`report`]: the [`report::RunReport`] sink — schema-versioned,
//!   deterministic-field-order JSON plus a human summary.
//!
//! Recording is always compiled in. [`set_recording`] is the one off
//! switch: with recording off every Meter operation returns before touching
//! storage and reads return zeros.

#![forbid(unsafe_code)]

pub mod clock;
mod json;
mod meter;
pub mod report;

pub use json::JsonWriter;
pub use meter::{
    count_to_float, recording, set_recording, CounterKind, HistoKind, Histogram, Meter, SpanAgg,
    SpanKind,
};
