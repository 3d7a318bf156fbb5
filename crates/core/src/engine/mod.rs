//! Timing engines.
//!
//! * [`analytic`] — closed-form cycle counts from the paper's formulas
//!   (fast; used for parameter sweeps).
//! * [`cycle`] — event-driven, per-module simulation with explicit double
//!   buffering and a serializing memory channel; the only engine that
//!   moves data through time, so it also owns the per-round timeline and
//!   the stall attribution ([`cycle::StallBreakdown`]) used to locate
//!   bottlenecks.
//!
//! The two are cross-validated in tests.

pub mod analytic;
pub mod cycle;
