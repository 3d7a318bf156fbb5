//! Online serving layer for the ANNA reproduction: an
//! admission-controlled request queue with a deterministic dynamic
//! micro-batcher in front of any `anna_engine::SearchEngine`.
//!
//! The paper evaluates ANNA on fixed offline batches; a deployed ANNS
//! service receives an *open-loop stream* of heterogeneous requests (each
//! with its own `k`, `nprobe`, and latency deadline) and must trade
//! per-request latency against the batch sizes that make the cluster-major
//! schedule (Section IV) pay off. This crate closes that gap in three
//! layers:
//!
//! * [`Request`] / [`Outcome`] ([`request`]) — one arriving search and the
//!   explicit decision it ends in: completed, shed at admission
//!   (backpressure), or timed out in the queue.
//! * [`compose`] ([`batcher`]) — the deterministic micro-batcher. Windows
//!   close on *max-wait deadline or size threshold*; at each close the
//!   candidate batch shapes are planned and priced byte-exactly through
//!   the engine's `SearchEngine` pipeline and the cheapest
//!   bytes-per-query shape is committed as a [`PlannedBatch`]. All
//!   decisions are integer arithmetic on a virtual clock: the same seeded
//!   arrival trace always composes the same [`BatchSchedule`] — the
//!   property harness asserts replay-identical batch compositions.
//! * [`execute`] ([`server`]) — dispatches each planned batch through
//!   `SearchEngine::execute`, checks measured traffic against the
//!   prediction *exactly* via `SearchEngine::verify` (the workspace's
//!   standing predicted == measured invariant), and reports end-to-end
//!   latency as virtual queue wait plus measured service time, with
//!   p50/p95/p99 from [`anna_telemetry::Histogram`]s.
//!
//! Two-phase serving: setting [`ServeConfig::rerank`] composes every
//! batch as an over-fetch + re-rank pipeline — the batcher prices the
//! plan's [`anna_plan::RerankStage`] bytes (candidate records + vector
//! fetches) into its shape quotes and deadline predictions, and
//! [`execute`] (given the full-precision vectors) verifies them against
//! the measured stats component for component.
//!
//! The open-loop serving curve is the repo benchmark's `serve_poisson`
//! workload (`benchmark/`): a seeded Poisson trace through [`compose`] and
//! [`execute`], reporting latency quantiles, shedding and deadlines.

#![deny(missing_docs)]

pub mod batcher;
pub mod request;
pub mod server;

pub use batcher::{
    compose, Admission, BatchSchedule, PlannedBatch, ServeConfig, ShapeQuote, TierPricing,
};
pub use request::{Outcome, Request};
pub use server::{execute, BatchReport, LatencySummary, ServeReport};
