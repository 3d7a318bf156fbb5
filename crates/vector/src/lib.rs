//! Dense vector substrate for the ANNA reproduction.
//!
//! This crate provides the primitives every other crate in the workspace
//! builds on:
//!
//! * [`VectorSet`] — a row-major, contiguous `f32` matrix holding a set of
//!   equal-dimension vectors (a query batch, a database, a codebook, ...).
//! * [`Metric`] — the two similarity metrics the paper supports (inner
//!   product and negative squared L2 distance), plus the scalar kernels that
//!   evaluate them.
//! * [`F16`] (module [`mod@f16`]) — minimal IEEE 754 binary16 conversion used
//!   to model the accelerator's 2-byte on-chip number format.
//! * [`KernelDispatch`] — the one per-process decision which instruction
//!   set the runtime-dispatched kernels of every layer run on.
//! * [`TopK`] — a bounded selector that keeps the `k` highest-similarity
//!   candidates seen so far (the software analogue of ANNA's top-k unit).
//! * [`exact`] — exhaustive (exact) k-nearest-neighbor search, used both to
//!   compute ground truth for recall measurement and as the
//!   "exhaustive, exact nearest neighbor search" baseline quoted under each
//!   plot of Figure 8 in the paper.
//!
//! # Example
//!
//! ```
//! use anna_vector::{Metric, VectorSet, exact};
//!
//! // Three 4-dimensional database vectors and one query.
//! let db = VectorSet::from_rows(4, &[
//!     1.0, 0.0, 0.0, 0.0,
//!     0.0, 1.0, 0.0, 0.0,
//!     0.9, 0.1, 0.0, 0.0,
//! ]);
//! let queries = VectorSet::from_rows(4, &[1.0, 0.0, 0.0, 0.0]);
//! let hits = exact::search(&queries, &db, Metric::InnerProduct, 2);
//! assert_eq!(hits[0][0].id, 0); // the identical vector wins
//! assert_eq!(hits[0][1].id, 2); // the near-duplicate is second
//! ```

#![deny(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod avx512;
mod dispatch;
pub mod exact;
pub mod f16;
#[cfg(target_arch = "x86_64")]
mod f16c;
pub mod matrix;
pub mod metric;
pub mod topk;

pub use dispatch::KernelDispatch;
pub use f16::F16;
pub use matrix::VectorSet;
pub use metric::Metric;
pub use topk::{best_positions, sort_neighbors, Neighbor, TopK};
