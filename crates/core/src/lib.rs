//! ANNA — the Approximate Nearest Neighbor search Accelerator model
//! (reproduction of Lee et al., HPCA 2022).
//!
//! This crate is the paper's primary contribution rebuilt in Rust:
//!
//! * [`config`] — the accelerator's design parameters (`N_cu`, `N_SCM`,
//!   `N_u`, clock, memory bandwidth, buffer sizes; Section V-A defaults).
//! * [`pheap`] — the P-heap hardware top-k unit (Section III-B(4)), both
//!   functional and metered.
//! * [`timing`] — workload shapes and timing/traffic/activity reports.
//! * [`engine::analytic`] — closed-form cycle counts implementing the
//!   paper's formulas (Sections III-B, IV-B).
//! * [`engine::cycle`] — an event-driven per-module simulation with double
//!   buffering and a serializing memory channel, cross-validated against
//!   the analytic engine; its scan windows also attribute every
//!   scan-phase cycle to SCM-busy / LUT-wait / data-wait / drain
//!   ([`engine::cycle::StallBreakdown`]).
//! * the shared plan layer (`anna-plan`, re-exported as [`plan`]) — the
//!   memory-traffic-optimization scheduler (Section IV): cluster-major
//!   rounds, inter-/intra-query SCM allocation, and the [`TrafficModel`]
//!   that prices a plan in bytes before execution.
//! * [`energy`] — the Table I area/power model and activity-based energy
//!   accounting (Figure 10's inputs).
//! * [`accel`] — the one functional datapath and Section IV schedule,
//!   and [`Anna`]: that datapath bound to a real
//!   [`anna_index::IvfPqIndex`], producing hardware-faithful results
//!   (f16 LUTs, P-heap selection, spill/fill) together with timing.
//! * [`device`] — [`device::Device`]: the same datapath over a
//!   byte-accurate DRAM image laid out by [`host`].
//!
//! # Quick start
//!
//! ```
//! use anna_core::{Anna, AnnaConfig};
//! use anna_index::{IvfPqConfig, IvfPqIndex};
//! use anna_vector::{Metric, VectorSet};
//!
//! // Build a small index and run a hardware-faithful search.
//! let data = VectorSet::from_fn(16, 1000, |r, c| ((r * 13 + c * 7) % 31) as f32);
//! let index = IvfPqIndex::build(&data, &IvfPqConfig {
//!     metric: Metric::L2, num_clusters: 16, m: 8, kstar: 16,
//!     ..IvfPqConfig::default()
//! });
//! let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
//! let (hits, timing) = anna.search(data.row(0), 4, 10);
//! assert_eq!(hits.len(), 10);
//! println!("latency: {:.1} us", timing.latency_seconds(anna.config()) * 1e6);
//! ```

#![deny(missing_docs)]

pub mod accel;
pub mod config;
pub mod device;
pub mod energy;
pub mod engine;
pub mod host;
pub mod modules;
pub mod pheap;
pub mod timing;

pub use accel::{scale_out, scale_out_qps, Anna, ScaleOutReport};
pub use anna_plan as plan;
pub use anna_plan::{BatchPlan, PlanParams, Round, ScmAllocation, TrafficModel};
pub use config::{AnnaConfig, ValidateConfigError};
pub use energy::AreaPowerModel;
pub use pheap::PHeap;
pub use timing::{
    Activity, BatchWorkload, Bound, QueryWorkload, SearchShape, TimingReport, TrafficReport,
};
