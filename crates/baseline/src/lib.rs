//! CPU and GPU baselines for the ANNA reproduction.
//!
//! The paper measures Faiss and ScaNN on an 8-core Skylake-X and Faiss on
//! an NVIDIA V100 (Section V-A). Neither binary nor machine is available
//! here, so this crate provides (see DESIGN.md, substitutions 2/3/5):
//!
//! * [`cpu`] — an analytic model of the Skylake-X baselines (kernel
//!   rates in [`CpuModel::rates`], Skylake-X defaults in
//!   [`CpuKernelRates::skylake`]). It encodes the paper's
//!   Section II-D findings: memory-bandwidth-bound streaming of encoded
//!   vectors, the register-resident 16-entry LUT advantage of
//!   Faiss16/ScaNN16, the table-in-L1 penalty of Faiss256, and Faiss16's
//!   batched (cluster-major) reuse schedule.
//! * [`gpu`] — an occupancy/roofline model of Faiss256 on the V100 (900
//!   GB/s, 96 KB shared memory per SM limiting residency to 3 thread
//!   blocks, and a low-parallelism top-k kernel).
//! * [`exhaustive`] — analytic exact-search throughput (the three
//!   footnote numbers under each Figure 8 plot).
//! * [`power`] — the measured average powers the paper reports, used to
//!   convert model runtimes to energy for Figure 10.

#![deny(missing_docs)]

pub mod cpu;
pub mod exhaustive;
pub mod gpu;

/// Measured average powers from the paper (Section V-C), in watts.
pub mod power {
    /// CPU package power running ScaNN (RAPL).
    pub const CPU_SCANN_W: f64 = 116.0;
    /// CPU package power running Faiss (RAPL).
    pub const CPU_FAISS_W: f64 = 139.0;
    /// GPU board power running Faiss (nvprof).
    pub const GPU_W: f64 = 151.8;
}

pub use cpu::{CpuKernelRates, CpuModel, CpuSchedule};
pub use gpu::GpuModel;
