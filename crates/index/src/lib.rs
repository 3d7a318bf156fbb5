//! Two-level product-quantization ANNS (IVF-PQ) — the software side of the
//! ANNA reproduction.
//!
//! This crate implements the complete search pipeline of Section II-C:
//!
//! 1. **Cluster filtering** — compute `s(q, c)` for every coarse centroid
//!    and keep the `W` most similar clusters.
//! 2. **Lookup-table construction** — memoize `q_i·B_i[·]` (inner product)
//!    or `-‖(q_i − c_i) − B_i[·]‖²` (L2, rebuilt per cluster) — see
//!    [`lut::Lut`].
//! 3. **Similarity computation** — for each encoded vector in the selected
//!    clusters, sum `M` table lookups and feed the score to a top-k
//!    selector — see [`kernels`].
//!
//! Two execution schedules are provided, matching the two sides of the
//! paper's Figure 5:
//!
//! * [`IvfPqIndex::search`] — conventional query-at-a-time execution, and
//!   the oracle every batch engine is checked against
//!   ([`IvfPqIndex::search_two_phase`] is its two-phase reference twin).
//! * [`batched::BatchedScan`] — cluster-major batched execution in which
//!   each cluster's codes are read once per batch (the software analogue of
//!   ANNA's memory-traffic optimization, and of Faiss16's CPU schedule,
//!   which the paper notes "processes queries in a way that is similar to
//!   ANNA memory traffic optimization"). The batched path executes a
//!   shared `anna_plan::BatchPlan` on a deterministic worker pool
//!   ([`parallel`] — the one round loop every engine here, sharded and
//!   tiered included, feeds its plan to): results are bit-identical for
//!   any thread count.
//!
//! Measured on the host, this crate *is* the reproduction's CPU baseline
//! (substituting for Faiss/ScaNN binaries; see DESIGN.md).
//!
//! A batch is planned, priced and run one way: the
//! `anna_engine::SearchEngine` pipeline (`query_scope → plan → price →
//! execute → verify`) that [`BatchedScan`] and [`ShardedIndex`] implement
//! (see [`engines`]), so the serving layer and benches drive either
//! without naming the concrete type. The inherent surface under it is
//! small: [`BatchedScan::run_plan`] (the executor, also fed accelerator
//! tilings and f16 tables), [`BatchedScan::workload`] (the bridge to
//! `anna_plan::plan` and the timing engines), [`BatchedScan::run`] (the
//! all-cores convenience wrapper) and [`ShardedIndex::run_plan`] (the
//! sharded executor, with an error channel).
//!
//! # Example
//!
//! ```
//! use anna_index::{IvfPqConfig, IvfPqIndex, SearchParams};
//! use anna_vector::{Metric, VectorSet};
//!
//! let data = VectorSet::from_fn(8, 512, |r, c| ((r * 31 + c * 7) % 29) as f32);
//! let config = IvfPqConfig {
//!     metric: Metric::L2,
//!     num_clusters: 16,
//!     m: 4,
//!     kstar: 16,
//!     ..IvfPqConfig::default()
//! };
//! let index = IvfPqIndex::build(&data, &config);
//! let hits = index.search(data.row(42), &SearchParams { nprobe: 4, k: 5, ..Default::default() });
//! assert_eq!(hits.len(), 5);
//! assert!(hits[0].score >= hits[4].score); // best first
//! ```

#![deny(missing_docs)]

pub mod batched;
pub mod engines;
pub mod io;
pub mod ivf;
pub mod kernels;
pub mod lut;
pub mod parallel;
pub mod rerank;
pub mod shard;
pub mod tiered;

pub use batched::{BatchStats, BatchedScan};
pub use io::{read_index, read_segment_hot, write_index, write_segment, SegmentEntry, SegmentHot};
pub use ivf::{IndexStats, IvfPqConfig, IvfPqIndex, Trainer};
pub use kernels::{KernelDispatch, ScanScratch, ScanTally};
pub use lut::{Lut, LutPrecision};
pub use parallel::resolve_threads;
pub use rerank::{RerankController, RungMeasurement};
pub use shard::{ShardedIndex, ShardedStats};
pub use tiered::{FetchedCluster, TieredIndex};

// The crossbar tiling moved into the shared plan layer (`anna-plan`);
// re-exported here so software-side callers keep one import path.
pub use anna_plan::{crossbar_tiles, ClusterTile};
// The two-phase policy types live in the plan layer (the stage is part of
// the plan IR); re-exported for the same single-import ergonomics.
pub use anna_plan::{RerankMode, RerankPolicy, RerankPrecision, RerankQuery, RerankStage};

use serde::{Deserialize, Serialize};

/// Per-query search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchParams {
    /// Number of clusters to inspect, `W` (the paper's recall/throughput
    /// knob in Figure 8).
    pub nprobe: usize,
    /// Number of candidates to return (the paper uses `k = 1000`).
    pub k: usize,
    /// Numeric precision of lookup-table entries. [`LutPrecision::F16`]
    /// replicates ANNA's 2-byte SRAM entries; [`LutPrecision::F32`] is what
    /// CPU implementations use.
    pub lut_precision: LutPrecision,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            nprobe: 8,
            k: 10,
            lut_precision: LutPrecision::F32,
        }
    }
}
