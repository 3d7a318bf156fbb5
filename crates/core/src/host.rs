//! Host-side interface: the device memory layout.
//!
//! Section III-A: "a host device first needs to i) configure ANNA by
//! sending a search configuration and ii) place the set of necessary data
//! structures in ANNA main memory (centroids C and encoded vectors) and
//! ANNA's on-chip SRAM (codebook B). Then, the host sends a search command
//! to ANNA with a query or a batch of queries as well as the number of
//! similar vectors (top-k) to search for."
//!
//! [`MemoryLayout`] plans the device DRAM image for an index —
//! centroids, per-cluster metadata (start address + size, as the EFM's
//! metadata reader expects), the packed code regions, the query-list
//! arrays of the traffic optimization (Section IV-A), the intermediate
//! top-k spill area, and the result region. The command sequence itself
//! is [`crate::device::Device::boot`] followed by its searches.

use anna_index::IvfPqIndex;
use serde::Serialize;

use crate::config::AnnaConfig;

/// Alignment of every device allocation (one memory line).
pub const LINE_BYTES: u64 = 64;

fn align_up(addr: u64) -> u64 {
    addr.div_ceil(LINE_BYTES) * LINE_BYTES
}

/// One region of device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Region {
    /// Start address (64 B aligned).
    pub base: u64,
    /// Size in bytes.
    pub bytes: u64,
}

impl Region {
    /// Exclusive end address.
    pub fn end(&self) -> u64 {
        self.base + self.bytes
    }

    /// Whether two regions overlap.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

/// Per-cluster metadata as the EFM reads it: "the start address for the
/// data within the cluster and the size of the cluster" (Section III-B(2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClusterMeta {
    /// Device address of the cluster's packed codes.
    pub code_base: u64,
    /// Number of encoded vectors in the cluster.
    pub num_vectors: u64,
}

/// The planned device-DRAM image for one index plus run-time scratch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MemoryLayout {
    /// Centroid matrix (2-byte elements, row-major).
    pub centroids: Region,
    /// Cluster metadata table (one 64 B line per cluster).
    pub cluster_meta: Region,
    /// Packed encoded vectors, cluster by cluster.
    pub codes: Region,
    /// Per-cluster query-list arrays (Section IV-A), sized for a batch.
    pub query_lists: Region,
    /// Intermediate top-k spill area (one record set per query).
    pub topk_spill: Region,
    /// Result region (top-k records per query).
    pub results: Region,
    /// Per-cluster metadata entries.
    pub meta: Vec<ClusterMeta>,
    /// Codebook bytes the host must load into the on-chip SRAM (not DRAM).
    pub codebook_sram_bytes: u64,
}

impl MemoryLayout {
    /// Plans the layout for `index`, sized for batches of up to
    /// `max_batch` queries at `w` clusters per query.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or `w == 0`.
    pub fn plan(cfg: &AnnaConfig, index: &IvfPqIndex, max_batch: usize, w: usize) -> Self {
        assert!(max_batch > 0 && w > 0, "degenerate batch plan");
        struct Alloc {
            cursor: u64,
        }
        impl Alloc {
            fn take(&mut self, bytes: u64) -> Region {
                let base = align_up(self.cursor);
                self.cursor = base + bytes;
                Region { base, bytes }
            }
        }
        let mut alloc = Alloc { cursor: 0 };

        let d = index.dim() as u64;
        let c = index.num_clusters() as u64;
        let centroids = alloc.take(2 * d * c);
        let cluster_meta = alloc.take(LINE_BYTES * c);

        // Codes: contiguous per cluster, each cluster line-aligned so the
        // EFM's streaming fetch starts on a line boundary.
        let mut meta = Vec::with_capacity(index.num_clusters());
        let codes_base = align_up(alloc.cursor);
        for i in 0..index.num_clusters() {
            let cl = index.cluster(i);
            let r = alloc.take(cl.encoded_bytes());
            meta.push(ClusterMeta {
                code_base: r.base,
                num_vectors: cl.len() as u64,
            });
        }
        let codes = Region {
            base: codes_base,
            bytes: align_up(alloc.cursor) - codes_base,
        };

        // Query lists: worst case every query lists every of its W picks
        // in one cluster's array -> B*W ids of 3 B, plus the on-chip SRAM
        // pointer table is per-cluster (not in DRAM).
        let query_lists = alloc.take(3 * (max_batch as u64) * (w as u64));
        let topk_spill = alloc.take(
            (max_batch as u64)
                * (cfg.topk as u64)
                * (cfg.topk_record_bytes as u64)
                * cfg.n_scm as u64,
        );
        let results =
            alloc.take((max_batch as u64) * (cfg.topk as u64) * cfg.topk_record_bytes as u64);

        Self {
            centroids,
            cluster_meta,
            codes,
            query_lists,
            topk_spill,
            results,
            meta,
            codebook_sram_bytes: index.codebook().storage_bytes() as u64,
        }
    }

    /// All DRAM regions in layout order.
    pub fn regions(&self) -> [Region; 6] {
        [
            self.centroids,
            self.cluster_meta,
            self.codes,
            self.query_lists,
            self.topk_spill,
            self.results,
        ]
    }

    /// Total device-DRAM footprint in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.regions().iter().map(|r| r.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_index::IvfPqConfig;
    use anna_vector::{Metric, VectorSet};

    fn index() -> IvfPqIndex {
        let data = VectorSet::from_fn(8, 500, |r, c| ((r * 13 + c * 5) % 23) as f32);
        IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric: Metric::L2,
                num_clusters: 8,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        )
    }

    #[test]
    fn regions_are_aligned_and_disjoint() {
        let idx = index();
        let layout = MemoryLayout::plan(&AnnaConfig::paper(), &idx, 64, 8);
        let regions = layout.regions();
        for r in &regions {
            assert_eq!(r.base % LINE_BYTES, 0, "region not line-aligned");
        }
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                assert!(
                    !regions[i].overlaps(&regions[j]),
                    "regions {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn cluster_meta_addresses_are_consistent() {
        let idx = index();
        let layout = MemoryLayout::plan(&AnnaConfig::paper(), &idx, 16, 4);
        assert_eq!(layout.meta.len(), idx.num_clusters());
        for (i, m) in layout.meta.iter().enumerate() {
            assert!(m.code_base >= layout.codes.base);
            assert!(m.code_base + idx.cluster(i).encoded_bytes() <= layout.codes.end());
            assert_eq!(m.num_vectors, idx.cluster(i).len() as u64);
            assert_eq!(m.code_base % LINE_BYTES, 0, "cluster {i} not aligned");
        }
        // Clusters must not overlap each other.
        let mut spans: Vec<(u64, u64)> = layout
            .meta
            .iter()
            .enumerate()
            .map(|(i, m)| (m.code_base, m.code_base + idx.cluster(i).encoded_bytes()))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "cluster code regions overlap");
        }
    }

    #[test]
    fn centroid_region_matches_2dc() {
        let idx = index();
        let layout = MemoryLayout::plan(&AnnaConfig::paper(), &idx, 16, 4);
        assert_eq!(layout.centroids.bytes, 2 * 8 * 8);
        assert_eq!(
            layout.codebook_sram_bytes,
            idx.codebook().storage_bytes() as u64
        );
    }

    #[test]
    fn spill_area_scales_with_batch_and_scms() {
        let idx = index();
        let cfg = AnnaConfig::paper();
        let small = MemoryLayout::plan(&cfg, &idx, 10, 4);
        let large = MemoryLayout::plan(&cfg, &idx, 100, 4);
        assert_eq!(large.topk_spill.bytes, 10 * small.topk_spill.bytes);
        assert_eq!(small.topk_spill.bytes, 10 * 1000 * 5 * 16);
    }

    #[test]
    fn total_footprint_is_sum_of_regions() {
        let idx = index();
        let layout = MemoryLayout::plan(&AnnaConfig::paper(), &idx, 16, 4);
        assert_eq!(
            layout.total_bytes(),
            layout.regions().iter().map(|r| r.bytes).sum::<u64>()
        );
        assert!(layout.total_bytes() > 0);
    }
}
