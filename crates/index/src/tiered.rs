//! Two-tier cluster storage: resident hot state over an on-demand,
//! cluster-granularity cached cold store.
//!
//! A [`TieredIndex`] opens a v2 segment file (see [`crate::io`]) and keeps
//! only the *hot* half resident — coarse centroids, PQ codebooks, and the
//! per-cluster block directory. Cold blocks (an inverted list's ids +
//! packed codes) are read from storage on demand, one cluster at a time,
//! through a [`ClusterCacheSim`]-governed cache:
//!
//! * **capacity** is in encoded-code bytes (the same unit the
//!   [`anna_plan::TrafficModel`] prices), so the cache the plan layer
//!   simulates and the cache this module runs are byte-for-byte the same
//!   machine;
//! * **admission** is by cumulative visit frequency — the cluster-major
//!   loop touches each fetched cluster once per batch with its full
//!   visitor count, so hot clusters accumulate weight naturally and a
//!   block is only admitted by evicting strictly colder blocks;
//! * every fetch outcome (hit / miss-admitted / miss-bypassed) is tallied
//!   in [`TierTraffic`] counters, split into bytes-from-cache vs
//!   bytes-from-storage.
//!
//! Because the runtime feeds the cache the *same* (cluster, bytes, visits)
//! sequence the plan layer's [`anna_plan::TrafficModel::price_tiered`]
//! feeds its simulated copy, predicted tier traffic equals measured tier
//! traffic exactly — the workspace invariant extended across the storage
//! boundary.

use crate::io::{read_segment_hot, SegmentHot};
use crate::ivf::Cluster;
use anna_plan::{ClusterCacheSim, FetchOutcome, TierTraffic};
use anna_quant::pq::PqCodebook;
use anna_vector::{Metric, VectorSet};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One cluster fetch through the tier: the block plus where it came from.
#[derive(Debug, Clone)]
pub struct FetchedCluster {
    /// The cluster's inverted list (ids + packed codes).
    pub cluster: Arc<Cluster>,
    /// Cache outcome of this fetch (hit, admitted, or bypassed).
    pub outcome: FetchOutcome,
    /// Encoded-code bytes of the block — the tier-accounted size.
    pub code_bytes: u64,
}

struct TierState {
    file: File,
    sim: ClusterCacheSim,
    resident: HashMap<usize, Arc<Cluster>>,
    counters: TierTraffic,
}

/// An IVF-PQ shard whose cold code blocks live on storage behind a
/// cluster-granularity cache.
///
/// Hot state (centroids, codebooks, directory) is loaded once by
/// [`TieredIndex::open`]; [`TieredIndex::fetch_cluster`] serves blocks
/// from the cache or storage. All mutable state sits behind one mutex, so
/// a `&TieredIndex` is shareable across the worker pool; the sharded
/// engine gives each shard its own `TieredIndex` and scans a shard from
/// one worker at a time, so cache decisions are deterministic regardless
/// of thread scheduling.
pub struct TieredIndex {
    hot: SegmentHot,
    blocks_start: u64,
    vector_bytes: usize,
    state: Mutex<TierState>,
}

impl std::fmt::Debug for TieredIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredIndex")
            .field("dim", &self.hot.dim)
            .field("num_clusters", &self.hot.directory.len())
            .field("blocks_start", &self.blocks_start)
            .finish_non_exhaustive()
    }
}

impl TieredIndex {
    /// Opens a v2 segment at `path`, loading hot state and attaching a
    /// cluster cache of `cache_capacity_bytes` (encoded-code bytes).
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened or its hot half
    /// fails [`read_segment_hot`] validation.
    pub fn open<P: AsRef<Path>>(path: P, cache_capacity_bytes: u64) -> io::Result<TieredIndex> {
        let mut file = File::open(path)?;
        let hot = read_segment_hot(&mut file)?;
        let blocks_start = hot.blocks_start();
        let vector_bytes = hot.code_width().vector_bytes(hot.codebook.m());
        Ok(TieredIndex {
            hot,
            blocks_start,
            vector_bytes,
            state: Mutex::new(TierState {
                file,
                sim: ClusterCacheSim::new(cache_capacity_bytes),
                resident: HashMap::new(),
                counters: TierTraffic::default(),
            }),
        })
    }

    /// The similarity metric the segment was built for.
    pub fn metric(&self) -> Metric {
        self.hot.metric
    }

    /// Vector dimension `D`.
    pub fn dim(&self) -> usize {
        self.hot.dim
    }

    /// Number of clusters in this shard.
    pub fn num_clusters(&self) -> usize {
        self.hot.directory.len()
    }

    /// This shard's coarse centroids.
    pub fn centroids(&self) -> &VectorSet {
        &self.hot.centroids
    }

    /// The PQ codebooks (LUT inputs; resident).
    pub fn codebook(&self) -> &PqCodebook {
        &self.hot.codebook
    }

    /// Cluster sizes `|C_i|` from the resident directory.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.hot.cluster_sizes()
    }

    /// Size of cluster `i` (resident metadata — no storage access).
    pub fn cluster_len(&self, i: usize) -> usize {
        self.hot.directory[i].len
    }

    /// Encoded-code bytes of cluster `i` — the tier-accounted block size
    /// (ids ride along in the same block but are not charged against the
    /// cache capacity, matching the plan layer's `|C_i| · ebpv` pricing).
    pub fn cluster_code_bytes(&self, i: usize) -> u64 {
        (self.hot.directory[i].len * self.vector_bytes) as u64
    }

    /// A snapshot of the cache policy state, for plan-side pricing: feed a
    /// clone to [`anna_plan::TrafficModel::price_tiered`] and the
    /// prediction replays exactly what the next
    /// [`TieredIndex::fetch_cluster`] sequence will do.
    pub fn cache_sim(&self) -> ClusterCacheSim {
        self.state.lock().expect("tier state poisoned").sim.clone()
    }

    /// Cumulative tier telemetry since open (hits, misses, admissions,
    /// evictions, bytes per tier).
    pub fn counters(&self) -> TierTraffic {
        self.state.lock().expect("tier state poisoned").counters
    }

    /// Fetches cluster `i` through the cache, crediting the fetch with
    /// `visits` query visits (the batch's visitor count for this cluster —
    /// the admission signal).
    ///
    /// On a miss the block is read from storage and, if admitted, kept
    /// resident; bypassed blocks are returned without being cached.
    ///
    /// # Errors
    ///
    /// Returns an error if the storage read fails or the block does not
    /// match the directory.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fetch_cluster(&self, i: usize, visits: u64) -> io::Result<FetchedCluster> {
        let entry = self.hot.directory[i];
        let code_bytes = self.cluster_code_bytes(i);
        let mut st = self.state.lock().expect("tier state poisoned");
        // Read a missing block before the cache decides anything, so a
        // failed read leaves the sim, the residents and the counters as
        // they were.
        let read = if st.sim.is_resident(i) {
            None
        } else {
            let block = read_block(&mut st.file, self.blocks_start, &entry)?;
            Some(Arc::new(self.hot.parse_block(i, &block)?))
        };
        let outcome = st.sim.touch(i, code_bytes, visits);
        st.counters.record(&outcome, code_bytes);
        let cluster = match (&outcome, read) {
            (FetchOutcome::Hit, _) => Arc::clone(
                st.resident
                    .get(&i)
                    .expect("cache sim says resident but block is missing"),
            ),
            (FetchOutcome::MissAdmitted { evicted }, Some(cluster)) => {
                for e in evicted {
                    st.resident.remove(e);
                }
                st.resident.insert(i, Arc::clone(&cluster));
                cluster
            }
            (FetchOutcome::MissBypassed, Some(cluster)) => cluster,
            (_, None) => unreachable!("a resident block always hits"),
        };
        Ok(FetchedCluster {
            cluster,
            outcome,
            code_bytes,
        })
    }
}

fn read_block(
    file: &mut File,
    blocks_start: u64,
    entry: &crate::io::SegmentEntry,
) -> io::Result<Vec<u8>> {
    file.seek(SeekFrom::Start(blocks_start + entry.offset))?;
    let mut buf = vec![0u8; entry.bytes as usize];
    file.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_segment;
    use crate::ivf::{IvfPqConfig, IvfPqIndex};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_segment(index: &IvfPqIndex) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "anna_tiered_test_{}_{}.seg",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut buf = Vec::new();
        write_segment(&mut buf, index).unwrap();
        std::fs::write(&path, buf).unwrap();
        path
    }

    fn build() -> IvfPqIndex {
        let data = VectorSet::from_fn(8, 400, |r, c| {
            (r % 6) as f32 * 16.0 + ((r * 17 + c * 3) % 11) as f32 * 0.3
        });
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
    fn fetched_blocks_match_the_ram_index() {
        let index = build();
        let path = temp_segment(&index);
        let tiered = TieredIndex::open(&path, u64::MAX).unwrap();
        assert_eq!(tiered.dim(), index.dim());
        assert_eq!(tiered.num_clusters(), index.num_clusters());
        assert_eq!(tiered.cluster_sizes(), index.cluster_sizes());
        for i in 0..index.num_clusters() {
            let fetched = tiered.fetch_cluster(i, 1).unwrap();
            assert_eq!(*fetched.cluster, *index.cluster(i), "cluster {i}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn counters_split_hits_from_storage_reads() {
        let index = build();
        let path = temp_segment(&index);
        let tiered = TieredIndex::open(&path, u64::MAX).unwrap();
        for i in 0..index.num_clusters() {
            tiered.fetch_cluster(i, 2).unwrap();
        }
        let cold = tiered.counters();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, index.num_clusters() as u64);
        assert_eq!(cold.cache_code_bytes, 0);
        for i in 0..index.num_clusters() {
            tiered.fetch_cluster(i, 2).unwrap();
        }
        let warm = tiered.counters();
        assert_eq!(warm.cache_hits, index.num_clusters() as u64);
        assert_eq!(warm.disk_code_bytes, cold.disk_code_bytes);
        assert_eq!(warm.cache_code_bytes, cold.disk_code_bytes);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn zero_capacity_cache_reads_everything_from_storage() {
        let index = build();
        let path = temp_segment(&index);
        let tiered = TieredIndex::open(&path, 0).unwrap();
        for round in 0..2 {
            for i in 0..index.num_clusters() {
                let fetched = tiered.fetch_cluster(i, 1).unwrap();
                assert_eq!(*fetched.cluster, *index.cluster(i), "round {round}");
            }
        }
        let c = tiered.counters();
        assert_eq!(c.cache_hits, 0);
        assert_eq!(c.cache_code_bytes, 0);
        assert_eq!(c.cache_misses, 2 * index.num_clusters() as u64);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn failed_reads_leave_the_cache_untouched() {
        let index = build();
        let path = temp_segment(&index);
        let tiered = TieredIndex::open(&path, u64::MAX).unwrap();
        let dir = &tiered.hot.directory;
        let last = (0..dir.len())
            .max_by_key(|&i| dir[i].offset + dir[i].bytes)
            .unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let len = file.metadata().unwrap().len();
        let block_end = tiered.blocks_start + dir[last].offset + dir[last].bytes;
        assert!(
            block_end == len && dir[last].bytes >= 4,
            "cut into the last block"
        );
        file.set_len(len - 4).unwrap();
        for _ in 0..2 {
            assert!(tiered.fetch_cluster(last, 1).is_err());
        }
        assert_eq!(tiered.counters(), TierTraffic::default());
        assert_eq!(tiered.cache_sim(), ClusterCacheSim::new(u64::MAX));
        let intact = (last + 1) % dir.len();
        let fetched = tiered.fetch_cluster(intact, 1).unwrap();
        assert_eq!(*fetched.cluster, *index.cluster(intact));
        assert_eq!(tiered.counters().cache_admissions, 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn runtime_cache_replays_the_plan_side_simulation() {
        let index = build();
        let path = temp_segment(&index);
        let total: u64 = (0..index.num_clusters())
            .map(|i| index.cluster(i).encoded_bytes())
            .sum();
        let tiered = TieredIndex::open(&path, total / 2).unwrap();
        // Predict a fetch sequence against a snapshot, then run it for
        // real: outcomes and end states must agree exactly.
        let schedule: Vec<(usize, u64)> = (0..3)
            .flat_map(|r| (0..index.num_clusters()).map(move |i| (i, 1 + (i as u64 + r) % 3)))
            .collect();
        let mut sim = tiered.cache_sim();
        let mut predicted = TierTraffic::default();
        for &(i, visits) in &schedule {
            let bytes = tiered.cluster_code_bytes(i);
            predicted.record(&sim.touch(i, bytes, visits), bytes);
        }
        let mut measured = TierTraffic::default();
        for &(i, visits) in &schedule {
            let f = tiered.fetch_cluster(i, visits).unwrap();
            measured.record(&f.outcome, f.code_bytes);
        }
        assert_eq!(predicted, measured);
        assert_eq!(sim, tiered.cache_sim());
        assert_eq!(measured, tiered.counters());
        std::fs::remove_file(path).unwrap();
    }
}
