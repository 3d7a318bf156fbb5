//! Deterministic cluster-granularity cache policy for the two-tier
//! (cache / backing storage) index layout.
//!
//! The billion-scale index keeps hot state (centroids, cluster metadata,
//! LUT inputs) resident and streams cold PQ code blocks from a segment
//! file on demand. [`ClusterCacheSim`] is the *policy* of the cache that
//! sits between the two tiers — a pure, deterministic state machine with
//! no I/O — so the same object can be driven twice:
//!
//! * by [`TrafficModel::price_tiered`](crate::TrafficModel::price_tiered)
//!   on a *clone* of the current state, to predict the cache/disk byte
//!   split of a plan before it runs, and
//! * by the runtime cluster cache in `anna-index`, on the real state, as
//!   the plan executes.
//!
//! Both walk the fetching rounds of the same [`BatchPlan`](crate::BatchPlan)
//! in the plan's round order (probe-ordered for cluster-major plans, see
//! [`BatchPlan::probe_ordered`](crate::BatchPlan::probe_ordered)), so
//! predicted == measured holds *exactly* on both tiers — the workspace's
//! headline invariant extended across the storage hierarchy.
//!
//! The policy is **admission by visit frequency**: every fetch bumps the
//! cluster's cumulative visit count by the number of queries scoring it,
//! and a missing block is admitted only by evicting residents whose
//! counts are *strictly lower* (ties keep the resident). Each fetch
//! carries the batch's full visitor count for its cluster, so the cache
//! converges on the hottest clusters without any clock or randomness. Capacity is accounted in encoded-code bytes —
//! the dominant, priced term — so the policy and the traffic model agree
//! byte-for-byte by construction.

use std::collections::BTreeMap;

/// What [`ClusterCacheSim::touch`] decided for one cluster fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchOutcome {
    /// The block was resident: all its bytes come from the cache tier.
    Hit,
    /// The block was read from storage and admitted, evicting the listed
    /// (strictly colder) residents.
    MissAdmitted {
        /// Clusters evicted to make room, in eviction order.
        evicted: Vec<usize>,
    },
    /// The block was read from storage and streamed without caching: it
    /// does not fit, or no resident is strictly colder.
    MissBypassed,
}

/// Per-tier traffic split and cache event counts for one run segment.
///
/// `cache_code_bytes + disk_code_bytes` equals the plan's total
/// `code_bytes` when every shard is tiered; the remaining traffic
/// components (centroids, metadata, spill/fill, …) always come from
/// resident hot state and are priced by the base
/// [`TrafficReport`](crate::TrafficReport) unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierTraffic {
    /// Encoded-code bytes served from the cluster cache.
    pub cache_code_bytes: u64,
    /// Encoded-code bytes read from backing storage.
    pub disk_code_bytes: u64,
    /// Cluster fetches answered by the cache.
    pub cache_hits: u64,
    /// Cluster fetches that went to storage (admitted + bypassed).
    pub cache_misses: u64,
    /// Misses whose block was admitted into the cache.
    pub cache_admissions: u64,
    /// Residents evicted to make room for admissions.
    pub cache_evictions: u64,
}

impl TierTraffic {
    /// Total encoded-code bytes across both tiers.
    pub fn total_code_bytes(&self) -> u64 {
        self.cache_code_bytes + self.disk_code_bytes
    }

    /// Adds another partial count into this one. All fields are plain
    /// sums, so per-shard partials merge to the same totals in any order.
    pub fn accumulate(&mut self, other: &TierTraffic) {
        self.cache_code_bytes += other.cache_code_bytes;
        self.disk_code_bytes += other.disk_code_bytes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_admissions += other.cache_admissions;
        self.cache_evictions += other.cache_evictions;
    }

    /// Folds one [`FetchOutcome`] for a block of `bytes` into the counts.
    pub fn record(&mut self, outcome: &FetchOutcome, bytes: u64) {
        match outcome {
            FetchOutcome::Hit => {
                self.cache_code_bytes += bytes;
                self.cache_hits += 1;
            }
            FetchOutcome::MissAdmitted { evicted } => {
                self.disk_code_bytes += bytes;
                self.cache_misses += 1;
                self.cache_admissions += 1;
                self.cache_evictions += evicted.len() as u64;
            }
            FetchOutcome::MissBypassed => {
                self.disk_code_bytes += bytes;
                self.cache_misses += 1;
            }
        }
    }
}

/// Deterministic cluster-cache policy state (see the module docs).
///
/// Equality compares the full policy state (capacity, residents, and
/// visit counts), which is what the predicted == measured tests lean on:
/// after pricing a plan on a clone and executing it on the real state,
/// the two sims must be `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterCacheSim {
    capacity_bytes: u64,
    used_bytes: u64,
    /// Resident cluster → its block's accounted bytes.
    resident: BTreeMap<usize, u64>,
    /// Cluster → cumulative visit count (bumped on every fetch).
    freq: BTreeMap<usize, u64>,
}

impl ClusterCacheSim {
    /// An empty cache with the given capacity in encoded-code bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            used_bytes: 0,
            resident: BTreeMap::new(),
            freq: BTreeMap::new(),
        }
    }

    /// The configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently held by resident blocks.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Whether `cluster`'s block is resident.
    pub fn is_resident(&self, cluster: usize) -> bool {
        self.resident.contains_key(&cluster)
    }

    /// The resident clusters, ascending.
    pub fn resident_clusters(&self) -> Vec<usize> {
        self.resident.keys().copied().collect()
    }

    /// The cumulative visit count recorded for `cluster`.
    pub fn visit_count(&self, cluster: usize) -> u64 {
        self.freq.get(&cluster).copied().unwrap_or(0)
    }

    /// Records a fetch of `cluster`'s block (`bytes` of encoded codes,
    /// scored by `visits` queries) and decides which tier serves it.
    ///
    /// The decision procedure, in order:
    ///
    /// 1. The cluster's visit count is bumped by `visits`.
    /// 2. Resident → [`FetchOutcome::Hit`].
    /// 3. A block larger than the whole capacity is never admitted →
    ///    [`FetchOutcome::MissBypassed`].
    /// 4. Otherwise residents are considered for eviction coldest-first
    ///    (lowest visit count; ties evict the *higher* cluster id first,
    ///    so the decision is total and deterministic). Only residents
    ///    with a *strictly lower* count than the candidate may be
    ///    evicted; if the block still does not fit once no strictly
    ///    colder resident remains, nothing is evicted and the fetch
    ///    bypasses the cache.
    pub fn touch(&mut self, cluster: usize, bytes: u64, visits: u64) -> FetchOutcome {
        let count = self.freq.entry(cluster).or_insert(0);
        *count += visits;
        let count = *count;

        if self.resident.contains_key(&cluster) {
            return FetchOutcome::Hit;
        }
        if bytes > self.capacity_bytes {
            return FetchOutcome::MissBypassed;
        }

        // Plan evictions without mutating: coldest residents first, higher
        // id first on ties, stopping as soon as the block fits.
        let mut victims: Vec<(usize, u64)> = Vec::new();
        let mut freed = 0u64;
        while self.used_bytes - freed + bytes > self.capacity_bytes {
            let victim = self
                .resident
                .iter()
                .filter(|(id, _)| !victims.iter().any(|(v, _)| v == *id))
                .min_by_key(|(id, _)| (self.visit_count(**id), std::cmp::Reverse(**id)))
                .map(|(id, sz)| (*id, *sz));
            match victim {
                Some((id, sz)) if self.visit_count(id) < count => {
                    freed += sz;
                    victims.push((id, sz));
                }
                // No strictly colder resident left: keep the cache as-is.
                _ => return FetchOutcome::MissBypassed,
            }
        }

        for (id, sz) in &victims {
            self.resident.remove(id);
            self.used_bytes -= sz;
        }
        self.resident.insert(cluster, bytes);
        self.used_bytes += bytes;
        FetchOutcome::MissAdmitted {
            evicted: victims.into_iter().map(|(id, _)| id).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cache_admits_until_full_then_bypasses_ties() {
        let mut sim = ClusterCacheSim::new(100);
        assert_eq!(
            sim.touch(0, 60, 1),
            FetchOutcome::MissAdmitted { evicted: vec![] }
        );
        assert_eq!(
            sim.touch(1, 40, 1),
            FetchOutcome::MissAdmitted { evicted: vec![] }
        );
        assert_eq!(sim.used_bytes(), 100);
        // Cluster 2 has count 1 — equal, not strictly greater: bypass.
        assert_eq!(sim.touch(2, 10, 1), FetchOutcome::MissBypassed);
        assert_eq!(sim.resident_clusters(), vec![0, 1]);
    }

    #[test]
    fn hotter_block_evicts_coldest_resident() {
        let mut sim = ClusterCacheSim::new(100);
        sim.touch(0, 60, 5);
        sim.touch(1, 40, 1);
        // Cluster 2 arrives with 3 visits: colder than 0, hotter than 1.
        assert_eq!(
            sim.touch(2, 40, 3),
            FetchOutcome::MissAdmitted { evicted: vec![1] }
        );
        assert!(sim.is_resident(2) && !sim.is_resident(1));
        assert_eq!(sim.used_bytes(), 100);
    }

    #[test]
    fn eviction_ties_break_toward_higher_cluster_id() {
        let mut sim = ClusterCacheSim::new(100);
        sim.touch(0, 50, 1);
        sim.touch(1, 50, 1);
        // Both residents are equally cold (count 1); the higher id goes.
        assert_eq!(
            sim.touch(2, 50, 4),
            FetchOutcome::MissAdmitted { evicted: vec![1] }
        );
        assert_eq!(sim.resident_clusters(), vec![0, 2]);
    }

    #[test]
    fn oversized_block_bypasses_without_evicting() {
        let mut sim = ClusterCacheSim::new(50);
        sim.touch(0, 30, 1);
        assert_eq!(sim.touch(1, 51, 100), FetchOutcome::MissBypassed);
        assert_eq!(sim.resident_clusters(), vec![0]);
        assert_eq!(sim.used_bytes(), 30);
    }

    #[test]
    fn partial_eviction_plan_rolls_back_on_bypass() {
        let mut sim = ClusterCacheSim::new(100);
        sim.touch(0, 50, 1);
        sim.touch(1, 50, 9);
        // Candidate (count 2) beats resident 0 but not resident 1, and
        // evicting 0 alone is not enough for an 80-byte block: the plan
        // aborts and *nothing* is evicted.
        assert_eq!(sim.touch(2, 80, 2), FetchOutcome::MissBypassed);
        assert_eq!(sim.resident_clusters(), vec![0, 1]);
        assert_eq!(sim.used_bytes(), 100);
    }

    #[test]
    fn repeat_visits_accumulate_and_hit() {
        let mut sim = ClusterCacheSim::new(100);
        sim.touch(3, 80, 2);
        assert_eq!(sim.touch(3, 80, 2), FetchOutcome::Hit);
        assert_eq!(sim.visit_count(3), 4);
        // A newcomer with fewer cumulative visits cannot displace it.
        assert_eq!(sim.touch(4, 30, 3), FetchOutcome::MissBypassed);
        // But once its cumulative count passes, it can.
        assert_eq!(
            sim.touch(4, 30, 3),
            FetchOutcome::MissAdmitted { evicted: vec![3] }
        );
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut sim = ClusterCacheSim::new(0);
        for i in 0..4 {
            assert_eq!(sim.touch(i, 1, 10), FetchOutcome::MissBypassed);
        }
        assert_eq!(sim.used_bytes(), 0);
    }

    #[test]
    fn zero_byte_blocks_are_admissible() {
        // Empty visited clusters price zero code bytes but still occupy a
        // directory entry; admitting them is harmless and keeps the
        // policy total.
        let mut sim = ClusterCacheSim::new(0);
        assert_eq!(
            sim.touch(7, 0, 1),
            FetchOutcome::MissAdmitted { evicted: vec![] }
        );
        assert_eq!(sim.touch(7, 0, 1), FetchOutcome::Hit);
    }

    #[test]
    fn tier_traffic_records_and_accumulates() {
        let mut t = TierTraffic::default();
        t.record(
            &FetchOutcome::MissAdmitted {
                evicted: vec![1, 2],
            },
            100,
        );
        t.record(&FetchOutcome::Hit, 100);
        t.record(&FetchOutcome::MissBypassed, 40);
        assert_eq!(t.cache_code_bytes, 100);
        assert_eq!(t.disk_code_bytes, 140);
        assert_eq!(t.cache_hits, 1);
        assert_eq!(t.cache_misses, 2);
        assert_eq!(t.cache_admissions, 1);
        assert_eq!(t.cache_evictions, 2);
        assert_eq!(t.total_code_bytes(), 240);
        let mut sum = TierTraffic::default();
        sum.accumulate(&t);
        sum.accumulate(&t);
        assert_eq!(sum.cache_hits, 2);
        assert_eq!(sum.total_code_bytes(), 480);
    }

    #[test]
    fn clone_then_replay_reaches_equal_state() {
        // The pricing pattern: predict on a clone, execute on the real
        // state, and the two must be equal afterwards.
        let mut real = ClusterCacheSim::new(120);
        for (c, b, v) in [(0, 40, 3), (1, 60, 1), (2, 50, 2)] {
            real.touch(c, b, v);
        }
        let mut predicted = real.clone();
        let fetches = [(3usize, 30u64, 4u64), (0, 40, 1), (1, 60, 2)];
        let a: Vec<FetchOutcome> = fetches
            .iter()
            .map(|&(c, b, v)| predicted.touch(c, b, v))
            .collect();
        let b: Vec<FetchOutcome> = fetches
            .iter()
            .map(|&(c, b, v)| real.touch(c, b, v))
            .collect();
        assert_eq!(a, b);
        assert_eq!(predicted, real);
    }
}
