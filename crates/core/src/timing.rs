//! Shared timing types: workload descriptions, traffic and timing reports.
//!
//! ANNA's runtime depends on the workload only through shapes and sizes —
//! `D`, `M`, `k*`, the metric, `|C|`, `k`, and the sizes of the clusters
//! each query visits. The workload types ([`SearchShape`],
//! [`QueryWorkload`], [`BatchWorkload`]) and the byte-exact
//! [`TrafficReport`] live in the shared plan layer (`anna-plan`) so the
//! software engine prices the same structures; they are re-exported here
//! for continuity. This module keeps the simulator-side outcome types:
//! [`Activity`], [`Bound`] and [`TimingReport`].

use crate::config::AnnaConfig;

pub use anna_plan::{BatchWorkload, QueryWorkload, SearchShape, TrafficReport};

/// Module activity counters, consumed by the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Activity {
    /// CPM busy cycles (filtering + residuals + LUT fills).
    pub cpm_cycles: f64,
    /// SCM busy cycles, summed over all SCMs (so utilization is
    /// `scm_cycles / (N_SCM · total)`).
    pub scm_cycles: f64,
    /// Top-k inputs offered across all units.
    pub topk_inputs: f64,
}

/// Which resource bounded the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Compute cycles exceeded memory cycles.
    Compute,
    /// Memory cycles exceeded compute cycles.
    Memory,
}

/// The timing outcome of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// End-to-end cycles.
    pub cycles: f64,
    /// Cycles spent in the cluster-filtering phase.
    pub filter_cycles: f64,
    /// Total compute demand in cycles (lower bound if perfectly memory
    /// overlapped).
    pub compute_cycles: f64,
    /// Total memory demand in cycles (`traffic / bytes-per-cycle`).
    pub memory_cycles: f64,
    /// Traffic breakdown.
    pub traffic: TrafficReport,
    /// Module activity for the energy model.
    pub activity: Activity,
    /// Distinct cluster code fetches (each cluster's codes stream from
    /// memory once per fetch; equals the plan's
    /// [`clusters_fetched`](anna_plan::BatchPlan::clusters_fetched) in
    /// batched mode).
    pub clusters_fetched: u64,
    /// Encoded vectors scanned per SCM-group across all rounds (the plan's
    /// [`total_scan_work`](anna_plan::BatchPlan::total_scan_work) in
    /// batched mode).
    pub scan_work: u64,
    /// Queries completed in this run.
    pub queries: usize,
}

impl TimingReport {
    /// Wall-clock seconds under `cfg`'s clock.
    pub fn seconds(&self, cfg: &AnnaConfig) -> f64 {
        cfg.cycles_to_seconds(self.cycles)
    }

    /// Queries per second.
    pub fn qps(&self, cfg: &AnnaConfig) -> f64 {
        self.queries as f64 / self.seconds(cfg)
    }

    /// Mean latency per query in seconds (for a single-query run this is
    /// the query latency; for a batch it is batch time / B and the
    /// batch-completion latency is [`TimingReport::seconds`]).
    pub fn latency_seconds(&self, cfg: &AnnaConfig) -> f64 {
        self.seconds(cfg) / self.queries.max(1) as f64
    }

    /// Which resource bound the run.
    pub fn bound(&self) -> Bound {
        if self.memory_cycles > self.compute_cycles {
            Bound::Memory
        } else {
            Bound::Compute
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rates() {
        let cfg = AnnaConfig::paper();
        let r = TimingReport {
            cycles: 1e6,
            filter_cycles: 0.0,
            compute_cycles: 2.0,
            memory_cycles: 1.0,
            traffic: TrafficReport::default(),
            activity: Activity::default(),
            clusters_fetched: 0,
            scan_work: 0,
            queries: 10,
        };
        assert!((r.seconds(&cfg) - 1e-3).abs() < 1e-12);
        assert!((r.qps(&cfg) - 10_000.0).abs() < 1e-6);
        assert_eq!(r.bound(), Bound::Compute);
    }
}
