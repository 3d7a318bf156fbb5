//! The search configurations of Figure 8 (Section V-A).
//!
//! "the number after Faiss or ScaNN (i.e., 16 or 256) represents the k*
//! value"; ScaNN has no `k* = 256` mode and Faiss GPU has no `k* = 16`
//! mode. Each software configuration has a corresponding ANNA row running
//! the same trained model.

use anna_baseline::CpuSchedule;
use anna_index::Trainer;

/// Where a software baseline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// 8-core Skylake-X, query-at-a-time schedule.
    CpuQueryMajor,
    /// 8-core Skylake-X, cluster-major batched schedule (Faiss16's trick).
    CpuClusterMajor,
    /// NVIDIA V100.
    Gpu,
}

/// One line pair (software + ANNA) of a Figure 8 plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Software line label.
    pub sw_name: &'static str,
    /// ANNA line label.
    pub anna_name: &'static str,
    /// Codewords per codebook.
    pub kstar: usize,
    /// Codebook training objective.
    pub trainer: Trainer,
    /// Software platform.
    pub platform: Platform,
}

impl SearchConfig {
    /// The four configurations of the paper's evaluation.
    pub const ALL: [SearchConfig; 4] = [
        SearchConfig {
            sw_name: "ScaNN16 (CPU)",
            anna_name: "ScaNN16 (ANNA)",
            kstar: 16,
            trainer: Trainer::Scann,
            platform: Platform::CpuQueryMajor,
        },
        SearchConfig {
            sw_name: "Faiss16 (CPU)",
            anna_name: "Faiss16 (ANNA)",
            kstar: 16,
            trainer: Trainer::Faiss,
            platform: Platform::CpuClusterMajor,
        },
        SearchConfig {
            sw_name: "Faiss256 (CPU)",
            anna_name: "Faiss256 (ANNA)",
            kstar: 256,
            trainer: Trainer::Faiss,
            platform: Platform::CpuQueryMajor,
        },
        SearchConfig {
            sw_name: "Faiss256 (GPU)",
            anna_name: "Faiss256 (ANNA x12)",
            kstar: 256,
            trainer: Trainer::Faiss,
            platform: Platform::Gpu,
        },
    ];

    /// The CPU schedule for the model, if this is a CPU configuration.
    pub fn cpu_schedule(&self, batch: usize) -> Option<CpuSchedule> {
        match self.platform {
            Platform::CpuQueryMajor => Some(CpuSchedule::QueryMajor),
            Platform::CpuClusterMajor => Some(CpuSchedule::ClusterMajor { batch }),
            Platform::Gpu => None,
        }
    }

    /// Whether this row's software runs ScaNN (decides the CPU power
    /// constant for Figure 10).
    pub fn is_scann(&self) -> bool {
        matches!(self.trainer, Trainer::Scann)
    }

    /// A key identifying the trained model this configuration uses
    /// (several configurations share one model).
    pub fn model_key(&self) -> (usize, Trainer) {
        (self.kstar, self.trainer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_paper_configs() {
        assert_eq!(SearchConfig::ALL.len(), 4);
        // ScaNN only at k*=16; GPU only at k*=256 — as the paper states.
        for c in &SearchConfig::ALL {
            if c.is_scann() {
                assert_eq!(c.kstar, 16);
            }
            if c.platform == Platform::Gpu {
                assert_eq!(c.kstar, 256);
            }
        }
    }

    #[test]
    fn faiss16_uses_cluster_major_schedule() {
        let f16 = SearchConfig::ALL[1];
        assert_eq!(f16.sw_name, "Faiss16 (CPU)");
        assert!(matches!(
            f16.cpu_schedule(100),
            Some(CpuSchedule::ClusterMajor { batch: 100 })
        ));
    }

    #[test]
    fn model_keys_deduplicate_to_three_models() {
        let mut keys: Vec<_> = SearchConfig::ALL.iter().map(|c| c.model_key()).collect();
        keys.sort_by_key(|(k, t)| (*k, matches!(t, Trainer::Scann)));
        keys.dedup();
        assert_eq!(keys.len(), 3);
    }
}
