//! Ablation benches for the design choices DESIGN.md calls out: compute
//! unit scaling (`N_u`, `N_cu`, `N_SCM`), memory bandwidth, and SCM
//! allocation policy.

use anna_core::{engine::analytic, AnnaConfig, BatchWorkload, ScmAllocation, SearchShape};
use anna_data::ClusterSizeModel;
use anna_vector::Metric;

use crate::json::Json;

/// One ablation data point.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Swept parameter name.
    pub parameter: String,
    /// Parameter value.
    pub value: f64,
    /// Resulting throughput.
    pub qps: f64,
    /// Whether the run was compute- or memory-bound.
    pub memory_bound: bool,
}

/// The ablation result.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// All sweep points.
    pub points: Vec<AblationPoint>,
}

/// A representative billion-scale L2 workload (SIFT1B-like, 4:1, W=32,
/// B=1000).
pub fn reference_workload(batch: usize, seed: u64) -> BatchWorkload {
    let model = ClusterSizeModel::skewed(1_000_000_000, 10_000, 0.35, seed);
    let visits = model.sample_query_visits(batch, 32, seed);
    BatchWorkload {
        shape: SearchShape {
            d: 128,
            m: 64,
            kstar: 256,
            metric: Metric::L2,
            num_clusters: 10_000,
            k: 1000,
        },
        cluster_sizes: model.sizes().to_vec(),
        visits,
    }
}

/// Runs all parameter sweeps.
pub fn run(batch: usize) -> Ablation {
    let workload = reference_workload(batch, 99);
    let mut points = Vec::new();
    let base = AnnaConfig::paper();

    let mut eval = |name: &str, value: f64, cfg: &AnnaConfig, alloc: ScmAllocation| {
        let r = analytic::batch(cfg, &workload, alloc);
        points.push(AblationPoint {
            parameter: name.to_string(),
            value,
            qps: r.qps(cfg),
            memory_bound: r.bound() == anna_core::Bound::Memory,
        });
    };

    for n_u in [8usize, 16, 32, 64, 128] {
        eval(
            "n_u",
            n_u as f64,
            &AnnaConfig {
                n_u,
                ..base.clone()
            },
            ScmAllocation::Auto,
        );
    }
    for n_cu in [24usize, 48, 96, 192] {
        eval(
            "n_cu",
            n_cu as f64,
            &AnnaConfig {
                n_cu,
                ..base.clone()
            },
            ScmAllocation::Auto,
        );
    }
    for n_scm in [4usize, 8, 16, 32] {
        eval(
            "n_scm",
            n_scm as f64,
            &AnnaConfig {
                n_scm,
                ..base.clone()
            },
            ScmAllocation::Auto,
        );
    }
    for bw in [16.0, 32.0, 64.0, 128.0, 256.0] {
        eval(
            "bandwidth_gbps",
            bw,
            &AnnaConfig {
                mem_bandwidth_gbps: bw,
                ..base.clone()
            },
            ScmAllocation::Auto,
        );
    }
    for g in [1usize, 2, 4, 8, 16] {
        eval(
            "scm_per_query",
            g as f64,
            &base,
            ScmAllocation::IntraQuery { scm_per_query: g },
        );
    }
    for entries in [16usize, 32, 64, 128, 256] {
        eval(
            "mai_entries",
            entries as f64,
            &AnnaConfig {
                mai_entries: entries,
                ..base.clone()
            },
            ScmAllocation::Auto,
        );
    }

    // Double buffering on/off (single-query latency, W=32, SIFT1B-class).
    let q = anna_core::QueryWorkload {
        shape: workload.shape,
        visited_cluster_sizes: vec![100_000; 32],
    };
    for (on, label_value) in [(true, 1.0f64), (false, 0.0)] {
        let r = if on {
            analytic::single_query(&base, &q, base.n_scm)
        } else {
            analytic::single_query_unbuffered(&base, &q, base.n_scm)
        };
        points.push(AblationPoint {
            parameter: "double_buffering".to_string(),
            value: label_value,
            qps: 1.0 / r.latency_seconds(&base),
            memory_bound: r.bound() == anna_core::Bound::Memory,
        });
    }
    Ablation { points }
}

impl Ablation {
    /// JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj().set(
            "points",
            Json::Arr(
                self.points
                    .iter()
                    .map(|p| {
                        Json::obj()
                            .set("parameter", p.parameter.clone())
                            .set("value", p.value)
                            .set("qps", p.qps)
                            .set("memory_bound", p.memory_bound)
                    })
                    .collect(),
            ),
        )
    }

    /// Points for one parameter.
    pub fn sweep(&self, parameter: &str) -> Vec<&AblationPoint> {
        self.points
            .iter()
            .filter(|p| p.parameter == parameter)
            .collect()
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s =
            String::from("\n=== Ablation: design-parameter sweeps (SIFT1B-like, 4:1, W=32) ===\n");
        let mut last = String::new();
        for p in &self.points {
            if p.parameter != last {
                s.push_str(&format!("--- {} ---\n", p.parameter));
                last = p.parameter.clone();
            }
            s.push_str(&format!(
                "  {:>8}: {:>10.0} QPS ({})\n",
                p.value,
                p.qps,
                if p.memory_bound {
                    "memory-bound"
                } else {
                    "compute-bound"
                }
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_monotone_where_expected() {
        let a = run(128);
        // More bandwidth never hurts.
        let bw = a.sweep("bandwidth_gbps");
        for w in bw.windows(2) {
            assert!(w[1].qps >= w[0].qps * 0.999, "bandwidth sweep not monotone");
        }
        // Wider reduction trees never hurt.
        let nu = a.sweep("n_u");
        for w in nu.windows(2) {
            assert!(w[1].qps >= w[0].qps * 0.999, "n_u sweep not monotone");
        }
        // At paper bandwidth the reference workload saturates memory for
        // large n_u.
        assert!(nu.last().unwrap().memory_bound);
    }

    #[test]
    fn double_buffering_and_mai_rows_present() {
        let a = run(64);
        let db = a.sweep("double_buffering");
        assert_eq!(db.len(), 2);
        let on = db.iter().find(|p| p.value == 1.0).unwrap().qps;
        let off = db.iter().find(|p| p.value == 0.0).unwrap().qps;
        assert!(on >= off, "double buffering must not hurt ({on} vs {off})");
        let mai = a.sweep("mai_entries");
        assert!(
            mai.first().unwrap().qps <= mai.last().unwrap().qps * 1.001,
            "more MAI entries must not hurt"
        );
    }

    #[test]
    fn diminishing_returns_once_memory_bound() {
        let a = run(128);
        let bw = a.sweep("n_scm");
        let first = bw.first().unwrap().qps;
        let last = bw.last().unwrap().qps;
        // SCM scaling helps, but less than linearly once memory-bound.
        assert!(last >= first);
        assert!(
            last < first * 8.0,
            "n_scm 4->32 should not scale 8x under a fixed memory system"
        );
    }
}
