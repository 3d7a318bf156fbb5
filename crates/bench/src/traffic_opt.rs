//! Section V-B, "Impact of ANNA Memory Traffic Optimization": throughput
//! of ANNA with the cluster-major batched schedule versus ANNA processing
//! queries one at a time.
//!
//! The paper reports average speedups of 5.1×/5.0×/6.9× for
//! ScaNN16/Faiss16/Faiss256 at 4:1 compression and 3.9×/3.9×/4.6× at 8:1
//! ("the speedup is greater on the 4:1 compression ratio cases since the
//! performance in those scenarios is more memory bandwidth-bound").

use anna_core::{engine::analytic, AnnaConfig, QueryWorkload, ScmAllocation, TrafficModel};
use anna_data::PaperDataset;
use anna_index::{BatchedScan, SearchParams};
use anna_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

use crate::configs::SearchConfig;
use crate::harness::Contexts;
use crate::json::Json;

/// Speedup of the optimized schedule for one (config, compression) cell,
/// averaged (geomean) across datasets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupRow {
    /// Configuration label.
    pub config: String,
    /// Compression ratio.
    pub compression: u32,
    /// Geomean speedup across datasets.
    pub speedup: f64,
    /// Geomean code-traffic reduction across datasets.
    pub traffic_reduction: f64,
    /// Cluster-major code bytes measured by the software scanner on the
    /// scaled indexes (summed across datasets).
    pub cluster_major_bytes: u64,
    /// Code bytes the conventional query-major schedule would have read
    /// on the same scaled runs (summed across datasets).
    pub conventional_bytes: u64,
    /// Absolute difference between the [`TrafficModel`]-predicted bytes
    /// and the bytes the software scanner measured executing the same
    /// [`anna_core::BatchPlan`], summed over the code, cluster-meta,
    /// spill, and fill components. Must be exactly 0.
    pub predicted_vs_measured_delta: u64,
}

/// The Section V-B comparison result.
#[derive(Debug, Clone)]
pub struct TrafficOpt {
    /// One row per (config, compression).
    pub rows: Vec<SpeedupRow>,
}

/// The billion-scale datasets, where the optimization matters most.
pub const DATASETS: [PaperDataset; 3] = [
    PaperDataset::Sift1B,
    PaperDataset::Deep1B,
    PaperDataset::Tti1B,
];

/// Runs the comparison for the three CPU-family configurations at both
/// compression ratios over the given datasets, at `W = 32`.
pub fn run(datasets: &[PaperDataset], contexts: &mut Contexts) -> TrafficOpt {
    let w_paper = 32;
    let mut rows = Vec::new();
    for compression in [4u32, 8] {
        for cfg in &SearchConfig::ALL[..3] {
            let mut log_speedup = 0.0f64;
            let mut log_traffic = 0.0f64;
            let mut cluster_major_bytes = 0u64;
            let mut conventional_bytes = 0u64;
            let mut delta = 0u64;
            for &dataset in datasets {
                let ctx = contexts.get(dataset, compression);
                let workload = ctx.paper_workload(cfg, w_paper);
                let hw = AnnaConfig::paper();
                let opt = analytic::batch(&hw, &workload, ScmAllocation::Auto);

                // Software cross-validation leg on the scaled index: price
                // the plan with the TrafficModel, execute the *same* plan
                // with the software scanner, and diff the shared byte
                // components (the headline invariant of the plan layer).
                let index = ctx.model(cfg);
                let scan = BatchedScan::new(index);
                let params = SearchParams {
                    nprobe: w_paper.min(index.num_clusters()),
                    k: ctx.scale.recall_y,
                    ..Default::default()
                };
                let sw = scan.workload(&ctx.data.queries, &params);
                let pp = hw.plan_params();
                let plan = anna_core::plan::plan(&pp, &sw, ScmAllocation::InterQuery);
                let predicted = TrafficModel::new(pp).price(&sw, &plan);
                let (_, stats) =
                    scan.run_plan(&ctx.data.queries, &params, &plan, 2, &Telemetry::disabled());
                cluster_major_bytes += stats.code_bytes;
                conventional_bytes += stats.conventional_code_bytes;
                delta += predicted.code_bytes.abs_diff(stats.code_bytes)
                    + predicted
                        .cluster_meta_bytes
                        .abs_diff(stats.clusters_fetched * anna_core::plan::CLUSTER_META_BYTES)
                    + predicted.topk_spill_bytes.abs_diff(stats.topk_spill_bytes)
                    + predicted.topk_fill_bytes.abs_diff(stats.topk_fill_bytes);

                let singles: Vec<QueryWorkload> = workload
                    .visits
                    .iter()
                    .map(|v| QueryWorkload {
                        shape: workload.shape,
                        visited_cluster_sizes: v
                            .iter()
                            .map(|&c| workload.cluster_sizes[c])
                            .collect(),
                    })
                    .collect();
                let base = analytic::sequential_queries(&hw, &singles, hw.n_scm);

                log_speedup += (opt.qps(&hw) / base.qps(&hw)).ln();
                log_traffic +=
                    (base.traffic.code_bytes as f64 / opt.traffic.code_bytes.max(1) as f64).ln();
            }
            rows.push(SpeedupRow {
                config: cfg.sw_name.replace(" (CPU)", "").to_string(),
                compression,
                speedup: (log_speedup / datasets.len() as f64).exp(),
                traffic_reduction: (log_traffic / datasets.len() as f64).exp(),
                cluster_major_bytes,
                conventional_bytes,
                predicted_vs_measured_delta: delta,
            });
        }
    }
    TrafficOpt { rows }
}

impl TrafficOpt {
    /// JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj().set(
            "rows",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .set("config", r.config.clone())
                            .set("compression", r.compression)
                            .set("speedup", r.speedup)
                            .set("traffic_reduction", r.traffic_reduction)
                            .set("cluster_major_bytes", r.cluster_major_bytes)
                            .set("conventional_bytes", r.conventional_bytes)
                            .set("predicted_vs_measured_delta", r.predicted_vs_measured_delta)
                    })
                    .collect(),
            ),
        )
    }

    /// Text rendering against the paper's reported numbers.
    pub fn render(&self) -> String {
        let paper: &[(&str, u32, f64)] = &[
            ("ScaNN16", 4, 5.1),
            ("Faiss16", 4, 5.0),
            ("Faiss256", 4, 6.9),
            ("ScaNN16", 8, 3.9),
            ("Faiss16", 8, 3.9),
            ("Faiss256", 8, 4.6),
        ];
        let mut s = String::from(
            "\n=== Section V-B: memory traffic optimization speedup (B=1000, W=32) ===\n",
        );
        s.push_str(&format!(
            "{:<12} {:>6} {:>12} {:>12} {:>10}\n",
            "config", "comp", "measured", "traffic-red", "paper"
        ));
        for r in &self.rows {
            let p = paper
                .iter()
                .find(|(n, c, _)| *n == r.config && *c == r.compression)
                .map(|(_, _, v)| *v)
                .unwrap_or(f64::NAN);
            s.push_str(&format!(
                "{:<12} {:>5}:1 {:>11.1}x {:>11.1}x {:>9.1}x\n",
                r.config, r.compression, r.speedup, r.traffic_reduction, p
            ));
        }
        s
    }

    /// Mean speedup at a compression ratio.
    pub fn mean_speedup(&self, compression: u32) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.compression == compression)
            .map(|r| r.speedup)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn optimization_speeds_up_and_4to1_beats_8to1() {
        let mut scale = Scale::quick();
        scale.db_n = 3000;
        scale.num_queries = 8;
        scale.num_clusters = 12;
        scale.train_iters = 2;
        scale.batch = 256;
        let t = run(&[PaperDataset::Sift1B], &mut Contexts::new(scale));
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            assert!(
                r.speedup > 1.5,
                "{} {}:1 speedup {} too small",
                r.config,
                r.compression,
                r.speedup
            );
            assert!(r.traffic_reduction > 1.0);
            assert_eq!(
                r.predicted_vs_measured_delta, 0,
                "{} {}:1 predicted bytes diverge from measured",
                r.config, r.compression
            );
            assert!(r.cluster_major_bytes > 0);
            assert!(r.conventional_bytes >= r.cluster_major_bytes);
        }
        // Paper: more memory-bound 4:1 benefits more than 8:1.
        assert!(
            t.mean_speedup(4) > t.mean_speedup(8),
            "4:1 ({}) should benefit more than 8:1 ({})",
            t.mean_speedup(4),
            t.mean_speedup(8)
        );
    }
}
