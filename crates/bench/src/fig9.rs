//! Figure 9: single-query latency (log scale) at 4:1 compression.

use anna_baseline::{CpuModel, GpuModel};
use anna_core::{engine::analytic, AnnaConfig};
use anna_data::PaperDataset;

use crate::configs::{Platform, SearchConfig};
use crate::harness::{latency_workload, Contexts};
use crate::json::Json;

/// One latency bar.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Dataset label.
    pub dataset: String,
    /// Configuration label.
    pub config: String,
    /// Single-query latency in seconds.
    pub latency_s: f64,
}

/// The Figure 9 result.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// All bars, grouped by dataset.
    pub rows: Vec<LatencyRow>,
    /// `W` used for the latency point.
    pub w_paper: usize,
}

/// Runs Figure 9 for the given datasets (4:1 compression): the
/// per-query latency of each software configuration and its ANNA
/// counterpart, at a recall-comparable `W` (the paper quotes `W = 32`-class
/// points; ANNA uses intra-query parallelism across all 16 SCMs).
pub fn run(datasets: &[PaperDataset], contexts: &mut Contexts) -> Fig9 {
    let w_paper = 32;
    let mut rows = Vec::new();
    for &dataset in datasets {
        let ctx = contexts.get(dataset, 4);
        let w = if dataset.is_billion_scale() {
            w_paper
        } else {
            w_paper.min(16)
        };
        for cfg in &SearchConfig::ALL {
            let q = latency_workload(ctx, cfg, w);
            let bytes_per_vec = q.shape.encoded_bytes_per_vector() as u64;
            let vectors = q.vectors_scanned();

            // Software latency.
            let sw_latency = match cfg.platform {
                Platform::Gpu => GpuModel::v100_faiss256().latency_seconds(vectors, bytes_per_vec),
                _ => CpuModel::paper().latency_seconds(
                    vectors,
                    q.shape.m,
                    q.shape.kstar,
                    bytes_per_vec,
                ),
            };
            rows.push(LatencyRow {
                dataset: dataset.name().to_string(),
                config: cfg.sw_name.to_string(),
                latency_s: sw_latency,
            });

            // ANNA latency: baseline mode, all SCMs on the one query.
            let hw = AnnaConfig::paper();
            let r = analytic::single_query(&hw, &q, hw.n_scm);
            rows.push(LatencyRow {
                dataset: dataset.name().to_string(),
                config: cfg.anna_name.to_string(),
                latency_s: r.latency_seconds(&hw),
            });
        }
    }
    Fig9 { rows, w_paper }
}

impl Fig9 {
    /// JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj().set("w_paper", self.w_paper).set(
            "rows",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .set("dataset", r.dataset.clone())
                            .set("config", r.config.clone())
                            .set("latency_s", r.latency_s)
                    })
                    .collect(),
            ),
        )
    }

    /// Minimum ANNA latency improvement over the fastest software
    /// configuration, per dataset (the paper reports "over 24× latency
    /// improvements across all configurations").
    pub fn min_improvement(&self) -> f64 {
        let mut best = f64::INFINITY;
        let datasets: Vec<String> = {
            let mut d: Vec<String> = self.rows.iter().map(|r| r.dataset.clone()).collect();
            d.dedup();
            d
        };
        for ds in datasets {
            let sw_best = self
                .rows
                .iter()
                .filter(|r| r.dataset == ds && !r.config.contains("ANNA"))
                .map(|r| r.latency_s)
                .fold(f64::INFINITY, f64::min);
            let anna_best = self
                .rows
                .iter()
                .filter(|r| r.dataset == ds && r.config.contains("ANNA"))
                .map(|r| r.latency_s)
                .fold(f64::INFINITY, f64::min);
            best = best.min(sw_best / anna_best);
        }
        best
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::from("\n=== Figure 9: single-query latency (4:1) ===\n");
        let mut last = String::new();
        for r in &self.rows {
            if r.dataset != last {
                s.push_str(&format!("--- {} ---\n", r.dataset));
                last = r.dataset.clone();
            }
            s.push_str(&format!(
                "{:>22}: {:>10.3} ms\n",
                r.config,
                r.latency_s * 1e3
            ));
        }
        s.push_str(&format!(
            "minimum ANNA improvement over fastest software: {:.1}x\n",
            self.min_improvement()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn anna_latency_beats_software_everywhere() {
        let mut scale = Scale::quick();
        scale.db_n = 3000;
        scale.num_queries = 8;
        scale.num_clusters = 12;
        scale.train_iters = 2;
        let mut contexts = Contexts::new(scale);
        let fig = run(
            &[PaperDataset::Sift1B, PaperDataset::Glove1M],
            &mut contexts,
        );
        assert_eq!(contexts.models_trained(), 0, "latency is paper-scale only");
        assert!(!fig.rows.is_empty());
        assert!(
            fig.min_improvement() > 1.0,
            "ANNA must improve latency (got {:.2}x)",
            fig.min_improvement()
        );
        // Billion-scale ANNA latency should be around or below a
        // millisecond (paper: sub-ms at moderate W).
        for r in &fig.rows {
            if r.dataset == "SIFT1B" && r.config.contains("ANNA") {
                assert!(r.latency_s < 20e-3, "{} latency {}", r.config, r.latency_s);
            }
        }
    }
}
