//! Section VI comparison points against other ANNS accelerators.
//!
//! * Zhang et al. (FPGA): 50K QPS at 0.94 recall(1@10) on SIFT1M; the
//!   paper claims "ours achieves around 256K QPS with a single ANNA".
//! * Gemini APU: 800 QPS at 0.92 recall(1@160) on Deep1B; the paper claims
//!   "ANNA achieves over 4096 QPS for a similar recall".

use anna_core::{engine::analytic, AnnaConfig, BatchWorkload, ScmAllocation, SearchShape};
use anna_data::{ClusterSizeModel, PaperDataset};

use crate::json::Json;

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct RelatedRow {
    /// Competitor name.
    pub competitor: String,
    /// Competitor's published QPS.
    pub competitor_qps: f64,
    /// Our single-ANNA QPS on the equivalent workload.
    pub anna_qps: f64,
    /// The paper's claimed ANNA QPS for the same comparison.
    pub paper_anna_qps: f64,
}

/// The Section VI comparison.
#[derive(Debug, Clone)]
pub struct Related {
    /// Comparison rows.
    pub rows: Vec<RelatedRow>,
}

/// Runs both comparisons with batched execution (B = 1000).
pub fn run() -> Related {
    let hw = AnnaConfig::paper();
    let batch = 1000;

    // SIFT1M-class: |C| = 250, 1M vectors; recall 0.94 (1@10) needs a
    // moderate probe — use W = 8 of 250 clusters.
    let sift = {
        let ds = PaperDataset::Sift1M;
        let model = ClusterSizeModel::skewed(ds.full_n(), ds.paper_num_clusters(), 0.35, 3);
        let w = BatchWorkload {
            shape: SearchShape {
                d: ds.dim(),
                m: ds.m_for(4, 16),
                kstar: 16,
                metric: ds.metric(),
                num_clusters: ds.paper_num_clusters(),
                k: 10,
            },
            cluster_sizes: model.sizes().to_vec(),
            visits: model.sample_query_visits(batch, 8, 3),
        };
        analytic::batch(&hw, &w, ScmAllocation::Auto).qps(&hw)
    };

    // Deep1B-class: |C| = 10000, 1B vectors; recall 0.92 (1@160) — W = 16.
    let deep = {
        let ds = PaperDataset::Deep1B;
        let model = ClusterSizeModel::skewed(ds.full_n(), ds.paper_num_clusters(), 0.35, 5);
        let w = BatchWorkload {
            shape: SearchShape {
                d: ds.dim(),
                m: ds.m_for(4, 256),
                kstar: 256,
                metric: ds.metric(),
                num_clusters: ds.paper_num_clusters(),
                k: 160,
            },
            cluster_sizes: model.sizes().to_vec(),
            visits: model.sample_query_visits(batch, 16, 5),
        };
        analytic::batch(&hw, &w, ScmAllocation::Auto).qps(&hw)
    };

    Related {
        rows: vec![
            RelatedRow {
                competitor: "Zhang et al. FPGA (SIFT1M, 0.94 recall 1@10)".into(),
                competitor_qps: 50_000.0,
                anna_qps: sift,
                paper_anna_qps: 256_000.0,
            },
            RelatedRow {
                competitor: "Gemini APU (Deep1B, 0.92 recall 1@160)".into(),
                competitor_qps: 800.0,
                anna_qps: deep,
                paper_anna_qps: 4096.0,
            },
        ],
    }
}

impl Related {
    /// JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj().set(
            "rows",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .set("competitor", r.competitor.clone())
                            .set("competitor_qps", r.competitor_qps)
                            .set("anna_qps", r.anna_qps)
                            .set("paper_anna_qps", r.paper_anna_qps)
                    })
                    .collect(),
            ),
        )
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::from("\n=== Section VI: related-work comparison points ===\n");
        for r in &self.rows {
            s.push_str(&format!(
                "{}\n  competitor {:>8.0} QPS | our ANNA {:>8.0} QPS | paper's ANNA {:>8.0} QPS\n",
                r.competitor, r.competitor_qps, r.anna_qps, r.paper_anna_qps
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anna_beats_both_competitors() {
        let rel = run();
        for r in &rel.rows {
            assert!(
                r.anna_qps > r.competitor_qps,
                "{}: ANNA {} should beat competitor {}",
                r.competitor,
                r.anna_qps,
                r.competitor_qps
            );
        }
    }

    #[test]
    fn deep1b_point_is_in_the_paper_ballpark() {
        let rel = run();
        let deep = &rel.rows[1];
        // Same order of magnitude as the paper's >4096 QPS claim.
        assert!(
            deep.anna_qps > 1000.0 && deep.anna_qps < 100_000.0,
            "Deep1B QPS {} out of plausible range",
            deep.anna_qps
        );
    }
}
