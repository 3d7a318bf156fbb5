//! Figure 8: throughput (QPS, log scale) vs recall for every dataset and
//! compression ratio.

use anna_data::PaperDataset;

use crate::harness::{self, Contexts, Plot};
use crate::json::Json;

/// The full Figure 8 result: twelve plots (6 datasets × 2 compression
/// ratios).
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// All plots in the paper's order (4:1 row first, then 8:1).
    pub plots: Vec<Plot>,
}

/// Runs Figure 8 for every dataset at both compression ratios.
pub fn run(contexts: &mut Contexts) -> Fig8 {
    let mut plots = Vec::new();
    for compression in [4u32, 8] {
        for dataset in PaperDataset::ALL {
            plots.push(harness::run_plot(contexts.get(dataset, compression)));
        }
    }
    Fig8 { plots }
}

impl Fig8 {
    /// JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj().set(
            "plots",
            Json::Arr(self.plots.iter().map(Plot::to_json).collect()),
        )
    }

    /// Per-configuration geomean speedup of ANNA over its corresponding
    /// software implementation (the numbers printed under each plot in the
    /// paper).
    pub fn geomean_speedups(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        if self.plots.is_empty() {
            return out;
        }
        let pairs = self.plots[0].series.len() / 2;
        for p in 0..pairs {
            let mut log_sum = 0.0f64;
            let mut n = 0usize;
            for plot in &self.plots {
                let sw = &plot.series[2 * p];
                let anna = &plot.series[2 * p + 1];
                for (a, b) in sw.points.iter().zip(&anna.points) {
                    if a.qps > 0.0 && b.qps > 0.0 {
                        log_sum += (b.qps / a.qps).ln();
                        n += 1;
                    }
                }
            }
            let name = format!(
                "{} vs {}",
                self.plots[0].series[2 * p + 1].name,
                self.plots[0].series[2 * p].name
            );
            out.push((name, (log_sum / n.max(1) as f64).exp()));
        }
        out
    }

    /// Formats the figure as text tables.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for plot in &self.plots {
            s.push_str(&format!(
                "\n=== {} ({}:1 compression) ===\n",
                plot.dataset, plot.compression
            ));
            s.push_str(&format!(
                "exhaustive QPS (ScaNN CPU / Faiss CPU / Faiss GPU): {} / {} / {}\n",
                harness::fmt_qps(plot.exhaustive_qps[0]),
                harness::fmt_qps(plot.exhaustive_qps[1]),
                harness::fmt_qps(plot.exhaustive_qps[2]),
            ));
            for series in &plot.series {
                s.push_str(&format!("{:>22}:", series.name));
                for pt in &series.points {
                    s.push_str(&format!(
                        " ({:.3}, {})",
                        pt.recall,
                        harness::fmt_qps(pt.qps)
                    ));
                }
                s.push('\n');
            }
        }
        s.push_str("\ngeomean ANNA speedups:\n");
        for (name, speedup) in self.geomean_speedups() {
            s.push_str(&format!("  {name}: {speedup:.1}x\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::PlotContext;
    use crate::scale::Scale;

    #[test]
    fn single_plot_speedup_shape_holds() {
        let mut scale = Scale::quick();
        scale.db_n = 3000;
        scale.num_queries = 8;
        scale.num_clusters = 12;
        scale.scaled_w = vec![1, 4];
        scale.paper_w = vec![16, 64];
        scale.train_iters = 2;
        let plot = harness::run_plot(&PlotContext::build(PaperDataset::Sift1B, 4, &scale));
        // ANNA must beat the query-major CPU configs at every point.
        let scann_sw = &plot.series[0];
        let scann_anna = &plot.series[1];
        for (a, b) in scann_sw.points.iter().zip(&scann_anna.points) {
            assert!(b.qps > a.qps, "ANNA {} <= SW {}", b.qps, a.qps);
        }
        // The paper's CPU ordering: Faiss16 (cluster-major, register LUT)
        // fastest; Faiss256 (L1 LUT) slowest.
        let qps_of = |name: &str| -> f64 {
            plot.series
                .iter()
                .find(|s| s.name == name)
                .expect("series present")
                .points[0]
                .qps
        };
        let faiss16 = qps_of("Faiss16 (CPU)");
        let scann16 = qps_of("ScaNN16 (CPU)");
        let faiss256 = qps_of("Faiss256 (CPU)");
        assert!(
            faiss16 > scann16 && scann16 > faiss256,
            "CPU ordering broken: Faiss16 {faiss16}, ScaNN16 {scann16}, Faiss256 {faiss256}"
        );
        // ANNA x12 must beat the V100 everywhere (the paper's fair-
        // bandwidth comparison).
        let gpu = plot
            .series
            .iter()
            .find(|s| s.name == "Faiss256 (GPU)")
            .unwrap();
        let x12 = plot
            .series
            .iter()
            .find(|s| s.name == "Faiss256 (ANNA x12)")
            .unwrap();
        for (a, b) in gpu.points.iter().zip(&x12.points) {
            assert!(b.qps > a.qps, "ANNA x12 {} <= V100 {}", b.qps, a.qps);
        }
    }
}
