//! Shared experiment machinery: scaled-recall measurement plus paper-scale
//! timing, combined into figure-ready series.

use anna_baseline::{CpuModel, GpuModel};
use anna_core::{engine::analytic, scale_out_qps, AnnaConfig, BatchWorkload, ScmAllocation};
use anna_data::{recall, synth, ClusterSizeModel, PaperDataset};
use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams, Trainer};
use std::cell::OnceCell;
use std::io;
use std::path::{Path, PathBuf};

use crate::configs::{Platform, SearchConfig};
use crate::json::Json;
use crate::scale::Scale;

/// One point of a Figure 8 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// `W` used on the scaled index for the recall measurement.
    pub w_scaled: usize,
    /// `W` used at paper scale for the timing model.
    pub w_paper: usize,
    /// Recall `X@Y`.
    pub recall: f64,
    /// Queries per second.
    pub qps: f64,
}

/// One line of a plot.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Sweep points (increasing `W`).
    pub points: Vec<SeriesPoint>,
}

/// One of the twelve Figure 8 plots.
#[derive(Debug, Clone, PartialEq)]
pub struct Plot {
    /// Dataset label.
    pub dataset: String,
    /// Compression ratio (4 or 8).
    pub compression: u32,
    /// All series (software + ANNA lines).
    pub series: Vec<Series>,
    /// Exhaustive exact-search QPS footnotes: ScaNN (CPU), Faiss (CPU),
    /// Faiss (GPU).
    pub exhaustive_qps: [f64; 3],
}

impl Plot {
    /// Serializes the plot for the JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("dataset", self.dataset.clone())
            .set("compression", self.compression)
            .set("exhaustive_qps", self.exhaustive_qps.to_vec())
            .set(
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj().set("name", s.name.clone()).set(
                                "points",
                                Json::Arr(
                                    s.points
                                        .iter()
                                        .map(|p| {
                                            Json::obj()
                                                .set("w_scaled", p.w_scaled)
                                                .set("w_paper", p.w_paper)
                                                .set("recall", p.recall)
                                                .set("qps", p.qps)
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            )
    }
}

/// The shared context for one (dataset, compression) plot: scaled data,
/// ground truth, the paper-scale cluster model, and the trained models —
/// each trained the first time a report asks for it, so a report that
/// reads only the paper-scale side (Figures 9 and 10) trains none.
#[derive(Debug)]
pub struct PlotContext {
    /// Which dataset.
    pub dataset: PaperDataset,
    /// 4, 8 or 16.
    pub compression: u32,
    /// Scale profile.
    pub scale: Scale,
    /// Scaled dataset (db + queries).
    pub data: synth::Dataset,
    /// Exact top-X ground truth on the scaled data.
    pub gt: recall::GroundTruth,
    /// One slot per distinct `model_key()` of [`SearchConfig::ALL`].
    models: Vec<((usize, Trainer), OnceCell<IvfPqIndex>)>,
    /// Paper-scale cluster-size model.
    pub cluster_model: ClusterSizeModel,
}

impl PlotContext {
    /// Generates data, ground truth and the cluster model for a plot.
    pub fn build(dataset: PaperDataset, compression: u32, scale: &Scale) -> Self {
        let spec = dataset.spec(scale.db_n, scale.num_queries, scale.seed);
        let data = synth::generate(&spec);
        let gt = recall::ground_truth(&data.queries, &data.db, data.metric, scale.recall_x);

        let mut models: Vec<((usize, Trainer), OnceCell<IvfPqIndex>)> = Vec::new();
        for cfg in &SearchConfig::ALL {
            let key = cfg.model_key();
            if !models.iter().any(|(k, _)| *k == key) {
                models.push((key, OnceCell::new()));
            }
        }

        let cluster_model = ClusterSizeModel::skewed(
            dataset.full_n(),
            dataset.paper_num_clusters(),
            0.35,
            scale.seed,
        );

        Self {
            dataset,
            compression,
            scale: scale.clone(),
            data,
            gt,
            models,
            cluster_model,
        }
    }

    /// The index over the scaled dataset a configuration searches.
    pub fn model(&self, cfg: &SearchConfig) -> &IvfPqIndex {
        let (_, slot) = self
            .models
            .iter()
            .find(|(k, _)| *k == cfg.model_key())
            .expect("a slot for every configuration");
        slot.get_or_init(|| {
            IvfPqIndex::build(
                &self.data.db,
                &IvfPqConfig {
                    metric: self.data.metric,
                    num_clusters: self.scale.num_clusters,
                    m: self.dataset.m_for(self.compression, cfg.kstar),
                    kstar: cfg.kstar,
                    trainer: cfg.trainer,
                    coarse_iters: self.scale.train_iters,
                    pq_iters: self.scale.train_iters,
                    seed: self.scale.seed,
                },
            )
        })
    }

    /// Measured recall `X@Y` on the scaled index at a given `W`.
    pub fn recall_at(&self, cfg: &SearchConfig, w_scaled: usize) -> f64 {
        let params = SearchParams {
            nprobe: w_scaled,
            k: self.scale.recall_y,
            ..Default::default()
        };
        let (results, _) = BatchedScan::new(self.model(cfg)).run(&self.data.queries, &params);
        recall::recall_x_at_y(&self.gt, &results, self.scale.recall_y)
    }

    /// The paper-scale batch workload at a given `W`.
    pub fn paper_workload(&self, cfg: &SearchConfig, w_paper: usize) -> BatchWorkload {
        let m = self.dataset.m_for(self.compression, cfg.kstar);
        let shape = anna_core::SearchShape {
            d: self.dataset.dim(),
            m,
            kstar: cfg.kstar,
            metric: self.dataset.metric(),
            num_clusters: self.dataset.paper_num_clusters(),
            k: 1000,
        };
        BatchWorkload {
            shape,
            cluster_sizes: self.cluster_model.sizes().to_vec(),
            visits: self.cluster_model.sample_query_visits(
                self.scale.batch,
                w_paper.min(self.dataset.paper_num_clusters()),
                self.scale.seed ^ w_paper as u64,
            ),
        }
    }

    /// ANNA throughput (QPS) at paper scale with the memory-traffic
    /// optimization and automatic SCM allocation.
    pub fn anna_qps(&self, cfg: &SearchConfig, w_paper: usize) -> f64 {
        let workload = self.paper_workload(cfg, w_paper);
        let hw = AnnaConfig::paper();
        analytic::batch(&hw, &workload, ScmAllocation::Auto).qps(&hw)
    }

    /// ANNA ×12 throughput (each instance at 75 GB/s), the fair-bandwidth
    /// comparison against the V100.
    pub fn anna_x12_qps(&self, cfg: &SearchConfig, w_paper: usize) -> f64 {
        let workload = self.paper_workload(cfg, w_paper);
        let hw = AnnaConfig::paper_x12_instance();
        scale_out_qps(&hw, &workload, ScmAllocation::Auto, 12)
    }

    /// Software baseline throughput at paper scale.
    pub fn software_qps(&self, cfg: &SearchConfig, w_paper: usize) -> f64 {
        let workload = self.paper_workload(cfg, w_paper);
        let shape = workload.shape;
        let b = workload.b();
        let vectors_per_query: u64 = workload
            .visits
            .iter()
            .flat_map(|v| v.iter().map(|&c| workload.cluster_sizes[c] as u64))
            .sum::<u64>()
            / b as u64;
        let bytes_per_vec = shape.encoded_bytes_per_vector() as u64;
        match cfg.platform {
            Platform::Gpu => GpuModel::v100_faiss256().qps(b, vectors_per_query, bytes_per_vec),
            _ => {
                let mut touched = vec![false; workload.cluster_sizes.len()];
                for v in &workload.visits {
                    for &c in v {
                        touched[c] = true;
                    }
                }
                let unique_bytes: u64 = touched
                    .iter()
                    .zip(&workload.cluster_sizes)
                    .filter(|(t, _)| **t)
                    .map(|(_, &s)| s as u64 * bytes_per_vec)
                    .sum();
                CpuModel::paper().qps(
                    b,
                    vectors_per_query,
                    shape.m,
                    shape.kstar,
                    bytes_per_vec,
                    unique_bytes,
                    cfg.cpu_schedule(b).expect("cpu platform"),
                )
            }
        }
    }
}

/// Builds one full Figure 8 plot: for each configuration, the software and
/// ANNA series over the rank-paired `W` sweeps, plus the exhaustive
/// footnotes.
pub fn run_plot(ctx: &PlotContext) -> Plot {
    let (dataset, scale) = (ctx.dataset, &ctx.scale);
    let paper_w = scale.paper_w_for(dataset.is_billion_scale());

    let mut series = Vec::new();
    for cfg in &SearchConfig::ALL {
        let mut sw = Series {
            name: cfg.sw_name.to_string(),
            points: Vec::new(),
        };
        let mut anna = Series {
            name: cfg.anna_name.to_string(),
            points: Vec::new(),
        };
        for (i, &w_scaled) in scale.scaled_w.iter().enumerate() {
            let w_paper = paper_w[i];
            let r = ctx.recall_at(cfg, w_scaled);
            sw.points.push(SeriesPoint {
                w_scaled,
                w_paper,
                recall: r,
                qps: ctx.software_qps(cfg, w_paper),
            });
            let anna_qps = if cfg.platform == Platform::Gpu {
                ctx.anna_x12_qps(cfg, w_paper)
            } else {
                ctx.anna_qps(cfg, w_paper)
            };
            anna.points.push(SeriesPoint {
                w_scaled,
                w_paper,
                recall: r,
                qps: anna_qps,
            });
        }
        series.push(sw);
        series.push(anna);
    }

    let n = dataset.full_n();
    let d = dataset.dim();
    let exhaustive_qps = [
        anna_baseline::exhaustive::ExhaustiveModel::cpu().qps(n, d),
        anna_baseline::exhaustive::ExhaustiveModel::cpu().qps(n, d),
        anna_baseline::exhaustive::ExhaustiveModel::gpu().qps(n, d),
    ];

    Plot {
        dataset: dataset.name().to_string(),
        compression: ctx.compression,
        series,
        exhaustive_qps,
    }
}

/// The plot contexts of one process, each built the first time a report
/// asks for its (dataset, compression) pair, so the reports of one
/// `runall` share scaled data, ground truth and trained models.
#[derive(Debug)]
pub struct Contexts {
    /// The profile every context is built under.
    pub scale: Scale,
    built: Vec<PlotContext>,
}

impl Contexts {
    /// An empty set under one scale profile.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            built: Vec::new(),
        }
    }

    /// The context for a (dataset, compression) pair.
    pub fn get(&mut self, dataset: PaperDataset, compression: u32) -> &PlotContext {
        let at = self
            .built
            .iter()
            .position(|c| c.dataset == dataset && c.compression == compression);
        let at = at.unwrap_or_else(|| {
            self.built
                .push(PlotContext::build(dataset, compression, &self.scale));
            self.built.len() - 1
        });
        &self.built[at]
    }

    /// How many indexes have been trained so far, over all contexts.
    pub fn models_trained(&self) -> usize {
        let slots = self.built.iter().flat_map(|ctx| &ctx.models);
        slots.filter(|(_, slot)| slot.get().is_some()).count()
    }
}

/// `reports/` under the workspace root, found at run time: the nearest
/// ancestor of the working directory that holds a `Cargo.lock`. A binary
/// therefore reads and writes the checkout it is run in, not the one it
/// was compiled in.
pub fn reports_dir() -> io::Result<PathBuf> {
    let cwd = std::env::current_dir()?;
    cwd.ancestors()
        .find(|dir| dir.join("Cargo.lock").is_file())
        .map(|root| root.join("reports"))
        .ok_or_else(|| io::Error::other(format!("no Cargo.lock above {}", cwd.display())))
}

/// Writes `<dir>/<name>.json`; the directory must exist, and an error
/// names the path it could not write.
pub fn write_report_in(dir: &Path, name: &str, json: &Json) -> io::Result<PathBuf> {
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json.to_string())
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(path)
}

/// Formats a QPS number the way the paper's log-scale plots read.
pub fn fmt_qps(q: f64) -> String {
    if q >= 1000.0 {
        format!("{:.1}k", q / 1000.0)
    } else if q >= 10.0 {
        format!("{q:.0}")
    } else {
        format!("{q:.2}")
    }
}

/// A query workload for single-query latency at paper scale: the sizes of
/// `w` size-biased sampled clusters.
pub fn latency_workload(
    ctx: &PlotContext,
    cfg: &SearchConfig,
    w_paper: usize,
) -> anna_core::QueryWorkload {
    let m = ctx.dataset.m_for(ctx.compression, cfg.kstar);
    let visits = ctx
        .cluster_model
        .sample_query_visits(1, w_paper, ctx.scale.seed);
    anna_core::QueryWorkload {
        shape: anna_core::SearchShape {
            d: ctx.dataset.dim(),
            m,
            kstar: cfg.kstar,
            metric: ctx.dataset.metric(),
            num_clusters: ctx.dataset.paper_num_clusters(),
            k: 1000,
        },
        visited_cluster_sizes: visits[0]
            .iter()
            .map(|&c| ctx.cluster_model.sizes()[c])
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            db_n: 3000,
            num_queries: 12,
            num_clusters: 12,
            recall_x: 5,
            recall_y: 50,
            scaled_w: vec![1, 3, 6],
            paper_w: vec![8, 32, 128],
            batch: 64,
            train_iters: 2,
            seed: 1,
        }
    }

    #[test]
    fn recall_increases_with_w() {
        let ctx = PlotContext::build(PaperDataset::Sift1M, 4, &tiny_scale());
        let cfg = &SearchConfig::ALL[1]; // Faiss16
        let r1 = ctx.recall_at(cfg, 1);
        let r6 = ctx.recall_at(cfg, 6);
        let r12 = ctx.recall_at(cfg, 12);
        assert!(r6 >= r1, "recall must not drop with W: {r1} -> {r6}");
        assert!(r12 >= r6);
        assert!(r12 > 0.5, "full probe recall too low: {r12}");
    }

    #[test]
    fn anna_beats_cpu_baseline() {
        let ctx = PlotContext::build(PaperDataset::Sift1B, 4, &tiny_scale());
        let cfg = &SearchConfig::ALL[0]; // ScaNN16 (query-major CPU)
        let anna = ctx.anna_qps(cfg, 32);
        let sw = ctx.software_qps(cfg, 32);
        assert!(
            anna > sw,
            "ANNA ({anna}) must outperform the query-major CPU baseline ({sw})"
        );
    }

    #[test]
    fn qps_decreases_with_w() {
        let ctx = PlotContext::build(PaperDataset::Sift1B, 4, &tiny_scale());
        let cfg = &SearchConfig::ALL[1];
        let fast = ctx.anna_qps(cfg, 8);
        let slow = ctx.anna_qps(cfg, 128);
        assert!(
            fast > slow,
            "more clusters must cost throughput: {fast} vs {slow}"
        );
    }

    #[test]
    fn run_plot_produces_all_series() {
        let plot = run_plot(&PlotContext::build(PaperDataset::Glove1M, 4, &tiny_scale()));
        assert_eq!(plot.series.len(), 8); // 4 configs x (software + ANNA)
        for s in &plot.series {
            assert_eq!(s.points.len(), 3);
        }
        assert!(plot.exhaustive_qps[2] > plot.exhaustive_qps[0]);
        // JSON serialization round trip sanity.
        let j = plot.to_json().to_string();
        assert!(j.contains("GloVe"));
        assert!(j.contains("ScaNN16 (CPU)"));
    }

    #[test]
    fn latency_workload_has_w_clusters() {
        let ctx = PlotContext::build(PaperDataset::Deep1B, 4, &tiny_scale());
        let q = latency_workload(&ctx, &SearchConfig::ALL[2], 32);
        assert_eq!(q.visited_cluster_sizes.len(), 32);
        assert!(q.vectors_scanned() > 0);
    }
}
