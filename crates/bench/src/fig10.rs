//! Figure 10: energy efficiency of ANNA normalized to the corresponding
//! CPU/GPU implementation (4:1 compression, `W = 32`).

use anna_baseline::{power, GpuModel};
use anna_core::{engine::analytic, AnnaConfig, AreaPowerModel, ScmAllocation};
use anna_data::PaperDataset;

use crate::configs::{Platform, SearchConfig};
use crate::harness::Contexts;
use crate::json::Json;

/// One bar of Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Dataset label.
    pub dataset: String,
    /// Configuration pair label.
    pub config: String,
    /// Software energy per query, joules.
    pub sw_energy_j: f64,
    /// ANNA energy per query, joules.
    pub anna_energy_j: f64,
    /// ANNA average power during the run, watts.
    pub anna_power_w: f64,
}

impl EnergyRow {
    /// Normalized energy efficiency (software / ANNA) — the figure's
    /// y-axis.
    pub fn efficiency(&self) -> f64 {
        self.sw_energy_j / self.anna_energy_j
    }
}

/// The Figure 10 result.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// All bars.
    pub rows: Vec<EnergyRow>,
}

/// Runs Figure 10 for the given datasets at `W = 32`, 4:1 compression.
pub fn run(datasets: &[PaperDataset], contexts: &mut Contexts) -> Fig10 {
    let w_paper = 32;
    let area_power = AreaPowerModel::paper();
    let mut rows = Vec::new();
    for &dataset in datasets {
        let ctx = contexts.get(dataset, 4);
        let w = if dataset.is_billion_scale() {
            w_paper
        } else {
            w_paper.min(16)
        };
        for cfg in &SearchConfig::ALL {
            let workload = ctx.paper_workload(cfg, w);
            let b = workload.b();
            let bytes_per_vec = workload.shape.encoded_bytes_per_vector() as u64;
            let vectors_per_query: u64 = workload
                .visits
                .iter()
                .flat_map(|v| v.iter().map(|&c| workload.cluster_sizes[c] as u64))
                .sum::<u64>()
                / b as u64;

            // Software energy = measured-average power x model runtime.
            let sw_energy_j = match cfg.platform {
                Platform::Gpu => GpuModel::v100_faiss256().energy_per_query_joules(
                    b,
                    vectors_per_query,
                    bytes_per_vec,
                ),
                _ => {
                    let p = if cfg.is_scann() {
                        power::CPU_SCANN_W
                    } else {
                        power::CPU_FAISS_W
                    };
                    let secs = 1.0 / ctx.software_qps(cfg, w);
                    p * secs
                }
            };

            // ANNA energy from the activity-based model.
            let hw = AnnaConfig::paper();
            let report = analytic::batch(&hw, &workload, ScmAllocation::Auto);
            let anna_energy_j = area_power.energy_per_query_joules(&hw, &report);
            let anna_power_w = area_power.average_power_w(&hw, &report);

            rows.push(EnergyRow {
                dataset: dataset.name().to_string(),
                config: format!("{} vs {}", cfg.anna_name, cfg.sw_name),
                sw_energy_j,
                anna_energy_j,
                anna_power_w,
            });
        }
    }
    Fig10 { rows }
}

impl Fig10 {
    /// JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj().set(
            "rows",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .set("dataset", r.dataset.clone())
                            .set("config", r.config.clone())
                            .set("sw_energy_j", r.sw_energy_j)
                            .set("anna_energy_j", r.anna_energy_j)
                            .set("anna_power_w", r.anna_power_w)
                            .set("efficiency", r.efficiency())
                    })
                    .collect(),
            ),
        )
    }

    /// The minimum efficiency across all bars (the paper claims "97×+
    /// across all configurations").
    pub fn min_efficiency(&self) -> f64 {
        self.rows
            .iter()
            .map(EnergyRow::efficiency)
            .fold(f64::INFINITY, f64::min)
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::from("\n=== Figure 10: normalized energy efficiency (4:1, W=32) ===\n");
        let mut last = String::new();
        for r in &self.rows {
            if r.dataset != last {
                s.push_str(&format!("--- {} ---\n", r.dataset));
                last = r.dataset.clone();
            }
            s.push_str(&format!(
                "{:>42}: {:>9.0}x  (ANNA {:.2} W, {:.2e} J/query vs {:.2e} J/query)\n",
                r.config,
                r.efficiency(),
                r.anna_power_w,
                r.anna_energy_j,
                r.sw_energy_j
            ));
        }
        s.push_str(&format!(
            "minimum efficiency gain: {:.0}x\n",
            self.min_efficiency()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn anna_energy_efficiency_is_orders_of_magnitude() {
        let mut scale = Scale::quick();
        scale.db_n = 3000;
        scale.num_queries = 8;
        scale.num_clusters = 12;
        scale.train_iters = 2;
        let mut contexts = Contexts::new(scale);
        let fig = run(&[PaperDataset::Sift1B, PaperDataset::Tti1B], &mut contexts);
        assert_eq!(contexts.models_trained(), 0, "energy is paper-scale only");
        assert!(!fig.rows.is_empty());
        // The paper's headline: 97x+ across all configurations.
        let min = fig.min_efficiency();
        assert!(
            min > 30.0,
            "minimum efficiency {min} too low for the paper's claim shape"
        );
        // ANNA's average power stays in/below the peak envelope.
        for r in &fig.rows {
            assert!(
                r.anna_power_w <= 5.398 + 1e-9,
                "power {} exceeds peak",
                r.anna_power_w
            );
            assert!(
                r.anna_power_w > 0.5,
                "power {} implausibly low",
                r.anna_power_w
            );
        }
    }
}
